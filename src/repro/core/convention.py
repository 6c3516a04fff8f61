"""The calling convention: marshaling values across worlds.

The caller and callee "negotiate the calling convention during setup and
simple parameters can be passed directly through registers" (Section
3.3).  We model that split:

* payloads whose wire form fits :data:`REGISTER_BUDGET` bytes are
  "register-passed" — no shared-memory copy is charged;
* larger payloads go through the shared-memory channel, charged by size.

The wire format is a restricted, reversible literal encoding (no pickle:
a malicious peer must not gain code execution through the channel).
Guest-kernel result types (:class:`StatResult`, :class:`GuestOSError`)
get explicit tagged encodings.
"""

from __future__ import annotations

import ast
import zlib
from collections import OrderedDict
from math import isfinite
from typing import Any

from repro import hooks as _hooks
from repro.errors import GuestOSError, SimulationError
from repro.guestos.fs.inode import InodeType, StatResult

#: Bytes of arguments that fit in registers (6 GPRs x 8 bytes).
REGISTER_BUDGET = 48

_STAT_TAG = "__stat__"
_ERR_TAG = "__errno__"
_BYTES_TAG = "__bytes__"
#: Escape tag for user tuples whose first element collides with a tag.
_LIT_TAG = "__lit__"

_ALL_TAGS = frozenset({_STAT_TAG, _ERR_TAG, _BYTES_TAG, _LIT_TAG})

#: Exact types whose repr is already the wire form (scalar fast path);
#: the walks below pass such items through without a call.
_SCALAR_TYPES = frozenset({bool, int, float, str, type(None)})

#: Immutable leaves a decoded template shares outright.
_LEAF_TYPES = _SCALAR_TYPES | {bytes}

#: Wire values :func:`_from_wire` rebuilds; anything else decodes as is.
_WIRE_CONTAINERS = frozenset({tuple, list, dict})


def _to_wire(value: Any) -> Any:
    """Convert to literal-encodable form (tagging rich types)."""
    if isinstance(value, StatResult):
        fields = (value.ino, value.type.value, value.mode, value.uid,
                  value.gid, value.size, value.nlink, value.atime,
                  value.mtime, value.ctime)
        return (_STAT_TAG, fields)
    if isinstance(value, GuestOSError):
        return (_ERR_TAG, value.errno, value.message)
    if isinstance(value, bytes):
        return (_BYTES_TAG, value.hex())
    if isinstance(value, tuple):
        wired = tuple([v if type(v) in _SCALAR_TYPES else _to_wire(v)
                       for v in value])
        if wired and isinstance(wired[0], str) and wired[0] in _ALL_TAGS:
            return (_LIT_TAG, wired)
        return wired
    if isinstance(value, list):
        return [v if type(v) in _SCALAR_TYPES else _to_wire(v)
                for v in value]
    if isinstance(value, dict):
        return {k: v if type(v) in _SCALAR_TYPES else _to_wire(v)
                for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SimulationError(f"cannot marshal {type(value).__name__} "
                          "across worlds")


def _from_wire(value: Any) -> Any:
    """Inverse of :func:`_to_wire`."""
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _LIT_TAG:
            # An escaped user tuple: un-wire its elements without
            # re-sniffing the tuple itself as a tag.
            return tuple([_from_wire(v) if type(v) in _WIRE_CONTAINERS
                          else v for v in value[1]])
        if len(value) == 2 and value[0] == _STAT_TAG:
            f = value[1]
            return StatResult(ino=f[0], type=InodeType(f[1]), mode=f[2],
                              uid=f[3], gid=f[4], size=f[5], nlink=f[6],
                              atime=f[7], mtime=f[8], ctime=f[9])
        if len(value) == 3 and value[0] == _ERR_TAG:
            return GuestOSError(value[1], value[2])
        if len(value) == 2 and value[0] == _BYTES_TAG:
            return bytes.fromhex(value[1])
        return tuple([_from_wire(v) if type(v) in _WIRE_CONTAINERS else v
                      for v in value])
    if isinstance(value, list):
        return [_from_wire(v) if type(v) in _WIRE_CONTAINERS else v
                for v in value]
    if isinstance(value, dict):
        return {k: _from_wire(v) if type(v) in _WIRE_CONTAINERS else v
                for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# The marshaling cache (always on).
#
# A crossing needs a payload's wire bytes (copy charges and the
# register-fit check depend only on their length) and a fresh copy for
# the other side.  :func:`roundtrip` returns both from one content-keyed
# LRU, ``key -> [wire, template]``; :func:`encode` reads only the wire
# half, and the template is filled the first time a crossing needs it.
# The wire is always the uncached reference encoding
# ``repr(_to_wire(value)).encode()``.
#
# The copy is thawed (rebuilt container by container, so no two
# receivers alias) from a template frozen from the live value; the wire
# is never parsed back.  That equals ``decode(encode(value))`` only in
# the *literal-safe domain*, the values :func:`_cache_key` keys; the
# rest take that reference path, so they are accepted or rejected
# exactly as the wire is.
#
# :func:`decode` keeps a wire-keyed LRU for readers that really hold
# bytes (channel reads, Tahoma's link).
# ---------------------------------------------------------------------------

_CACHE_MAX = 4096

#: content key -> ``[wire bytes, template or None until first needed]``.
_marshal_cache: "OrderedDict[Any, list]" = OrderedDict()
_decode_cache: "OrderedDict[bytes, Any]" = OrderedDict()

#: Integrity digests of cached wires, maintained only while a fault
#: engine is installed (the hot path pays nothing otherwise).  A hit
#: whose wire no longer matches its digest is a poisoned entry: its wire
#: is re-encoded from the live payload instead of ever handing corrupted
#: bytes to a channel.
_encode_crc: dict = {}

#: Hit/miss statistics, exposed for BENCH artifacts and tests.  A
#: :func:`roundtrip` hit or miss counts as an encode hit or miss.
cache_stats = {"encode_hits": 0, "encode_misses": 0,
               "decode_hits": 0, "decode_misses": 0,
               "poison_repaired": 0}

#: Leaves keyed by value: equal values of these types share one repr
#: (floats do not, and are keyed by :func:`_cache_key` itself).
_EXACT_LEAVES = _LEAF_TYPES - {float}

#: ``_cache_key({})``.
_EMPTY_DICT_KEY = (dict, ())


def _cache_key(value: Any) -> Any:
    """A hashable key identifying ``value`` and its structure, or
    ``None`` when ``value`` is outside the literal-safe domain.

    The concrete type is part of the key, and a float is keyed by its
    repr.  Mutable containers are keyed by content: a later mutation
    yields a different key rather than a stale hit.  ``None`` marks
    non-finite floats (``nan`` and ``inf`` do not parse back), dict keys
    that are not exact literal types, ``StatResult``/``GuestOSError``
    fields of unexpected types and unknown types.

    Exact leaves and empty dicts are keyed in the loop itself, so a
    ``(name, args, kwargs)`` request with scalar arguments and no
    keywords costs two calls (the request and its ``args``), and a
    directory listing costs one.
    """
    t = type(value)
    if t in _EXACT_LEAVES:
        return (t, value)
    if t is tuple or t is list:
        parts = []
        for item in value:
            it = type(item)
            if it in _EXACT_LEAVES:
                parts.append((it, item))
            elif it is dict and not item:
                parts.append(_EMPTY_DICT_KEY)
            else:
                part = _cache_key(item)
                if part is None:
                    return None
                parts.append(part)
        return (t, tuple(parts))
    if t is dict:
        parts = []
        for k, item in value.items():
            kt = type(k)
            if kt in _EXACT_LEAVES:
                k = (kt, k)
            elif kt is float:
                k = _cache_key(k)
                if k is None:
                    return None
            else:
                return None
            it = type(item)
            if it in _EXACT_LEAVES:
                parts.append((k, (it, item)))
                continue
            part = _cache_key(item)
            if part is None:
                return None
            parts.append((k, part))
        return (dict, tuple(parts))
    if t is float:
        return (float, repr(value)) if isfinite(value) else None
    if t is StatResult:
        fields = (value.ino, value.mode, value.uid, value.gid, value.size,
                  value.nlink, value.atime, value.mtime, value.ctime)
        for field in fields:
            if type(field) is not int:
                return None
        return (StatResult, value.type, fields)
    if t is GuestOSError:
        if type(value.errno) is int and type(value.message) is str:
            return (GuestOSError, value.errno, value.message)
    return None


class _Thaw:
    """Frozen template for a payload that must be rebuilt (not shared)
    on every use."""

    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        self.items = items


class _ThawTuple(_Thaw):
    pass


class _ThawList(_Thaw):
    pass


class _ThawDict(_Thaw):
    pass


class _ThawStat(_Thaw):
    pass


class _ThawErr(_Thaw):
    pass


#: Template node types :func:`_thaw` rebuilds; anything else is shared.
_THAW_TYPES = frozenset({_ThawList, _ThawTuple, _ThawDict, _ThawStat,
                         _ThawErr})


def _freeze(value: Any) -> Any:
    """Build a cacheable template for a value in the literal-safe domain
    (a live payload or a decoded one).

    Deeply immutable values are returned as-is (shared on hits);
    anything containing a mutable container or a rich type becomes a
    :class:`_Thaw` node tree rebuilt by :func:`_thaw` per hit.
    """
    t = type(value)
    if t in _LEAF_TYPES:
        return value
    if t is tuple:
        frozen = tuple([item if type(item) in _LEAF_TYPES else _freeze(item)
                        for item in value])
        for f, v in zip(frozen, value):
            if f is not v:
                return _ThawTuple(frozen)
        return value
    if t is list:
        return _ThawList(tuple([item if type(item) in _LEAF_TYPES
                                else _freeze(item) for item in value]))
    if t is dict:
        return _ThawDict(tuple([(k, item if type(item) in _LEAF_TYPES
                                 else _freeze(item))
                                for k, item in value.items()]))
    if t is StatResult:
        return _ThawStat((value.ino, value.type, value.mode, value.uid,
                          value.gid, value.size, value.nlink, value.atime,
                          value.mtime, value.ctime))
    if t is GuestOSError:
        # Exceptions gain state when raised (``__traceback__``); a
        # cached instance must never be handed to two raisers.
        return _ThawErr((value.errno, value.message))
    raise SimulationError(f"cannot freeze {t.__name__}")  # pragma: no cover


def _thaw(node: Any) -> Any:
    """Rebuild a fresh value from a :func:`_freeze` template."""
    t = type(node)
    if t is _ThawList:
        return [_thaw(item) if type(item) in _THAW_TYPES else item
                for item in node.items]
    if t is _ThawTuple:
        return tuple([_thaw(item) if type(item) in _THAW_TYPES else item
                      for item in node.items])
    if t is _ThawDict:
        return {k: _thaw(item) if type(item) in _THAW_TYPES else item
                for k, item in node.items}
    if t is _ThawStat:
        f = node.items
        return StatResult(ino=f[0], type=f[1], mode=f[2], uid=f[3],
                          gid=f[4], size=f[5], nlink=f[6], atime=f[7],
                          mtime=f[8], ctime=f[9])
    if t is _ThawErr:
        return GuestOSError(node.items[0], node.items[1])
    return node


def clear_caches() -> None:
    """Drop the marshaling caches and zero the statistics."""
    _marshal_cache.clear()
    _decode_cache.clear()
    _encode_crc.clear()
    for key in cache_stats:
        cache_stats[key] = 0


def poison_encode_cache() -> int:
    """Corrupt every tracked cached wire (fault injection).

    Flips the last byte of each cached wire whose integrity digest is
    being maintained; returns how many entries were poisoned.  Used by
    the ``core.marshal_cache_poison`` injection site.
    """
    poisoned = 0
    for key in _encode_crc:
        entry = _marshal_cache.get(key)
        if entry is None or not entry[0]:
            continue
        wire = entry[0]
        entry[0] = wire[:-1] + bytes([wire[-1] ^ 0xFF])
        poisoned += 1
    return poisoned


def _slow_lookup(key: Any, value: Any, entry: "list | None") -> list:
    """The cache entry ``[wire, template]`` of ``value`` (content key
    ``key``) when the inline hit path of :func:`encode` and
    :func:`roundtrip` cannot serve it: made on a miss (``entry`` is
    ``None``), or checked because a fault engine is installed.

    A checked hit whose wire fails its integrity digest is repaired
    from the live payload here, so every reader of the cache only ever
    sees intact bytes.
    """
    if entry is None:
        cache_stats["encode_misses"] += 1
        entry = [repr(_to_wire(value)).encode(), None]
        _marshal_cache[key] = entry
        if _hooks.faults is not None:
            _encode_crc[key] = zlib.crc32(entry[0])
        if len(_marshal_cache) > _CACHE_MAX:
            evicted_key, _ = _marshal_cache.popitem(last=False)
            _encode_crc.pop(evicted_key, None)
        return entry
    crc = _encode_crc.get(key)
    if crc is not None and zlib.crc32(entry[0]) != crc:
        entry[0] = repr(_to_wire(value)).encode()
        _encode_crc[key] = zlib.crc32(entry[0])
        cache_stats["poison_repaired"] += 1
        for fn in _hooks.marshal_repair:
            fn()
    _marshal_cache.move_to_end(key)
    cache_stats["encode_hits"] += 1
    return entry


def encode(value: Any) -> bytes:
    """Marshal ``value`` to its wire form.

    Memoized; the uncached reference encoding is
    ``repr(_to_wire(value)).encode()``, byte for byte."""
    if type(value) in _SCALAR_TYPES:
        # Register-sized scalar fast path: the repr *is* the wire form,
        # no tagging walk and no cache bookkeeping needed.
        return repr(value).encode()
    key = _cache_key(value)
    if key is None:
        return repr(_to_wire(value)).encode()
    entry = _marshal_cache.get(key)
    if entry is None or _hooks.faults is not None:
        return _slow_lookup(key, value, entry)[0]
    _marshal_cache.move_to_end(key)
    cache_stats["encode_hits"] += 1
    return entry[0]


def decode(data: bytes) -> Any:
    """Unmarshal wire bytes (literal-eval only; never executes code)."""
    cached = _decode_cache.get(data)
    if cached is not None:
        _decode_cache.move_to_end(data)
        cache_stats["decode_hits"] += 1
        return _thaw(cached) if isinstance(cached, _Thaw) else cached
    try:
        value = _from_wire(ast.literal_eval(data.decode()))
    except (ValueError, SyntaxError) as err:
        raise SimulationError(f"corrupt wire payload: {err}") from err
    cache_stats["decode_misses"] += 1
    _decode_cache[bytes(data)] = _freeze(value)
    if len(_decode_cache) > _CACHE_MAX:
        _decode_cache.popitem(last=False)
    return value


def roundtrip(value: Any) -> "tuple[bytes, Any]":
    """Marshal ``value`` for a crossing: ``(wire, fresh_copy)``.

    Always equal to ``(encode(value), decode(encode(value)))``, raising
    the same :class:`SimulationError` where that does, but the wire is
    never parsed: one content-key walk finds the shared cache entry and
    the copy is thawed from a template of the value itself.  Safe with a
    fault engine installed (the poison check is in :func:`_slow_lookup`).
    """
    t = type(value)
    if t in _SCALAR_TYPES and (t is not float or isfinite(value)):
        # Scalars are immutable and shareable: the repr is the wire form
        # and the "fresh copy" is the value itself.
        return repr(value).encode(), value
    key = _cache_key(value)
    if key is None:
        # Outside the literal-safe domain: the reference path.
        wire = repr(_to_wire(value)).encode()
        return wire, decode(wire)
    entry = _marshal_cache.get(key)
    if entry is None or _hooks.faults is not None:
        entry = _slow_lookup(key, value, entry)
    else:
        _marshal_cache.move_to_end(key)
        cache_stats["encode_hits"] += 1
    template = entry[1]
    if template is None:
        template = entry[1] = _freeze(value)
    return entry[0], (_thaw(template) if isinstance(template, _Thaw)
                      else template)


def fits_registers(data: bytes) -> bool:
    """Whether a wire payload is small enough for register passing."""
    return len(data) <= REGISTER_BUDGET
