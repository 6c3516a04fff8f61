"""Property-style round-trip tests for the marshaling convention.

The always-on marshaling cache must be invisible: for every payload,
``decode(encode(v)) == v`` cold and warm, and the wire bytes must equal
the uncached reference encoding ``repr(_to_wire(v)).encode()``.
"""

from dataclasses import replace

import pytest

from repro.core import convention
from repro.errors import GuestOSError, SimulationError
from repro.guestos.fs.inode import InodeType, StatResult


def _stat(ino=7):
    return StatResult(ino=ino, type=InodeType.FILE, mode=0o600, uid=3,
                      gid=4, size=1234, nlink=2, atime=1, mtime=2, ctime=3)


#: Payloads exercising every tagged type in nested positions.
PAYLOADS = [
    None, True, False, 0, 1, -1, 2 ** 63, 3.25, -0.0, "", "text",
    "uniécode", b"", b"\x00\x01\xfe", (), (1,), ((1, 2), (3, (4,))),
    [1, 2, 3], [[], [[]]], {}, {"k": "v"},
    _stat(),
    [_stat(1), _stat(2)],
    {"stat": _stat(), "errs": [GuestOSError(2, "enoent")]},
    ("mixed", [_stat(9), b"raw", {"deep": (GuestOSError(13, "eacces"),)}]),
    (("t", ("u", ("p", ("l", "e"))))),
    {"empty-ish": [None, (), [], {}, "", b""]},
    {b"k": [1], 2: None, 1.5: "f", None: (), True: -0.0},
]


def _reference_encode(value):
    """The uncached reference encoding the cache must reproduce."""
    return repr(convention._to_wire(value)).encode()


def _eq(a, b):
    """Equality that also distinguishes GuestOSError payloads, dict key
    types and the sign of a float zero."""
    if isinstance(a, GuestOSError):
        return (isinstance(b, GuestOSError) and a.errno == b.errno
                and a.message == b.message)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_eq(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return isinstance(b, dict) and _eq(list(a.items()),
                                           list(b.items()))
    if type(a) is float:
        return type(b) is float and repr(a) == repr(b)
    return type(a) is type(b) and a == b


class TestRoundTripProperty:
    @pytest.mark.parametrize("value", PAYLOADS)
    def test_round_trip_fast(self, value):
        assert _eq(convention.decode(convention.encode(value)), value)

    @pytest.mark.parametrize("value", PAYLOADS)
    def test_round_trip_slow(self, value):
        """The reference wire decodes back from a cold cache."""
        convention.clear_caches()
        assert _eq(convention.decode(_reference_encode(value)), value)

    @pytest.mark.parametrize("value", PAYLOADS)
    def test_wire_bytes_identical_fast_vs_slow(self, value):
        convention.clear_caches()
        cold = convention.encode(value)
        warm = convention.encode(value)
        assert _reference_encode(value) == cold == warm

    @pytest.mark.parametrize("value", PAYLOADS)
    def test_round_trip_warm_cache(self, value):
        convention.clear_caches()
        first = convention.decode(convention.encode(value))
        second = convention.decode(convention.encode(value))
        assert _eq(first, value) and _eq(second, value)


class TestScalarTypeFidelity:
    @pytest.mark.parametrize("a,b", [(1, True), (0, False), (1, 1.0)])
    def test_equal_hashing_scalars_stay_distinct(self, a, b):
        """1, True and 1.0 hash equal; the cache must not mix them."""
        convention.clear_caches()
        for v in (a, b, a, b):
            decoded = convention.decode(convention.encode(v))
            assert type(decoded) is type(v) and decoded == v

    def test_enum_rejected_identically_both_paths(self):
        """A bare enum is not marshalable; the cached encoder must reject
        it exactly like the reference (no scalar shortcut, no caching)."""
        for encode in (convention.encode, _reference_encode):
            with pytest.raises(SimulationError, match="cannot marshal"):
                encode(InodeType.FILE)

    @pytest.mark.parametrize("first,second", [
        ({1: "a"}, {True: "a"}), ({0: "a"}, {False: "a"}),
        ({2: "a"}, {2.0: "a"}), ({0.0: "a"}, {-0.0: "a"}),
        ((0.0,), (-0.0,)), ([1.0, 0.0], [1.0, -0.0]),
    ])
    def test_equal_hashing_keys_and_zeros_stay_distinct(self, first,
                                                         second):
        """Dict keys and float zeros that hash equal but encode apart
        must not share a cache entry, whichever is marshaled first."""
        convention.clear_caches()
        for v in (first, second, first, second):
            assert convention.encode(v) == _reference_encode(v)
            wire, copy = convention.roundtrip(v)
            assert wire == _reference_encode(v) and _eq(copy, v)

    def test_bool_int_reprs_survive_caching(self):
        """An int subclass like bool must keep its own wire form even
        after the other type was cached under an equal-hashing key."""
        convention.clear_caches()
        assert convention.encode((1,)) == b"(1,)"
        assert convention.encode((True,)) == b"(True,)"
        assert convention.encode((1.0,)) == b"(1.0,)"


class TestLiteralSafeDomain:
    """``roundtrip(v)`` is ``(encode(v), decode(encode(v)))``, also where
    the wire does not parse back."""

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), (1, float("nan")),
        [float("inf")], {"k": -float("inf")}, {float("nan"): 1},
        {float("inf"): 1}, replace(_stat(), atime=float("nan")),
    ], ids=repr)
    def test_non_finite_rejected_like_the_wire(self, value):
        for _ in range(2):      # never cached, cold or warm
            wire = convention.encode(value)
            assert wire == _reference_encode(value)
            with pytest.raises(SimulationError):
                convention.decode(wire)
            with pytest.raises(SimulationError):
                convention.roundtrip(value)

    @pytest.mark.parametrize("value", [
        {(1, 2): "tuple key"}, {("__bytes__", "61"): 1},
        replace(_stat(), atime=1.5), GuestOSError(True, "bool errno"),
    ], ids=repr)
    def test_outside_the_key_domain_matches_reference(self, value):
        convention.clear_caches()
        wire, copy = convention.roundtrip(value)
        assert wire == _reference_encode(value)
        assert _eq(copy, convention.decode(wire))


class TestCacheSafety:
    def test_decoded_mutables_not_shared(self):
        """Two decodes of the same wire list must not alias."""
        wire = convention.encode([1, 2, 3])
        first = convention.decode(wire)
        second = convention.decode(wire)
        first.append(4)
        assert second == [1, 2, 3]

    def test_mutated_payload_reencodes_fresh(self):
        """Encoding must track content, not object identity."""
        payload = (1, 2)
        assert convention.encode(payload) == convention.encode((1, 2))
        assert convention.encode((1, 3)) != convention.encode((1, 2))

    def test_cache_stats_count_hits(self):
        convention.clear_caches()
        convention.encode((b"abc", 1))
        convention.encode((b"abc", 1))
        assert convention.cache_stats["encode_hits"] >= 1

    def test_cache_bounded(self):
        convention.clear_caches()
        for i in range(convention._CACHE_MAX + 100):
            convention.encode((b"pad", i))
        assert len(convention._marshal_cache) <= convention._CACHE_MAX


class TestCorruptPayloads:
    @pytest.mark.parametrize("wire", [
        b"((((", b"", b"1 +", b"[1, 2", b"\xff\xfe", b"lambda: 1",
        b"__import__('os')",
    ])
    def test_corrupt_wire_rejected_both_paths(self, wire):
        """Rejected from a cold cache and from a warm one, and never
        cached: the second attempt fails the same way."""
        convention.clear_caches()
        with pytest.raises(SimulationError):
            convention.decode(wire)
        convention.decode(convention.encode([1, 2]))
        with pytest.raises(SimulationError):
            convention.decode(wire)
