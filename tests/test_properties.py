"""Property-based tests (hypothesis) on core data structures and
invariants."""

import string
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import convention
from repro.errors import GuestOSError, PageFault, SimulationError
from repro.guestos.fd import FDTable, MAX_FDS, OpenFile
from repro.guestos.fs.inode import Inode, InodeType, StatResult
from repro.guestos.pipe import Pipe, WouldBlock
from repro.hw.costs import Cost
from repro.hw.ept import EPT
from repro.hw.mem import PAGE_SIZE
from repro.hw.paging import PageTable
from repro.hw.perf import PerfCounters
from repro.hw.world_table import WorldTable, WorldTableCaches

# ---------------------------------------------------------------------------
# marshaling convention
# ---------------------------------------------------------------------------

_wire_values = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.text(string.printable, max_size=40) |
    st.binary(max_size=60),
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.lists(children, max_size=4)
    | st.dictionaries(st.text(string.ascii_letters, min_size=1, max_size=8),
                      children, max_size=4),
    max_leaves=12)


#: Scalars, ``nan``/``inf`` included, and the rich result types.
_marshal_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12) | st.binary(max_size=12)
    | st.builds(StatResult, ino=st.integers(0, 2 ** 40),
                type=st.sampled_from(InodeType), mode=st.integers(0, 0o7777),
                uid=st.integers(0, 65535), gid=st.integers(0, 65535),
                size=st.integers(0, 2 ** 40), nlink=st.integers(1, 8),
                atime=st.integers() | st.floats(), mtime=st.integers(),
                ctime=st.integers())
    | st.builds(GuestOSError, st.integers(0, 200) | st.booleans(),
                st.text(max_size=12)))

#: Dict keys of every literal type, equal-hashing ones (1/True/1.0,
#: 0.0/-0.0) included, and tuple keys outside the keyed domain.
_marshal_keys = (st.none() | st.booleans() | st.integers(-3, 3)
                 | st.floats() | st.text(max_size=6) | st.binary(max_size=6)
                 | st.tuples(st.integers(-3, 3), st.text(max_size=3)))

_marshal_values = _marshal_leaves | st.recursive(
    _marshal_leaves,
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.lists(children, max_size=4)
    | st.dictionaries(_marshal_keys, children, max_size=4)
    # user tuples whose first element collides with a wire tag
    | st.tuples(st.sampled_from(sorted(convention._ALL_TAGS)),
                st.lists(children, max_size=3)).map(
                    lambda t: (t[0], *t[1])),
    max_leaves=12)


def _same(a, b) -> bool:
    """Structural equality that tells apart what the wire tells apart:
    exact types (dict keys included), float signs and GuestOSError
    contents."""
    if type(a) is not type(b):
        return False
    if type(a) is GuestOSError:
        return _same((a.errno, a.message), (b.errno, b.message))
    if type(a) is StatResult:
        return _same(astuple(a), astuple(b))
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return _same(list(a.items()), list(b.items()))
    if type(a) is float:
        return repr(a) == repr(b)
    return a == b


def _twin(value):
    """A value equal to ``value`` (so hashing equal) that encodes
    differently wherever it can: ``True``/``1``, ``2``/``2.0``,
    ``0.0``/``-0.0``, in leaves and dict keys alike."""
    t = type(value)
    if t is bool:
        return int(value)
    if t is int:
        if value in (0, 1):
            return bool(value)
        return float(value) if abs(value) < 2 ** 53 else value
    if t is float:
        return -value if value == 0 else value
    if t in (list, tuple):
        return t(map(_twin, value))
    if t is dict:
        return {_twin(k): _twin(v) for k, v in value.items()}
    return value


def _scribble(value) -> None:
    """Mutate every mutable part of a received copy in place."""
    if type(value) in (list, tuple):
        for item in value:
            _scribble(item)
        if type(value) is list:
            value.append("scribbled")
    elif type(value) is dict:
        for item in value.values():
            _scribble(item)
        value["scribbled"] = True
    elif type(value) is GuestOSError:
        value.errno, value.message = -1, "scribbled"


class TestConventionProperties:
    @given(_wire_values)
    @settings(max_examples=150)
    def test_encode_decode_roundtrip(self, value):
        assert convention.decode(convention.encode(value)) == value

    @given(_marshal_values, st.sampled_from(["cold", "encode", "twin"]))
    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    def test_roundtrip_is_encode_then_decode(self, value, warm):
        """``roundtrip(v)`` returns ``(encode(v), decode(encode(v)))``
        with the reference wire, or both raise ``SimulationError`` —
        from a cold cache, after ``encode`` alone filled the entry, and
        after an equal-hashing twin was marshaled."""
        convention.clear_caches()
        reference = repr(convention._to_wire(value)).encode()
        if warm == "encode":
            assert convention.encode(value) == reference
        elif warm == "twin":
            twin = _twin(value)
            convention.encode(twin)
            try:
                convention.roundtrip(twin)
            except SimulationError:
                pass
        try:
            expected = convention.decode(reference)
        except SimulationError:
            with pytest.raises(SimulationError):
                convention.roundtrip(value)
            return
        wire, copy = convention.roundtrip(value)
        assert wire == reference == convention.encode(value)
        assert _same(copy, expected)

    @given(_marshal_values)
    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_copy_never_leaks(self, value):
        """Scribbling on a received copy changes neither the sender's
        value nor what a later ``roundtrip`` of it returns."""
        convention.clear_caches()
        reference = repr(convention._to_wire(value)).encode()
        try:
            wire, copy = convention.roundtrip(value)
        except SimulationError:
            return
        expected = convention.decode(reference)
        for _ in range(2):
            _scribble(copy)
            assert repr(convention._to_wire(value)).encode() == reference
            wire, copy = convention.roundtrip(value)
            assert wire == reference and _same(copy, expected)

    @given(st.integers(min_value=0, max_value=200))
    def test_errno_roundtrip(self, errno):
        decoded = convention.decode(
            convention.encode(GuestOSError(errno, "m")))
        assert isinstance(decoded, GuestOSError)
        assert decoded.errno == errno


# ---------------------------------------------------------------------------
# paging: translation correctness under random mapping sequences
# ---------------------------------------------------------------------------

class TestPagingProperties:
    @given(st.dictionaries(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        min_size=1, max_size=40),
        st.integers(min_value=0, max_value=PAGE_SIZE - 1))
    def test_translation_matches_mapping(self, mapping, offset):
        pt = PageTable()
        for vpn, gfn in mapping.items():
            pt.map(vpn * PAGE_SIZE, gfn * PAGE_SIZE)
        for vpn, gfn in mapping.items():
            gva = vpn * PAGE_SIZE + offset
            assert pt.translate(gva) == gfn * PAGE_SIZE + offset
        # Unmapped neighbours fault.
        unmapped_vpn = max(mapping) + 1
        with pytest.raises(PageFault):
            pt.translate(unmapped_vpn * PAGE_SIZE)

    @given(st.sets(st.integers(min_value=0, max_value=100), min_size=2,
                   max_size=20))
    def test_unmap_exactly_removes(self, vpns):
        pt = PageTable()
        for vpn in vpns:
            pt.map(vpn * PAGE_SIZE, vpn * PAGE_SIZE)
        victims = sorted(vpns)[:len(vpns) // 2]
        for vpn in victims:
            pt.unmap(vpn * PAGE_SIZE)
        for vpn in vpns:
            if vpn in victims:
                with pytest.raises(PageFault):
                    pt.translate(vpn * PAGE_SIZE)
            else:
                pt.translate(vpn * PAGE_SIZE)


# ---------------------------------------------------------------------------
# world table: WID uniqueness + cache consistency under churn
# ---------------------------------------------------------------------------

class TestWorldTableProperties:
    @given(st.lists(st.sampled_from(["create", "destroy", "lookup"]),
                    min_size=1, max_size=60))
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_wid_uniqueness_under_churn(self, ops):
        table = WorldTable()
        caches = WorldTableCaches(4)
        live = []
        ever_issued = set()
        for op in ops:
            if op == "create" or not live:
                entry = table.create(host_mode=False, ring=0, ept=EPT(),
                                     page_table=PageTable(), pc=0)
                assert entry.wid not in ever_issued
                ever_issued.add(entry.wid)
                caches.fill(entry)
                live.append(entry)
            elif op == "destroy":
                entry = live.pop()
                table.destroy(entry.wid)
                caches.invalidate(entry)
            else:
                entry = live[-1]
                assert caches.wt.lookup(entry.wid) in (entry, None)
                assert table.walk_by_wid(entry.wid) is entry
        # Cache contents never contradict the table.
        for entry in live:
            cached = caches.wt.lookup(entry.wid)
            if cached is not None:
                assert cached is table.walk_by_wid(entry.wid)


# ---------------------------------------------------------------------------
# fd table: Unix lowest-free semantics
# ---------------------------------------------------------------------------

class TestFDTableProperties:
    @given(st.lists(st.sampled_from(["open", "close_low", "close_high"]),
                    min_size=1, max_size=50))
    def test_lowest_free_slot_invariant(self, ops):
        table = FDTable()
        open_fds = set()
        for op in ops:
            if op == "open" and len(open_fds) < MAX_FDS:
                fd = table.install(OpenFile())
                expected = min(set(range(MAX_FDS)) - open_fds)
                assert fd == expected
                open_fds.add(fd)
            elif open_fds:
                fd = min(open_fds) if op == "close_low" else max(open_fds)
                table.close(fd)
                open_fds.remove(fd)
        assert set(table.open_fds()) == open_fds


# ---------------------------------------------------------------------------
# pipes: conservation of bytes
# ---------------------------------------------------------------------------

class TestPipeProperties:
    @given(st.lists(st.binary(min_size=1, max_size=300), max_size=30),
           st.integers(min_value=1, max_value=600))
    def test_fifo_byte_conservation(self, chunks, read_size):
        pipe = Pipe(capacity=1 << 16)
        written = b""
        for chunk in chunks:
            written += chunk[:pipe.free_space]
            try:
                pipe.write(chunk)
            except WouldBlock:
                break
        pipe.close_write()
        read = b""
        while True:
            data = pipe.read(read_size)
            if not data:
                break
            read += data
        assert read == written


# ---------------------------------------------------------------------------
# perf counters: charges are additive and non-negative
# ---------------------------------------------------------------------------

class TestPerfProperties:
    @given(st.lists(st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000)), max_size=40))
    def test_additivity(self, charges):
        perf = PerfCounters()
        snap = perf.snapshot()
        for kind, insns, cycles in charges:
            perf.charge(kind, Cost(insns, cycles))
        delta = snap.delta(perf.snapshot())
        assert delta.cycles == sum(c for _, _, c in charges)
        assert delta.instructions == sum(i for _, i, _ in charges)
        assert sum(delta.events.values()) == len(charges)


# ---------------------------------------------------------------------------
# guest file I/O: write/read coherence through the syscall surface
# ---------------------------------------------------------------------------

class TestFileIOProperties:
    @given(st.lists(st.binary(min_size=1, max_size=120), min_size=1,
                    max_size=8))
    @settings(max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_write_then_read_back(self, chunks):
        from repro.testbed import build_single_vm_machine, enter_vm_kernel

        machine, vm, kernel = build_single_vm_machine()
        proc = kernel.spawn("io")
        enter_vm_kernel(machine, vm)
        kernel.enter_user(proc)
        fd = proc.syscall("open", "/tmp/blob", "rw", create=True,
                          trunc=True)
        for chunk in chunks:
            proc.syscall("write", fd, chunk)
        proc.syscall("lseek", fd, 0, "set")
        expected = b"".join(chunks)
        assert proc.syscall("read", fd, len(expected) + 10) == expected
        assert proc.syscall("fstat", fd).size == len(expected)
