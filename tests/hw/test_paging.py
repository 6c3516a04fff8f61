"""Guest page table tests."""

import itertools

import pytest

from repro.errors import PageFault, SimulationError
from repro.hw.mem import PAGE_SIZE
from repro.hw.paging import PTE, PageTable


GVA = 0x40_0000
GPA = 0x10_0000


class TestPTE:
    def test_permits_read(self):
        pte = PTE(gpa=GPA)
        assert pte.permits(write=False, user=True, execute=False)

    def test_write_protection(self):
        pte = PTE(gpa=GPA, writable=False)
        assert not pte.permits(write=True, user=True, execute=False)

    def test_supervisor_only(self):
        pte = PTE(gpa=GPA, user=False)
        assert not pte.permits(write=False, user=True, execute=False)
        assert pte.permits(write=False, user=False, execute=False)

    def test_nx(self):
        pte = PTE(gpa=GPA, executable=False)
        assert not pte.permits(write=False, user=True, execute=True)


class TestPageTable:
    def test_translate_basic(self):
        pt = PageTable()
        pt.map(GVA, GPA)
        assert pt.translate(GVA) == GPA
        assert pt.translate(GVA + 123) == GPA + 123

    def test_unmapped_faults(self):
        pt = PageTable()
        with pytest.raises(PageFault) as exc:
            pt.translate(GVA)
        assert exc.value.reason == "not-present"
        assert exc.value.vaddr == GVA

    def test_write_fault_on_readonly(self):
        pt = PageTable()
        pt.map(GVA, GPA, writable=False)
        assert pt.translate(GVA, write=False) == GPA
        with pytest.raises(PageFault) as exc:
            pt.translate(GVA, write=True)
        assert exc.value.reason == "protection"

    def test_user_fault_on_supervisor_page(self):
        pt = PageTable()
        pt.map(GVA, GPA, user=False)
        assert pt.translate(GVA, user=False) == GPA
        with pytest.raises(PageFault):
            pt.translate(GVA, user=True)

    def test_execute_fault_on_nx_page(self):
        pt = PageTable()
        pt.map(GVA, GPA)   # executable defaults to False
        with pytest.raises(PageFault):
            pt.translate(GVA, execute=True)

    def test_unaligned_map_rejected(self):
        pt = PageTable()
        with pytest.raises(SimulationError):
            pt.map(GVA + 1, GPA)
        with pytest.raises(SimulationError):
            pt.map(GVA, GPA + 1)

    def test_unmap(self):
        pt = PageTable()
        pt.map(GVA, GPA)
        pt.unmap(GVA)
        with pytest.raises(PageFault):
            pt.translate(GVA)

    def test_unmap_missing_rejected(self):
        pt = PageTable()
        with pytest.raises(SimulationError):
            pt.unmap(GVA)

    def test_remap_overwrites(self):
        pt = PageTable()
        pt.map(GVA, GPA)
        pt.map(GVA, GPA + PAGE_SIZE)
        assert pt.translate(GVA) == GPA + PAGE_SIZE

    def test_unique_roots(self):
        roots = {PageTable().root for _ in range(16)}
        assert len(roots) == 16

    def test_shared_root_token(self):
        """Section 4.2: helper page tables can share a CR3 value."""
        a = PageTable("a", root=0x1234000)
        b = PageTable("b", root=0x1234000)
        assert a.root == b.root

    def test_span_crosses_pages(self):
        pt = PageTable()
        pt.map(GVA, GPA)
        pt.map(GVA + PAGE_SIZE, GPA + 8 * PAGE_SIZE)
        pieces = list(pt.span(GVA + PAGE_SIZE - 4, 8))
        assert pieces == [(GPA + PAGE_SIZE - 4, 4), (GPA + 8 * PAGE_SIZE, 4)]

    def test_span_faults_on_hole(self):
        pt = PageTable()
        pt.map(GVA, GPA)
        with pytest.raises(PageFault):
            list(pt.span(GVA + PAGE_SIZE - 4, 8))

    def test_clone_mappings(self):
        src = PageTable()
        src.map(GVA, GPA, user=False)
        dst = PageTable()
        dst.clone_mappings(src)
        assert dst.translate(GVA, user=False) == GPA
        assert len(dst) == 1

    @pytest.mark.parametrize("w,u,x", list(itertools.product((0, 1),
                                                             repeat=3)))
    def test_packed_permissions_match_the_rules(self, w, u, x):
        pt = PageTable()
        pt.map(GVA, GPA, writable=bool(w), user=bool(u), executable=bool(x))
        pte = pt.entry(GVA)
        assert (pte.gpa, pte.writable, pte.user, pte.executable) == \
            (GPA, bool(w), bool(u), bool(x))
        for write, user, execute in itertools.product((False, True),
                                                      repeat=3):
            allowed = ((not write or w) and (not user or u)
                       and (not execute or x))
            assert pte.permits(write=write, user=user, execute=execute) \
                == bool(allowed)
            try:
                assert pt.translate(GVA + 3, write=write, user=user,
                                    execute=execute) == GPA + 3
                assert allowed
            except PageFault as err:
                assert not allowed and err.reason == "protection"

    def test_entry_lookup(self):
        pt = PageTable()
        pt.map(GVA, GPA)
        entry = pt.entry(GVA + 5)
        assert entry is not None and entry.gpa == GPA
        assert pt.entry(GVA + PAGE_SIZE) is None
