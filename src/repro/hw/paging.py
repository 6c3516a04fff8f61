"""Guest page tables (first-stage translation: GVA -> GPA).

The model is a software page table: a map from virtual page number to a
packed entry word (GPA | permission bits; :class:`PTE` decodes one).
Structure below the page level (PML4/PDPT/...) is not
modelled — what matters for the paper is *which address space* is
active (the CR3 value) and the permission/present semantics, both of
which are enforced faithfully.

Each page table carries a ``root`` token standing in for the physical
address of its top-level table; this is the value loaded into CR3.
Section 4.2's requirement that "the caller and callee must have the same
value in CR3" is modelled by giving helper page tables in different VMs
an identical, deliberately shared ``root`` value.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import PageFault, SimulationError
from repro.hw import mem as _mem
from repro.hw.mem import PAGE_MASK, PAGE_SIZE, page_offset

#: Unique CR3 root tokens (page numbers; the token is ``n << 12``).
_root_counter = itertools.count(0x1000)


#: Permission bits packed below the page-aligned GPA of a table entry
#: (the address occupies bits 12 and up, as in an x86 PTE).
_PTE_W = 0x2
_PTE_U = 0x4
_PTE_X = 0x8


def _pte_bits(write: bool, user: bool, execute: bool) -> int:
    """The permission bits an entry grants for, or an access with these
    intents requires."""
    return ((_PTE_W if write else 0) | (_PTE_U if user else 0)
            | (_PTE_X if execute else 0))


class PTE:
    """A page-table entry: a decoded view of one packed table word.

    The table stores each mapping as a plain int (GPA | permission
    bits), which costs no object per mapping; :meth:`PageTable.entry`
    and :meth:`PageTable.entries` hand out these views.
    """

    __slots__ = ("word",)

    def __init__(self, gpa: int, writable: bool = True, user: bool = True,
                 executable: bool = False) -> None:
        self.word = gpa | _pte_bits(writable, user, executable)

    @classmethod
    def _of(cls, word: int) -> "PTE":
        pte = cls.__new__(cls)
        pte.word = word
        return pte

    @property
    def gpa(self) -> int:
        return self.word & ~PAGE_MASK

    @property
    def writable(self) -> bool:
        return bool(self.word & _PTE_W)

    @property
    def user(self) -> bool:
        return bool(self.word & _PTE_U)

    @property
    def executable(self) -> bool:
        return bool(self.word & _PTE_X)

    def permits(self, *, write: bool, user: bool, execute: bool) -> bool:
        """Whether an access with the given intents is allowed."""
        need = _pte_bits(write, user, execute)
        return self.word & need == need


class PageTable:
    """One guest address space (the object CR3 points at)."""

    __slots__ = ("label", "root", "_entries")

    def __init__(self, label: str = "", root: Optional[int] = None) -> None:
        self.label = label
        self.root = root if root is not None else next(_root_counter) << 12
        #: vpn -> packed word (GPA | permission bits).
        self._entries: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def map(self, gva: int, gpa: int, *, writable: bool = True,
            user: bool = True, executable: bool = False) -> None:
        """Map the page containing ``gva`` to the page containing ``gpa``."""
        if (gva | gpa) & PAGE_MASK:
            raise SimulationError("map() requires page-aligned addresses")
        # ``gpa | _pte_bits(...)``, spelled out: one map per spawned page.
        self._entries[gva >> 12] = (
            gpa | (_PTE_W if writable else 0) | (_PTE_U if user else 0)
            | (_PTE_X if executable else 0))
        _mem._mapping_epoch += 1

    def unmap(self, gva: int) -> None:
        """Remove the mapping for the page containing ``gva``."""
        vpn = gva >> 12
        if vpn not in self._entries:
            raise SimulationError(f"unmap of unmapped GVA {gva:#x}")
        del self._entries[vpn]
        _mem._mapping_epoch += 1

    def entry(self, gva: int) -> Optional[PTE]:
        """The PTE covering ``gva``, or ``None``."""
        word = self._entries.get(gva >> 12)
        return None if word is None else PTE._of(word)

    def entries(self) -> Iterator[Tuple[int, PTE]]:
        """Iterate ``(vpn, pte)`` pairs."""
        return ((vpn, PTE._of(word)) for vpn, word in self._entries.items())

    def translate(self, gva: int, *, write: bool = False, user: bool = True,
                  execute: bool = False) -> int:
        """Translate ``gva`` to a guest-physical address or raise PageFault."""
        word = self._entries.get(gva >> 12)
        if word is None:
            raise PageFault(gva, write=write, user=user, reason="not-present")
        need = _pte_bits(write, user, execute)
        if word & need != need:
            raise PageFault(gva, write=write, user=user, reason="protection")
        return (word & ~PAGE_MASK) | (gva & PAGE_MASK)

    def span(self, gva: int, length: int, *, write: bool = False,
             user: bool = True) -> Iterator[Tuple[int, int]]:
        """Yield ``(gpa, chunk_len)`` pieces covering ``[gva, gva+length)``."""
        addr = gva
        remaining = length
        while remaining > 0:
            gpa = self.translate(addr, write=write, user=user)
            chunk = min(remaining, PAGE_SIZE - page_offset(addr))
            yield gpa, chunk
            addr += chunk
            remaining -= chunk

    def clone_mappings(self, other: "PageTable") -> None:
        """Copy every mapping of ``other`` into this table.

        Entries are plain ints, so copying them shares nothing."""
        self._entries.update(other._entries)
        _mem._mapping_epoch += 1
