"""Extended page tables (second-stage translation: GPA -> HPA).

Each VM owns at least one :class:`EPT`.  The VMFUNC mechanism (Section
4.1) additionally requires an :class:`EPTPList`: an array of EPT
pointers set up by the hypervisor, indexable by the guest via
``VMFUNC(0, index)`` without causing a VM exit.  Its address is a
per-VMCS field; the hypervisor points every VMCS at one list.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import EPTViolation, SimulationError
from repro.hw import mem as _mem
from repro.hw.mem import page_offset, PAGE_MASK, PAGE_SIZE

_eptp_counter = itertools.count(0x8000)


#: Permission bits packed below the page-aligned HPA of an EPT entry
#: (read/write/execute are bits 0-2, as in Intel's EPT format).
_EPT_R = 0x1
_EPT_W = 0x2
_EPT_X = 0x4


def _ept_bits(readable: bool, writable: bool, executable: bool) -> int:
    return ((_EPT_R if readable else 0) | (_EPT_W if writable else 0)
            | (_EPT_X if executable else 0))


def _ept_need(write: bool, execute: bool) -> int:
    """The permission bits an access with these intents requires: a
    plain load needs R; a store needs only W and a fetch only X."""
    return _ept_bits(not (write or execute), write, execute)


class EPTEntry:
    """An EPT entry: a decoded view of one packed EPT word.

    The EPT stores each mapping as a plain int (HPA | permission bits),
    which costs no object per mapping; :meth:`EPT.entry` and
    :meth:`EPT.entries` hand out these views.
    """

    __slots__ = ("word",)

    def __init__(self, hpa: int, readable: bool = True, writable: bool = True,
                 executable: bool = True) -> None:
        self.word = hpa | _ept_bits(readable, writable, executable)

    @classmethod
    def _of(cls, word: int) -> "EPTEntry":
        entry = cls.__new__(cls)
        entry.word = word
        return entry

    @property
    def hpa(self) -> int:
        return self.word & ~PAGE_MASK

    @property
    def readable(self) -> bool:
        return bool(self.word & _EPT_R)

    @property
    def writable(self) -> bool:
        return bool(self.word & _EPT_W)

    @property
    def executable(self) -> bool:
        return bool(self.word & _EPT_X)

    def permits(self, *, write: bool, execute: bool) -> bool:
        """Whether the access is allowed by the EPT permissions."""
        need = _ept_need(write, execute)
        return self.word & need == need


class EPT:
    """One extended page table; ``eptp`` stands in for its root pointer."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.eptp = next(_eptp_counter) << 12
        #: gfn -> packed word (HPA | permission bits).
        self._entries: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def map(self, gpa: int, hpa: int, *, readable: bool = True,
            writable: bool = True, executable: bool = True) -> None:
        """Map the guest-physical page at ``gpa`` to the host frame at ``hpa``."""
        if (gpa | hpa) & PAGE_MASK:
            raise SimulationError("EPT map() requires page-aligned addresses")
        # ``hpa | _ept_bits(...)``, spelled out: one map per spawned page.
        self._entries[gpa >> 12] = (
            hpa | (_EPT_R if readable else 0) | (_EPT_W if writable else 0)
            | (_EPT_X if executable else 0))
        _mem._mapping_epoch += 1

    def unmap(self, gpa: int) -> None:
        """Remove the mapping for the guest-physical page at ``gpa``."""
        gfn = gpa >> 12
        if gfn not in self._entries:
            raise SimulationError(f"EPT unmap of unmapped GPA {gpa:#x}")
        del self._entries[gfn]
        _mem._mapping_epoch += 1

    def entry(self, gpa: int) -> Optional[EPTEntry]:
        """The EPT entry covering ``gpa``, or ``None``."""
        word = self._entries.get(gpa >> 12)
        return None if word is None else EPTEntry._of(word)

    def entries(self) -> Iterator[Tuple[int, EPTEntry]]:
        """Iterate ``(gfn, entry)`` pairs."""
        return ((gfn, EPTEntry._of(word))
                for gfn, word in self._entries.items())

    def translate(self, gpa: int, *, write: bool = False,
                  execute: bool = False) -> int:
        """Translate ``gpa`` to a host-physical address or raise EPTViolation."""
        word = self._entries.get(gpa >> 12)
        if word is None:
            raise EPTViolation(gpa, write=write, reason="not-present")
        need = _ept_need(write, execute)
        if word & need != need:
            raise EPTViolation(gpa, write=write, reason="protection")
        return (word & ~PAGE_MASK) | (gpa & PAGE_MASK)

    def span(self, gpa: int, length: int, *, write: bool = False
             ) -> Iterator[Tuple[int, int]]:
        """Yield ``(hpa, chunk_len)`` pieces covering ``[gpa, gpa+length)``."""
        addr = gpa
        remaining = length
        while remaining > 0:
            hpa = self.translate(addr, write=write)
            chunk = min(remaining, PAGE_SIZE - page_offset(addr))
            yield hpa, chunk
            addr += chunk
            remaining -= chunk

    def clone_mappings(self, other: "EPT") -> None:
        """Copy every mapping of ``other`` into this EPT."""
        self._entries.update(other._entries)
        _mem._mapping_epoch += 1


class EPTPList:
    """The EPTP list VMFUNC(0) indexes into (Section 4.1).

    The hypervisor writes entries; the guest can only *select* one by
    index.  An unset index selected by the guest raises a
    :class:`~repro.errors.VMFuncFault`, which in turn becomes a VM exit —
    that check is done by the VMFUNC logic, not here.
    """

    def __init__(self, size: int = 512) -> None:
        if size <= 0:
            raise SimulationError("EPTP list size must be positive")
        self.size = size
        self._slots: List[Optional[EPT]] = [None] * size

    def set(self, index: int, ept: EPT) -> None:
        """Install ``ept`` at ``index`` (hypervisor-only operation)."""
        self._check_index(index)
        self._slots[index] = ept

    def clear(self, index: int) -> None:
        """Remove the entry at ``index``."""
        self._check_index(index)
        self._slots[index] = None

    def get(self, index: int) -> Optional[EPT]:
        """The EPT at ``index``, or ``None`` when the slot is empty."""
        if not 0 <= index < self.size:
            self._check_index(index)
        return self._slots[index]

    def index_of(self, ept: EPT) -> Optional[int]:
        """The slot holding ``ept``, or ``None``."""
        for i, slot in enumerate(self._slots):
            if slot is ept:
                return i
        return None

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise SimulationError(
                f"EPTP list index {index} out of range [0, {self.size})")
