"""Interrupt descriptor tables and the interrupt-enable flag.

Figure 4's cross-VM syscall sequence manipulates both: the helper
context disables interrupts and installs a second IDT (``IDT=IDT2``)
before the VMFUNC so that an interrupt arriving mid-transition cannot
vector through the *other* VM's handlers.  The model tracks which IDT is
installed and whether interrupts are enabled, and charges the costs.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.errors import SimulationError

_idt_ids = itertools.count(1)


class IDT:
    """One interrupt descriptor table: vector -> handler label/callable."""

    def __init__(self, label: str = "") -> None:
        self.idt_id = next(_idt_ids)
        self.label = label or f"idt{self.idt_id}"
        self._vectors: Dict[int, Callable[..., object]] = {}

    def set_vector(self, vector: int, handler: Callable[..., object]) -> None:
        """Install ``handler`` at ``vector`` (0-255)."""
        if not 0 <= vector <= 255:
            raise SimulationError(f"vector {vector} out of range")
        self._vectors[vector] = handler

    def handler(self, vector: int) -> Optional[Callable[..., object]]:
        """The handler at ``vector``, or ``None``."""
        return self._vectors.get(vector)

    def __contains__(self, vector: int) -> bool:
        return vector in self._vectors


class InterruptState:
    """Per-CPU interrupt state: installed IDT + IF flag.

    Plain state: :meth:`~repro.hw.cpu.CPU.install_idt` (the ``lidt`` of
    Figure 4), :meth:`~repro.hw.cpu.CPU.cli` and
    :meth:`~repro.hw.cpu.CPU.sti` write the fields directly."""

    def __init__(self) -> None:
        self.idt: Optional[IDT] = None
        self.interrupts_enabled = True
        self.pending: list = []
