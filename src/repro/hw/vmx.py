"""VT-x structures: the VMCS and exit reasons.

A :class:`VMCS` holds the guest-state and host-state areas the hardware
swaps on VM entry/exit.  The CPU's :meth:`~repro.hw.cpu.CPU.vmexit` /
:meth:`~repro.hw.cpu.CPU.vmentry` primitives call the exit/entry hooks
here; the hypervisor owns one VMCS per vCPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.cpu import Mode
from repro.hw.ept import EPT, EPTPList
from repro.hw.idt import IDT
from repro.hw.paging import PageTable


class ExitReason:
    """Symbolic VM-exit reasons used by the model."""

    VMCALL = "vmcall"
    EPT_VIOLATION = "ept-violation"
    IO = "io"
    EXTERNAL_INTERRUPT = "external-interrupt"
    BREAKPOINT = "breakpoint"            # INT3 (#BP) — HyperShell's helper
    EXCEPTION = "exception"
    VMFUNC_FAULT = "vmfunc-fault"
    WORLD_TABLE_MISS = "world-table-miss"
    PREEMPTION_TIMER = "preemption-timer"
    HLT = "hlt"


@dataclass
class _StateArea:
    """Saved architectural state for one side of a VM transition."""

    ring: int = 0
    page_table: Optional[PageTable] = None
    ept: Optional[EPT] = None
    eptp_list: Optional[EPTPList] = None
    idt: Optional[IDT] = None
    interrupts_enabled: bool = True
    vm_name: str = "host"


class VMCS:
    """One virtual-machine control structure (per vCPU)."""

    def __init__(self, vm_name: str, ept: EPT,
                 eptp_list: Optional[EPTPList] = None) -> None:
        self.vm_name = vm_name
        self.guest = _StateArea(ring=0, ept=ept, eptp_list=eptp_list,
                                vm_name=vm_name)
        self.host = _StateArea(ring=0, vm_name="host")
        self.exit_reason: Optional[str] = None
        self.exit_qualification: Optional[object] = None
        self.launched = False

    # -- hooks used by CPU.vmexit / CPU.vmentry -------------------------

    def exit_to_host(self, cpu, reason: str) -> None:
        """VM exit: capture the CPU's guest context, record ``reason``
        and restore the host context."""
        guest = self.guest
        interrupts = cpu.interrupts
        guest.ring = cpu.ring
        guest.page_table = cpu.page_table
        guest.ept = cpu.ept
        guest.eptp_list = cpu.eptp_list
        guest.idt = interrupts.idt
        guest.interrupts_enabled = interrupts.interrupts_enabled
        guest.vm_name = cpu.vm_name
        self.exit_reason = reason
        host = self.host
        cpu.mode = Mode.ROOT
        cpu.ring = host.ring
        cpu.page_table = host.page_table
        cpu.ept = None
        cpu.eptp_list = None
        interrupts.idt = host.idt
        interrupts.interrupts_enabled = host.interrupts_enabled
        cpu.vm_name = host.vm_name

    def enter_guest(self, cpu) -> None:
        """VM entry: capture the host context and load the guest's."""
        host = self.host
        interrupts = cpu.interrupts
        host.ring = cpu.ring
        host.page_table = cpu.page_table
        host.idt = interrupts.idt
        host.interrupts_enabled = interrupts.interrupts_enabled
        host.vm_name = cpu.vm_name
        guest = self.guest
        cpu.mode = Mode.NON_ROOT
        cpu.ring = guest.ring
        cpu.page_table = guest.page_table
        cpu.ept = guest.ept
        cpu.eptp_list = guest.eptp_list
        interrupts.idt = guest.idt
        interrupts.interrupts_enabled = guest.interrupts_enabled
        cpu.vm_name = guest.vm_name
        self.launched = True
