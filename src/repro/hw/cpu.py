"""The CPU core: modes, rings, transitions and privilege checks.

This is a *functional* CPU model: guest and host "code" are Python
functions that drive these methods.  Every privileged state change —
syscall traps, CR3 writes, VM exits/entries, VMFUNC invocations,
``world_call`` — is validated against the current mode and charged to
the performance counters, and every world switch is appended to the
transition trace.  Illegal operations raise the same faults real
hardware would (#GP, EPT violation, VMFUNC fault, world-table miss).
"""

from __future__ import annotations

import enum
from typing import Optional, TYPE_CHECKING

from repro import audit as _audit
from repro import faults as _faults
from repro import telemetry as _telemetry
from repro.errors import (
    GeneralProtectionFault,
    InvalidOpcode,
    SimulationError,
    VMFuncFault,
    WorldNotPresent,
    WorldTableCacheMiss,
)
from repro.hw.costs import Cost, CostModel, HardwareFeatures
from repro.hw.ept import EPT, EPTPList
from repro.hw.idt import IDT, InterruptState
from repro.hw import mem as _hwmem
from repro.hw.paging import PageTable
from repro.hw.perf import PerfCounters
from repro.hw.registers import RegisterFile
from repro.hw.tlb import TLB
from repro.hw.trace import TransitionTrace
from repro.hw.world_table import WorldTableCaches, WorldTableEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.vmx import VMCS


class Mode(enum.Enum):
    """VMX operation mode."""

    ROOT = "root"          # host / hypervisor
    NON_ROOT = "non-root"  # guest


class Ring(enum.IntEnum):
    """Privilege rings the model distinguishes."""

    KERNEL = 0
    USER = 3


#: VMFUNC function indexes (Section 4.1 / 5.1).
VMFUNC_EPT_SWITCH = 0x0
VMFUNC_WORLD_CALL = 0x1
VMFUNC_MANAGE_WTC = 0x2

#: Register through which the hardware passes the caller's WID.
WID_REGISTER = "rdi"

#: Plain-int ring values for the hot transition paths (IntEnum access
#: costs an attribute lookup + conversion per call).
_RING_KERNEL = int(Ring.KERNEL)
_RING_USER = int(Ring.USER)


class CPU:
    """One simulated processor core."""

    def __init__(self, cost_model: CostModel, features: HardwareFeatures,
                 cpu_id: int = 0) -> None:
        self.cpu_id = cpu_id
        self.cost_model = cost_model
        self.features = features

        self.mode = Mode.ROOT
        self.ring = int(Ring.KERNEL)
        self.page_table: Optional[PageTable] = None
        self.ept: Optional[EPT] = None
        self.eptp_list: Optional[EPTPList] = None
        self.vm_name = "host"
        self.current_vmcs: Optional["VMCS"] = None

        self.regs = RegisterFile()
        self.interrupts = InterruptState()
        self.tlb = TLB(tagged=True)
        #: Software memo of successful page walks (wall-clock only);
        #: distinct from the flush-accounting ``tlb`` model.
        self._xlat_cache: dict = {}
        self.perf = PerfCounters()
        self.trace = TransitionTrace()

        self.wt_caches: Optional[WorldTableCaches] = (
            WorldTableCaches(features.wt_cache_entries)
            if features.crossover else None)
        self._current_wid: Optional[int] = None   # §5.1 prefetch ablation

    # ------------------------------------------------------------------
    # labels & accounting
    # ------------------------------------------------------------------

    @property
    def cr3(self) -> int:
        """The current CR3 value (page-table root token)."""
        return self.page_table.root if self.page_table is not None else 0

    @property
    def eptp(self) -> int:
        """The current EPTP token (0 in root mode)."""
        return self.ept.eptp if self.ept is not None else 0

    @property
    def world_label(self) -> str:
        """Human-readable current world, e.g. ``U(vm1)`` or ``K(host)``."""
        mode_char = "K" if self.ring == Ring.KERNEL else "U"
        return f"{mode_char}({self.vm_name})"

    def charge(self, kind: str, cost: Optional[Cost] = None) -> None:
        """Charge a named primitive (looked up in the cost model by
        default) without recording a trace event."""
        if cost is None:
            cost = getattr(self.cost_model, kind)
        self.perf.charge(kind, cost)

    def transition(self, kind: str, frm: str, to: str, detail: str = "",
                   cost: Optional[Cost] = None) -> None:
        """Charge a primitive *and* record it as a world switch."""
        if cost is None:
            cost = getattr(self.cost_model, kind)
        self.perf.charge(kind, cost)
        self.trace.record(kind, frm, to, detail, cost.cycles,
                          cost.instructions)

    def work(self, cycles: int, instructions: int, kind: str = "compute"
             ) -> None:
        """Charge generic computation (handler bodies, user-level work)."""
        self.perf.charge(kind, Cost(instructions, cycles))

    # ------------------------------------------------------------------
    # privilege checks
    # ------------------------------------------------------------------

    def require_ring(self, ring: int, what: str) -> None:
        """#GP unless the CPU is at exactly ``ring``."""
        if self.ring != ring:
            raise GeneralProtectionFault(
                f"{what} requires CPL {ring}, current CPL {self.ring}")

    def require_root(self, what: str) -> None:
        """#GP unless in VMX root operation."""
        if self.mode is not Mode.ROOT:
            raise GeneralProtectionFault(f"{what} requires VMX root mode")

    def require_non_root(self, what: str) -> None:
        """Fault unless in VMX non-root operation (guest)."""
        if self.mode is not Mode.NON_ROOT:
            raise GeneralProtectionFault(f"{what} requires VMX non-root mode")

    # ------------------------------------------------------------------
    # native ring transitions
    # ------------------------------------------------------------------

    def syscall_trap(self, detail: str = "", charge: bool = True) -> None:
        """SYSCALL: user -> kernel within the current address space.

        ``charge=False`` performs the ring switch without charging (the
        caller is applying the cost as part of a fused batch).
        """
        if self.ring != _RING_USER:
            self.require_ring(_RING_USER, "syscall")
        if self.trace.enabled:
            frm = self.world_label
            self.ring = _RING_KERNEL
            self.transition("syscall_trap", frm, self.world_label, detail)
        else:
            self.ring = _RING_KERNEL
            if charge:
                self.perf.charge("syscall_trap", self.cost_model.syscall_trap)

    def sysret(self, detail: str = "", charge: bool = True) -> None:
        """SYSRET: kernel -> user within the current address space."""
        if self.ring != _RING_KERNEL:
            self.require_ring(_RING_KERNEL, "sysret")
        if self.trace.enabled:
            frm = self.world_label
            self.ring = _RING_USER
            self.transition("sysret", frm, self.world_label, detail)
        else:
            self.ring = _RING_USER
            if charge:
                self.perf.charge("sysret", self.cost_model.sysret)

    def iret_to_ring(self, ring: int, detail: str = "",
                     charge: bool = True) -> None:
        """IRET-style return to an arbitrary ring (used by injectors)."""
        self.require_ring(_RING_KERNEL, "iret")
        if self.trace.enabled:
            frm = self.world_label
            self.ring = int(ring)
            self.transition("sysret", frm, self.world_label,
                            detail or "iret")
        else:
            self.ring = int(ring)
            if charge:
                self.perf.charge("sysret", self.cost_model.sysret)

    # ------------------------------------------------------------------
    # control registers, IDT, interrupt flag
    # ------------------------------------------------------------------

    def write_cr3(self, page_table: PageTable, detail: str = "",
                  charge: bool = True) -> None:
        """Load a new address space; privileged (CPL 0 only)."""
        if self.ring != _RING_KERNEL:
            self.require_ring(_RING_KERNEL, "mov cr3")
        self.page_table = page_table
        self.tlb.on_cr3_write(page_table.root)
        if charge:
            self.perf.charge("cr3_write", self.cost_model.cr3_write)
        if detail and self.trace.enabled:
            self.trace.record("cr3_write", self.world_label,
                              self.world_label, detail)

    def install_idt(self, idt: IDT, charge: bool = True) -> None:
        """LIDT; privileged."""
        if self.ring != _RING_KERNEL:
            self.require_ring(_RING_KERNEL, "lidt")
        self.interrupts.install(idt)
        if charge:
            self.perf.charge("idt_switch", self.cost_model.idt_switch)

    def cli(self, charge: bool = True) -> None:
        """Disable interrupts; privileged."""
        if self.ring != _RING_KERNEL:
            self.require_ring(_RING_KERNEL, "cli")
        self.interrupts.disable()
        if charge:
            self.perf.charge("int_toggle", self.cost_model.int_toggle)

    def sti(self, charge: bool = True) -> None:
        """Enable interrupts; privileged."""
        if self.ring != _RING_KERNEL:
            self.require_ring(_RING_KERNEL, "sti")
        self.interrupts.enable()
        if charge:
            self.perf.charge("int_toggle", self.cost_model.int_toggle)

    def deliver_irq(self, vector: int, detail: str = "",
                    charge: bool = True) -> None:
        """Vector an interrupt through the current IDT (to CPL 0)."""
        if not self.interrupts.interrupts_enabled:
            raise SimulationError(
                f"IRQ {vector} delivered while interrupts are disabled")
        if self.trace.enabled:
            frm = self.world_label
            self.ring = _RING_KERNEL
            self.transition("irq_deliver", frm, self.world_label,
                            detail or f"vector {vector}",
                            cost=self.cost_model.irq_vector)
        else:
            self.ring = _RING_KERNEL
            if charge:
                self.perf.charge("irq_deliver", self.cost_model.irq_vector)

    def context_switch(self, page_table: PageTable, detail: str = "",
                       charge: bool = True) -> None:
        """In-kernel process context switch (scheduler path)."""
        if self.ring != _RING_KERNEL:
            self.require_ring(_RING_KERNEL, "context switch")
        if self.trace.enabled:
            label = self.world_label
            self.page_table = page_table
            self.tlb.on_cr3_write(page_table.root)
            self._current_wid = None  # prefetch register reloads lazily
            self.transition("context_switch", label, label, detail)
        else:
            self.page_table = page_table
            self.tlb.on_cr3_write(page_table.root)
            self._current_wid = None
            if charge:
                self.perf.charge("context_switch",
                                 self.cost_model.context_switch)

    # ------------------------------------------------------------------
    # VMX transitions (primitives; the hypervisor orchestrates them)
    # ------------------------------------------------------------------

    def vmexit(self, reason: str, detail: str = "",
               charge: bool = True) -> None:
        """Guest -> host transition; saves guest state into the VMCS."""
        self.require_non_root("vm exit")
        if self.current_vmcs is None:
            raise SimulationError("vm exit with no current VMCS")
        vmcs = self.current_vmcs
        if self.trace.enabled:
            frm = self.world_label
            vmcs.save_guest(self)
            vmcs.exit_reason = reason
            vmcs.load_host(self)
            self.transition("vmexit", frm, self.world_label,
                            detail or reason)
        else:
            vmcs.save_guest(self)
            vmcs.exit_reason = reason
            vmcs.load_host(self)
            if charge:
                self.perf.charge("vmexit", self.cost_model.vmexit)

    def vmentry(self, vmcs: "VMCS", detail: str = "",
                charge: bool = True) -> None:
        """Host -> guest transition; loads guest state from the VMCS."""
        self.require_root("vm entry")
        if self.ring != _RING_KERNEL:
            self.require_ring(_RING_KERNEL, "vm entry")
        if self.trace.enabled:
            frm = self.world_label
            vmcs.save_host(self)
            vmcs.load_guest(self)
            self.current_vmcs = vmcs
            self.transition("vmentry", frm, self.world_label, detail)
        else:
            vmcs.save_host(self)
            vmcs.load_guest(self)
            self.current_vmcs = vmcs
            if charge:
                self.perf.charge("vmentry", self.cost_model.vmentry)

    # ------------------------------------------------------------------
    # VMFUNC (fn 0) and the CrossOver extension (fns 0x1 / 0x2)
    # ------------------------------------------------------------------

    def vmfunc(self, function: int, argument: int = 0,
               charge: bool = True) -> Optional[int]:
        """Execute VMFUNC.

        * fn 0x0 — EPTP switch (requires VT-x VMFUNC support; non-root
          only; any CPL).  ``argument`` is the EPTP-list index.
        * fn 0x1 — ``world_call`` (requires the CrossOver extension).
          ``argument`` is the callee WID; returns the *caller's* WID,
          which the hardware also places in the WID register.
        * fn 0x2 — ``manage_wtc`` is exposed via :meth:`manage_wtc`
          because it carries an object payload.
        """
        if _faults._engine is not None:
            _faults._engine.fire("hw.vmfunc", cpu=self, function=function,
                                 argument=argument)
        if function == VMFUNC_EPT_SWITCH:
            return self._vmfunc_ept_switch(argument, charge)
        if function == VMFUNC_WORLD_CALL:
            return self._world_call(argument)
        raise VMFuncFault(f"unsupported VMFUNC index {function:#x}")

    def _vmfunc_ept_switch(self, index: int, charge: bool = True) -> None:
        if not self.features.vmfunc:
            raise InvalidOpcode("VMFUNC not supported by this processor")
        self.require_non_root("VMFUNC")
        if self.eptp_list is None:
            raise VMFuncFault("no EPTP list configured for this guest")
        if not 0 <= index < self.eptp_list.size:
            raise VMFuncFault(f"EPTP index {index} out of range")
        target = self.eptp_list.get(index)
        if target is None:
            raise VMFuncFault(f"EPTP list slot {index} is empty")
        if self.trace.enabled:
            frm = self.world_label
            self.ept = target
            if target.label:
                self.vm_name = target.label
            self.tlb.on_ept_switch(target.eptp)
            self.transition("vmfunc_ept_switch", frm, self.world_label,
                            f"eptp[{index}]")
        else:
            self.ept = target
            if target.label:
                self.vm_name = target.label
            self.tlb.on_ept_switch(target.eptp)
            if charge:
                self.perf.charge("vmfunc_ept_switch",
                                 self.cost_model.vmfunc_ept_switch)
        recorder = _audit._recorder
        if recorder is not None:
            recorder.on_ept_switch(index, self.world_label, self.ring,
                                   self.perf.cycles)

    def _world_call(self, callee_wid: int) -> int:
        """The ``world_call`` datapath (Sections 3.3 and 5.1).

        Looks up the caller by context in the IWT cache and the callee
        by WID in the WT cache (misses raise
        :class:`~repro.errors.WorldTableCacheMiss` after charging the
        exception-delivery cost), then switches EPTP, CR3, ring and H/G
        mode in one hop and jumps to the callee's entry point.
        """
        if not self.features.crossover or self.wt_caches is None:
            raise InvalidOpcode(
                "world_call requires the CrossOver extension")
        self.charge("world_call_hw")
        # Telemetry observes the hardware datapath itself (not just the
        # transition trace, which may be disabled on the fast path).
        # Observation never charges: modeled counters stay bit-identical.
        session = _telemetry._session
        if session is not None:
            session.metrics.counter("hw.world_call", cpu=self.cpu_id).inc()
        caller = self._lookup_caller()
        try:
            callee = self.wt_caches.lookup_callee(callee_wid)
        except WorldTableCacheMiss:
            self.charge("wt_miss_exception")
            if session is not None:
                session.metrics.counter("hw.wt_miss", cache="wt",
                                        cpu=self.cpu_id).inc()
            raise
        if not callee.present:
            raise WorldNotPresent(f"world {callee_wid} is not present")

        # Validate the entry point through the callee's own translations
        # BEFORE committing the switch: a non-executable or unmapped PC
        # faults with the caller's context intact.
        entry_gpa = callee.page_table.translate(
            callee.pc, user=callee.ring == int(Ring.USER), execute=True)
        if callee.ept is not None:
            callee.ept.translate(entry_gpa, execute=True)

        trace_on = self.trace.enabled
        recorder = _audit._recorder
        frm = (self.world_label if trace_on or recorder is not None
               else "")
        self.commit_world_entry(callee, caller.wid)
        if trace_on:
            hw_cost = self.cost_model.world_call_hw
            self.trace.record("world_call", frm, self.world_label,
                              f"wid {caller.wid} -> {callee_wid}",
                              hw_cost.cycles, hw_cost.instructions)
        if recorder is not None:
            # The semantic audit record: the WIDs here are the ones the
            # hardware authenticated, independent of the trace events.
            recorder.on_world_call_hw(
                caller.wid, callee_wid, frm=frm, to=self.world_label,
                mode="H" if callee.host_mode else "G", ring=self.ring,
                cycles=self.perf.cycles)
        return caller.wid

    def commit_world_entry(self, entry: WorldTableEntry,
                           wid_register: int) -> None:
        """Commit the CPU into ``entry``'s context — the architectural
        effect of a successful ``world_call`` transition.

        ``wid_register`` is the hardware-authenticated WID presented to
        the destination (the caller's WID on the way out, the callee's
        on the way back).
        """
        self.mode = Mode.ROOT if entry.host_mode else Mode.NON_ROOT
        self.ring = entry.ring
        self.ept = entry.ept
        self.page_table = entry.page_table
        self.vm_name = entry.vm_name
        if entry.ept is not None:
            self.tlb.on_ept_switch(entry.ept.eptp)
        self.tlb.on_cr3_write(entry.page_table.root)
        self._current_wid = entry.wid
        self.regs.write("rip", entry.pc)
        self.regs.write(WID_REGISTER, wid_register)

    def _lookup_caller(self) -> WorldTableEntry:
        """Identify the calling world from the current context."""
        assert self.wt_caches is not None
        if (self.features.current_wid_register
                and self._current_wid is not None
                and self._current_wid in self.wt_caches.wt):
            # Current-World-ID register ablation: the WID was prefetched
            # after the last context switch, skipping the IWT lookup.
            entry = self.wt_caches.wt.lookup(self._current_wid)
            assert entry is not None
            if entry.context_key() == self._context_key():
                return entry
        try:
            return self.wt_caches.lookup_caller(self._context_key())
        except WorldTableCacheMiss:
            self.charge("wt_miss_exception")
            session = _telemetry._session
            if session is not None:
                session.metrics.counter("hw.wt_miss", cache="iwt",
                                        cpu=self.cpu_id).inc()
            raise

    def _context_key(self):
        return (self.mode is Mode.ROOT, self.ring, self.eptp, self.cr3)

    def manage_wtc(self, operation: str, entry: WorldTableEntry) -> None:
        """``manage_wtc`` (VMFUNC fn 0x2): fill or invalidate the caches.

        Only the most privileged software may manage the caches, so the
        instruction faults outside root-mode CPL 0.
        """
        if not self.features.crossover or self.wt_caches is None:
            raise InvalidOpcode("manage_wtc requires the CrossOver extension")
        self.require_root("manage_wtc")
        self.require_ring(int(Ring.KERNEL), "manage_wtc")
        self.charge("manage_wtc")
        if operation == "fill":
            self.wt_caches.fill(entry)
        elif operation == "invalidate":
            self.wt_caches.invalidate(entry)
        else:
            raise SimulationError(f"unknown manage_wtc operation {operation!r}")

    # ------------------------------------------------------------------
    # memory access in the current context
    # ------------------------------------------------------------------

    def translate(self, gva: int, *, write: bool = False,
                  execute: bool = False) -> int:
        """Translate a virtual address in the current context to HPA.

        Successful walks are memoized per (address space, EPT, page,
        access intent); entries are validated against the global
        mapping epoch, which every page-table/EPT mutation bumps.  The
        walk charges nothing, so the memo changes wall-clock only — the
        modelled TLB (:attr:`tlb`) is a separate flush-accounting
        structure and is untouched.
        """
        table = self.page_table
        if table is None:
            raise SimulationError("no page table loaded")
        user = self.ring == _RING_USER
        # Module attribute read instead of the accessor: this lookup is
        # the hottest path in the whole simulator.
        epoch = _hwmem._mapping_epoch
        # Page number and access intents packed into one int keeps the
        # key a cheap 3-int tuple.
        key = (table.root, self.ept.eptp if self.ept is not None else 0,
               (gva >> 12 << 4) | (8 if write else 0) | (4 if user else 0)
               | (2 if execute else 0)
               | (1 if self.mode is Mode.NON_ROOT else 0))
        hit = self._xlat_cache.get(key)
        if hit is not None and hit[0] == epoch:
            return hit[1] | (gva & 0xFFF)
        gpa = table.translate(gva, write=write, user=user, execute=execute)
        if self.mode is Mode.NON_ROOT:
            if self.ept is None:
                raise SimulationError("non-root mode with no EPT loaded")
            hpa = self.ept.translate(gpa, write=write, execute=execute)
        else:
            hpa = gpa
        self._xlat_cache[key] = (epoch, hpa & ~0xFFF)
        return hpa

    def read_virt(self, memory, gva: int, length: int,
                  charge: bool = True) -> bytes:
        """Read bytes at a virtual address in the current context."""
        if length and (gva & 0xFFF) + length <= 4096:
            data = memory.read(self.translate(gva), length)
            if charge:
                self.perf.charge("copy", self.cost_model.copy(length))
            return data
        out = bytearray()
        addr = gva
        remaining = length
        while remaining > 0:
            hpa = self.translate(addr)
            chunk = min(remaining, 4096 - (addr & 0xFFF))
            out += memory.read(hpa, chunk)
            addr += chunk
            remaining -= chunk
        if charge and length:
            self.perf.charge("copy", self.cost_model.copy(length))
        return bytes(out)

    def write_virt(self, memory, gva: int, data: bytes,
                   charge: bool = True) -> None:
        """Write bytes at a virtual address in the current context."""
        if data and (gva & 0xFFF) + len(data) <= 4096:
            memory.write(self.translate(gva, write=True), data)
            if charge:
                self.perf.charge("copy", self.cost_model.copy(len(data)))
            return
        addr = gva
        view = memoryview(data)
        while view:
            hpa = self.translate(addr, write=True)
            chunk = min(len(view), 4096 - (addr & 0xFFF))
            memory.write(hpa, bytes(view[:chunk]))
            addr += chunk
            view = view[chunk:]
        if charge and data:
            self.perf.charge("copy", self.cost_model.copy(len(data)))
