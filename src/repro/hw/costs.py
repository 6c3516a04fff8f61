"""Calibrated cost model for the functional simulator.

Every primitive operation the simulated machine performs is charged a
:class:`Cost` — a pair of *(instructions, cycles)*.  Cycle totals are what
the latency/throughput experiments read (Tables 4-6 of the paper, at an
assumed 3.4 GHz clock); instruction totals are what the QEMU-style
instruction-count experiment reads (Table 7).

Calibration strategy
--------------------
The paper's testbed is a 3.4 GHz Haswell (i7-4770).  We calibrate the
*native* primitives (syscall entry/dispatch/return, per-handler work) so
that the guest-native column of Table 4 / Table 7 is approximately
reproduced, and the *virtualization* primitives (VM exit/entry, KVM
handling, interrupt injection, VMFUNC, world_call) against published
Haswell measurements (raw VM exit round-trip ~1.3k cycles, VMFUNC
~150 cycles) plus the paper's own end-to-end numbers.  Every comparative
result is then emergent: the simulator executes a system's actual
transition sequence and sums the charges.  Absolute numbers are
approximate by design; shapes (who wins, by what rough factor) are the
reproduction target.

All constants are plain dataclass fields so experiments can build variant
models (e.g. ablations with slower world-table caches).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict

#: Clock frequency of the modelled machine (Intel i7-4770, Section 7).
CLOCK_HZ = 3.4e9

#: Cycles per microsecond at the modelled clock.
CYCLES_PER_US = CLOCK_HZ / 1e6


@dataclass(frozen=True)
class Cost:
    """An *(instructions, cycles)* charge for one primitive operation."""

    instructions: int = 0
    cycles: int = 0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.instructions + other.instructions,
                    self.cycles + other.cycles)

    def scaled(self, factor: int) -> "Cost":
        """Return this cost repeated ``factor`` times."""
        return Cost(self.instructions * factor, self.cycles * factor)

    @property
    def microseconds(self) -> float:
        """Cycle charge expressed in microseconds at the modelled clock."""
        return self.cycles / CYCLES_PER_US


def us(cycles: float) -> float:
    """Convert a cycle count to microseconds at the modelled clock."""
    return cycles / CYCLES_PER_US


@dataclass(frozen=True)
class HardwareFeatures:
    """Which optional hardware mechanisms the simulated CPU exposes.

    The paper evaluates three hardware generations:

    * plain VT-x (``vmfunc=False``)          — every cross-VM hop bounces
      through the hypervisor;
    * VT-x + VMFUNC (``vmfunc=True``)        — the real-Haswell
      approximation of Section 4;
    * VT-x + CrossOver (``crossover=True``)  — the proposed extension of
      Section 5 (world table + ``world_call``/``manage_wtc``).
    """

    vmfunc: bool = True
    crossover: bool = False
    #: Capacity of the WT / IWT caches (Section 5.1; small, TLB-like).
    wt_cache_entries: int = 16
    #: Size of the hypervisor's EPTP list, shared by every VMCS
    #: (architectural limit is 512).
    eptp_list_size: int = 512
    #: Optional Current-World-ID prefetch register (Section 5.1 ablation).
    current_wid_register: bool = False


@dataclass(frozen=True)
class CostModel:
    """Per-primitive costs.  Fields group as: native kernel entry/exit,
    in-kernel work units, virtualization transitions, CrossOver datapath,
    data movement, and networking (for Tahoma's RPC baseline)."""

    # --- native privilege transitions (same VM, ring 3 <-> ring 0) -------
    syscall_trap: Cost = Cost(40, 150)          # SYSCALL + kernel entry stub
    syscall_dispatch: Cost = Cost(120, 450)     # entry bookkeeping + table jump
    sysret: Cost = Cost(30, 150)                # exit work + SYSRET
    user_wrapper: Cost = Cost(60, 150)          # libc stub around the syscall

    # --- in-guest kernel work units --------------------------------------
    context_switch: Cost = Cost(700, 3000)      # in-guest process switch
    path_component: Cost = Cost(60, 150)        # namei, per path component
    fd_lookup: Cost = Cost(20, 60)              # fd table indexing
    irq_vector: Cost = Cost(180, 800)           # IDT vectoring + EOI in guest
    timer_program: Cost = Cost(80, 300)         # arming a (virtual) timer

    # --- virtualization transitions ---------------------------------------
    vmexit: Cost = Cost(0, 800)                 # hardware guest->host switch
    vmentry: Cost = Cost(0, 600)                # hardware host->guest switch
    vmexit_handle: Cost = Cost(400, 1200)       # KVM software exit handling
    hypercall_dispatch: Cost = Cost(150, 500)   # vmcall demux in hypervisor
    virq_inject: Cost = Cost(140, 500)          # prepare event injection
    vm_schedule: Cost = Cost(350, 900)         # host scheduler picks a vCPU
    cr3_write: Cost = Cost(1, 250)              # mov cr3 + TLB consequences
    idt_switch: Cost = Cost(2, 100)             # lidt
    int_toggle: Cost = Cost(1, 20)              # cli / sti
    tlb_flush: Cost = Cost(1, 200)              # full flush (invept/invvpid)

    # --- VMFUNC / CrossOver datapath --------------------------------------
    vmfunc_ept_switch: Cost = Cost(1, 160)      # fn 0: exit-free EPTP switch
    world_call_hw: Cost = Cost(1, 200)          # fn 1 hit: EPTP+CR3+ring+mode
    world_save_state: Cost = Cost(12, 40)       # caller saves to world stack
    world_restore_state: Cost = Cost(12, 40)    # caller restores on return
    world_param_setup: Cost = Cost(5, 30)       # regs/shared-mem param pass
    world_authorize: Cost = Cost(20, 60)        # callee checks caller WID
    manage_wtc: Cost = Cost(4, 120)             # fn 2: cache fill/invalidate
    wt_walk: Cost = Cost(400, 1800)             # hypervisor world-table walk
    wt_miss_exception: Cost = Cost(0, 900)      # exception delivery to root
    binding_check_hw: Cost = Cost(0, 30)        # §3.4 hardware binding table

    # --- switchless datapath (worker contexts, shared-memory rings) --------
    # Calibrated against the VMFUNC/CrossOver primitives above: a hot
    # switchless round trip (enqueue + line transfer + one poll hit +
    # dequeue, each way) costs ~356 cycles vs ~510 for the minimal-mode
    # world_call, while a cold call that must wake a sleeping worker
    # pays futex-wake latency far above any switch.  That asymmetry is
    # what the adaptive policy trades on.
    ring_enqueue: Cost = Cost(10, 45)           # slot claim + descriptor store
    ring_dequeue: Cost = Cost(10, 45)           # descriptor load + slot release
    cache_line_transfer: Cost = Cost(0, 70)     # ring line crossing cores
    worker_poll: Cost = Cost(3, 18)             # one spin-loop check iteration
    worker_sleep: Cost = Cost(30, 900)          # futex wait entry (worker side)
    worker_wakeup: Cost = Cost(60, 2400)        # futex wake of a parked worker
    worker_context_switch: Cost = Cost(150, 1200)  # fiber switch in callee world

    # --- data movement -----------------------------------------------------
    copy_per_byte_x16: Cost = Cost(1, 1)        # per 16 copied bytes
    page_map: Cost = Cost(150, 600)             # mapping one page (PT + EPT)

    # --- networking (virtual NIC + guest TCP stack, for Tahoma) ------------
    tcp_segment: Cost = Cost(4500, 13200)       # one stack traversal (one side)
    vnic_io: Cost = Cost(300, 1000)             # device register kick (pre-exit)
    host_bridge: Cost = Cost(900, 3500)         # host-side packet relay
    xml_marshal: Cost = Cost(6000, 16500)       # XML encode or decode one RPC

    def __post_init__(self) -> None:
        # Per-instance memo for copy(): benchmarks charge the same copy
        # sizes millions of times.  The dataclass is frozen, so the
        # cache is attached via object.__setattr__; Cost is immutable,
        # making the memoized values safe to share.
        object.__setattr__(self, "_copy_cache", {})

    def copy(self, nbytes: int) -> Cost:
        """Cost of copying ``nbytes`` bytes (rounded up to 16-byte units)."""
        cached = self._copy_cache.get(nbytes)
        if cached is None:
            units = max(1, (nbytes + 15) // 16) if nbytes > 0 else 0
            cached = self.copy_per_byte_x16.scaled(units)
            self._copy_cache[nbytes] = cached
        return cached

    def with_overrides(self, **kwargs: Cost) -> "CostModel":
        """Return a copy of this model with some fields replaced."""
        return replace(self, **kwargs)

    def as_dict(self) -> Dict[str, Cost]:
        """All primitive costs keyed by field name (for reports/tests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The default, paper-calibrated cost model.
DEFAULT_COST_MODEL = CostModel()

#: Default hardware feature sets used throughout tests and benchmarks.
FEATURES_BASELINE = HardwareFeatures(vmfunc=False, crossover=False)
FEATURES_VMFUNC = HardwareFeatures(vmfunc=True, crossover=False)
FEATURES_CROSSOVER = HardwareFeatures(vmfunc=True, crossover=True)
