"""The switchless worker-context call engine.

Models the third call mechanism beyond the paper's baseline trap and
VMFUNC ``world_call``: worker contexts inside the callee world polling
shared-memory request rings, so a hot call crosses *no* privilege or
world boundary at all ("SGX Switchless Calls Made Configless",
arXiv:2305.00763, transplanted to the CrossOver setting).

Everything is deterministic: the worker scheduler runs on *modeled*
cycles (never wall-clock), rings are real byte rings in
:class:`~repro.hypervisor.shared_memory.SharedMemoryRegion` frames, and
marshaling goes through the same ``core/convention`` cache as the other
mechanisms, so payload copy charges are bit-identical across
mechanisms.

Cost accounting (all primitives live in :class:`repro.hw.costs.CostModel`):

* **hot call** (worker still spinning): ``ring_enqueue`` + payload copy
  + ``cache_line_transfer`` + ``worker_poll`` + ``ring_dequeue`` +
  payload copy for the request, and the mirror image for the reply —
  ~356 fixed cycles versus ~510 for a minimal-mode ``world_call``;
* **cold call** (worker parked after exhausting its spin budget, or
  reassigned from another ring): adds ``worker_wakeup`` and/or
  ``worker_context_switch`` — far worse than a world switch, which is
  exactly the trade the adaptive policy navigates;
* wasted worker spin and sleep transitions are *engine statistics* (the
  configless paper's CPU-waste metric), not charges on the caller: the
  caller's counters only ever contain what it actually waits on.

The engine is a zero-cost-when-disabled module global (see
``repro.switchless.install``): the dispatch seams read one module
attribute and branch on ``None``, like telemetry/faults/audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import observatory as _observatory
from repro.errors import (
    AuthorizationDenied,
    ConfigurationError,
    GuestOSError,
    SimulationError,
    WorldCallError,
)
from repro.switchless.policy import AdaptivePolicy

#: Additive counters, in merge order.
STAT_FIELDS = (
    "calls",
    "hot_calls",
    "cold_calls",
    "wakeups",
    "worker_reassigns",
    "ring_setups",
    "enqueued_slots",
    "spin_cycles_wasted",
    "flips_to_switchless",
    "flips_to_world_call",
    "worker_grows",
    "worker_shrinks",
    "spin_grows",
    "spin_shrinks",
)

#: Valid engine modes.
MODES = ("adaptive", "observe", "force")


@dataclass
class SwitchlessStats:
    """Additive engine counters (merged across parallel cells)."""

    calls: int = 0
    hot_calls: int = 0
    cold_calls: int = 0
    wakeups: int = 0
    worker_reassigns: int = 0
    ring_setups: int = 0
    enqueued_slots: int = 0
    spin_cycles_wasted: int = 0
    flips_to_switchless: int = 0
    flips_to_world_call: int = 0
    worker_grows: int = 0
    worker_shrinks: int = 0
    spin_grows: int = 0
    spin_shrinks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in STAT_FIELDS}

    def merge(self, other: Dict[str, int]) -> None:
        for name in STAT_FIELDS:
            setattr(self, name, getattr(self, name) + other.get(name, 0))


@dataclass(frozen=True)
class SwitchlessConfig:
    """Initial knobs; ``workers`` and ``spin_budget`` are only starting
    points when ``autotune`` is on — the engine retunes them per window."""

    workers: int = 1
    spin_budget: int = 1024         # poll iterations before a worker parks
    ring_pages: int = 20            # per ring (matches crossvm SHARED_PAGES)
    mode: str = "adaptive"          # adaptive | observe | force
    autotune: bool = True
    max_workers: int = 8
    min_spin: int = 16
    max_spin: int = 16384
    window_cycles: int = 1_000_000
    flip_calls: int = 32
    occupancy_ceiling: float = 0.9
    cold_ratio_ceiling: float = 0.25


class _Worker:
    """One worker context inside a callee world."""

    __slots__ = ("index", "asleep", "ring_key", "last_used")

    def __init__(self, index: int) -> None:
        self.index = index
        self.asleep = True           # parked until its first request
        self.ring_key: Optional[Tuple[str, Any]] = None
        self.last_used = 0


class _RingPair:
    """Request + reply rings for one callee, plus service bookkeeping."""

    __slots__ = ("request", "reply", "last_service_cycle")

    def __init__(self, request, reply) -> None:
        self.request = request
        self.reply = reply
        self.last_service_cycle: Optional[int] = None


class SwitchlessEngine:
    """Deterministic worker scheduler + dispatch target for the seams."""

    def __init__(self, config: Optional[SwitchlessConfig] = None) -> None:
        self.config = config if config is not None else SwitchlessConfig()
        if self.config.mode not in MODES:
            raise ConfigurationError(
                f"switchless mode must be one of {MODES}, "
                f"not {self.config.mode!r}")
        self.stats = SwitchlessStats()
        self.policy = AdaptivePolicy(
            window_cycles=self.config.window_cycles,
            flip_calls=self.config.flip_calls,
            occupancy_ceiling=self.config.occupancy_ceiling,
            cold_ratio_ceiling=self.config.cold_ratio_ceiling)
        #: Live (auto-tuned) knobs.
        self.spin_budget = self.config.spin_budget
        self._machine = None
        self._rings: Dict[Tuple[str, Any], _RingPair] = {}
        self._pool: List[_Worker] = []
        self._seq = 0
        # Auto-tuner window accumulators (modeled cycles).
        self._win_start: Optional[int] = None
        self._win_seq0 = 0
        self._win_calls = 0
        self._win_wakeups = 0
        self._win_reassigns = 0
        self._win_waste = 0

    def clone(self) -> "SwitchlessEngine":
        """A fresh engine with the same config (per-cell isolation)."""
        return SwitchlessEngine(self.config)

    @property
    def worker_count(self) -> int:
        return len(self._pool) if self._pool else max(1, self.config.workers)

    def tuning(self) -> Dict[str, int]:
        """The currently tuned (non-additive) knob values."""
        return {"workers": self.worker_count,
                "spin_budget": self.spin_budget}

    # ------------------------------------------------------------------
    # the dispatch-seam entry points
    # ------------------------------------------------------------------

    def select(self, kind: str, caller_id: Any, callee_id: Any,
               cycles: int) -> Optional[str]:
        """Mechanism decision for one dispatch (observes the call).

        Pure bookkeeping: nothing is charged to the simulated CPU, so an
        engine in ``observe`` mode leaves every counter bit-identical.
        Returns ``"switchless"`` to divert the call, ``None`` to leave
        it on its default path.
        """
        mode = self.config.mode
        if mode == "force":
            return "switchless"
        before = len(self.policy.flips)
        mechanism = self.policy.decide((kind, caller_id, callee_id), cycles)
        if len(self.policy.flips) != before:
            site, to_mechanism, at_cycles = self.policy.flips[-1]
            if to_mechanism == "switchless":
                self.stats.flips_to_switchless += 1
            else:
                self.stats.flips_to_world_call += 1
            obs = _observatory._session
            if obs is not None:
                obs.on_flip(site, to_mechanism, at_cycles)
        if mode == "observe":
            return None
        return "switchless" if mechanism == "switchless" else None

    def world_call(self, runtime, caller, callee_wid: int,
                   payload: Any = None, *, authorize: bool = True) -> Any:
        """Serve one world-call site switchlessly."""
        from repro import telemetry
        session = telemetry._session
        if session is None:
            return self._world_call_impl(runtime, caller, callee_wid,
                                         payload, authorize)
        session.on_switchless_call("world")
        with session.tracer.span("switchless_call", category="switchless",
                                 cpu=runtime.machine.cpu,
                                 caller_wid=caller.wid,
                                 callee_wid=callee_wid):
            return self._world_call_impl(runtime, caller, callee_wid,
                                         payload, authorize)

    def crossvm_call(self, mechanism, from_vm, to_vm, request_obj: Any,
                     server) -> Any:
        """Serve one cross-VM site switchlessly."""
        from repro import telemetry
        session = telemetry._session
        if session is None:
            return self._crossvm_impl(mechanism, from_vm, to_vm,
                                      request_obj, server)
        session.on_switchless_call("crossvm")
        with session.tracer.span("switchless_call", category="switchless",
                                 cpu=mechanism.machine.cpu,
                                 frm=from_vm.name, to=to_vm.name):
            return self._crossvm_impl(mechanism, from_vm, to_vm,
                                      request_obj, server)

    # ------------------------------------------------------------------
    # world-call service
    # ------------------------------------------------------------------

    def _world_call_impl(self, runtime, caller, callee_wid: int,
                         payload: Any, authorize: bool) -> Any:
        from repro import audit as _audit
        from repro.core import convention
        from repro.core.call import CallRequest

        machine = runtime.machine
        cpu = machine.cpu
        if not caller.matches_cpu(cpu):
            raise SimulationError(
                f"CPU is not executing in caller world {caller.label} "
                f"(currently {cpu.world_label})")
        callee = runtime.registry.get(callee_wid)
        if callee is None:
            raise SimulationError(
                f"world {callee_wid} exists in hardware but has no "
                "registered software handler")
        if callee.handler is None:
            raise SimulationError(f"{callee.label} has no entry handler")

        site = ("world", caller.wid, callee_wid)
        wire, decoded = convention.roundtrip(payload)
        start, cold, ring = self._submit(machine, ("world", callee_wid),
                                         wire)

        if callee.busy:
            result: Any = ("__wcerr__",
                           f"concurrent world call into {callee.label} "
                           "(not supported; Section 5.3)")
        else:
            callee.busy = True
            saved_current = None
            try:
                # The worker context lives inside the callee world; the
                # guest scheduler already runs it as the service process,
                # so the current-process swap is pure bookkeeping (no
                # sched_reload charge — that is a world-switch cost).
                if callee.kernel is not None:
                    saved_current = callee.kernel.current
                    if callee.process is not None:
                        callee.kernel.current = callee.process
                result = None
                denied_detail = None
                if authorize:
                    # The worker still checks the caller WID stamped on
                    # the ring descriptor before serving it.
                    cpu.charge("world_authorize")
                    recorder = _audit._recorder
                    try:
                        callee.policy.check(caller.wid)
                        if recorder is not None:
                            recorder.on_authorization(
                                caller.wid, callee_wid, "allow")
                    except AuthorizationDenied as denied:
                        denied_detail = denied.detail or str(denied)
                        if recorder is not None:
                            recorder.on_authorization(
                                caller.wid, callee_wid, "deny",
                                denied_detail)
                if denied_detail is not None:
                    result = ("__denied__", denied_detail)
                else:
                    request = CallRequest(
                        caller_wid=caller.wid, payload=decoded,
                        service=callee.policy.service_for(caller.wid))
                    try:
                        result = callee.handler(request)
                    except GuestOSError as err:
                        result = err
                    except AuthorizationDenied as denied:
                        result = ("__denied__",
                                  denied.detail or str(denied))
                    except WorldCallError as err:
                        result = ("__wcerr__", str(err))
            finally:
                callee.busy = False
                if callee.kernel is not None:
                    callee.kernel.current = saved_current

        reply_wire, reply_value = convention.roundtrip(result)
        self._complete(machine, ring, reply_wire)
        self.policy.note_service(site, cpu.perf.cycles - start, cold)

        if isinstance(reply_value, GuestOSError):
            raise reply_value
        if isinstance(reply_value, tuple) and len(reply_value) == 2 and \
                reply_value[0] == "__denied__":
            raise AuthorizationDenied(caller.wid, reply_value[1])
        if isinstance(reply_value, tuple) and len(reply_value) == 2 and \
                reply_value[0] == "__wcerr__":
            raise WorldCallError(reply_value[1])
        return reply_value

    # ------------------------------------------------------------------
    # cross-VM service
    # ------------------------------------------------------------------

    def _crossvm_impl(self, mechanism, from_vm, to_vm, request_obj: Any,
                      server) -> Any:
        from repro.core import convention

        machine = mechanism.machine
        cpu = machine.cpu
        site = ("crossvm", from_vm.name, to_vm.name)
        wire, decoded = convention.roundtrip(request_obj)
        start, cold, ring = self._submit(machine, ("crossvm", to_vm.name),
                                         wire)
        # The worker context is *resident* in the callee VM: the service
        # runs there while the caller's vCPU never switches.  On the
        # single modeled CPU that residency is pure bookkeeping — flip
        # EPT/CR3 to the callee without charging (the switchless cost is
        # the ring/poll/wakeup charges made by _submit/_complete), run
        # the service, flip back.
        saved_ept, saved_vm = cpu.ept, cpu.vm_name
        saved_pt = cpu.page_table
        cpu.ept = to_vm.ept
        cpu.vm_name = to_vm.name
        cpu.tlb.on_ept_switch(to_vm.ept.eptp)
        if to_vm.kernel is not None:
            cpu.write_cr3(to_vm.kernel.master_page_table, charge=False)
        try:
            outcome = server(decoded)
        except GuestOSError as err:
            outcome = err
        finally:
            cpu.ept = saved_ept
            cpu.vm_name = saved_vm
            if saved_ept is not None:
                cpu.tlb.on_ept_switch(saved_ept.eptp)
            if saved_pt is not None:
                cpu.write_cr3(saved_pt, charge=False)
        reply_wire, reply_value = convention.roundtrip(outcome)
        self._complete(machine, ring, reply_wire)
        self.policy.note_service(site, cpu.perf.cycles - start, cold)
        if isinstance(reply_value, GuestOSError):
            raise reply_value
        return reply_value

    # ------------------------------------------------------------------
    # the deterministic worker scheduler
    # ------------------------------------------------------------------

    def _ensure_machine(self, machine) -> None:
        if self._machine is machine:
            return
        # A new machine means new memory and a restarted modeled clock:
        # rebuild rings and workers, rebase every window anchor.  Tuned
        # knob values carry over (the tuner's learning persists).  The
        # *first* machine is not a change — the policy has been watching
        # its clock through select() since before the first submit, and
        # rebasing here would tear the site windows mid-run.
        first = self._machine is None
        self._machine = machine
        self._rings.clear()
        self._pool = [_Worker(i)
                      for i in range(max(1, self.config.workers))]
        self._win_start = None
        self._win_seq0 = self._seq
        self._win_calls = 0
        self._win_wakeups = 0
        self._win_reassigns = 0
        self._win_waste = 0
        if not first:
            self.policy.rebase()

    def on_world_revoked(self, wid: int) -> None:
        """Forget one revoked world's switchless state (and nothing
        else's).

        Called by the hypervisor's ``destroy_world``: the revoked
        world's rings are torn down, its workers parked, and its policy
        sites dropped — while every *other* site's flip state, window
        counters and rings survive untouched.  With the fleet's sharded
        world table this is the switchless half of shard isolation:
        tenant A's revocation cannot flip tenant B back to world_call.
        """
        for key in [k for k in self._rings
                    if k[0] == "world" and k[1] == wid]:
            del self._rings[key]
            for worker in self._pool:
                if worker.ring_key == key:
                    worker.ring_key = None
                    worker.asleep = True
        self.policy.drop_world(wid)

    def _ring_for(self, key: Tuple[str, Any], machine) -> _RingPair:
        ring = self._rings.get(key)
        if ring is None:
            from repro.hypervisor.shared_memory import (SharedMemoryRegion,
                                                        SharedRing)
            cpu = machine.cpu
            pages = self.config.ring_pages
            label = f"switchless-{key[0]}"
            regions = [
                SharedMemoryRegion(machine.memory,
                                   machine.hypervisor.alloc_common_gpa(pages),
                                   pages, f"{label}-req"),
                SharedMemoryRegion(machine.memory,
                                   machine.hypervisor.alloc_common_gpa(pages),
                                   pages, f"{label}-rep"),
            ]
            # One-time setup: mapping the ring pages into both sides.
            cpu.perf.charge("page_map",
                            cpu.cost_model.page_map.scaled(2 * pages))
            ring = _RingPair(SharedRing(regions[0], label=f"{label}-req"),
                             SharedRing(regions[1], label=f"{label}-rep"))
            self._rings[key] = ring
            self.stats.ring_setups += 1
        return ring

    def _submit(self, machine, key: Tuple[str, Any], wire: bytes
                ) -> Tuple[int, bool, _RingPair]:
        """Caller enqueues; a worker picks the request up.

        Returns ``(start_cycles, cold, ring)``.  All scheduling is a
        function of modeled cycles, so the same workload always yields
        the same hot/cold sequence.
        """
        cpu = machine.cpu
        cm = cpu.cost_model
        self._ensure_machine(machine)
        now = cpu.perf.cycles
        self._roll_window(now)
        ring = self._ring_for(key, machine)
        self._seq += 1
        self.stats.calls += 1
        self._win_calls += 1

        # Caller side: stamp the descriptor into the request ring.
        cpu.charge("ring_enqueue")
        cpu.perf.charge("copy", cm.copy(len(wire)))
        nslots = ring.request.try_push(wire)
        if nslots == 0:                        # stale residue; self-heal
            ring.request.reset()
            nslots = ring.request.try_push(wire)
        self.stats.enqueued_slots += nslots
        cpu.charge("cache_line_transfer")

        # Worker side: find (or steal) the worker for this ring and
        # decide hot vs cold from how long the ring sat idle.
        worker = next((w for w in self._pool if w.ring_key == key), None)
        cold = False
        if worker is None:
            worker = min(self._pool, key=lambda w: w.last_used)
            worker.ring_key = key
            cold = True
            self.stats.worker_reassigns += 1
            self._win_reassigns += 1
            cpu.charge("worker_context_switch")
            if worker.asleep:
                self.stats.wakeups += 1
                self._win_wakeups += 1
                cpu.charge("worker_wakeup")
        else:
            spin_window = self.spin_budget * cm.worker_poll.cycles
            idle_gap = (now - ring.last_service_cycle
                        if ring.last_service_cycle is not None else None)
            if idle_gap is not None and idle_gap <= spin_window and \
                    not worker.asleep:
                # Hot: the worker was still spinning on this ring.  Its
                # wasted poll cycles are CPU-waste accounting, not a
                # charge on the caller.
                self.stats.spin_cycles_wasted += idle_gap
                self._win_waste += idle_gap
                cpu.charge("worker_poll")
            else:
                # The worker exhausted its spin budget and parked.
                if idle_gap is not None:
                    self.stats.spin_cycles_wasted += spin_window
                    self._win_waste += spin_window
                cold = True
                self.stats.wakeups += 1
                self._win_wakeups += 1
                cpu.charge("worker_wakeup")
        if cold:
            self.stats.cold_calls += 1
        else:
            self.stats.hot_calls += 1
        worker.asleep = False
        worker.last_used = self._seq

        cpu.charge("ring_dequeue")
        cpu.perf.charge("copy", cm.copy(len(wire)))
        popped = ring.request.try_pop()
        assert popped is not None and popped[0] == wire
        return now, cold, ring

    def _complete(self, machine, ring: _RingPair, reply_wire: bytes) -> None:
        """Worker enqueues the reply; the spinning caller pops it."""
        cpu = machine.cpu
        cm = cpu.cost_model
        cpu.charge("ring_enqueue")
        cpu.perf.charge("copy", cm.copy(len(reply_wire)))
        if ring.reply.try_push(reply_wire) == 0:
            ring.reply.reset()
            ring.reply.try_push(reply_wire)
        cpu.charge("cache_line_transfer")
        # Caller's successful reply poll + dequeue.
        cpu.charge("worker_poll")
        cpu.charge("ring_dequeue")
        cpu.perf.charge("copy", cm.copy(len(reply_wire)))
        popped = ring.reply.try_pop()
        assert popped is not None
        ring.last_service_cycle = cpu.perf.cycles

    # ------------------------------------------------------------------
    # configless auto-tuning (per modeled-cycle window)
    # ------------------------------------------------------------------

    def _roll_window(self, now: int) -> None:
        if self._win_start is None:
            self._win_start = now
            self._win_seq0 = self._seq
            return
        if now - self._win_start < self.config.window_cycles:
            return
        if self.config.autotune and self._win_calls:
            cfg = self.config
            if self._win_wakeups * 4 >= self._win_calls and \
                    self.spin_budget * 2 <= cfg.max_spin:
                # Cold-heavy window: spin longer before parking.
                self.spin_budget *= 2
                self.stats.spin_grows += 1
            elif self._win_wakeups == 0 and \
                    self._win_waste * 8 >= cfg.window_cycles and \
                    self.spin_budget // 2 >= cfg.min_spin:
                # Pure waste, no wakeups: spinning far too long.
                self.spin_budget //= 2
                self.stats.spin_shrinks += 1
            if self._win_reassigns * 2 >= self._win_calls and \
                    len(self._pool) < cfg.max_workers:
                # Workers thrash between rings: add one.
                self._pool.append(_Worker(len(self._pool)))
                self.stats.worker_grows += 1
            elif self._win_reassigns == 0 and len(self._pool) > 1:
                idle = [w for w in self._pool
                        if w.last_used <= self._win_seq0]
                if idle:
                    self._pool.remove(min(idle, key=lambda w: w.last_used))
                    self.stats.worker_shrinks += 1
        self._win_start = now
        self._win_seq0 = self._seq
        self._win_calls = 0
        self._win_wakeups = 0
        self._win_reassigns = 0
        self._win_waste = 0
