"""``repro.telemetry``: the unified observability subsystem.

One :class:`TelemetrySession` bundles the two collection surfaces:

* a **metrics registry** (:mod:`repro.telemetry.registry`) — counters,
  gauges, fixed-bucket histograms over *modeled* quantities, so a
  snapshot of a deterministic workload is itself deterministic;
* a **span tracer** (:mod:`repro.telemetry.spans`) — nested spans
  carrying modeled cycles *and* host wall-clock, with every transition
  trace event attached as an instant to the innermost open span.

Exactly one session is installed process-wide at a time (mirroring
:mod:`repro.core.fastpath`: the hot layers cannot afford per-call
indirection).  Instrumented code checks ``telemetry._session`` — a
module-attribute read plus a ``None`` test — and does *nothing else*
while no session is installed, so:

* with telemetry **off**, the hooks are a dead branch: fast-path
  equivalence and all modeled counters are untouched;
* with telemetry **on**, collection only ever *reads* the perf
  counters and the trace — it never charges, so modeled instructions,
  cycles, per-event counts and world switches stay **bit-identical**
  to a telemetry-disabled run (only host wall-clock changes).

Sessions come in two shapes, selected by :class:`TelemetryConfig`:

* **tree** (default) — the full span forest, wall-clock captured;
  feeds the Chrome trace exporter and the cost-attribution profiler;
* **ring** (:meth:`TelemetrySession.lightweight`) — the always-on
  mode: every redirect still counts, but spans are *sampled* into a
  preallocated bounded :class:`~repro.telemetry.spans.SpanRing` with
  no wall-clock reads, keeping enabled overhead low enough to leave on.

Exporters (Chrome trace-event JSON, the world-switch crossing matrix,
the metrics snapshot) live in :mod:`repro.telemetry.export`; the
cost-attribution profiler in :mod:`repro.telemetry.profiler`; the
``crossover-trace`` CLI in :mod:`repro.telemetry.cli`.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, Optional

from repro.hw.perf import WORLD_SWITCH_KINDS
from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry)
from repro.telemetry.spans import Span, SpanEvent, SpanRing, Tracer

__all__ = [
    "TelemetryConfig", "TelemetrySession", "MetricsRegistry",
    "Counter", "Gauge", "Histogram",
    "Tracer", "Span", "SpanEvent", "SpanRing",
    "current", "enabled", "install", "uninstall", "scoped",
    "transition_observer", "attach_machine",
]


class TelemetryConfig:
    """How a session collects spans.

    ``spans``        — ``"tree"`` (full span forest) or ``"ring"``
                       (sampled records in a bounded ring).
    ``ring_capacity``— ring slots preallocated in ring mode.
    ``capture_wall`` — read ``perf_counter_ns`` per span/instant.
    ``sample_every`` — in ring mode, record every Nth redirect span
                       (all redirects are still *counted*).
    """

    __slots__ = ("spans", "ring_capacity", "capture_wall", "sample_every")

    def __init__(self, spans: str = "tree", ring_capacity: int = 4096,
                 capture_wall: bool = True, sample_every: int = 1) -> None:
        if spans not in ("tree", "ring"):
            raise ValueError(f"spans must be 'tree' or 'ring', not {spans!r}")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.spans = spans
        self.ring_capacity = ring_capacity
        self.capture_wall = capture_wall
        self.sample_every = sample_every

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": self.spans, "ring_capacity": self.ring_capacity,
                "capture_wall": self.capture_wall,
                "sample_every": self.sample_every}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryConfig":
        return cls(**data)


class _RingSpan:
    """Context manager for one sampled redirect in ring mode.

    Snapshots the modeled clocks (plain int reads) on entry, pushes one
    ring record and one histogram observation on exit.  Never touches
    wall-clock unless the session asked for it.
    """

    __slots__ = ("_session", "_cpu", "_system", "_op", "_variant",
                 "_cycles", "_instructions", "_wall")

    def __init__(self, session: "TelemetrySession", cpu, system: str,
                 op: str, variant: str) -> None:
        self._session = session
        self._cpu = cpu
        self._system = system
        self._op = op
        self._variant = variant
        self._cycles = 0
        self._instructions = 0
        self._wall = 0

    def __enter__(self) -> "_RingSpan":
        perf = self._cpu.perf
        self._cycles = perf.cycles
        self._instructions = perf.instructions
        if self._session.config.capture_wall:
            self._wall = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        session = self._session
        perf = self._cpu.perf
        cycles = perf.cycles - self._cycles
        instructions = perf.instructions - self._instructions
        wall = 0
        if session.config.capture_wall:
            wall = time.perf_counter_ns() - self._wall
        assert session.span_ring is not None
        session.span_ring.push((self._system, self._op, self._variant,
                                cycles, instructions, wall))
        session._observe_redirect_cycles(self._system, self._variant, cycles)


class TelemetrySession:
    """All telemetry collected between :func:`install` and
    :func:`uninstall`.

    The hook entry points are deliberately allocation-light: every
    labeled counter the hot paths touch is resolved once and its bound
    ``inc`` method cached in a plain-tuple-keyed dict, skipping the
    registry's label canonicalization on every call.
    """

    def __init__(self, label: str = "telemetry",
                 config: Optional[TelemetryConfig] = None) -> None:
        self.label = label
        self.config = config if config is not None else TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(capture_wall=self.config.capture_wall)
        self.span_ring: Optional[SpanRing] = (
            SpanRing(self.config.ring_capacity)
            if self.config.spans == "ring" else None)
        self._redirects_seen = 0
        # Pre-bound unlabeled counters (one attribute call per hit).
        metrics = self.metrics
        self._inc_world_switches = metrics.counter("trace.world_switches").inc
        self._inc_fused_batches = metrics.counter("fused.batches").inc
        self._inc_fused_switches = metrics.counter(
            "fused.world_switches").inc
        # Bound-``inc`` caches for the labeled hot-path counters, keyed
        # by plain tuples (no sort, no stringification per call).
        self._kind_counters: Dict[str, Callable] = {}
        self._matrix_counters: Dict[tuple, Callable] = {}
        self._crossvm_counters: Dict[tuple, Callable] = {}
        self._virq_counters: Dict[tuple, Callable] = {}
        self._worldcall_counters: Dict[tuple, Callable] = {}
        self._worldcall_hist: Optional[Callable] = None
        self._redirect_counters: Dict[tuple, Callable] = {}
        self._redirect_hists: Dict[tuple, Callable] = {}
        self._fault_counters: Dict[str, Callable] = {}
        self._recovery_counters: Dict[str, Callable] = {}
        self._switchless_counters: Dict[str, Callable] = {}

    @classmethod
    def lightweight(cls, label: str = "telemetry") -> "TelemetrySession":
        """The always-on profile: counters fully on, spans sampled into
        a bounded ring, no wall-clock reads."""
        return cls(label, TelemetryConfig(spans="ring", ring_capacity=4096,
                                          capture_wall=False,
                                          sample_every=64))

    # ------------------------------------------------------------------
    # hook entry points (instrumented layers call these after checking
    # a session is installed; none of them touch the perf counters)
    # ------------------------------------------------------------------

    def on_transition(self, event) -> None:
        """One :class:`~repro.hw.trace.TransitionEvent` was recorded."""
        kind = event.kind
        inc = self._kind_counters.get(kind)
        if inc is None:
            inc = self._kind_counters[kind] = self.metrics.counter(
                "trace.events", kind=kind).inc
        inc()
        key = (event.frm, event.to, kind)
        minc = self._matrix_counters.get(key)
        if minc is None:
            minc = self._matrix_counters[key] = self.metrics.counter(
                "trace.matrix", frm=event.frm, to=event.to, kind=kind).inc
        minc()
        if kind in WORLD_SWITCH_KINDS:
            self._inc_world_switches()
        if self.span_ring is None:
            self.tracer.instant(kind, seq=event.seq, frm=event.frm,
                                to=event.to, detail=event.detail,
                                cycles=event.cycles,
                                instructions=event.instructions)

    def on_fused(self, record) -> None:
        """One :class:`~repro.hw.fused.FusedCharge` batch was applied."""
        self._inc_fused_batches()
        self._inc_fused_switches(record.world_switches)

    def on_world_call(self, caller_wid: int, callee_wid: int) -> None:
        """A :class:`~repro.core.call.WorldCallRuntime` call started."""
        key = (caller_wid, callee_wid)
        inc = self._worldcall_counters.get(key)
        if inc is None:
            inc = self._worldcall_counters[key] = self.metrics.counter(
                "core.world_calls", caller_wid=caller_wid,
                callee_wid=callee_wid).inc
        inc()

    def on_world_call_cycles(self, cycles: int,
                             exemplar: Optional[str] = None) -> None:
        """One completed world call cost ``cycles`` modeled cycles
        end-to-end — the ``world_call.cycles`` latency histogram the
        observatory's SLO engine reads per window.  ``exemplar`` (a
        deterministic xray trace id, when an xray session is installed
        and sampled this call) pins the bucket's exemplar trace."""
        observe = self._worldcall_hist
        if observe is None:
            observe = self._worldcall_hist = self.metrics.histogram(
                "world_call.cycles").observe
        observe(cycles, exemplar)

    def on_crossvm_roundtrip(self, frm: str, to: str) -> None:
        """A Figure-4 cross-VM round trip started."""
        key = (frm, to)
        inc = self._crossvm_counters.get(key)
        if inc is None:
            inc = self._crossvm_counters[key] = self.metrics.counter(
                "core.crossvm_roundtrips", frm=frm, to=to).inc
        inc()

    def on_fault_injected(self, site: str) -> None:
        """The fault engine fired one planned fault at ``site``."""
        inc = self._fault_counters.get(site)
        if inc is None:
            inc = self._fault_counters[site] = self.metrics.counter(
                "faults.injected", site=site).inc
        inc()

    def on_recovery(self, policy: str) -> None:
        """A graceful-degradation policy activated (``policy`` names it:
        revalidate, legacy_fallback, watchdog_timeout, ...)."""
        inc = self._recovery_counters.get(policy)
        if inc is None:
            inc = self._recovery_counters[policy] = self.metrics.counter(
                "faults.recoveries", policy=policy).inc
        inc()

    def on_fleet_stats(self, stats: Dict[str, int]) -> None:
        """Absorb one fleet-scheduler run's totals at a quiescent point
        — the ``crossover-fleet`` campaign cell calls this after its
        event loop drains, mirroring :meth:`on_switchless_stats`."""
        for name, value in stats.items():
            if value:
                self.metrics.counter(f"fleet.{name}").inc(value)

    def on_switchless_call(self, kind: str) -> None:
        """The switchless engine diverted one call (``kind`` is
        ``world`` or ``crossvm``)."""
        inc = self._switchless_counters.get(kind)
        if inc is None:
            inc = self._switchless_counters[kind] = self.metrics.counter(
                "switchless.calls", kind=kind).inc
        inc()

    def on_switchless_stats(self, stats: Dict[str, int]) -> None:
        """Absorb a switchless engine's counters at a quiescent point —
        the sweep runner calls this with each cell's totals rather than
        as live per-call increments."""
        for name, value in stats.items():
            if value:
                self.metrics.counter(f"switchless.{name}").inc(value)

    def on_virq_injected(self, vector: int, vm_name: str) -> None:
        """The hypervisor injector queued one virtual interrupt."""
        key = (vector, vm_name)
        inc = self._virq_counters.get(key)
        if inc is None:
            inc = self._virq_counters[key] = self.metrics.counter(
                "hypervisor.virq_injected", vector=f"{vector:#04x}",
                vm=vm_name).inc
        inc()

    def redirect_span(self, system, op: str):
        """Span (or ``None``) bracketing one redirected call.

        Counts the redirect always; returns a context manager only when
        this call should be *spanned* — every call in tree mode, every
        ``sample_every``-th call in ring mode.  Callers run the redirect
        bare when this returns ``None``.
        """
        name = system.name
        variant = system.variant
        key = (name, variant)
        inc = self._redirect_counters.get(key)
        if inc is None:
            inc = self._redirect_counters[key] = self.metrics.counter(
                "system.redirects", system=name, variant=variant).inc
        inc()
        if self.span_ring is None:
            return self.tracer.span(f"{name}.redirect", category="system",
                                    cpu=system.machine.cpu, op=op,
                                    variant=variant)
        self._redirects_seen += 1
        if self._redirects_seen % self.config.sample_every:
            return None
        return _RingSpan(self, system.machine.cpu, name, op, variant)

    def _observe_redirect_cycles(self, system: str, variant: str,
                                 cycles: int) -> None:
        key = (system, variant)
        observe = self._redirect_hists.get(key)
        if observe is None:
            observe = self._redirect_hists[key] = self.metrics.histogram(
                "system.redirect_cycles", system=system,
                variant=variant).observe
        observe(cycles)

    # ------------------------------------------------------------------
    # worker merge (parallel sweeps)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of the whole session (picklable/JSON-able)."""
        return {
            "label": self.label,
            "config": self.config.to_dict(),
            "metrics": self.metrics.snapshot(),
            "spans": [s.to_dict() for s in self.tracer.roots],
            "dropped": self.tracer.dropped,
            "ring": (self.span_ring.to_dict()
                     if self.span_ring is not None else None),
        }

    def absorb(self, data: Dict[str, Any],
               pid: Optional[int] = None) -> None:
        """Merge a worker session's :meth:`to_dict` payload: counters
        and histograms add into the registry, span trees are adopted
        (tagged with the worker ``pid`` for the Chrome export), ring
        records append to this session's ring."""
        self.metrics.merge_snapshot(data.get("metrics", {}))
        for span_data in data.get("spans", []):
            span = Span.from_dict(span_data)
            if pid is not None:
                for sub in span.iter_spans():
                    if sub.pid is None:
                        sub.pid = pid
            self.tracer.adopt(span)
        self.tracer.dropped += data.get("dropped", 0)
        ring_data = data.get("ring")
        if ring_data is not None:
            if self.span_ring is None:
                self.span_ring = SpanRing(ring_data.get("capacity", 4096))
            self.span_ring.absorb(ring_data)


# ---------------------------------------------------------------------------
# the process-global session switch
# ---------------------------------------------------------------------------

_session: Optional[TelemetrySession] = None


def current() -> Optional[TelemetrySession]:
    """The installed session, or None."""
    return _session


def enabled() -> bool:
    """Whether a telemetry session is installed."""
    return _session is not None


def install(session: Optional[TelemetrySession] = None) -> TelemetrySession:
    """Install ``session`` (or a fresh one) as the process session."""
    global _session
    _session = session if session is not None else TelemetrySession()
    return _session


def uninstall() -> Optional[TelemetrySession]:
    """Remove and return the installed session."""
    global _session
    session, _session = _session, None
    return session


@contextlib.contextmanager
def scoped(label: str = "telemetry",
           config: Optional[TelemetryConfig] = None
           ) -> Iterator[TelemetrySession]:
    """Install a fresh session for a ``with`` block, restoring whatever
    was installed before::

        with telemetry.scoped("trace-proxos") as session:
            run_workload()
        export.write_artifacts(session, outdir)

    With no explicit ``config`` the new session inherits the *current*
    session's config (so cells scoped inside a lightweight sweep stay
    lightweight), falling back to the tree default.
    """
    global _session
    previous = _session
    if config is None and previous is not None:
        config = previous.config
    _session = TelemetrySession(label, config)
    try:
        yield _session
    finally:
        _session = previous


def transition_observer() -> Optional[Callable]:
    """The installed session's transition hook (for
    :class:`~repro.hw.trace.TransitionTrace` construction), or None."""
    session = _session
    return session.on_transition if session is not None else None


def attach_machine(machine) -> None:
    """(Re)bind every CPU trace of ``machine`` to the current session.

    Machines built *while* a session is installed attach automatically;
    this is for machines that predate the session (or to detach them
    all when no session is installed)."""
    observer = transition_observer()
    for cpu in machine.cpus:
        cpu.trace.observer = observer
