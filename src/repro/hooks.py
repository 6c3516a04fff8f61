"""The hook bus: every process-wide subscriber, in one place.

Six subsystems watch or steer the datapath: ``telemetry``, ``xray``,
``audit`` and ``observatory`` observe it, ``faults`` and
``switchless`` change its control flow.  Each is installed here under
its *kind*; the subsystem packages re-export :func:`bind`'s lifecycle
functions for their kind (``telemetry.install`` / ``scoped`` / ...).

**Observers** are reached through typed events.  Each name in
:data:`EVENTS` is a module attribute holding a tuple of bound
callbacks, one per installed subscriber with an ``on_<event>`` method,
in the fixed :data:`ORDER` of kinds (never install order, so artifacts
do not depend on how a run was set up).  A site emits with::

    for fn in _hooks.recovery:
        fn(policy)

With nothing installed that is one attribute read of an empty tuple
and no Python call.  Sites that bracket work (``call_begin`` /
``call_end``, ...) read the end tuple together with the begin tuple,
so a bracket always closes on the subscribers that saw it open.

**Policy engines** keep one explicit seam each: :data:`faults` and
:data:`switchless` hold the installed engine (or ``None``) and the
datapath consults it directly.  The observatory's per-charge seam is
the ``PerfCounters._obs_next`` threshold, armed through the
``perf_zeroed`` event.

**Cells.**  :class:`Subscriber` is the protocol the parallel runner
(:mod:`repro.analysis.parallel`) uses to isolate and merge cells
without naming any subsystem: ``spawn`` a fresh per-cell subscriber,
``harvest`` its picklable payload, ``absorb`` payloads back in spec
order, and optionally ``summarize`` the sweep.  A subscriber whose
state cannot be merged sets ``in_process`` and the runner keeps every
cell in this process, sharing it.

This module is a leaf: it imports nothing from ``repro``.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Subscriber kinds, in the order callbacks run, cells spawn (outermost
#: first) and payloads merge.
ORDER = ("switchless", "faults", "telemetry", "xray", "audit",
         "observatory")

Callbacks = Tuple[Callable[..., Any], ...]

# The events, each with its one callback signature.
# hw
transition: Callbacks = ()          # (event: TransitionEvent)
fused: Callbacks = ()               # (record: FusedCharge)
world_call_issue: Callbacks = ()    # (cpu_id)
world_call_hw: Callbacks = ()       # (caller_wid, callee_wid, *, frm,
#                                      to, mode, ring, cycles)
wt_miss: Callbacks = ()             # (cache, cpu_id)
ept_switch: Callbacks = ()          # (index, to, ring, cycles)
perf_zeroed: Callbacks = ()         # (perf: PerfCounters)
# hypervisor
wtc_service: Callbacks = ()         # (cache, key)
revalidate: Callbacks = ()          # (wid)
hypercall: Callbacks = ()           # (number, vm, decision)
virq_inject: Callbacks = ()         # (vector, vm)
virq_deliver: Callbacks = ()        # (vector, vm)
# core
call_begin: Callbacks = ()          # (caller_wid, callee_wid, cycles, cpu)
call_end: Callbacks = ()            # (..., cycles, outcome, cpu)
crossvm_begin: Callbacks = ()       # (frm, to, cycles, cpu)
crossvm_end: Callbacks = ()         # (frm, to, cycles, outcome, cpu)
authorization: Callbacks = ()       # (caller_wid, callee_wid, decision,
#                                      detail="")
recovery: Callbacks = ()            # (policy)
marshal_repair: Callbacks = ()      # ()
# systems
redirect_begin: Callbacks = ()      # (system, op)
redirect_end: Callbacks = ()        # (system, op)
# policy engines and the flight recorder
switchless_begin: Callbacks = ()    # (kind, frm, to, cpu)
switchless_end: Callbacks = ()      # (kind, cpu)
flip: Callbacks = ()                # (site, mechanism, cycles)
fault_injected: Callbacks = ()      # (site)
audit_anomaly: Callbacks = ()       # (kind, detail)

#: Every event name (each attribute annotated ``Callbacks`` above).
EVENTS = tuple(name for name, kind in __annotations__.items()
               if kind == "Callbacks")

#: The policy seams: the installed engine, or ``None``.
faults: Any = None
switchless: Any = None

_installed: Dict[str, Any] = {}


class Subscriber:
    """Defaults for the cell protocol: a subscriber with nothing to
    isolate shares itself with every cell and merges nothing back."""

    __slots__ = ()

    #: Cells must run in this process, sharing this subscriber.
    in_process = False

    def spawn(self, runner: str, args: tuple) -> Any:
        """The subscriber one cell runs under."""
        return self

    def harvest(self) -> Any:
        """The spawned subscriber's picklable payload (``None``: none)."""
        return None

    def absorb(self, payload: Any, runner: str = "", args: tuple = (),
               pid: Optional[int] = None) -> None:
        """Merge one cell's payload (cells arrive in spec order; ``pid``
        is the worker's process id, ``None`` for this process)."""

    def summarize(self, cells: List[Tuple[str, tuple, Any]]
                  ) -> Optional[Dict[str, Any]]:
        """A sweep-level section from ``(runner, args, payload)`` per
        cell, or ``None``."""
        return None

    def detach(self) -> None:
        """Called when :func:`uninstall` or a :func:`scoped` exit
        removes this subscriber."""


def _rebuild() -> None:
    """Recompute every event tuple and policy seam from the installed
    subscribers, in :data:`ORDER`."""
    subscribers = [_installed[kind] for kind in ORDER if kind in _installed]
    namespace = globals()
    for event in EVENTS:
        method = "on_" + event
        namespace[event] = tuple(
            getattr(sub, method) for sub in subscribers
            if hasattr(sub, method))
    namespace["faults"] = _installed.get("faults")
    namespace["switchless"] = _installed.get("switchless")


def _check(kind: str) -> None:
    if kind not in ORDER:
        raise ValueError(f"unknown subscriber kind {kind!r}; expected one "
                         f"of {ORDER}")


def install(kind: str, subscriber: Any) -> Any:
    """Install ``subscriber`` as the process-wide ``kind`` (``None``
    removes it without detaching)."""
    _check(kind)
    if subscriber is None:
        _installed.pop(kind, None)
    else:
        _installed[kind] = subscriber
    _rebuild()
    return subscriber


def uninstall(kind: str) -> Any:
    """Remove, detach and return the installed ``kind`` (or ``None``)."""
    _check(kind)
    subscriber = _installed.pop(kind, None)
    _rebuild()
    if subscriber is not None:
        subscriber.detach()
    return subscriber


def current(kind: str) -> Any:
    """The installed ``kind``, or ``None``."""
    return _installed.get(kind)


def installed() -> List[Tuple[str, Any]]:
    """``(kind, subscriber)`` for every installed kind, in ORDER."""
    return [(kind, _installed[kind]) for kind in ORDER if kind in _installed]


@contextlib.contextmanager
def scoped(kind: str, subscriber: Any) -> Iterator[Any]:
    """Install ``subscriber`` (``None``: nothing) as ``kind`` for a
    ``with`` block, then detach it and restore whatever was installed
    before — also when the block raises."""
    previous = current(kind)
    install(kind, subscriber)
    try:
        yield subscriber
    finally:
        if subscriber is not None and subscriber is not previous:
            subscriber.detach()
        install(kind, previous)


def bind(kind: str, make: Callable[[], Any]):
    """A subsystem's ``(install, uninstall, current, enabled, scoped)``
    for ``kind``; ``make()`` builds the subscriber when none is given."""
    _check(kind)

    def _install(subscriber: Any = None) -> Any:
        return install(kind, subscriber if subscriber is not None
                       else make())

    def _scoped(subscriber: Any = None):
        return scoped(kind, subscriber if subscriber is not None
                      else make())

    return (_install, lambda: uninstall(kind), lambda: current(kind),
            lambda: kind in _installed, _scoped)
