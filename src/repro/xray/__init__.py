"""``repro.xray``: request-scoped tracing and tail attribution.

The observatory (PR8) says *when* a tail crossed a threshold; the
fleet campaign (PR9) says *how bad* it is.  X-ray says **why**: every
traced request carries a segment vector on the modeled-cycle clock
(queue wait, hypervisor-serialization wait, WT refill, worker wakeup,
marshal, transition core, handler body, return path) whose entries sum
*exactly* to its end-to-end latency, and the explainer aggregates
those into a critical-path table (self vs contention time,
per tenant / mechanism / stage), a noisy-neighbor report, and
histogram exemplars linking the p99 bucket to a concrete replayable
trace id.

Two entry points:

* the **fleet path** — :class:`~repro.xray.trace.XrayRecorder` passed
  into :class:`~repro.fleet.scheduler.FleetScheduler`; the
  ``crossover xray`` subcommand (:mod:`repro.xray.campaign`) sweeps it into a
  schema-validated ``crossover-xray/v1`` artifact;
* the **single-machine path** — the :class:`XraySession` below,
  installed on the hook bus (kind ``xray``): the telemetry session's
  ``call_end`` callback asks it for a deterministic trace id per
  completed world call and (for sampled ids) attaches it as the
  ``world_call.cycles`` histogram exemplar.  With no telemetry session
  installed nothing consults it.

Sampling everywhere is a seeded hash of the trace id (never ``random``
or wall-clock), so artifacts are byte-identical at 1/2/4 pool workers
and 1/2/4 scheduler lanes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro import hooks as _hooks
from repro.xray.trace import (
    CONTENTION,
    DEFAULT_KEEP,
    DEFAULT_SAMPLE_EVERY,
    SEGMENTS,
    TraceState,
    XrayRecorder,
    check_traces,
    dominant_segment,
    is_sampled,
    trace_id,
)

__all__ = [
    "SEGMENTS", "CONTENTION", "DEFAULT_SAMPLE_EVERY", "DEFAULT_KEEP",
    "TraceState", "XrayRecorder", "XraySession", "check_traces",
    "dominant_segment", "is_sampled", "trace_id",
    "current", "enabled", "install", "uninstall", "scoped",
]


class XraySession(_hooks.Subscriber):
    """Single-machine trace-id minting for the world-call hot path.

    Each ``(caller wid, callee wid)`` edge gets its own sequence, so
    the id ``wc:<caller>-><callee>#<n>`` is stable across runs of the
    same deterministic workload.  ``call_exemplar`` returns the id for
    sampled calls and None otherwise — the runtime threads it straight
    into ``world_call.cycles``'s exemplar slot.
    """

    __slots__ = ("seed", "sample_every", "issued", "sampled", "_seqs")

    def __init__(self, seed: int = 0,
                 sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.seed = seed
        self.sample_every = sample_every
        self.issued = 0
        self.sampled = 0
        self._seqs: Dict[Tuple[int, int], int] = {}

    def call_exemplar(self, caller: int, callee: int) -> Optional[str]:
        """Mint the next trace id on this edge; return it when the
        seeded hash samples it, else None."""
        edge = (caller, callee)
        seq = self._seqs.get(edge, 0)
        self._seqs[edge] = seq + 1
        self.issued += 1
        tid = f"wc:{caller}->{callee}#{seq}"
        if not is_sampled(self.seed, tid, self.sample_every):
            return None
        self.sampled += 1
        return tid

    def stats(self) -> Dict[str, int]:
        return {"issued": self.issued, "sampled": self.sampled}

    # -- cells (the hook-bus protocol) ---------------------------------

    def spawn(self, runner: str, args: tuple) -> "XraySession":
        return XraySession(self.seed, self.sample_every)

    def harvest(self) -> Dict[str, Any]:
        return {"issued": self.issued, "sampled": self.sampled,
                "seqs": sorted(self._seqs.items())}

    def absorb(self, payload: Dict[str, Any], runner: str = "",
               args: tuple = (), pid: Optional[int] = None) -> None:
        """Add a cell's counts; each edge's sequence continues past the
        ids the cell issued."""
        self.issued += payload["issued"]
        self.sampled += payload["sampled"]
        for edge, seq in payload["seqs"]:
            edge = tuple(edge)
            self._seqs[edge] = self._seqs.get(edge, 0) + seq


install, uninstall, current, enabled, _scoped = _hooks.bind(
    "xray", XraySession)


def scoped(session: Optional[XraySession] = None, *, seed: int = 0,
           sample_every: int = DEFAULT_SAMPLE_EVERY):
    """Install a session (or a fresh one) for a ``with`` block,
    restoring whatever was installed before."""
    return _scoped(session if session is not None
                   else XraySession(seed, sample_every))
