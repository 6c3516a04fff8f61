"""repro.audit — flight recorder + hash-chained world-call audit log.

The subsystem has five pieces:

* :mod:`repro.audit.recorder` — :class:`FlightRecorder`: the bounded,
  hash-chained log; one structured record per world transition and per
  authorization decision, appended at hookpoints threaded through the
  same seams telemetry uses.
* :mod:`repro.audit.chain` — chain construction and offline
  verification (:func:`verify_chain` / :func:`require_chain`).
* :mod:`repro.audit.graph` — causal reconstruction: the flat log
  becomes a who-called-whom forest with per-edge modeled-cost rollups,
  and its Figure-2 crossing replay crosschecks the span tracer.
* :mod:`repro.audit.detectors` — pluggable anomaly detectors
  (:data:`DETECTORS`): forged WID, denial bursts, injection storms,
  crossing-pattern drift, chain breaks.
* :mod:`repro.audit.workload` — what ``crossover audit`` runs
  (``record`` / ``verify`` / ``query`` / ``graph``) and the
  deterministic ``crossover-audit/v1`` artifact.

The recorder is a :mod:`repro.hooks` subscriber (kind ``audit``): its
``on_*`` methods receive the bus events, so with no recorder installed
a hookpoint costs one read of an empty callback tuple.
"""

from __future__ import annotations

from repro import hooks as _hooks

from .chain import require_chain, verify_chain
from .detectors import DETECTORS, run_detectors
from .recorder import AuditConfig, FlightRecorder, RECORD_FIELDS

__all__ = [
    "AuditConfig",
    "DETECTORS",
    "FlightRecorder",
    "RECORD_FIELDS",
    "current",
    "enabled",
    "install",
    "require_chain",
    "run_detectors",
    "scoped",
    "uninstall",
    "verify_chain",
]

install, uninstall, current, enabled, scoped = _hooks.bind(
    "audit", FlightRecorder)
