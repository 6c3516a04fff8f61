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

Like telemetry, the fast path, and fault injection, the recorder is a
module-global switch that is *zero cost when disabled*: hot datapath
code guards every hookpoint with ``if _audit._recorder is not None``
and the default is ``None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

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

#: The installed recorder; ``None`` means auditing is off everywhere.
_recorder: Optional[FlightRecorder] = None


def install(recorder: FlightRecorder) -> FlightRecorder:
    """Install ``recorder`` as the process-wide flight recorder."""
    global _recorder
    _recorder = recorder
    return recorder


def uninstall() -> None:
    global _recorder
    _recorder = None


def enabled() -> bool:
    return _recorder is not None


def current() -> Optional[FlightRecorder]:
    return _recorder


@contextmanager
def scoped(recorder: FlightRecorder) -> Iterator[FlightRecorder]:
    """Install ``recorder`` for the duration of a with-block (nest-safe)."""
    global _recorder
    previous = _recorder
    _recorder = recorder
    try:
        yield recorder
    finally:
        _recorder = previous
