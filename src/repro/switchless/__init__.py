"""repro.switchless — switchless worker-context calls with adaptive
per-site mechanism selection.

The subsystem has four pieces:

* :mod:`repro.switchless.engine` — :class:`SwitchlessEngine`: the
  deterministic worker scheduler over shared-memory request rings (the
  ring layer itself lives in ``hypervisor/shared_memory.py``; the
  primitive costs in ``hw/costs.py``).
* :mod:`repro.switchless.policy` — :class:`AdaptivePolicy`: flips hot
  (site, caller, callee) tuples between ``world_call`` and
  ``switchless`` from per-window call rate and ring occupancy.
* :mod:`repro.switchless.campaign` — the seeded three-way evaluation
  campaign (baseline / world_call / switchless) behind the
  ``crossover-switchless`` CLI.
* the **dispatch seam** in ``core/call.py`` / ``core/crossvm.py`` —
  every call site accepts ``mechanism="baseline" | "world_call" |
  "switchless"``, and with no explicit choice the installed engine's
  :meth:`SwitchlessEngine.select` decides.

Like telemetry, faults and audit, the engine is a
module-global switch that is *zero cost when disabled*: dispatch seams
guard with ``if _switchless._engine is not None`` and the default is
``None``.  An engine in ``observe`` mode is installed-but-dormant — it
watches every site but never diverts a call and never charges a cycle,
so all counters stay bit-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .engine import (
    MODES,
    STAT_FIELDS,
    SwitchlessConfig,
    SwitchlessEngine,
    SwitchlessStats,
)
from .policy import AdaptivePolicy, SiteState

__all__ = [
    "AdaptivePolicy",
    "MODES",
    "STAT_FIELDS",
    "SiteState",
    "SwitchlessConfig",
    "SwitchlessEngine",
    "SwitchlessStats",
    "current",
    "enabled",
    "install",
    "scoped",
    "stats_dict",
    "uninstall",
]

#: The installed engine; ``None`` means switchless is off everywhere.
_engine: Optional[SwitchlessEngine] = None


def install(engine: Optional[SwitchlessEngine] = None) -> SwitchlessEngine:
    """Install ``engine`` (or a default one) process-wide."""
    global _engine
    _engine = engine if engine is not None else SwitchlessEngine()
    return _engine


def uninstall() -> None:
    global _engine
    _engine = None


def enabled() -> bool:
    return _engine is not None


def current() -> Optional[SwitchlessEngine]:
    return _engine


def stats_dict() -> dict:
    """The installed engine's counters (empty dict when disabled)."""
    return _engine.stats.to_dict() if _engine is not None else {}


@contextmanager
def scoped(engine: Optional[SwitchlessEngine] = None
           ) -> Iterator[SwitchlessEngine]:
    """Install an engine for the duration of a with-block (nest-safe)."""
    global _engine
    previous = _engine
    _engine = engine if engine is not None else SwitchlessEngine()
    try:
        yield _engine
    finally:
        _engine = previous
