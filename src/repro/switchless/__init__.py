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
  ``crossover switchless`` subcommand.
* the **dispatch seam** in ``core/call.py`` / ``core/crossvm.py`` —
  every call site accepts ``mechanism="baseline" | "world_call" |
  "switchless"``, and with no explicit choice the installed engine's
  :meth:`SwitchlessEngine.select` decides.

The installed engine is the ``switchless`` policy seam of the hook bus
(:data:`repro.hooks.switchless`): dispatch seams guard with
``if _hooks.switchless is not None``, so the engine is *zero cost when
disabled*.  An engine in ``observe`` mode is installed-but-dormant — it
watches every site but never diverts a call and never charges a cycle,
so all counters stay bit-identical.
"""

from __future__ import annotations

from repro import hooks as _hooks

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

install, uninstall, current, enabled, scoped = _hooks.bind(
    "switchless", SwitchlessEngine)


def stats_dict() -> dict:
    """The installed engine's counters (empty dict when disabled)."""
    engine = current()
    return engine.stats.to_dict() if engine is not None else {}
