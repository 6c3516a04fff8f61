"""repro.faults — deterministic fault injection over the world-call datapath.

The subsystem has four pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: which site, at which
  operation indexes (seeded schedule), how many times (budget).
* :mod:`repro.faults.sites` — the named injection-site catalog spanning
  the ``hw``, ``hypervisor``, and ``core`` layers.
* :mod:`repro.faults.engine` — :class:`FaultEngine`, evaluated at
  hookpoints threaded through the datapath.
* :mod:`repro.faults.campaign` — the campaign runner that replays case
  study operations under each plan and classifies the outcomes
  (``denied-cleanly`` / ``recovered`` / ``degraded-to-legacy`` /
  ``invariant-violation``); ``crossover faults`` runs it.

The installed engine is the ``faults`` policy seam of the hook bus
(:data:`repro.hooks.faults`): hot datapath code guards every hookpoint
with ``if _hooks.faults is not None``, so injection is *zero cost when
disabled*.
"""

from __future__ import annotations

from repro import hooks as _hooks

from .engine import FaultEngine
from .plan import FaultPlan, seeded_plan, seeded_schedule
from .sites import SITES, SITE_NAMES, FaultSite

__all__ = [
    "FaultEngine",
    "FaultPlan",
    "FaultSite",
    "SITES",
    "SITE_NAMES",
    "current",
    "enabled",
    "install",
    "scoped",
    "seeded_plan",
    "seeded_schedule",
    "uninstall",
]

install, uninstall, current, enabled, scoped = _hooks.bind(
    "faults", lambda: FaultEngine(()))
