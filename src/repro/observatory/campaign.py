"""The standard observatory recording behind ``crossover top``.

The recorder runs the four case-study systems (Table 4's optimized
columns) plus the bursty adaptive switchless campaign cell through the
parallel runner, with a telemetry session and an observatory installed
— each cell records into its own spawned observatory and the parent
absorbs the payloads in spec order, so the resulting
``crossover-observatory/v1`` artifact is **byte-identical at any pool
worker count** (nothing host-side is recorded: no wall-clock, no PIDs,
no worker count).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import observatory as _observatory
from repro import telemetry
from repro.observatory import slo as _slo
from repro.observatory.store import crosscheck

#: The standard recording: the paper's four case-study systems (their
#: optimized world-call columns) plus the PR7 bursty adaptive campaign
#: cell, whose mid-run policy flip exercises the event timeline.
RECORD_SYSTEMS = ("Proxos", "HyperShell", "Tahoma", "ShadowContext")
RECORD_SEED = 11

SCHEMA = "crossover-observatory/v1"

#: The artifact's (and the recording session's) label.
LABEL = "observatory"


def _record_specs(iterations: int, demo: bool = False):
    specs: List[Any] = []
    systems = RECORD_SYSTEMS[:1] if demo else RECORD_SYSTEMS
    for name in systems:
        specs.append(("table4", (name, True, iterations)))
    specs.append(("switchlesscell", ("bursty", "adaptive", RECORD_SEED, 2)))
    return specs


def record(window_cycles: int = _observatory.DEFAULT_WINDOW_CYCLES,
           workers: Optional[int] = 1, iterations: int = 2,
           demo: bool = False,
           objectives: Optional[List[Any]] = None) -> Dict[str, Any]:
    """Run the standard recording and build the artifact dict."""
    from repro.analysis import parallel
    from repro.core import convention, fastpath
    from repro.switchless import campaign  # noqa: F401 (registers
    #                                        the switchlesscell runner)

    # Same determinism discipline as the bench harness: warm the calling
    # convention cache from a known-empty state, fast path on.
    convention.clear_caches()
    session = telemetry.TelemetrySession.lightweight(LABEL)
    config = _observatory.ObservatoryConfig(window_cycles=window_cycles)
    with fastpath.scoped(True):
        telemetry.install(session)
        try:
            with _observatory.scoped(label=LABEL, config=config) as obs:
                parallel.run_cells(_record_specs(iterations, demo),
                                   workers=workers)
        finally:
            telemetry.uninstall()
    return build_artifact(obs, objectives or [])


def _all_windows(artifact: Dict[str, Any]) -> List[Dict[str, Any]]:
    windows: List[Dict[str, Any]] = []
    for cell in artifact["cells"]:
        windows.extend(cell.get("windows", []))
    return windows


def build_artifact(obs: "_observatory.Observatory",
                   objectives: List[Any]) -> Dict[str, Any]:
    """The ``crossover-observatory/v1`` artifact for one recording.

    Only the per-cell payloads go in (each cell has its own zero-based
    clock); the parent observatory is pure absorber, so its own windows
    — which would double-count the merged registries — are dropped.
    """
    cells = [dict(cell) for cell in obs.cells]
    for cell in cells:
        # The parent-side absorber adds nothing per-cell beyond spec
        # identity; config rides at top level once.
        cell.pop("config", None)
        cell.pop("label", None)
    artifact: Dict[str, Any] = {
        "schema": SCHEMA,
        "label": obs.label,
        "window_cycles": obs.config.window_cycles,
        "cells": cells,
        "summary": {
            "cells": len(cells),
            "windows": sum(len(c.get("windows", [])) for c in cells),
            "events": sum(len(c.get("events", [])) for c in cells),
            "crosscheck_ok": all(
                (c.get("crosscheck") or {}).get("ok", False)
                for c in cells) if cells else True,
        },
    }
    evaluate(artifact, objectives)
    return artifact


def evaluate(artifact: Dict[str, Any], objectives: List[Any]) -> None:
    """(Re-)evaluate SLO objectives over every cell's windows."""
    artifact["slo"] = _slo.evaluate_slos(objectives, _all_windows(artifact))
    artifact["summary"]["alerts_fired"] = artifact["slo"]["alerts_fired"]


def recheck(artifact: Dict[str, Any]) -> List[str]:
    """Recompute every cell's conservation crosscheck from its windows
    and totals — a loaded artifact's stored verdict is never trusted —
    and return one line per mismatch (empty when conserved)."""
    problems: List[str] = []
    for cell in artifact["cells"]:
        cell["crosscheck"] = crosscheck(cell)
        for miss in cell["crosscheck"]["mismatches"]:
            problems.append(
                f"crosscheck mismatch in {cell['runner']}"
                f"{tuple(cell['args'])}: {miss['counter']} windows sum "
                f"to {miss['windows_sum']}, flat total is {miss['flat']}")
    artifact["summary"]["crosscheck_ok"] = not problems
    return problems
