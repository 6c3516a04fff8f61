"""Parallel experiment runner: fan table cells over worker processes.

Every table runner in :mod:`repro.analysis.experiments` is decomposed
into independent *cells* — ``(runner_name, args)`` pairs resolved
through :data:`~repro.analysis.experiments.CELL_RUNNERS`.  Each cell
builds its own fresh machines, so cells share no state and the fan-out
cannot change simulated numbers: the serial runners execute literally
the same cell functions in the same per-cell order.

On multi-core hosts the sweep distributes over a ``multiprocessing``
pool; on single-CPU hosts (or when ``workers=1``, or when no pool can
be created) it falls back to in-process serial execution.  Either way
each cell's host wall-clock is recorded for the BENCH artifacts.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import observatory as _observatory
from repro import switchless as _switchless
from repro import telemetry
from repro.analysis import experiments

#: A unit of work: (runner name in CELL_RUNNERS, positional args).
CellSpec = Tuple[str, tuple]


@dataclass
class CellResult:
    """One executed cell: its spec, value, and host-side timing.

    When the sweep runs under a telemetry session, ``telemetry`` carries
    the cell's own session (spans + metrics) in plain-dict form — the
    same shape whether the cell ran in-process or in a worker — so the
    parent can merge every cell's observability into one trace.
    """

    runner: str
    args: tuple
    value: Any
    wall_seconds: float
    worker_pid: int
    telemetry: Optional[Dict[str, Any]] = field(default=None, repr=False)
    switchless: Optional[Dict[str, int]] = field(default=None, repr=False)
    observatory: Optional[Dict[str, Any]] = field(default=None, repr=False)


def default_workers() -> int:
    """Worker count: one per usable CPU (affinity-aware), at least 1."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        usable = os.cpu_count() or 1
    return max(1, usable)


def _execute_cell(spec: CellSpec) -> CellResult:
    """Run one cell (in whatever process this lands in).

    If a telemetry session is installed (inherited across ``fork`` in
    pool workers), the cell runs under its *own* scoped session wrapped
    in one ``cell:`` span, and ships that session back serialized — the
    in-process and pooled paths produce the same merged telemetry.
    """
    runner, args = spec
    cell_telemetry: Optional[Dict[str, Any]] = None
    cell_switchless: Optional[Dict[str, int]] = None
    cell_observatory: Optional[Dict[str, Any]] = None

    # With an observatory installed, the cell records into its own
    # spawned (same-config, zero-clock) observatory — scoped INSIDE the
    # cell's telemetry session so the window baseline is the fresh
    # session's zeros and the cell's windows depend only on its own
    # modeled activity.  The payload ships back like the telemetry dict
    # and the parent absorbs them in spec order: byte-identical at any
    # worker count.
    def _invoke() -> Any:
        nonlocal cell_observatory
        if runner not in experiments.CELL_RUNNERS and \
                runner.startswith("fleet"):
            # Fleet cells register lazily (the fleet package is not on
            # the default import path of the experiment tables).
            import repro.fleet.campaign  # noqa: F401  (registers)
        parent_obs = _observatory.current()
        if parent_obs is None:
            return experiments.CELL_RUNNERS[runner](*args)
        with _observatory.scoped(parent_obs.spawn()) as obs:
            value = experiments.CELL_RUNNERS[runner](*args)
        cell_observatory = obs.to_dict()
        return value

    t0 = time.perf_counter()
    # With a switchless engine installed, every cell gets a clone (same
    # config, fresh counters/policy/rings) that sees only the cell's own
    # call stream, so flips and tuner moves — and the spec-order merge
    # of the counters — are identical at any worker count.
    if _switchless.enabled():
        installed_sl = _switchless.current()
        assert installed_sl is not None
        sl_ctx = _switchless.scoped(installed_sl.clone())
    else:
        sl_ctx = None
    sl_engine = sl_ctx.__enter__() if sl_ctx is not None else None
    try:
        if telemetry.enabled():
            with telemetry.scoped(f"cell:{runner}") as session:
                with session.tracer.span(f"cell:{runner}", category="cell",
                                         runner=runner, args=repr(args)):
                    value = _invoke()
            cell_telemetry = session.to_dict()
        else:
            value = _invoke()
    finally:
        if sl_ctx is not None:
            cell_switchless = sl_engine.stats.to_dict()
            sl_ctx.__exit__(None, None, None)
    return CellResult(runner=runner, args=args, value=value,
                      wall_seconds=time.perf_counter() - t0,
                      worker_pid=os.getpid(), telemetry=cell_telemetry,
                      switchless=cell_switchless,
                      observatory=cell_observatory)


def _merge_cell_telemetry(cells: List[CellResult]) -> None:
    """Absorb each cell's shipped-back session into the parent session
    (per-worker span trees keep their worker pid in the Chrome export)."""
    session = telemetry.current()
    if session is None:
        return
    own_pid = os.getpid()
    for cell in cells:
        if cell.telemetry is None:
            continue
        session.absorb(cell.telemetry,
                       pid=cell.worker_pid if cell.worker_pid != own_pid
                       else None)


def _merge_cell_switchless(cells: List[CellResult]) -> None:
    """Fold each cell's switchless counters into the parent engine.

    Cells are visited in spec order and addition is the only combine
    step, so the merged totals are byte-identical at any worker count.
    A parent telemetry session absorbs the same harvest as
    ``switchless.*`` counters.
    """
    engine = _switchless.current()
    if engine is None:
        return
    session = telemetry.current()
    for cell in cells:
        if cell.switchless is not None:
            engine.stats.merge(cell.switchless)
            if session is not None:
                session.on_switchless_stats(cell.switchless)


def _merge_cell_observatory(cells: List[CellResult]) -> None:
    """Hand each cell's windowed payload to the parent observatory.

    Cells are absorbed in spec order and kept per-cell (each cell has
    its own zero-based clock), so the parent's ``cells`` list — and
    any artifact built from it — is byte-identical at any worker count.
    """
    parent = _observatory.current()
    if parent is None:
        return
    for cell in cells:
        if cell.observatory is not None:
            parent.absorb_cell(cell.observatory, cell.runner, cell.args)


def run_cells(specs: List[CellSpec], workers: Optional[int] = None
              ) -> List[CellResult]:
    """Execute cells, in parallel when it can help.

    Results come back in spec order regardless of completion order, so
    merge functions see the same sequence the serial runners produce.
    """
    cells = _run_cells_raw(specs, workers)
    _merge_cell_telemetry(cells)
    _merge_cell_switchless(cells)
    _merge_cell_observatory(cells)
    return cells


def _run_cells_raw(specs: List[CellSpec], workers: Optional[int]
                   ) -> List[CellResult]:
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(specs) <= 1:
        return [_execute_cell(spec) for spec in specs]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return [_execute_cell(spec) for spec in specs]
    try:
        with ctx.Pool(processes=min(workers, len(specs))) as pool:
            return pool.map(_execute_cell, specs)
    except OSError:  # pragma: no cover - pool creation denied
        return [_execute_cell(spec) for spec in specs]


def _run_table(table: str, specs: List[CellSpec],
               workers: Optional[int]) -> Tuple[Any, List[CellResult]]:
    _, merge = experiments.TABLE_PLANS[table]
    cells = run_cells(specs, workers)
    merged = merge([(c.args, c.value) for c in cells])
    return merged, cells


def run_table4(iterations: int = 5, workers: Optional[int] = None
               ) -> Dict[str, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table4`."""
    merged, _ = _run_table("table4",
                           experiments.table4_specs(iterations), workers)
    return merged


def run_table5(workers: Optional[int] = None) -> Dict[str, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table5`."""
    merged, _ = _run_table("table5", experiments.table5_specs(), workers)
    return merged


def run_table6(sizes_mb: Tuple[int, ...] = (128, 256, 512, 1024),
               workers: Optional[int] = None) -> Dict[int, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table6`."""
    merged, _ = _run_table("table6",
                           experiments.table6_specs(sizes_mb), workers)
    return merged


def run_table7(iterations: int = 5, workers: Optional[int] = None
               ) -> Dict[str, Dict[str, Any]]:
    """Parallel :func:`~repro.analysis.experiments.run_table7`."""
    merged, _ = _run_table("table7",
                           experiments.table7_specs(iterations), workers)
    return merged


def run_sweep(tables: Tuple[str, ...] = ("table4", "table5", "table6",
                                         "table7"),
              workers: Optional[int] = None) -> Dict[str, Any]:
    """Run several tables as one flat cell pool (best load balance).

    Returns ``{"results": {table: merged}, "cells": [...timings...],
    "wall_seconds": total}``.
    """
    flat: List[CellSpec] = []
    owners: List[str] = []
    for table in tables:
        make_specs, _ = experiments.TABLE_PLANS[table]
        specs = make_specs()
        flat.extend(specs)
        # Remember which plan contributed each cell: plan names and
        # cell-runner names can differ (the "mechanisms" plan fans out
        # "mechanism" cells).
        owners.extend([table] * len(specs))
    t0 = time.perf_counter()
    cells = run_cells(flat, workers)
    total = time.perf_counter() - t0
    results: Dict[str, Any] = {}
    for table in tables:
        _, merge = experiments.TABLE_PLANS[table]
        own = [(c.args, c.value)
               for c, owner in zip(cells, owners) if owner == table]
        results[table] = merge(own)
    sweep: Dict[str, Any] = {
        "results": results,
        "cells": [{"runner": c.runner, "args": list(c.args),
                   "wall_seconds": round(c.wall_seconds, 4),
                   "worker_pid": c.worker_pid} for c in cells],
        "wall_seconds": total,
    }
    if _switchless.enabled():
        installed_sl = _switchless.current()
        assert installed_sl is not None
        merged_sl = _switchless.SwitchlessStats()
        per_cell_sl = []
        for c in cells:
            stats = c.switchless or \
                {name: 0 for name in _switchless.STAT_FIELDS}
            merged_sl.merge(stats)
            per_cell_sl.append({"runner": c.runner, "args": list(c.args),
                                "stats": stats})
        sweep["switchless"] = {"totals": merged_sl.to_dict(),
                               "tuning": installed_sl.tuning(),
                               "cells": per_cell_sl}
    if _observatory.enabled():
        parent = _observatory.current()
        assert parent is not None
        sweep["observatory"] = {
            "window_cycles": parent.config.window_cycles,
            "cells": [{"runner": cell["runner"], "args": cell["args"],
                       "windows": len(cell.get("windows", [])),
                       "events": len(cell.get("events", []))}
                      for cell in parent.cells],
        }
    return sweep
