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

import contextlib
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import hooks
from repro.analysis import experiments

#: A unit of work: (runner name in CELL_RUNNERS, positional args).
CellSpec = Tuple[str, tuple]


@dataclass
class CellResult:
    """One executed cell: its spec, value, and host-side timing.

    ``payloads`` maps each installed subscriber's kind to what the
    cell's spawned subscriber harvested (see :mod:`repro.hooks`) — the
    same plain data whether the cell ran in-process or in a worker, so
    the parent merges every cell the same way.
    """

    runner: str
    args: tuple
    value: Any
    wall_seconds: float
    worker_pid: int
    payloads: Dict[str, Any] = field(default_factory=dict, repr=False)


def default_workers() -> int:
    """Worker count: one per usable CPU (affinity-aware), at least 1."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        usable = os.cpu_count() or 1
    return max(1, usable)


def _execute_cell(spec: CellSpec) -> CellResult:
    """Run one cell (in whatever process this lands in).

    Every installed subscriber (inherited across ``fork`` in pool
    workers) spawns the cell its own subscriber, installed in
    :data:`repro.hooks.ORDER` — so each one's baseline is the cell's
    fresh state — and harvested in reverse order while the others are
    still installed.  The cell's observable outcome then depends only
    on its own modeled activity: identical at any worker count.
    """
    runner, args = spec
    if runner not in experiments.CELL_RUNNERS and runner.startswith("fleet"):
        # Fleet cells register lazily (the fleet package is not on the
        # default import path of the experiment tables).
        import repro.fleet.campaign  # noqa: F401  (registers)
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        spawned = []
        for kind, parent in hooks.installed():
            child = stack.enter_context(
                hooks.scoped(kind, parent.spawn(runner, args)))
            spawned.append((kind, child))
        value = experiments.CELL_RUNNERS[runner](*args)
        payloads = {}
        for kind, child in reversed(spawned):
            payload = child.harvest()
            if payload is not None:
                payloads[kind] = payload
    return CellResult(runner=runner, args=args, value=value,
                      wall_seconds=time.perf_counter() - t0,
                      worker_pid=os.getpid(), payloads=payloads)


def run_cells(specs: List[CellSpec], workers: Optional[int] = None
              ) -> List[CellResult]:
    """Execute cells, in parallel when it can help.

    Results come back in spec order regardless of completion order, and
    each installed subscriber absorbs the cells' payloads in that order,
    so the merge sees the sequence the serial runners produce.  A
    subscriber that cannot be merged (``in_process``) keeps every cell
    in this process.
    """
    parents = hooks.installed()
    if any(parent.in_process for _, parent in parents):
        workers = 1
    cells = _run_cells_raw(specs, workers)
    own_pid = os.getpid()
    for kind, parent in parents:
        for cell in cells:
            payload = cell.payloads.get(kind)
            if payload is not None:
                parent.absorb(payload, cell.runner, cell.args,
                              cell.worker_pid if cell.worker_pid != own_pid
                              else None)
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
    for kind, parent in hooks.installed():
        summary = parent.summarize([(c.runner, c.args, c.payloads.get(kind))
                                    for c in cells])
        if summary is not None:
            sweep[kind] = summary
    return sweep
