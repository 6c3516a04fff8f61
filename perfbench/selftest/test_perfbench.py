"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/selftest -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from digest import digest, load_reference  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------


def test_names_are_well_formed_and_unique():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.per_layer_metrics()


def test_every_workload_reports_every_end_to_end_metric():
    # Rounds shaped as each workload's ``round`` returns them; the
    # runner adds ``setup_s`` and ``peak_rss_mb`` itself.
    rounds = {
        "paper_tables": {"tables_s": 4.5, "paper_err_pct": 6.5},
        "crossvm_call": {"ns": dict.fromkeys(workloads.OPS, 4e4),
                         "probe_s": dict.fromkeys(workloads.OPS, 1.3e-3)},
        "fleet_2k": {"completed": 1000, "replay_s": 0.5},
    }
    for name, cls in workloads.WORKLOADS.items():
        values = cls(1, load_reference()).end_to_end([rounds[name]] * 3)
        assert set(values) | {"setup_s", "peak_rss_mb"} == set(run.UNITS)
        assert all(v > 0 for v in values.values())


def test_predictions_cite_declared_names():
    spec = _benchmark_json()
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    with open(os.path.join(BENCH, "predictions.json")) as handle:
        predictions = json.load(handle)["predictions"]
    for name, entry in predictions.items():
        assert name in per_layer or f"{name}.calls" in per_layer, name
        for metric, workload in entry.get("moves", []) + entry.get("flat",
                                                                   []):
            assert metric in end_to_end, (name, metric)
            assert workload in workloads.WORKLOADS, (name, workload)


# ---------------------------------------------------------------------------
# correctness checks catch a wrong reference
# ---------------------------------------------------------------------------


def test_crossvm_round_matches_reference_and_catches_perturbation():
    reference = load_reference()
    good = workloads.CrossVMCall(3, reference)
    good.setup()
    assert good.round()["failed"] == 0

    bad_ref = copy.deepcopy(reference)
    bad_ref["crossvm_call"]["null"]["cycles"] += 1
    bad_ref["crossvm_call"]["bulk"]["cycles"][0] += 1
    bad = workloads.CrossVMCall(3, bad_ref)
    bad.setup()
    result = bad.round()
    assert result["failed"] >= workloads.CrossVMCall.BATCH
    assert result["failed"] / result["attempted"] > 0


def test_table_rows_catch_a_perturbed_digest():
    from repro.analysis import experiments

    # Digested here rather than taken from reference.json: this process
    # has built other machines, and Table 7 depends on process history
    # (see the PaperTables comment).
    rows = workloads.table_rows("table7", experiments.run_table7())
    reference = {key: digest(row) for key, row in rows.items()}
    assert workloads.check_rows(rows, reference) == 0
    key = sorted(reference)[0]
    perturbed = dict(reference, **{key: digest("something else")})
    assert workloads.check_rows(rows, perturbed) == 1


def test_fleet_cells_catch_a_perturbed_digest_and_broken_invariants():
    cell = {"requests": 10, "completed": 10, "latency": {"p50": 1},
            "calls": {"hot": 1}, "revocations": 0, "hv": {}, "sched_events": 3}
    cells = {"baseline": cell, "world_call": dict(cell)}
    expected = {m: digest(c) for m, c in cells.items()}
    assert workloads.check_cells(cells, expected) == 0
    assert workloads.check_cells(cells, dict(expected, baseline="0")) == 1
    undrained = dict(cells, world_call=dict(cell, completed=9))
    assert workloads.check_cells(undrained, None) >= 1


def test_unmeasured_ratios_are_none():
    from collections import Counter

    empty = (Counter(), Counter())
    values = layers.modeled_metrics(empty, empty, 0)
    assert all(v is None for v in values.values())


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_span_self_times_are_nonnegative_and_fit_in_wall_time():
    harness = workloads.CrossVMHarness()
    tracer = Tracer()
    tracer.install(layers.SPANS)
    try:
        t0 = time.perf_counter()
        harness.null(50)
        harness.trap(50)
        harness.bulk([bytes(300)] * 20)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert stats["core.crossvm_call"].calls == 120
    assert all(s.self_s >= 0 for s in stats.values())
    assert tracer.self_time_total() <= wall
    for name, start, end, parent in tracer.spans:
        assert end >= start
        assert parent < len(tracer.spans)


def test_name_imported_functions_are_wrapped_and_restored():
    from repro.analysis import experiments
    from repro.workloads import utilities

    original = utilities.run_utility
    assert experiments.run_utility is original
    tracer = Tracer()
    tracer.install(layers.SPANS)
    try:
        assert experiments.run_utility is not original
        assert experiments.run_utility is utilities.run_utility
    finally:
        tracer.uninstall()
    assert experiments.run_utility is original
    assert utilities.run_utility is original


# ---------------------------------------------------------------------------
# the runner refuses to run without the simulator
# ---------------------------------------------------------------------------


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossvm_call",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
