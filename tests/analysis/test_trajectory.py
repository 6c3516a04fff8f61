"""The perf-trajectory ledger and its regression gate."""

import json

import pytest

from repro.analysis import trajectory
from repro.telemetry import schema


def _bench(wall=2.0, samples=None, **extra):
    run = {"wall_seconds": wall}
    if samples is not None:
        run["samples"] = samples
    artifact = {
        "host": {"cpus": 1, "python": "3.11.0"},
        "tables": ["table4"],
        "equivalent": True,
        "runs": {"sweep": run},
    }
    artifact.update(extra)
    return artifact


class TestExtractSeries:
    def test_best_of_samples(self):
        series = trajectory.extract_series(
            _bench(wall=2.0, samples=[2.4, 1.9, 2.1]))
        point = series["runs.sweep.wall_seconds"]
        assert point["value"] == 1.9
        assert point["samples"] == [2.4, 1.9, 2.1]
        assert point["direction"] == "lower"

    def test_scalar_directions(self):
        series = trajectory.extract_series(
            _bench(speedup_best=2.5, overhead_enabled_percent=12.0))
        assert series["speedup_best"]["direction"] == "higher"
        assert series["overhead_enabled_percent"]["direction"] == "lower"

    def test_observatory_artifact_extracts(self):
        artifact = {
            "schema": "crossover-observatory/v1",
            "summary": {"windows": 9, "events": 4, "cells": 5,
                        "crosscheck_ok": True, "alerts_fired": 0},
            "slo": {"alerts_fired": 2, "objectives": [], "violated": []},
            "cells": [{"windows": [
                {"histograms": {"world_call.cycles": {
                    "count": 3, "sum": 900, "p99": 450.0}}},
                {"histograms": {"world_call.cycles": {
                    "count": 1, "sum": 700, "p99": 700.0}}},
            ]}],
        }
        series = trajectory.extract_series(artifact)
        assert series["observatory.windows"]["value"] == 9
        assert series["observatory.windows"]["direction"] == "higher"
        assert series["observatory.slo.alerts_fired"] == {
            "value": 2, "samples": [2], "direction": "lower"}
        assert series["observatory.world_call.p99_worst"]["value"] == 700.0

    def test_checked_in_artifacts_extract(self):
        for name in ("BENCH_PR1.json", "BENCH_PR2.json"):
            with open(name) as fh:
                series = trajectory.extract_series(json.load(fh))
            assert series, name
            assert all({"value", "samples", "direction"} <= set(p)
                       for p in series.values())


class TestLedger:
    def test_record_and_replace(self, tmp_path):
        path = str(tmp_path / "TRAJ.json")
        ledger = trajectory.load_trajectory(path)
        trajectory.record(ledger, trajectory.make_entry(
            _bench(wall=2.0), "PR1", "a.json"))
        trajectory.record(ledger, trajectory.make_entry(
            _bench(wall=1.5), "PR2", "b.json"))
        trajectory.record(ledger, trajectory.make_entry(
            _bench(wall=1.4), "PR2", "b2.json"))  # replaces, keeps order
        trajectory.save_trajectory(ledger, path)

        reloaded = trajectory.load_trajectory(path)
        assert [e["label"] for e in reloaded["entries"]] == ["PR1", "PR2"]
        assert reloaded["entries"][1]["source"] == "b2.json"
        assert trajectory.find_entry(reloaded, None)["label"] == "PR2"
        assert trajectory.find_entry(reloaded, "PR1")["label"] == "PR1"
        assert trajectory.find_entry(reloaded, "nope") is None
        assert schema.validate(reloaded,
                               schema.load_schema("trajectory")) == []

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9", "entries": []}))
        with pytest.raises(ValueError):
            trajectory.load_trajectory(str(path))


class TestCompare:
    def test_verdicts_respect_direction(self):
        base = trajectory.extract_series(
            _bench(wall=2.0, speedup_best=2.0))
        worse = trajectory.extract_series(
            _bench(wall=2.5, speedup_best=1.5))
        rows = {r["series"]: r for r in
                trajectory.compare(base, worse, threshold=0.10)}
        assert rows["runs.sweep.wall_seconds"]["verdict"] == "regressed"
        assert rows["speedup_best"]["verdict"] == "regressed"

        better = trajectory.extract_series(
            _bench(wall=1.0, speedup_best=3.0))
        rows = {r["series"]: r for r in
                trajectory.compare(base, better, threshold=0.10)}
        assert all(r["verdict"] == "improved" for r in rows.values())

    def test_threshold_absorbs_noise(self):
        base = trajectory.extract_series(_bench(wall=2.0))
        noisy = trajectory.extract_series(_bench(wall=2.1))
        rows = trajectory.compare(base, noisy, threshold=0.10)
        assert rows[0]["verdict"] == "ok"

    def test_only_intersection_compared(self):
        base = trajectory.extract_series(_bench(speedup_best=2.0))
        cur = trajectory.extract_series(_bench(overhead_full_percent=9.0))
        names = {r["series"] for r in trajectory.compare(base, cur)}
        assert names == {"runs.sweep.wall_seconds"}


class TestCli:
    @pytest.fixture()
    def files(self, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_bench(wall=2.0,
                                           samples=[2.2, 2.0, 2.1])))
        slower = tmp_path / "slower.json"
        slower.write_text(json.dumps(_bench(wall=3.0)))
        return str(bench), str(slower), str(tmp_path / "TRAJ.json")

    def test_record_then_compare_ok(self, files, capsys):
        bench, _, ledger = files
        assert trajectory.main(["--record", bench, "--label", "PR1",
                                "--trajectory", ledger]) == 0
        assert trajectory.main(["--compare", bench,
                                "--trajectory", ledger]) == 0
        assert "no regressions" in capsys.readouterr().out
        assert schema.validate(json.load(open(ledger)),
                               schema.load_schema("trajectory")) == []

    def test_regression_report_only_vs_strict(self, files, capsys):
        bench, slower, ledger = files
        trajectory.main(["--record", bench, "--label", "PR1",
                         "--trajectory", ledger])
        # report-only: verdict printed, exit 0 (CI stays green)
        assert trajectory.main(["--compare", slower, "--against", "PR1",
                                "--trajectory", ledger]) == 0
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "report-only" in captured.err
        # strict: same comparison gates with exit 1
        assert trajectory.main(["--compare", slower, "--against", "PR1",
                                "--strict", "--trajectory", ledger]) == 1

    def test_missing_baseline_is_usage_error(self, files):
        bench, _, ledger = files
        assert trajectory.main(["--compare", bench,
                                "--trajectory", ledger]) == 2
        trajectory.main(["--record", bench, "--label", "PR1",
                         "--trajectory", ledger])
        assert trajectory.main(["--compare", bench, "--against", "PR9",
                                "--trajectory", ledger]) == 2

    def test_show(self, files, capsys):
        bench, _, ledger = files
        trajectory.main(["--record", bench, "--label", "PR1",
                         "--trajectory", ledger])
        assert trajectory.main(["--show", "--trajectory", ledger]) == 0
        out = capsys.readouterr().out
        assert "PR1" in out and "runs.sweep.wall_seconds" in out


class TestHistoricalArtifacts:
    """BENCH_PR6 was recorded by a harness that no longer exists; the
    bench schema and the ledger must keep reading it."""

    def test_bench_pr6_validates(self, capsys):
        assert schema.main(["bench", "BENCH_PR6.json"]) == 0
        assert "valid bench artifact" in capsys.readouterr().out

    def test_show_prints_pr6_entry(self, capsys):
        assert trajectory.main(["--show",
                                "--trajectory", "TRAJECTORY.json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        column = lines[0].split().index("PR6")
        rows = {line.split()[0]: line.split() for line in lines[2:]}
        assert rows["jit_speedup_serial"][column] == "1.297"
        assert rows["micro_superblock_vs_baseline"][column] == "3.76"
