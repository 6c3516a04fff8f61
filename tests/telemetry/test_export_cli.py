"""Exporters, schema self-validation, and ``crossover trace``."""

import json
import os

import pytest

from repro import telemetry
from repro.analysis import experiments
from repro.cli import main
from repro.telemetry import export, schema, workload


@pytest.fixture(scope="module")
def proxos_run():
    """One traced Proxos-original run shared by the export tests."""
    return workload.trace_system("Proxos", optimized=False, calls=2)


class TestChromeTrace:
    def test_round_trips_through_json(self, proxos_run):
        session, _ = proxos_run
        doc = export.chrome_trace(session)
        assert json.loads(json.dumps(doc)) == doc

    def test_event_shapes(self, proxos_run):
        session, _ = proxos_run
        doc = export.chrome_trace(session)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        completes = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any("modeled_cycles" in e["args"] for e in completes)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)
        assert all(e["ts"] >= 0 for e in completes + instants)
        errors = schema.validate(doc, schema.load_schema("chrome_trace"))
        assert errors == []

    def test_matrix_rows_cover_trace(self, proxos_run):
        session, _ = proxos_run
        rows = export.crossing_matrix(session)
        assert rows == sorted(rows)
        family = session.metrics.family("trace.matrix").values()
        assert sum(c for _, _, _, c in rows) \
            == sum(counter.value for counter in family)
        assert "total boundary events" in export.crossing_matrix_text(session)

    def test_metrics_snapshot_schema(self, proxos_run):
        session, _ = proxos_run
        snap = export.metrics_snapshot(session)
        assert schema.validate(snap, schema.load_schema("metrics")) == []


class TestSchemaValidator:
    def test_rejects_wrong_types(self):
        errors = schema.validate({"label": 3}, schema.load_schema("metrics"))
        assert any("label" in e for e in errors)
        assert any("missing required" in e for e in errors)

    def test_enum_and_minimum(self):
        s = {"type": "object",
             "properties": {"ph": {"enum": ["X"]},
                            "n": {"type": "integer", "minimum": 0}}}
        assert schema.validate({"ph": "X", "n": 0}, s) == []
        errors = schema.validate({"ph": "q", "n": -1}, s)
        assert len(errors) == 2

    def test_schema_cli(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"label": "x", "counters": {},
                                    "gauges": {}, "histograms": {}}))
        assert schema.main(["metrics", str(path)]) == 0
        path.write_text(json.dumps({"label": "x"}))
        assert schema.main(["metrics", str(path)]) == 1


class TestCli:
    def test_quick_mode_validates_itself(self, tmp_path, capsys):
        rc = main(["trace", "--quick", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all artifacts valid" in out
        expected = {"proxos_original.trace.json",
                    "proxos_original.metrics.json",
                    "proxos_original.matrix.txt", "summary.json"}
        assert expected <= set(os.listdir(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert schema.validate(summary,
                               schema.load_schema("summary")) == []
        row = summary["systems"][0]
        assert row["span_crossings_consistent"] is True
        assert row["world_call_spans"] == row["calls"]

    def test_crossings_match_figure2(self):
        """Acceptance: the traced crossings per call equal the Figure-2
        measurement for Proxos and HyperShell."""
        figure2 = experiments.run_figure2()
        for name in ("Proxos", "HyperShell"):
            _, row = workload.trace_system(name, optimized=False, calls=2)
            assert row["crossings_per_call"] == figure2[name]["crossings"]
            assert row["span_crossings_consistent"] is True
            assert row["paper_crossings"] \
                == figure2[name]["paper_crossings"]

    def test_quick_mode_fails_on_crosscheck_mismatch(self, tmp_path,
                                                     capsys, monkeypatch):
        """Acceptance: any span-vs-trace-vs-paper disagreement makes the
        CLI exit nonzero.  Forcing the paper's Figure-2 count above what
        the simulator can ever record trips the paper-bound check."""
        from repro.analysis import calibration

        monkeypatch.setitem(calibration.FIGURE2_CROSSINGS, "Proxos", 999)
        rc = main(["trace", "--quick", "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "cross-check failed" in captured.err

    def test_profile_flag_prints_hotspots(self, tmp_path, capsys):
        rc = main(["trace", "--quick", "--profile", "--hotspots", "3",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Top 3 stacks by modeled cycles" in out
        assert (tmp_path / "proxos_original.stacks.collapsed").exists()
        assert (tmp_path / "proxos_original.speedscope.json").exists()

    def test_optimized_variant_crosses_less(self):
        _, orig = workload.trace_system("ShadowContext", optimized=False,
                                   calls=1)
        _, opt = workload.trace_system("ShadowContext", optimized=True,
                                  calls=1)
        assert opt["crossings_per_call"] < orig["crossings_per_call"]

    def test_no_session_leaks(self):
        assert not telemetry.enabled()
