"""End-to-end tests for ``crossover top``."""

import json

import pytest

from repro.cli import main
from repro.observatory import campaign


@pytest.fixture
def demo_artifact(tmp_path):
    """One small recording, written to disk and returned as a dict."""
    out = tmp_path / "obs.json"
    code = main(["top", "--demo", "--iterations", "1", "--quiet",
                     "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        return out, json.load(fh)


class TestRecord:
    def test_demo_artifact_shape(self, demo_artifact):
        _, artifact = demo_artifact
        assert artifact["schema"] == campaign.SCHEMA
        assert artifact["summary"]["crosscheck_ok"]
        runners = [cell["runner"] for cell in artifact["cells"]]
        assert runners == ["table4", "switchlesscell"]
        for cell in artifact["cells"]:
            assert cell["windows"], "every cell must record activity"
            assert cell["crosscheck"]["ok"]
            # No host-side data leaks into the artifact.
            assert "config" not in cell and "label" not in cell

    def test_bursty_cell_carries_the_flip_event(self, demo_artifact):
        _, artifact = demo_artifact
        cell = next(c for c in artifact["cells"]
                    if c["runner"] == "switchlesscell")
        flips = [e for e in cell["events"]
                 if e["kind"] == "switchless.flip"]
        assert flips
        for flip in flips:
            assert flip["window"] == \
                flip["cycles"] // artifact["window_cycles"]

    def test_artifact_is_schema_valid(self, demo_artifact):
        _, artifact = demo_artifact
        from repro.telemetry.schema import load_schema, validate
        assert validate(artifact, load_schema("observatory")) == []


class TestLoadAndGate:
    def test_load_renders_and_exits_zero(self, demo_artifact, capsys):
        path, _ = demo_artifact
        assert main(["top", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "crosscheck ok" in out

    def test_passing_slo_report_only(self, demo_artifact):
        path, _ = demo_artifact
        assert main(["top", "--load", str(path), "--quiet", "--slo",
                         "world_call.cycles.p99 < 100000"]) == 0

    def test_tripping_slo_is_report_only_by_default(self, demo_artifact):
        path, _ = demo_artifact
        assert main(["top", "--load", str(path), "--quiet", "--slo",
                         "world_call.cycles.p99 < 1"]) == 0

    def test_tripping_slo_under_strict_exits_one(self, demo_artifact):
        path, _ = demo_artifact
        assert main(["top", "--load", str(path), "--quiet", "--strict",
                         "--slo", "world_call.cycles.p99 < 1"]) == 1

    def test_tampered_artifact_fails_crosscheck_with_exit_3(
            self, demo_artifact, tmp_path, capsys):
        path, artifact = demo_artifact
        cell = artifact["cells"][0]
        counter = next(iter(cell["totals"]))
        cell["totals"][counter] += 7
        cell["crosscheck"] = __import__(
            "repro.observatory.store", fromlist=["crosscheck"]
        ).crosscheck(cell)
        artifact["summary"]["crosscheck_ok"] = False
        tampered = tmp_path / "tampered.json"
        with open(tampered, "w") as fh:
            json.dump(artifact, fh)
        assert main(["top", "--load", str(tampered), "--quiet"]) == 3
        assert "crosscheck mismatch" in capsys.readouterr().err

    def test_tampered_total_alone_fails_crosscheck_with_exit_3(
            self, demo_artifact, tmp_path, capsys):
        """The stored crosscheck verdict and summary flag are left
        saying ok: --load must recompute them from the windows."""
        path, artifact = demo_artifact
        cell = artifact["cells"][0]
        counter = next(iter(cell["totals"]))
        cell["totals"][counter] += 7
        assert cell["crosscheck"]["ok"]
        assert artifact["summary"]["crosscheck_ok"]
        tampered = tmp_path / "tampered-total.json"
        with open(tampered, "w") as fh:
            json.dump(artifact, fh)
        assert main(["top", "--load", str(tampered), "--quiet"]) == 3
        assert f"crosscheck mismatch in {cell['runner']}" \
            in capsys.readouterr().err

    def test_exports_html_and_openmetrics(self, demo_artifact, tmp_path):
        path, _ = demo_artifact
        html = tmp_path / "dash.html"
        om = tmp_path / "totals.om"
        assert main(["top", "--load", str(path), "--quiet",
                         "--html", str(html),
                         "--openmetrics", str(om)]) == 0
        assert "<svg" in html.read_text()
        text = om.read_text()
        assert text.endswith("# EOF\n")
        # Totals carry the registry counters (the crosscheck domain).
        assert "core_world_calls_total" in text


class TestUsage:
    def test_nothing_to_do_is_usage_error(self, capsys):
        assert main(["top"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_bad_slo_is_usage_error(self, capsys):
        assert main(["top", "--demo", "--slo", "nonsense"]) == 2

    def test_bad_window_is_usage_error(self):
        assert main(["top", "--demo", "--window", "0"]) == 2

    def test_bad_workers_is_usage_error(self):
        assert main(["top", "--demo", "--workers", "0"]) == 2
