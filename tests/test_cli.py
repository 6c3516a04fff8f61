"""The ``crossover`` front door: dispatch, aliases, shared checks and
the shared artifact loader."""

import json
import os
import subprocess
import sys

import pytest

from repro import cli

SUBCOMMANDS = ("report", "trace", "bench", "faults", "audit", "switchless",
               "top", "fleet", "xray")

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestDispatch:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main([sub, "--help"])
        assert stop.value.code == 0
        assert f"usage: crossover {sub}" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["nonesuch"])
        assert stop.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_alias_program_name_dispatches(self, sub, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv",
                            [f"/usr/bin/crossover-{sub}", "--help"])
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert stop.value.code == 0
        assert f"usage: crossover {sub}" in capsys.readouterr().out

    def test_python_dash_m_repro(self):
        proc = _python("-m", "repro", "fleet", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage: crossover fleet" in proc.stdout
        assert "--rate-scale" in proc.stdout

    def test_import_repro_leaves_cli_out(self):
        proc = _python("-c", "import sys, repro; "
                             "print('repro.cli' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestSharedChecks:
    @pytest.mark.parametrize("argv", [
        ["faults"], ["audit", "record"], ["switchless"], ["top", "--demo"],
        ["fleet"], ["xray"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, argv, workers, capsys):
        assert cli.main(argv + ["--workers", workers]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_write_artifact_is_sorted_indented_newline_terminated(
            self, tmp_path):
        path = tmp_path / "a.json"
        cli.write_artifact({"b": 1, "a": [2]}, str(path))
        assert path.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


#: (verb argv prefix, the artifact tag the verb expects)
VERBS = {
    "audit verify": (["audit", "verify"], "crossover-audit/v1"),
    "xray --check": (["xray", "--check"], "crossover-xray/v1"),
    "top --load": (["top", "--load"], "crossover-observatory/v1"),
}


class TestLoadArtifact:
    """Malformed outside input ends in an exit status, never a
    traceback: unreadable or non-object -> 2, wrong tag or schema
    failure -> 1 with the kind-specific verifier never reached."""

    @pytest.mark.parametrize("verb", sorted(VERBS))
    @pytest.mark.parametrize("case, expected", [
        ("missing", 2),
        ("not-json", 2),
        ("array", 2),
        ("tag-only", 1),
        ("xray-empty-cell", 1),
        ("wrong-tag", 1),
    ])
    def test_malformed_input(self, verb, case, expected, tmp_path, capsys):
        argv, tag = VERBS[verb]
        path = tmp_path / "artifact.json"
        if case == "not-json":
            path.write_text("{not json")
        elif case != "missing":
            path.write_text(json.dumps({
                "array": [],
                "tag-only": {"schema": tag},
                "xray-empty-cell": {"schema": "crossover-xray/v1",
                                    "cells": {"a": {}}},
                "wrong-tag": {"schema": "something-else"},
            }[case]))
        assert cli.main(argv + [str(path), "--quiet"]) == expected
        err = capsys.readouterr().err
        assert err.startswith(f"crossover {argv[0]}: ")
        if case in ("tag-only",) or (case == "xray-empty-cell"
                                      and argv[0] == "xray"):
            assert "schema violation" in err
