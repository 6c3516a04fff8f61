"""``crossover``: one front door for every reproduction tool.

Usage::

    crossover report [--quick | --section NAME]    # the paper's tables
    crossover trace --quick                        # traced workload
    crossover bench --show                         # perf-trajectory ledger
    crossover faults --seed 42 --ops 6             # fault-injection campaign
    crossover audit record|verify|query|graph      # flight-recorder logs
    crossover switchless                           # switchless campaign
    crossover top --record                         # windowed series, SLOs
    crossover fleet --horizon-ms 20                # sharded fleet sweep
    crossover xray [--check FILE]                  # fleet request tracing

``python -m repro <subcommand>`` is the same program.  The names
``crossover-report`` ... ``crossover-xray`` are aliases: the
subcommand is the program name minus its ``crossover-`` prefix.

The campaign subcommands share one harness: every shared flag is
registered once, :func:`write_artifact` writes every artifact,
:func:`load_artifact` reads every artifact back, and :func:`finish`
validates an artifact against the schema its ``schema`` tag names,
writes it, and maps the outcome to the exit status:

* ``0`` clean;
* ``1`` a claim failed, the artifact fails its schema or its
  kind-specific check, or a ``--strict`` SLO burned;
* ``2`` usage error, an unreadable artifact included;
* ``3`` (``top`` only) a window-conservation crosscheck failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

PREFIX = "crossover-"


class Stop(Exception):
    """Ends a subcommand with an exit status and stderr lines."""

    def __init__(self, status: int, *messages: str) -> None:
        super().__init__(*messages)
        self.status = status
        self.messages = messages


def _csv(value: str) -> List[str]:
    return [item for item in (part.strip() for part in value.split(","))
            if item]


# ---------------------------------------------------------------------------
# the campaign harness
# ---------------------------------------------------------------------------


def write_artifact(artifact: Any, path: str) -> None:
    """Serialize deterministically (sorted keys, indent 2, trailing
    newline)."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(artifact, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _schema_errors(artifact: Dict[str, Any]) -> List[str]:
    """Validate against the schema the ``schema`` tag names
    (``crossover-fleet/v1`` -> ``fleet``)."""
    from repro.telemetry.schema import load_schema, validate

    name = artifact["schema"].split("/")[0][len(PREFIX):]
    return [f"schema violation: {error}"
            for error in validate(artifact, load_schema(name))]


def load_artifact(path: str, tag: str) -> Dict[str, Any]:
    """Read a ``tag`` artifact back for a kind-specific verb.

    Raises :class:`Stop` with status ``2`` for an unreadable file or a
    non-object, ``1`` for a wrong tag or a schema failure, so the
    kind-specific verifier only ever sees a schema-valid artifact.
    """
    try:
        with open(path, encoding="utf-8") as stream:
            artifact = json.load(stream)
    except (OSError, ValueError) as error:
        raise Stop(2, f"cannot read {path}: {error}")
    if not isinstance(artifact, dict):
        raise Stop(2, f"{path}: not a JSON object")
    if artifact.get("schema") != tag:
        raise Stop(1, f"{path}: not a {tag} artifact")
    errors = _schema_errors(artifact)
    if errors:
        raise Stop(1, *errors)
    return artifact


def _warn(args: argparse.Namespace, message: str) -> None:
    print(f"crossover {args.command}: {message}", file=sys.stderr)


def _say(args: argparse.Namespace, text: str, end: str = "\n") -> None:
    if not getattr(args, "quiet", False):
        print(text, end=end)


def finish(args: argparse.Namespace, artifact: Dict[str, Any],
           failures: Sequence[str] = (), check=None,
           burned: str = "") -> int:
    """Validate, write ``--out``, report, and map to an exit status.

    ``failures`` are failed claims; ``check`` is the kind-specific
    verifier, run on a schema-valid artifact only; ``burned`` names a
    violated SLO, which fails the run under ``--strict`` only.
    """
    errors = _schema_errors(artifact)
    if not errors and check is not None:
        errors = check(artifact)
    for error in errors:
        _warn(args, error)
    if args.out:
        write_artifact(artifact, args.out)
        _say(args, f"wrote {args.out}")
    for failure in failures:
        _warn(args, failure)
    if burned:
        _warn(args, burned)
    if failures or errors:
        return 1
    return 1 if burned and args.strict else 0


def _claims(artifact: Dict[str, Any]) -> List[str]:
    return [f"claim failed: {name}"
            for name, ok in artifact["summary"].items() if not ok]


def _objectives(args: argparse.Namespace) -> list:
    from repro.observatory.slo import SloObjective

    try:
        return [SloObjective.parse(text) for text in args.slo]
    except ValueError as error:
        raise Stop(2, str(error))


def _gate_top_cells(artifact: Dict[str, Any], objectives: list) -> str:
    """Evaluate the objectives over each mechanism's top-count cell
    (x-ray cells attribute alerts to their windows' top cause); stores
    ``artifact["slo"]`` and returns the burn message, if any."""
    from repro.observatory.slo import evaluate_slos

    if not objectives:
        return ""
    top = max(artifact["tenant_counts"])
    report = {}
    for mechanism in artifact["mechanisms"]:
        cell = artifact["cells"][f"{mechanism}@{top}"]
        causes = {int(index): cause["segment"] for index, cause
                  in cell.get("xray", {}).get("window_causes", {}).items()}
        report[f"{mechanism}@{top}"] = evaluate_slos(
            objectives, cell["windows"], causes=causes)
    artifact["slo"] = report
    burning = any(entry["violated"] for entry in report.values())
    return "SLO violated" if burning else ""


def _sweep_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """Validate the fleet-sweep group into ``run_campaign`` keywords."""
    try:
        counts = [int(part) for part in args.tenants.split(",")
                  if part.strip()]
    except ValueError:
        raise Stop(2, f"bad --tenants {args.tenants!r}")
    if not counts or min(counts) < 1:
        raise Stop(2, "tenant counts must be positive")
    if args.horizon_ms <= 0:
        raise Stop(2, "--horizon-ms must be positive")
    if args.churn_every < 0 or args.cores < 1 or args.rate_scale <= 0:
        raise Stop(2, "bad --churn-every/--cores/--rate-scale")
    return {"seed": args.seed, "tenant_counts": counts,
            "horizon_ms": args.horizon_ms, "workers": args.workers,
            "churn_every": args.churn_every, "cores": args.cores,
            "rate_scale": args.rate_scale}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import report

    if not args.telemetry:
        return report.run(args)
    from repro import telemetry
    from repro.telemetry import export, profiler

    telemetry.install(telemetry.TelemetrySession("crossover-report"))
    try:
        return report.main_traced(args)
    finally:
        session = telemetry.uninstall()
        assert session is not None
        paths = export.write_artifacts(session, args.telemetry)
        if args.hotspots:
            print()
            print(profiler.profile_session(session).hotspot_table(
                args.hotspots))
        print(f"telemetry artifacts: {', '.join(sorted(paths.values()))}",
              file=sys.stderr)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import SYSTEMS
    from repro.telemetry import export, profiler
    from repro.telemetry import workload

    if args.quick:
        systems, variants, args.calls = ["Proxos"], [False], 2
    else:
        systems = list(SYSTEMS) if args.all or not args.systems \
            else args.systems
        variants = [False, True] if args.both else [args.optimized]
    if args.calls < 1:
        raise Stop(2, "--calls must be >= 1")

    os.makedirs(args.out, exist_ok=True)
    rows: List[Dict[str, Any]] = []
    artifacts: Dict[str, Dict[str, str]] = {}
    for system_name in systems:
        for optimized in variants:
            session, row = workload.trace_system(system_name, optimized,
                                                 args.calls)
            prefix = workload.workload_prefix(system_name, optimized)
            artifacts[prefix] = export.write_artifacts(
                session, args.out, prefix=f"{prefix}.")
            rows.append(row)
            paper = row["paper_crossings"]
            paper_note = f", paper {paper}" if paper is not None else ""
            ok = (row["span_crossings_consistent"]
                  and row["paper_bound_ok"] and row["profile_consistent"])
            print(f"{system_name} {row['variant']}: "
                  f"{row['crossings_per_call']} crossings/call"
                  f"{paper_note}; {row['calls']} calls, "
                  f"{row['world_call_spans']} redirect spans; "
                  f"span/trace/paper agreement: "
                  f"{'ok' if ok else 'MISMATCH'}")
            if args.profile:
                print(profiler.profile_session(session).hotspot_table(
                    args.hotspots))

    summary_path = os.path.join(args.out, "summary.json")
    write_artifact({"systems": rows, "artifacts": artifacts}, summary_path)
    print(f"artifacts written to {args.out}/ "
          f"({len(artifacts)} traced runs + summary.json)")

    # Any disagreement between the three views of the same activity —
    # span replay vs transition trace vs the paper's Figure-2 bound —
    # is a hard failure, as is a profile that cannot be reconciled
    # with the flat counters.
    failures = [r for r in rows
                if not (r["span_crossings_consistent"]
                        and r["paper_bound_ok"]
                        and r["profile_consistent"])]
    for row in failures:
        _warn(args, f"{row['system']} {row['variant']}: "
                    f"span/trace/paper crossing cross-check failed "
                    f"(consistent={row['span_crossings_consistent']}, "
                    f"paper_bound_ok={row['paper_bound_ok']}, "
                    f"profile_consistent={row['profile_consistent']})")
    if args.quick:
        errors = workload.validate_artifacts(summary_path, artifacts)
        for error in errors:
            print(f"schema violation: {error}", file=sys.stderr)
        if errors:
            return 1
        print("all artifacts valid against telemetry.schema.json")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import trajectory

    return trajectory.run(args)


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import campaign

    if args.ops < 1:
        raise Stop(2, "--ops must be >= 1")
    try:
        artifact = campaign.run_campaign(
            systems=args.systems, sites=args.sites, ops=args.ops,
            seed=args.seed, workers=args.workers,
            disabled=args.disable_recovery)
    except ValueError as error:
        raise Stop(2, str(error))
    _say(args, campaign.render_matrix(artifact))
    failures = []
    violations = artifact["summary"]["invariant_violations"]
    if violations:
        failures.append(f"{violations} invariant-violation(s)")
    if not artifact["crosscheck"]["ok"]:
        failures.append("telemetry crosscheck FAILED")
    return finish(args, artifact, failures)


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import graph, workload

    if args.verb == "record":
        try:
            artifact = workload.record_workload(
                systems=args.systems, calls=args.calls,
                workers=args.workers, algo=args.algo)
        except ValueError as error:
            raise Stop(2, str(error))
        summary = artifact["summary"]
        _say(args, f"{summary['cells']} cells, {summary['records']} "
                   f"records, {summary['anomalies']} anomalies, "
                   "crosscheck "
                   + ("ok" if summary["crosscheck_ok"] else "FAILED"))
        failures = [] if summary["crosscheck_ok"] else ["crosscheck FAILED"]
        return finish(args, artifact, failures)

    artifact = load_artifact(args.artifact, workload.SCHEMA)
    if args.verb == "verify":
        violations = workload.verify_artifact(artifact)
        for violation in violations:
            seq = violation["seq"]
            at = f" (seq {seq})" if seq is not None else ""
            _warn(args, f"{violation['cell']}{at}: [{violation['check']}] "
                        f"{violation['message']}")
        if not violations:
            summary = artifact["summary"]
            _say(args, f"{args.artifact}: verified {summary['cells']} "
                       f"cells, {summary['records']} records; chain "
                       "intact, crosschecks hold")
        return 1 if violations else 0
    if args.verb == "query":
        matches = workload.query(
            artifact, system=args.system, variant=args.variant,
            wid=args.wid, fam=args.fam, kind=args.kind,
            decision=args.decision)
        if args.count:
            print(len(matches))
        else:
            for match in matches:
                print(json.dumps(match, sort_keys=True))
        return 0
    cells = workload.select_cells(artifact, args.system, args.variant)
    if not cells:
        raise Stop(2, "no cell matches the selection")
    built = graph.build_graph(cells[0]["log"])
    print(json.dumps(built, indent=2, sort_keys=True)
          if args.format == "json" else graph.to_dot(built))
    return 0


def _cmd_switchless(args: argparse.Namespace) -> int:
    from repro.switchless import campaign

    if args.iterations < 1:
        raise Stop(2, "--iterations must be >= 1")
    artifact = campaign.run_campaign(seed=args.seed,
                                     iterations=args.iterations,
                                     workers=args.workers)
    _say(args, campaign.render_summary(artifact))
    return finish(args, artifact, _claims(artifact))


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.observatory import campaign, exporters

    if args.window <= 0:
        raise Stop(2, "--window must be positive")
    objectives = _objectives(args)
    if args.load:
        artifact = load_artifact(args.load, campaign.SCHEMA)
        if args.slo:
            campaign.evaluate(artifact, objectives)
    elif args.record or args.demo:
        artifact = campaign.record(
            window_cycles=args.window, workers=args.workers,
            iterations=args.iterations, demo=args.demo,
            objectives=objectives)
    else:
        raise Stop(2, "nothing to do (use --record, --demo or --load FILE)")
    mismatches = campaign.recheck(artifact)

    _say(args, exporters.render_top(artifact), end="")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as stream:
            stream.write(exporters.render_html(artifact))
        _say(args, f"wrote {args.html}")
    if args.openmetrics:
        from repro.telemetry.export import render_openmetrics
        with open(args.openmetrics, "w", encoding="utf-8") as stream:
            stream.write(render_openmetrics(
                exporters.totals_snapshot(artifact)))
        _say(args, f"wrote {args.openmetrics}")
    alerts = artifact["summary"]["alerts_fired"]
    status = finish(args, artifact,
                    burned=f"{alerts} SLO alert(s) fired" if alerts else "")
    for mismatch in mismatches:
        _warn(args, mismatch)
    return 3 if mismatches else status


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import campaign

    kwargs = _sweep_kwargs(args)
    objectives = _objectives(args)
    artifact = campaign.run_campaign(**kwargs)
    burned = _gate_top_cells(artifact, objectives)
    _say(args, campaign.render_summary(artifact))
    return finish(args, artifact, _claims(artifact), burned=burned)


def _cmd_xray(args: argparse.Namespace) -> int:
    from repro.xray import campaign, explain

    if args.check is not None:
        artifact = load_artifact(args.check, campaign.SCHEMA)
        errors = campaign.verify_artifact(artifact)
        for error in errors:
            _warn(args, error)
        _say(args, f"{args.check}: {'FAIL' if errors else 'ok'} "
                   f"({artifact['conservation']['checked']} traces "
                   "crosschecked)")
        return 1 if errors else 0

    kwargs = _sweep_kwargs(args)
    if args.sample_every < 1 or args.keep < 1:
        raise Stop(2, "--sample-every and --keep must be >= 1")
    objectives = _objectives(args)
    artifact = campaign.run_campaign(sample_every=args.sample_every,
                                     keep=args.keep, **kwargs)
    burned = _gate_top_cells(artifact, objectives)
    _say(args, explain.render_report(artifact))
    if args.trace_out:
        from repro.xray.export import chrome_trace_from_artifact
        write_artifact(chrome_trace_from_artifact(artifact), args.trace_out)
        _say(args, f"wrote {args.trace_out}")
    return finish(args, artifact, _claims(artifact),
                  check=campaign.verify_artifact, burned=burned)


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

#: Every flag that more than one subcommand takes, registered once; a
#: subcommand only overrides its default (``set_defaults``).
_SHARED: Dict[str, Dict[str, Any]] = {
    "--seed": {"type": int, "default": 0,
               "help": "schedule / traffic / sampling seed "
                       "(default: %(default)s)"},
    "--workers": {"type": int, "default": None, "metavar": "N",
                  "help": "pool workers, >= 1 (by default one per CPU, "
                          "one for top); every artifact is identical at "
                          "any count"},
    "--out": {"default": None, "metavar": "PATH",
              "help": "write the artifact(s) here"},
    "--quiet": {"action": "store_true",
                "help": "suppress the printout"},
    "--slo": {"action": "append", "default": [], "metavar": "EXPR",
              "help": "SLO objective '<series>.<stat> <op> <value>', "
                      "e.g. 'world_call.cycles.p99 < 600' (repeatable; "
                      "report-only unless --strict)"},
    "--strict": {"action": "store_true",
                 "help": "exit 1 on a burning SLO or a regression "
                         "(default: report only)"},
    "--systems": {"type": _csv, "default": None, "metavar": "A,B",
                  "help": "case-study systems (default: the standard "
                          "set)"},
    "--calls": {"type": int, "metavar": "N",
                "help": "calls per traced cell (default: %(default)s)"},
    "--iterations": {"type": int,
                     "help": "workload iterations per cell "
                             "(default: %(default)s)"},
    "--hotspots": {"type": int, "metavar": "N",
                   "help": "rows in the hotspot table "
                           "(default: %(default)s; 0 disables)"},
}


def _shared(parser: argparse.ArgumentParser, *flags: str,
            **defaults: Any) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED[flag])
    if defaults:
        parser.set_defaults(**defaults)


def _sweep_parent() -> argparse.ArgumentParser:
    """The fleet-sweep group ``fleet`` and ``xray`` both take."""
    from repro.fleet import campaign
    from repro.fleet.scheduler import DEFAULT_CORES

    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("fleet sweep")
    group.add_argument("--tenants",
                       default=",".join(map(str, campaign.TENANT_SWEEP)),
                       metavar="N,N,...",
                       help="comma-separated tenant counts to sweep "
                            "(default: %(default)s)")
    group.add_argument("--horizon-ms", type=float,
                       default=campaign.DEFAULT_HORIZON_MS, metavar="MS",
                       help="modeled replay horizon per cell in modeled "
                            "milliseconds (default: %(default)s)")
    group.add_argument("--churn-every", type=int,
                       default=campaign.DEFAULT_CHURN_EVERY, metavar="N",
                       help="revoke + recreate one callee world every N "
                            "completed requests (0 disables; "
                            "default: %(default)s)")
    group.add_argument("--cores", type=int, default=DEFAULT_CORES,
                       help="modeled core-pool width "
                            "(default: %(default)s)")
    group.add_argument("--rate-scale", type=float, default=1.0,
                       help="multiply every tenant's request rate "
                            "(default: %(default)s)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.experiments import SYSTEMS
    from repro.analysis.report import SECTIONS
    from repro.audit.chain import ALGORITHMS
    from repro.audit.workload import DEFAULT_CALLS
    from repro.faults.campaign import DEFAULT_OPS, RECOVERY_POLICIES
    from repro.observatory import DEFAULT_WINDOW_CYCLES
    from repro.xray.trace import DEFAULT_KEEP, DEFAULT_SAMPLE_EVERY

    parser = argparse.ArgumentParser(
        prog="crossover",
        description="CrossOver (ISCA 2015) reproduction: the paper's "
                    "tables, tracing, and seeded campaigns.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="SUBCOMMAND")

    def sub(name: str, handler, text: str, **kwargs):
        child = subs.add_parser(name, help=text, description=text, **kwargs)
        child.set_defaults(handler=handler)
        return child

    report = sub("report", _cmd_report,
                 "Regenerate the paper's tables and figures.")
    report.add_argument("--quick", action="store_true",
                        help="only the fast sections (skip Tables 4-6)")
    report.add_argument("--markdown", action="store_true",
                        help="emit the EXPERIMENTS-style markdown report")
    report.add_argument("--section", action="append", choices=SECTIONS,
                        help="run only the named section(s)")
    report.add_argument("--parallel", action="store_true",
                        help="fan table sweeps over worker processes")
    report.add_argument("--bench", metavar="PATH", default=None,
                        help="run the before/after sweep benchmark and "
                             "write the BENCH JSON artifact to PATH")
    report.add_argument("--bench-seed-src", metavar="DIR", default=None,
                        help="also time the sweep against another source "
                             "tree (e.g. a seed checkout's src/)")
    report.add_argument("--telemetry", metavar="DIR", default=None,
                        help="collect telemetry while the report runs and "
                             "write trace/metrics/matrix/profile "
                             "artifacts to DIR")
    _shared(report, "--workers", "--hotspots", hotspots=10)

    trace = sub("trace", _cmd_trace,
                "Trace a case-study system's redirected-syscall workload "
                "and emit Chrome trace / metrics / crossing-matrix "
                "artifacts.")
    trace.add_argument("--system", action="append", default=[],
                       choices=sorted(SYSTEMS), dest="systems",
                       help="system to trace (repeatable; default: all)")
    trace.add_argument("--all", action="store_true",
                       help="trace every Table-1 system")
    trace.add_argument("--optimized", action="store_true",
                       help="trace the CrossOver-optimized variant "
                            "instead of the original design")
    trace.add_argument("--both", action="store_true",
                       help="trace both variants of each system")
    trace.add_argument("--profile", action="store_true",
                       help="print each run's top hotspot stacks (the "
                            "collapsed-stack and speedscope artifacts "
                            "are always written)")
    trace.add_argument("--quick", action="store_true",
                       help="smoke mode: Proxos original, 2 calls, then "
                            "validate every artifact against the "
                            "checked-in schema")
    _shared(trace, "--calls", "--out", "--hotspots",
            calls=10, out="telemetry-out", hotspots=5)

    bench = sub("bench", _cmd_bench,
                "Record BENCH artifacts into the perf-trajectory ledger "
                "and gate fresh measurements against it.")
    action = bench.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", metavar="BENCH.json",
                        help="ingest a BENCH artifact into the ledger")
    action.add_argument("--compare", metavar="BENCH.json",
                        help="compare a BENCH artifact against a "
                             "recorded baseline entry")
    action.add_argument("--show", action="store_true",
                        help="print the ledger as a table")
    bench.add_argument("--trajectory", default="TRAJECTORY.json",
                       metavar="FILE",
                       help="ledger file (default: %(default)s)")
    bench.add_argument("--label", default=None,
                       help="entry label for --record (default: the "
                            "BENCH filename stem)")
    bench.add_argument("--against", default=None, metavar="LABEL",
                       help="baseline entry for --compare (default: the "
                            "latest recorded entry)")
    bench.add_argument("--threshold", type=float, default=0.10,
                       help="relative regression threshold "
                            "(default: %(default)s)")
    _shared(bench, "--strict")

    faults = sub("faults", _cmd_faults,
                 "Deterministic fault-injection campaign over the "
                 "world-call datapath.")
    faults.add_argument("--sites", type=_csv, default=None, metavar="S,S",
                        help="fault sites to exercise (default: all)")
    faults.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help="operations per (system, site) cell "
                             "(default: %(default)s)")
    faults.add_argument("--disable-recovery", type=_csv, default=[],
                        metavar="P,P",
                        help="recovery policies to disable (ablation): "
                             + ",".join(RECOVERY_POLICIES))
    _shared(faults, "--systems", "--seed", "--workers", "--out", "--quiet")

    audit = sub("audit", _cmd_audit,
                "Hash-chained flight recorder for world transitions and "
                "authorization decisions.")
    verbs = audit.add_subparsers(dest="verb", required=True)
    record = verbs.add_parser(
        "record", help="record the workload cells into an artifact")
    record.add_argument("--algo", default="sha256", choices=ALGORITHMS,
                        help="chain hash (default: %(default)s)")
    _shared(record, "--out", "--systems", "--calls", "--workers", "--quiet",
            out="AUDIT.json", calls=DEFAULT_CALLS)
    verify = verbs.add_parser(
        "verify", help="offline chain + crosscheck verification")
    verify.add_argument("artifact", help="crossover-audit/v1 JSON file")
    _shared(verify, "--quiet")
    query = verbs.add_parser("query", help="filter the flat record log")
    query.add_argument("artifact", help="crossover-audit/v1 JSON file")
    query.add_argument("--system", default=None,
                       help="restrict to one case-study system")
    query.add_argument("--variant", default=None,
                       choices=("original", "optimized"))
    query.add_argument("--wid", type=int, default=None,
                       help="records whose caller or callee WID matches")
    query.add_argument("--fam", default=None,
                       help="record family (trace/hw/hv/core/sys/fault)")
    query.add_argument("--kind", default=None,
                       help="record kind (world_call, authorization, ...)")
    query.add_argument("--decision", default=None,
                       choices=("allow", "deny"))
    query.add_argument("--count", action="store_true",
                       help="print only the number of matches")
    graph = verbs.add_parser(
        "graph", help="render the reconstructed causal call graph")
    graph.add_argument("artifact", help="crossover-audit/v1 JSON file")
    graph.add_argument("--system", default=None,
                       help="cell to render (default: first cell)")
    graph.add_argument("--variant", default=None,
                       choices=("original", "optimized"))
    graph.add_argument("--format", default="dot", choices=("dot", "json"),
                       help="output format (default: %(default)s)")

    switchless = sub("switchless", _cmd_switchless,
                     "Deterministic switchless-call evaluation campaign "
                     "(three-way comparison + adaptive-policy proof).")
    _shared(switchless, "--seed", "--iterations", "--workers", "--out",
            "--quiet", iterations=5)

    top = sub("top", _cmd_top,
              "Time-resolved view of the simulator: windowed series, "
              "event timeline, SLO burn-rate alerts.")
    top.add_argument("--record", action="store_true",
                     help="run the standard recording (four case-study "
                          "systems + bursty switchless cell)")
    top.add_argument("--demo", action="store_true",
                     help="small quick recording (implies --record)")
    top.add_argument("--load", metavar="FILE",
                     help="render an existing artifact instead of "
                          "recording")
    top.add_argument("--html", metavar="FILE",
                     help="write the self-contained HTML dashboard")
    top.add_argument("--openmetrics", metavar="FILE",
                     help="write the flat totals in OpenMetrics text "
                          "format")
    top.add_argument("--window", type=int, default=DEFAULT_WINDOW_CYCLES,
                     help="window width in modeled cycles "
                          "(default: %(default)s)")
    _shared(top, "--out", "--workers", "--iterations", "--slo", "--strict",
            "--quiet", workers=1, iterations=2)

    sweep = _sweep_parent()
    fleet = sub("fleet", _cmd_fleet,
                "Deterministic sharded fleet campaign: tenant-count x "
                "mechanism sweep with throughput and latency curves.",
                parents=[sweep])
    _shared(fleet, "--seed", "--workers", "--out", "--slo", "--strict",
            "--quiet")

    xray = sub("xray", _cmd_xray,
               "Deterministic fleet-scale request tracing: per-request "
               "segment vectors, critical-path tail attribution, "
               "histogram exemplars.", parents=[sweep])
    xray.add_argument("--sample-every", type=int,
                      default=DEFAULT_SAMPLE_EVERY, metavar="N",
                      help="keep full segment vectors for 1-in-N trace "
                           "ids (seeded hash; default: %(default)s)")
    xray.add_argument("--keep", type=int, default=DEFAULT_KEEP,
                      metavar="N",
                      help="top-latency sampled traces kept per cell "
                           "(default: %(default)s)")
    xray.add_argument("--trace-out", default=None, metavar="FILE",
                      help="write a Perfetto/Chrome trace of the sampled "
                           "requests (modeled-cycle axis) here")
    xray.add_argument("--check", default=None, metavar="FILE",
                      help="re-verify an existing artifact (schema + "
                           "conservation) instead of running the sweep")
    _shared(xray, "--seed", "--workers", "--out", "--slo", "--strict",
            "--quiet")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; returns its exit status.  Without ``argv``
    the command line is used, and an alias program name
    (``crossover-fleet``) supplies the subcommand."""
    if argv is None:
        argv = sys.argv[1:]
        name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
        if name.startswith(PREFIX):
            argv = [name[len(PREFIX):]] + argv
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise Stop(2, "--workers must be >= 1")
        return args.handler(args)
    except Stop as stop:
        for message in stop.messages:
            _warn(args, message)
        return stop.status
    except BrokenPipeError:
        # a downstream consumer (head, grep -m) closed the pipe early
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
