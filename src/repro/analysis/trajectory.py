"""``crossover-bench``: the perf-trajectory ledger and regression gate.

Every PR that touches performance leaves behind a ``BENCH_PR<n>.json``
artifact, but each one has whatever shape that PR's harness produced.
This module reduces any BENCH artifact to a **canonical series map**
(``runs.<name>.wall_seconds``, ``speedup_*``, ``overhead_*_percent``),
appends it to the cross-PR ledger ``TRAJECTORY.json``, and compares a
fresh measurement against a recorded baseline with a *noise-aware*
rule: best-of-N samples on both sides, a relative threshold, and
direction awareness (wall seconds regress *up*, speedups regress
*down*).

Usage::

    crossover-bench --record BENCH_PR3.json --label PR3
    crossover-bench --compare bench-ci.json --against PR3 --threshold 0.5
    crossover-bench --show

``--compare`` is report-only by default (always exit 0, print the
verdict table) so CI can surface regressions without blocking merges on
noisy runners; ``--strict`` turns regressions into exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

#: Artifact format tag checked on load and written on save.
SCHEMA = "crossover-trajectory/v1"

#: Top-level BENCH scalars worth tracking, and which way "better" is.
_SCALAR_SERIES = {
    "speedup_serial": "higher",
    "speedup_best": "higher",
    "speedup_vs_seed": "higher",
    "overhead_enabled_percent": "lower",
    "overhead_disabled_percent": "lower",
    "overhead_full_percent": "lower",
    # BENCH_PR6 recorded these; its harness is gone, but the ledger
    # still reads that artifact.
    "jit_speedup_serial": "higher",
    "jit_speedup_parallel": "higher",
    "jit_speedup_vs_stepwise": "higher",
    "micro_superblock_vs_baseline": "higher",
    "switchless_adaptive_speedup": "higher",
}


# ---------------------------------------------------------------------------
# canonical series extraction
# ---------------------------------------------------------------------------

def extract_series(bench: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Reduce one BENCH artifact to ``{series_name: {value, samples,
    direction}}``.

    Every run contributes ``runs.<name>.wall_seconds`` with ``value =
    min(samples)`` when the run kept repeat samples (best-of-N is the
    standard noise filter for wall-clock minima), else the single
    recorded ``wall_seconds``.  Known top-level scalars (speedups,
    overheads) come along with their improvement direction.
    """
    series: Dict[str, Dict[str, Any]] = {}
    if bench.get("schema") == "crossover-faults/v1":
        summary = bench.get("summary", {})
        for name, direction in (("sites_exercised", "higher"),
                                ("recovered_percent", "higher"),
                                ("invariant_violations", "lower"),
                                ("sites_detected", "higher")):
            value = summary.get(name)
            if isinstance(value, (int, float)):
                series[f"faults.{name}"] = {
                    "value": value,
                    "samples": [value],
                    "direction": direction,
                }
        return series
    if bench.get("schema") == "crossover-observatory/v1":
        summary = bench.get("summary", {})
        for name, direction in (("windows", "higher"),
                                ("events", "higher"),
                                ("cells", "higher")):
            value = summary.get(name)
            if isinstance(value, (int, float)):
                series[f"observatory.{name}"] = {
                    "value": value,
                    "samples": [value],
                    "direction": direction,
                }
        alerts = bench.get("slo", {}).get("alerts_fired")
        if isinstance(alerts, (int, float)):
            series["observatory.slo.alerts_fired"] = {
                "value": alerts,
                "samples": [alerts],
                "direction": "lower",
            }
        # The dashboard headline: worst per-window world-call p99
        # across every cell — the time-resolved tail the paper's flat
        # tables can't see.
        worst_p99 = None
        for cell in bench.get("cells", []):
            for window in cell.get("windows", []):
                for key, hist in window.get("histograms", {}).items():
                    if key.split("{", 1)[0] != "world_call.cycles":
                        continue
                    p99 = hist.get("p99")
                    if p99 is not None and (worst_p99 is None
                                            or p99 > worst_p99):
                        worst_p99 = p99
        if worst_p99 is not None:
            series["observatory.world_call.p99_worst"] = {
                "value": worst_p99,
                "samples": [worst_p99],
                "direction": "lower",
            }
        return series
    if bench.get("schema") == "crossover-fleet/v1":
        counts = bench.get("tenant_counts", [])
        if counts:
            series["fleet.tenants"] = {
                "value": max(counts),
                "samples": [max(counts)],
                "direction": "higher",
            }
        # Peak sustained throughput and worst tail per transport — the
        # fleet's headline: world_call/switchless throughput must not
        # fall back toward the serialized baseline.
        for mechanism, points in sorted(bench.get("curves", {}).items()):
            peaks = [p.get("throughput_rps") for p in points
                     if isinstance(p.get("throughput_rps"), (int, float))]
            if peaks:
                series[f"fleet.{mechanism}.throughput_peak"] = {
                    "value": max(peaks),
                    "samples": [max(peaks)],
                    "direction": "higher",
                }
            tails = [p.get("p99") for p in points
                     if isinstance(p.get("p99"), (int, float))]
            if tails:
                series[f"fleet.{mechanism}.p99_worst"] = {
                    "value": max(tails),
                    "samples": [max(tails)],
                    "direction": "lower",
                }
        all_points = [p for points in bench.get("curves", {}).values()
                      for p in points]
        peaks = [p.get("throughput_rps") for p in all_points
                 if isinstance(p.get("throughput_rps"), (int, float))]
        if peaks:
            series["fleet.throughput_peak"] = {
                "value": max(peaks),
                "samples": [max(peaks)],
                "direction": "higher",
            }
        tails = [p.get("p99") for p in all_points
                 if isinstance(p.get("p99"), (int, float))]
        if tails:
            series["fleet.p99_worst"] = {
                "value": max(tails),
                "samples": [max(tails)],
                "direction": "lower",
            }
        events = sum(p.get("sched_events", 0) for p in all_points)
        if events:
            series["fleet.sched_events"] = {
                "value": events,
                "samples": [events],
                "direction": "higher",
            }
        return series
    if bench.get("schema") == "crossover-xray/v1":
        sampled = sum(
            cell.get("xray", {}).get("traces_sampled", 0)
            for cell in bench.get("cells", {}).values())
        if sampled:
            series["xray.traces_sampled"] = {
                "value": sampled,
                "samples": [sampled],
                "direction": "higher",
            }
        # The tail explainer's headline: how much of the baseline p99
        # exemplar's latency is contention (queue + hv-serialization
        # wait) at the top tenant count.  Driving this down is the
        # paper's point.
        for row in bench.get("tail", []):
            exemplar = row.get("p99_exemplar")
            if row.get("mechanism") != "baseline" or not exemplar:
                continue
            latency = exemplar.get("latency")
            if latency:
                share = exemplar["contention_cycles"] / latency
                series["xray.p99_contention_share"] = {
                    "value": round(share, 6),
                    "samples": [round(share, 6)],
                    "direction": "lower",
                }
        ok = 1 if bench.get("conservation", {}).get("ok") else 0
        series["xray.conservation_ok"] = {
            "value": ok,
            "samples": [ok],
            "direction": "higher",
        }
        return series
    for run_name, run in sorted(bench.get("runs", {}).items()):
        if not isinstance(run, dict) or "wall_seconds" not in run:
            continue
        samples = run.get("samples")
        if isinstance(samples, list) and samples:
            value = min(samples)
        else:
            value = run["wall_seconds"]
            samples = [run["wall_seconds"]]
        series[f"runs.{run_name}.wall_seconds"] = {
            "value": value,
            "samples": list(samples),
            "direction": "lower",
        }
    for name, direction in sorted(_SCALAR_SERIES.items()):
        if name in bench and isinstance(bench[name], (int, float)):
            series[name] = {
                "value": bench[name],
                "samples": [bench[name]],
                "direction": direction,
            }
    switchless = bench.get("switchless")
    if isinstance(switchless, dict):
        # Modeled mean call cycles per workload and transport — the
        # PR7 engine's whole point is driving these down.
        for workload, entry in sorted(
                switchless.get("adaptive", {}).items()):
            cycles = entry.get("mean_call_cycles", {})
            for mechanism, value in sorted(cycles.items()):
                if isinstance(value, (int, float)):
                    series[f"switchless.{workload}.{mechanism}_cycles"] = {
                        "value": value,
                        "samples": [value],
                        "direction": "lower",
                    }
    return series


def make_entry(bench: Dict[str, Any], label: str,
               source: str) -> Dict[str, Any]:
    """One TRAJECTORY entry for a BENCH artifact."""
    return {
        "label": label,
        "source": os.path.basename(source),
        "host": bench.get("host", {}),
        "series": extract_series(bench),
    }


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

def load_trajectory(path: str) -> Dict[str, Any]:
    """Load (or initialise) the trajectory ledger."""
    if not os.path.exists(path):
        return {"schema": SCHEMA, "entries": []}
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported trajectory schema "
            f"{data.get('schema')!r} (expected {SCHEMA!r})")
    return data


def save_trajectory(trajectory: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record(trajectory: Dict[str, Any],
           entry: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``entry``, replacing any prior entry with the same label
    (re-recording a PR's bench updates it in place, preserving order)."""
    entries = trajectory["entries"]
    for index, existing in enumerate(entries):
        if existing["label"] == entry["label"]:
            entries[index] = entry
            return trajectory
    entries.append(entry)
    return trajectory


def find_entry(trajectory: Dict[str, Any],
               label: Optional[str]) -> Optional[Dict[str, Any]]:
    """The entry named ``label``, or the latest entry when ``label`` is
    None, or None when the ledger is empty / the label is unknown."""
    entries = trajectory.get("entries", [])
    if label is None:
        return entries[-1] if entries else None
    for entry in entries:
        if entry["label"] == label:
            return entry
    return None


# ---------------------------------------------------------------------------
# the regression gate
# ---------------------------------------------------------------------------

def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            threshold: float = 0.10) -> List[Dict[str, Any]]:
    """Compare two series maps over their *intersection*.

    A series regresses when the current best-of value is worse than the
    baseline's by more than ``threshold`` relative (worse = higher for
    ``direction: lower`` series, lower for ``direction: higher``).
    Series present on only one side are skipped — PRs legitimately add
    and retire runs.  Returns one row per compared series.
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(baseline) & set(current)):
        base = baseline[name]
        cur = current[name]
        direction = cur.get("direction", base.get("direction", "lower"))
        base_value = base["value"]
        cur_value = cur["value"]
        if base_value == 0:
            ratio = 0.0 if cur_value == 0 else float("inf")
        else:
            ratio = cur_value / base_value
        if direction == "lower":
            regressed = ratio > 1.0 + threshold
            improved = ratio < 1.0 - threshold
        else:
            regressed = ratio < 1.0 - threshold
            improved = ratio > 1.0 + threshold
        rows.append({
            "series": name,
            "direction": direction,
            "baseline": base_value,
            "current": cur_value,
            "ratio": round(ratio, 4) if ratio != float("inf") else None,
            "verdict": ("regressed" if regressed
                        else "improved" if improved else "ok"),
        })
    return rows


def _format_rows(rows: List[Dict[str, Any]]) -> str:
    headers = ("Series", "Dir", "Baseline", "Current", "Ratio", "Verdict")
    table = [headers]
    for row in rows:
        ratio = "inf" if row["ratio"] is None else f"{row['ratio']:.3f}"
        table.append((row["series"], row["direction"],
                      f"{row['baseline']:g}", f"{row['current']:g}",
                      ratio, row["verdict"].upper()
                      if row["verdict"] == "regressed"
                      else row["verdict"]))
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j])
                               for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _show(trajectory: Dict[str, Any]) -> str:
    """The whole ledger as one series-by-entry text table."""
    entries = trajectory.get("entries", [])
    if not entries:
        return "(trajectory is empty)"
    names = sorted({name for e in entries for name in e["series"]})
    headers = ["Series"] + [e["label"] for e in entries]
    table = [tuple(headers)]
    for name in names:
        row = [name]
        for entry in entries:
            point = entry["series"].get(name)
            row.append("-" if point is None else f"{point['value']:g}")
        table.append(tuple(row))
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j])
                               for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossover-bench",
        description="Record BENCH artifacts into the perf-trajectory "
                    "ledger and gate fresh measurements against it.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", metavar="BENCH.json",
                        help="ingest a BENCH artifact into the ledger")
    action.add_argument("--compare", metavar="BENCH.json",
                        help="compare a BENCH artifact against a "
                             "recorded baseline entry")
    action.add_argument("--show", action="store_true",
                        help="print the ledger as a table")
    parser.add_argument("--trajectory", default="TRAJECTORY.json",
                        metavar="FILE",
                        help="ledger file (default: %(default)s)")
    parser.add_argument("--label", default=None,
                        help="entry label for --record (default: the "
                             "BENCH filename stem)")
    parser.add_argument("--against", default=None, metavar="LABEL",
                        help="baseline entry for --compare (default: "
                             "the latest recorded entry)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold "
                             "(default: %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regression (default: report "
                             "only, for noisy CI runners)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        trajectory = load_trajectory(args.trajectory)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"crossover-bench: {err}", file=sys.stderr)
        return 2

    if args.show:
        print(_show(trajectory))
        return 0

    bench_path = args.record or args.compare
    try:
        with open(bench_path) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"crossover-bench: {bench_path}: {err}", file=sys.stderr)
        return 2

    if args.record:
        label = args.label or os.path.splitext(
            os.path.basename(bench_path))[0]
        entry = make_entry(bench, label, bench_path)
        record(trajectory, entry)
        save_trajectory(trajectory, args.trajectory)
        print(f"recorded {label!r} ({len(entry['series'])} series) "
              f"into {args.trajectory}")
        return 0

    baseline = find_entry(trajectory, args.against)
    if baseline is None:
        who = (f"entry {args.against!r}" if args.against
               else "any entry")
        print(f"crossover-bench: {args.trajectory} has no {who} to "
              f"compare against", file=sys.stderr)
        return 2
    current = extract_series(bench)
    rows = compare(baseline["series"], current, args.threshold)
    if not rows:
        print(f"no series in common with baseline "
              f"{baseline['label']!r}; nothing to compare")
        return 0
    print(f"comparing {os.path.basename(bench_path)} against "
          f"{baseline['label']!r} (threshold "
          f"{args.threshold * 100:g}%):")
    print(_format_rows(rows))
    regressions = [r for r in rows if r["verdict"] == "regressed"]
    if regressions:
        mode = "failing (--strict)" if args.strict else "report-only"
        print(f"{len(regressions)} series regressed beyond "
              f"{args.threshold * 100:g}% [{mode}]", file=sys.stderr)
        return 1 if args.strict else 0
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
