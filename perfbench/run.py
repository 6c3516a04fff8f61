"""Host-time benchmark of the CrossOver simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_tables --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with nothing wrapped.  ``--trace 1`` makes three passes over the same
fixed number of rounds, each in a fresh interpreter — plain, with layer
spans (:mod:`spans`), and under ``cProfile`` for the per-layer Python
call counts — and prints the per-layer metrics; the spans are written
to ``.perfbench/trace-<workload>-<seed>.json``.

The simulator runs in its default configuration: fast path on, JIT
off, no observer installed, ``REPRO_*`` variables cleared.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A child pass gets this long before it is killed.
CHILD_TIMEOUT_S = 170

#: The end-to-end metrics, every one reported on every workload.
UNITS = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}

PASSES = ("plain", "spanned", "profiled")


def clean_env() -> dict:
    """The environment of a child pass: no ``REPRO_*`` overrides, the
    simulator's sources importable, and a fixed string-hash seed (a
    random one changes dict layouts and so host speed per process)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited on."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one pass, in this process
# ---------------------------------------------------------------------------


def run_pass(workload, kind: str, rounds: int, seconds: float = 0.0) -> dict:
    """Set up, then rounds with ``kind`` instrumentation: at least
    ``rounds`` of them, and until ``seconds`` have passed."""
    import layers
    from spans import Tracer

    counters = layers.ModelCounters() if kind == "spanned" else None
    if counters is not None:
        counters.install()
    setups = workload.setup()
    gc.collect()
    gc.freeze()

    def one_pass():
        done = []
        start = time.perf_counter()
        while len(done) < rounds or time.perf_counter() - start < seconds:
            done.append(workload.round())
        return done

    out: dict = {}
    if kind == "spanned":
        tracer = Tracer()
        before = counters.snapshot()
        tracer.install(layers.SPANS)
        try:
            t0 = time.perf_counter()
            done = tracer.span("perfbench.pass", one_pass)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
            counters.uninstall()
        sched = sum(r.get("sched_events", 0) for r in done)
        out["modeled_counts"] = layers.modeled_metrics(
            before, counters.snapshot(), sched)
        out["trace"] = tracer.dump()
        out["span_self_s"] = tracer.self_time_total()
    elif kind == "profiled":
        t0 = time.perf_counter()
        done, out["py_calls"] = layers.py_calls(one_pass)
        wall = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        done = one_pass()
        wall = time.perf_counter() - t0
    out.update(rounds=done, wall_s=wall, setups=setups,
               timed_s=sum(r["timed_s"] for r in done))
    return out


def child_pass(workload_name: str, seed: int, kind: str, rounds: int,
               seconds: float = 0.0):
    """Run one pass in a fresh interpreter; its result dict."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload_name, "--seed", str(seed), "--child", kind,
           "--rounds", str(rounds), "--seconds", str(seconds)]
    done = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def run_untraced(workload, seconds: float) -> dict:
    """Fresh interpreters, each setting up and making rounds, until
    ``seconds`` have passed; end-to-end metrics over all rounds.  Each
    interpreter is one sample of the per-process share of host speed."""
    rounds, setups, import_times = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(rounds) < workload.min_rounds):
        child = child_pass(workload.name, workload.seed, "plain", 1,
                           workload.child_seconds)
        rounds += child["rounds"]
        setups += child["setups"]
        import_times.append(child["import_s"])
    elapsed = time.perf_counter() - start
    setups += [r["setup_s"] for r in rounds if "setup_s" in r]
    import_s = statistics.median(import_times)
    values = workload.end_to_end(rounds)
    values["setup_s"] = import_s + (statistics.median(setups)
                                    if setups else 0.0)
    values["peak_rss_mb"] = peak_rss_mb()
    lines = [f"{len(rounds)} rounds in {len(import_times)} interpreters, "
             f"{elapsed:.2f}s; imports {import_s:.3f}s"]
    lines += workload.report(rounds)
    missing = set(UNITS) - set(values)
    if missing:
        raise SystemExit(f"perfbench: {workload.name} measured no "
                         f"{', '.join(sorted(missing))}")
    return {
        "rounds": rounds,
        "metrics": {name: metric(v, UNITS[name])
                    for name, v in values.items()},
        "lines": lines,
        # Every round of a run has the same inputs, so it must model
        # the same results as the first.
        "correct": all(r["modeled"] == rounds[0]["modeled"]
                       for r in rounds),
    }


def run_traced(workload, trace_dir: str) -> dict:
    """Plain, spanned and profiled passes, each in a fresh interpreter."""
    import layers

    n = workload.trace_rounds
    passes = {kind: child_pass(workload.name, workload.seed, kind, n)
              for kind in PASSES}
    modeled = [[r["modeled"] for r in passes[k]["rounds"]] for k in PASSES]
    consistent = all(m == modeled[0] for m in modeled)
    trace = passes["spanned"]["trace"]

    values = {}
    unmeasured = []
    for name in layers.SPAN_NAMES:
        stats = trace["stats"].get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = stats["calls"]
        values[f"{name}.self_s"] = stats["self_s"]
        if not stats["calls"]:
            unmeasured.append(name)
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = sum(
            values[f"{s}.self_s"] for s in layers.SPAN_NAMES
            if layers.layer_of(s) == layer)
    for group, count in passes["profiled"]["py_calls"].items():
        values[f"{group}.py_calls"] = count
    modeled_counts = dict(passes["spanned"]["modeled_counts"])
    errors = [r["paper_err_pct"] for r in passes["plain"]["rounds"]
              if r.get("paper_err_pct") is not None]
    modeled_counts[layers.PAPER_ERR] = (statistics.median(errors)
                                        if errors else None)
    for name, value in modeled_counts.items():
        if value is None:
            unmeasured.append(name)
        values[name] = value or 0
    plain_s = passes["plain"]["wall_s"]
    traced_s = passes["spanned"]["wall_s"]
    values["trace.overhead_s"] = (passes["spanned"]["timed_s"]
                                  - passes["plain"]["timed_s"])

    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir,
                        f"trace-{workload.name}-{workload.seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "rounds_per_pass": n, "plain_s": plain_s,
                   "traced_s": traced_s, "unmeasured": unmeasured,
                   **trace}, handle)
    units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
    lines = [
        f"passes of {n} round(s): plain {plain_s:.3f}s, spanned "
        f"{traced_s:.3f}s as measured; span self time "
        f"{passes['spanned']['span_self_s']:.3f}s",
        "unmeasured (no calls on this workload): "
        + (", ".join(unmeasured) or "none"),
        f"modeled results equal across passes: {consistent}",
        f"spans written to {os.path.relpath(path, ROOT)}",
    ]
    return {
        "rounds": [r for k in PASSES for r in passes[k]["rounds"]],
        "metrics": {name: metric(values[name], units[name])
                    for name, _, _ in layers.per_layer_metrics()},
        "lines": lines,
        "correct": consistent,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one pass in this interpreter and print its result.
    parser.add_argument("--child", choices=PASSES, help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=1,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    from digest import load_reference
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload_cls = WORKLOADS[args.workload]
    if args.child:
        for module in workload_cls.imports:
            __import__(module)
        import_s = time.perf_counter() - START
        workload = workload_cls(args.seed, load_reference())
        out = run_pass(workload, args.child, args.rounds, args.seconds)
        out["import_s"] = import_s
        print(json.dumps(out))
        return 0

    # A terminated run raises out of ``subprocess.run``, which then kills
    # and reaps the child pass it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = workload_cls(args.seed, load_reference())
    if args.trace:
        out = run_traced(workload, os.path.join(ROOT, ".perfbench"))
    else:
        out = run_untraced(workload, args.seconds)
    attempted = sum(r["attempted"] for r in out["rounds"])
    failed = sum(r["failed"] for r in out["rounds"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in out["lines"]:
        print(line)
    print(f"failed_frac: {failed / attempted:.6f} "
          f"({failed} of {attempted} cells/calls)")
    for name, m in out["metrics"].items():
        print(f"  {name:40s} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({"correct": out["correct"] and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
