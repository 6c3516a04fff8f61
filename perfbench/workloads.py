"""The three benchmark workloads.

Each is a closed loop with one caller: every operation waits for the
previous one.  A workload builds its harness in :meth:`setup`, then the
runner calls :meth:`round` repeatedly; a round is a fixed amount of
work that returns its host timings and a correctness account
(``attempted``, ``failed``, ``modeled``), where ``modeled`` summarizes
the modeled results so two passes over the same inputs can be compared.

Every workload reports the same end-to-end timing, ``op_ms``: the
median host milliseconds of one of its operations.

* ``paper_tables`` — Tables 4-7 of the paper, serially; an operation
  is one sweep of the four tables.
* ``crossvm_call`` — a hot loop of cross-VM calls on one two-VM
  machine: NULL ``getpid`` (encode-cache hits), unique-payload
  ``write`` to ``/dev/null`` (encode-cache misses) and the trap-based
  ``baseline`` round trip; an operation is one call, averaged over
  the three ops.
* ``fleet_2k`` — the 2000-tenant fleet replay, once per mechanism; an
  operation is one simulated request of the replay.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Optional

import hostspeed
from digest import digest

clock = time.perf_counter


def _report_exception(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    #: Modules whose import time counts toward ``setup_s``.
    imports: tuple = ()
    #: Rounds each pass of a traced run makes.
    trace_rounds = 1
    #: Fewest rounds an untraced run makes, however long they take.
    min_rounds = 3
    #: Seconds of rounds each interpreter of an untraced run makes
    #: (0: one round per interpreter).
    child_seconds = 0.0

    def __init__(self, seed: int, reference: Dict[str, Any]) -> None:
        self.seed = seed
        self.reference = reference[self.name]

    def setup(self) -> List[float]:
        """Build the harness; returns the seconds of each set-up made."""
        return []

    def round(self) -> Dict[str, Any]:
        """One round; ``timed_s`` in its result is the seconds of its
        timed work."""
        raise NotImplementedError

    def end_to_end(self, rounds: List[Dict[str, Any]]) -> Dict[str, float]:
        """``{"op_ms": ...}`` over the rounds, or ``{}`` if none of them
        measured an operation."""
        raise NotImplementedError

    def report(self, rounds) -> List[str]:
        """Extra report lines."""
        return []


# ---------------------------------------------------------------------------
# paper_tables
# ---------------------------------------------------------------------------

TABLES = ("table4", "table5", "table6", "table7")


def table_rows(table: str, result: Dict[Any, Any]) -> Dict[str, Any]:
    """One entry per table row, keyed ``"<table>/<row>"``."""
    return {f"{table}/{key}": value for key, value in result.items()}


def paper_pairs(results: Dict[str, Dict[Any, Any]]) -> List[tuple]:
    """(modeled, paper) for every Table 4-7 cell with a paper value."""
    pairs = []
    for row in results["table4"].values():
        native, systems = row["paper"]
        pairs.append((row["native"], native))
        for system, (orig, opt) in systems.items():
            pairs += list(zip(row["systems"][system], (orig, opt)))
    for row in results["table5"].values():
        pairs += list(zip((row["native"], row["original"], row["crossover"]),
                          row["paper"]))
    for row in results["table6"].values():
        pairs += list(zip((row["native"], row["crossover"], row["baseline"]),
                          row["paper"]))
    for row in results["table7"].values():
        pairs += list(zip((row["native"], row["crossover"], row["baseline"]),
                          row["paper"]))
    return pairs


def paper_err_pct(results: Dict[str, Dict[Any, Any]]) -> float:
    """Mean absolute modeled error against the paper, in percent."""
    pairs = paper_pairs(results)
    return 100.0 * sum(abs(m - p) / p for m, p in pairs) / len(pairs)


def check_rows(rows: Dict[str, Any], reference: Dict[str, str]) -> int:
    """Rows whose digest differs from the reference, or that are
    missing, or (Table 5) whose three outputs disagree."""
    failed = 0
    for key, expected in reference.items():
        row = rows.get(key)
        if row is None or digest(row) != expected:
            failed += 1
        elif key.startswith("table5/") and not row["outputs_consistent"]:
            failed += 1
    return failed + len(set(rows) - set(reference))


class PaperTables(Workload):
    name = "paper_tables"
    imports = ("repro.analysis.experiments",)
    # One round per interpreter, as ``crossover-report`` runs it.
    # Repeated in one process the sweep does not model the same
    # numbers: inode numbers come from a process-wide counter, so from
    # the third sweep on Table 7's ``stat`` row gains an instruction.

    def round(self) -> Dict[str, Any]:
        from repro.analysis import experiments
        from repro.core import convention

        # Each round starts cold, as a fresh reproduction run does.
        convention.clear_caches()
        results: Dict[str, Any] = {}
        seconds = 0.0
        for table in TABLES:
            t0 = clock()
            try:
                results[table] = getattr(experiments, f"run_{table}")()
            except Exception:       # counted as failed rows below
                _report_exception(f"run_{table}")
                results[table] = {}
            seconds += clock() - t0
        rows: Dict[str, Any] = {}
        for table in TABLES:
            rows.update(table_rows(table, results[table]))
        failed = check_rows(rows, self.reference["rows"])
        return {
            "tables_s": seconds,
            "timed_s": seconds,
            "attempted": len(self.reference["rows"]),
            "failed": failed,
            "modeled": {key: digest(row) for key, row in rows.items()},
            "paper_err_pct": (paper_err_pct(results) if not failed
                              else None),
        }

    def end_to_end(self, rounds):
        return {"op_ms": 1e3 * statistics.median(r["tables_s"]
                                                 for r in rounds)}

    def report(self, rounds):
        errors = [r["paper_err_pct"] for r in rounds
                  if r["paper_err_pct"] is not None]
        return [f"tables_s: median "
                f"{statistics.median(r['tables_s'] for r in rounds):.3f} s "
                f"over {len(rounds)} sweeps",
                "paper_err_pct: "
                + (f"{statistics.median(errors):.6f} %" if errors
                   else "not computed (rows failed)")]


# ---------------------------------------------------------------------------
# crossvm_call
# ---------------------------------------------------------------------------

#: Bulk ``write`` payload sizes (inclusive): channel-sized, far past
#: the register budget, so every call encodes a fresh wire.
BULK_MIN, BULK_MAX = 256, 3072

OPS = ("null", "bulk", "trap")


class CrossVMHarness:
    """One two-VM CrossOver machine with a cross-VM syscall pair, a
    remote executor and ``/dev/null`` open in it; the CPU is left in
    the caller VM's kernel, where every call starts."""

    def __init__(self) -> None:
        from repro.core.crossvm import CrossVMSyscallMechanism
        from repro.hw.costs import FEATURES_CROSSOVER
        from repro.testbed import build_two_vm_machine, enter_vm_kernel

        machine, vm1, _k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        # The table runners' tuning: no transition-trace recording, so
        # the fused charging path is the one taken.
        machine.cpu.trace.enabled = False
        self.machine, self.vm1, self.vm2 = machine, vm1, vm2
        self.mech = CrossVMSyscallMechanism(machine)
        self.mech.setup_pair(vm1, vm2)
        self.executor = k2.spawn("perfbench-executor")
        enter_vm_kernel(machine, vm1)
        self.null_fd = self.mech.call(vm1, vm2, "open", "/dev/null", "w",
                                      executor=self.executor)

    def counters(self):
        perf = self.machine.cpu.perf
        return perf.cycles, perf.instructions, Counter(perf.events)

    def null(self, n: int) -> List[Any]:
        call, vm1, vm2, ex = self.mech.call, self.vm1, self.vm2, \
            self.executor
        return [call(vm1, vm2, "getpid", executor=ex) for _ in range(n)]

    def trap(self, n: int) -> List[Any]:
        call, vm1, vm2, ex = self.mech.call, self.vm1, self.vm2, \
            self.executor
        return [call(vm1, vm2, "getpid", executor=ex, mechanism="baseline")
                for _ in range(n)]

    def bulk(self, payloads: List[bytes]) -> List[Any]:
        call, vm1, vm2, ex = self.mech.call, self.vm1, self.vm2, \
            self.executor
        fd = self.null_fd
        return [call(vm1, vm2, "write", fd, p, executor=ex)
                for p in payloads]


class CrossVMCall(Workload):
    name = "crossvm_call"
    imports = ("repro.core.crossvm", "repro.testbed")
    trace_rounds = 20
    min_rounds = 30
    child_seconds = 6.0
    #: Calls per timed batch.
    BATCH = 250
    #: Harness builds in :meth:`setup` (the last one is kept).
    BUILDS = 5
    #: Warm-up calls per op after each build.
    WARMUP = 64

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.rng = random.Random(seed)
        self.payload_count = 0
        self.harness: Optional[CrossVMHarness] = None

    def payloads(self, n: int) -> List[bytes]:
        """``n`` seeded payloads, unique by construction (an 8-byte
        sequence number leads each one)."""
        out = []
        for _ in range(n):
            size = self.rng.randint(BULK_MIN, BULK_MAX)
            out.append(self.payload_count.to_bytes(8, "big")
                       + self.rng.randbytes(size - 8))
            self.payload_count += 1
        return out

    def _build(self) -> CrossVMHarness:
        harness = CrossVMHarness()
        harness.null(self.WARMUP)
        harness.bulk(self.payloads(self.WARMUP))
        harness.trap(self.WARMUP)
        return harness

    def setup(self) -> List[float]:
        seconds = []
        for _ in range(self.BUILDS):
            t0 = clock()
            self.harness = self._build()
            seconds.append(clock() - t0)
        return seconds

    def _expected(self, op: str, payloads: Optional[List[bytes]]):
        """Modeled (cycles, instructions, events) a batch must charge."""
        ref = self.reference[op]
        n = self.BATCH
        events = Counter({k: v * n for k, v in ref["events"].items()})
        if op != "bulk":
            return ref["cycles"] * n, ref["instructions"] * n, events
        assert payloads is not None
        cycles = sum(ref["cycles"][len(p) - BULK_MIN] for p in payloads)
        insns = sum(ref["instructions"][len(p) - BULK_MIN] for p in payloads)
        return cycles, insns, events

    def _batch(self, op: str) -> Dict[str, Any]:
        harness = self.harness
        assert harness is not None
        payloads = self.payloads(self.BATCH) if op == "bulk" else None
        c0, i0, e0 = harness.counters()
        probe_s = hostspeed.probe()
        t0 = clock()
        try:
            if payloads is not None:
                results = harness.bulk(payloads)
            else:
                results = getattr(harness, op)(self.BATCH)
        except Exception:
            _report_exception(f"crossvm_call {op}")
            self.harness = self._build()
            return {"ns": None, "probe_s": None, "failed": self.BATCH,
                    "residual": None}
        seconds = clock() - t0
        c1, i1, e1 = harness.counters()
        want_c, want_i, want_e = self._expected(op, payloads)
        residual = (c1 - c0 - want_c, i1 - i0 - want_i)
        events_ok = (e1 - e0) == want_e
        if residual != (0, 0) or not events_ok:
            failed = self.BATCH
        elif payloads is not None:
            failed = sum(r != len(p) for r, p in zip(results, payloads))
        else:
            pid = harness.executor.pid
            failed = sum(r != pid for r in results)
        return {"ns": seconds / self.BATCH * 1e9, "probe_s": probe_s,
                "failed": failed, "residual": (residual, events_ok)}

    def round(self) -> Dict[str, Any]:
        batches = {op: self._batch(op) for op in OPS}
        return {
            "timed_s": sum(hostspeed.normalize(b["ns"], b["probe_s"])
                          for b in batches.values() if b["ns"] is not None)
            * self.BATCH / 1e9,
            "ns": {op: b["ns"] for op, b in batches.items()},
            "probe_s": {op: b["probe_s"] for op, b in batches.items()},
            "attempted": self.BATCH * len(OPS),
            "failed": sum(b["failed"] for b in batches.values()),
            # Equal across passes exactly when every batch charged what
            # the reference says (bulk per call depends on its size).
            "modeled": {op: b["residual"] for op, b in batches.items()},
        }

    @staticmethod
    def _samples(rounds, op: str, normalized: bool) -> List[float]:
        return sorted(
            hostspeed.normalize(r["ns"][op], r["probe_s"][op])
            if normalized else r["ns"][op]
            for r in rounds if r["ns"][op] is not None)

    def end_to_end(self, rounds):
        # One call of each op per round, so a change that speeds up one
        # op and slows another by as much leaves this flat; the report
        # lines give each op on its own.
        per_call_ns = [
            sum(hostspeed.normalize(r["ns"][op], r["probe_s"][op])
                for op in OPS) / len(OPS)
            for r in rounds if all(r["ns"][op] is not None for op in OPS)]
        if not per_call_ns:
            return {}
        return {"op_ms": statistics.median(per_call_ns) / 1e6}

    def report(self, rounds):
        """Per-op batch median, p90 and sample count, as measured and
        normalized."""
        lines = []
        for op in OPS:
            for normalized in (False, True):
                samples = self._samples(rounds, op, normalized)
                if not samples:
                    continue
                p90 = samples[min(len(samples) - 1,
                                  int(0.9 * len(samples)))]
                lines.append(
                    f"{op}{' (normalized)' if normalized else ''}: median "
                    f"{statistics.median(samples):.0f} ns/call, p90 "
                    f"{p90:.0f} ns/call over {len(samples)} batches of "
                    f"{self.BATCH} calls")
        return lines


# ---------------------------------------------------------------------------
# fleet_2k
# ---------------------------------------------------------------------------

TENANTS = 2000
HORIZON_MS = 20.0


def cell_summary(result: Dict[str, Any]) -> Dict[str, Any]:
    """The modeled outputs of one fleet cell that the digest covers."""
    return {
        "requests": result["requests"],
        "completed": result["completed"],
        "latency": result["latency"],
        "calls": result["calls"],
        "revocations": result.get("revocations", 0),
        "hv": result["hv"],
        "sched_events": result["sched_events"],
    }


def check_cells(cells: Dict[str, Dict[str, Any]],
                expected: Optional[Dict[str, str]]) -> int:
    """Cells that fail an invariant (drained, same arrivals for every
    mechanism) or, where a reference exists, differ from it."""
    requests = {cell["requests"] for cell in cells.values()}
    failed = 0
    for mech, cell in cells.items():
        bad = cell["completed"] != cell["requests"] or len(requests) != 1
        if expected is not None and digest(cell) != expected.get(mech):
            bad = True
        failed += bad
    return failed


class Fleet2k(Workload):
    name = "fleet_2k"
    imports = ("repro.fleet.scheduler", "repro.fleet.traffic")

    def setup(self) -> List[float]:
        from repro.fleet import traffic

        self.specs = traffic.tenant_plan(TENANTS, self.seed)
        return []

    def _cell(self, mechanism: str):
        """One fleet cell: (set-up seconds, replay seconds, summary)."""
        from repro.fleet import campaign, scheduler
        from repro.hw.costs import CYCLES_PER_US

        t0 = clock()
        costs = scheduler.calibrate_costs(mechanism)
        fleet = scheduler.build_fleet(self.specs)
        t1 = clock()
        result = scheduler.FleetScheduler(
            self.specs, costs, seed=self.seed,
            horizon_cycles=int(HORIZON_MS * 1000 * CYCLES_PER_US),
            churn_every=campaign.DEFAULT_CHURN_EVERY, fleet=fleet).run()
        return t1 - t0, clock() - t1, cell_summary(result)

    def round(self) -> Dict[str, Any]:
        from repro.fleet.scheduler import MECHANISMS

        setup_s = replay_s = 0.0
        cells: Dict[str, Dict[str, Any]] = {}
        failed = 0
        for mechanism in MECHANISMS:
            try:
                build, replay, cells[mechanism] = self._cell(mechanism)
            except Exception:
                _report_exception(f"fleet_2k {mechanism}")
                failed += 1
                continue
            setup_s += build
            replay_s += replay
            # Free this cell's fleet before the next one is built, so
            # the peak memory is one fleet's whatever the collector did.
            gc.collect()
        recorded = self.reference["seeds"].get(str(self.seed))
        failed += check_cells(cells, recorded)
        completed = sum(cell["completed"] for cell in cells.values())
        return {
            "setup_s": setup_s,
            "replay_s": replay_s,
            "timed_s": setup_s + replay_s,
            "completed": completed,
            "sched_events": sum(c["sched_events"] for c in cells.values()),
            "attempted": len(MECHANISMS),
            "failed": min(failed, len(MECHANISMS)),
            "modeled": {mech: digest(cell) for mech, cell in cells.items()},
        }

    def end_to_end(self, rounds):
        per_request = [r["replay_s"] / r["completed"] for r in rounds
                       if r["completed"] > 0]
        if not per_request:
            return {}
        return {"op_ms": 1e3 * statistics.median(per_request)}

    def report(self, rounds):
        rates = sorted(r["completed"] / r["replay_s"] for r in rounds
                       if r["replay_s"] > 0)
        if not rates:
            return []
        return [f"fleet_sim_rps: median {statistics.median(rates):.0f} "
                f"simulated requests per host second of replay, over "
                f"{len(rates)} rounds"]


WORKLOADS = {cls.name: cls for cls in (PaperTables, CrossVMCall, Fleet2k)}
