"""Record ``reference.json``: what the simulator models today.

Usage (from the repository root)::

    python3 perfbench/record.py

Writes a digest of every Table 4-7 row, the modeled counters of one
call of each ``crossvm_call`` op (per payload size for the bulk
``write``), and a digest of every ``fleet_2k`` cell at each seed of
:data:`FLEET_SEEDS`.  Re-record only for a change that names a modeling fix.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Seeds whose ``fleet_2k`` cells are recorded.
FLEET_SEEDS = range(10)


def record_tables() -> dict:
    from repro.analysis import experiments
    from repro.core import convention
    from digest import digest
    from workloads import TABLES, table_rows

    convention.clear_caches()
    rows = {}
    for table in TABLES:
        rows.update(table_rows(table, getattr(experiments, f"run_{table}")()))
    bad = [k for k, r in rows.items()
           if k.startswith("table5/") and not r["outputs_consistent"]]
    if bad:
        raise SystemExit(f"Table 5 outputs disagree in {bad}")
    return {"rows": {key: digest(row) for key, row in rows.items()}}


def _one_call(harness, fn) -> tuple:
    c0, i0, e0 = harness.counters()
    fn()
    c1, i1, e1 = harness.counters()
    return c1 - c0, i1 - i0, tuple(sorted((e1 - e0).items()))


def record_crossvm() -> dict:
    from workloads import BULK_MAX, BULK_MIN, CrossVMHarness

    harness = CrossVMHarness()
    out = {}
    for op in ("null", "trap"):
        getattr(harness, op)(64)
        samples = {_one_call(harness, lambda: getattr(harness, op)(1))
                   for _ in range(8)}
        if len(samples) != 1:
            raise SystemExit(f"{op}: modeled cost varies per call")
        (cycles, insns, events), = samples
        out[op] = {"cycles": cycles, "instructions": insns,
                   "events": dict(events)}
    serial = 0

    def payload(size: int) -> bytes:
        nonlocal serial
        serial += 1
        return serial.to_bytes(8, "big") + bytes(size - 8)

    harness.bulk([payload(BULK_MAX) for _ in range(64)])
    cycles, insns, events = [], [], set()
    for size in range(BULK_MIN, BULK_MAX + 1):
        c, i, e = _one_call(harness, lambda: harness.bulk([payload(size)]))
        cycles.append(c)
        insns.append(i)
        events.add(e)
    if len(events) != 1:
        raise SystemExit("bulk: event counts vary with payload size")
    out["bulk"] = {"cycles": cycles, "instructions": insns,
                   "events": dict(events.pop())}
    return out


def record_fleet(seeds) -> dict:
    from digest import digest
    from repro.fleet.scheduler import MECHANISMS
    from workloads import Fleet2k, check_cells

    cells = {}
    for seed in seeds:
        workload = Fleet2k(seed, {"fleet_2k": {"seeds": {}}})
        workload.setup()
        summaries = {m: workload._cell(m)[-1] for m in MECHANISMS}
        if check_cells(summaries, None):
            raise SystemExit(f"fleet seed {seed}: invariants fail")
        cells[str(seed)] = {m: digest(c) for m, c in summaries.items()}
        print(f"fleet seed {seed}: {cells[str(seed)]}", file=sys.stderr)
    return {"seeds": cells}


def main() -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from digest import REFERENCE_PATH

    reference = {
        "paper_tables": record_tables(),
        "crossvm_call": record_crossvm(),
        "fleet_2k": record_fleet(FLEET_SEEDS),
    }
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
