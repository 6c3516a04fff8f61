"""Golden equivalence: trace recording must change wall-clock only.

There is one charging path.  The two CPU models that remain
independent are the trace-recording transitions (world labels built,
one :class:`~repro.hw.trace.TransitionEvent` per crossing) and the
label-free ones the table runners take.  For every Table-4 measurement
(every system x variant x op, plus native) both must produce
*identical* instructions, cycles, and per-event counts, starting from
an empty marshaling cache each time.
"""

import pytest

from repro.analysis import experiments, parallel
from repro.core import convention

from tests.core.test_marshal_hoist import _build_worldcall_harness

#: Every Table-4 column: native plus each system x variant.
COLUMNS = [(None, False)] + [(name, optimized)
                             for name in experiments.SYSTEMS
                             for optimized in (False, True)]


def _column_deltas(system_name, optimized, iterations=3, trace=False):
    """Raw per-op counter deltas for one Table-4 column."""
    convention.clear_caches()
    if system_name is None:
        surface = experiments._native_surface()
    else:
        surface = experiments._surface_for(system_name, optimized)
    experiments._machine_of(surface).cpu.trace.enabled = trace
    out = {}
    for op, (method, divisor) in experiments.TABLE4_OPS.items():
        m = experiments._measure_op(surface, method, divisor, iterations)
        out[op] = (m.delta.instructions, m.delta.cycles,
                   dict(m.delta.events))
    return out


class TestTable4Golden:
    @pytest.mark.parametrize("system_name,optimized", COLUMNS,
                             ids=[f"{n or 'native'}-{'opt' if o else 'orig'}"
                                  for n, o in COLUMNS])
    def test_counters_identical(self, system_name, optimized):
        traced = _column_deltas(system_name, optimized, trace=True)
        plain = _column_deltas(system_name, optimized, trace=False)
        for op in traced:
            t_insns, t_cycles, t_events = traced[op]
            p_insns, p_cycles, p_events = plain[op]
            assert p_insns == t_insns, (op, "instructions")
            assert p_cycles == t_cycles, (op, "cycles")
            assert p_events == t_events, (op, "events")


class TestMergedResults:
    """Whole runners, with ``experiments._tune`` (which switches the
    trace off on every table machine) stubbed out for the traced run."""

    def test_run_table4_identical(self, monkeypatch):
        convention.clear_caches()
        plain = experiments.run_table4(iterations=2)
        convention.clear_caches()
        monkeypatch.setattr(experiments, "_tune", lambda machine: None)
        traced = experiments.run_table4(iterations=2)
        assert traced == plain

    def test_table5_cell_identical(self, monkeypatch):
        convention.clear_caches()
        plain = experiments.table5_cell("uptime")
        convention.clear_caches()
        monkeypatch.setattr(experiments, "_tune", lambda machine: None)
        traced = experiments.table5_cell("uptime")
        assert traced == plain


class TestWorldCallMicroflow:
    """The bare runtime with no system around it: a hot world-call
    round trip returns the same results and counters with the trace
    recording and without."""

    def _roundtrip_counters(self, trace, calls=24):
        machine, runtime, caller, callee = _build_worldcall_harness(
            lambda request: ("pong", request.payload))
        convention.clear_caches()
        with machine.cpu.trace.scoped(trace):
            results = [runtime.call(caller, callee.wid, ("ping", i))
                       for i in range(calls)]
        perf = machine.cpu.perf
        return results, (perf.instructions, perf.cycles, dict(perf.events))

    def test_worldcall_roundtrip_identical(self):
        traced_results, traced_counters = self._roundtrip_counters(True)
        plain_results, plain_counters = self._roundtrip_counters(False)
        assert plain_results == traced_results
        assert plain_counters == traced_counters


class TestParallelRunner:
    def test_serial_fallback_matches_serial_runner(self):
        assert (parallel.run_table4(iterations=2, workers=1)
                == experiments.run_table4(iterations=2))

    def test_pool_matches_serial_runner(self):
        assert (parallel.run_table4(iterations=2, workers=2)
                == experiments.run_table4(iterations=2))

    def test_run_cells_preserves_spec_order(self):
        specs = experiments.table4_specs(iterations=1)
        cells = parallel.run_cells(specs, workers=2)
        assert [(c.runner, c.args) for c in cells] == specs
        assert all(c.wall_seconds >= 0 for c in cells)

    def test_sweep_shape(self):
        sweep = parallel.run_sweep(tables=("table4",), workers=1)
        assert set(sweep["results"]["table4"]) == set(experiments.TABLE4_OPS)
        assert sweep["wall_seconds"] > 0
        assert len(sweep["cells"]) == len(experiments.table4_specs())
