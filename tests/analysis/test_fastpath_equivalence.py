"""Golden equivalence: the fast path must change wall-clock only.

For every Table-4 measurement (every system x variant x op, plus
native), the fast-path engine — marshaling cache, fused cost charging,
trace-off machines — must produce *identical* instructions, cycles, and
per-event counts to the seed's step-by-step path.
"""

import pytest

from repro.analysis import experiments, parallel
from repro.core import convention, fastpath

from tests.core.test_marshal_hoist import _build_worldcall_harness

#: Every Table-4 column: native plus each system x variant.
COLUMNS = [(None, False)] + [(name, optimized)
                             for name in experiments.SYSTEMS
                             for optimized in (False, True)]


def _column_deltas(system_name, optimized, iterations=3):
    """Raw per-op counter deltas for one Table-4 column."""
    if system_name is None:
        surface = experiments._native_surface()
    else:
        surface = experiments._surface_for(system_name, optimized)
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
        convention.clear_caches()
        with fastpath.scoped(False):
            slow = _column_deltas(system_name, optimized)
        with fastpath.scoped(True):
            fast = _column_deltas(system_name, optimized)
        for op in slow:
            s_insns, s_cycles, s_events = slow[op]
            f_insns, f_cycles, f_events = fast[op]
            assert f_insns == s_insns, (op, "instructions")
            assert f_cycles == s_cycles, (op, "cycles")
            assert f_events == s_events, (op, "events")


class TestMergedResults:
    def test_run_table4_identical(self):
        with fastpath.scoped(False):
            slow = experiments.run_table4(iterations=2)
        with fastpath.scoped(True):
            fast = experiments.run_table4(iterations=2)
        assert slow == fast

    def test_table5_cell_identical(self):
        with fastpath.scoped(False):
            slow = experiments.table5_cell("uptime")
        with fastpath.scoped(True):
            fast = experiments.table5_cell("uptime")
        assert slow == fast


class TestWorldCallMicroflow:
    """The bare runtime with no system around it: a hot world-call
    round trip returns the same results and counters stepwise and
    fused."""

    def _roundtrip_counters(self, fast, calls=24):
        machine, runtime, caller, callee = _build_worldcall_harness(
            lambda request: ("pong", request.payload))
        convention.clear_caches()
        with fastpath.scoped(fast), machine.cpu.trace.scoped(False):
            results = [runtime.call(caller, callee.wid, ("ping", i))
                       for i in range(calls)]
        perf = machine.cpu.perf
        return results, (perf.instructions, perf.cycles, dict(perf.events))

    def test_worldcall_roundtrip_identical(self):
        slow_results, slow_counters = self._roundtrip_counters(False)
        fast_results, fast_counters = self._roundtrip_counters(True)
        assert fast_results == slow_results
        assert fast_counters == slow_counters


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
