"""Golden invariant: telemetry must change wall-clock only.

With a session installed, every modeled quantity — instructions,
cycles, per-event counts — must be bit-identical to a telemetry-off
run, with transition-trace recording both on (``slowpath``: world
labels built, one event per crossing) and off (``fastpath``: the
label-free transitions the table runners take).  Telemetry hooks
observe; they never charge."""

import pytest

from repro import telemetry
from repro.analysis import experiments
from repro.core import convention

#: A cross-section of Table-4 columns: the native surface, a plain
#: baseline, the virq-injection-heavy baseline, and an optimized path.
COLUMNS = [(None, False), ("Proxos", False), ("ShadowContext", False),
           ("HyperShell", True)]


def _column_deltas(system_name, optimized, iterations=2, trace=False):
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


@pytest.mark.parametrize("trace", [True, False],
                         ids=["slowpath", "fastpath"])
@pytest.mark.parametrize("system_name,optimized", COLUMNS,
                         ids=[f"{n or 'native'}-{'opt' if o else 'orig'}"
                              for n, o in COLUMNS])
def test_counters_identical_with_telemetry(system_name, optimized, trace):
    convention.clear_caches()
    plain = _column_deltas(system_name, optimized, trace=trace)
    with telemetry.scoped("equivalence"):
        traced = _column_deltas(system_name, optimized, trace=trace)
    assert traced == plain


def test_fastpath_equivalence_holds_under_telemetry():
    """Trace recording on and off still agree on every counter while a
    telemetry session is collecting."""
    with telemetry.scoped("equivalence"):
        convention.clear_caches()
        recorded = _column_deltas("ShadowContext", False, trace=True)
        convention.clear_caches()
        label_free = _column_deltas("ShadowContext", False, trace=False)
    assert label_free == recorded


def test_figure4_identical_with_telemetry():
    plain = experiments.run_figure4()
    with telemetry.scoped("fig4") as session:
        traced = experiments.run_figure4()
    assert traced == plain
    assert session.metrics.family("core.crossvm_roundtrips")
