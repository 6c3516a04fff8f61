"""Fixed call shapes, charged one primitive at a time, pinned to literals.

Every boundary crossing is charged step by step: a world call is
``world_save_state`` + ``world_param_setup`` + ..., a cross-VM call's
entry is ``cr3_write`` + ``int_toggle`` + ``vmfunc_ept_switch`` + ...
The steps of one shape never vary, so each shape has one total
(instructions, cycles, per-event counts) under the default cost model.
These tests pin those totals as literal numbers: a cost-model edit or a
charging change that moves one shows up here, not as a drifted table.
"""

import pytest

from repro.core.call import _SCHED_RELOAD
from repro.hw.costs import Cost, DEFAULT_COST_MODEL, FEATURES_VMFUNC
from repro.hw.cpu import CPU, Ring
from repro.hw.perf import PerfCounters

M = DEFAULT_COST_MODEL


def _stepwise(*kinds, perf=None):
    """Charge each primitive of a shape in order; ``kinds`` entries are
    cost-model field names, optionally ``(kind, repeat)``."""
    perf = perf if perf is not None else PerfCounters()
    for spec in kinds:
        kind, count = spec if isinstance(spec, tuple) else (spec, 1)
        for _ in range(count):
            perf.charge(kind, getattr(M, kind))
    return perf


def _totals(perf):
    return perf.instructions, perf.cycles, dict(perf.events)


class TestChargeBatch:
    """Sequential charges accumulate exactly."""

    def test_batch_equals_sequential_charges(self):
        perf = _stepwise("syscall_trap", "sysret")
        perf.charge("copy", M.copy(32))
        perf.charge("copy", M.copy(32))
        assert _totals(perf) == (74, 304, {"syscall_trap": 1, "sysret": 1,
                                           "copy": 2})

    def test_batch_accumulates_existing_events(self):
        perf = _stepwise("vmexit")
        perf.charge("vmexit", Cost(1, 2))
        perf.charge("vmexit", Cost(1, 2))
        assert _totals(perf) == (2, 804, {"vmexit": 3})


class TestFuse:
    def test_fuse_sums_costs_and_counts(self):
        perf = _stepwise("cr3_write", ("int_toggle", 2), "idt_switch")
        assert _totals(perf) == (5, 390, {"cr3_write": 1, "int_toggle": 2,
                                          "idt_switch": 1})

    def test_fuse_memoizes_per_model(self):
        """The same shape charged twice costs exactly twice."""
        perf = _stepwise("vmexit")
        assert _totals(perf) == (0, 800, {"vmexit": 1})
        _stepwise("vmexit", perf=perf)
        assert _totals(perf) == (0, 1600, {"vmexit": 2})

    def test_world_switch_classification_reuses_perf_kinds(self):
        perf = _stepwise("vmexit", "vmentry", "idt_switch", "cr3_write")
        delta = PerfCounters().snapshot().delta(perf.snapshot())
        assert (delta.instructions, delta.cycles) == (3, 1750)
        assert delta.world_switches == 2

    def test_apply_with_extra_cost(self):
        perf = _stepwise(("int_toggle", 2))
        perf.charge("copy", M.copy(160))
        assert _totals(perf) == (12, 50, {"int_toggle": 2, "copy": 1})


class TestShapes:
    def test_syscall_entry_matches_sequential(self):
        """User -> kernel half of a native syscall, as
        ``Process.syscall`` charges it, with and without the trace."""
        for trace in (True, False):
            cpu = CPU(M, FEATURES_VMFUNC)
            cpu.trace.enabled = trace
            cpu.ring = int(Ring.USER)
            cpu.charge("user_wrapper")
            cpu.syscall_trap("getpid")
            cpu.charge("syscall_dispatch")
            assert _totals(cpu.perf) == (220, 750, {
                "user_wrapper": 1, "syscall_trap": 1,
                "syscall_dispatch": 1}), trace

    def test_vmexit_roundtrip_matches_sequential(self):
        perf = _stepwise("vmexit", "vmexit_handle", "vmentry")
        assert _totals(perf) == (400, 2600, {
            "vmexit": 1, "vmexit_handle": 1, "vmentry": 1})

    def test_callee_entry_includes_sched_reload(self):
        perf = PerfCounters()
        perf.charge("sched_reload", _SCHED_RELOAD)
        _stepwise("world_authorize", perf=perf)
        assert _totals(perf) == (35, 110, {"sched_reload": 1,
                                           "world_authorize": 1})

    @pytest.mark.parametrize("install", [True, False])
    def test_crossvm_enter_idt_variants(self, install):
        """Figure-4 steps 2-4 minus the copies: helper CR3, cli,
        (IDT2), VMFUNC, sti."""
        kinds = ["cr3_write", "int_toggle"]
        if install:
            kinds.append("idt_switch")
        kinds += ["vmfunc_ept_switch", "int_toggle"]
        perf = _stepwise(*kinds)
        events = {"cr3_write": 1, "int_toggle": 2, "vmfunc_ept_switch": 1}
        if install:
            events["idt_switch"] = 1
        expected = (6, 550) if install else (4, 450)
        assert _totals(perf) == expected + (events,)
