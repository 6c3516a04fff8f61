"""The hook bus (repro.hooks): clean-import state, scoped nesting, the
per-event trace binding, and the generic cell protocol of the parallel
runner."""

import os
import subprocess
import sys

import pytest

from repro import audit, faults, hooks, telemetry
from repro.analysis import experiments, parallel
from repro.audit import FlightRecorder
from repro.hw.costs import FEATURES_CROSSOVER
from repro.machine import Machine


class TestCleanImport:
    def test_every_event_tuple_is_empty_on_a_clean_import(self):
        """Importing the whole package (every subsystem, the machine
        stack, the runner) installs nothing."""
        code = (
            "import repro, repro.hooks as h\n"
            "import repro.analysis.parallel, repro.fleet.campaign\n"
            "import repro.audit, repro.faults, repro.observatory\n"
            "import repro.switchless, repro.telemetry, repro.xray\n"
            "busy = [e for e in h.EVENTS if getattr(h, e) != ()]\n"
            "assert not busy, busy\n"
            "assert h.installed() == [], h.installed()\n"
            "assert h.faults is None and h.switchless is None\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(hooks.__file__) + "/..",
                        env.get("PYTHONPATH")) if p)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_every_event_has_a_module_tuple(self):
        for event in hooks.EVENTS:
            assert getattr(hooks, event) == ()


class TestScoped:
    def test_nested_scopes_restore_previous_subscribers(self):
        outer, inner = FlightRecorder("outer"), FlightRecorder("inner")
        with audit.scoped(outer):
            assert hooks.recovery == (outer.on_recovery,)
            with audit.scoped(inner):
                assert audit.current() is inner
                assert hooks.recovery == (inner.on_recovery,)
            assert audit.current() is outer
            assert hooks.recovery == (outer.on_recovery,)
        assert audit.current() is None
        assert hooks.recovery == ()

    def test_scope_restores_when_the_block_raises(self):
        outer, inner = FlightRecorder("outer"), FlightRecorder("inner")
        with audit.scoped(outer):
            with pytest.raises(RuntimeError):
                with audit.scoped(inner):
                    raise RuntimeError("boom")
            assert audit.current() is outer
            assert hooks.transition == (outer.on_transition,)
        assert audit.current() is None
        assert hooks.transition == ()

    def test_callbacks_run_in_fixed_order_not_install_order(self):
        recorder = FlightRecorder("a")
        with audit.scoped(recorder):
            with telemetry.scoped("t") as session:
                first = hooks.recovery
        with telemetry.scoped("t") as session2:
            with audit.scoped(recorder):
                second = hooks.recovery
        assert [fn.__self__ for fn in first] == [session, recorder]
        assert [fn.__self__ for fn in second] == [session2, recorder]

    def test_policy_seams_follow_the_installed_engine(self):
        engine = faults.FaultEngine([])
        with faults.scoped(engine):
            assert hooks.faults is engine
        assert hooks.faults is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            hooks.install("jit", object())


class TestTraceReadsTheBusPerEvent:
    def test_session_sees_old_machines_and_drops_after_exit(self):
        before = Machine(features=FEATURES_CROSSOVER)
        with telemetry.scoped("t") as session:
            events = session.metrics.counter("trace.events", kind="vmexit")
            inside = Machine(features=FEATURES_CROSSOVER)
            before.cpu.trace.record("vmexit", "K(vm1)", "K(host)")
            assert events.value == 1    # built before the session
            inside.cpu.trace.record("vmexit", "K(vm1)", "K(host)")
            assert events.value == 2
        inside.cpu.trace.record("vmexit", "K(vm1)", "K(host)")
        assert telemetry.current() is None
        assert events.value == 2        # the closed session hears nothing


def _stats_of(recorder_fn):
    with audit.scoped(FlightRecorder("cells")) as recorder:
        recorder_fn()
    return recorder.stats(), recorder.to_log()


class TestCellProtocol:
    SPECS = experiments.table4_specs(1)[:3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parent_audit_recorder_keeps_every_cell_record(self, workers):
        serial, _ = _stats_of(lambda: [
            experiments.CELL_RUNNERS[runner](*args)
            for runner, args in self.SPECS])
        pooled, log = _stats_of(
            lambda: parallel.run_cells(self.SPECS, workers=workers))
        assert serial["records"] > 0
        assert pooled == serial
        assert audit.verify_chain(log) == []

    def test_installed_fault_engine_keeps_cells_in_process(self):
        with faults.scoped(faults.FaultEngine([])):
            cells = parallel.run_cells(self.SPECS, workers=2)
        assert {cell.worker_pid for cell in cells} == {os.getpid()}

    def test_cells_carry_one_payload_per_installed_kind(self):
        with telemetry.scoped("t"), audit.scoped(FlightRecorder("r")):
            cells = parallel.run_cells(self.SPECS[:1], workers=1)
        assert sorted(cells[0].payloads) == ["audit", "telemetry"]
