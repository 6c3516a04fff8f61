"""Invalidation, revocation, and observer-deopt behaviour of the JIT.

A superblock may only run while nothing can observe intermediate state
and nothing it precomputed has changed.  These tests poke every escape
hatch — epoch bumps, world revocation, fault/audit/telemetry arming,
unsafe STACK_STEPS — and assert both that the engine reacts (the right
counter moves) and that the simulated numbers never drift from the
interpreter's.
"""

import pytest

from repro import audit, faults, jit, telemetry
from repro.core import fastpath
from repro.faults import FaultEngine

from tests.jit.test_jit_equivalence import _build_worldcall_harness


def _counters(machine):
    perf = machine.cpu.perf
    return (perf.instructions, perf.cycles, dict(perf.events))


def _run_sequence(with_jit, mutate):
    """12 hot calls, a mid-workload mutation, 12 more calls.

    ``mutate(machine, runtime, caller, callee)`` runs between the two
    bursts; returns (results, counters, jit stats or None).
    """
    machine, runtime, caller, callee = _build_worldcall_harness(
        lambda request: ("pong", request.payload))
    results = []
    stats = None
    with fastpath.scoped(True), machine.cpu.trace.scoped(False):
        ctx = jit.scoped(threshold=4) if with_jit else None
        engine = ctx.__enter__() if ctx is not None else None
        try:
            def record(payload):
                try:
                    results.append(runtime.call(caller, callee.wid,
                                                payload))
                except Exception as exc:  # noqa: BLE001 - compared
                    results.append(("raised", type(exc).__name__))

            for i in range(12):
                record(("ping", i))
            mutate(machine, runtime, caller, callee)
            for i in range(12):
                record(("ping", 100 + i))
        finally:
            if ctx is not None:
                stats = engine.stats.to_dict()
                ctx.__exit__(None, None, None)
    return results, _counters(machine), stats


class TestEpochInvalidation:
    def test_epoch_bump_mid_workload(self):
        """Evicting and restoring a world-table entry bumps the table's
        structural epoch: the hot superblock is invalidated, recompiled,
        and the counters still match the interpreter exactly."""
        def mutate(machine, runtime, caller, callee):
            entry = machine.world_table.evict(callee.wid)
            assert entry is not None
            machine.world_table.restore_entry(entry)

        res_i, counters_i, _ = _run_sequence(False, mutate)
        res_j, counters_j, stats = _run_sequence(True, mutate)
        assert res_i == res_j
        assert counters_i == counters_j
        # Compiled before the bump, invalidated by it, recompiled after.
        assert stats["invalidations"] >= 1, stats
        assert stats["compiled"] >= 2, stats
        assert stats["hits"] > 0, stats

    def test_revocation_between_hot_calls(self):
        """Destroying the *callee* world between hot calls: every later
        call must fail exactly like the interpreter's (``NoSuchWorld``
        from the table walk), never dispatch a stale block."""
        def mutate(machine, runtime, caller, callee):
            runtime.registry.destroy(callee)

        res_i, counters_i, _ = _run_sequence(False, mutate)
        res_j, counters_j, stats = _run_sequence(True, mutate)
        assert res_i == res_j
        assert res_j[-1] == ("raised", "NoSuchWorld"), res_j[-1]
        assert counters_i == counters_j
        assert stats["invalidations"] >= 1, stats


class TestObserverDeopt:
    def _deopt_probe(self, install, uninstall):
        """Heat the site, arm an observer, keep calling: hits must stop
        and every post-arm dispatch must count a deopt."""
        machine, runtime, caller, callee = _build_worldcall_harness(
            lambda request: ("pong", request.payload))
        with fastpath.scoped(True), machine.cpu.trace.scoped(False):
            with jit.scoped(threshold=4) as engine:
                for i in range(12):
                    runtime.call(caller, callee.wid, ("ping", i))
                assert engine.stats.hits > 0
                hot_hits = engine.stats.hits
                deopts_before = engine.stats.deopts
                install()
                try:
                    for i in range(6):
                        result = runtime.call(caller, callee.wid,
                                              ("ping", i))
                        assert result == ("pong", ("ping", i))
                finally:
                    uninstall()
                stats = engine.stats.to_dict()
        assert stats["hits"] == hot_hits, stats
        assert stats["deopts"] >= deopts_before + 6, stats

    def test_fault_engine_arming_deopts(self):
        self._deopt_probe(lambda: faults.install(FaultEngine([])),
                          faults.uninstall)

    def test_audit_recorder_arming_deopts(self):
        from repro.audit.recorder import FlightRecorder
        self._deopt_probe(lambda: audit.install(FlightRecorder()),
                          audit.uninstall)

    def test_telemetry_session_arming_deopts(self):
        self._deopt_probe(
            lambda: telemetry.install(
                telemetry.TelemetrySession.lightweight("jit-deopt")),
            telemetry.uninstall)


class TestSuperblockSafety:
    def test_unsafe_stack_steps_veto_compilation(self, monkeypatch):
        """A system whose STACK_STEPS are not all superblock-safe never
        compiles — the interpreter runs every redirect instead."""
        from repro.analysis import experiments
        from repro.systems import shadowcontext

        monkeypatch.setattr(shadowcontext, "SUPERBLOCK_SAFE", frozenset())
        with fastpath.scoped(True):
            interp = experiments.run_table4(iterations=4)
            with jit.scoped(threshold=2) as engine:
                jitted = experiments.run_table4(iterations=4)
        assert interp == jitted
        # The shadow site never compiles; the crossvm/worldcall sites
        # of the other systems still do.
        keys = [key for key in engine._blocks if key[0] == "shadow"]
        assert keys == [], keys
        assert engine.stats.compiled > 0


class TestCrossvmVmIdentityGuard:
    def test_block_deopts_when_entered_from_a_third_vm(self):
        """Every VMCS points at the hypervisor's one EPTP list, so the
        list-identity guard cannot tell VMs apart; the ``vm_name`` guard
        must.  A vm1->vm2 block executed from vm3's kernel deopts before
        touching any state, and still hits from vm1."""
        from repro.core.crossvm import CrossVMSyscallMechanism
        from repro.guestos import boot_kernel
        from repro.jit.superblocks import CrossvmSuperblock
        from repro.testbed import build_two_vm_machine, enter_vm_kernel

        machine, vm1, k1, vm2, k2 = build_two_vm_machine()
        vm3 = machine.hypervisor.create_vm("vm3")
        boot_kernel(machine, vm3)
        mech = CrossVMSyscallMechanism(machine)
        cpu = machine.cpu
        with fastpath.scoped(True), cpu.trace.scoped(False):
            enter_vm_kernel(machine, vm1)
            mech.setup_pair(vm1, vm2)
            enter_vm_kernel(machine, vm1)
            expected_pid = mech.call(vm1, vm2, "getpid")
            with jit.scoped(threshold=1) as engine:
                block = CrossvmSuperblock.compile(engine, mech, vm1, vm2,
                                                  None)
                assert block is not None

                enter_vm_kernel(machine, vm3)
                # Every other guard passes: same list, same slots,
                # guest kernel with a page table loaded.
                assert cpu.eptp_list is block.eptp_list
                assert cpu.ring == 0 and cpu.page_table is not None

                def snapshot():
                    return (_counters(machine), cpu.ept, cpu.vm_name,
                            cpu.page_table, cpu.interrupts.idt,
                            engine.stats.to_dict())

                before = snapshot()
                assert block.execute_syscall(
                    "getpid", (), {}, None) is jit.DEOPT
                assert block.execute_fn(lambda p: p, "x") is jit.DEOPT
                assert snapshot() == before

                enter_vm_kernel(machine, vm1)
                hits = engine.stats.hits
                assert block.execute_syscall(
                    "getpid", (), {}, None) == expected_pid
                assert engine.stats.hits == hits + 1
