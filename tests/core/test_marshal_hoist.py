"""Regression: one marshaling walk per payload on the hot path.

``WorldCallRuntime._call`` once marshaled each direction twice —
``encode`` walked the payload to derive the cache key and produce the
wire, then ``decode`` parsed the wire right back.  The hoisted
:func:`repro.core.convention.roundtrip` keys both halves off a single
walk, builds the callee's copy from the value instead of parsing the
wire, and takes the same path with a fault engine installed.  This
pins the counts with counting stubs so the re-derivation cannot creep
back in, for world calls and for the cross-VM round trip alike.
"""

from contextlib import nullcontext

import pytest

from repro import faults, hooks
from repro.core import convention
from repro.faults import FaultEngine


def _build_worldcall_harness(handler):
    """A bare two-VM runtime: one kernel world calling another whose
    handler is ``handler``, with the CPU left in the caller."""
    from repro.core.call import WorldCallRuntime
    from repro.core.world import WorldRegistry
    from repro.hw.costs import FEATURES_CROSSOVER
    from repro.testbed import build_two_vm_machine, enter_vm_kernel

    machine, vm1, k1, vm2, k2 = build_two_vm_machine(
        features=FEATURES_CROSSOVER)
    registry = WorldRegistry(machine)
    runtime = WorldCallRuntime(machine, registry)
    enter_vm_kernel(machine, vm1)
    caller = registry.create_kernel_world(k1)
    enter_vm_kernel(machine, vm2)
    callee = registry.create_kernel_world(k2, handler=handler)
    enter_vm_kernel(machine, vm1)
    machine.cpu.write_cr3(k1.master_page_table)
    return machine, runtime, caller, callee


def _counting(monkeypatch, name, counts):
    real = getattr(convention, name)

    def wrapper(arg):
        counts[name] += 1
        return real(arg)

    monkeypatch.setattr(convention, name, wrapper)


def _steady_world_call_counts(monkeypatch):
    """Marshaling calls made by ten steady-state world calls."""
    machine, runtime, caller, callee = _build_worldcall_harness(
        lambda request: ("pong", request.payload))
    payload = ("ping", 7)
    with machine.cpu.trace.scoped(False):
        # Warm every marshaling cache outside the counted window.
        for _ in range(4):
            runtime.call(caller, callee.wid, payload)
        counts = {"encode": 0, "decode": 0, "roundtrip": 0}
        for name in counts:
            _counting(monkeypatch, name, counts)
        for _ in range(10):
            result = runtime.call(caller, callee.wid, payload)
            assert result == ("pong", payload)
    return counts


class TestMarshalHoist:
    def test_steady_state_is_roundtrip_only(self, monkeypatch):
        # One roundtrip for the request, one for the result; a
        # regression to separate encode+decode per direction shows up
        # as nonzero encode/decode counts.
        assert _steady_world_call_counts(monkeypatch) == {
            "encode": 0, "decode": 0, "roundtrip": 20}

    def test_fault_engine_takes_the_same_path(self, monkeypatch):
        """An installed fault engine no longer forks the marshaling into
        encode plus a decode of register-passed payloads and results."""
        with faults.scoped(FaultEngine([])):
            counts = _steady_world_call_counts(monkeypatch)
        assert counts == {"encode": 0, "decode": 0, "roundtrip": 20}


def _build_crossvm_harness():
    """A two-VM cross-VM syscall pair with ``/dev/null`` open in the
    remote executor; the CPU is left in the caller VM's kernel."""
    from repro.core.crossvm import CrossVMSyscallMechanism
    from repro.hw.costs import FEATURES_CROSSOVER
    from repro.testbed import build_two_vm_machine, enter_vm_kernel

    machine, vm1, _k1, vm2, k2 = build_two_vm_machine(
        features=FEATURES_CROSSOVER)
    machine.cpu.trace.enabled = False
    mech = CrossVMSyscallMechanism(machine)
    mech.setup_pair(vm1, vm2)
    executor = k2.spawn("executor")
    enter_vm_kernel(machine, vm1)

    def call(name, *args):
        return mech.call(vm1, vm2, name, *args, executor=executor)

    return machine, call, call("open", "/dev/null", "w")


class TestCrossVMMarshalWalks:
    @pytest.mark.parametrize("armed", [False, True],
                             ids=["no-engine", "fault-engine"])
    def test_one_roundtrip_per_direction_no_decode(self, monkeypatch,
                                                   armed):
        """A NULL call and a unique-payload bulk write each marshal the
        request and the reply with one ``roundtrip`` and never parse a
        wire back, with or without a fault engine installed."""
        _machine, call, fd = _build_crossvm_harness()
        engine = faults.scoped(FaultEngine([])) if armed else nullcontext()
        with engine:
            assert hooks.faults is not None if armed else hooks.faults is None
            call("getpid")
            call("write", fd, b"warm" * 100)
            counts = {"encode": 0, "decode": 0, "roundtrip": 0}
            for name in counts:
                _counting(monkeypatch, name, counts)
            assert call("getpid") > 0
            payload = b"unique, never marshaled before" * 20
            assert call("write", fd, payload) == len(payload)
        assert counts == {"encode": 0, "decode": 0, "roundtrip": 4}, counts

    def test_poisoned_cache_repaired_on_crossing(self, monkeypatch):
        """With a fault engine installed, a crossing whose cached wires
        were poisoned still writes the reference bytes into the shared
        page, returns the right result and counts the repair."""
        from repro.core.crossvm import _MSG_GVA

        machine, call, _fd = _build_crossvm_harness()
        convention.clear_caches()
        with faults.scoped(FaultEngine([])):
            # Warm under the engine so integrity digests are recorded.
            clean = call("lstat", "/dev/null")
            assert convention.poison_encode_cache() >= 2
            writes = []
            real_write = machine.cpu.write_virt

            def spy(memory, gva, data):
                if gva == _MSG_GVA:
                    writes.append(data[4:])
                real_write(memory, gva, data)

            monkeypatch.setattr(machine.cpu, "write_virt", spy)
            repaired = convention.cache_stats["poison_repaired"]
            result = call("lstat", "/dev/null")
        assert result == clean
        assert convention.cache_stats["poison_repaired"] - repaired == 2
        reference = [repr(convention._to_wire(v)).encode()
                     for v in (("lstat", ("/dev/null",), {}), clean)]
        assert writes == reference
