"""Regression: one marshaling walk per payload on the hot path.

``WorldCallRuntime._call`` once marshaled each direction twice —
``encode`` walked the payload to derive the cache key and produce the
wire, then ``decode`` parsed the wire right back.  The hoisted
:func:`repro.core.convention.roundtrip` keys both halves off a single
walk and hits its own cache in steady state.  This pins the counts
with counting stubs so the re-derivation cannot creep back in.
"""

from repro.core import convention, fastpath


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


class TestMarshalHoist:
    def test_steady_state_is_roundtrip_only(self, monkeypatch):
        machine, runtime, caller, callee = _build_worldcall_harness(
            lambda request: ("pong", request.payload))
        payload = ("ping", 7)
        with fastpath.scoped(True), machine.cpu.trace.scoped(False):
            # Warm every marshaling cache outside the counted window.
            for _ in range(4):
                runtime.call(caller, callee.wid, payload)
            counts = {"encode": 0, "decode": 0, "roundtrip": 0}
            for name in counts:
                _counting(monkeypatch, name, counts)
            calls = 10
            for _ in range(calls):
                result = runtime.call(caller, callee.wid, payload)
                assert result == ("pong", payload)
        # One roundtrip for the request, one for the result; a
        # regression to separate encode+decode per direction shows up
        # as nonzero encode/decode counts.
        assert counts == {"encode": 0, "decode": 0,
                          "roundtrip": 2 * calls}, counts
