"""The Figure-4 shared page over many cross-VM calls.

Two shortcuts keep the one charging path fast without changing what it
models: the zeroed context-save block is written once per pair and only
charged afterwards, and steps 4 and 6 reuse the bytes just written
instead of reading them back.  The read is still translated in the
reader's context, so a shared frame the reader cannot see faults there.
"""

import pytest

from repro.core.crossvm import (
    _CONTEXT_SAVE_BYTES,
    CrossVMSyscallMechanism,
    SHARED_GVA,
)
from repro.errors import EPTViolation
from repro.hw.mem import PAGE_SIZE
from repro.testbed import build_two_vm_machine, enter_vm_kernel


def _harness(trace):
    machine, vm1, _k1, vm2, k2 = build_two_vm_machine()
    machine.cpu.trace.enabled = trace
    mech = CrossVMSyscallMechanism(machine)
    enter_vm_kernel(machine, vm1)
    state = mech.setup_pair(vm1, vm2)
    executor = k2.spawn("executor")
    enter_vm_kernel(machine, vm1)
    return machine, vm1, vm2, mech, state, executor


def _shared_bytes(machine, state, vm, offset, length):
    """Read the shared region through ``vm``'s own mappings."""
    gpa = state.helper_pt.translate(SHARED_GVA, user=True)
    hpa = vm.ept.translate(gpa + offset)
    return machine.memory.read(hpa, length)


class TestSharedPageContents:
    @pytest.mark.parametrize("trace", [True, False])
    def test_save_block_stays_zero_and_reply_is_the_last(self, trace):
        machine, vm1, vm2, mech, state, ex = _harness(trace)
        pids = [mech.call(vm1, vm2, "getpid", executor=ex)
                for _ in range(5)]
        last = mech.call(vm1, vm2, "getppid", executor=ex)
        assert len(set(pids)) == 1
        assert state.calls == 6
        assert _shared_bytes(machine, state, vm2, 0,
                             _CONTEXT_SAVE_BYTES) == bytes(160)
        wire = repr(last).encode()
        stored = _shared_bytes(machine, state, vm1, _CONTEXT_SAVE_BYTES,
                               4 + len(wire))
        assert stored == len(wire).to_bytes(4, "big") + wire

    def test_every_call_charges_the_save_block_copy(self):
        """The first call writes the block, later ones only charge it:
        each NULL call costs the same, copies included."""
        machine, vm1, vm2, mech, state, ex = _harness(False)
        perf = machine.cpu.perf
        deltas = []
        for _ in range(3):
            before = perf.snapshot()
            mech.call(vm1, vm2, "getpid", executor=ex)
            deltas.append(before.delta(perf.snapshot()))
        assert deltas[0] == deltas[1] == deltas[2]
        assert deltas[0].count("copy") == 5


class TestReadBackAccessCheck:
    def _unmapped_callee_call(self, trace):
        """A request spanning the second shared page, which the callee's
        EPT no longer maps.  The reply fits in the first page, so only
        the callee's step-4 read of the request touches the hole."""
        machine, vm1, vm2, mech, state, ex = _harness(trace)
        fd = mech.call(vm1, vm2, "open", "/dev/null", "w", executor=ex)
        gpa = state.helper_pt.translate(SHARED_GVA, user=True)
        vm2.unmap_gpa(gpa + PAGE_SIZE)
        with pytest.raises(EPTViolation) as info:
            mech.call(vm1, vm2, "write", fd, b"x" * 6000, executor=ex)
        return str(info.value)

    def test_same_fault_with_trace_on_and_off(self):
        assert self._unmapped_callee_call(True) == \
            self._unmapped_callee_call(False)
