"""Proxos (Ta-Min et al., OSDI 2006) reimplementation — Section 6, case 1.

A trusted private application (linked against a library OS) runs in
VM1 and routes selected syscalls to an untrusted commodity OS in VM2.

**Baseline** (the published design, 6 world switches per call): each
redirected syscall traps to the VMM with a hypercall; the VMM marshals
the request, injects a virtual interrupt into the commodity OS, which
enqueues the call on a host-process descriptor and executes it when the
stub process is scheduled; completion comes back via another hypercall.

**Optimized**: the private app — running at ring 0 under its libOS, so
with *no ring crossing at all* — jumps to the commodity kernel directly
with the VMFUNC cross-VM syscall mechanism (Section 4.3).
"""

from __future__ import annotations

from typing import Any

from repro.core import convention
from repro.errors import GuestOSError, SimulationError
from repro.hw.cpu import Mode, Ring
from repro.hw.vmx import ExitReason
from repro.hypervisor.injection import VECTOR_SYSCALL_REDIRECT
from repro.systems.base import CrossWorldSystem


#: Profiler step labels for the baseline hypercall path (Figure 2,
#: case 1): ``(trace event kind, detail) -> canonical path step``.
STACK_STEPS = {
    ("vmexit", "proxos redirect"): "vmcall-entry",
    ("vm_schedule", "run commodity OS"): "schedule-commodity",
    ("vmentry", "deliver to commodity OS"): "inject-commodity",
    ("syscall_trap", "proxos enqueue"): "enqueue-trap",
    ("sysret", "run stub"): "wake-stub",
    ("vmexit", "proxos done"): "vmcall-done",
    ("vmentry", "resume private VM"): "resume-private",
}


class Proxos(CrossWorldSystem):
    """Proxos: private app in ``local_vm``, commodity OS in ``remote_vm``."""

    name = "Proxos"

    def _setup_extra(self) -> None:
        """Create the stub (host) process in the commodity OS."""
        assert self.remote_executor is not None
        self.remote_executor.name = "proxos-stub"
        self.stub = self.remote_executor

    # ------------------------------------------------------------------
    # the measured operation
    # ------------------------------------------------------------------

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """One redirected syscall (from the private VM's kernel/libOS)."""
        if self.optimized:
            self._require_local_kernel()
            return self._optimized_redirect(name, *args, **kwargs)
        return self._baseline_redirect(name, *args, **kwargs)

    def libos_syscall(self, name: str, *args, **kwargs) -> Any:
        """The private app's entry point: a libOS *function call* (the
        app runs at ring 0, so no trap), then the redirection."""
        cpu = self.machine.cpu
        if cpu.mode is not Mode.NON_ROOT or cpu.vm_name != self.local_vm.name:
            raise SimulationError("private app is not running")
        cpu.require_ring(int(Ring.KERNEL), "libOS syscall")
        cpu.charge("user_wrapper")   # the libOS function-call stub
        return self.redirect_syscall(name, *args, **kwargs)

    # ------------------------------------------------------------------
    # baseline: hypercall -> inject -> stub executes -> hypercall back
    # ------------------------------------------------------------------

    def _baseline_redirect(self, name: str, *args, **kwargs) -> Any:
        self._require_local_kernel()
        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        cm = self.machine.cost_model

        # 1. Trap to the VMM with a hypercall carrying the request.
        request = convention.encode((name, args, kwargs))
        cpu.vmexit(ExitReason.VMCALL, "proxos redirect")
        cpu.charge("vmexit_handle")
        cpu.charge("hypercall_dispatch")
        cpu.perf.charge("copy", cm.copy(len(request)))   # marshal request

        # 2. Inject the redirected syscall into the commodity OS and
        #    schedule it.
        hypervisor.injector.inject(cpu, self.remote_vm,
                                   VECTOR_SYSCALL_REDIRECT, "proxos syscall")
        hypervisor.scheduler.schedule(cpu, self.remote_vm, "run commodity OS")
        hypervisor.launch(cpu, self.remote_vm, "deliver to commodity OS")
        if cpu.ring != 0:
            # The interrupt preempted the stub in user mode; we are now
            # back in it after IRQ delivery — re-enter the kernel to run
            # the enqueue path.
            cpu.syscall_trap("proxos enqueue")

        # 3. The guest kernel enqueues the call on the host-process
        #    descriptor and wakes the stub, which issues the real
        #    syscall when scheduled.
        remote = self.remote_kernel
        remote.scheduler.switch_to(self.stub, "wake proxos stub")
        cpu.sysret("run stub")
        try:
            result: Any = self.stub.syscall(name, *args, **kwargs)
        except GuestOSError as err:
            result = err

        # 4. The stub notifies the VMM; the VMM marshals the result back
        #    and resumes the private VM.
        reply = convention.encode(result)
        # The stub blocks again waiting for the next request (the wake
        # on the next call is charged by switch_to).
        self.remote_kernel.current = None
        cpu.vmexit(ExitReason.VMCALL, "proxos done")
        cpu.charge("vmexit_handle")
        cpu.perf.charge("copy", cm.copy(len(reply)))
        hypervisor.launch(cpu, self.local_vm, "resume private VM")
        if isinstance(result, GuestOSError):
            raise result
        return result
