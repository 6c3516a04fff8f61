"""HyperShell (Fu, Zeng, Lin — USENIX ATC 2014) — Section 6, case 2.

A management shell executes utilities whose syscalls are *reverse
redirected* into a guest VM for execution.

**Baseline** (the published design, 8 world calls): the shell runs in
host userland.  Its redirected syscall traps into the host kernel
(KVM); a helper process inside the guest "keeps executing INT3
instructions trapping to KVM" so the redirected call can be handled
timely: KVM hands the syscall to the helper at its next INT3 exit, the
helper executes it in-guest, traps back with INT3, and KVM resumes the
host shell.

**Optimized**: following the paper's security remedy, the shell lives
in a *management guest VM* (running it in the host would execute guest
code with host privilege) and jumps into the target VM with the VMFUNC
cross-VM syscall mechanism — 4 world calls instead of 8.
"""

from __future__ import annotations

from typing import Any

from repro import audit, telemetry
from repro.core import convention
from repro.errors import GuestOSError, SimulationError
from repro.hw.cpu import Mode, Ring
from repro.hw.vmx import ExitReason
from repro.systems.base import CrossWorldSystem


#: Profiler step labels for the baseline INT3-helper path (Figure 2,
#: case 2): ``(trace event kind, detail) -> canonical path step``.
STACK_STEPS = {
    ("vmexit", "hypershell redirect"): "vmcall-entry",
    ("vmentry", "run helper"): "enter-guest",
    ("syscall_trap", "helper resumes"): "helper-resume-trap",
    ("sysret", "helper user"): "helper-user",
    ("vmexit", "helper INT3"): "int3-exit",
    ("vmentry", "inject syscall into helper"): "inject-syscall",
    ("vmexit", "helper done"): "int3-done",
    ("vmentry", "resume shell VM"): "resume-shell",
}


class HyperShell(CrossWorldSystem):
    """HyperShell: shell in ``local_vm`` (optimized) or host userland
    (baseline); the managed guest is ``remote_vm``."""

    name = "HyperShell"

    def _setup_extra(self) -> None:
        """Create the in-guest helper process and (baseline) the host
        shell process."""
        assert self.remote_executor is not None
        self.remote_executor.name = "hypershell-helper"
        self.helper = self.remote_executor
        if not self.optimized:
            self.shell = self.machine.hypervisor.create_host_process(
                f"hypershell-shell-{self.local_vm.name}")

    # ------------------------------------------------------------------
    # the measured operation
    # ------------------------------------------------------------------

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """One reverse-redirected syscall."""
        if self.optimized:
            self._require_local_kernel()
            return self._optimized_redirect(name, *args, **kwargs)
        return self._baseline_redirect(name, *args, **kwargs)

    # ------------------------------------------------------------------
    # baseline: host shell -> KVM -> INT3 helper -> in-guest execution
    # ------------------------------------------------------------------

    def shell_syscall(self, name: str, *args, **kwargs) -> Any:
        """Entry point for the baseline host shell: issue a syscall from
        host userland and have it reverse-executed in the guest."""
        if self.optimized:
            raise SimulationError(
                "shell_syscall is the baseline path; the optimized "
                "HyperShell runs its shell inside a management VM")
        cpu = self.machine.cpu
        if cpu.mode is not Mode.ROOT or cpu.ring != int(Ring.USER):
            raise SimulationError(
                "the baseline shell runs in host userland; CPU is at "
                f"{cpu.world_label}")
        recorder = audit._recorder
        if recorder is not None:
            recorder.on_redirect_begin(self.name, self.variant, name,
                                       cpu.perf.cycles)
        try:
            if telemetry._session is None:
                return self._shell_call(cpu, name, *args, **kwargs)
            span = self._telemetry_span(name)
            if span is None:
                return self._shell_call(cpu, name, *args, **kwargs)
            with span:
                return self._shell_call(cpu, name, *args, **kwargs)
        finally:
            if recorder is not None:
                recorder.on_redirect_end(self.name, self.variant, name,
                                         cpu.perf.cycles)

    def _shell_call(self, cpu, name: str, *args, **kwargs) -> Any:
        # Shell's libc stub + trap into the host kernel (KVM).
        cpu.charge("user_wrapper")
        cpu.syscall_trap(name)
        cpu.charge("syscall_dispatch")
        try:
            return self._baseline_redirect(name, *args, **kwargs)
        finally:
            cpu.sysret(name)

    def _baseline_redirect(self, name: str, *args, **kwargs) -> Any:
        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        cm = self.machine.cost_model
        # The canonical entry is the host kernel (KVM, via the shell's
        # trap).  When driven from a management-VM kernel instead, the
        # request first leaves that VM with a hypercall and the shell VM
        # is resumed afterwards.
        started_in_guest = (cpu.mode is Mode.NON_ROOT
                            and cpu.vm_name == self.local_vm.name
                            and cpu.ring == 0)
        if started_in_guest:
            cpu.vmexit(ExitReason.VMCALL, "hypershell redirect")
            cpu.charge("vmexit_handle")
        elif cpu.mode is not Mode.ROOT or cpu.ring != 0:
            raise SimulationError(
                "baseline HyperShell redirection runs in the host kernel")

        request = convention.encode((name, args, kwargs))
        cpu.perf.charge("copy", cm.copy(len(request)))

        # Enter the guest; the helper is spinning on INT3, so the next
        # breakpoint exit is immediate — KVM hands over the syscall.
        hypervisor.launch(cpu, self.remote_vm, "run helper")
        if cpu.ring != 0:
            cpu.syscall_trap("helper resumes")
        remote = self.remote_kernel
        remote.scheduler.switch_to(self.helper, "schedule helper")
        cpu.sysret("helper user")
        cpu.vmexit(ExitReason.BREAKPOINT, "helper INT3")
        cpu.charge("vmexit_handle")
        hypervisor.launch(cpu, self.remote_vm, "inject syscall into helper")

        # The helper executes the redirected syscall in-guest.
        try:
            result: Any = self.helper.syscall(name, *args, **kwargs)
        except GuestOSError as err:
            result = err

        # Completion: the helper traps to KVM again with INT3.
        cpu.vmexit(ExitReason.BREAKPOINT, "helper done")
        cpu.charge("vmexit_handle")
        reply = convention.encode(result)
        cpu.perf.charge("copy", cm.copy(len(reply)))
        if started_in_guest:
            hypervisor.launch(cpu, self.local_vm, "resume shell VM")
        if isinstance(result, GuestOSError):
            raise result
        return result
