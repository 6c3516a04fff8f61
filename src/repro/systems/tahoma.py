"""Tahoma (Cox et al., IEEE S&P 2006) — Section 6, case 3.

A browser operating system: each web/browser instance runs in its own
VM, controlled by a manager ("browser kernel") through cross-VM RPC
(*browser-calls*).

**Baseline** (the published design): the browser-call is "XML-formatted
and carried over a TCP connection using a point-to-point virtual
network link" — per call, two XML marshal + two unmarshal steps and a
full guest-TCP/virtual-NIC round trip through the hypervisor.

**Optimized**: the browser-call rides the VMFUNC cross-VM call path
with shared-memory parameter passing (Section 6: only the
manager/instance communication is reimplemented).
"""

from __future__ import annotations

from typing import Any

from repro.core import convention
from repro.errors import GuestOSError, SimulationError
from repro.guestos.pipe import WouldBlock
from repro.hw.cpu import Mode
from repro.hw.vmx import ExitReason
from repro.systems.base import CrossWorldSystem

#: Port the manager's browser-call service listens on.
MANAGER_PORT = 8080

#: Profiler step labels for the baseline XML-over-TCP path (Figure 2,
#: case 3): ``(trace event kind, detail) -> canonical path step``.
STACK_STEPS = {
    ("vmexit", "browser blocks on RPC"): "rpc-block",
    ("vm_schedule", "run manager"): "schedule-manager",
    ("vmentry", "manager VM"): "enter-manager",
    ("syscall_trap", "manager wakeup"): "manager-wakeup",
    ("sysret", "manager user"): "manager-user",
    ("vmexit", "manager idles"): "manager-idle",
    ("vm_schedule", "resume browser"): "schedule-browser",
    ("vmentry", "browser VM"): "resume-browser",
}


class Tahoma(CrossWorldSystem):
    """Tahoma: browser instance in ``local_vm``, manager in
    ``remote_vm``.

    Each instance gets its own point-to-point link; pass a distinct
    ``port`` per instance when one manager serves several VMs.
    """

    name = "Tahoma"

    def __init__(self, machine, local_vm, remote_vm, *, optimized: bool,
                 port: int = MANAGER_PORT) -> None:
        super().__init__(machine, local_vm, remote_vm, optimized=optimized)
        self.port = port

    def _setup_extra(self) -> None:
        """Create the manager service and (baseline) the TCP link."""
        assert self.remote_executor is not None
        self.remote_executor.name = "tahoma-manager"
        self.manager = self.remote_executor
        if self.optimized:
            return

        from repro.testbed import enter_vm_kernel

        machine = self.machine
        # Manager side: listen on the virtual point-to-point link.
        enter_vm_kernel(machine, self.remote_vm)
        self.remote_kernel.enter_user(self.manager)
        listen_fd = self.manager.syscall("socket")
        self.manager.syscall("bind", listen_fd, self.port)
        self.manager.syscall("listen", listen_fd)

        # Browser side: a dedicated link process holds the connection.
        enter_vm_kernel(machine, self.local_vm)
        self.link = self.local_kernel.spawn("tahoma-link")
        self.local_kernel.enter_user(self.link)
        self.browser_fd = self.link.syscall("socket")
        self.link.syscall("connect", self.browser_fd,
                          self.remote_vm.name, self.port)

        # Manager accepts the connection.
        enter_vm_kernel(machine, self.remote_vm)
        self.remote_kernel.enter_user(self.manager)
        self.manager_fd = self.manager.syscall("accept", listen_fd)
        enter_vm_kernel(machine, self.local_vm)

    # ------------------------------------------------------------------
    # the measured operation (one browser-call round trip)
    # ------------------------------------------------------------------

    def _redirect(self, name: str, *args, **kwargs) -> Any:
        """One browser-call: the manager performs ``name`` on behalf of
        the browser instance."""
        self._require_local_kernel()
        if self.optimized:
            return self._optimized_redirect(name, *args, **kwargs)
        return self._baseline_rpc(name, *args, **kwargs)

    # ------------------------------------------------------------------
    # baseline: XML over TCP over the virtual network
    # ------------------------------------------------------------------

    def _baseline_rpc(self, name: str, *args, **kwargs) -> Any:
        cpu = self.machine.cpu
        hypervisor = self.machine.hypervisor
        kernel = self.local_kernel

        # XML-marshal the request and send it down the TCP link.
        cpu.charge("xml_marshal")
        request = convention.encode((name, args, kwargs))
        kernel.execute_syscall(self.link, "send", self.browser_fd, request)

        # The manager VM gets scheduled to serve the call.
        hypervisor.exit_to_host(cpu, ExitReason.HLT, "browser blocks on RPC")
        hypervisor.scheduler.schedule(cpu, self.remote_vm, "run manager")
        hypervisor.launch(cpu, self.remote_vm, "manager VM")
        if cpu.ring != 0:
            cpu.syscall_trap("manager wakeup")
        self.remote_kernel.scheduler.switch_to(self.manager, "wake manager")
        cpu.sysret("manager user")

        # Manager: recv, unmarshal, execute, marshal, reply.
        wire = self.manager.syscall("recv", self.manager_fd, 65536)
        cpu.charge("xml_marshal")   # XML decode costs like encode
        r_name, r_args, r_kwargs = convention.decode(wire)
        try:
            result: Any = self.manager.syscall(r_name, *r_args, **r_kwargs)
        except GuestOSError as err:
            result = err
        cpu.charge("xml_marshal")
        reply = convention.encode(result)
        self.manager.syscall("send", self.manager_fd, reply)

        # Back to the browser VM; read and unmarshal the reply.
        self.remote_kernel.current = None
        cpu.vmexit(ExitReason.HLT, "manager idles")
        cpu.charge("vmexit_handle")
        hypervisor.scheduler.schedule(cpu, self.local_vm, "resume browser")
        hypervisor.launch(cpu, self.local_vm, "browser VM")
        wire = kernel.execute_syscall(self.link, "recv",
                                      self.browser_fd, 65536)
        cpu.charge("xml_marshal")
        value = convention.decode(wire)
        if isinstance(value, GuestOSError):
            raise value
        return value
