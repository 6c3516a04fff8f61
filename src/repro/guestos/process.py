"""Guest processes."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.guestos.fd import FDTable
from repro.hw.paging import PageTable

#: Conventional user-space layout.
USER_TEXT_GVA = 0x0040_0000
USER_STACK_GVA = 0x7FFF_F000


class Process:
    """One guest process (PCB + address space + fd table)."""

    # An inspected VM holds thousands of processes: no per-instance dict.
    __slots__ = ("kernel", "pid", "name", "parent", "children", "uid",
                 "state", "exit_code", "page_table", "fds", "cwd",
                 "start_cycles", "wids")

    def __init__(self, kernel, pid: int, name: str, *,
                 parent: Optional["Process"] = None, uid: int = 0) -> None:
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.parent = parent
        self.children: List["Process"] = []
        self.uid = uid
        self.state = "ready"          # ready | running | blocked | zombie
        self.exit_code: Optional[int] = None
        self.page_table = PageTable(f"{kernel.vm.name}:pid{pid}")
        self.fds = FDTable()
        self.cwd = "/"
        self.start_cycles = kernel.cpu.perf.cycles
        #: Worlds this process registered (WIDs), for cleanup.
        self.wids: Tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Process {self.pid} {self.name!r} ({self.state})>"

    @property
    def alive(self) -> bool:
        """True until the process exits."""
        return self.state != "zombie"

    def syscall(self, name: str, *args, **kwargs):
        """Issue a system call from this process's user context.

        Performs the full user->kernel->user round trip on the CPU:
        libc wrapper, SYSCALL trap, dispatcher, handler, SYSRET.  The
        process must be the one currently running on the CPU.
        """
        kernel = self.kernel
        cpu = kernel.cpu
        if kernel.current is not self:
            raise SimulationError(
                f"{self!r} issued a syscall but {kernel.current!r} is "
                "the running process")
        perf, costs = cpu.perf, cpu.cost_model
        perf.charge("user_wrapper", costs.user_wrapper)
        cpu.syscall_trap(name)
        perf.charge("syscall_dispatch", costs.syscall_dispatch)
        try:
            return kernel.dispatch(self, name, *args, **kwargs)
        finally:
            cpu.sysret(name)

    def compute(self, cycles: int, instructions: Optional[int] = None
                ) -> None:
        """Charge user-level computation (application work between
        syscalls)."""
        if instructions is None:
            instructions = max(1, cycles // 2)
        self.kernel.cpu.work(cycles, instructions, kind="user_compute")
