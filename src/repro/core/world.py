"""The world abstraction and registry.

A :class:`World` pairs a hardware world-table entry (WID, context,
entry point) with the software that animates it: the entry *handler*
invoked when a call lands, the authorization policy, the caller-side
return-state stack, and — for guest kernel worlds — the service process
whose context the kernel must reload (Section 5.3).

Guest worlds register through the hypercall interface (the one-time
setup cost of Section 3.3); host worlds register directly, since the
host already runs at the privilege that owns the world table.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.authorization import AllowAllPolicy, Policy
from repro.errors import ConfigurationError, SimulationError
from repro.guestos.kernel import KERNEL_TEXT_GVA, Kernel
from repro.guestos.process import Process, USER_TEXT_GVA
from repro.hw.cpu import CPU, Mode
from repro.hw.paging import PageTable
from repro.hw.world_table import WorldTableEntry
from repro.hypervisor.hypercalls import Hypercall
from repro.hypervisor.hypervisor import HostProcess


class World:
    """One registered world plus its software state."""

    def __init__(self, entry: WorldTableEntry, *,
                 handler: Optional[Callable] = None,
                 policy: Optional[Policy] = None,
                 kernel: Optional[Kernel] = None,
                 process: Optional[Process] = None,
                 host_process: Optional[HostProcess] = None,
                 label: str = "") -> None:
        self.entry = entry
        self.handler = handler
        self.policy = policy if policy is not None else AllowAllPolicy()
        self.kernel = kernel
        self.process = process
        self.host_process = host_process
        self.label = label or f"world-{entry.wid}"
        #: Caller-side saved-state stack (kept in the caller's own
        #: memory space, isolated from callees — Section 3.3).
        self.call_stack: List[dict] = []
        #: Section 5.3: "our software implementation does not support
        #: concurrent cross-world calls from one world".
        self.busy = False
        self.watchdog_armed = False
        #: Budget of the long watchdog timer armed for this caller; used
        #: to reinstall per-call bookkeeping while the timer stands.
        self.watchdog_budget = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<World {self.label} wid={self.wid}>"

    @property
    def wid(self) -> int:
        """The hardware-assigned, unforgeable world ID."""
        return self.entry.wid

    def matches_cpu(self, cpu: CPU) -> bool:
        """Whether the CPU is currently executing in this world."""
        key = (cpu.mode is Mode.ROOT, cpu.ring, cpu.eptp, cpu.cr3)
        return key == self.entry.context_key()


class WorldRegistry:
    """Creates and tracks worlds on one machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.worlds: Dict[int, World] = {}

    def get(self, wid: int) -> Optional[World]:
        """The software World for ``wid`` (None if only hardware knows
        it)."""
        return self.worlds.get(wid)

    # ------------------------------------------------------------------
    # guest worlds (registered through the hypercall interface)
    # ------------------------------------------------------------------

    def create_kernel_world(self, kernel: Kernel, *,
                            handler: Optional[Callable] = None,
                            policy: Optional[Policy] = None,
                            service_process: Optional[Process] = None,
                            label: str = "") -> World:
        """Register the kernel of a VM as a world (ring 0).

        The CPU must currently be inside that VM at CPL 0 so the
        registration hypercall can be issued.
        """
        cpu = self.machine.cpu
        wid = self.machine.hypervisor.hypercall(
            cpu, Hypercall.CREATE_WORLD, ring=0,
            page_table=kernel.master_page_table, pc=KERNEL_TEXT_GVA)
        entry = self.machine.world_table.walk_by_wid(wid)
        world = World(entry, handler=handler, policy=policy, kernel=kernel,
                      process=service_process,
                      label=label or f"K({kernel.vm.name})")
        self.worlds[wid] = world
        return world

    def create_user_world(self, kernel: Kernel, process: Process, *,
                          handler: Optional[Callable] = None,
                          policy: Optional[Policy] = None,
                          label: str = "") -> World:
        """Register a guest process as a world (ring 3)."""
        cpu = self.machine.cpu
        wid = self.machine.hypervisor.hypercall(
            cpu, Hypercall.CREATE_WORLD, ring=3,
            page_table=process.page_table, pc=USER_TEXT_GVA)
        entry = self.machine.world_table.walk_by_wid(wid)
        world = World(entry, handler=handler, policy=policy, kernel=kernel,
                      process=process,
                      label=label or f"U({kernel.vm.name}:{process.name})")
        self.worlds[wid] = world
        process.wids += (wid,)
        return world

    # ------------------------------------------------------------------
    # host worlds (direct registration — already privileged)
    # ------------------------------------------------------------------

    def create_host_kernel_world(self, *, handler: Optional[Callable] = None,
                                 policy: Optional[Policy] = None,
                                 label: str = "K(host)") -> World:
        """Register the host kernel (hypervisor context) as a world."""
        pc = self._host_code_page(self.machine.host_page_table, user=False)
        entry = self.machine.hypervisor.worlds.create_world(
            vm=None, ring=0, page_table=self.machine.host_page_table, pc=pc)
        world = World(entry, handler=handler, policy=policy, label=label)
        self.worlds[entry.wid] = world
        return world

    def create_host_user_world(self, host_process: HostProcess, *,
                               handler: Optional[Callable] = None,
                               policy: Optional[Policy] = None,
                               label: str = "") -> World:
        """Register a host userland process as a world (host ring 3)."""
        pc = self._host_code_page(host_process.page_table, user=True)
        entry = self.machine.hypervisor.worlds.create_world(
            vm=None, ring=3, page_table=host_process.page_table, pc=pc)
        world = World(entry, handler=handler, policy=policy,
                      host_process=host_process,
                      label=label or f"U(host:{host_process.name})")
        self.worlds[entry.wid] = world
        return world

    def _host_code_page(self, page_table: PageTable, *, user: bool) -> int:
        """Allocate and map an executable entry-point page for a host
        world; returns its virtual address."""
        frame = self.machine.memory.allocate("host-world-code")
        page_table.map(frame.hpa, frame.hpa, user=user, executable=True,
                       writable=False)
        return frame.hpa

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def destroy(self, world: World) -> None:
        """Unregister a world and invalidate it everywhere."""
        if world.wid not in self.worlds:
            raise ConfigurationError(f"{world!r} is not registered here")
        self.machine.hypervisor.worlds.destroy_world(
            world.wid, self.machine.cpus)
        del self.worlds[world.wid]
