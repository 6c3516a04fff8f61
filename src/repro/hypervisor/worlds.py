"""The hypervisor's world-registration service (Sections 3.2-3.3, 5.1).

The privileged software:

* creates/destroys world-table entries on behalf of callers and callees
  (allocating unforgeable WIDs),
* enforces a per-VM quota on world creation ("a hypervisor can limit the
  number of worlds a VM can create to avoid DoS attacks"),
* services world-table *cache misses*: the hardware raises an exception,
  the hypervisor walks the in-memory world table and refills the per-core
  caches with ``manage_wtc``, then the caller re-executes ``world_call``.
"""

from __future__ import annotations

from typing import Optional

from repro import audit as _audit
from repro import faults as _faults
from repro.errors import (
    NoSuchWorld,
    SimulationError,
    WorldQuotaExceeded,
    WorldTableCacheMiss,
)
from repro.hw.cpu import CPU, VMFUNC_WORLD_CALL
from repro.hw.ept import EPT
from repro.hw.paging import PageTable
from repro.hw.world_table import WorldTable, WorldTableEntry
from repro.hypervisor.vm import VirtualMachine

#: Default per-VM world-creation quota.
DEFAULT_WORLD_QUOTA = 64


class WorldService:
    """World lifecycle + cache-miss servicing, owned by the hypervisor."""

    def __init__(self, world_table: WorldTable,
                 quota: int = DEFAULT_WORLD_QUOTA) -> None:
        self.table = world_table
        self.quota = quota
        self.misses_serviced = 0
        #: Per-shard miss-service counts when the table is sharded
        #: (fleet accounting; empty for the flat table).
        self.shard_misses: dict = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create_world(self, *, vm: Optional[VirtualMachine], ring: int,
                     page_table: PageTable, pc: int,
                     ept: Optional[EPT] = None) -> WorldTableEntry:
        """Register a world.  ``vm=None`` creates a host-mode world.

        For guest worlds the EPT defaults to the VM's EPT; quota is
        enforced per owning VM.
        """
        if vm is not None:
            if self.table.worlds_owned_by(vm) >= self.quota:
                raise WorldQuotaExceeded(
                    f"VM {vm.name} exceeded its quota of {self.quota} worlds")
            return self.table.create(
                host_mode=False, ring=ring, ept=ept or vm.ept,
                page_table=page_table, pc=pc, owner_vm=vm, vm_name=vm.name)
        if ept is not None:
            raise SimulationError("host-mode worlds have no EPT")
        return self.table.create(
            host_mode=True, ring=ring, ept=None, page_table=page_table,
            pc=pc, owner_vm=None, vm_name="host")

    def destroy_world(self, wid: int, cpus) -> WorldTableEntry:
        """Unregister a world and invalidate it in every CPU's caches.

        With a sharded table only the owning shard's epochs move, so
        cache entries for other tenants' shards stay live.  An installed
        switchless engine is told to forget the revoked world's sites —
        its *other* sites (other tenants' flips, rings, windows) survive
        untouched.
        """
        entry = self.table.destroy(wid)
        entry.present = False
        for cpu in cpus:
            if cpu.wt_caches is not None:
                cpu.wt_caches.invalidate(entry)
        from repro import switchless as _switchless
        if _switchless._engine is not None:
            _switchless._engine.on_world_revoked(wid)
        return entry

    # ------------------------------------------------------------------
    # cache-miss servicing
    # ------------------------------------------------------------------

    def service_miss(self, cpu: CPU, miss: WorldTableCacheMiss) -> None:
        """Handle a WT/IWT cache miss: walk the table, refill the caches.

        Costs: the exception delivery was already charged by the CPU
        when it raised; here we charge the hypervisor's table walk and
        the ``manage_wtc`` fill.  Raises :class:`NoSuchWorld` when the
        walk finds nothing — i.e. a namespace issued ``world_call``
        without registering, which the paper delivers to the hypervisor
        as a fault.
        """
        if cpu.wt_caches is None:
            raise SimulationError("cache miss on a CPU without CrossOver")
        cpu.charge("wt_walk")
        if miss.kind == "wt":
            entry = self.table.walk_by_wid(miss.key)  # may raise NoSuchWorld
        else:
            entry = self.table.walk_by_context(miss.key)
        cpu.charge("manage_wtc")
        cpu.wt_caches.fill(entry)
        self.misses_serviced += 1
        shard_of = getattr(self.table, "shard_of", None)
        if shard_of is not None:
            shard = shard_of(entry.wid)
            self.shard_misses[shard] = self.shard_misses.get(shard, 0) + 1
        recorder = _audit._recorder
        if recorder is not None:
            recorder.on_wtc_service(miss.kind, miss.key)

    def revalidate(self, cpu: CPU, wid: int) -> bool:
        """Re-validate a world after a faulted ``world_call`` (recovery).

        Walks the in-memory table for ``wid``; if the entry still
        exists, heals a cleared present bit (the transient-revocation
        case) and refills the per-core caches via ``manage_wtc``.
        Returns False when the walk finds nothing — the world is really
        gone and retrying is pointless.
        """
        if cpu.wt_caches is None:
            return False
        cpu.charge("wt_walk")
        try:
            entry = self.table.walk_by_wid(wid)
        except NoSuchWorld:
            return False
        entry.present = True
        cpu.charge("manage_wtc")
        cpu.wt_caches.fill(entry)
        recorder = _audit._recorder
        if recorder is not None:
            recorder.on_revalidate(wid)
        return True

    def world_call(self, cpu: CPU, callee_wid: int, *,
                   max_services: int = 4) -> int:
        """Issue ``world_call``, transparently servicing cache misses.

        This is the software-visible behaviour: the faulting instruction
        is re-executed after the privileged software refills the cache.
        Returns the caller's WID as delivered by the hardware.  With
        ``max_services=0`` (the WT-refill recovery policy disabled) a
        cache miss escapes raw to the caller.
        """
        if _faults._engine is not None:
            _faults._engine.fire("hv.worlds.call", service=self, cpu=cpu,
                                 callee_wid=callee_wid)
        if max_services <= 0:
            result = cpu.vmfunc(VMFUNC_WORLD_CALL, callee_wid)
            assert result is not None
            return result
        for _ in range(max_services + 1):
            try:
                result = cpu.vmfunc(VMFUNC_WORLD_CALL, callee_wid)
                assert result is not None
                return result
            except WorldTableCacheMiss as miss:
                self.service_miss(cpu, miss)
        raise SimulationError(
            f"world_call to WID {callee_wid} kept missing after "
            f"{max_services} cache services (thrashing caches?)")
