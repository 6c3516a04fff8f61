"""Scale/stress tests: many worlds, many VMs, long call sequences."""

import pytest

from repro.core.call import CallRequest, WorldCallRuntime
from repro.core.world import WorldRegistry
from repro.guestos import boot_kernel
from repro.guestos.kernel import KERNEL_TEXT_GVA
from repro.hw.costs import FEATURES_CROSSOVER, HardwareFeatures
from repro.hw.paging import PageTable
from repro.hypervisor.worlds import WorldService
from repro.machine import Machine
from repro.testbed import build_two_vm_machine, enter_vm_kernel


def build_ring(n_vms: int, cache_entries: int = 16):
    features = HardwareFeatures(vmfunc=True, crossover=True,
                                wt_cache_entries=cache_entries)
    machine = Machine(features=features)
    machine.hypervisor.worlds.quota = 4 * n_vms
    entries = []
    for i in range(n_vms):
        vm = machine.hypervisor.create_vm(f"vm{i}")
        pt = PageTable(f"vm{i}-kern")
        gpa = vm.map_new_page("kernel-text")
        pt.map(KERNEL_TEXT_GVA, gpa, user=False, executable=True)
        entries.append(machine.hypervisor.worlds.create_world(
            vm=vm, ring=0, page_table=pt, pc=KERNEL_TEXT_GVA))
    machine.hypervisor.launch(machine.cpu,
                              machine.hypervisor.vm_by_name("vm0"))
    machine.cpu.write_cr3(entries[0].page_table)
    return machine, entries


class TestManyWorlds:
    def test_fifty_vm_world_ring(self):
        """50 VMs' kernels call around the ring; state stays coherent."""
        machine, entries = build_ring(50)
        svc = machine.hypervisor.worlds
        for _ in range(2):
            for entry in entries[1:] + entries[:1]:
                wid = svc.world_call(machine.cpu, entry.wid)
                assert machine.cpu.vm_name == entry.vm_name
        assert machine.cpu.vm_name == "vm0"

    def test_thrashing_ring_still_correct(self):
        """A 32-world working set over 4-entry caches: every call
        misses, every call still lands in the right world."""
        machine, entries = build_ring(32, cache_entries=4)
        svc = machine.hypervisor.worlds
        before = svc.misses_serviced
        for entry in entries[1:] + entries[:1]:
            svc.world_call(machine.cpu, entry.wid)
            assert machine.cpu.cr3 == entry.page_table.root
        assert svc.misses_serviced > before

    def test_long_call_sequence_counters_monotone(self):
        machine, entries = build_ring(4)
        svc = machine.hypervisor.worlds
        last = 0
        for i in range(500):
            svc.world_call(machine.cpu, entries[(i + 1) % 4].wid)
            assert machine.cpu.perf.cycles > last
            last = machine.cpu.perf.cycles

    def test_wid_space_grows_without_reuse(self):
        machine, entries = build_ring(8)
        svc = machine.hypervisor.worlds
        seen = {e.wid for e in entries}
        for i in range(40):
            pt = PageTable(f"extra{i}")
            vm = machine.hypervisor.vm_by_name(f"vm{i % 8}")
            gpa = vm.map_new_page("x")
            pt.map(KERNEL_TEXT_GVA, gpa, user=False, executable=True)
            entry = svc.create_world(vm=vm, ring=0, page_table=pt,
                                     pc=KERNEL_TEXT_GVA)
            assert entry.wid not in seen
            seen.add(entry.wid)
            svc.destroy_world(entry.wid, machine.cpus)


class TestDeepNesting:
    def test_chain_of_nested_world_calls(self):
        """A -> B -> C -> D handler chain: stacks unwind correctly."""
        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        registry = WorldRegistry(machine)
        runtime = WorldCallRuntime(machine, registry)
        depth_seen = []

        enter_vm_kernel(machine, vm1)
        worlds = [registry.create_kernel_world(k1, label="w0")]
        enter_vm_kernel(machine, vm2)
        kernel_world = registry.create_kernel_world(k2, label="w1")
        worlds.append(kernel_world)
        # Two host userland worlds extend the chain (distinct address
        # spaces: one host-kernel world per machine is the limit, since
        # a world is identified by its context).
        for i in (2, 3):
            proc = machine.hypervisor.create_host_process(f"svc{i}")
            worlds.append(registry.create_host_user_world(
                proc, label=f"w{i}"))

        def make_handler(index):
            def handler(request: CallRequest):
                depth_seen.append(index)
                if index + 1 < len(worlds):
                    return runtime.call(worlds[index],
                                        worlds[index + 1].wid,
                                        request.payload)
                return ("bottom", request.payload)
            return handler

        for i, world in enumerate(worlds):
            world.handler = make_handler(i)
        enter_vm_kernel(machine, vm1)
        machine.cpu.write_cr3(k1.master_page_table)
        result = runtime.call(worlds[0], worlds[1].wid, "probe")
        assert result == ("bottom", "probe")
        assert depth_seen == [1, 2, 3]
        assert worlds[0].matches_cpu(machine.cpu)
        for world in worlds:
            assert world.call_stack == []

    def test_hundred_sequential_runtime_calls(self):
        machine, vm1, k1, vm2, k2 = build_two_vm_machine(
            features=FEATURES_CROSSOVER)
        registry = WorldRegistry(machine)
        runtime = WorldCallRuntime(machine, registry)
        enter_vm_kernel(machine, vm1)
        caller = registry.create_kernel_world(k1)
        enter_vm_kernel(machine, vm2)
        callee = registry.create_kernel_world(
            k2, handler=lambda request: request.payload * 2)
        enter_vm_kernel(machine, vm1)
        machine.cpu.write_cr3(k1.master_page_table)
        for i in range(100):
            assert runtime.call(caller, callee.wid, i) == 2 * i
        assert runtime.calls_completed == 100


class TestFleetScale:
    def test_thousand_world_fleet_shard_isolation(self):
        """500 tenants (1000 worlds) on the sharded table: revoking
        tenant A's callee moves only A's shard epochs — tenant B's table
        and cache epochs and its switchless site survive untouched."""
        from repro import switchless
        from repro.fleet import traffic
        from repro.fleet.scheduler import build_fleet
        from repro.switchless import SwitchlessConfig, SwitchlessEngine

        fleet = build_fleet(traffic.tenant_plan(500, 0))
        table, caches = fleet.table, fleet.machine.cpu.wt_caches
        assert sum(s["worlds"] for s in table.shard_stats()) == 1000
        a, b = fleet.tenants[0], fleet.tenants[1]
        assert a.shard != b.shard

        engine = switchless.install(
            SwitchlessEngine(SwitchlessConfig(mode="force", workers=1)))
        site_a = ("world", a.caller_wid, a.callee_wid)
        site_b = ("world", b.caller_wid, b.callee_wid)
        try:
            engine.policy.decide(site_a, 0)
            engine.policy.decide(site_b, 0)
            old_callee = a.callee_wid
            b_table_epoch = table.epoch_of(b.callee_wid)
            b_cache_epoch = caches.epoch_of(b.callee_wid)
            a_table_epoch = table.epoch_of(old_callee)

            fleet.revoke_and_recreate(a)

            # B's table and cache epochs did not move.
            assert table.epoch_of(b.callee_wid) == b_table_epoch
            assert caches.epoch_of(b.callee_wid) == b_cache_epoch
            # A's shard saw the destroy + create, and the old WID's
            # warmed cache entry is gone.
            assert table.epoch_of(a.callee_wid) == a_table_epoch + 2
            assert a.callee_wid > old_callee
            assert old_callee not in caches.wt
            # Switchless half: only A's site was dropped.
            assert site_a not in engine.policy.sites
            assert site_b in engine.policy.sites
        finally:
            switchless.uninstall()

    def test_interleave_widths_cycle_identical_at_scale(self):
        """100 tenants through the fleet scheduler at 1/2/4 lanes: the
        committed event sequence — and therefore every result field —
        is identical."""
        from repro.fleet import traffic
        from repro.fleet.scheduler import FleetScheduler, MechanismCosts

        specs = traffic.tenant_plan(100, 1, rate_scale=20.0)
        costs = MechanismCosts(
            mechanism="world_call", total_cycles=600, service_cycles=100,
            issue_cycles=250, return_cycles=250, cold_extra_cycles=0,
            miss_penalty_cycles=5_000, serialized=False)
        runs = []
        for width in (1, 2, 4):
            result = FleetScheduler(
                specs, costs, seed=1, horizon_cycles=30_000_000,
                interleave=width).run()
            result.pop("interleave")
            runs.append(result)
        assert runs[0]["requests"] > 1000
        assert runs[0] == runs[1] == runs[2]


class TestManyProcesses:
    def test_thousand_process_vm_remains_functional(self):
        machine = Machine()
        vm = machine.hypervisor.create_vm("big")
        kernel = boot_kernel(machine, vm)
        for i in range(1000):
            kernel.spawn(f"p{i:04d}")
        machine.hypervisor.launch(machine.cpu, vm)
        proc = kernel.spawn("driver")
        kernel.enter_user(proc)
        names = proc.syscall("readdir", "/proc")
        pids = [n for n in names if n.isdigit()]
        assert len(pids) == len(kernel.processes)
        assert proc.syscall("sysinfo")["procs"] == len(kernel.processes)
