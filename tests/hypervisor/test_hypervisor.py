"""Hypervisor tests: VM lifecycle, EPTP wiring, hypercalls, host
processes."""

import pytest

from repro.errors import ConfigurationError, GuestOSError
from repro.hw.costs import HardwareFeatures
from repro.hw.cpu import Mode
from repro.hw.ept import EPT, EPTPList
from repro.hw.paging import PageTable
from repro.hypervisor.hypercalls import Hypercall
from repro.guestos.kernel import KERNEL_TEXT_GVA
from repro.machine import Machine


class TestVMLifecycle:
    def test_vm_ids_sequential(self, machine):
        a = machine.hypervisor.create_vm("a")
        b = machine.hypervisor.create_vm("b")
        assert (a.vm_id, b.vm_id) == (1, 2)

    def test_duplicate_name_rejected(self, machine):
        machine.hypervisor.create_vm("a")
        with pytest.raises(ConfigurationError):
            machine.hypervisor.create_vm("a")

    def test_lookup(self, machine):
        a = machine.hypervisor.create_vm("a")
        assert machine.hypervisor.vm_by_name("a") is a
        assert machine.hypervisor.vm_by_id(a.vm_id) is a
        with pytest.raises(ConfigurationError):
            machine.hypervisor.vm_by_name("nope")
        with pytest.raises(ConfigurationError):
            machine.hypervisor.vm_by_id(99)

    def test_eptp_lists_fully_wired(self, machine):
        """Section 4.3: every VM's EPT pointer is stored in every VM's
        EPTP list at the offset equal to its VM ID."""
        vms = [machine.hypervisor.create_vm(f"vm{i}") for i in range(3)]
        for holder in vms:
            for target in vms:
                assert holder.eptp_list.get(target.vm_id) is target.ept

    def test_one_eptp_list_one_write_per_vm(self, machine, monkeypatch):
        """Work proxy: n VMs cost exactly n ``EPTPList.set`` calls, and
        every VM's VMCS points at the hypervisor's one list."""
        calls = []
        original = EPTPList.set

        def counting_set(self, index, ept):
            calls.append(index)
            original(self, index, ept)

        monkeypatch.setattr(EPTPList, "set", counting_set)
        n = 40
        vms = [machine.hypervisor.create_vm(f"vm{i}") for i in range(n)]
        assert calls == [vm.vm_id for vm in vms]
        shared = machine.hypervisor.eptp_list
        for vm in vms:
            assert vm.eptp_list is shared
            assert vm.vmcs.guest.eptp_list is shared

    def test_later_vm_reachable_by_vmfunc(self, machine):
        """A VM created after vm0 was launched is selectable from vm0
        with a real VMFUNC(0) EPT switch — no rewiring of vm0 needed."""
        vm0 = machine.hypervisor.create_vm("vm0")
        cpu = machine.cpu
        machine.hypervisor.launch(cpu, vm0)
        later = machine.hypervisor.create_vm("later")
        exits = cpu.perf.events.get("vmexit", 0)
        cpu.vmfunc(0, later.vm_id)
        assert cpu.ept is later.ept
        assert cpu.mode is Mode.NON_ROOT
        assert cpu.perf.events.get("vmexit", 0) == exits
        cpu.vmfunc(0, vm0.vm_id)
        assert cpu.ept is vm0.ept

    def test_rejected_create_vm_changes_nothing(self):
        """EPTP list exhausted: the capacity check runs before any
        mutation, so the hypervisor is exactly as it was."""
        machine = Machine(features=HardwareFeatures(eptp_list_size=4))
        hv = machine.hypervisor
        for i in range(3):                                  # ids 1..3
            hv.create_vm(f"vm{i}")
        slots = list(hv.eptp_list._slots)
        before = (dict(hv.vms), dict(hv._vms_by_id), hv._next_vm_id)
        eptp_next = EPT().eptp
        with pytest.raises(ConfigurationError, match="EPTP list exhausted"):
            hv.create_vm("overflow")
        assert (dict(hv.vms), dict(hv._vms_by_id), hv._next_vm_id) == before
        assert hv.eptp_list._slots == slots
        # No EPT was built for the rejected VM: the pointer counter did
        # not advance past the probe above.
        assert EPT().eptp == eptp_next + (1 << 12)

    def test_launch_enters_guest(self, machine):
        vm = machine.hypervisor.create_vm("a")
        machine.hypervisor.launch(machine.cpu, vm)
        assert machine.cpu.mode is Mode.NON_ROOT
        assert machine.cpu.vm_name == "a"


class TestHypercalls:
    @pytest.fixture
    def in_guest(self, machine):
        vm = machine.hypervisor.create_vm("a")
        machine.hypervisor.create_vm("b")
        machine.hypervisor.launch(machine.cpu, vm)
        return machine, vm

    def test_query_vms(self, in_guest):
        machine, vm = in_guest
        result = machine.hypervisor.hypercall(machine.cpu,
                                              Hypercall.QUERY_VMS)
        assert (1, "a") in result and (2, "b") in result

    def test_query_self(self, in_guest):
        machine, vm = in_guest
        assert machine.hypervisor.hypercall(
            machine.cpu, Hypercall.QUERY_SELF) == vm.vm_id

    def test_resumes_same_guest(self, in_guest):
        machine, vm = in_guest
        machine.hypervisor.hypercall(machine.cpu, Hypercall.QUERY_SELF)
        assert machine.cpu.mode is Mode.NON_ROOT
        assert machine.cpu.vm_name == "a"

    def test_requires_guest_ring0(self, in_guest):
        machine, vm = in_guest
        machine.cpu.ring = 3
        with pytest.raises(Exception):
            machine.hypervisor.hypercall(machine.cpu, Hypercall.QUERY_SELF)
        machine.cpu.ring = 0

    def test_unknown_number(self, in_guest):
        machine, vm = in_guest
        with pytest.raises(GuestOSError):
            machine.hypervisor.hypercall(machine.cpu, 0xFF)

    def test_create_world_hypercall(self, in_guest):
        machine, vm = in_guest
        pt = PageTable("w")
        gpa = vm.map_new_page("code")
        pt.map(KERNEL_TEXT_GVA, gpa, user=False, executable=True)
        wid = machine.hypervisor.hypercall(
            machine.cpu, Hypercall.CREATE_WORLD, ring=0, page_table=pt,
            pc=KERNEL_TEXT_GVA)
        entry = machine.world_table.walk_by_wid(wid)
        assert entry.owner_vm is vm

    def test_destroy_other_vms_world_denied(self, in_guest):
        machine, vm = in_guest
        other = machine.hypervisor.vm_by_name("b")
        pt = PageTable("w2")
        entry = machine.hypervisor.worlds.create_world(
            vm=other, ring=0, page_table=pt, pc=0x1000)
        with pytest.raises(GuestOSError):
            machine.hypervisor.hypercall(
                machine.cpu, Hypercall.DESTROY_WORLD, entry.wid)

    def test_setup_shared_mem_hypercall(self, in_guest):
        machine, vm = in_guest
        region = machine.hypervisor.hypercall(
            machine.cpu, Hypercall.SETUP_SHARED_MEM, "b", 2, "test")
        assert region.pages == 2
        other = machine.hypervisor.vm_by_name("b")
        assert vm.ept.translate(region.gpa) == other.ept.translate(region.gpa)

    def test_hypercall_charges_exit_and_entry(self, in_guest):
        machine, vm = in_guest
        snap = machine.cpu.perf.snapshot()
        machine.hypervisor.hypercall(machine.cpu, Hypercall.QUERY_SELF)
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("vmexit") == 1
        assert delta.count("vmentry") == 1
        assert delta.count("vmexit_handle") == 1


class TestHostProcesses:
    def test_enter_host_user(self, machine):
        proc = machine.hypervisor.create_host_process("shell")
        machine.hypervisor.enter_host_user(machine.cpu, proc)
        assert machine.cpu.mode is Mode.ROOT
        assert machine.cpu.ring == 3
        assert machine.cpu.world_label == "U(host)"
        assert machine.cpu.page_table is proc.page_table

    def test_duplicate_host_process_rejected(self, machine):
        machine.hypervisor.create_host_process("p")
        with pytest.raises(ConfigurationError):
            machine.hypervisor.create_host_process("p")

    def test_map_into_host_process(self, machine):
        proc = machine.hypervisor.create_host_process("p")
        frame = machine.memory.allocate()
        machine.hypervisor.map_into_host_process(proc, 0x40_0000, frame)
        assert proc.page_table.translate(0x40_0000) == frame.hpa
