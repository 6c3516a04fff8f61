"""Determinism: the simulator's claim that every number is exactly
reproducible run-to-run (docs/architecture.md)."""

import pytest

from repro.analysis import experiments
from repro.guestos.fs.inode import InodeType
from repro.systems import Proxos, ShadowContext
from repro.systems.base import install_redirection
from repro.testbed import (build_single_vm_machine, build_two_vm_machine,
                           enter_vm_kernel)
from repro.workloads.openssh import OpenSSHTransfer
from repro.workloads.utilities import (
    prepare_inspection_environment,
    run_utility,
)


def redirected_latency(system_cls, optimized):
    machine, vm1, k1, vm2, k2 = build_two_vm_machine()
    system = system_cls(machine, vm1, vm2, optimized=optimized)
    enter_vm_kernel(machine, vm1)
    system.setup()
    enter_vm_kernel(machine, vm1)
    system.redirect_syscall("getppid")
    snap = machine.cpu.perf.snapshot()
    for _ in range(3):
        system.redirect_syscall("getppid")
    return snap.delta(machine.cpu.perf.snapshot()).cycles


class TestDeterminism:
    @pytest.mark.parametrize("system_cls", [Proxos, ShadowContext])
    @pytest.mark.parametrize("optimized", [False, True])
    def test_system_latencies_bit_identical(self, system_cls, optimized):
        a = redirected_latency(system_cls, optimized)
        b = redirected_latency(system_cls, optimized)
        assert a == b

    def test_openssh_transfer_bit_identical(self):
        def run():
            machine, vm1, k1, vm2, k2 = build_two_vm_machine(
                names=("private", "public"))
            transfer = OpenSSHTransfer(machine, k1, k2, mode="crossover")
            transfer.setup(64)
            return transfer.run().cycles

        assert run() == run()

    def test_utility_run_bit_identical(self):
        scales = {"procs": 40, "utmp_entries": 30, "words_kib": 16,
                  "bin_files": 10}

        def run():
            from repro.workloads.lmbench import NativeSurface

            machine, vm1, k1, vm2, k2 = build_two_vm_machine()
            prepare_inspection_environment(k2, scales)
            surface = NativeSurface(k2)
            surface.prepare()
            snap = machine.cpu.perf.snapshot()
            output = run_utility("pstree", surface).output
            return snap.delta(machine.cpu.perf.snapshot()).cycles, output

        assert run() == run()

    def test_table7_counts_bit_identical(self):
        a = experiments.run_table7(iterations=2)
        b = experiments.run_table7(iterations=2)
        for op in a:
            for column in ("native", "crossover", "baseline"):
                assert a[op][column] == b[op][column], (op, column)

    def test_table7_unmoved_by_another_kernels_inodes(self):
        """Inode numbers are per kernel: 100k inodes made on another
        machine do not lengthen the stat results Table 7 marshals."""
        before = experiments.table7_cell("crossover", iterations=2)
        _machine, _vm, other = build_single_vm_machine()
        tmp = other.rootfs.lookup(other.rootfs.root(), "tmp")
        for _ in range(100_000):
            other.rootfs.create(tmp, "scratch", InodeType.FILE)
            other.rootfs.unlink(tmp, "scratch")
        after = experiments.table7_cell("crossover", iterations=2)
        assert after["stat"] == before["stat"]
        assert after == before

    def test_figure2_traces_identical(self):
        a = experiments.run_figure2()
        b = experiments.run_figure2()
        for name in a:
            assert a[name]["path"] == b[name]["path"], name
