"""Host work budget: Python calls per modeled syscall and per spawn.

Counts the Python-level ``call`` events (function entries and generator
resumptions) whose code lives in the ``repro`` package, through
``sys.setprofile``.  Builtins and the standard library are not counted,
so a count measures this repository's code, not the interpreter's (an
interpreter that inlines comprehensions, 3.12 on, counts at most as
many).  Each operation runs twice first, so the count is the steady
state: marshaling caches hit and /proc nodes exist.  The one cold
operation, ``/proc/<pid>/stat`` of a process not read before, marshals
payloads the caches have not seen, so it measures the miss path.

The ceilings are the current counts; a change that makes an operation
dearer fails here, and one that makes it cheaper lowers its ceiling.
Earlier counts on the same operations:

==============================  ======  ========  =========
operation                       native  baseline  CrossOver
==============================  ======  ========  =========
*before the budget*
getpid                              15        94        117
lstat /bin/tool0000                 29       110        134
open+read+close /proc/1/stat        78       321        390
*budget introduced*
getpid                              12        69         83
lstat /bin/tool0000                 20        78         93
open+read+close /proc/1/stat        59       231        273
fresh /proc/<pid>/stat              72       247        309
==============================  ======  ========  =========

and one ``Kernel.spawn`` took 28 before the budget and 16 since.  The
fresh row was measured on the code the budget was introduced with;
the one-cache marshal path and the flattened ShadowContext redirect
brought the columns to the ceilings below.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.guestos.fs.inode import InodeType
from repro.systems.shadowcontext import ShadowContext
from repro.testbed import build_two_vm_machine, enter_vm_kernel
from repro.workloads.lmbench import NativeSurface, RedirectedSurface

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Ceilings: operation -> (native, baseline, CrossOver).
BUDGET = {
    "getpid": (12, 68, 79),
    "lstat": (20, 77, 89),
    "proc_stat": (59, 228, 261),
    "fresh_proc_stat": (72, 246, 279),
}

#: Ceiling for one ``Kernel.spawn``.
SPAWN_BUDGET = 16


def repro_calls(fn) -> int:
    """Python calls into ``repro`` code while ``fn()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(
                _REPRO_DIR):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


def _inspected_kernel(kernel) -> list:
    """A small inspected environment: one file in /bin and the daemons
    whose ``/proc`` entries :func:`_fresh_proc_stat` reads once each
    (two warm-up runs and the counted one).  Returns their pids."""
    bindir = kernel.rootfs.lookup(kernel.rootfs.root(), "bin")
    kernel.rootfs.create(bindir, "tool0000", InodeType.FILE, mode=0o755)
    return [kernel.spawn(f"daemon{i}", parent=kernel.init).pid
            for i in range(3)]


def _surface(config: str):
    """A surface whose syscalls run in the inspected VM ``vm2``: natively,
    or redirected from ``vm1`` by trap-based or CrossOver
    ShadowContext (Table 5's three configurations)."""
    machine, vm1, _k1, vm2, k2 = build_two_vm_machine()
    machine.cpu.trace.enabled = False
    fresh_pids = iter(_inspected_kernel(k2))
    if config == "native":
        surface = NativeSurface(k2)
    else:
        system = ShadowContext(machine, vm1, vm2,
                               optimized=config == "crossover")
        enter_vm_kernel(machine, vm1)
        system.setup()
        surface = RedirectedSurface(system)
    surface.prepare()
    surface.fresh_pids = fresh_pids
    return surface


def _proc_stat(surface) -> None:
    fd = surface.syscall("open", "/proc/1/stat", "r")
    surface.syscall("read", fd, 256)
    surface.syscall("close", fd)


def _fresh_proc_stat(surface) -> None:
    """The cold path: a /proc entry no run has read, so the open request
    and the read reply are payloads the marshaling cache has not seen
    and the procfs node is built on first lookup."""
    fd = surface.syscall("open", f"/proc/{next(surface.fresh_pids)}/stat",
                         "r")
    surface.syscall("read", fd, 256)
    surface.syscall("close", fd)


OPERATIONS = {
    "getpid": lambda surface: surface.syscall("getpid"),
    "lstat": lambda surface: surface.syscall("lstat", "/bin/tool0000"),
    "proc_stat": _proc_stat,
    "fresh_proc_stat": _fresh_proc_stat,
}


def _steady_calls(surface, op: str) -> int:
    run = OPERATIONS[op]
    run(surface)
    run(surface)
    return repro_calls(lambda: run(surface))


@pytest.mark.parametrize("op", sorted(BUDGET))
@pytest.mark.parametrize("column,config",
                         [(0, "native"), (1, "baseline"), (2, "crossover")])
def test_syscall_within_budget(op, column, config):
    calls = _steady_calls(_surface(config), op)
    ceiling = BUDGET[op][column]
    assert calls <= ceiling, (
        f"{op} on {config}: {calls} Python calls, budget {ceiling}")


def test_calls_are_deterministic():
    surface = _surface("crossover")
    assert _steady_calls(surface, "lstat") == _steady_calls(surface, "lstat")


def test_spawn_within_budget():
    _machine, _vm1, _k1, _vm2, k2 = build_two_vm_machine()
    k2.spawn("warm", parent=k2.init)
    calls = repro_calls(lambda: k2.spawn("daemon", parent=k2.init, uid=1000))
    assert calls <= SPAWN_BUDGET, f"spawn: {calls} calls, budget " \
        f"{SPAWN_BUDGET}"
