"""Host work budget: Python calls per modeled syscall and per spawn.

Counts the Python-level ``call`` events (function entries and generator
resumptions) whose code lives in the ``repro`` package, through
``sys.setprofile``.  Builtins and the standard library are not counted,
so a count measures this repository's code, not the interpreter's (an
interpreter that inlines comprehensions, 3.12 on, counts at most as
many).  Each operation runs twice first, so the count is the steady
state: marshaling caches hit and /proc nodes exist.

The ceilings are the counts this budget was introduced with; a change
that makes an operation dearer fails here.  The counts before the
budget, on the same operations:

==============================  ======  ========  =========
operation                       native  baseline  CrossOver
==============================  ======  ========  =========
getpid                              15        94        117
lstat /bin/tool0000                 29       110        134
open+read+close /proc/1/stat        78       321        390
==============================  ======  ========  =========

and one ``Kernel.spawn`` took 28.
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
    "getpid": (12, 69, 83),
    "lstat": (20, 78, 93),
    "proc_stat": (59, 231, 273),
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


def _inspected_kernel(kernel) -> None:
    """A small inspected environment: one file in /bin."""
    bindir = kernel.rootfs.lookup(kernel.rootfs.root(), "bin")
    kernel.rootfs.create(bindir, "tool0000", InodeType.FILE, mode=0o755)


def _surface(config: str):
    """A surface whose syscalls run in the inspected VM ``vm2``: natively,
    or redirected from ``vm1`` by trap-based or CrossOver
    ShadowContext (Table 5's three configurations)."""
    machine, vm1, _k1, vm2, k2 = build_two_vm_machine()
    machine.cpu.trace.enabled = False
    _inspected_kernel(k2)
    if config == "native":
        surface = NativeSurface(k2)
    else:
        system = ShadowContext(machine, vm1, vm2,
                               optimized=config == "crossover")
        enter_vm_kernel(machine, vm1)
        system.setup()
        surface = RedirectedSurface(system)
    surface.prepare()
    return surface


def _proc_stat(surface) -> None:
    fd = surface.syscall("open", "/proc/1/stat", "r")
    surface.syscall("read", fd, 256)
    surface.syscall("close", fd)


OPERATIONS = {
    "getpid": lambda surface: surface.syscall("getpid"),
    "lstat": lambda surface: surface.syscall("lstat", "/bin/tool0000"),
    "proc_stat": _proc_stat,
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
