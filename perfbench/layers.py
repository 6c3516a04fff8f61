"""What the traced run measures in each layer of the simulator.

Layers are named after the ``repro`` packages.  :data:`SPANS` lists
the public functions timed as spans; :class:`ModelCounters` reads the
modeled counters (world switches, world-table cache misses, marshaling
cache hits) over one pass; :func:`py_calls` rolls a ``cProfile`` call
count up by package, a deterministic work proxy.
"""

from __future__ import annotations

import cProfile
import os
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Patches, Target

#: Layers with spans, in report order.
LAYERS = ("fleet", "hypervisor", "hw", "core", "guestos", "systems",
          "workloads")

#: The dormant observer and policy subsystems, reported together.
HOOK_PACKAGES = ("telemetry", "audit", "observatory", "xray", "faults",
                 "jit", "switchless")

#: ``py_calls`` groups: every span layer plus the hooks.
PY_CALL_GROUPS = LAYERS + ("hooks",)

_LMBENCH_OPS = ("setup|null_syscall|null_io|open_close|stat|"
                "pipe_round_trip|getppid|read_dev_zero|write_dev_null|fstat")

SPANS: List[Target] = [
    ("fleet.calibrate", "repro.fleet.scheduler", "calibrate_costs"),
    ("fleet.build", "repro.fleet.scheduler", "build_fleet"),
    ("fleet.churn", "repro.fleet.scheduler",
     "FleetMachine.revoke_and_recreate"),
    ("fleet.replay", "repro.fleet.scheduler", "FleetScheduler.run"),
    ("hypervisor.create_vm", "repro.hypervisor.hypervisor",
     "Hypervisor.create_vm"),
    ("hypervisor.create_world", "repro.hypervisor.worlds",
     "WorldService.create_world"),
    ("hypervisor.service_miss", "repro.hypervisor.worlds",
     "WorldService.service_miss"),
    ("hypervisor.hypercall", "repro.hypervisor.hypervisor",
     "Hypervisor.hypercall"),
    ("hypervisor.launch", "repro.hypervisor.hypervisor",
     "Hypervisor.launch"),
    ("hypervisor.world_call", "repro.hypervisor.worlds",
     "WorldService.world_call"),
    ("hw.eptp_set", "repro.hw.ept", "EPTPList.set"),
    ("hw.vmfunc", "repro.hw.cpu", "CPU.vmfunc"),
    ("hw.vmexit", "repro.hw.cpu", "CPU.vmexit"),
    ("core.crossvm_call", "repro.core.crossvm",
     "CrossVMSyscallMechanism.call"),
    ("core.world_call", "repro.core.call", "WorldCallRuntime.call"),
    ("core.encode", "repro.core.convention", "encode"),
    ("core.decode", "repro.core.convention", "decode"),
    ("guestos.execute_syscall", "repro.guestos.kernel",
     "Kernel.execute_syscall"),
    ("guestos.spawn", "repro.guestos.kernel", "Kernel.spawn"),
    ("systems.setup", "repro.systems.base", "CrossWorldSystem.setup"),
    ("systems.redirect", "repro.systems.base",
     "CrossWorldSystem.redirect_syscall"),
    ("workloads.run_utility", "repro.workloads.utilities", "run_utility"),
    ("workloads.lmbench", "repro.workloads.lmbench",
     "LmbenchSuite." + _LMBENCH_OPS),
    ("workloads.openssh", "repro.workloads.openssh",
     "OpenSSHTransfer.setup|run"),
]

SPAN_NAMES = tuple(name for name, _, _ in SPANS)

#: Modeled counts and ratios: (metric, unit, better).
MODELED: List[Tuple[str, str, str]] = [
    ("fleet.sched_events", "count", "lower"),
    ("hw.world_switches", "count", "lower"),
    ("hw.wt_cache.miss_per_call", "ratio", "lower"),
    ("core.encode_cache.hit_ratio", "ratio", "higher"),
    ("core.decode_cache.hit_ratio", "ratio", "higher"),
]


#: Mean modeled error against the paper's numbers over every Table 4-7
#: cell (``paper_tables`` only).  It is deterministic and moves only on a
#: modeling change, which the correctness check catches anyway, so it
#: is reported here rather than as a bounded end-to-end metric.
PAPER_ERR = "analysis.paper_err_pct"


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced run prints, in order."""
    out: List[Tuple[str, str, str]] = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [(f"{group}.py_calls", "count", "lower")
            for group in PY_CALL_GROUPS]
    out += MODELED
    out.append((PAPER_ERR, "%", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


# ---------------------------------------------------------------------------
# modeled counters
# ---------------------------------------------------------------------------


class ModelCounters:
    """Modeled counters summed over every CPU alive in a pass.

    Registers each :class:`~repro.hw.perf.PerfCounters` created while
    installed, and keeps the marshaling-cache statistics across the
    ``clear_caches`` calls a pass makes (fleet calibration clears them).
    """

    def __init__(self) -> None:
        from repro.hw import perf

        self.counters: List[Any] = []
        self._perf = perf
        self._patches = Patches()
        self._cache_base: Counter = Counter()

    def install(self) -> None:
        from repro.core import convention

        counters = self.counters
        original_init = self._perf.PerfCounters.__init__

        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            counters.append(obj)

        self._patches.set(self._perf.PerfCounters, "__init__", init)
        original_clear = convention.clear_caches
        base = self._cache_base

        def clear_caches():
            base.update(convention.cache_stats)
            original_clear()

        self._patches.replace_function(original_clear, clear_caches)

    def uninstall(self) -> None:
        self._patches.undo()

    def events(self) -> Counter:
        total: Counter = Counter()
        for counters in self.counters:
            total.update(counters.events)
        return total

    def cache_stats(self) -> Counter:
        from repro.core import convention

        total = Counter(self._cache_base)
        total.update(convention.cache_stats)
        return total

    def snapshot(self) -> Tuple[Counter, Counter]:
        return self.events(), self.cache_stats()


def modeled_metrics(before: Tuple[Counter, Counter],
                    after: Tuple[Counter, Counter],
                    sched_events: int) -> Dict[str, Optional[float]]:
    """The :data:`MODELED` values over a pass; ``None`` = unmeasured."""
    from repro.hw.perf import WORLD_SWITCH_KINDS

    events = after[0] - before[0]
    cache = after[1] - before[1]

    def ratio(num: int, den: int) -> Optional[float]:
        return num / den if den else None

    return {
        "fleet.sched_events": sched_events or None,
        "hw.world_switches": sum(events[k] for k in WORLD_SWITCH_KINDS)
        or None,
        "hw.wt_cache.miss_per_call": ratio(events["wt_miss_exception"],
                                           events["world_call_hw"]),
        "core.encode_cache.hit_ratio": ratio(
            cache["encode_hits"],
            cache["encode_hits"] + cache["encode_misses"]),
        "core.decode_cache.hit_ratio": ratio(
            cache["decode_hits"],
            cache["decode_hits"] + cache["decode_misses"]),
    }


# ---------------------------------------------------------------------------
# the deterministic work proxy
# ---------------------------------------------------------------------------


def _group_of(filename: str) -> Optional[str]:
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    if len(rest) < 2:
        return None                 # a top-level repro module
    package = rest[0]
    if package in LAYERS:
        return package
    if package in HOOK_PACKAGES:
        return "hooks"
    return None


def py_calls(fn: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """Run ``fn`` under ``cProfile``; Python calls per layer group."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    totals = {group: 0 for group in PY_CALL_GROUPS}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue                # a builtin
        group = _group_of(code.co_filename)
        if group is not None:
            totals[group] += entry.callcount
    return result, totals
