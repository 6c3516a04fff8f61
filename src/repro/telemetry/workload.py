"""The traced case-study workload behind ``crossover trace``.

For each ``(system, variant)`` :func:`trace_system` builds a fresh
two-VM machine under its own telemetry session and runs the lmbench
NULL syscall through the system's redirection path ``calls`` times (one
span per call).  Its summary row cross-checks three views of the same
activity per call:

* the transition-trace world path (how Figure 2 counts crossings),
* the crossings replayed from the call span's captured instants,
* the paper's published Figure-2 count (original variants only).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.telemetry import export, profiler, schema
from repro.telemetry.spans import Span


def workload_prefix(system_name: str, optimized: bool) -> str:
    variant = "optimized" if optimized else "original"
    return f"{system_name.lower()}_{variant}"


def trace_system(system_name: str, optimized: bool, calls: int
                 ) -> Tuple[telemetry.TelemetrySession, Dict[str, Any]]:
    """Run ``calls`` redirected NULL syscalls for one system variant
    under a fresh telemetry session; returns (session, summary row)."""
    # Imported here so the machine stack is only pulled in when
    # actually tracing.
    from repro.analysis import experiments
    from repro.analysis.calibration import FIGURE2_CROSSINGS
    from repro.workloads.lmbench import LmbenchSuite

    variant = "optimized" if optimized else "original"
    label = f"{system_name.lower()}-{variant}"
    with telemetry.scoped(label) as session:
        tracer = session.tracer
        # The machine is built while the session is installed, so its
        # transition trace binds the session observer at construction.
        with tracer.span(f"{label}.setup", category="setup",
                         system=system_name, variant=variant):
            surface = experiments._surface_for(system_name, optimized,
                                               keep_trace=True)
            machine = experiments._machine_of(surface)
            suite = LmbenchSuite(surface)
            suite.setup()
            suite.null_syscall()                 # warm the redirect path
        trace = machine.cpu.trace
        trace_crossings: List[int] = []
        span_crossings: List[int] = []
        workload: Optional[Span] = None
        with tracer.span(f"{label}.workload", category="workload",
                         cpu=machine.cpu, system=system_name,
                         variant=variant, calls=calls) as workload:
            for index in range(calls):
                mark = trace.mark
                with tracer.span("null_syscall", category="call",
                                 cpu=machine.cpu, index=index) as call_span:
                    suite.null_syscall()
                trace_crossings.append(len(trace.path(mark)) - 1)
                if call_span is not None:
                    span_crossings.append(export.crossings_of_span(call_span))

    crossings = trace_crossings[-1] if trace_crossings else 0
    consistent = (trace_crossings == span_crossings
                  and len(set(trace_crossings)) <= 1)
    world_call_spans = 0
    if workload is not None:
        world_call_spans = sum(1 for s in workload.iter_spans()
                               if s.category == "system")
    paper = (FIGURE2_CROSSINGS.get(system_name)
             if not optimized else None)
    row = {
        "system": system_name,
        "variant": variant,
        "calls": calls,
        "crossings_per_call": crossings,
        "paper_crossings": paper,
        "world_call_spans": world_call_spans,
        "span_crossings_consistent": consistent,
        # The simulator records finer ring-level crossings than the
        # paper's world-hop diagrams, so measured >= paper always.
        "paper_bound_ok": paper is None or crossings >= paper,
        "profile_consistent": not profiler.crosscheck(session),
    }
    return session, row


def validate_artifacts(summary_path: str,
                       artifacts: Dict[str, Dict[str, str]]) -> List[str]:
    """Self-check every emitted JSON artifact against the checked-in
    schema bundle (the same check CI runs)."""
    errors = [f"summary.json: {e}"
              for e in schema.validate_file("summary", summary_path)]
    for key, paths in sorted(artifacts.items()):
        for schema_name, artifact in (("chrome_trace", "trace"),
                                      ("metrics", "metrics")):
            path = paths.get(artifact)
            if path is None:
                continue
            errors.extend(f"{os.path.basename(path)}: {e}"
                          for e in schema.validate_file(schema_name, path))
    return errors
