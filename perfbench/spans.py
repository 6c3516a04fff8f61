"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions of the simulator's layers in
place, records one span per call (name, start, end, parent) and keeps
per-name totals: call count and self time, where a span's self time is
its duration minus the time its child spans cover.

Wrapping happens at the attribute callers look up:

* a module-level function is replaced in every loaded ``repro`` module
  that holds it, so ``from x import f`` callers are traced too;
* a method is replaced on the class and on every subclass that defines
  its own override.  A super-chain call (same span name, same
  ``self``) runs straight through, so one logical call counts once.

Everything is restored by :meth:`Tracer.uninstall`.  Span records are
kept in memory up to :data:`KEEP` entries; the per-name totals are
exact regardless of that cap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: A span target: (span name, module path, attribute path).  The
#: attribute path is ``"func"`` or ``"Class.method"``; several methods
#: traced under one span name are joined with ``|``
#: (``"Class.a|b"``).
Target = Tuple[str, str, str]


class SpanStats:
    """Totals for one span name."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_function(self, original: Callable,
                         replacement: Callable) -> None:
        """Swap ``original`` for ``replacement`` in every loaded
        ``repro`` module that holds it under any name."""
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self.set(module, key, replacement)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


#: Span records kept in memory; the per-name totals count every span.
KEEP = 50_000


class Tracer:
    """In-memory span recorder with exact per-name self time."""

    def __init__(self) -> None:
        #: Recorded spans: (name, start, end, parent index or -1).
        self.spans: List[Tuple[str, float, float, int]] = []
        self.dropped = 0
        self.stats: Dict[str, SpanStats] = {}
        # Open frames: [name, owner, start, child time, span index].
        self._stack: List[list] = []
        self._patches = Patches()

    # -- recording ---------------------------------------------------

    def _wrap(self, name: str, fn: Callable, method: bool) -> Callable:
        """``fn`` timed as span ``name``.  The bookkeeping is inlined:
        a traced fleet set-up runs it millions of times, and its cost
        lands in the parent spans' self time."""
        tracer, stack, spans = self, self._stack, self.spans
        clock = time.perf_counter
        stats = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            owner = args[0] if method else None
            if method and stack and stack[-1][0] == name \
                    and stack[-1][1] is owner:
                return fn(*args, **kwargs)      # super() chain
            index = len(spans)
            if index < KEEP:
                spans.append((name, 0.0, 0.0, stack[-1][4] if stack else -1))
            else:
                index = -1
                tracer.dropped += 1
            frame = [name, owner, clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                stats.calls += 1
                stats.self_s += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if index >= 0:
                    spans[index] = (name, frame[2], end, spans[index][3])

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn, method=False)(*args, **kwargs)

    def install(self, targets: List[Target]) -> None:
        """Wrap every target (each module is imported first)."""
        for name, module_path, attr_path in targets:
            module = importlib.import_module(module_path)
            if "." in attr_path:
                class_name, methods = attr_path.split(".")
                for cls in _class_tree(getattr(module, class_name)):
                    for method in methods.split("|"):
                        if method in vars(cls):
                            self._patches.set(cls, method, self._wrap(
                                name, vars(cls)[method], method=True))
            else:
                original = getattr(module, attr_path)
                self._patches.replace_function(
                    original, self._wrap(name, original, method=False))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        self._patches.undo()

    def self_time_total(self) -> float:
        """Sum of self time over every span name."""
        return sum(s.self_s for s in self.stats.values())

    def dump(self) -> Dict[str, Any]:
        """A JSON-ready view: totals plus the recorded span list."""
        return {
            "stats": {n: {"calls": s.calls, "self_s": s.self_s}
                      for n, s in sorted(self.stats.items())},
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }


def _class_tree(cls: type) -> List[type]:
    """``cls`` and every subclass currently defined, each once."""
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _repro_modules() -> List[Any]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]
