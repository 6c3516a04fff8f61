"""Host-speed normalization.

The benchmark shares its host with other machines' work, and the host's
speed for one Python thread drifts over seconds to minutes.  Measured on
a 2-CPU virtual machine: a hot loop of NULL cross-VM calls ran at 33-55
us per call from one second to the next in one process, and the medians
of whole 30 s runs differed by up to 25%.  Medians over a longer run do
not remove a drift that lasts minutes.

So each timed batch of ``crossvm_call`` is paired with a fixed probe run
right before it: a pure-Python kernel that touches no simulator code,
mixing the interpreter work the simulator does (small objects,
attribute and dict access, calls, ``repr``) with KiB-sized
``bytes.hex``/``fromhex`` copies.  A batch time is reported as measured
time × (:data:`REFERENCE_S` / probe time): what it would have taken on
a host where the probe takes :data:`REFERENCE_S`.  A change to the
simulator moves the measured time and not the probe, so the normalized
figure moves with it.  Over 30 s windows of one process the normalized
per-call medians varied by 1-2% where the raw ones varied by 4-6%.

The other workloads are reported as measured: their rounds are seconds
long and few per run, and normalizing them by probes taken around them
made their run-to-run spread larger, not smaller.
"""

from __future__ import annotations

import statistics
import time

#: Probe time of the reference host (seconds per :func:`probe` run).
REFERENCE_S = 1.3e-3

_BLOB = bytes(range(256)) * 8


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt) -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _visit(table: dict, node: _Node) -> int:
    table[node.key & 1023] = node.value
    return len(repr(node.value))


def _kernel(n: int = 600) -> int:
    table: dict = {}
    acc = 0
    node = None
    for i in range(n):
        node = _Node(i, (i, str(i), None), node)
        acc += _visit(table, node)
        if i % 16 == 0:
            acc += len(bytes.fromhex(_BLOB.hex()))
    return acc


def probe(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` runs of the probe kernel."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalize(seconds: float, probe_s: float) -> float:
    """``seconds`` measured next to a probe of ``probe_s``, expressed at
    the reference host's speed."""
    return seconds * REFERENCE_S / probe_s

