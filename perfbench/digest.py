"""Digests of modeled results and the reference they are checked against.

``reference.json`` holds what the simulator modeled when the benchmark
was recorded (``python3 perfbench/record.py`` rewrites it): a digest of
every Table 4-7 row, the perf counters of one call of each
``crossvm_call`` op, and a digest of every ``fleet_2k`` cell at the
recorded seeds.  A run compares its modeled results against it; any
mismatch is a failed cell or call.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def digest(value: Any) -> str:
    """A stable short hash of a JSON-like value (floats by ``repr``)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)
