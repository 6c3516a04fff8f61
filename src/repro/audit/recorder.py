"""The flight recorder: bounded, hash-chained world-call audit log.

One :class:`FlightRecorder` is installed on the hook bus (see
:mod:`repro.hooks`); its ``on_*`` methods are the bus callbacks.
Every method appends one structured record with a fixed field set:

``seq``         recorder-local sequence number (0-based, contiguous)
``fam``         record family: ``trace`` (transition-trace events),
                ``hw`` (hardware world_call / EPTP switch), ``hv``
                (hypervisor: WTC service, revalidate, hypercall, virq),
                ``core`` (call bracketing, authorization decisions,
                recoveries, marshal repair), ``sys`` (case-study
                redirect bracketing), ``fault`` (injected-fault
                markers; anomaly detectors deliberately ignore these)
``kind``        event taxonomy key within the family
``frm`` / ``to``  world/VM labels where the event crosses a boundary
``caller_wid`` / ``callee_wid``  the WIDs involved (None when n/a);
                for ``world_call`` records these are the
                hardware-authenticated values
``mode``        ``"H"`` (VMX root / host) or ``"G"`` (guest) after the
                event, when the hook knows it
``ring``        CPL after the event, when the hook knows it
``epoch``       EPTP/PTP mapping epoch, *relative to the recorder's
                installation* so logs are byte-identical regardless of
                how many simulations ran earlier in the process
``decision``    ``"allow"`` / ``"deny"`` on authorization and
                hypercall records
``site``        fault-site name on ``fault`` records
``detail``      free-form annotation
``cycles``      modeled cycle counter (absolute for bracketing
                records, per-event charge for trace records)
``hash``        chain link — see :mod:`repro.audit.chain`

Determinism: records contain only modeled state (no wall-clock, no
RNG, no PIDs), so the same workload produces a byte-identical log at
any worker count.  Boundedness: past ``AuditConfig.capacity`` the
oldest records are dropped ring-style; the drop count and the first
retained ``seq`` are declared in the exported log, and the retained
window remains verifiable link by link.

Zero cost when disabled: nothing here runs unless a recorder is
installed; a hookpoint reads one empty callback tuple.

Cells: a recorder installed over :func:`repro.analysis.parallel.run_cells`
spawns a fresh recorder per cell (epochs relative to the cell's start)
and absorbs the cells' records in spec order, re-sequenced and
re-chained, so the merged log is the same at any worker count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro import hooks as _hooks
from repro.audit import chain as _chain

#: Fixed record field order (documentation + schema + tests).
RECORD_FIELDS = (
    "seq", "fam", "kind", "frm", "to", "caller_wid", "callee_wid",
    "mode", "ring", "epoch", "decision", "site", "detail", "cycles",
    "hash")


@dataclass
class AuditConfig:
    """Recorder knobs.

    ``capacity``     ring bound on retained records (oldest dropped).
    ``algo``         chain link algorithm: ``sha256`` or ``crc32``.
    ``transitions``  record transition-trace events (``fam: trace``);
                     switching this off keeps only the semantic
                     records, which is what the fault campaign uses
                     (its cells run with tracing disabled anyway).
    """

    capacity: int = 65536
    algo: str = "sha256"
    transitions: bool = True


class FlightRecorder(_hooks.Subscriber):
    """Append-only (ring-bounded) hash-chained audit log."""

    def __init__(self, label: str = "audit",
                 config: Optional[AuditConfig] = None) -> None:
        self.label = label
        self.config = config if config is not None else AuditConfig()
        if self.config.algo not in _chain.ALGORITHMS:
            raise ValueError(f"unknown chain algorithm "
                             f"{self.config.algo!r}")
        self._records: Deque[Dict[str, Any]] = deque()
        self._seq = 0
        self._dropped = 0
        #: Records whose decision was ``"deny"`` — the online anomaly
        #: signal the observatory samples (full detectors stay offline).
        self.denials = 0
        self._genesis = _chain.genesis(self.config.algo)
        self._prev_hash = self._genesis
        # Imported here, not at module top: repro.audit must stay a
        # leaf package so hot datapath modules (hw.cpu, hw.trace,
        # core.call) can import it without cycles.
        from repro.hw import mem
        self._mem = mem
        self._epoch_base = mem.mapping_epoch()

    # ------------------------------------------------------------------
    # the append path
    # ------------------------------------------------------------------

    def _emit(self, fam: str, kind: str, *, frm: str = "", to: str = "",
              caller_wid: Optional[int] = None,
              callee_wid: Optional[int] = None,
              mode: Optional[str] = None, ring: Optional[int] = None,
              decision: Optional[str] = None, site: Optional[str] = None,
              detail: str = "", cycles: int = 0) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "seq": self._seq,
            "fam": fam,
            "kind": kind,
            "frm": frm,
            "to": to,
            "caller_wid": caller_wid,
            "callee_wid": callee_wid,
            "mode": mode,
            "ring": ring,
            "epoch": self._mem.mapping_epoch() - self._epoch_base,
            "decision": decision,
            "site": site,
            "detail": detail,
            "cycles": cycles,
        }
        self._append(record)
        if decision == "deny":
            for fn in _hooks.audit_anomaly:
                fn(f"{fam}.{kind}", detail or frm)
        return record

    def _append(self, record: Dict[str, Any]) -> None:
        """Sequence, chain and retain ``record`` (all fields but
        ``seq`` and ``hash`` already set)."""
        record["seq"] = self._seq
        record["hash"] = _chain.link(self._prev_hash, record,
                                     self.config.algo)
        self._prev_hash = record["hash"]
        self._seq += 1
        self._records.append(record)
        if len(self._records) > self.config.capacity:
            self._records.popleft()
            self._dropped += 1
        if record["decision"] == "deny":
            self.denials += 1

    def stats(self) -> Dict[str, int]:
        """Monotonic counters for the observatory's windowed sampling."""
        return {"records": self._seq, "dropped": self._dropped,
                "denials": self.denials}

    # ------------------------------------------------------------------
    # hookpoints (hw layer)
    # ------------------------------------------------------------------

    def on_transition(self, event) -> None:
        """One :class:`~repro.hw.trace.TransitionEvent` was recorded."""
        if self.config.transitions:
            self._emit("trace", event.kind, frm=event.frm, to=event.to,
                       detail=event.detail, cycles=event.cycles)

    def on_world_call_hw(self, caller_wid: int, callee_wid: int, *,
                         frm: str, to: str, mode: str, ring: int,
                         cycles: int) -> None:
        """A committed hardware ``world_call`` (VMFUNC fn 1).  The WIDs
        are the hardware-authenticated ones — the unforgeable half of
        the paper's security argument."""
        self._emit("hw", "world_call", frm=frm, to=to,
                   caller_wid=caller_wid, callee_wid=callee_wid,
                   mode=mode, ring=ring, cycles=cycles)

    def on_ept_switch(self, index: int, to: str, ring: int,
                      cycles: int) -> None:
        """A committed EPTP switch (VMFUNC fn 0)."""
        self._emit("hw", "ept_switch", to=to, mode="G", ring=ring,
                   detail=f"eptp[{index}]", cycles=cycles)

    # ------------------------------------------------------------------
    # hookpoints (hypervisor layer)
    # ------------------------------------------------------------------

    def on_wtc_service(self, cache: str, key: Any) -> None:
        """The hypervisor refilled a WT/IWT cache line (manage_wtc)."""
        self._emit("hv", "wtc_service", detail=f"{cache}:{key!r}")

    def on_revalidate(self, wid: int) -> None:
        """The hypervisor re-validated (healed) a world entry."""
        self._emit("hv", "revalidate", callee_wid=wid)

    def on_hypercall(self, number: int, vm: str, decision: str) -> None:
        """One hypercall round trip and the handler's decision."""
        self._emit("hv", "hypercall", frm=vm, to="host",
                   decision=decision, detail=f"number {number:#x}")

    def on_virq_inject(self, vector: int, vm: str) -> None:
        self._emit("hv", "virq_inject", to=vm,
                   detail=f"vector {vector:#x}")

    def on_virq_deliver(self, vector: int, vm: str) -> None:
        self._emit("hv", "virq_deliver", to=vm,
                   detail=f"vector {vector:#x}")

    # ------------------------------------------------------------------
    # hookpoints (core layer)
    # ------------------------------------------------------------------

    def on_call_begin(self, caller_wid: int, callee_wid: int,
                      cycles: int, cpu=None) -> None:
        self._emit("core", "call_begin", caller_wid=caller_wid,
                   callee_wid=callee_wid, cycles=cycles)

    def on_call_end(self, caller_wid: int, callee_wid: int, cycles: int,
                    outcome: str, cpu=None) -> None:
        self._emit("core", "call_end", caller_wid=caller_wid,
                   callee_wid=callee_wid, cycles=cycles, detail=outcome)

    def on_authorization(self, caller_wid: int, callee_wid: int,
                         decision: str, detail: str = "") -> None:
        """The callee's software authorization decision over the
        *presented* caller WID (which a compromised software layer may
        have forged — detectors compare it against the
        hardware-delivered WIDs in the ``hw`` records)."""
        self._emit("core", "authorization", caller_wid=caller_wid,
                   callee_wid=callee_wid, decision=decision,
                   detail=detail)

    def on_crossvm_begin(self, frm: str, to: str, cycles: int,
                         cpu=None) -> None:
        self._emit("core", "crossvm_begin", frm=frm, to=to, cycles=cycles)

    def on_crossvm_end(self, frm: str, to: str, cycles: int,
                       outcome: str, cpu=None) -> None:
        self._emit("core", "crossvm_end", frm=frm, to=to, cycles=cycles,
                   detail=outcome)

    def on_recovery(self, policy: str) -> None:
        self._emit("core", "recovery", detail=policy)

    def on_marshal_repair(self) -> None:
        self._emit("core", "marshal_repair",
                   detail="poisoned encode-cache entry re-encoded")

    # ------------------------------------------------------------------
    # hookpoints (systems + faults)
    # ------------------------------------------------------------------

    def on_redirect_begin(self, system, op: str) -> None:
        """``system`` (a case-study system) starts redirecting ``op``."""
        self._emit("sys", "redirect_begin",
                   frm=f"{system.name}/{system.variant}", detail=op,
                   cycles=system.machine.cpu.perf.cycles)

    def on_redirect_end(self, system, op: str) -> None:
        self._emit("sys", "redirect_end",
                   frm=f"{system.name}/{system.variant}", detail=op,
                   cycles=system.machine.cpu.perf.cycles)

    def on_fault_injected(self, site: str) -> None:
        """Marker written when the fault engine fires a site.  Exists
        for offline correlation only; detectors must not read it (a
        production fault leaves no such courtesy marker)."""
        self._emit("fault", "fault_injected", site=site)

    # ------------------------------------------------------------------
    # cells (the hook-bus protocol)
    # ------------------------------------------------------------------

    def spawn(self, runner: str, args: tuple) -> "FlightRecorder":
        return FlightRecorder(self.label, self.config)

    def harvest(self) -> Dict[str, Any]:
        return {"records": list(self._records), "dropped": self._dropped}

    def absorb(self, payload: Dict[str, Any], runner: str = "",
               args: tuple = (), pid: Optional[int] = None) -> None:
        """Append a cell's records to this log (re-sequenced and
        re-chained; the anomaly events already fired in the cell)."""
        for record in payload["records"]:
            self._append(dict(record))
        self._dropped += payload["dropped"]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The retained records, oldest first (copies not made)."""
        return list(self._records)

    def to_log(self) -> Dict[str, Any]:
        """The exportable, verifiable log (plain data, json-ready)."""
        return {
            "label": self.label,
            "algo": self.config.algo,
            "genesis": self._genesis,
            "first_seq": self._records[0]["seq"] if self._records else 0,
            "dropped": self._dropped,
            "final_hash": self._prev_hash,
            "records": list(self._records),
        }
