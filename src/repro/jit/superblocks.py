"""The compiled superblocks: straight-line transition sequences.

Each superblock is the trace-compiled form of one hot round trip — the
Figure-4 cross-VM syscall, the ShadowContext inject-into-dummy redirect,
or a complete ``world_call`` round trip.  Compilation hoists everything
the interpreter re-derives per call into the block:

* **guard vector** — the validity preconditions (mode/ring/VM identity,
  EPTP-list slots, WT/IWT cache residency, present bits, busy flags)
  collapse to a handful of identity compares and dict probes executed
  once at block entry.  Any guard failure returns :data:`DEOPT` *before
  the first state change*, so the interpreter re-executes the call from
  scratch and observable behaviour is identical.
* **batched charging** — the per-step costs of the whole transition are
  pre-summed per payload length (:class:`repro.hw.fused.SizedBatch`)
  and applied as one ``charge_batch`` vector-add; event counts are the
  exact per-kind crossing counts the step-by-step path produces.
* **one-walk marshaling** — payloads round-trip through
  :func:`repro.core.convention.roundtrip`, which yields both the wire
  bytes and a fresh decoded copy off a single content walk.

The blocks mutate exactly the state the interpreter mutates (VMCS
areas, TLB notifications, scheduler bookkeeping, WT-cache LRU order and
hit counters, call stacks, register files) so that a workload can cross
between compiled and interpreted execution at any call boundary and the
modeled counters stay bit-identical.  Stores into inter-VM shared
regions are elided the same way the PR1 fused path elides read-backs:
the bytes are dead (always rewritten before the next read) and their
copy charges are in the batch.

Guards only cover the *pre-handler* state; a handler is free to leave
the CPU anywhere (nested calls, reschedules).  Each block therefore
re-checks the post-handler shape and, when it diverges, re-joins the
interpreter's own return sequence via the live primitives — which also
reproduces the interpreter's faulting behaviour exactly.

Blocks never dispatch themselves: :class:`repro.jit.JitEngine` owns the
cache, the heat counters, and the epoch/observer checks, and only calls
``execute`` once the configuration-level preconditions hold (fast path
on, trace off, no telemetry/audit/fault observers).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core import convention
from repro.errors import (
    AuthorizationDenied,
    CalleeHang,
    ControlFlowViolation,
    GuestOSError,
    SimulationError,
    WorldCallError,
    WorldCallFault,
)
from repro.hw import fused
from repro.hw.cpu import VMFUNC_EPT_SWITCH, Mode, WID_REGISTER
from repro.hw.vmx import ExitReason

#: Sentinel returned by ``execute`` when a guard fails before any state
#: change: the dispatch site falls through to the interpreter.
DEOPT = object()

_NON_ROOT = Mode.NON_ROOT
_ROOT = Mode.ROOT


class CrossvmSuperblock:
    """One compiled Figure-4 cross-VM round trip for a fixed VM pair.

    Two shapes share the machinery: ``syscall`` (the block holds the
    remote kernel and default runner, replacing the per-call ``serve``
    closure) and ``fn`` (the server callable arrives per call, exactly
    as the interpreter receives it).
    """

    __slots__ = (
        "stats", "mech", "state", "cpu", "from_name", "to_name",
        "eptp_list", "from_id", "to_id", "from_ept", "to_ept",
        "from_label", "to_label", "from_eptp", "to_eptp",
        "helper_pt", "helper_root", "idt2", "capacity",
        "remote_kernel", "runner", "executor", "enter_batch",
        "return_batch",
    )

    @classmethod
    def compile(cls, engine, mech, from_vm, to_vm,
                executor) -> Optional["CrossvmSuperblock"]:
        from repro.core import crossvm as _crossvm
        from repro import switchless as _switchless

        sl = _switchless.current()
        if sl is not None and sl.site_flipped("crossvm", from_vm.name,
                                              to_vm.name):
            # The adaptive policy routes this pair through the
            # switchless worker; a compiled world-switch block would
            # never be dispatched (and would go stale on flip-back).
            return None
        state = mech._pairs.get(mech._key(from_vm, to_vm))
        if state is None or not state.ctx_zeroed:
            return None
        cpu = mech.machine.cpu
        lst = cpu.eptp_list
        if lst is None:
            return None
        if not (0 <= to_vm.vm_id < lst.size and 0 <= from_vm.vm_id < lst.size):
            return None
        to_ept = lst.get(to_vm.vm_id)
        from_ept = lst.get(from_vm.vm_id)
        if to_ept is None or from_ept is None:
            return None
        runner = (executor if executor is not None
                  else state.helpers.get(to_vm.name))

        block = cls()
        block.stats = engine.stats
        block.mech = mech
        block.state = state
        block.cpu = cpu
        block.from_name = from_vm.name
        block.to_name = to_vm.name
        block.eptp_list = lst
        block.from_id = from_vm.vm_id
        block.to_id = to_vm.vm_id
        block.from_ept = from_ept
        block.to_ept = to_ept
        block.from_label = from_ept.label or None
        block.to_label = to_ept.label or None
        block.from_eptp = from_ept.eptp
        block.to_eptp = to_ept.eptp
        block.helper_pt = state.helper_pt
        block.helper_root = state.helper_pt.root
        block.idt2 = state.idt2
        block.capacity = (_crossvm.SHARED_PAGES * _crossvm.PAGE_SIZE
                          - _crossvm._CONTEXT_SAVE_BYTES - 4)
        block.remote_kernel = to_vm.kernel
        block.executor = executor
        block.runner = runner

        cm = cpu.cost_model
        enter_rec = fused.crossvm_enter(cm, install_idt=True)
        enter_events = dict(enter_rec.events)
        enter_events["copy"] = enter_events.get("copy", 0) + 3
        enter_cost = enter_rec.cost + cm.copy(_crossvm._CONTEXT_SAVE_BYTES)

        def build_enter(n, _cost=enter_cost, _events=enter_events, _cm=cm):
            return _cost + _cm.copy(4 + n) + _cm.copy(n), _events

        block.enter_batch = fused.SizedBatch(build_enter)

        ret_recs = {}
        for restore in (False, True):
            rec = fused.crossvm_return(cm, restore_idt=restore)
            events = dict(rec.events)
            events["copy"] = events.get("copy", 0) + 2
            ret_recs[restore] = (rec.cost, events)

        def build_return(key, _recs=ret_recs, _cm=cm):
            restore, m = key
            cost, events = _recs[restore]
            return cost + _cm.copy(4 + m) + _cm.copy(m), events

        block.return_batch = fused.SizedBatch(build_return)
        return block

    def execute_syscall(self, name, args, kwargs, executor):
        if executor is not self.executor or self.runner is None:
            return DEOPT
        return self._run((name, args, kwargs), None)

    def execute_fn(self, fn, payload):
        return self._run(payload, fn)

    def _run(self, request_obj, server):
        cpu = self.cpu
        # --- guard vector (no state changed until it passes) ----------
        # The ``vm_name`` check is what carries VM identity: every VMCS
        # points at the hypervisor's one EPTP list, so the list identity
        # and slot probes below only catch a rewired or re-pointed list.
        if (cpu.mode is not _NON_ROOT or cpu.vm_name != self.from_name
                or cpu.ring != 0 or cpu.page_table is None):
            return DEOPT
        lst = cpu.eptp_list
        if (lst is not self.eptp_list
                or lst._slots[self.to_id] is not self.to_ept
                or lst._slots[self.from_id] is not self.from_ept):
            # Direct slot probes: the indices were bounds-checked at
            # compile time and the list identity was just verified.
            return DEOPT
        wire, payload = convention.roundtrip(request_obj)
        n = len(wire)
        if n > self.capacity:
            return DEOPT
        self.stats.hits += 1

        # --- steps 2-3: helper context, calling info, EPTP switch -----
        interrupts = cpu.interrupts
        tlb = cpu.tlb
        saved_pt = cpu.page_table
        saved_idt = interrupts.idt
        cpu.page_table = self.helper_pt
        tlb.on_cr3_write(self.helper_root)
        interrupts.interrupts_enabled = False
        interrupts.idt = self.idt2
        cpu.ept = self.to_ept
        if self.to_label is not None:
            cpu.vm_name = self.to_label
        tlb.on_ept_switch(self.to_eptp)
        interrupts.interrupts_enabled = True
        cost, events = self.enter_batch.get(n)
        cpu.perf.charge_batch(cost, events)

        # --- step 4: serve in the callee VM's kernel ------------------
        try:
            if server is None:
                r_name, r_args, r_kwargs = payload
                outcome = self.remote_kernel.execute_syscall(
                    self.runner, r_name, *r_args, **r_kwargs)
            else:
                outcome = server(payload)
        except GuestOSError as err:
            outcome = err

        # --- steps 5-6: returned buffer, switch back, restore ---------
        reply, result = convention.roundtrip(outcome)
        m = len(reply)
        if m > self.capacity:
            self.mech._check_fits(m)    # raises exactly like the interpreter
        restore_idt = saved_idt is not None
        if (cpu.ring == 0 and cpu.mode is _NON_ROOT
                and cpu.eptp_list is self.eptp_list
                and lst._slots[self.from_id] is self.from_ept):
            interrupts.interrupts_enabled = False
            cpu.ept = self.from_ept
            if self.from_label is not None:
                cpu.vm_name = self.from_label
            tlb.on_ept_switch(self.from_eptp)
            if restore_idt:
                interrupts.idt = saved_idt
            interrupts.interrupts_enabled = True
            cpu.page_table = saved_pt
            tlb.on_cr3_write(saved_pt.root)
        else:
            # The handler moved the CPU (nested call, reschedule):
            # re-join the interpreter's return sequence, privilege
            # checks and all.
            cpu.cli(charge=False)
            cpu.vmfunc(VMFUNC_EPT_SWITCH, self.from_id, charge=False)
            if restore_idt:
                cpu.install_idt(saved_idt, charge=False)
            cpu.sti(charge=False)
            cpu.write_cr3(saved_pt, charge=False)
        cost, events = self.return_batch.get((restore_idt, m))
        cpu.perf.charge_batch(cost, events)
        self.state.calls += 1

        if isinstance(result, GuestOSError):
            raise result
        return result


class ShadowRedirectSuperblock:
    """ShadowContext's baseline inject-into-dummy redirect, compiled for
    the steady-state shape (dummy asleep in ring 3, nothing queued).

    The first half — exit, inject, enter, deliver, wake, sysret — is
    fully inlined: the ring trajectory collapses to its net effect (the
    intermediate ring values are unobservable with tracing off) and the
    virq queue push/pop cancels out, with the injector's counters
    replayed directly.  The second half runs the live ``vmexit`` /
    ``launch`` primitives because the dummy's handler may have moved
    machine state the block did not compile against.
    """

    __slots__ = ("stats", "system", "cpu", "hypervisor", "injector",
                 "local_vm", "remote_vm", "lvmcs", "rvmcs", "ridt_vectors",
                 "remote_kernel", "scheduler", "dummy", "dummy_pt",
                 "dummy_root", "vector", "pre_batch", "post_batch")

    @classmethod
    def compile(cls, engine, system) -> Optional["ShadowRedirectSuperblock"]:
        from repro.hypervisor.injection import VECTOR_SYSCALL_REDIRECT
        from repro.systems import base as _systems_base

        if not _systems_base.superblock_safe(system):
            # The system left a step of its baseline path out of its
            # SUPERBLOCK_SAFE annotation: the whole trip must stay
            # interpreted.
            return None
        remote_vm = system.remote_vm
        ridt = remote_vm.vmcs.guest.idt
        if ridt is None:
            # The guard vector probes the IDT's vector table each call;
            # with no IDT installed yet there is nothing to probe.
            return None
        dummy = getattr(system, "dummy", None)
        if dummy is None or system.remote_kernel is None:
            return None

        block = cls()
        block.stats = engine.stats
        block.system = system
        block.cpu = system.machine.cpu
        block.hypervisor = system.machine.hypervisor
        block.injector = system.machine.hypervisor.injector
        block.local_vm = system.local_vm
        block.remote_vm = remote_vm
        block.lvmcs = system.local_vm.vmcs
        block.rvmcs = remote_vm.vmcs
        block.ridt_vectors = ridt._vectors
        block.remote_kernel = system.remote_kernel
        block.scheduler = system.remote_kernel.scheduler
        block.dummy = dummy
        block.dummy_pt = dummy.page_table
        block.dummy_root = dummy.page_table.root
        block.vector = VECTOR_SYSCALL_REDIRECT

        cm = system.machine.cost_model
        pre_cost, pre_events = system._fused_batch((True, True))
        post_cost, post_events = system._fused_batch("post")

        def build_pre(n, _cost=pre_cost, _events=pre_events, _cm=cm):
            return _cost + _cm.copy(n), _events

        def build_post(m, _cost=post_cost, _events=post_events, _cm=cm):
            return _cost + _cm.copy(m), _events

        block.pre_batch = fused.SizedBatch(build_pre)
        block.post_batch = fused.SizedBatch(build_post)
        return block

    def execute(self, name, args, kwargs):
        cpu = self.cpu
        rvmcs = self.rvmcs
        guest = rvmcs.guest
        dummy = self.dummy
        # --- guard vector ---------------------------------------------
        if (cpu.mode is not _NON_ROOT or cpu.ring != 0
                or cpu.current_vmcs is not self.lvmcs
                or self.lvmcs.host.ring != 0
                or self.remote_vm.pending_virqs
                or self.local_vm.pending_virqs
                or guest.ring != 3
                or not guest.interrupts_enabled
                or guest.idt is None
                or guest.idt._vectors is not self.ridt_vectors
                or self.vector in self.ridt_vectors
                or self.remote_kernel.current is not None
                or not dummy.alive
                or dummy.page_table is not self.dummy_pt):
            return DEOPT
        wire = convention.encode((name, args, kwargs))
        self.stats.hits += 1

        # --- exit trusted VM, inject + enter + wake the dummy ---------
        lvmcs = self.lvmcs
        lvmcs.save_guest(cpu)
        lvmcs.exit_reason = ExitReason.VMCALL
        lvmcs.load_host(cpu)
        injector = self.injector
        injector.injected += 1
        injector.injected_by_vector[self.vector] = \
            injector.injected_by_vector.get(self.vector, 0) + 1
        rvmcs.save_host(cpu)
        rvmcs.load_guest(cpu)
        cpu.current_vmcs = rvmcs
        # Deliver + trap + context switch + sysret, collapsed: the ring
        # walks 3 -> 0 (irq) -> 3 (iret) -> 0 (trap) -> 3 (sysret); only
        # the net value survives with tracing off, and the charge shape
        # is already in the batch.
        cpu.page_table = self.dummy_pt
        cpu.tlb.on_cr3_write(self.dummy_root)
        cpu._current_wid = None
        dummy.state = "running"
        self.remote_kernel.current = dummy
        self.scheduler.switches += 1
        cpu.ring = 3
        cost, events = self.pre_batch.get(len(wire))
        cpu.perf.charge_batch(cost, events)

        try:
            result: Any = dummy.syscall(name, *args, **kwargs)
        except GuestOSError as err:
            result = err

        # --- completion: exit untrusted VM, resume trusted VM ---------
        reply = convention.encode(result)
        self.remote_kernel.current = None
        cpu.vmexit(ExitReason.VMCALL, "shadowcontext done", charge=False)
        self.hypervisor.launch(cpu, self.local_vm, "resume trusted VM",
                               charge=False)
        cost, events = self.post_batch.get(len(reply))
        cpu.perf.charge_batch(cost, events)
        if isinstance(result, GuestOSError):
            raise result
        return result


class WorldCallSuperblock:
    """One compiled ``world_call`` round trip between a fixed caller
    world and callee WID.

    The WT/IWT lookups are *replayed* (they are cheap ordered-dict
    probes) rather than elided, so the caches' hit counters and LRU
    order — observable through machine inspection and the cache
    ablations — advance exactly as the interpreter advances them; the
    residency probes in the guard vector use stat-free dict access, so
    a deopt never double-counts.

    The dispatch hook sits at the top of ``WorldCallRuntime._call`` so
    every exception a block raises travels through the same
    retry/fallback layers (``_call_recoverable`` / ``_call_guarded``)
    as an interpreter-raised one.
    """

    __slots__ = ("stats", "runtime", "machine", "cpu", "caller",
                 "callee_wid", "caller_wid", "authorize", "callee",
                 "wt_caches", "gprs", "pre_cost", "pre_events",
                 "post_cost", "post_events")

    @classmethod
    def compile(cls, engine, runtime, caller, callee_wid,
                authorize) -> Optional["WorldCallSuperblock"]:
        from repro.core import call as _call
        from repro import switchless as _switchless

        sl = _switchless.current()
        if sl is not None and sl.site_flipped("world", caller.wid,
                                              callee_wid):
            # Flipped sites dispatch through the switchless ring above
            # the JIT hook; refuse to spend a compile on them.
            return None
        machine = runtime.machine
        cpu = machine.cpu
        if runtime.binding_table is not None or cpu.wt_caches is None \
                or not cpu.features.crossover:
            return None
        callee = runtime.registry.get(callee_wid)
        if callee is None or callee.handler is None:
            return None
        entry = callee.entry
        try:
            # The interpreter validates the entry point through the
            # callee's translations on every call; validate once here —
            # the engine's mapping-epoch guard keeps it valid.
            gpa = entry.page_table.translate(entry.pc, user=entry.ring == 3,
                                             execute=True)
            if entry.ept is not None:
                entry.ept.translate(gpa, execute=True)
        except Exception:
            return None

        block = cls()
        block.stats = engine.stats
        block.runtime = runtime
        block.machine = machine
        block.cpu = cpu
        block.caller = caller
        block.callee_wid = callee_wid
        block.caller_wid = caller.wid
        block.authorize = authorize
        block.callee = callee
        block.wt_caches = cpu.wt_caches
        block.gprs = cpu.regs._gprs
        if "rip" not in block.gprs or WID_REGISTER not in block.gprs:
            return None

        cm = cpu.cost_model
        # Everything charged before the handler can observe the cycle
        # counter, folded into one batch: caller entry (state save +
        # param setup), the hardware transition, and — when scheduler
        # awareness is on — the Section 5.3 reload + software
        # authorization.
        pre = fused.fuse(cm, ("world_save_state", "world_param_setup",
                              "world_call_hw"))
        events: Dict[str, int] = dict(pre.events)
        cost = pre.cost
        if authorize:
            events["world_authorize"] = 1
            cost = cost + cm.world_authorize
            if callee.kernel is not None:
                events["sched_reload"] = 1
                cost = cost + _call._SCHED_RELOAD
        block.pre_cost = cost
        block.pre_events = events
        post = fused.fuse(cm, ("world_call_hw", "world_restore_state"))
        block.post_cost = post.cost
        block.post_events = dict(post.events)
        return block

    def execute(self, payload):
        caller = self.caller
        callee = self.callee
        cpu = self.cpu
        runtime = self.runtime
        wt = self.wt_caches.wt
        iwt = self.wt_caches.iwt
        wt_entries = wt._entries
        iwt_entries = iwt._entries
        caller_entry = caller.entry
        callee_entry = callee.entry
        prefetch = cpu.features.current_wid_register
        # --- guard vector (stat-free probes only) ---------------------
        # The context keys are derived once per dispatch and reused by
        # every probe below (the interpreter re-derives them at each
        # lookup; the values are identical as long as the entry objects
        # are, which the identity probes check).
        caller_key = caller_entry.context_key()
        if (caller.watchdog_armed
                or callee.busy
                or callee.handler is None
                or runtime.binding_table is not None
                or not caller_entry.present
                or not callee_entry.present
                or (cpu.mode is _ROOT, cpu.ring, cpu.eptp,
                    cpu.cr3) != caller_key
                or wt_entries.get(self.callee_wid) is not callee_entry):
            return DEOPT
        # Outbound caller identification: the prefetch-register compare
        # or the IWT probe must hit (the context compare above
        # guarantees the CPU really is in the caller's context).
        if prefetch and cpu._current_wid is not None \
                and cpu._current_wid in wt_entries:
            if wt_entries[cpu._current_wid] is not caller_entry:
                return DEOPT
            out_via_wt = True
        else:
            if iwt_entries.get(caller_key) is not caller_entry:
                return DEOPT
            out_via_wt = False
        # Return-path residency: the callee identifies itself and looks
        # the caller up by WID.
        if not prefetch and \
                iwt_entries.get(callee_entry.context_key()) \
                is not callee_entry:
            return DEOPT
        if wt_entries.get(self.caller_wid) is not caller_entry:
            return DEOPT
        wire, decoded = convention.roundtrip(payload)
        if not convention.fits_registers(wire):
            return DEOPT
        self.stats.hits += 1

        # --- caller entry: frame push + outbound transition -----------
        regs = cpu.regs
        gprs = self.gprs
        caller_kernel = caller.kernel
        caller.call_stack.append({
            "expected_callee": self.callee_wid,
            "regs": regs.snapshot(),
            "kernel_current": (caller_kernel.current
                               if caller_kernel is not None else None),
        })
        # Replay the hardware lookups (hit counters + LRU order).
        if out_via_wt:
            wt.lookup(cpu._current_wid)
        else:
            iwt.lookup(caller_key)
        wt.lookup(self.callee_wid)
        # Commit the switch into the callee's context via the same
        # helper the interpreter datapath uses.
        cpu.commit_world_entry(callee_entry, self.caller_wid)
        cpu.perf.charge_batch(self.pre_cost, self.pre_events)

        # --- callee side ----------------------------------------------
        from repro.core.call import CallRequest

        callee.busy = True
        saved_current = None
        kernel = callee.kernel
        try:
            if kernel is not None:
                saved_current = kernel.current
                if callee.process is not None:
                    kernel.current = callee.process
            result: Any = None
            if self.authorize:
                try:
                    callee.policy.check(self.caller_wid)
                except AuthorizationDenied as denied:
                    result = ("__denied__", denied.detail or str(denied))
            if result is None:
                request = CallRequest(
                    caller_wid=self.caller_wid, payload=decoded,
                    service=callee.policy.service_for(self.caller_wid))
                try:
                    result = callee.handler(request)
                except CalleeHang:
                    raise
                except GuestOSError as err:
                    result = err
                except AuthorizationDenied as denied:
                    result = ("__denied__", denied.detail or str(denied))
                except WorldCallError as err:
                    result = ("__wcerr__", str(err))
        except CalleeHang:
            return runtime._recover_from_hang(caller, callee)
        finally:
            callee.busy = False
            if kernel is not None:
                kernel.current = saved_current

        # --- result marshaling ----------------------------------------
        channel = runtime._channels.get((self.caller_wid, self.callee_wid))
        try:
            result_wire, value = convention.roundtrip(result)
            result_in_regs = convention.fits_registers(result_wire)
            if not result_in_regs and channel is None:
                raise WorldCallError(
                    f"result of {len(result_wire)}B needs a channel")
        except (WorldCallError, SimulationError):
            self._return_transition(cpu, recover=False)
            runtime._unwind_caller(caller)
            raise
        if not result_in_regs:
            cpu.charge("world_param_setup")
            channel.write_payload(cpu, self.machine.memory, result_wire)

        # --- return transition + caller restore -----------------------
        self._return_transition(cpu, recover=True)
        returned_from = gprs[WID_REGISTER]
        saved = caller.call_stack.pop()
        if returned_from != saved["expected_callee"]:
            raise ControlFlowViolation(
                f"world call to {saved['expected_callee']} returned from "
                f"world {returned_from}")
        regs.restore(saved["regs"])
        if caller_kernel is not None and saved["kernel_current"] is not None:
            caller_kernel.current = saved["kernel_current"]

        if not result_in_regs:
            result_wire = channel.read_payload(cpu, self.machine.memory)
            value = convention.decode(result_wire)
        if isinstance(value, GuestOSError):
            raise value
        if isinstance(value, tuple) and len(value) == 2 and \
                value[0] == "__denied__":
            raise AuthorizationDenied(self.caller_wid, value[1])
        if isinstance(value, tuple) and len(value) == 2 and \
                value[0] == "__wcerr__":
            raise WorldCallError(value[1])
        runtime.calls_completed += 1
        return value

    def _return_transition(self, cpu, recover: bool) -> None:
        """The callee's ``world_call`` back to the caller plus the
        restore-state charge.

        The straight-lined datapath runs only when the handler left the
        CPU in the compiled callee context with both worlds still
        cache-resident; otherwise the live path takes over from
        wherever the handler stopped, with (``recover=True``) or
        without (the marshal-failure unwind) the interpreter's
        return-fault recovery.
        """
        wt = self.wt_caches.wt
        iwt = self.wt_caches.iwt
        wt_entries = wt._entries
        iwt_entries = iwt._entries
        caller_entry = self.caller.entry
        callee_entry = self.callee.entry
        runtime = self.runtime
        prefetch = cpu.features.current_wid_register
        callee_key = callee_entry.context_key()
        steady = (cpu._current_wid == self.callee_wid
                  and (cpu.mode is _ROOT, cpu.ring, cpu.eptp,
                       cpu.cr3) == callee_key
                  and callee_entry.present
                  and caller_entry.present
                  and wt_entries.get(self.caller_wid) is caller_entry)
        if steady:
            if prefetch and wt_entries.get(self.callee_wid) \
                    is callee_entry:
                wt.lookup(self.callee_wid)
            elif iwt_entries.get(callee_key) is callee_entry:
                iwt.lookup(callee_key)
            else:
                steady = False
        if not steady:
            if recover:
                try:
                    runtime._world_call_hw(cpu, self.caller_wid)
                except WorldCallFault as fault:
                    runtime._recover_return(self.caller, self.caller_wid,
                                            fault)
            else:
                runtime._world_call_hw(cpu, self.caller_wid)
            cpu.charge("world_restore_state")
            return
        wt.lookup(self.caller_wid)
        cpu.commit_world_entry(caller_entry, self.callee_wid)
        cpu.perf.charge_batch(self.post_cost, self.post_events)
