"""The KVM-like hypervisor.

Modules:

* ``vm``            — :class:`VirtualMachine`: EPT, VMCS,
  guest-physical allocation, pending virtual interrupts
* ``hypervisor``    — the hypervisor proper: VM lifecycle, the shared
  EPTP list, VM entry/exit orchestration, hypercall dispatch, host
  processes
* ``hypercalls``    — hypercall numbers and the dispatch table
* ``worlds``        — the world-registration service (WID allocation,
  per-VM quotas, world-table-cache miss servicing)
* ``shared_memory`` — inter-VM shared memory regions
* ``injection``     — virtual interrupt injection
* ``scheduler``     — the host-side vCPU scheduler cost model
"""

from repro.hypervisor.hypervisor import Hypervisor, HostProcess
from repro.hypervisor.vm import VirtualMachine
from repro.hypervisor.shared_memory import SharedMemoryRegion

__all__ = ["Hypervisor", "HostProcess", "VirtualMachine", "SharedMemoryRegion"]
