"""Process filesystem (/proc) — synthetic view of kernel state.

The utility workloads (Table 5: pstree, w, uptime, ...) read /proc; the
content is generated from the live kernel object at read time, like
a real procfs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import GuestOSError
from repro.guestos.fs.inode import Errno, Inode, InodeType

_STATIC_FILES = ("uptime", "loadavg", "meminfo", "stat", "version")

#: The files of every /proc/<pid> directory, in listing order.
_PID_FILES = ("cmdline", "comm", "stat", "status")


class ProcFS:
    """Synthetic /proc backed by a :class:`~repro.guestos.kernel.Kernel`
    (whose inode-number source numbers its nodes)."""

    name = "procfs"

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self._inos = kernel.inos
        self._root = Inode(InodeType.DIR, next(self._inos), mode=0o555)
        #: Nodes made so far, keyed by static file name, by pid (the
        #: pid directories) and by ``(pid, file name)``.  A node is
        #: built, with its content generator, on its first lookup.
        self._cache: Dict[object, Inode] = {}

    def root(self) -> Inode:
        """The /proc directory inode."""
        return self._root

    # ------------------------------------------------------------------
    # content generators
    # ------------------------------------------------------------------

    def _gen_uptime(self) -> bytes:
        seconds = self.kernel.uptime_seconds()
        return f"{seconds:.2f} {seconds * 0.9:.2f}\n".encode()

    def _gen_loadavg(self) -> bytes:
        n = len(self.kernel.processes)
        running = min(1, n)
        return (f"{0.05 * n:.2f} {0.04 * n:.2f} {0.03 * n:.2f} "
                f"{running}/{n} {self.kernel.last_pid}\n").encode()

    def _gen_meminfo(self) -> bytes:
        total_kb = 2 * 1024 * 1024
        used_kb = 4 * len(self.kernel.processes)
        return (f"MemTotal: {total_kb} kB\n"
                f"MemFree: {total_kb - used_kb} kB\n"
                f"Buffers: 0 kB\nCached: 0 kB\n").encode()

    def _gen_stat(self) -> bytes:
        return (f"cpu  {self.kernel.cpu.perf.cycles // 1000} 0 0 0\n"
                f"processes {self.kernel.last_pid}\n").encode()

    def _gen_version(self) -> bytes:
        return (f"Linux version 3.16.1-repro ({self.kernel.vm.name}) "
                f"(crossover-sim)\n").encode()

    def _gen_pid_stat(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            if proc is None:
                return b""
            ppid = proc.parent.pid if proc.parent else 0
            return (f"{proc.pid} ({proc.name}) {proc.state[0].upper()} "
                    f"{ppid} {proc.pid} {proc.pid} 0\n").encode()
        return generate

    def _gen_pid_status(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            if proc is None:
                return b""
            ppid = proc.parent.pid if proc.parent else 0
            return (f"Name:\t{proc.name}\nState:\t{proc.state}\n"
                    f"Pid:\t{proc.pid}\nPPid:\t{ppid}\n"
                    f"Uid:\t{proc.uid}\t{proc.uid}\n").encode()
        return generate

    def _gen_pid_cmdline(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            return b"" if proc is None else proc.name.encode() + b"\x00"
        return generate

    def _gen_pid_comm(self, pid: int):
        def generate() -> bytes:
            proc = self.kernel.processes.get(pid)
            return b"" if proc is None else (proc.name + "\n").encode()
        return generate

    # ------------------------------------------------------------------
    # filesystem interface
    # ------------------------------------------------------------------

    def _file(self, key: object, generator) -> Inode:
        node = Inode(InodeType.FILE, next(self._inos), mode=0o444)
        node.generator = generator
        self._cache[key] = node
        return node

    def lookup(self, directory: Inode, name: str) -> Inode:
        """Resolve names under /proc, generating nodes lazily."""
        if directory is self._root:
            return self._lookup_root(name)
        directory.require_dir()
        # A /proc/<pid> directory: directory.target stores the pid.
        pid = int(directory.target)
        if pid not in self.kernel.processes:
            raise GuestOSError(Errno.ENOENT, f"process {pid} is gone")
        node = self._cache.get((pid, name))
        if node is not None:
            return node
        if name not in _PID_FILES:
            raise GuestOSError(Errno.ENOENT, f"no /proc entry {name}")
        return self._file((pid, name), getattr(self, f"_gen_pid_{name}")(pid))

    def _lookup_root(self, name: str) -> Inode:
        node = self._cache.get(name)
        if node is not None:
            return node
        if name in _STATIC_FILES:
            return self._file(name, getattr(self, f"_gen_{name}"))
        if name.isdigit():
            pid = int(name)
            if pid in self.kernel.processes:
                node = self._cache.get(pid)
                if node is None:
                    node = Inode(InodeType.DIR, next(self._inos), mode=0o555,
                                 target=str(pid))
                    self._cache[pid] = node
                return node
        raise GuestOSError(Errno.ENOENT, f"no /proc entry {name}")

    def create(self, directory: Inode, name: str, itype, **kwargs) -> Inode:
        raise GuestOSError(Errno.EROFS, "procfs is read-only")

    def unlink(self, directory: Inode, name: str) -> None:
        raise GuestOSError(Errno.EROFS, "procfs is read-only")

    def rmdir(self, directory: Inode, name: str) -> None:
        raise GuestOSError(Errno.EROFS, "procfs is read-only")

    def readdir(self, directory: Inode) -> List[str]:
        """List /proc (static files + live pids) or a pid directory."""
        directory.require_dir()
        if directory is self._root:
            pids = [str(pid) for pid in sorted(self.kernel.processes)]
            return list(_STATIC_FILES) + pids
        return list(_PID_FILES)
