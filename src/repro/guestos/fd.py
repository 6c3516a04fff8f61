"""File descriptors and per-process fd tables."""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import GuestOSError
from repro.guestos.fs.inode import Errno, Inode
from repro.guestos.pipe import Pipe

#: Per-process open-file limit (RLIMIT_NOFILE).
MAX_FDS = 256


class OpenFile:
    """One open file description (shared across dup'ed descriptors)."""

    def __init__(self, *, inode: Optional[Inode] = None, path: str = "",
                 pipe: Optional[Pipe] = None, pipe_end: str = "",
                 socket: Optional[object] = None,
                 readable: bool = True, writable: bool = True) -> None:
        self.inode = inode
        self.path = path
        self.pipe = pipe
        self.pipe_end = pipe_end       # "read" or "write"
        self.socket = socket
        self.readable = readable
        self.writable = writable
        self.offset = 0
        self.refcount = 1

    @property
    def is_pipe(self) -> bool:
        """True for pipe ends."""
        return self.pipe is not None

    @property
    def is_socket(self) -> bool:
        """True for sockets."""
        return self.socket is not None


class FDTable:
    """Lowest-free-slot fd allocation, Unix style."""

    __slots__ = ("_files",)

    def __init__(self) -> None:
        self._files: Dict[int, OpenFile] = {}

    def __len__(self) -> int:
        return len(self._files)

    def install(self, open_file: OpenFile) -> int:
        """Place ``open_file`` at the lowest free descriptor."""
        for fd in range(MAX_FDS):
            if fd not in self._files:
                self._files[fd] = open_file
                return fd
        raise GuestOSError(Errno.EMFILE, "too many open files")

    def install_at(self, fd: int, open_file: OpenFile) -> int:
        """Place ``open_file`` at a specific descriptor (fork/dup2-style
        descriptor sharing).  Replaces any existing entry."""
        if not 0 <= fd < MAX_FDS:
            raise GuestOSError(Errno.EBADF, f"descriptor {fd} out of range")
        open_file.refcount += 1
        self._files[fd] = open_file
        return fd

    def get(self, fd: int) -> OpenFile:
        """The open file behind ``fd``; EBADF if closed/unknown."""
        open_file = self._files.get(fd)
        if open_file is None:
            raise GuestOSError(Errno.EBADF, f"bad file descriptor {fd}")
        return open_file

    def dup(self, fd: int) -> int:
        """Duplicate ``fd`` onto the lowest free slot."""
        open_file = self.get(fd)
        open_file.refcount += 1
        return self.install(open_file)

    def close(self, fd: int) -> OpenFile:
        """Remove ``fd``; returns the open file (caller drops refs)."""
        open_file = self._files.pop(fd, None)
        if open_file is None:
            raise GuestOSError(Errno.EBADF, f"bad file descriptor {fd}")
        open_file.refcount -= 1
        return open_file

    def close_all(self) -> None:
        """Close every descriptor (process exit)."""
        for fd in list(self._files):
            self.close(fd)

    def open_fds(self):
        """Sorted list of live descriptors."""
        return sorted(self._files)
