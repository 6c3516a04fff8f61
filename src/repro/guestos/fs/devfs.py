"""Device filesystem: /dev/null, /dev/zero, /dev/urandom, /dev/console."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import GuestOSError
from repro.guestos.fs.inode import Errno, Inode, InodeType, inode_numbers


class NullDevice:
    """/dev/null — reads return EOF, writes are discarded."""

    def read(self, offset: int, length: int) -> bytes:
        return b""

    def write(self, offset: int, data: bytes) -> int:
        return len(data)


class ZeroDevice:
    """/dev/zero — reads return zero bytes, writes are discarded."""

    def read(self, offset: int, length: int) -> bytes:
        return b"\x00" * length

    def write(self, offset: int, data: bytes) -> int:
        return len(data)


class PseudoRandomDevice:
    """/dev/urandom — deterministic pseudo-random bytes (xorshift)."""

    def __init__(self, seed: int = 0x9E3779B9) -> None:
        self._state = seed or 1

    def read(self, offset: int, length: int) -> bytes:
        out = bytearray()
        state = self._state
        while len(out) < length:
            state ^= (state << 13) & 0xFFFFFFFF
            state ^= state >> 17
            state ^= (state << 5) & 0xFFFFFFFF
            out += state.to_bytes(4, "little")
        self._state = state
        return bytes(out[:length])

    def write(self, offset: int, data: bytes) -> int:
        return len(data)


class ConsoleDevice:
    """/dev/console — captures writes for inspection in tests."""

    def __init__(self) -> None:
        self.output = bytearray()

    def read(self, offset: int, length: int) -> bytes:
        return b""

    def write(self, offset: int, data: bytes) -> int:
        self.output += data
        return len(data)


class DevFS:
    """A fixed directory of device inodes (numbered from ``inos``, as
    for :class:`~repro.guestos.fs.ramfs.RamFS`)."""

    name = "devfs"

    def __init__(self, inos: Optional[Iterator[int]] = None) -> None:
        if inos is None:
            inos = inode_numbers()
        self._root = Inode(InodeType.DIR, next(inos), mode=0o755)
        self.console = ConsoleDevice()
        assert self._root.children is not None
        for dev_name, driver in (
                ("null", NullDevice()),
                ("zero", ZeroDevice()),
                ("urandom", PseudoRandomDevice()),
                ("console", self.console)):
            self._root.children[dev_name] = Inode(
                InodeType.DEVICE, next(inos), mode=0o666, driver=driver)

    def root(self) -> Inode:
        """The /dev directory inode."""
        return self._root

    def lookup(self, directory: Inode, name: str) -> Inode:
        """Find a device node."""
        directory.require_dir()
        assert directory.children is not None
        child = directory.children.get(name)
        if child is None:
            raise GuestOSError(Errno.ENOENT, f"no such device: {name}")
        return child

    def create(self, directory: Inode, name: str, itype, **kwargs) -> Inode:
        raise GuestOSError(Errno.EROFS, "devfs is read-only")

    def unlink(self, directory: Inode, name: str) -> None:
        raise GuestOSError(Errno.EROFS, "devfs is read-only")

    def rmdir(self, directory: Inode, name: str) -> None:
        raise GuestOSError(Errno.EROFS, "devfs is read-only")

    def readdir(self, directory: Inode) -> List[str]:
        """Names of the device nodes."""
        directory.require_dir()
        assert directory.children is not None
        return sorted(directory.children)
