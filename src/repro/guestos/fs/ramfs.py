"""RAM-backed filesystem (the guest's root filesystem)."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import GuestOSError
from repro.guestos.fs.inode import Errno, Inode, InodeType, inode_numbers


class RamFS:
    """A simple in-memory tree of inodes.

    ``inos`` is the inode-number source (the owning kernel's); a
    standalone filesystem numbers its own inodes.
    """

    name = "ramfs"

    def __init__(self, inos: Optional[Iterator[int]] = None) -> None:
        self._inos = inos if inos is not None else inode_numbers()
        self._root = Inode(InodeType.DIR, next(self._inos), mode=0o755)

    def root(self) -> Inode:
        """The filesystem's root directory inode."""
        return self._root

    def lookup(self, directory: Inode, name: str) -> Inode:
        """Find ``name`` in ``directory`` or raise ENOENT."""
        children = directory.children
        if children is None:
            directory.require_dir()     # raises ENOTDIR
        child = children.get(name)
        if child is None:
            raise GuestOSError(Errno.ENOENT, f"no such file: {name}")
        return child

    def create(self, directory: Inode, name: str, itype: InodeType, *,
               mode: int = 0o644, target: str = "") -> Inode:
        """Create a child of ``directory``; EEXIST if the name is taken."""
        directory.require_dir()
        assert directory.children is not None
        if name in directory.children:
            raise GuestOSError(Errno.EEXIST, f"exists: {name}")
        if not name or "/" in name:
            raise GuestOSError(Errno.EINVAL, f"bad name: {name!r}")
        child = Inode(itype, next(self._inos), mode=mode, target=target)
        directory.children[name] = child
        if itype is InodeType.DIR:
            directory.nlink += 1
        return child

    def unlink(self, directory: Inode, name: str) -> None:
        """Remove a non-directory child."""
        child = self.lookup(directory, name)
        if child.type is InodeType.DIR:
            raise GuestOSError(Errno.EISDIR, f"is a directory: {name}")
        assert directory.children is not None
        del directory.children[name]
        child.nlink -= 1

    def rmdir(self, directory: Inode, name: str) -> None:
        """Remove an empty directory child."""
        child = self.lookup(directory, name)
        child.require_dir()
        assert child.children is not None
        if child.children:
            raise GuestOSError(Errno.ENOTEMPTY, f"not empty: {name}")
        assert directory.children is not None
        del directory.children[name]
        directory.nlink -= 1

    def readdir(self, directory: Inode) -> List[str]:
        """Names in ``directory``, sorted."""
        directory.require_dir()
        assert directory.children is not None
        return sorted(directory.children)
