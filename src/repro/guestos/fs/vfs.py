"""The virtual filesystem layer: mount table + path resolution.

Path resolution charges the calibrated per-component walk cost against
the current CPU, which is how namespace-heavy syscalls (open, stat)
acquire their path-length-dependent latency.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import GuestOSError
from repro.guestos.fs.inode import Errno, Inode, InodeType

#: Maximum symlink traversals before ELOOP-style failure.
MAX_SYMLINK_DEPTH = 8


_split_cache: Dict[str, tuple] = {}


def split_path(path: str) -> tuple:
    """Split an absolute path into components ('/a//b/' -> ('a', 'b')).

    Memoized: benchmark workloads resolve the same handful of paths
    thousands of times.  The tuple result must not be mutated.
    """
    parts = _split_cache.get(path)
    if parts is None:
        if len(_split_cache) > 65536:
            _split_cache.clear()
        parts = _split_cache[path] = tuple(
            part for part in path.split("/") if part)
    return parts


class VFS:
    """Mount table and resolver over the concrete filesystems."""

    def __init__(self, root_fs, cpu) -> None:
        self.cpu = cpu
        self._mounts: Dict[str, object] = {"/": root_fs}
        self._fs_cache: Dict[str, Tuple[object, tuple]] = {}

    def mount(self, mount_point: str, fs) -> None:
        """Mount ``fs`` at ``mount_point`` (absolute, normalized)."""
        if not mount_point.startswith("/"):
            raise GuestOSError(Errno.EINVAL, "mount point must be absolute")
        normalized = "/" + "/".join(split_path(mount_point))
        self._mounts[normalized] = fs
        self._fs_cache.clear()

    def mounts(self) -> Dict[str, object]:
        """The current mount table (read-only view)."""
        return dict(self._mounts)

    def _fs_for(self, path: str) -> Tuple[object, tuple]:
        """Longest-prefix mount match -> (fs, remaining components).

        Memoized per path; the cache is dropped whenever the mount
        table changes.
        """
        hit = self._fs_cache.get(path)
        if hit is not None:
            return hit
        parts = split_path(path)
        best = self._mounts["/"]
        best_len = 0
        for mount_point, fs in self._mounts.items():
            mp_parts = split_path(mount_point)
            if len(mp_parts) > best_len and parts[:len(mp_parts)] == mp_parts:
                best = fs
                best_len = len(mp_parts)
        result = self._fs_cache[path] = (best, parts[best_len:])
        return result

    def resolve(self, path: str, *, follow_symlinks: bool = True,
                _depth: int = 0) -> Tuple[object, Inode]:
        """Resolve ``path`` to ``(fs, inode)``, charging walk costs."""
        if _depth > MAX_SYMLINK_DEPTH:
            raise GuestOSError(Errno.EINVAL, f"too many symlinks: {path}")
        if not path.startswith("/"):
            raise GuestOSError(Errno.EINVAL, f"path must be absolute: {path}")
        hit = self._fs_cache.get(path)
        fs, parts = hit if hit is not None else self._fs_for(path)
        node = fs.root()
        perf = self.cpu.perf
        walk_cost = self.cpu.cost_model.path_component
        for i, part in enumerate(parts):
            perf.charge("path_component", walk_cost)
            node = fs.lookup(node, part)
            if node.type is InodeType.SYMLINK and (
                    follow_symlinks or i < len(parts) - 1):
                remainder = "/".join(parts[i + 1:])
                target = node.target
                if not target.startswith("/"):
                    # Relative to the directory holding the link: every
                    # component of ``path`` before this one.
                    full = split_path(path)
                    walked = full[:len(full) - len(parts) + i]
                    target = "/" + "/".join(walked + (target,))
                next_path = target + ("/" + remainder if remainder else "")
                return self.resolve(next_path,
                                    follow_symlinks=follow_symlinks,
                                    _depth=_depth + 1)
        return fs, node

    def resolve_parent(self, path: str) -> Tuple[object, Inode, str]:
        """Resolve to ``(fs, parent_dir_inode, final_name)``."""
        parts = split_path(path)
        if not parts:
            raise GuestOSError(Errno.EINVAL, "cannot operate on /")
        parent_path = "/" + "/".join(parts[:-1])
        fs, parent = self.resolve(parent_path)
        return fs, parent, parts[-1]
