"""Filesystem tests: ramfs, devfs, procfs, VFS resolution."""

import pytest

from repro.errors import GuestOSError
from repro.guestos.fs.devfs import DevFS
from repro.guestos.fs.inode import Errno, Inode, InodeType
from repro.guestos.fs.ramfs import RamFS


class TestRamFS:
    def test_create_lookup(self):
        fs = RamFS()
        child = fs.create(fs.root(), "f", InodeType.FILE)
        assert fs.lookup(fs.root(), "f") is child

    def test_lookup_missing(self):
        fs = RamFS()
        with pytest.raises(GuestOSError) as exc:
            fs.lookup(fs.root(), "nope")
        assert exc.value.errno == Errno.ENOENT

    def test_duplicate_create(self):
        fs = RamFS()
        fs.create(fs.root(), "f", InodeType.FILE)
        with pytest.raises(GuestOSError) as exc:
            fs.create(fs.root(), "f", InodeType.FILE)
        assert exc.value.errno == Errno.EEXIST

    def test_bad_names_rejected(self):
        fs = RamFS()
        with pytest.raises(GuestOSError):
            fs.create(fs.root(), "", InodeType.FILE)
        with pytest.raises(GuestOSError):
            fs.create(fs.root(), "a/b", InodeType.FILE)

    def test_unlink(self):
        fs = RamFS()
        fs.create(fs.root(), "f", InodeType.FILE)
        fs.unlink(fs.root(), "f")
        with pytest.raises(GuestOSError):
            fs.lookup(fs.root(), "f")

    def test_unlink_directory_rejected(self):
        fs = RamFS()
        fs.create(fs.root(), "d", InodeType.DIR)
        with pytest.raises(GuestOSError) as exc:
            fs.unlink(fs.root(), "d")
        assert exc.value.errno == Errno.EISDIR

    def test_rmdir_empty_only(self):
        fs = RamFS()
        d = fs.create(fs.root(), "d", InodeType.DIR)
        fs.create(d, "f", InodeType.FILE)
        with pytest.raises(GuestOSError) as exc:
            fs.rmdir(fs.root(), "d")
        assert exc.value.errno == Errno.ENOTEMPTY
        fs.unlink(d, "f")
        fs.rmdir(fs.root(), "d")

    def test_readdir_sorted(self):
        fs = RamFS()
        for name in ("b", "a", "c"):
            fs.create(fs.root(), name, InodeType.FILE)
        assert fs.readdir(fs.root()) == ["a", "b", "c"]

    def test_nlink_tracks_subdirs(self):
        fs = RamFS()
        before = fs.root().nlink
        fs.create(fs.root(), "d", InodeType.DIR)
        assert fs.root().nlink == before + 1
        fs.rmdir(fs.root(), "d")
        assert fs.root().nlink == before

    def test_lookup_on_file_is_enotdir(self):
        fs = RamFS()
        f = fs.create(fs.root(), "f", InodeType.FILE)
        with pytest.raises(GuestOSError) as exc:
            fs.lookup(f, "x")
        assert exc.value.errno == Errno.ENOTDIR


class TestInode:
    def test_stat_fields(self):
        node = Inode(InodeType.FILE, 2, mode=0o640, uid=3)
        node.data += b"12345"
        st = node.stat()
        assert st.size == 5
        assert st.mode == 0o640
        assert st.uid == 3
        assert st.type is InodeType.FILE

    def test_symlink_size(self):
        node = Inode(InodeType.SYMLINK, 2, target="/etc/passwd")
        assert node.size == len("/etc/passwd")

    def test_generator_content(self):
        node = Inode(InodeType.FILE, 2)
        node.generator = lambda: b"dynamic"
        assert node.content() == b"dynamic"

    def test_ino_unique(self):
        fs = RamFS()
        a = fs.create(fs.root(), "a", InodeType.FILE)
        b = fs.create(fs.root(), "b", InodeType.FILE)
        assert len({fs.root().ino, a.ino, b.ino}) == 3

    @pytest.mark.parametrize("offset,length", [
        (0, 0), (0, 1), (0, 1024), (3, 4), (1000, 1024), (2047, 1),
        (2048, 16), (2048, 0), (4096, 10), (5000, 1)])
    def test_read_slices_content(self, offset, length):
        blob = bytes(range(256)) * 8            # 2 KiB
        node = Inode(InodeType.FILE, 2)
        node.data += blob
        gen = Inode(InodeType.FILE, 3)
        gen.generator = lambda: blob
        for inode in (node, gen):
            assert inode.read(offset, length) == \
                inode.content()[offset:offset + length]
            assert type(inode.read(offset, length)) is bytes

    def test_write_copies_shared_content_first(self):
        shared = b"abcdef"
        a, b = Inode(InodeType.FILE, 2), Inode(InodeType.FILE, 3)
        a.data = b.data = shared
        assert a.read(1, 3) == b"bcd"
        assert a.write(4, b"XYZ") == 3
        assert a.content() == b"abcdXYZ"
        assert b.content() == shared == b"abcdef"
        assert a.write(9, b"!") == 1
        assert a.content() == b"abcdXYZ\x00\x00!"
        b.truncate()
        assert b.size == 0 and shared == b"abcdef"

    def test_read_without_content_is_einval(self):
        with pytest.raises(GuestOSError) as exc:
            Inode(InodeType.DIR, 2).read(0, 1)
        assert exc.value.errno == Errno.EINVAL


class TestDevFS:
    def test_null(self):
        fs = DevFS()
        null = fs.lookup(fs.root(), "null")
        assert null.driver.read(0, 10) == b""
        assert null.driver.write(0, b"discard") == 7

    def test_zero(self):
        fs = DevFS()
        zero = fs.lookup(fs.root(), "zero")
        assert zero.driver.read(0, 4) == b"\x00" * 4

    def test_urandom_deterministic_stream(self):
        fs = DevFS()
        ur = fs.lookup(fs.root(), "urandom")
        a = ur.driver.read(0, 16)
        b = ur.driver.read(0, 16)
        assert len(a) == len(b) == 16
        assert a != b                      # stream advances
        assert a != b"\x00" * 16

    def test_console_captures(self):
        fs = DevFS()
        con = fs.lookup(fs.root(), "console")
        con.driver.write(0, b"boot ok\n")
        assert bytes(fs.console.output) == b"boot ok\n"

    def test_read_only(self):
        fs = DevFS()
        with pytest.raises(GuestOSError):
            fs.create(fs.root(), "newdev", InodeType.DEVICE)
        with pytest.raises(GuestOSError):
            fs.unlink(fs.root(), "null")

    def test_readdir(self):
        fs = DevFS()
        assert set(fs.readdir(fs.root())) == {"console", "null", "urandom",
                                              "zero"}


class TestProcFS:
    def test_static_files(self, single_vm):
        machine, vm, kernel = single_vm
        fs = kernel.procfs
        uptime = fs.lookup(fs.root(), "uptime")
        assert b"." in uptime.content()
        version = fs.lookup(fs.root(), "version")
        assert b"vm1" in version.content()

    def test_pid_dir_for_live_process(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("daemon")
        fs = kernel.procfs
        d = fs.lookup(fs.root(), str(proc.pid))
        stat = fs.lookup(d, "stat")
        assert f"({proc.name})".encode() in stat.content()

    def test_status_shows_uid_and_ppid(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("svc", parent=kernel.init, uid=1000)
        fs = kernel.procfs
        d = fs.lookup(fs.root(), str(proc.pid))
        content = fs.lookup(d, "status").content().decode()
        assert f"PPid:\t{kernel.init.pid}" in content
        assert "Uid:\t1000" in content

    def test_dead_pid_vanishes(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("dying")
        pid = proc.pid
        fs = kernel.procfs
        fs.lookup(fs.root(), str(pid))
        kernel.reap(proc, 0)
        with pytest.raises(GuestOSError):
            fs.lookup(fs.root(), str(pid))

    def test_readdir_lists_pids(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("x")
        names = kernel.procfs.readdir(kernel.procfs.root())
        assert str(proc.pid) in names
        assert "uptime" in names

    def test_read_only(self, single_vm):
        machine, vm, kernel = single_vm
        with pytest.raises(GuestOSError):
            kernel.procfs.create(kernel.procfs.root(), "x", InodeType.FILE)

    def test_unknown_names_are_enoent(self, single_vm):
        machine, vm, kernel = single_vm
        fs = kernel.procfs
        d = fs.lookup(fs.root(), str(kernel.init.pid))
        for directory, name in ((fs.root(), "nope"), (fs.root(), "999999"),
                                (d, "nope"), (d, "uptime")):
            with pytest.raises(GuestOSError) as exc:
                fs.lookup(directory, name)
            assert exc.value.errno == Errno.ENOENT

    def test_vanished_pid_files_are_enoent(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("dying")
        fs = kernel.procfs
        d = fs.lookup(fs.root(), str(proc.pid))
        fs.lookup(d, "stat")                    # cached while alive
        kernel.reap(proc, 0)
        for name in ("stat", "status", "cmdline", "comm"):
            with pytest.raises(GuestOSError) as exc:
                fs.lookup(d, name)
            assert exc.value.errno == Errno.ENOENT

    def test_repeat_lookup_returns_same_node(self, single_vm):
        machine, vm, kernel = single_vm
        proc = kernel.spawn("steady")
        fs = kernel.procfs
        d = fs.lookup(fs.root(), str(proc.pid))
        assert fs.lookup(fs.root(), str(proc.pid)) is d
        assert fs.lookup(fs.root(), "uptime") is fs.lookup(fs.root(),
                                                           "uptime")
        for name in fs.readdir(d):
            node = fs.lookup(d, name)
            assert fs.lookup(d, name) is node
            assert node.content()
        assert fs.lookup(d, "comm").content() == b"steady\n"


class TestVFS:
    def test_mount_resolution(self, single_vm):
        machine, vm, kernel = single_vm
        fs, node = kernel.vfs.resolve("/dev/zero")
        assert node.type is InodeType.DEVICE
        fs, node = kernel.vfs.resolve("/proc/uptime")
        assert node.generator is not None
        fs, node = kernel.vfs.resolve("/tmp/f")
        assert node.type is InodeType.FILE

    def test_relative_path_rejected(self, single_vm):
        machine, vm, kernel = single_vm
        with pytest.raises(GuestOSError):
            kernel.vfs.resolve("tmp/f")

    def test_resolve_parent(self, single_vm):
        machine, vm, kernel = single_vm
        fs, parent, name = kernel.vfs.resolve_parent("/tmp/newfile")
        assert name == "newfile"
        assert parent.type is InodeType.DIR

    def test_symlink_followed(self, single_vm):
        machine, vm, kernel = single_vm
        root = kernel.rootfs.root()
        tmp = kernel.rootfs.lookup(root, "tmp")
        kernel.rootfs.create(tmp, "link", InodeType.SYMLINK, target="/tmp/f")
        _, node = kernel.vfs.resolve("/tmp/link")
        assert node.type is InodeType.FILE

    def test_relative_symlink_resolves_from_its_directory(self, single_vm):
        machine, vm, kernel = single_vm
        root = kernel.rootfs.root()
        etc = kernel.rootfs.lookup(root, "etc")
        kernel.rootfs.create(etc, "host", InodeType.SYMLINK,
                             target="hostname")
        _, node = kernel.vfs.resolve("/etc/host")
        assert node is kernel.rootfs.lookup(etc, "hostname")

    def test_symlink_not_followed_for_lstat(self, single_vm):
        machine, vm, kernel = single_vm
        root = kernel.rootfs.root()
        tmp = kernel.rootfs.lookup(root, "tmp")
        kernel.rootfs.create(tmp, "link2", InodeType.SYMLINK, target="/tmp/f")
        _, node = kernel.vfs.resolve("/tmp/link2", follow_symlinks=False)
        assert node.type is InodeType.SYMLINK

    def test_symlink_loop_detected(self, single_vm):
        machine, vm, kernel = single_vm
        root = kernel.rootfs.root()
        tmp = kernel.rootfs.lookup(root, "tmp")
        kernel.rootfs.create(tmp, "la", InodeType.SYMLINK, target="/tmp/lb")
        kernel.rootfs.create(tmp, "lb", InodeType.SYMLINK, target="/tmp/la")
        with pytest.raises(GuestOSError):
            kernel.vfs.resolve("/tmp/la")

    def test_walk_charges_per_component(self, single_vm):
        machine, vm, kernel = single_vm
        snap = machine.cpu.perf.snapshot()
        kernel.vfs.resolve("/usr/share/dict/words")
        delta = snap.delta(machine.cpu.perf.snapshot())
        assert delta.count("path_component") == 4

    def test_mount_table_view(self, single_vm):
        machine, vm, kernel = single_vm
        mounts = kernel.vfs.mounts()
        assert set(mounts) == {"/", "/dev", "/proc"}
