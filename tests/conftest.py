import io
import os
import random
import signal
import struct
import zipfile
import zlib

import pytest

from prepatch import inject, synth


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """The full labelled corpus, built once per session."""
    root = tmp_path_factory.mktemp("corpus") / "apps"
    entries = synth.build_corpus(root)
    return root, entries


@pytest.fixture
def app_tree(tmp_path):
    """Factory writing one generated app to disk as an extracted tree."""
    def make(kind="s2", index=2, seed=5):
        files, truth = synth.build_app_files(kind, index, random.Random(seed))
        tree = tmp_path / truth.name
        synth.write_tree(files, tree)
        return tree, truth, files
    return make


class LockHolders:
    """Child processes that each take a tree's lock with ``inject.locked``
    and hold it until they are killed."""

    def __init__(self):
        self.pids = []

    def hold(self, tree):
        """The pid of a new child, once it holds the lock beside ``tree``."""
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                with inject.locked(tree):
                    os.write(write_end, b"held")
                    while True:
                        signal.pause()
            finally:
                os._exit(1)
        self.pids.append(pid)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as ready:
            assert ready.read(4) == b"held", "the child did not take the lock"
        return pid

    def kill(self, pid):
        """SIGKILL the child and reap it, so the kernel has dropped its lock."""
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        self.pids.remove(pid)


@pytest.fixture
def lock_holders():
    """A ``LockHolders``; every child still alive is killed after the test."""
    holders = LockHolders()
    yield holders
    for pid in list(holders.pids):
        holders.kill(pid)


@pytest.fixture
def app_files():
    """Factory returning one generated app as an in-memory file map."""
    def make(kind="s2", index=2, seed=5):
        return synth.build_app_files(kind, index, random.Random(seed))
    return make


@pytest.fixture
def forbid_member_reads(monkeypatch):
    """A function that, once called, fails the test on any read of archive
    member data through ``zipfile`` (``ZipFile.open``, ``read`` or
    ``extract``); listing the central directory still works."""
    def refuse(*args, **kwargs):
        raise AssertionError("archive member read through zipfile")

    def forbid():
        for name in ("open", "read", "extract"):
            monkeypatch.setattr(zipfile.ZipFile, name, refuse)
    return forbid


@pytest.fixture
def bomb_archive():
    """Factory writing an archive whose member ``name`` holds ``size`` zero
    bytes compressed with ``method`` but declares 10 bytes, as a
    decompression bomb does, beside a manifest and one smali file."""
    def make(path, name, method, size=16 << 20):
        info = zipfile.ZipInfo(name)
        info.compress_type = method
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("AndroidManifest.xml", "<manifest/>")
            zf.writestr("smali/A.smali", ".class LA;\n")
            with zf.open(info, "w") as out:
                chunk = bytes(1 << 20)
                for _ in range(size >> 20):
                    out.write(chunk)
        data = bytearray(path.read_bytes())
        with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
            offset = zf.start_dir
        while True:
            fields = struct.unpack(zipfile.structCentralDir, data[offset:offset + 46])
            if data[offset + 46:offset + 46 + fields[12]].decode() == name:
                break
            offset += 46 + fields[12] + fields[13] + fields[14]
        struct.pack_into("<L", data, offset + 24, 10)      # file_size
        path.write_bytes(bytes(data))
        return path
    return make


@pytest.fixture
def overlap_archive():
    """Factory writing an archive of two honest stored members, ``first``
    and ``second``, where the data of ``first`` is the whole local record
    of ``second``: every name, size and CRC-32 is true, but the first
    member's data runs into the next member."""
    def record(name, data, offset=None):
        raw = name.encode()
        fields = (zlib.crc32(data), len(data), len(data), len(raw))
        if offset is None:
            return struct.pack(zipfile.structFileHeader, zipfile.stringFileHeader,
                               20, 0, 0, 0, 0, 0, *fields, 0) + raw + data
        return struct.pack(zipfile.structCentralDir, zipfile.stringCentralDir,
                           20, 0, 20, 0, 0, 0, 0, 0, *fields, 0, 0, 0, 0, 0,
                           offset) + raw

    def make(path, first, second):
        inner = record(second, b"second member\n")
        outer = record(first, inner)
        central = record(first, inner, 0) + record(
            second, b"second member\n", len(outer) - len(inner))
        path.write_bytes(outer + central + struct.pack(
            zipfile.structEndArchive, zipfile.stringEndArchive, 0, 0, 2, 2,
            len(central), len(outer), 0))
        return path
    return make


@pytest.fixture
def no_fd_leak():
    """Fails the test if it leaves a file descriptor open that was not open
    before it, raw ``os.open`` descriptors included (``-W error::
    ResourceWarning`` sees only file objects). The check needs
    ``/proc/self/fd`` and is skipped where there is none."""
    listed = os.path.isdir("/proc/self/fd")
    before = set(os.listdir("/proc/self/fd")) if listed else set()
    yield
    if listed:
        left = set(os.listdir("/proc/self/fd")) - before
        assert not left, f"descriptors left open: {sorted(left, key=int)}"
