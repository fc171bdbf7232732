import io
import os
import random
import struct
import zipfile

import pytest

from prepatch import synth


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
