import errno
import io
import os
import random
import struct
import tracemalloc
import types
import zipfile
import zlib
from pathlib import PurePosixPath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prepatch import scan, synth


@pytest.mark.parametrize("name, expected", [
    ("assets/detector.tflite", True),
    ("assets/seg.tfl", True),
    ("net.lite", True),
    ("assets/Detector.TFLITE", True),
    ("Model.Lite", True),
    ("assets/detector.tflite.bak", False),
    ("assets/polite", False),          # suffix must include the dot
    ("notes.txt", False),
    ("libtensorflowlite.so", False),
])
def test_model_suffixes(name, expected):
    assert scan.is_model_file(name) is expected


def test_registrar_classification():
    cases = {
        "com.google.mlkit.vision.face.internal.FaceRegistrar": "face_detection",
        "com.google.mlkit.vision.segmentation.internal.SegmentationRegistrar":
            "selfie_segmentation",
        "com.google.mlkit.vision.barcode.internal.BarcodeRegistrar": "barcode",
        "com.google.mlkit.vision.pose.internal.PoseRegistrar": "pose",
        "com.google.mlkit.vision.objects.internal.ObjectsRegistrar":
            "object_detection",
        "com.google.mlkit.vision.text.internal.TextRegistrar":
            "other:TextRegistrar",
    }
    for registrar, expected in cases.items():
        assert scan.classify_registrar(registrar) == expected


def test_extract_services_from_manifest():
    manifest = synth.build_manifest("demox", ("face_detection", "barcode"))
    valid, services = scan.extract_services(manifest)
    assert valid
    assert services == ("barcode", "face_detection")


def test_extract_services_empty_manifest():
    manifest = synth.build_manifest("demox", ())
    valid, services = scan.extract_services(manifest)
    assert valid and services == ()


def test_extract_services_invalid_xml():
    valid, services = scan.extract_services("<manifest><unclosed>")
    assert not valid and services == ()


# Frozen two-decimal shares, rounded half-up.
@pytest.mark.parametrize("numerator, denominator, expected", [
    (28, 31, 90.32),
    (2, 31, 6.45),
    (1, 31, 3.23),
    (261, 320, 81.56),
    (1, 800, 0.13),    # 0.125% rounds up, not to even
    (1, 3, 33.33),
    (2, 3, 66.67),
    (0, 5, 0.0),
    (5, 5, 100.0),
    (3, 0, 0.0),
])
def test_percent_oracle(numerator, denominator, expected):
    assert scan.percent(numerator, denominator) == expected


@given(n=st.integers(min_value=0, max_value=10_000),
       d=st.integers(min_value=1, max_value=10_000))
def test_percent_bounds_and_complement(n, d):
    n = min(n, d)
    share = scan.percent(n, d)
    assert 0.0 <= share <= 100.0
    assert abs(share + scan.percent(d - n, d) - 100.0) < 0.011


def test_scan_zip_app_with_model(tmp_path):
    files, truth = synth.build_app_files("s2", 2, random.Random(1))
    apk = tmp_path / "demo.apk"
    apk.write_bytes(synth.zip_app(files))
    verdict = scan.scan_path(apk)
    assert verdict.is_dl
    assert verdict.evidence == ("model_file", "mlkit_api", "mlkit_manifest")
    assert verdict.model_files == ("assets/Detector.TFLITE",)
    assert verdict.services == ("face_detection",)
    assert verdict.manifest_valid
    assert verdict.error is None


def test_scan_app_identified_by_api_refs_only(tmp_path):
    # The odd s3 flavor ships no model file; API references still mark it.
    files, truth = synth.build_app_files("s3", 5, random.Random(1))
    assert not any(scan.is_model_file(p) for p in files)
    apk = tmp_path / "noweights.apk"
    apk.write_bytes(synth.zip_app(files))
    verdict = scan.scan_path(apk)
    assert verdict.is_dl
    assert "mlkit_api" in verdict.evidence
    assert "model_file" not in verdict.evidence


def test_scan_non_dl_app(tmp_path):
    files, _ = synth.build_app_files("nondl", 15, random.Random(2))
    apk = tmp_path / "plain.apk"
    apk.write_bytes(synth.zip_app(files))
    verdict = scan.scan_path(apk)
    assert not verdict.is_dl
    assert verdict.evidence == ()
    assert verdict.manifest_valid


def test_scan_tree_matches_scan_apk(tmp_path, no_fd_leak):
    files, _ = synth.build_app_files("s1", 0, random.Random(3))
    apk = tmp_path / "one.apk"
    apk.write_bytes(synth.zip_app(files))
    tree = tmp_path / "one"
    synth.write_tree(files, tree)
    from_zip = scan.scan_path(apk)
    from_tree = scan.scan_path(tree)
    assert from_zip.evidence == from_tree.evidence
    assert from_zip.model_files == from_tree.model_files
    assert from_zip.services == from_tree.services


def test_tree_load_matches_sorted_rglob(tmp_path, no_fd_leak):
    root = tmp_path / "app"
    files = {
        "AndroidManifest.xml": b"<manifest/>",
        "smali/com/a/B.smali": b".class LB;",
        "smali/com/a-b/C.smali": b".class LC;",
        "smali/com/a/b/D.smali": b".class LD;",
        "smali_classes2/E.smali": b".class LE;",
        "assets/models/m.tflite": b"\x00",
        "Z.txt": b"z",
        ".hidden.smali": b".class LH;",
    }
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    (root / "empty" / "nested").mkdir(parents=True)
    outside = tmp_path / "outside"
    (outside / "deep").mkdir(parents=True)
    (outside / "F.smali").write_bytes(b".class LF;")
    (outside / "deep" / "G.smali").write_bytes(b".class LG;")
    (root / "smali" / "linked.smali").symlink_to(outside / "F.smali")
    (root / "smali" / "linkdir").symlink_to(outside, target_is_directory=True)
    (root / "smali" / "dangling.smali").symlink_to(tmp_path / "missing")

    app = scan.load_app(root)
    expected = [p.relative_to(root).as_posix()
                for p in sorted(root.rglob("*")) if p.is_file()]
    assert list(app.entries) == expected
    assert "smali/linked.smali" in expected
    assert not any(rel.startswith("smali/linkdir") for rel in expected)
    # The link that escapes the tree is listed, marked unsafe and not read.
    assert app.unsafe_entry == "smali/linked.smali"
    assert app.data == {rel: (root / rel).read_bytes() for rel in expected
                        if rel.endswith(".smali") or rel == "AndroidManifest.xml"
                        if rel != app.unsafe_entry}


def test_unscannable_archive(tmp_path, no_fd_leak):
    bad = tmp_path / "broken.apk"
    bad.write_bytes(synth.corrupt_apk_bytes(random.Random(4)))
    with pytest.raises(scan.UnscannableApkError):
        scan.classify(scan.load_app(bad))
    verdict = scan.scan_path(bad)
    assert verdict.error is not None and not verdict.is_dl


def test_truncated_member_is_unscannable(tmp_path, no_fd_leak):
    files, _ = synth.build_app_files("s1", 0, random.Random(5))
    data = bytearray(synth.zip_app(files))
    # Keep the central directory, garble the compressed payload bytes.
    data[40:200] = b"\x00" * 160
    bad = tmp_path / "torn.apk"
    bad.write_bytes(bytes(data))
    verdict = scan.scan_path(bad)
    assert verdict.error is not None


@pytest.mark.parametrize("name", ["..", "a/../b", "./..", "a//..", "..\\x", "/abs",
                                  "\\abs", "a/..", "a/../", "..a", "a/b", "./a", ""])
def test_unsafe_entry_check_agrees_with_path_parts(name):
    reference = name.startswith(("/", "\\")) or ".." in PurePosixPath(name).parts
    assert scan._is_unsafe(name) == reference


def test_invalid_manifest_still_scannable(tmp_path):
    files, _ = synth.build_app_files("s2", 2, random.Random(6))
    files["AndroidManifest.xml"] = "<manifest><broken"
    apk = tmp_path / "badmanifest.apk"
    apk.write_bytes(synth.zip_app(files))
    verdict = scan.scan_path(apk)
    assert verdict.is_dl              # model file and API refs still count
    assert not verdict.manifest_valid
    assert verdict.services == ()


def test_aggregate_over_corpus(corpus):
    _, entries = corpus
    verdicts = [scan.scan_path(entry.path) for entry in entries]
    by_app = {v.app: v for v in verdicts}
    for entry in entries:
        verdict = by_app[entry.truth.name]
        assert (verdict.error is not None) == (entry.truth.kind == "unscannable"), \
            entry.truth.name
        if verdict.error is None:
            assert verdict.is_dl == entry.truth.is_dl, entry.truth.name
            assert verdict.services == tuple(sorted(entry.truth.services))

    stats = scan.aggregate(verdicts)
    truths = [e.truth for e in entries]
    assert stats.total == len(truths) == 23
    assert stats.unscannable == 3
    assert stats.dl == sum(1 for t in truths if t.is_dl) == 15
    assert stats.non_dl == 5
    assert stats.with_services == sum(1 for t in truths if t.services)
    assert stats.percent_dl == scan.percent(15, 20)
    # Histogram matches the ground truth labels exactly.
    expected = {}
    for truth in truths:
        for service in truth.services:
            expected[service] = expected.get(service, 0) + 1
    assert stats.service_counts == expected
    share = stats.service_share()
    assert share["face_detection"] == scan.percent(
        expected["face_detection"], stats.with_services)


def test_stats_dict_is_json_friendly(corpus):
    import json
    _, entries = corpus
    stats = scan.aggregate(scan.scan_path(e.path) for e in entries)
    payload = json.dumps(stats.to_dict(), sort_keys=True)
    assert json.loads(payload)["total"] == 23


# ---------------------------------------------------------------------------
# archive members read from the open file, checked against zipfile


SMALI = "smali/com/demo/Holder.smali"


def _member_archive(compression=zipfile.ZIP_DEFLATED):
    """An archive whose read member ``SMALI`` uses ``compression``, and the
    offset of that member's central directory record."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("AndroidManifest.xml", "<manifest/>")
        zf.writestr(SMALI, ".class public LHolder;\n" * 200, compress_type=compression)
        zf.writestr("assets/m.tflite", b"\x00" * 64)
    data = bytearray(buf.getvalue())
    with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
        offset = zf.start_dir
    while True:
        fields = struct.unpack(zipfile.structCentralDir, data[offset:offset + 46])
        name = data[offset + 46:offset + 46 + fields[12]].decode()
        if name == SMALI:
            return data, offset
        offset += 46 + fields[12] + fields[13] + fields[14]


def _garble_payload(data, central):
    info = _local(data, central)
    start = info.header_offset + 30 + len(SMALI)
    data[start:start + 8] = b"\xff" * 8


def _bad_magic(data, central):
    data[_local(data, central).header_offset] = ord("Q")


def _rename_local(data, central):
    start = _local(data, central).header_offset + 30
    data[start + len(SMALI) - 7] = ord("X")      # Holder -> HoldeX


def _bad_crc(data, central):
    data[central + 16] ^= 0xFF


def _encrypted(data, central):
    data[central + 8] |= 0x01


def _short_size(data, central):
    size = struct.unpack_from("<L", data, central + 24)[0]
    struct.pack_into("<L", data, central + 24, size - 10)


def _local(data, central):
    with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
        return zf.getinfo(SMALI)


def _zipfile_result(path):
    """The read entries as plain ``ZipFile.read`` gives them, or its error."""
    try:
        with zipfile.ZipFile(path) as zf:
            return {name: zf.read(name) for name in zf.namelist()
                    if name.endswith(".smali") or name == "AndroidManifest.xml"}
    except Exception as exc:
        return str(exc)


def _loader_result(path):
    try:
        return scan.load_app(path).data
    except scan.UnscannableApkError as exc:
        return exc.reason


# The loader's reason for each case zipfile or the loader refuses.
_REFUSALS = {
    (zipfile.ZIP_DEFLATED, _garble_payload):
        "inflate error: Error -3 while decompressing data: invalid block type",
    (zipfile.ZIP_DEFLATED, _bad_magic): "local header has a bad magic number",
    (zipfile.ZIP_DEFLATED, _rename_local):
        "local header names b'smali/com/demo/HoldeX.smali'",
    (zipfile.ZIP_DEFLATED, _bad_crc): "bad CRC-32",
    (zipfile.ZIP_DEFLATED, _encrypted): "flag bits 0x001 (encrypted or patched data)",
    (zipfile.ZIP_BZIP2, None): "compression method 12 is neither stored nor deflated",
    (zipfile.ZIP_DEFLATED, _short_size): "runs past its declared 4590 bytes",
    (zipfile.ZIP_STORED, _short_size): "runs past its declared 4590 bytes",
}


_CASES = [
    (zipfile.ZIP_DEFLATED, _garble_payload, True),
    (zipfile.ZIP_DEFLATED, _bad_magic, True),
    (zipfile.ZIP_DEFLATED, _rename_local, True),
    (zipfile.ZIP_DEFLATED, _bad_crc, True),
    (zipfile.ZIP_DEFLATED, _encrypted, True),
    (zipfile.ZIP_STORED, None, False),
    (zipfile.ZIP_BZIP2, None, False),
    (zipfile.ZIP_DEFLATED, _short_size, True),
    (zipfile.ZIP_STORED, _short_size, True),
]


@pytest.mark.parametrize("compression, damage, fails", _CASES)
def test_loader_agrees_with_zipfile(tmp_path, no_fd_leak, forbid_member_reads,
                                    compression, damage, fails):
    """Where zipfile reads a stored or deflated member the loader gives its
    bytes; where zipfile fails, and for a bzip2 member, which no Android
    reader takes, the loader refuses the app with a reason naming the member
    and the check, without reading any member through zipfile."""
    data, central = _member_archive(compression)
    if damage is not None:
        damage(data, central)
    apk = tmp_path / "app.apk"
    apk.write_bytes(bytes(data))
    want = _zipfile_result(apk)
    assert isinstance(want, str) is fails
    refusal = _REFUSALS.get((compression, damage))
    assert refusal is not None or not fails
    forbid_member_reads()
    got = _loader_result(apk)
    assert got == (want if refusal is None else f"member {SMALI!r}: {refusal}")


def _past_the_end(data, central):
    size = struct.unpack_from("<L", data, central + 20)[0]
    struct.pack_into("<L", data, central + 20, size + len(data))   # compress_size


@pytest.mark.parametrize("compression, damage", [
    *[case[:2] for case in _CASES], (zipfile.ZIP_DEFLATED, _past_the_end),
    (zipfile.ZIP_STORED, _past_the_end)])
def test_one_call_read_agrees_with_the_chunked_copy(tmp_path, monkeypatch,
                                                    compression, damage):
    """A member that fits one chunk is read in one call; read in chunks of
    16 bytes through ``copy_direct`` instead, it gives the same bytes or
    the same reason."""
    data, central = _member_archive(compression)
    if damage is not None:
        damage(data, central)
    apk = tmp_path / "app.apk"
    apk.write_bytes(bytes(data))
    whole = _loader_result(apk)
    monkeypatch.setattr(scan, "_COPY_CHUNK", 16)
    assert _loader_result(apk) == whole


def _utf8_flag_on_bad_name(data, central):
    data[central + 9] |= 0x08                    # flag 0x800
    data[central + 46 + 6] = 0xFF                # "smali/" then no UTF-8


def _new_version(data, central):
    data[central + 6] = 77                       # needs version 7.7


@pytest.mark.parametrize("damage", [_utf8_flag_on_bad_name, _new_version])
def test_central_directory_zipfile_cannot_list_is_unscannable(tmp_path, damage):
    data, central = _member_archive()
    damage(data, central)
    apk = tmp_path / "app.apk"
    apk.write_bytes(bytes(data))
    with pytest.raises(scan.UnscannableApkError) as raised:
        scan.load_app(apk)
    verdict = scan.scan_path(apk)
    assert verdict.error == raised.value.reason and not verdict.is_dl


class _Unseekable(io.RawIOBase):
    """A write-only stream, so zipfile writes data descriptors (flag 0x008)."""

    def __init__(self):
        self.buf = io.BytesIO()

    def writable(self):
        return True

    def write(self, b):
        return self.buf.write(b)


def test_plain_members_are_read_without_zipfile(tmp_path, no_fd_leak,
                                                forbid_member_reads):
    stream = _Unseekable()
    with zipfile.ZipFile(stream, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("AndroidManifest.xml", "<manifest/>")
        zf.writestr("smali/Ä.smali", ".class LÄ;\n" * 50)           # flag 0x800
        zf.writestr("smali/S.smali", "stored", compress_type=zipfile.ZIP_STORED)
        zf.writestr("smali/Empty.smali", "")
    infos = zipfile.ZipFile(io.BytesIO(stream.buf.getvalue())).infolist()
    assert all(info.flag_bits & 0x008 for info in infos)
    assert any(info.flag_bits & 0x800 for info in infos)
    apk = tmp_path / "app.apk"
    apk.write_bytes(stream.buf.getvalue())
    want = _zipfile_result(apk)
    forbid_member_reads()
    app = scan.load_app(apk)
    assert app.data == want and len(want) == 4
    assert app.entries == tuple(info.filename for info in infos)


def test_member_whose_data_runs_into_the_next_is_refused(tmp_path, no_fd_leak,
                                                         overlap_archive):
    apk = overlap_archive(tmp_path / "overlap.apk", "smali/A.smali", "smali/B.smali")
    with zipfile.ZipFile(apk) as zf:
        assert zf.read("smali/B.smali") == b"second member\n"
    with pytest.raises(scan.UnscannableApkError) as raised:
        scan.load_app(apk)
    assert raised.value.reason == \
        "member 'smali/A.smali': data runs into the next member"


def test_members_that_share_a_local_record_still_load(tmp_path, no_fd_leak):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("smali/A.smali", ".class LA;\n")
        zf.writestr("smali/B.smali", ".class LB;\n")
    data = buf.getvalue()
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        start, (_, last) = zf.start_dir, zf.infolist()
    eocd = data.rindex(zipfile.stringEndArchive)
    # List the last member's central record twice: both entries name the
    # member with the highest offset, and each must end at the directory.
    record = data[eocd - (46 + len(last.filename)):eocd]
    central = data[start:eocd] + record
    apk = tmp_path / "shared.apk"
    apk.write_bytes(data[:start] + central + struct.pack(
        zipfile.structEndArchive, zipfile.stringEndArchive, 0, 0, 3, 3,
        len(central), start, 0))
    assert scan.load_app(apk).data == {"smali/A.smali": b".class LA;\n",
                                       "smali/B.smali": b".class LB;\n"}


@pytest.mark.parametrize("bit", [0x002, 0x004])
def test_compression_level_bits_are_read_without_zipfile(tmp_path, forbid_member_reads,
                                                         bit):
    """``zip -9`` and ``zip -1`` mark deflated members with flag bit 0x002 or
    0x004; those bits change nothing the reader needs."""
    data, central = _member_archive()
    data[central + 8] |= bit
    data[_local(data, central).header_offset + 6] |= bit
    apk = tmp_path / "app.apk"
    apk.write_bytes(bytes(data))
    want = _zipfile_result(apk)
    assert isinstance(want, dict)
    forbid_member_reads()
    assert scan.load_app(apk).data == want


def test_member_cannot_inflate_past_its_declared_size(tmp_path, monkeypatch):
    data, central = _member_archive()
    struct.pack_into("<L", data, central + 24, 10)       # file_size: 10 bytes
    apk = tmp_path / "app.apk"
    apk.write_bytes(bytes(data))
    assert isinstance(_zipfile_result(apk), str)
    inflated = []

    class Spy:
        def __init__(self, wbits):
            self.inner = zlib.decompressobj(wbits)

        def decompress(self, raw, max_length=0):
            out = self.inner.decompress(raw, max_length)
            inflated.append(len(out))
            return out

        @property
        def unconsumed_tail(self):
            return self.inner.unconsumed_tail
    monkeypatch.setattr(scan, "zlib", types.SimpleNamespace(
        decompressobj=Spy, crc32=zlib.crc32, error=zlib.error))
    assert _loader_result(apk) == f"member {SMALI!r}: runs past its declared 10 bytes"
    assert inflated == [len("<manifest/>"), 10 + 1]     # stopped past 10 bytes


@pytest.mark.parametrize("method, reason", [
    (zipfile.ZIP_DEFLATED, "runs past its declared 10 bytes"),
    (zipfile.ZIP_BZIP2, "compression method 12 is neither stored nor deflated"),
], ids=["deflate", "bzip2"])
def test_bomb_member_is_refused_in_bounded_memory(tmp_path, bomb_archive,
                                                  forbid_member_reads, method, reason):
    apk = bomb_archive(tmp_path / "bomb.apk", "smali/B.smali", method)
    forbid_member_reads()
    tracemalloc.start()
    try:
        got = _loader_result(apk)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert got == f"member 'smali/B.smali': {reason}"
    assert peak < (1 << 20), peak            # 16 MB of zeros, never inflated


@pytest.mark.parametrize("reported", [0, 10, 200_000])
def test_tree_file_is_read_whole_whatever_size_it_reports(tmp_path, monkeypatch,
                                                          reported):
    path = tmp_path / "A.smali"
    path.write_bytes(bytes(range(256)) * 800)              # 204,800 bytes
    monkeypatch.setattr(scan.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=reported))
    assert scan._read_file(str(path)) == path.read_bytes()


def test_tree_read_that_fails_closes_every_descriptor(tmp_path, monkeypatch,
                                                     no_fd_leak):
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    synth.write_tree(files, tmp_path / truth.name)

    def fail(fd, size):
        raise OSError(errno.EIO, os.strerror(errno.EIO))
    monkeypatch.setattr(scan.os, "read", fail)
    with pytest.raises(OSError, match="Input/output error"):
        scan.load_app(tmp_path / truth.name)


@pytest.mark.parametrize("limit, over", [
    ("MAX_ENTRIES", lambda infos: len(infos)),
    ("MAX_READ_BYTES", lambda infos: sum(
        i.file_size for i in infos
        if i.filename.endswith(".smali") or i.filename == "AndroidManifest.xml")),
])
def test_archive_over_a_load_bound_is_refused_before_any_read(tmp_path, no_fd_leak,
                                                              monkeypatch, limit, over):
    data, _ = _member_archive()
    apk = tmp_path / "app.apk"
    apk.write_bytes(bytes(data))
    with zipfile.ZipFile(apk) as zf:
        at = over(zf.infolist())
    monkeypatch.setattr(scan, limit, at)
    assert _loader_result(apk) == _zipfile_result(apk)      # at the bound
    reads = []
    monkeypatch.setattr(scan, "_read_direct", lambda *a: reads.append(a))
    monkeypatch.setattr(zipfile.ZipFile, "open",
                        lambda *a, **k: reads.append(a))
    monkeypatch.setattr(scan, limit, at - 1)
    with pytest.raises(scan.UnscannableApkError) as raised:
        scan.load_app(apk)
    assert str(at) in raised.value.reason and str(at - 1) in raised.value.reason
    assert reads == []
    verdict = scan.scan_path(apk)
    assert verdict.error == raised.value.reason and not verdict.is_dl
