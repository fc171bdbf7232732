import difflib
import errno
import fcntl
import io
import json
import os
import random
import signal
import struct
import tracemalloc
import warnings
import zipfile
import zlib

import pytest

from prepatch import cli, inject, locate, pipeline, scan, smali, synth
from prepatch.perturbation import PerturbationSpec


def _archive(path, kind, index, seed=5, extra=()):
    files, truth = synth.build_app_files(kind, index, random.Random(seed))
    path.write_bytes(synth.zip_app({**files, **{name: b"x" for name in extra}}))
    return files, truth


def test_census_writes_no_tree(corpus, tmp_path):
    root, _ = corpus
    workdir = tmp_path / "work"
    report = pipeline.run_pipeline(pipeline.collect_sources(root), workdir)
    assert report.stats.dl == 15 and report.matched_apps == 12
    assert list(workdir.iterdir()) == []


def test_inject_writes_only_matched_apps(corpus, tmp_path):
    root, entries = corpus
    workdir = tmp_path / "work"
    report = pipeline.run_pipeline(pipeline.collect_sources(root), workdir,
                                   spec=PerturbationSpec(rotation_delta=90))
    assert report.injected_apps == 12
    injectable = {e.truth.name for e in entries if e.truth.injectable}
    assert {p.name for p in workdir.iterdir()} == injectable


def test_only_apps_whose_plan_has_patches_are_written(corpus, tmp_path):
    root, _ = corpus
    workdir = tmp_path / "work"
    report = pipeline.run_pipeline(pipeline.collect_sources(root), workdir,
                                   spec=PerturbationSpec(width_override=128))
    assert report.matched_apps == 12 and report.injected_apps == 4
    assert {p.name for p in workdir.iterdir()} == \
        {o.app for o in report.outcomes if o.injected}


def test_marked_source_is_refused_without_a_work_tree(tmp_path):
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    rel = next(name for name in files if "ImageHolder" in name)
    files[rel] += inject.MARKER_FIELD + "\n"
    apk = tmp_path / "marked.apk"
    apk.write_bytes(synth.zip_app(files))
    workdir = tmp_path / "work"
    outcome = pipeline.process_app(apk, workdir, PerturbationSpec(rotation_delta=90))
    assert outcome.matched and not outcome.injected
    assert outcome.error == f"{rel} already carries {inject.MARKER_FIELD!r}"
    assert not workdir.exists()


def test_patching_a_crlf_tree_keeps_its_line_endings(tmp_path):
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    crlf = {rel: text.replace("\n", "\r\n").encode()
            for rel, text in files.items() if rel.endswith(".smali")}
    synth.write_tree({**files, **crlf}, tmp_path / "corpus" / truth.name)
    report = pipeline.run_pipeline(pipeline.collect_sources(tmp_path / "corpus"),
                                   tmp_path / "work",
                                   spec=PerturbationSpec(rotation_delta=90))
    assert report.injected_apps == 1
    tree = tmp_path / "work" / truth.name
    changed = [rel for rel, data in crlf.items() if (tree / rel).read_bytes() != data]
    assert changed == [next(rel for rel in files if "ImageHolder" in rel)]
    before = crlf[changed[0]].splitlines(keepends=True)
    after = (tree / changed[0]).read_bytes().splitlines(keepends=True)
    edits = [(tag, before[i1:i2], after[j1:j2]) for tag, i1, i2, j1, j2 in
             difflib.SequenceMatcher(None, before, after, autojunk=False).get_opcodes()
             if tag != "equal"]
    marker = inject.MARKER_FIELD.encode()
    assert sorted(edits) == [
        ("insert", [], [b"\r\n", marker + b"\r\n"]),
        ("replace", [b"    const/16 p2, 0xb4\r\n"], [b"    const/16 p2, 0x10e\r\n"])]


def test_work_tree_collision_fails_one_app_only(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _archive(corpus / "app.apk", "s1", 1)
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    synth.write_tree(files, corpus / "app")
    _archive(corpus / "other.apk", "s3", 4)

    report = pipeline.run_pipeline(pipeline.collect_sources(corpus),
                                   tmp_path / "work",
                                   spec=PerturbationSpec(rotation_delta=90))
    by_source = {o.source: o for o in report.outcomes}
    pair = [by_source["app"], by_source["app.apk"]]
    assert sum(o.injected for o in pair) == 1
    assert by_source["app"].injected and by_source["app"].error is None
    refused = by_source["app.apk"]
    assert not refused.injected and refused.matched
    assert "app" in refused.error and "belongs to" in refused.error
    assert by_source["other.apk"].injected
    # The surviving tree is the S2 tree's, patched once.
    wrapper = tmp_path / "work" / "app" / next(p for p in files if "ImageHolder" in p)
    assert wrapper.read_text().count("__preproc_patch_marker__") == 1
    assert "const/16 p2, 0x10e" in wrapper.read_text()


def test_unsafe_entry_in_dl_archive_is_refused(tmp_path, no_fd_leak):
    apk = tmp_path / "evil.apk"
    _archive(apk, "s2", 2, extra=("../escape.txt",))
    outcome = pipeline.process_app(apk, tmp_path / "work",
                                   PerturbationSpec(rotation_delta=90))
    assert outcome.verdict.is_dl and outcome.verdict.error is None
    assert outcome.error == "unsafe entry '../escape.txt'"
    assert outcome.anchors == 0 and not outcome.matched
    assert not (tmp_path / "escape.txt").exists()
    assert not (tmp_path / "work").exists()


def test_materialize_keeps_every_entry_byte_equal(tmp_path, no_fd_leak):
    apk = tmp_path / "packed.apk"
    files, _ = _archive(apk, "s1", 1)
    tree = pipeline.materialize(scan.load_app(apk), tmp_path / "work")
    got = {p.relative_to(tree).as_posix(): p.read_bytes()
           for p in tree.rglob("*") if p.is_file()}
    want = {rel: data if isinstance(data, bytes) else data.encode("utf-8")
            for rel, data in files.items()}
    assert got == want
    copied = pipeline.materialize(scan.load_app(tree), tmp_path / "again")
    assert {p.relative_to(copied).as_posix(): p.read_bytes()
            for p in copied.rglob("*") if p.is_file()} == want


def _snapshot(root):
    """Every directory and file under ``root``: relative name -> bytes, or
    None for a directory."""
    found = {}
    for folder, dirs, files in os.walk(root):
        rel = os.path.relpath(folder, root)
        for name in dirs:
            found[os.path.normpath(os.path.join(rel, name))] = None
        for name in files:
            path = os.path.join(folder, name)
            assert not os.path.islink(path)
            with open(path, "rb") as fh:
                found[os.path.normpath(os.path.join(rel, name))] = fh.read()
    return found


@pytest.mark.parametrize("read_only, extra", [
    # an empty directory entry, duplicated members, an unread asset and
    # nested folders
    (False, [("empty/", b""), ("assets/dup.bin", b"first"),
             ("assets/dup.bin", b"second"),
             ("smali/com/x/y/Dup.smali", b".class LDup;\n"),
             ("smali/com/x/y/Dup.smali", b".class LDup;\n# second\n"),
             ("assets/deep/er/model.tflite", b"\x00\x01")]),
    # directory entries are the only members that are not read
    (True, [("empty/", b""), ("smali/com/x/", b"")]),
])
def test_materialize_matches_extractall(tmp_path, no_fd_leak, read_only, extra):
    files, _ = synth.build_app_files("s1", 1, random.Random(5))
    if read_only:
        files = {name: data for name, data in files.items()
                 if name.endswith(".smali") or name == "AndroidManifest.xml"}
    apk = tmp_path / "packed.apk"
    with warnings.catch_warnings(), zipfile.ZipFile(apk, "w") as zf:
        warnings.simplefilter("ignore")        # duplicate names
        for name, data in [*files.items(), *extra]:
            zf.writestr(name, data)
    with zipfile.ZipFile(apk) as zf:
        zf.extractall(tmp_path / "want")
    tree = pipeline.materialize(scan.load_app(apk), tmp_path / "work")
    assert _snapshot(tree) == _snapshot(tmp_path / "want")
    assert os.path.isdir(tree / "empty")


_BODY = (".class public Lcom/x/{};\n.super Ljava/lang/Object;\n\n"
         ".method public constructor <init>()V\n    .registers 1\n"
         "    return-void\n.end method\n")

# Read members whose bytes the index's text may or may not give back, plus
# unread ones; (name, bytes, compression).
_ODD_MEMBERS = [
    ("smali/com/x/Crlf.smali", _BODY.format("Crlf").replace("\n", "\r\n").encode(),
     zipfile.ZIP_DEFLATED),
    ("smali/com/x/Cr.smali", _BODY.format("Cr").replace("\n", "\r").encode(),
     zipfile.ZIP_STORED),
    ("smali/com/x/Bom.smali", b"\xef\xbb\xbf" + _BODY.format("Bom").encode(),
     zipfile.ZIP_DEFLATED),
    ("smali/com/x/Wide.smali", _BODY.format("Wideé中").encode(),
     zipfile.ZIP_DEFLATED),
    ("smali/com/x/Latin.smali", _BODY.format("Latin").encode() + b"# caf\xe9\n",
     zipfile.ZIP_DEFLATED),
    ("smali/com/x/Broken.smali", b".class public Lcom/x/Broken;\n.method x\n",
     zipfile.ZIP_DEFLATED),
    ("smali/com/x/Dup.smali", _BODY.format("Dup").encode(), zipfile.ZIP_DEFLATED),
    ("smali/com/x/Dup.smali", _BODY.format("Dup").encode() + b"# second\n",
     zipfile.ZIP_STORED),
    ("empty/", b"", zipfile.ZIP_STORED),
    ("assets/dup.bin", b"first", zipfile.ZIP_DEFLATED),
    ("assets/dup.bin", b"second", zipfile.ZIP_STORED),
    ("assets/raw.bin", bytes(range(256)) * 4, zipfile.ZIP_STORED),
    ("assets/deep/er/m.tflite", b"\x00\x01" * 300, zipfile.ZIP_DEFLATED),
]
# Members no Android reader takes, which the direct copy refuses.
_BZIP2_LZMA_MEMBERS = [
    ("assets/model.bz2.tflite", b"bzip2 model " * 50, zipfile.ZIP_BZIP2),
    ("assets/notes.xz", b"lzma notes " * 50, zipfile.ZIP_LZMA),
]


def _odd_archive(path, members):
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    with warnings.catch_warnings(), zipfile.ZipFile(path, "w") as zf:
        warnings.simplefilter("ignore")        # duplicate names
        for name, data in files.items():
            zf.writestr(name, data, compress_type=zipfile.ZIP_DEFLATED)
        for name, data, method in members:
            zf.writestr(name, data, compress_type=method)


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("bzip2_lzma", [False, True])
def test_materialize_writes_what_extractall_writes(tmp_path, no_fd_leak, monkeypatch,
                                                   forbid_member_reads,
                                                   indexed, bzip2_lzma):
    apk = tmp_path / "odd.apk"
    _odd_archive(apk, _ODD_MEMBERS + (_BZIP2_LZMA_MEMBERS if bzip2_lzma else []))
    with zipfile.ZipFile(apk) as zf:
        zf.extractall(tmp_path / "want")
    app = scan.load_app(apk)
    if indexed:
        index = locate.ClassIndex.from_files(app.data)
        # A BOM before ".class" fails to parse, as it does from disk.
        assert {rel for rel, _ in index.validate()[1]} == {
            "smali/com/x/Latin.smali", "smali/com/x/Broken.smali",
            "smali/com/x/Bom.smali"}
    forbid_member_reads()
    opened, real_zipfile = [], zipfile.ZipFile
    monkeypatch.setattr(zipfile, "ZipFile",
                        lambda *a, **k: opened.append(a) or real_zipfile(*a, **k))
    if bzip2_lzma:
        # zipfile extracts these; the copy refuses the first one, and the app.
        with pytest.raises(scan.UnscannableApkError) as raised:
            pipeline.materialize(app, tmp_path / "work")
        assert raised.value.reason == ("member 'assets/model.bz2.tflite': "
                                       "compression method 12 is neither "
                                       "stored nor deflated")
        assert not (tmp_path / "work" / app.name).exists()
    else:
        tree = pipeline.materialize(app, tmp_path / "work")
        assert _snapshot(tree) == _snapshot(tmp_path / "want")
        assert os.path.isdir(tree / "empty")
    assert not opened


_BIG = "assets/big.bin"


def _central_record(data, name):
    """Offset of ``name``'s central directory record in archive ``data``."""
    with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
        offset = zf.start_dir
    while True:
        fields = struct.unpack(zipfile.structCentralDir, data[offset:offset + 46])
        if data[offset + 46:offset + 46 + fields[12]].decode() == name:
            return offset
        offset += 46 + fields[12] + fields[13] + fields[14]


def _bad_crc(data, central):
    data[central + 16] ^= 0xFF


def _short_size(data, central):
    size = struct.unpack_from("<L", data, central + 24)[0]
    struct.pack_into("<L", data, central + 24, size - 10)


def _long_size(data, central):
    size = struct.unpack_from("<L", data, central + 24)[0]
    struct.pack_into("<L", data, central + 24, size + 10)


def _garbled(data, central):
    with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
        start = zf.getinfo(_BIG).header_offset + 30 + len(_BIG)
    data[start + 100:start + 108] = b"\xff" * 8


def _plain_zlib_refusal(apk):
    """The check that reading ``_BIG`` whole with plain zlib fails, as a
    reference for the chunked copy."""
    with zipfile.ZipFile(apk) as zf:
        info = zf.getinfo(_BIG)
    start = info.header_offset + 30 + len(_BIG)
    data = apk.read_bytes()[start:start + info.compress_size]
    if info.compress_type == zipfile.ZIP_DEFLATED:
        try:
            data = zlib.decompressobj(-15).decompress(data)
        except zlib.error as exc:
            return f"inflate error: {exc}"
    assert len(data) <= info.file_size
    if len(data) < info.file_size:
        return f"ends at {len(data)} of its declared {info.file_size} bytes"
    assert zlib.crc32(data) != info.CRC
    return "bad CRC-32"


# The copy's reason for each damage, after "member 'assets/big.bin': ";
# None where it depends on how zlib laid out the stream, and plain zlib
# gives the reference. zipfile fails on every damage but
# _long_size, whose member holds 10 bytes fewer than declared with the
# declared CRC-32; the copy refuses that too, as it refuses a member that
# runs past its size.
_COPY_REFUSALS = {
    _bad_crc: "bad CRC-32",
    _short_size: "runs past its declared 3145718 bytes",
    _long_size: "ends at 3145728 of its declared 3145738 bytes",
    _garbled: None,
}


@pytest.mark.parametrize("payload, method", [
    (b"\x00" * (3 << 20), zipfile.ZIP_DEFLATED),    # one read, many output chunks
    (random.Random(1).randbytes(3 << 20), zipfile.ZIP_DEFLATED),
    (random.Random(2).randbytes(3 << 20), zipfile.ZIP_STORED),
], ids=["zeros-deflated", "random-deflated", "random-stored"])
@pytest.mark.parametrize("damage", [None, _bad_crc, _short_size, _long_size, _garbled])
def test_unread_member_is_copied_in_chunks_and_checked(tmp_path, no_fd_leak, monkeypatch,
                                                       forbid_member_reads,
                                                       payload, method, damage):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("AndroidManifest.xml", "<manifest/>")
        zf.writestr("smali/A.smali", ".class LA;\n")
        zf.writestr(_BIG, payload, compress_type=method)
    data = bytearray(buf.getvalue())
    if damage is not None:
        damage(data, _central_record(data, _BIG))
    apk = tmp_path / "big.apk"
    apk.write_bytes(bytes(data))
    try:
        with zipfile.ZipFile(apk) as zf:
            zf.extractall(tmp_path / "want")
        want = _snapshot(tmp_path / "want")
    except zipfile.BadZipFile:
        want = None
    assert (want is None) is (damage not in (None, _long_size))
    app = scan.load_app(apk)
    if damage is not None:
        want = f"member {_BIG!r}: {_COPY_REFUSALS[damage] or _plain_zlib_refusal(apk)}"
    forbid_member_reads()
    opened, real_zipfile = [], zipfile.ZipFile
    monkeypatch.setattr(zipfile, "ZipFile",
                        lambda *a, **k: opened.append(a) or real_zipfile(*a, **k))
    tracemalloc.start()
    try:
        tree = pipeline.materialize(app, tmp_path / "work")
    except scan.UnscannableApkError as exc:
        tree = exc.reason
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    got = tree if isinstance(tree, str) else _snapshot(tree)
    assert got == want
    if isinstance(want, str):
        assert not (tmp_path / "work" / "big").exists()
    assert not opened
    assert peak < (1 << 20), peak             # a 3 MB member, never held whole


def test_bzip2_bomb_asset_is_refused_in_bounded_memory(tmp_path, bomb_archive,
                                                       forbid_member_reads):
    apk = bomb_archive(tmp_path / "bomb.apk", "assets/bomb.bin", zipfile.ZIP_BZIP2)
    app = scan.load_app(apk)
    forbid_member_reads()
    tracemalloc.start()
    try:
        with pytest.raises(scan.UnscannableApkError) as raised:
            pipeline.materialize(app, tmp_path / "work")
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert raised.value.reason == ("member 'assets/bomb.bin': compression "
                                   "method 12 is neither stored nor deflated")
    assert not (tmp_path / "work" / "bomb").exists()
    assert peak < (1 << 20), peak            # 16 MB of zeros, never inflated


def test_unread_member_that_runs_into_the_next_is_refused(tmp_path, no_fd_leak,
                                                          overlap_archive,
                                                          forbid_member_reads):
    apk = overlap_archive(tmp_path / "overlap.apk", "assets/a.bin", "assets/b.bin")
    app = scan.load_app(apk)
    assert list(app.unread) == ["assets/a.bin", "assets/b.bin"]
    forbid_member_reads()
    with pytest.raises(scan.UnscannableApkError) as raised:
        pipeline.materialize(app, tmp_path / "work")
    assert raised.value.reason == \
        "member 'assets/a.bin': data runs into the next member"
    assert not (tmp_path / "work" / "overlap").exists()


def test_after_indexing_the_text_is_the_only_copy_of_a_file(tmp_path):
    apk = tmp_path / "odd.apk"
    _odd_archive(apk, _ODD_MEMBERS)
    app = scan.load_app(apk)
    assert all(isinstance(data, bytes) for data in app.data.values())
    index = locate.ClassIndex.from_files(app.data)
    kept = {"smali/com/x/Crlf.smali", "smali/com/x/Cr.smali",
            "smali/com/x/Latin.smali", "AndroidManifest.xml"}
    texts = dict(index.texts())
    for rel, data in app.data.items():
        if rel in kept:
            assert isinstance(data, bytes), rel
        elif index.unit(rel) is None:
            assert data is texts[rel]
        else:
            assert data is index.unit(rel).text, rel
    assert [rel for rel in texts if index.unit(rel) is None] == \
        ["smali/com/x/Bom.smali", "smali/com/x/Broken.smali"]
    assert app.data["smali/com/x/Bom.smali"].startswith("\ufeff")


def test_pipeline_parses_no_filler_and_locate_parses_every_class_once(
        tmp_path, capsys, monkeypatch):
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    synth._add_fillers(files, "demoapp02/pad", random.Random(6), 1000)
    apk = tmp_path / f"{truth.name}.apk"
    apk.write_bytes(synth.zip_app(files))
    texts = [text for rel, text in files.items() if rel.endswith(".smali")]
    fillers = {files[rel] for rel in files if "/util/" in rel}
    assert len(fillers) > 1000
    parsed, real = [], smali.parse_unit
    monkeypatch.setattr(smali, "parse_unit",
                        lambda text: parsed.append(text) or real(text))

    outcome = pipeline.process_app(apk, tmp_path / "work",
                                   PerturbationSpec(rotation_delta=90))
    assert outcome.injected and outcome.patches == 1 and outcome.anchors == 1
    assert parsed and len(set(parsed)) == len(parsed)
    assert not fillers & set(parsed)

    parsed.clear()
    assert cli.main(["locate", str(apk)]) == 0
    assert f"{len(texts)} classes" in capsys.readouterr().out
    assert sorted(parsed) == sorted(texts)


def test_materialize_tree_copies_unread_and_linked_files(tmp_path, no_fd_leak):
    files, truth = synth.build_app_files("s1", 1, random.Random(5))
    source = tmp_path / truth.name
    synth.write_tree(files, source)
    (source / "assets" / "notes.bin").write_bytes(b"\x00unread")
    (source / "shared").mkdir()
    (source / "shared" / "Linked.smali").write_text(".class LLinked;\n")
    (source / "shared" / "linked.bin").write_bytes(b"linked asset")
    # Links that resolve inside the tree, one absolute and one relative.
    (source / "smali" / "Linked.smali").symlink_to(source / "shared" / "Linked.smali")
    (source / "assets" / "linked.bin").symlink_to("../shared/linked.bin")

    app = scan.load_app(source)
    assert app.unsafe_entry is None
    tree = pipeline.materialize(app, tmp_path / "work")
    want = {rel: (source / rel).read_bytes() for rel in app.entries}
    got = _snapshot(tree)
    assert {rel: data for rel, data in got.items() if data is not None} == want
    assert got["smali/Linked.smali"] == b".class LLinked;\n"
    assert got["assets/linked.bin"] == b"linked asset"


def _tree_source(tmp_path):
    """An S2 app written as a tree with an unread asset, and its wrapper."""
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    source = tmp_path / "corpus" / truth.name
    synth.write_tree(files, source)
    (source / "assets" / "notes.bin").write_bytes(b"\x00unread")
    return source, next(rel for rel in files if "ImageHolder" in rel)


def _files(root):
    """Each file under ``root``: relative name -> (bytes, inode, mtime)."""
    found = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            found[path.relative_to(root).as_posix()] = (
                path.read_bytes(), st.st_ino, st.st_mtime_ns)
    return found


def _refuse_links(monkeypatch, code):
    """Make ``os.link`` fail with ``code``; the names it is asked to link."""
    tried = []

    def refuse(src, dst, **kwargs):
        tried.append(src)
        raise OSError(code, os.strerror(code), src)
    monkeypatch.setattr(pipeline.os, "link", refuse)
    return tried


def test_tree_source_is_linked_and_only_the_patched_file_is_new(tmp_path,
                                                                no_fd_leak):
    source, wrapper = _tree_source(tmp_path)
    before = _files(source)
    report = pipeline.run_pipeline([source], tmp_path / "work",
                                   spec=PerturbationSpec(rotation_delta=90))
    assert report.injected_apps == 1
    assert _files(source) == before
    tree = tmp_path / "work" / source.name
    after = _files(tree)
    assert sorted(after) == sorted(before)
    assert after[wrapper][0] != before[wrapper][0]
    assert after[wrapper][1] != before[wrapper][1]
    assert {rel: got[1] for rel, got in after.items() if rel != wrapper} == \
        {rel: was[1] for rel, was in before.items() if rel != wrapper}


@pytest.mark.parametrize("code", [errno.EXDEV, errno.EPERM])
def test_tree_the_system_will_not_link_is_written_byte_equal(tmp_path, monkeypatch,
                                                             no_fd_leak, code):
    source, wrapper = _tree_source(tmp_path)
    (source / "smali" / "Linked.smali").symlink_to("../AndroidManifest.xml")
    spec = PerturbationSpec(rotation_delta=90)
    linked = pipeline.run_pipeline([source], tmp_path / "linked", spec=spec)
    tried = _refuse_links(monkeypatch, code)
    written = pipeline.run_pipeline([source], tmp_path / "written", spec=spec)
    assert written.to_dict() == linked.to_dict() and written.injected_apps == 1
    tree = tmp_path / "written" / source.name
    assert _snapshot(tree) == _snapshot(tmp_path / "linked" / source.name)
    assert sorted(tried) == sorted(path.name for path in source.rglob("*")
                                   if path.is_file())
    assert all(path.stat().st_nlink == 1 for path in tree.rglob("*")
               if path.is_file())


def test_materialize_fails_the_app_on_another_link_error(tmp_path, monkeypatch,
                                                         no_fd_leak):
    source, _ = _tree_source(tmp_path)
    app = scan.load_app(source)
    _refuse_links(monkeypatch, errno.EIO)
    with pytest.raises(scan.UnscannableApkError, match="Input/output error"):
        pipeline.materialize(app, tmp_path / "work")
    assert not (tmp_path / "work" / source.name).exists()


@pytest.mark.parametrize("kind", ["archive", "tree"])
def test_materialize_removes_its_tree_when_a_write_fails(tmp_path, monkeypatch,
                                                         no_fd_leak, kind):
    if kind == "archive":
        source = tmp_path / "app.apk"
        _archive(source, "s2", 2)
    else:
        source, _ = _tree_source(tmp_path)
        _refuse_links(monkeypatch, errno.EXDEV)
    app = scan.load_app(source)

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(pipeline.os, "write", full)
    with pytest.raises(scan.UnscannableApkError, match="No space left"):
        pipeline.materialize(app, tmp_path / "work")
    assert list((tmp_path / "work").iterdir()) == []


def test_tree_symlink_becomes_a_file_and_its_target_is_kept(tmp_path, no_fd_leak):
    source, _ = _tree_source(tmp_path)
    (source / "shared").mkdir()
    (source / "shared" / "Linked.smali").write_text(".class LLinked;\n")
    (source / "smali" / "Linked.smali").symlink_to("../shared/Linked.smali")
    (source / "assets" / "linked.bin").symlink_to(source / "assets" / "notes.bin")
    before = _files(source)
    report = pipeline.run_pipeline([source], tmp_path / "work",
                                   spec=PerturbationSpec(rotation_delta=90))
    assert report.injected_apps == 1
    assert _files(source) == before
    tree = tmp_path / "work" / source.name
    for rel, target in [("smali/Linked.smali", "shared/Linked.smali"),
                        ("assets/linked.bin", "assets/notes.bin")]:
        assert not (tree / rel).is_symlink() and (tree / rel).is_file()
        assert (tree / rel).read_bytes() == before[target][0]


def test_rerun_into_the_same_workdir_keeps_the_source(tmp_path, no_fd_leak):
    source, _ = _tree_source(tmp_path)
    before = _files(source)
    spec = PerturbationSpec(rotation_delta=90)
    first = pipeline.run_pipeline([source], tmp_path / "work", spec=spec)
    written = _snapshot(tmp_path / "work")
    again = pipeline.run_pipeline([source], tmp_path / "work", spec=spec)
    assert again.to_dict() == first.to_dict() and again.injected_apps == 1
    assert _snapshot(tmp_path / "work") == written
    assert _files(source) == before


@pytest.mark.parametrize("rel", ["smali/Outside.smali", "assets/outside.bin",
                                 "AndroidManifest.xml"])
def test_tree_link_that_escapes_is_refused_unread(tmp_path, no_fd_leak, monkeypatch, rel):
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    source = tmp_path / "corpus" / truth.name
    synth.write_tree(files, source)
    outside = tmp_path / "outside.bin"
    outside.write_bytes(b".class LOutside;\n")
    (source / rel).unlink(missing_ok=True)
    # A relative link through the parent, so only resolving it shows the escape.
    (source / rel).symlink_to(os.path.relpath(outside, (source / rel).parent))
    # Reads are relative to a folder's fd, so the spy notes each file's inode.
    opened = []
    real_read = scan._read_file

    def spy(name, dir_fd=None):
        opened.append(os.stat(name, dir_fd=dir_fd, follow_symlinks=False).st_ino)
        return real_read(name, dir_fd)
    monkeypatch.setattr(scan, "_read_file", spy)

    app = scan.load_app(source)
    assert app.unsafe_entry == rel and rel in app.entries
    assert rel not in app.data
    inode = {entry: os.lstat(source / entry).st_ino for entry in app.entries}
    others = [entry for entry in app.entries
              if entry != rel and (entry.endswith(".smali")
                                   or entry == "AndroidManifest.xml")]
    assert len(others) > 5
    assert sorted(opened) == sorted(inode[entry] for entry in others)
    assert inode[rel] not in opened
    with pytest.raises(scan.UnscannableApkError, match="unsafe entry"):
        pipeline.materialize(app, tmp_path / "work")
    assert not (tmp_path / "work" / truth.name).exists()
    outcome = pipeline.process_app(source, tmp_path / "work",
                                   PerturbationSpec(rotation_delta=90))
    assert outcome.verdict.is_dl
    assert outcome.error == f"unsafe entry {rel!r}" and not outcome.injected
    assert not (tmp_path / "work" / truth.name).exists()


def test_bad_frame_size_fails_only_its_own_app(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    files["smali/com/odd/Odd.smali"] = "\n".join([
        ".class public Lcom/odd/Odd;", ".super Ljava/lang/Object;",
        ".method public m()V", "    .registers ²", "    return-void",
        ".end method", ""])
    (corpus / "bad.apk").write_bytes(synth.zip_app(files))
    _archive(corpus / "good.apk", "s1", 1)
    spec = PerturbationSpec(rotation_delta=90)

    both = pipeline.run_pipeline(pipeline.collect_sources(corpus),
                                 tmp_path / "both", spec=spec)
    alone = pipeline.run_pipeline([corpus / "good.apk"], tmp_path / "alone",
                                  spec=spec)
    by_source = {o.source: o.to_dict() for o in both.outcomes}
    assert by_source["good.apk"] == alone.outcomes[0].to_dict()
    assert by_source["good.apk"]["injected"]
    assert by_source["bad.apk"]["injected"] and by_source["bad.apk"]["error"] is None


def _beside_good(tmp_path, bad_files, before_both=lambda: None):
    """Outcomes of good.apk alone and of both apps, as dicts by source;
    ``before_both`` runs between the two pipeline runs."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.apk").write_bytes(synth.zip_app(bad_files))
    _archive(corpus / "good.apk", "s1", 1)
    spec = PerturbationSpec(rotation_delta=90)
    alone = pipeline.run_pipeline([corpus / "good.apk"], tmp_path / "alone", spec=spec)
    before_both()
    both = pipeline.run_pipeline(pipeline.collect_sources(corpus),
                                 tmp_path / "both", spec=spec)
    return alone.outcomes[0].to_dict(), {o.source: o.to_dict() for o in both.outcomes}


_LONG = "1" * 5000   # more digits than int() converts by default


@pytest.mark.parametrize("method", [
    pytest.param([".method public m()V", "    .registers 2", f"    move v{_LONG}, v0"],
                 id="register"),
    pytest.param([".method public m()V", f"    .registers {_LONG}"], id="frame"),
    # <init> bodies are built by analysis, not by the frame check.
    pytest.param([".method public constructor <init>()V", "    .locals 2",
                  f"    const-wide v0, {_LONG}"], id="literal"),
])
def test_long_decimal_fails_only_its_own_class(tmp_path, method):
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    files["smali/com/odd/Odd.smali"] = "\n".join([
        ".class public Lcom/odd/Odd;", ".super Ljava/lang/Object;",
        *method, "    return-void", ".end method", ""])
    alone, by_source = _beside_good(tmp_path, files)
    assert by_source["good.apk"] == alone and alone["injected"]
    assert by_source["bad.apk"]["injected"] and by_source["bad.apk"]["error"] is None


def test_register_above_16_bits_fails_only_its_own_class(tmp_path):
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    files["smali/com/odd/Odd.smali"] = "\n".join([
        ".class public Lcom/odd/Odd;", ".super Ljava/lang/Object;",
        ".method public constructor <init>()V",
        "    invoke-static/range {v0 .. v100000000}, La;->m()V",
        "    return-void", ".end method", ""])
    # Checked first: analysis builds every <init> it indexed, and this one
    # would expand to 10^8 registers.
    (issue,) = locate.ClassIndex.from_files(files).validate()[1]
    assert issue[0] == "smali/com/odd/Odd.smali" and "v100000000" in issue[1]
    alone, by_source = _beside_good(tmp_path, files)
    assert by_source["good.apk"] == alone and alone["injected"]
    assert by_source["bad.apk"]["injected"] and by_source["bad.apk"]["error"] is None


@pytest.mark.parametrize("stage, owner, name", [
    ("load", scan, "load_app"), ("classify", scan, "classify"),
    ("index", locate.ClassIndex, "from_files"), ("analyze", locate, "analyze_index"),
    ("materialize", pipeline, "materialize"), ("plan", inject, "plan_injection"),
    ("apply", inject, "apply_plan")])
def test_stage_failure_fails_only_its_own_app(tmp_path, monkeypatch, stage, owner, name):
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    real, calls = getattr(owner, name), []

    def fail_first(*args, **kwargs):   # bad.apk is processed first
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(*args, **kwargs)
    alone, by_source = _beside_good(
        tmp_path, files, lambda: monkeypatch.setattr(owner, name, fail_first))
    assert by_source["good.apk"] == alone and alone["injected"]
    assert by_source["bad.apk"]["error"] == f"{stage}: RuntimeError: boom"
    assert not by_source["bad.apk"]["injected"]


def test_each_injected_tree_is_walked_once(corpus, tmp_path, monkeypatch):
    root, entries = corpus
    walked, real = [], inject._temp_files

    def spy(tree):
        walked.append(tree.name)
        return real(tree)
    monkeypatch.setattr(inject, "_temp_files", spy)
    report = pipeline.run_pipeline(pipeline.collect_sources(root), tmp_path / "work",
                                   spec=PerturbationSpec(rotation_delta=90))
    assert report.injected_apps == 12
    assert sorted(walked) == sorted(e.truth.name for e in entries
                                    if e.truth.injectable)


def test_rerun_after_a_killed_apply_still_injects(tmp_path):
    apk = tmp_path / "app.apk"
    _archive(apk, "s2", 2)
    spec = PerturbationSpec(rotation_delta=90)
    clean = pipeline.run_pipeline([apk], tmp_path / "clean", spec=spec)

    workdir = tmp_path / "work"
    pid = os.fork()
    if pid == 0:
        try:
            def killed(src, dst):
                os.kill(os.getpid(), signal.SIGKILL)
            inject.os.replace = killed
            pipeline.run_pipeline([apk], workdir, spec=spec)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert sorted(p.name for p in workdir.iterdir()) == \
        ["app", "app" + inject.JOURNAL_SUFFIX, "app" + inject.LOCK_SUFFIX]

    rerun = pipeline.run_pipeline([apk], workdir, spec=spec)
    assert rerun.to_dict() == clean.to_dict() and rerun.injected_apps == 1
    assert sorted(p.name for p in workdir.iterdir()) == ["app"]
    assert _snapshot(workdir) == _snapshot(tmp_path / "clean")


def _lock_of_a_child_killed_after_its_flock(apk, workdir, spec):
    """Run the pipeline in a child that is SIGKILLed right after its first
    ``flock``, before it writes its owner: an empty lock file is left."""
    pid = os.fork()
    if pid == 0:
        try:
            real = fcntl.flock

            def flock(fd, operation):
                real(fd, operation)
                os.kill(os.getpid(), signal.SIGKILL)
            fcntl.flock = flock
            pipeline.run_pipeline([apk], workdir, spec=spec)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


@pytest.mark.parametrize("leave", [
    lambda apk, workdir, spec: (workdir / "app.lock").write_bytes(b""),
    lambda apk, workdir, spec: (workdir / "app.lock").write_text(json.dumps(
        {"pid": 1, "host": os.uname().nodename, "time": "t"})),
    _lock_of_a_child_killed_after_its_flock,
], ids=["empty", "pid-1", "killed-after-flock"])
def test_lock_file_that_no_process_holds_does_not_block(tmp_path, leave):
    apk = tmp_path / "app.apk"
    _archive(apk, "s2", 2)
    workdir = tmp_path / "work"
    workdir.mkdir()
    spec = PerturbationSpec(rotation_delta=90)
    leave(apk, workdir, spec)
    assert [p.name for p in workdir.iterdir()] == ["app.lock"]
    (outcome,) = pipeline.run_pipeline([apk], workdir, spec=spec).outcomes
    assert outcome.injected and outcome.error is None
    assert [p.name for p in workdir.iterdir()] == ["app"]


def test_held_lock_keeps_the_tree_and_fails_only_its_app(tmp_path, lock_holders):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _archive(corpus / "app.apk", "s2", 2)
    _archive(corpus / "other.apk", "s3", 4)
    workdir = tmp_path / "work"
    sentinel = workdir / "app" / "sentinel"
    sentinel.parent.mkdir(parents=True)
    sentinel.write_text("kept")
    pid = lock_holders.hold(workdir / "app")
    lock = workdir / "app.lock"
    held = lock.read_bytes()
    report = pipeline.run_pipeline(pipeline.collect_sources(corpus), workdir,
                                   spec=PerturbationSpec(rotation_delta=90))
    by_source = {o.source: o for o in report.outcomes}
    refused = by_source["app.apk"]
    assert not refused.injected and refused.matched
    assert refused.error == (f"lock file {lock} is held by pid {pid} on "
                             f"{json.loads(held)['host']} since "
                             f"{json.loads(held)['time']}")
    assert by_source["other.apk"].injected
    assert [p.name for p in sentinel.parent.iterdir()] == ["sentinel"]
    assert sentinel.read_text() == "kept"
    assert lock.read_bytes() == held


@pytest.fixture(scope="module")
def clean_run(corpus, tmp_path_factory):
    """The seed-2024 corpus's sources and their outcomes under a 90 degree
    rotation delta, as dicts by source."""
    root, _ = corpus
    sources = pipeline.collect_sources(root)
    report = pipeline.run_pipeline(sources, tmp_path_factory.mktemp("clean"),
                                   spec=PerturbationSpec(rotation_delta=90))
    return sources, {o.source: o.to_dict() for o in report.outcomes}


def _hostile_app(kind, at, workdir, request):
    """Write the hostile app ``kind`` at ``at`` (``.apk`` added for an
    archive) and return its path. Every kind but the two archive fixtures
    is the S2 app, which would inject, with one hostile edit."""
    apk = at.with_suffix(".apk")
    if kind == "bomb":
        return request.getfixturevalue("bomb_archive")(
            apk, "smali/B.smali", zipfile.ZIP_DEFLATED)
    if kind == "overlap":
        return request.getfixturevalue("overlap_archive")(
            apk, "smali/A.smali", "smali/B.smali")
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    wrapper = next(rel for rel in files if "ImageHolder" in rel)
    if kind == "crlf-wrapper":
        synth.write_tree({**files, wrapper: files[wrapper].replace("\n", "\r\n").encode()}, at)
        return at
    if kind == "held-lock":
        synth.write_tree(files, at)
        workdir.mkdir()
        request.getfixturevalue("lock_holders").hold(workdir / at.name)
        return at
    files.update({
        "undecodable": {"smali/com/odd/Odd.smali": b"\xff.class Lcom/odd/Odd;\n"},
        "duplicate-class": {"smali_classes2" + wrapper[len("smali"):]: files[wrapper]},
        "huge-range": {"smali/com/odd/Odd.smali": "\n".join([
            ".class public Lcom/odd/Odd;", ".super Ljava/lang/Object;",
            ".method public constructor <init>()V",
            "    invoke-static/range {v0 .. v100000000}, La;->m()V",
            "    return-void", ".end method", ""])},
    }[kind])
    apk.write_bytes(synth.zip_app(files))
    return apk


@pytest.mark.parametrize("kind, fate", [
    ("bomb", "runs past its declared 10 bytes"),
    ("overlap", "data runs into the next member"),
    ("undecodable", "injected"),
    ("crlf-wrapper", "injected"),
    ("duplicate-class", "injected"),
    ("huge-range", "injected"),
    ("held-lock", "is held by pid"),
])
def test_one_hostile_app_fails_only_itself(clean_run, tmp_path, request, kind, fate):
    sources, clean = clean_run
    workdir = tmp_path / "work"
    # Named to be processed first, before every corpus app.
    hostile = _hostile_app(kind, tmp_path / "a_hostile", workdir, request)
    report = pipeline.run_pipeline([hostile, *sources], workdir,
                                   spec=PerturbationSpec(rotation_delta=90))
    own = report.outcomes[0]
    assert own.source == hostile.name
    assert fate in ("injected" if own.injected else f"{own.verdict.error} / {own.error}")
    assert {o.source: o.to_dict() for o in report.outcomes[1:]} == clean
