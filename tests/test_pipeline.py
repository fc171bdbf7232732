import difflib
import os
import random
import signal
import warnings
import zipfile

import pytest

from prepatch import inject, locate, pipeline, scan, synth
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


def test_unsafe_entry_in_dl_archive_is_refused(tmp_path):
    apk = tmp_path / "evil.apk"
    _archive(apk, "s2", 2, extra=("../escape.txt",))
    outcome = pipeline.process_app(apk, tmp_path / "work",
                                   PerturbationSpec(rotation_delta=90))
    assert outcome.verdict.is_dl and outcome.verdict.error is None
    assert outcome.error == "unsafe entry '../escape.txt'"
    assert outcome.anchors == 0 and not outcome.matched
    assert not (tmp_path / "escape.txt").exists()
    assert not (tmp_path / "work").exists()


def test_materialize_keeps_every_entry_byte_equal(tmp_path):
    apk = tmp_path / "packed.apk"
    files, _ = _archive(apk, "s1", 1)
    tree = pipeline.materialize(apk, tmp_path / "work")
    got = {p.relative_to(tree).as_posix(): p.read_bytes()
           for p in tree.rglob("*") if p.is_file()}
    want = {rel: data if isinstance(data, bytes) else data.encode("utf-8")
            for rel, data in files.items()}
    assert got == want
    copied = pipeline.materialize(tree, tmp_path / "again")
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
def test_materialize_matches_extractall(tmp_path, read_only, extra):
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
    tree = pipeline.materialize(apk, tmp_path / "work")
    assert _snapshot(tree) == _snapshot(tmp_path / "want")
    assert os.path.isdir(tree / "empty")


def test_materialize_tree_copies_unread_and_linked_files(tmp_path):
    files, truth = synth.build_app_files("s1", 1, random.Random(5))
    source = tmp_path / truth.name
    synth.write_tree(files, source)
    (source / "assets" / "notes.bin").write_bytes(b"\x00unread")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "Linked.smali").write_text(".class LLinked;\n")
    (outside / "linked.bin").write_bytes(b"linked asset")
    (source / "smali" / "Linked.smali").symlink_to(outside / "Linked.smali")
    (source / "assets" / "linked.bin").symlink_to(outside / "linked.bin")

    tree = pipeline.materialize(source, tmp_path / "work")
    want = {rel: (source / rel).read_bytes() for rel in scan.load_app(source).entries}
    got = _snapshot(tree)
    assert {rel: data for rel, data in got.items() if data is not None} == want
    assert got["smali/Linked.smali"] == b".class LLinked;\n"
    assert got["assets/linked.bin"] == b"linked asset"


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
    (issue,) = locate.ClassIndex.from_files(files).issues
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
