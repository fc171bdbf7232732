import random

from prepatch import pipeline, synth
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
