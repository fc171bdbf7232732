import json
import os
import random
import shutil
import tempfile
import zipfile

import pytest

from prepatch import cli, inject, scan, smali, synth
from prepatch.perturbation import PerturbationSpec


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# scan


def test_scan_single_apps(tmp_path, capsys):
    files, _ = synth.build_app_files("s2", 2, random.Random(1))
    apk = tmp_path / "one.apk"
    apk.write_bytes(synth.zip_app(files))
    code, out, _ = run(["scan", str(apk)], capsys)
    assert code == 0
    assert "one: DL" in out
    assert "services=face_detection" in out


def test_scan_corpus_with_report(corpus, tmp_path, capsys):
    root, entries = corpus
    report = tmp_path / "scan.json"
    code, out, _ = run(["scan", str(root), "--corpus",
                        "--report", str(report)], capsys)
    assert code == 0
    assert "total=23 dl=15" in out
    payload = json.loads(report.read_text())
    assert payload["stats"]["unscannable"] == 3
    assert len(payload["verdicts"]) == 23


def test_scan_report_to_stdout(tmp_path, capsys):
    files, _ = synth.build_app_files("nondl", 15, random.Random(2))
    tree = tmp_path / "plain"
    synth.write_tree(files, tree)
    code, out, _ = run(["scan", str(tree), "--report", "-"], capsys)
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["verdicts"][0]["is_dl"] is False


# ---------------------------------------------------------------------------
# locate


def test_locate_tree(tmp_path, capsys):
    files, truth = synth.build_app_files("s3", 4, random.Random(3))
    tree = tmp_path / truth.name
    synth.write_tree(files, tree)
    code, out, _ = run(["locate", str(tree)], capsys)
    assert code == 0
    assert "1 anchors, 1 matches" in out
    assert "S3_media_image" in out
    assert "createScaledBitmap" in out


def test_locate_apk(tmp_path, capsys):
    files, _ = synth.build_app_files("s1", 0, random.Random(4))
    apk = tmp_path / "packed.apk"
    apk.write_bytes(synth.zip_app(files))
    code, out, _ = run(["locate", str(apk)], capsys)
    assert code == 0
    assert "S1_buffer" in out


def test_locate_missing_path(tmp_path, capsys):
    code, _, err = run(["locate", str(tmp_path / "gone")], capsys)
    assert code == cli.EXIT_USAGE
    assert "does not exist" in err


def test_locate_apk_writes_nothing(tmp_path, capsys, monkeypatch):
    files, _ = synth.build_app_files("s1", 0, random.Random(4))
    apk = tmp_path / "x.apk"
    apk.write_bytes(synth.zip_app(files))
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    code, out, _ = run(["locate", str(apk)], capsys)
    assert code == 0 and "S1_buffer" in out
    assert list(temp.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["temp", "x.apk"]


def test_locate_refuses_unreadable_archives(tmp_path, capsys):
    broken = tmp_path / "broken.apk"
    broken.write_bytes(synth.corrupt_apk_bytes(random.Random(4)))
    code, _, err = run(["locate", str(broken)], capsys)
    assert code == cli.EXIT_USAGE and "cannot read" in err

    files, _ = synth.build_app_files("s1", 0, random.Random(4))
    evil = tmp_path / "evil.apk"
    evil.write_bytes(synth.zip_app({**files, "../escape.txt": "x"}))
    code, _, err = run(["locate", str(evil)], capsys)
    assert code == cli.EXIT_USAGE and "unsafe entry" in err


def test_locate_and_inject_refuse_a_tree_link_that_escapes(tmp_path, capsys):
    files, _ = synth.build_app_files("s2", 2, random.Random(4))
    tree = tmp_path / "app"
    synth.write_tree(files, tree)
    (tmp_path / "Outside.smali").write_text(".class LOutside;\n")
    (tree / "smali" / "Outside.smali").symlink_to(tmp_path / "Outside.smali")
    before = {p: p.read_bytes() for p in tree.rglob("*") if p.is_file()}
    for args in (["locate"], ["inject", "--rotation-delta", "90"]):
        code, _, err = run([*args[:1], str(tree), *args[1:]], capsys)
        assert code == cli.EXIT_USAGE
        assert "unsafe entry 'smali/Outside.smali'" in err
    assert {p: p.read_bytes() for p in tree.rglob("*") if p.is_file()} == before


def test_locate_and_inject_skip_a_directory_named_like_smali(tree, capsys):
    (tree / "smali" / "odd.smali").mkdir()
    code, out, _ = run(["locate", str(tree)], capsys)
    assert code == 0 and "1 matches" in out
    code, out, _ = run(["inject", str(tree), "--rotation-delta", "90",
                        "--dry-run"], capsys)
    assert code == 0 and "+    const/16 p2, 0x10e" in out


# ---------------------------------------------------------------------------
# inject


@pytest.fixture
def tree(tmp_path):
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    tree = tmp_path / truth.name
    synth.write_tree(files, tree)
    return tree


def test_inject_dry_run_then_apply(tree, capsys):
    code, out, _ = run(["inject", str(tree), "--rotation-delta", "90",
                        "--dry-run"], capsys)
    assert code == 0
    assert "+    const/16 p2, 0x10e" in out
    assert not any("injecting" in p.name for p in tree.parent.iterdir())

    code, out, _ = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == 0
    assert "applied 1 patches" in out

    code, _, err = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == cli.EXIT_BLOCKED
    assert "marker" in err


def test_inject_dry_run_on_archive_writes_nothing(corpus, tmp_path, capsys,
                                                  monkeypatch):
    apk = corpus[0] / "app02_s2.apk"
    tree = tmp_path / "app02_s2"
    with zipfile.ZipFile(apk) as zf:
        zf.extractall(tree)
    flags = ["--rotation-delta", "90", "--width", "320", "--dry-run"]
    code, want, _ = run(["inject", str(tree), *flags,
                         "--report", str(tmp_path / "want.json")], capsys)
    assert code == 0 and "+    const/16 p2, 0x10e" in want

    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    code, got, _ = run(["inject", str(apk), *flags,
                        "--report", str(tmp_path / "got.json")], capsys)
    assert code == 0 and got == want
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert list(temp.iterdir()) == []


def test_inject_archive_reads_once_and_parses_only_the_wrapper(
        corpus, tmp_path, capsys, monkeypatch):
    apk = corpus[0] / "app02_s2.apk"
    loads, parses = [], []
    real_load, real_parse = scan.load_app, smali.parse_unit

    def counting_load(path):
        loads.append(path)
        return real_load(path)

    def counting_parse(text):
        parses.append(text)
        return real_parse(text)

    monkeypatch.setattr(scan, "load_app", counting_load)
    monkeypatch.setattr(smali, "parse_unit", counting_parse)
    workdir = tmp_path / "w"
    code, out, _ = run(["inject", str(apk), "--rotation-delta", "90",
                        "--workdir", str(workdir)], capsys)
    assert code == 0 and "applied 1 patches to 1 files" in out
    assert loads == [apk]
    # Planning parses only the classes that could match, each once: here
    # the wrapper alone, of the archive's 11 smali files.
    with zipfile.ZipFile(apk) as zf:
        wrapper = next(n for n in zf.namelist() if n.endswith("ImageHolder.smali"))
        assert parses == [zf.read(wrapper).decode()]
    assert [p.name for p in workdir.iterdir()] == ["app02_s2"]


def _marked_archive(source, target):
    """A copy of the archive ``source`` whose wrapper class carries the marker."""
    with zipfile.ZipFile(source) as zf:
        files = {name: zf.read(name) for name in zf.namelist()}
    rel = next(name for name in files if "ImageHolder" in name)
    files[rel] += (inject.MARKER_FIELD + "\n").encode()
    target.write_bytes(synth.zip_app(files))
    return target


@pytest.mark.parametrize("app, code, message", [
    ("app12_negative", cli.EXIT_NO_TARGETS, "nothing to patch"),
    ("app15_nondl", cli.EXIT_NO_TARGETS, "nothing to patch"),
    ("marked", cli.EXIT_BLOCKED, "already carries"),
])
def test_inject_archive_with_nothing_to_patch_extracts_nothing(
        corpus, tmp_path, capsys, app, code, message):
    apk = corpus[0] / f"{app}.apk"
    if app == "marked":
        apk = _marked_archive(corpus[0] / "app02_s2.apk", tmp_path / "marked.apk")
    workdir = tmp_path / "w"
    workdir.mkdir()
    got, _, err = run(["inject", str(apk), "--rotation-delta", "90",
                       "--workdir", str(workdir)], capsys)
    assert got == code and message in err
    assert list(workdir.iterdir()) == []


def test_inject_parses_only_the_wrapper_once(tree, capsys, monkeypatch):
    calls = []
    real_parse = smali.parse_unit

    def counting_parse(text):
        calls.append(text)
        return real_parse(text)

    monkeypatch.setattr(smali, "parse_unit", counting_parse)
    (wrapper,) = tree.rglob("ImageHolder.smali")
    before = wrapper.read_text()
    assert len(list(tree.rglob("*.smali"))) > 1
    code, _, _ = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == 0
    assert calls == [before]


def test_inject_no_matches_exit_code(tmp_path, capsys):
    files, _ = synth.build_app_files("nondl", 16, random.Random(6))
    tree = tmp_path / "plain"
    synth.write_tree(files, tree)
    code, _, err = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == cli.EXIT_NO_TARGETS
    assert "nothing to patch" in err


def test_inject_without_perturbation_flags(tree, capsys):
    code, _, err = run(["inject", str(tree)], capsys)
    assert code == cli.EXIT_USAGE
    assert "no perturbation requested" in err


def test_inject_conflicting_rotation_flags(tree, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["inject", str(tree), "--rotation-delta", "90",
                  "--rotation-override", "45"])
    assert exc.value.code == cli.EXIT_USAGE


def test_inject_repack_failure_exit_code(tree, capsys):
    code, _, err = run(["inject", str(tree), "--rotation-delta", "90",
                        "--repack", "false"], capsys)
    assert code == cli.EXIT_REPACK
    assert "repack failed" in err


def test_inject_repack_success(tree, tmp_path, capsys):
    out_path = tmp_path / "patched.tar"
    code, out, _ = run(["inject", str(tree), "--rotation-delta", "90",
                        "--repack", "tar -cf {out} -C {in} .",
                        "--repack-out", str(out_path)], capsys)
    assert code == 0
    assert out_path.exists()
    assert "repacked to" in out


def test_inject_report_payload(tree, tmp_path, capsys):
    report = tmp_path / "plan.json"
    code, _, _ = run(["inject", str(tree), "--rotation-override", "270",
                      "--report", str(report)], capsys)
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["result"]["applied"] == 1
    assert payload["plan"]["spec"]["rotation_override"] == 270


def test_inject_stale_tree_blocked(tree, capsys, monkeypatch):
    real_plan = inject.plan_index

    def plan_then_mutate(name, spec, index, matches=None):
        plan = real_plan(name, spec, index, matches)
        target = tree / plan.patches[0].unit_path
        target.write_text(target.read_text().replace("0xb4", "0x2d"))
        return plan

    monkeypatch.setattr(inject, "plan_index", plan_then_mutate)
    code, _, err = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == cli.EXIT_BLOCKED
    assert "changed since planning" in err


def test_inject_tree_with_a_held_lock_to_recover_is_blocked(tree, capsys,
                                                            lock_holders):
    journal = tree.parent / (tree.name + inject.JOURNAL_SUFFIX)
    journal.write_text("[]\n")
    lock = tree.parent / (tree.name + inject.LOCK_SUFFIX)
    pid = lock_holders.hold(tree)
    held, before = lock.read_bytes(), _files(tree)
    code, _, err = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == cli.EXIT_BLOCKED and f"held by pid {pid} on" in err
    assert lock.read_bytes() == held and journal.exists()
    assert _files(tree) == before


_FOREIGN = {"pid": 4242, "host": "elsewhere.invalid", "time": "t0"}


@pytest.mark.parametrize("held", [
    json.dumps(_FOREIGN).encode(), b"", b"held", b"\xff\xfe",
    json.dumps({"host": os.uname().nodename}).encode(),
], ids=["foreign", "empty", "not-json", "not-utf8", "no-pid"])
def test_inject_break_lock_removes_a_foreign_or_unreadable_lock(
        tree, capsys, held):
    """A lock file that no process holds is taken over without any option,
    whatever it says, and is gone after the apply."""
    lock = tree.parent / (tree.name + inject.LOCK_SUFFIX)
    lock.write_bytes(held)
    code, out, _ = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == 0 and "applied 1 patches" in out
    assert not lock.exists()


def test_inject_break_lock_keeps_a_live_lock_of_this_host(tree, capsys,
                                                          lock_holders):
    lock = tree.parent / (tree.name + inject.LOCK_SUFFIX)
    pid = lock_holders.hold(tree)
    held, before = lock.read_bytes(), _files(tree)
    args = ["inject", str(tree), "--rotation-delta", "90"]
    code, _, err = run(args, capsys)
    assert code == cli.EXIT_BLOCKED and f"held by pid {pid} on" in err
    assert lock.read_bytes() == held and _files(tree) == before
    # Once its holder is killed, the lock file it left no longer blocks.
    lock_holders.kill(pid)
    code, out, _ = run(args, capsys)
    assert code == 0 and "applied 1 patches" in out and not lock.exists()


def test_inject_break_lock_beside_an_archive_work_tree(corpus, tmp_path, capsys,
                                                       lock_holders):
    apk = corpus[0] / "app02_s2.apk"
    workdir = tmp_path / "w"
    workdir.mkdir()
    lock = workdir / ("app02_s2" + inject.LOCK_SUFFIX)
    args = ["inject", str(apk), "--rotation-delta", "90", "--workdir", str(workdir)]
    pid = lock_holders.hold(workdir / "app02_s2")
    code, _, err = run(args, capsys)
    assert code == cli.EXIT_BLOCKED and f"held by pid {pid} on" in err
    assert [p.name for p in workdir.iterdir()] == [lock.name]
    lock_holders.kill(pid)
    code, out, _ = run(args, capsys)
    assert code == 0 and "applied 1 patches" in out and not lock.exists()


class _Killed(BaseException):
    """Stands in for the process dying inside an apply."""


def _interrupted_apply(tree, monkeypatch, step):
    """Stop a 90 degree apply to ``tree`` at its first ``os.replace``
    (``step`` "replace") or while it writes its journal ("journal")."""
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))

    def killed(*args):
        raise _Killed()
    with monkeypatch.context() as patched:
        if step == "replace":
            patched.setattr(inject.os, "replace", killed)
        else:
            patched.setattr(inject, "_write_journal", killed)
        with pytest.raises(_Killed):
            inject.apply_plan(tree, plan)


def _files(folder):
    return {p.relative_to(folder).as_posix(): p.read_bytes()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def test_inject_dry_run_with_a_pending_journal_writes_nothing(tree, capsys,
                                                              monkeypatch):
    _interrupted_apply(tree, monkeypatch, "replace")
    before = _files(tree.parent)
    assert tree.name + inject.JOURNAL_SUFFIX in before
    assert any(name.endswith(inject.TEMP_SUFFIX) for name in before)
    flags = ["--rotation-delta", "90"]
    dry = run(["inject", str(tree), *flags, "--dry-run"], capsys)
    assert _files(tree.parent) == before
    assert dry[0] == cli.EXIT_BLOCKED and "already carries" in dry[2]
    # An apply recovers the tree first and is stopped the same way.
    assert run(["inject", str(tree), *flags], capsys) == dry


def test_inject_break_lock_then_recovers_the_pending_journal(
        tree, tmp_path, capsys, monkeypatch):
    applied = tmp_path / "applied"
    shutil.copytree(tree, applied)
    inject.apply_plan(applied, inject.plan_injection(
        applied, PerturbationSpec(rotation_delta=90)))
    _interrupted_apply(tree, monkeypatch, "replace")
    lock = tree.parent / (tree.name + inject.LOCK_SUFFIX)
    lock.write_text(json.dumps(_FOREIGN))
    assert (tree.parent / (tree.name + inject.JOURNAL_SUFFIX)).exists()

    # The lock file has no holder, so the journal is rolled forward: the
    # tree is the applied one and the marker it now carries stops a second
    # patch.
    code, _, err = run(["inject", str(tree), "--rotation-delta", "90"], capsys)
    assert code == cli.EXIT_BLOCKED and "already carries" in err
    assert _files(tree) == _files(applied)
    assert sorted(p.name for p in tree.parent.iterdir()) == sorted(
        [tree.name, "applied"])


def test_inject_dry_run_over_a_torn_journal_prints_the_diff(tree, capsys,
                                                            monkeypatch):
    args = ["inject", str(tree), "--rotation-delta", "90", "--dry-run"]
    clean = run(args, capsys)
    _interrupted_apply(tree, monkeypatch, "journal")
    journal = tree.parent / (tree.name + inject.JOURNAL_SUFFIX)
    journal.write_text('["smali/', encoding="utf-8")
    before = _files(tree.parent)
    assert run(args, capsys) == clean and clean[0] == 0
    assert "+    const/16 p2, 0x10e" in clean[1]
    assert _files(tree.parent) == before


# ---------------------------------------------------------------------------
# simulate


def test_simulate_outputs_rates(capsys):
    code, out, _ = run(["simulate", "--rotation-delta", "90",
                        "--images", "20"], capsys)
    assert code == 0
    assert "baseline: rotation=0 rate=1.00" in out
    assert "perturbed: rotation=90 rate=0.00" in out
    assert "rate drop: 1.00" in out


def test_simulate_latency_profile(capsys):
    code, out, _ = run(["simulate", "--latency-profile"], capsys)
    assert code == 0
    lines = [l for l in out.split("\n") if "pixel ops" in l]
    assert len(lines) == 4
    costs = [int(l.split(":")[1].split()[0]) for l in lines]
    assert costs == sorted(costs) and len(set(costs)) == 4


def test_simulate_report(tmp_path, capsys):
    report = tmp_path / "sim.json"
    code, _, _ = run(["simulate", "--rotation-override", "180",
                      "--images", "10", "--report", str(report)], capsys)
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["baseline"]["detection_rate"] == 1.0
    assert payload["perturbed"]["rotation"] == 180


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_end_to_end(corpus, tmp_path, capsys):
    root, _ = corpus
    report = tmp_path / "pipe.json"
    code, out, _ = run(["pipeline", str(root), "--workdir", str(tmp_path / "w"),
                        "--rotation-delta", "90", "--report", str(report)],
                       capsys)
    assert code == 0
    assert "matched=12 injected=12" in out
    payload = json.loads(report.read_text())
    assert payload["injected_apps"] == 12
    assert payload["stats"]["dl"] == 15


def test_pipeline_reports_are_deterministic(corpus, tmp_path, capsys):
    root, _ = corpus
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(["pipeline", str(root),
                          "--workdir", str(tmp_path / "w"),
                          "--rotation-delta", "90",
                          "--report", str(target)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_pipeline_no_matches_exit_code(tmp_path, capsys):
    corpus_dir = tmp_path / "plainapps"
    corpus_dir.mkdir()
    for index in (15, 16):
        files, truth = synth.build_app_files("nondl", index, random.Random(7))
        (corpus_dir / f"{truth.name}.apk").write_bytes(synth.zip_app(files))
    code, out, _ = run(["pipeline", str(corpus_dir),
                        "--workdir", str(tmp_path / "w")], capsys)
    assert code == cli.EXIT_NO_TARGETS
    assert "matched=0" in out


def test_pipeline_bad_literal_fails_only_its_app(tmp_path, capsys):
    bad_class = "\n".join([
        ".class public Lcom/odd/Literal;", ".super Ljava/lang/Object;", "",
        ".method public static m()I", "    .registers 1", "    const/4 v0, 02",
        "    return v0", ".end method", ""])
    alone, both = tmp_path / "alone", tmp_path / "both"
    for corpus_dir in (alone, both):
        corpus_dir.mkdir()
        files, _ = synth.build_app_files("s2", 2, random.Random(5))
        (corpus_dir / "good.apk").write_bytes(synth.zip_app(files))
    files, _ = synth.build_app_files("s1", 0, random.Random(4))
    bad = both / "bad.apk"
    bad.write_bytes(synth.zip_app({**files, "smali/com/odd/Literal.smali": bad_class}))

    outcomes = {}
    for corpus_dir in (alone, both):
        report = tmp_path / f"{corpus_dir.name}.json"
        code, _, _ = run(["pipeline", str(corpus_dir),
                          "--workdir", str(tmp_path / f"{corpus_dir.name}.work"),
                          "--rotation-delta", "90", "--report", str(report)],
                         capsys)
        assert code == 0
        outcomes[corpus_dir.name] = {o["app"]: o for o in
                                     json.loads(report.read_text())["outcomes"]}
    assert outcomes["both"]["good"] == outcomes["alone"]["good"]
    assert outcomes["both"]["good"]["injected"]

    report = tmp_path / "locate.json"
    code, _, _ = run(["locate", str(bad), "--report", str(report)], capsys)
    assert code == 0
    issues = json.loads(report.read_text())["issues"]
    assert [i["unit"] for i in issues] == ["smali/com/odd/Literal.smali"]
    assert "bad integer literal '02'" in issues[0]["error"]


def test_pipeline_rejects_missing_corpus(tmp_path, capsys):
    code, _, err = run(["pipeline", str(tmp_path / "nope")], capsys)
    assert code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# report and config


def test_report_renders_pipeline_json(corpus, tmp_path, capsys):
    root, _ = corpus
    report = tmp_path / "pipe.json"
    run(["pipeline", str(root), "--workdir", str(tmp_path / "w"),
         "--rotation-delta", "90", "--report", str(report)], capsys)
    code, out, _ = run(["report", str(report)], capsys)
    assert code == 0
    assert "apps=23 dl=15 matched=12 injected=12" in out


def test_report_renders_experiment_json(tmp_path, capsys):
    report = tmp_path / "sim.json"
    run(["simulate", "--rotation-delta", "90", "--images", "10",
         "--report", str(report)], capsys)
    code, out, _ = run(["report", str(report)], capsys)
    assert code == 0
    assert "rate drop" in out


def test_config_file_overrides(tmp_path):
    from prepatch.config import Config
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"slice_depth": 0, "image_count": 5}))
    loaded = Config.from_file(config_path)
    assert loaded.slice_depth == 0 and loaded.image_count == 5
    merged = loaded.merged(slice_depth=2, image_count=None)
    assert merged.slice_depth == 2 and merged.image_count == loaded.image_count


@pytest.mark.parametrize("argv", [
    ["locate", "app.apk", "--workdir", "w"],
    ["inject", "tree", "--rotation-delta", "90", "--slice-depth", "2"],
    ["pipeline", "corpus", "--workers", "2"],
])
def test_removed_options_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path):
    from prepatch.config import Config
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"slice_depht": 1}))
    with pytest.raises(ValueError, match="slice_depht"):
        Config.from_file(bad)
    # "workers" was a key once; it set nothing and is now unknown too.
    bad.write_text(json.dumps({"workers": 4}))
    with pytest.raises(ValueError, match="workers"):
        Config.from_file(bad)


def test_cli_config_reaches_simulate(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"image_count": 7}))
    report = tmp_path / "out.json"
    code, _, _ = run(["simulate", "--rotation-delta", "90",
                      "--config", str(config_path),
                      "--report", str(report)], capsys)
    assert code == 0
    assert json.loads(report.read_text())["baseline"]["total"] == 7


def test_config_desired_size_picks_preview(tmp_path, capsys):
    def baseline_ops(*extra):
        report = tmp_path / "out.json"
        code, _, _ = run(["simulate", "--rotation-delta", "90", "--images", "2",
                          "--preview", "640x320", "--preview", "160x120",
                          "--report", str(report), *extra], capsys)
        assert code == 0
        return json.loads(report.read_text())["baseline"]["pixel_ops"]

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"desired_width": 200,
                                       "desired_height": 100}))
    assert baseline_ops() == 2 * (640 * 320 + 32 * 32)
    assert baseline_ops("--config", str(config_path)) == 2 * (160 * 120 + 32 * 32)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
