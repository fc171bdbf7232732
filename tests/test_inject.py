import builtins
import io
import os
import pathlib
import random
import shutil

import pytest

from prepatch import inject, locate, smali, synth
from prepatch.perturbation import PerturbationSpec


def snapshot(tree):
    return {p.relative_to(tree).as_posix(): p.read_bytes()
            for p in sorted(tree.rglob("*")) if p.is_file()}


def wrapper_rel(files):
    return next(p for p in files if "ImageHolder" in p)


# ---------------------------------------------------------------------------
# planning


def test_plan_rotation_delta_replaces_const_line(app_tree):
    tree, _, files = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    (patch,) = plan.patches
    assert patch.unit_path == wrapper_rel(files)
    assert patch.original_lines == ("    const/16 p2, 0xb4",)
    assert patch.replacement_lines == ("    const/16 p2, 0x10e",)


def test_plan_preserves_decimal_radix(app_tree):
    tree, _, _ = app_tree("s1", 1)    # rotation spelled "180"
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    (patch,) = plan.patches
    assert patch.original_lines == ("    const/16 p4, 180",)
    assert patch.replacement_lines == ("    const/16 p4, 270",)


def test_plan_rotation_wraps_mod_360(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=270))
    (patch,) = plan.patches
    # 180 + 270 = 450 -> 90
    assert patch.replacement_lines == ("    const/16 p2, 0x5a",)


def test_plan_rotation_override_ignores_current(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_override=90))
    (patch,) = plan.patches
    assert patch.replacement_lines == ("    const/16 p2, 0x5a",)


def test_plan_width_replaces_getter_span(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(width_override=128))
    (patch,) = plan.patches
    assert patch.original_lines == (
        "    invoke-virtual {p1}, Landroid/graphics/Bitmap;->getWidth()I",
        "",
        "    move-result v0",
    )
    assert patch.replacement_lines == ("    const/16 v0, 0x80",)
    assert "width" in patch.description


def test_plan_height_only_touches_height(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(height_override=64))
    (patch,) = plan.patches
    assert "getHeight" in patch.original_lines[0]


def test_plan_format_override(app_tree):
    tree, _, _ = app_tree("s3", 4)
    plan = inject.plan_injection(tree, PerturbationSpec(format_override=17))
    (patch,) = plan.patches
    assert patch.original_lines == ("    const/16 v1, 0x23",)
    assert patch.replacement_lines == ("    const/16 v1, 0x11",)


def test_plan_large_value_widens_opcode(app_tree):
    tree, _, _ = app_tree("s3", 4)
    plan = inject.plan_injection(
        tree, PerturbationSpec(format_override=842094169))
    (patch,) = plan.patches
    assert patch.replacement_lines == ("    const v1, 0x32315659",)


def test_plan_noop_spec_rejected(app_tree):
    tree, _, _ = app_tree("s2", 2)
    with pytest.raises(ValueError, match="no-op"):
        inject.plan_injection(tree, PerturbationSpec())


def test_plan_empty_for_unmatched_tree(app_tree):
    tree, _, _ = app_tree("nondl", 15)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    assert plan.patches == []


def test_plan_delta_warns_on_parameter_fed_site(tmp_path):
    from test_locate import _TWO_CTOR_CLASS
    tree = tmp_path / "two"
    (tree / "smali/com/demo").mkdir(parents=True)
    (tree / "smali/com/demo/TwoCtors.smali").write_text(_TWO_CTOR_CLASS)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    assert len(plan.patches) == 1      # only the const-fed site changes
    assert any("delta skipped" in w for w in plan.warnings)


def test_plan_override_pins_parameter_fed_site(tmp_path):
    from test_locate import _TWO_CTOR_CLASS
    tree = tmp_path / "two"
    (tree / "smali/com/demo").mkdir(parents=True)
    (tree / "smali/com/demo/TwoCtors.smali").write_text(_TWO_CTOR_CLASS)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_override=270))
    assert len(plan.patches) == 2
    insertion = next(p for p in plan.patches if len(p.replacement_lines) == 3)
    assert insertion.replacement_lines[0] == "    const/16 p2, 0x10e"
    assert insertion.replacement_lines[1] == ""
    assert insertion.replacement_lines[2] == insertion.original_lines[0]


def test_plan_warns_on_non_right_angle(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=45))
    assert any("not a right angle" in w for w in plan.warnings)


# ---------------------------------------------------------------------------
# applying


def test_apply_minimal_change(app_tree):
    tree, _, files = app_tree("s2", 2)
    before = snapshot(tree)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    result = inject.apply_plan(tree, plan)
    after = snapshot(tree)
    target = wrapper_rel(files)
    assert result.applied == 1
    assert result.files_changed == [target]
    for rel in before:
        if rel != target:
            assert before[rel] == after[rel], f"{rel} must stay untouched"
    old = before[target].decode().split("\n")
    new = after[target].decode().split("\n")
    assert len(new) == len(old) + 2    # marker insertion: blank + field
    changed = set(old) - set(new)
    assert changed == {"    const/16 p2, 0xb4"}


def test_apply_adds_marker_after_preamble(app_tree):
    tree, _, files = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    inject.apply_plan(tree, plan)
    lines = (tree / wrapper_rel(files)).read_text().split("\n")
    source_index = next(i for i, l in enumerate(lines) if l.startswith(".source"))
    assert lines[source_index + 1] == ""
    assert lines[source_index + 2] == inject.MARKER_FIELD


def test_patched_file_still_parses(app_tree):
    tree, _, files = app_tree("s2", 2)
    plan = inject.plan_injection(
        tree, PerturbationSpec(rotation_override=90, width_override=100,
                               height_override=50, format_override=17))
    inject.apply_plan(tree, plan)
    text = (tree / wrapper_rel(files)).read_text()
    unit = smali.parse_unit(text)
    assert smali.emit_unit(unit) == text


def test_second_injection_blocked(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    inject.apply_plan(tree, plan)
    with pytest.raises(inject.AlreadyInjectedError):
        inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    with pytest.raises(inject.AlreadyInjectedError):
        inject.apply_plan(tree, plan)


def test_stale_plan_leaves_tree_untouched(app_tree):
    tree, _, files = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    target = tree / wrapper_rel(files)
    target.write_text(target.read_text().replace("0xb4", "0x5a"))
    before = snapshot(tree)
    with pytest.raises(inject.StalePlanError):
        inject.apply_plan(tree, plan)
    assert snapshot(tree) == before
    assert not (tree.parent / (tree.name + ".lock")).exists()
    assert not (tree.parent / (tree.name + ".injecting")).exists()


def test_lock_file_blocks_concurrent_apply(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    lock = tree.parent / (tree.name + ".lock")
    lock.write_text("held")
    with pytest.raises(inject.LockHeldError):
        inject.apply_plan(tree, plan)
    lock.unlink()
    inject.apply_plan(tree, plan)
    assert not lock.exists()


def test_render_diff_is_read_only(app_tree):
    tree, _, _ = app_tree("s2", 2)
    before = snapshot(tree)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    diff = inject.render_diff(tree, plan)
    assert snapshot(tree) == before
    assert "-    const/16 p2, 0xb4" in diff
    assert "+    const/16 p2, 0x10e" in diff
    assert f"+{inject.MARKER_FIELD}" in diff


def test_diff_line_budget_is_minimal(app_tree):
    tree, _, _ = app_tree("s2", 2)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    diff = inject.render_diff(tree, plan)
    removed = [l for l in diff.split("\n")
               if l.startswith("-") and not l.startswith("---")]
    added = [l for l in diff.split("\n")
             if l.startswith("+") and not l.startswith("+++")]
    assert removed == ["-    const/16 p2, 0xb4"]
    assert sorted(added) == sorted(["+    const/16 p2, 0x10e", "+",
                                    "+" + inject.MARKER_FIELD])


def test_apply_empty_plan_is_noop(app_tree):
    tree, _, _ = app_tree("nondl", 15)
    before = snapshot(tree)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    result = inject.apply_plan(tree, plan)
    assert result.applied == 0
    assert snapshot(tree) == before


def test_injected_rotation_value_visible_to_reparse(app_tree):
    tree, _, files = app_tree("s1", 0)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_override=90))
    inject.apply_plan(tree, plan)
    unit = smali.parse_unit((tree / wrapper_rel(files)).read_text())
    ctor = next(m for m in unit.methods if m.is_constructor)
    consts = [i.literal.value for i in ctor.instructions
              if i.kind is smali.OpKind.CONST_INT]
    assert 90 in consts and 180 not in consts


# ---------------------------------------------------------------------------
# repack hook


def test_repack_hook_success(app_tree, tmp_path):
    tree, _, _ = app_tree("s2", 2)
    out = tmp_path / "bundle.tar"
    produced = inject.repack(tree, "tar -cf {out} -C {in} .", out)
    assert produced == out and out.exists() and out.stat().st_size > 0


def test_repack_hook_failure(app_tree):
    tree, _, _ = app_tree("s2", 2)
    with pytest.raises(inject.RepackError, match="status"):
        inject.repack(tree, "false")


def test_repack_default_output_path(app_tree):
    tree, _, _ = app_tree("s2", 2)
    produced = inject.repack(tree, "tar -cf {out} -C {in} .")
    assert produced.name == tree.name + ".repacked.apk"
    assert produced.exists()


# ---------------------------------------------------------------------------
# spec sanity


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(rotation_override=90, rotation_delta=90)
    with pytest.raises(ValueError):
        PerturbationSpec(width_override=0)
    spec = PerturbationSpec(rotation_delta=90)
    assert spec.effective_rotation(180) == 270
    assert spec.effective_rotation(270) == 0
    assert spec.effective_rotation(None) is None
    raw = PerturbationSpec(rotation_delta=90, normalize_rotation=False)
    assert raw.effective_rotation(270) == 360
    override = PerturbationSpec(rotation_override=450)
    assert override.effective_rotation(0) == 90


def test_renamed_tree_injects_identically(tmp_path):
    files, truth = synth.build_app_files("s2", 2, random.Random(9))
    renamed, _ = synth.alpha_rename(files, random.Random(1))
    plain_tree = tmp_path / "plain"
    renamed_tree = tmp_path / "renamed"
    synth.write_tree(files, plain_tree)
    synth.write_tree(renamed, renamed_tree)
    spec = PerturbationSpec(rotation_delta=90)
    plain_plan = inject.plan_injection(plain_tree, spec)
    renamed_plan = inject.plan_injection(renamed_tree, spec)
    strip = lambda lines: tuple(l.split(",")[-1] for l in lines)
    assert [strip(p.original_lines) for p in plain_plan.patches] == \
        [strip(p.original_lines) for p in renamed_plan.patches]
    inject.apply_plan(renamed_tree, renamed_plan)
    # Rotation-only patches keep the signature intact; the marker guards.
    with pytest.raises(inject.AlreadyInjectedError):
        inject.plan_injection(renamed_tree, spec)


# ---------------------------------------------------------------------------
# planning from the index, touched-files-only apply, recovery


def _three_wrapper_tree(tmp_path):
    """One tree holding an S1, an S2 and an S3 wrapper: three touched files."""
    files = {}
    for kind, index in (("s1", 1), ("s2", 2), ("s3", 4)):
        app, _ = synth.build_app_files(kind, index, random.Random(5))
        files.update(app)
    tree = tmp_path / "three"
    synth.write_tree(files, tree)
    return tree


def test_plan_from_index_reads_nothing(app_tree, monkeypatch):
    tree, _, _ = app_tree("s2", 2)
    spec = PerturbationSpec(rotation_delta=90, format_override=17)
    index = locate.ClassIndex.from_tree(tree)
    matches = locate.analyze_index(index, tree.name).matches
    from_disk = inject.plan_injection(tree, spec, matches)

    def refuse(*args, **kwargs):
        raise AssertionError("planning read a file")
    monkeypatch.setattr(pathlib.Path, "read_text", refuse)
    monkeypatch.setattr(pathlib.Path, "read_bytes", refuse)
    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)
    from_index = inject.plan_injection(tree, spec, matches, index=index)
    assert from_index.to_dict() == from_disk.to_dict()


def test_marker_in_unparsable_file_blocks_plan(app_tree):
    tree, _, _ = app_tree("s2", 2)
    (tree / "smali" / "Broken.smali").write_text(
        inject.MARKER_FIELD + "\n.method oops\n")
    index = locate.ClassIndex.from_tree(tree)
    assert "smali/Broken.smali" in index.unparsed
    with pytest.raises(inject.AlreadyInjectedError, match="Broken.smali"):
        inject.plan_injection(tree, PerturbationSpec(rotation_delta=90),
                              index=index)


def test_apply_leaves_untouched_inodes(tmp_path):
    tree = _three_wrapper_tree(tmp_path)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    before = {p: (p.stat().st_ino, p.stat().st_mtime_ns)
              for p in tree.rglob("*") if p.is_file()}
    result = inject.apply_plan(tree, plan)
    assert len(result.files_changed) == 3
    for path, stamp in before.items():
        rel = path.relative_to(tree).as_posix()
        now = (path.stat().st_ino, path.stat().st_mtime_ns)
        if rel in result.files_changed:
            assert now[0] != stamp[0], rel
        else:
            assert now == stamp, rel
    assert set(snapshot(tree)) == {p.relative_to(tree).as_posix() for p in before}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["three"]


class Killed(BaseException):
    """Stands in for the process dying: no except-Exception handler runs."""


def _kill_at(monkeypatch, k):
    real = os.replace
    calls = []

    def replace(src, dst):
        calls.append(src)
        if len(calls) == k:
            raise Killed()
        return real(src, dst)
    monkeypatch.setattr(inject.os, "replace", replace)


def _kill_journal(monkeypatch):
    def write_journal(root, staged):
        raise Killed()
    monkeypatch.setattr(inject, "_write_journal", write_journal)


@pytest.mark.parametrize("step", ["journal", 1, 2, 3])
def test_killed_apply_recovers_to_before_or_after(tmp_path, monkeypatch, step):
    tree = _three_wrapper_tree(tmp_path)
    spec = PerturbationSpec(rotation_delta=90)
    plan = inject.plan_injection(tree, spec)
    assert len(plan.touched_files) == 3
    before = snapshot(tree)
    inject.apply_plan(tree, plan)
    after = snapshot(tree)
    shutil.rmtree(tree)
    tree = _three_wrapper_tree(tmp_path)

    with monkeypatch.context() as patched:
        if step == "journal":
            _kill_journal(patched)
        else:
            _kill_at(patched, step)
        with pytest.raises(Killed):
            inject.apply_plan(tree, plan)
    leftovers = [p for p in tree.rglob("*") if p.name.endswith(inject.TEMP_SUFFIX)]
    assert leftovers, "a kill after staging leaves temp files"
    journal = tmp_path / ("three" + inject.JOURNAL_SUFFIX)
    assert journal.exists() == (step != "journal")

    inject.recover(tree)
    state = snapshot(tree)
    assert state == (before if step == "journal" else after)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["three"]
    if state == before:
        inject.apply_plan(tree, plan)
        assert snapshot(tree) == after
    else:
        with pytest.raises(inject.AlreadyInjectedError):
            inject.apply_plan(tree, plan)


def test_next_plan_rolls_a_killed_apply_forward(tmp_path, monkeypatch):
    tree = _three_wrapper_tree(tmp_path)
    spec = PerturbationSpec(rotation_delta=90)
    plan = inject.plan_injection(tree, spec)
    with monkeypatch.context() as patched:
        _kill_at(patched, 2)
        with pytest.raises(Killed):
            inject.apply_plan(tree, plan)
    with pytest.raises(inject.AlreadyInjectedError):
        inject.plan_injection(tree, spec)
    assert not any(p.name.endswith(inject.TEMP_SUFFIX) for p in tree.rglob("*"))
    assert all(inject.MARKER_FIELD in (tree / rel).read_text()
               for rel in plan.touched_files)


def test_failed_staging_cleans_up(tmp_path, monkeypatch):
    tree = _three_wrapper_tree(tmp_path)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    before = snapshot(tree)

    def write_journal(root, staged):
        raise OSError("disk full")
    monkeypatch.setattr(inject, "_write_journal", write_journal)
    with pytest.raises(OSError, match="disk full"):
        inject.apply_plan(tree, plan)
    assert snapshot(tree) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["three"]


def test_crlf_wrapper_plans_and_patches_like_lf(tmp_path):
    files, _ = synth.build_app_files("s2", 2, random.Random(5))
    rel = wrapper_rel(files)
    lf_tree, crlf_tree = tmp_path / "lf", tmp_path / "crlf"
    synth.write_tree(files, lf_tree)
    synth.write_tree(files, crlf_tree)
    (crlf_tree / rel).write_bytes(files[rel].replace("\n", "\r\n").encode())
    spec = PerturbationSpec(rotation_delta=90, width_override=64)

    lf_plan = inject.plan_injection(lf_tree, spec)
    crlf_plan = inject.plan_injection(crlf_tree, spec)
    memory = locate.ClassIndex.from_files(
        {rel: (crlf_tree / rel).read_bytes()})
    memory_plan = inject.plan_injection(crlf_tree, spec, index=memory)
    assert len(lf_plan.patches) == 2
    assert crlf_plan.patches == lf_plan.patches == memory_plan.patches

    inject.apply_plan(lf_tree, lf_plan)
    inject.apply_plan(crlf_tree, crlf_plan)
    assert (crlf_tree / rel).read_text() == (lf_tree / rel).read_text()


def test_torn_journal_rolls_back(tmp_path, monkeypatch):
    tree = _three_wrapper_tree(tmp_path)
    plan = inject.plan_injection(tree, PerturbationSpec(rotation_delta=90))
    before = snapshot(tree)
    with monkeypatch.context() as patched:
        _kill_journal(patched)
        with pytest.raises(Killed):
            inject.apply_plan(tree, plan)
    journal = tmp_path / ("three" + inject.JOURNAL_SUFFIX)
    journal.write_text('["smali/com/demoapp01/vision/ImageHolder.smali", "sma')
    inject.recover(tree)
    assert snapshot(tree) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["three"]
