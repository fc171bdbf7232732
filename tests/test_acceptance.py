"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS or FAIL
line straight to the terminal (bypassing capture) so a tee'd run shows
the verdict per criterion even when pytest swallows stdout.
"""
import random
import time
import zipfile
from contextlib import contextmanager

import numpy as np
import pytest

from prepatch import inject, locate, pipeline, scan, sim, smali, synth
from prepatch.perturbation import PerturbationSpec


@contextmanager
def verdict(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL: {name}")
        raise
    with capsys.disabled():
        print(f"PASS: {name}")


# ---------------------------------------------------------------------------
# 1. full corpus: classification, matching, injection


def test_criterion_01_corpus_end_to_end(corpus, tmp_path, capsys):
    root, entries = corpus
    name = "corpus scan+match+inject, 100% precision/recall, <10s"
    with verdict(capsys, name):
        assert len(entries) == 23
        injectable = [e for e in entries if e.truth.injectable]
        assert len(injectable) == 12
        assert {s for e in injectable for s in e.truth.strategies} == {
            "S1_buffer", "S2_bitmap", "S3_media_image"}
        assert sum(1 for e in injectable if e.truth.renamed) == 6
        assert sum(1 for e in entries if e.truth.kind == "negative") == 3
        assert sum(1 for e in entries if e.truth.kind == "nondl") == 5

        started = time.perf_counter()

        # Scanner: exact agreement with ground truth on every readable app.
        tp = fp = fn = tn = 0
        for entry in entries:
            result = scan.scan_path(entry.path)
            if entry.truth.kind == "unscannable":
                assert result.error is not None
                continue
            assert result.error is None
            if result.is_dl and entry.truth.is_dl:
                tp += 1
            elif result.is_dl and not entry.truth.is_dl:
                fp += 1
            elif not result.is_dl and entry.truth.is_dl:
                fn += 1
            else:
                tn += 1
        assert tp / (tp + fp) == 1.0, f"scanner precision {tp}/{tp + fp}"
        assert tp / (tp + fn) == 1.0, f"scanner recall {tp}/{tp + fn}"
        assert (tp, tn) == (15, 5)

        # Matcher: matches exactly the injectable apps, right strategies.
        matched = []
        for entry in entries:
            if not entry.truth.is_dl:
                continue
            tree = pipeline.materialize(scan.load_app(entry.path), tmp_path / "work")
            analysis = locate.analyze_index(locate.ClassIndex.from_tree(tree), tree.name)
            got = sorted({m.strategy for m in analysis.matches})
            assert got == sorted(entry.truth.strategies), entry.truth.name
            if analysis.matches:
                matched.append((entry, tree, analysis.matches))
        assert len(matched) == 12

        # Injector: succeeds on every matched app.
        spec = PerturbationSpec(rotation_delta=90)
        injected = 0
        for entry, tree, matches in matched:
            plan = inject.plan_injection(tree, spec, matches)
            result = inject.apply_plan(tree, plan)
            assert result.applied >= 1, entry.truth.name
            injected += 1
        assert injected == 12

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. parser round-trip over the whole corpus


def test_criterion_02_round_trip_fidelity(corpus, capsys):
    root, entries = corpus
    name = "byte round-trip on >=200 corpus smali files, zero tolerance"
    with verdict(capsys, name):
        checked = 0
        for entry in entries:
            if entry.truth.kind == "unscannable":
                continue
            with zipfile.ZipFile(entry.path) as archive:
                for member in archive.namelist():
                    if not member.endswith(".smali"):
                        continue
                    text = archive.read(member).decode("utf-8")
                    assert smali.emit_unit(smali.parse_unit(text)) == text, \
                        member
                    checked += 1
        assert checked >= 200, f"only {checked} smali files in corpus"


# ---------------------------------------------------------------------------
# 3. renaming invariance


def _match_fingerprint(analysis):
    """Everything a rename must not change: strategies, constants, sites."""
    out = []
    for m in sorted(analysis.matches, key=lambda m: m.strategy):
        fmt = (m.format_site.value, m.format_site.iput_line,
               m.format_site.const_line) if m.format_site else None
        rots = tuple((r.register, r.value, r.radix, r.iput_line, r.const_line)
                     for r in m.rotation_sites)
        dims = tuple(sorted((d.role, d.kind, d.register, d.value)
                            for d in m.dimension_sites))
        out.append((m.strategy, m.matched_constants, fmt, rots, dims))
    creations = tuple(sorted(site.api.method_name
                             for s in analysis.slices
                             for site in s.creation_sites))
    return (tuple(out), len(analysis.anchors), creations)


def test_criterion_03_rename_invariance(capsys):
    name = "matcher invariant under 50 renamings per fixture, zero violations"
    with verdict(capsys, name):
        for kind, index in (("s1", 0), ("s2", 2), ("s3", 4)):
            files, _ = synth.build_app_files(kind, index, random.Random(11))
            baseline = _match_fingerprint(locate.analyze_files(files))
            assert baseline[0], f"{kind} fixture produced no match"
            for seed in range(50):
                renamed, _ = synth.alpha_rename(files, random.Random(seed))
                got = _match_fingerprint(locate.analyze_files(renamed))
                assert got == baseline, f"{kind} seed {seed}"


# ---------------------------------------------------------------------------
# 4. minimal diff


def test_criterion_04_minimal_diff(tmp_path, capsys):
    name = "applied diff == planned lines + one marker, zero tolerance"
    with verdict(capsys, name):
        files, truth = synth.build_app_files("s2", 2, random.Random(5))
        tree = tmp_path / truth.name
        synth.write_tree(files, tree)
        before = {p.relative_to(tree).as_posix(): p.read_bytes()
                  for p in sorted(tree.rglob("*")) if p.is_file()}

        spec = PerturbationSpec(rotation_delta=90)
        plan = inject.plan_injection(tree, spec)
        inject.apply_plan(tree, plan)
        after = {p.relative_to(tree).as_posix(): p.read_bytes()
                 for p in sorted(tree.rglob("*")) if p.is_file()}

        assert set(before) == set(after)
        touched = set(plan.touched_files)
        assert touched

        for rel, old_bytes in before.items():
            if rel not in touched:
                assert after[rel] == old_bytes, f"{rel} changed but unplanned"
                continue
            # Rebuild the expected file from the plan alone: splice every
            # planned span bottom-up, then insert the marker pair after the
            # last header directive.
            lines = old_bytes.decode("utf-8").split("\n")
            for patch in sorted((p for p in plan.patches
                                 if p.unit_path == rel),
                                key=lambda p: -p.line_index):
                start = patch.line_index
                end = start + len(patch.original_lines)
                assert tuple(lines[start:end]) == patch.original_lines
                lines[start:end] = list(patch.replacement_lines)
            anchor = max(i for i, line in enumerate(lines)
                         if line.startswith((".super", ".source")))
            lines[anchor + 1:anchor + 1] = ["", inject.MARKER_FIELD]
            patched = after[rel].decode("utf-8")
            assert patched == "\n".join(lines), rel
            assert patched.count(inject.MARKER_FIELD) == 1


# ---------------------------------------------------------------------------
# 5. idempotency


def test_criterion_05_idempotency(tmp_path, capsys):
    name = "second apply errors and leaves the tree byte-identical"
    with verdict(capsys, name):
        files, truth = synth.build_app_files("s1", 0, random.Random(6))
        tree = tmp_path / truth.name
        synth.write_tree(files, tree)
        spec = PerturbationSpec(rotation_delta=90)
        plan = inject.plan_injection(tree, spec)
        inject.apply_plan(tree, plan)

        snapshot = {p: p.read_bytes() for p in sorted(tree.rglob("*"))
                    if p.is_file()}
        with pytest.raises(inject.AlreadyInjectedError):
            inject.plan_injection(tree, spec)
        with pytest.raises(inject.AlreadyInjectedError):
            inject.apply_plan(tree, plan)
        assert {p: p.read_bytes() for p in sorted(tree.rglob("*"))
                if p.is_file()} == snapshot
        assert not (tree.parent / (tree.name + ".lock")).exists()
        assert not (tree.parent / (tree.name + ".injecting")).exists()


# ---------------------------------------------------------------------------
# 6. resize selection vs brute force


def test_criterion_06_select_size_oracle(capsys):
    name = "select_size matches brute-force argmin on 1000 lists"
    with verdict(capsys, name):
        rng = random.Random(20240823)
        for _ in range(1000):
            sizes = [(rng.randint(1, 4096), rng.randint(1, 4096))
                     for _ in range(rng.randint(1, 12))]
            dw = rng.randint(1, 4096)
            dh = rng.randint(1, 4096)
            best = None
            best_diff = None
            for w, h in sizes:  # first wins: strictly-smaller updates only
                diff = abs(w * h - dw * dh)
                if best_diff is None or diff < best_diff:
                    best, best_diff = (w, h), diff
            got = sim.select_size(sizes, dw, dh)
            assert (got.width, got.height) == best, (sizes, dw, dh)


# ---------------------------------------------------------------------------
# 7. rotation formula


def test_criterion_07_rotation_formula(capsys):
    name = "camera_rotation agrees with switch+mod on all 4x4 inputs"
    with verdict(capsys, name):
        switch = {0: 0, 1: 90, 2: 180, 3: 270}
        for display in range(4):
            for sensor in (0, 90, 180, 270):
                expect_rot = (sensor + switch[display]) % 360
                expect_disp = (360 - expect_rot) % 360
                got = sim.camera_rotation(display, sensor)
                assert got.degrees == switch[display]
                assert got.rotation_degrees == expect_rot
                assert got.display_angle == expect_disp


# ---------------------------------------------------------------------------
# 8. rotation attack on the synthetic dataset


def test_criterion_08_rotation_drops_detection(capsys):
    name = "delta 90 drops rate from >=0.95 to <=0.10 on 200 images, <5s"
    with verdict(capsys, name):
        started = time.perf_counter()
        result = sim.run_experiment(PerturbationSpec(rotation_delta=90),
                                    image_count=200)
        elapsed = time.perf_counter() - started
        assert result.baseline.total == 200
        assert result.baseline.detection_rate >= 0.95, \
            f"baseline {result.baseline.detection_rate:.3f}"
        assert result.perturbed.detection_rate <= 0.10, \
            f"perturbed {result.perturbed.detection_rate:.3f}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 9. latency grows with preview size


def test_criterion_09_latency_monotone(capsys):
    name = "latency proxy strictly increasing over the four target sizes"
    with verdict(capsys, name):
        profile = sim.latency_profile(sim.LATENCY_SIZES)
        assert [(p.width, p.height) for p, _ in profile] == \
            list(sim.LATENCY_SIZES)
        costs = [cost for _, cost in profile]
        assert len(costs) == 4
        assert all(a < b for a, b in zip(costs, costs[1:])), costs


# ---------------------------------------------------------------------------
# 10. normalization is exact


def test_criterion_10_normalization_exact(capsys):
    name = "preprocess at identity geometry equals input/255 exactly"
    with verdict(capsys, name):
        rng = np.random.default_rng(99)
        image = rng.integers(0, 256, size=(48, 48)).astype(np.float64)
        out = sim.preprocess(image, sim.SizePair(48, 48),
                             model_input=(48, 48), rotation=0,
                             do_normalize=True)
        assert np.max(np.abs(out - image / 255.0)) == 0.0
