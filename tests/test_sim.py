import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepatch import sim
from prepatch.perturbation import PerturbationSpec


def brute_force_select(sizes, desired=(640, 320)):
    target = desired[0] * desired[1]
    best = None
    for pair in sizes:
        if best is None or abs(pair[0] * pair[1] - target) < abs(
                best[0] * best[1] - target):
            best = pair
    return best


# ---------------------------------------------------------------------------
# preview-size selection


def test_select_size_picks_closest_area():
    sizes = [(1280, 720), (640, 480), (640, 320), (320, 240)]
    assert sim.select_size(sizes) == sim.SizePair(640, 320)


def test_select_size_first_wins_on_tie():
    # Same area both ways round; the strict < keeps the first.
    assert sim.select_size([(320, 640), (640, 320)]) == sim.SizePair(320, 640)
    assert sim.select_size([(640, 320), (320, 640)]) == sim.SizePair(640, 320)


def test_select_size_empty():
    assert sim.select_size([]) is None


def test_select_size_random_lists_match_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        sizes = [(rng.randrange(1, 4000), rng.randrange(1, 4000))
                 for _ in range(rng.randrange(1, 20))]
        got = sim.select_size(sizes)
        assert (got.width, got.height) == brute_force_select(sizes)


@given(st.lists(st.tuples(st.integers(1, 5000), st.integers(1, 5000)),
                min_size=1, max_size=30))
def test_select_size_property(sizes):
    got = sim.select_size(sizes)
    assert (got.width, got.height) in sizes
    assert (got.width, got.height) == brute_force_select(sizes)


# ---------------------------------------------------------------------------
# camera rotation

# display constant x sensor orientation -> (rotation_degrees, display_angle)
ROTATION_TABLE = {
    (0, 0): (0, 0), (0, 90): (90, 270), (0, 180): (180, 180), (0, 270): (270, 90),
    (1, 0): (90, 270), (1, 90): (180, 180), (1, 180): (270, 90), (1, 270): (0, 0),
    (2, 0): (180, 180), (2, 90): (270, 90), (2, 180): (0, 0), (2, 270): (90, 270),
    (3, 0): (270, 90), (3, 90): (0, 0), (3, 180): (90, 270), (3, 270): (180, 180),
}


def test_camera_rotation_table():
    for (display, sensor), expected in ROTATION_TABLE.items():
        got = sim.camera_rotation(display, sensor)
        assert (got.rotation_degrees, got.display_angle) == expected
        assert got.degrees == display * 90


def test_camera_rotation_angles_sum_to_zero_mod_360():
    for display in range(4):
        for sensor in (0, 90, 180, 270):
            got = sim.camera_rotation(display, sensor)
            assert (got.rotation_degrees + got.display_angle) % 360 == 0


# ---------------------------------------------------------------------------
# resize and rotate


def test_nn_resize_floor_mapping():
    img = np.arange(16, dtype=float).reshape(4, 4)
    out = sim.nn_resize(img, 2, 2)
    # src = floor(dst * 4 / 2) = dst * 2
    assert np.array_equal(out, img[::2, ::2])


def test_nn_resize_identity():
    img = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(sim.nn_resize(img, 3, 4), img)


def test_nn_resize_upscale_matches_pixel_doubling():
    template = sim.make_template()
    assert np.array_equal(sim.nn_resize(template, 64, 64),
                          sim.upscale2x(template))


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
       st.integers(1, 40))
def test_nn_resize_shape_and_value_domain(h, w, oh, ow):
    img = np.arange(h * w, dtype=float).reshape(h, w)
    out = sim.nn_resize(img, oh, ow)
    assert out.shape == (oh, ow)
    assert set(np.unique(out)) <= set(np.unique(img))


def test_nn_rotate_right_angles_match_grid_turns():
    img = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(sim.nn_rotate(img, 0), img)
    assert np.array_equal(sim.nn_rotate(img, 90), np.rot90(img, -1))
    assert np.array_equal(sim.nn_rotate(img, 180), np.rot90(img, 2))
    assert np.array_equal(sim.nn_rotate(img, 270), np.rot90(img, 1))
    assert np.array_equal(sim.nn_rotate(img, 360), img)


def test_nn_rotate_composition():
    img = np.arange(64, dtype=float).reshape(8, 8)
    twice = sim.nn_rotate(sim.nn_rotate(img, 90), 90)
    assert np.array_equal(twice, sim.nn_rotate(img, 180))


def test_nn_rotate_arbitrary_angle_preserves_shape():
    img = np.ones((10, 10))
    out = sim.nn_rotate(img, 45)
    assert out.shape == img.shape
    assert out.max() <= 1.0 and out.min() >= 0.0


# ---------------------------------------------------------------------------
# normalization


def test_normalize_exact_values():
    img = np.array([[0.0, 127.5], [255.0, 51.0]])
    out = sim.normalize(img)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 0.5
    assert out[1, 0] == 1.0
    assert out[1, 1] == 0.2


def test_normalize_is_division_by_255():
    # Exact equality, not approx: division by a float is deterministic.
    img = np.arange(256, dtype=np.float64).reshape(16, 16)
    assert np.array_equal(sim.normalize(img), img / 255.0)
    assert sim.normalize(np.array([[10.0]]), scale=5.0)[0, 0] == 2.0


# ---------------------------------------------------------------------------
# detector


def test_template_self_correlation():
    template = sim.make_template()
    assert sim.ncc(template, template) == pytest.approx(1.0)


def test_template_rotations_fall_below_threshold():
    template = sim.make_template()
    for k in (1, 2, 3):
        score = sim.ncc(template, np.rot90(template, k))
        assert score < sim.DETECTION_THRESHOLD - 0.2


def test_ncc_intensity_invariance():
    template = sim.make_template()
    assert sim.ncc(template, template + 40.0) == pytest.approx(1.0)
    assert sim.ncc(template, template * 3.0) == pytest.approx(1.0)
    assert sim.ncc(template, -template) == pytest.approx(-1.0)


def test_ncc_degenerate_input():
    flat = np.zeros((8, 8))
    assert sim.ncc(flat, np.ones((8, 8))) == 0.0


def test_pipeline_recovers_template_exactly():
    template = sim.make_template()
    out = sim.preprocess(sim.upscale2x(template), sim.SizePair(640, 320))
    assert np.array_equal(out, template)


def test_dataset_deterministic():
    template = sim.make_template()
    a = sim.make_dataset(template, 5, np.random.default_rng(42))
    b = sim.make_dataset(template, 5, np.random.default_rng(42))
    assert np.array_equal(a, b)
    c = sim.make_dataset(template, 5, np.random.default_rng(43))
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# experiments


def test_experiment_rotation_kills_detection():
    result = sim.run_experiment(PerturbationSpec(rotation_delta=90),
                                image_count=50)
    assert result.baseline.detection_rate >= 0.95
    assert result.perturbed.detection_rate <= 0.10
    assert result.rate_drop >= 0.85


def test_experiment_override_matches_delta_from_zero():
    delta = sim.run_experiment(PerturbationSpec(rotation_delta=90),
                               image_count=20)
    override = sim.run_experiment(PerturbationSpec(rotation_override=90),
                                  image_count=20)
    assert delta.perturbed.scores == override.perturbed.scores


def test_experiment_dimension_override_changes_cost_and_rate():
    result = sim.run_experiment(PerturbationSpec(width_override=64),
                                image_count=20)
    assert result.perturbed.ops.total < result.baseline.ops.total
    assert result.baseline.detection_rate == 1.0


def test_experiment_noop_spec_changes_nothing():
    result = sim.run_experiment(PerturbationSpec(rotation_delta=0),
                                image_count=20)
    assert result.baseline.scores == result.perturbed.scores
    assert result.rate_drop == 0.0


def test_ops_accounting():
    ops = sim.OpCount()
    image = np.zeros((64, 64))
    sim.preprocess(image, sim.SizePair(640, 320), rotation=90, ops=ops)
    assert ops.resize == 640 * 320 + 32 * 32
    assert ops.rotate == 640 * 320
    assert ops.normalize == 0
    assert ops.total == ops.resize + ops.rotate


def test_latency_profile_monotone_in_area():
    profile = sim.latency_profile(sim.LATENCY_SIZES, image_count=3)
    areas = [p.area for p, _ in profile]
    costs = [ops for _, ops in profile]
    assert areas == sorted(areas)
    assert all(a < b for a, b in zip(costs, costs[1:]))


# An arbitrary-angle 640x320 rotation per example can outrun hypothesis's
# 200 ms default deadline on a slow or busy machine; the test checks values,
# not speed.
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 359))
def test_experiment_consistent_with_direct_pipeline(rotation):
    template = sim.make_template()
    rng = np.random.default_rng(7)
    images = sim.make_dataset(template, 3, rng)
    run = sim.run_once(images, template, sim.SizePair(640, 320), rotation, "x")
    for image, score in zip(images, run.scores):
        frame = sim.preprocess(image, sim.SizePair(640, 320), rotation=rotation)
        assert sim.ncc(frame, template) == score


def _per_image(images, template, preview, rotation, do_normalize):
    """``run_once`` by the per-image reference pipeline."""
    ops = sim.OpCount()
    reference = sim.normalize(template) if do_normalize else template
    scores = [sim.ncc(sim.preprocess(image, preview, rotation=rotation,
                                     do_normalize=do_normalize, ops=ops),
                      reference)
              for image in images]
    return scores, sum(s >= sim.DETECTION_THRESHOLD for s in scores), ops


# Right angles take their own path; uniform draws would rarely hit them.
ROTATIONS = st.one_of(st.integers(-8, 8).map(lambda k: 90 * k),
                      st.integers(-720, 720))


@settings(max_examples=80, deadline=None)
@given(st.integers(8, 96), st.integers(8, 96),
       st.integers(1, 1400), st.integers(1, 1400),
       ROTATIONS, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_run_once_equals_per_image_pipeline(height, width, preview_w, preview_h,
                                            rotation, do_normalize, seed):
    template = sim.make_template()
    images = np.random.default_rng(seed).uniform(0.0, 255.0,
                                                 size=(2, height, width))
    # The template among the images lets some examples detect.
    images[0] = sim.nn_resize(template, height, width)
    preview = sim.SizePair(preview_w, preview_h)
    run = sim.run_once(images, template, preview, rotation, "x",
                       do_normalize=do_normalize)
    scores, detections, ops = _per_image(images, template, preview, rotation,
                                         do_normalize)
    assert run.scores == scores
    assert run.detections == detections
    assert run.ops == ops


@pytest.mark.parametrize("rotation", [0, 90, 180, 270, -90, 45, 300])
def test_run_once_equals_per_image_pipeline_on_a_grid(rotation):
    template = sim.make_template()
    images = np.random.default_rng(5).uniform(0.0, 255.0, size=(2, 20, 37))
    for size in ((1, 1), (17, 33), (33, 17), (37, 20), (160, 120), (640, 320)):
        preview = sim.SizePair(*size)
        for do_normalize in (False, True):
            run = sim.run_once(images, template, preview, rotation, "x",
                               do_normalize=do_normalize)
            assert (run.scores, run.detections, run.ops) == _per_image(
                images, template, preview, rotation, do_normalize), size


@pytest.mark.parametrize("rotation", [0, 90, 45])
def test_run_once_does_not_call_per_image_pipeline(monkeypatch, rotation):
    def refuse(*args, **kwargs):
        raise AssertionError("per-image pipeline called")
    for name in ("preprocess", "nn_resize", "nn_rotate"):
        monkeypatch.setattr(sim, name, refuse)
    template = sim.make_template()
    images = sim.make_dataset(template, 3, np.random.default_rng(1))
    run = sim.run_once(images, template, sim.SizePair(640, 320), rotation,
                       "x", do_normalize=True)
    assert run.total == 3 and len(run.scores) == 3


def test_source_map_zero_fills_only_arbitrary_angles():
    preview = sim.SizePair(640, 320)
    for rotation in (0, 90, 180, 270, -90, 720):
        index = sim.source_map((64, 64), preview, rotation)
        assert index.shape == sim.MODEL_INPUT
        assert index.min() >= 0 and index.max() < 64 * 64
    index = sim.source_map((64, 64), preview, 45)
    assert (index == -1).any() and (index >= 0).any()


# ---------------------------------------------------------------------------
# batching: one draw, one gather and one scoring pass per run


def _ncc_one(a, b):
    """Zero-mean normalized cross-correlation of two images, one at a time."""
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(float((da * da).sum()) * float((db * db).sum()))
    return 0.0 if denom == 0.0 else float((da * db).sum() / denom)


@pytest.mark.parametrize("count", [0, 1, 8])
def test_make_dataset_equals_per_image_uniform_draws(count):
    template = sim.make_template()
    rng = np.random.default_rng(20240817 + count)
    base = sim.upscale2x(template)
    want = np.empty((count,) + base.shape)
    for i in range(count):
        offset = rng.uniform(-10.0, 10.0)
        noise = rng.uniform(-4.0, 4.0, size=base.shape)
        want[i] = np.clip(base + offset + noise, 0.0, 255.0)
    got = sim.make_dataset(template, count,
                           np.random.default_rng(20240817 + count))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", sim.LATENCY_SIZES)
@pytest.mark.parametrize("rotation", [0, 90, 180, 270, 45, 300])
@pytest.mark.parametrize("do_normalize", [False, True])
def test_run_once_equals_per_image_pipeline_on_eight_images(size, rotation,
                                                            do_normalize):
    # Eight images is the benchmark's batch; a gather of that many lays the
    # batch axis innermost, which two or three images can hide.
    template = sim.make_template()
    images = sim.make_dataset(template, 8, np.random.default_rng(11))
    preview = sim.SizePair(*size)
    run = sim.run_once(images, template, preview, rotation, "x",
                       do_normalize=do_normalize)
    scores, detections, ops = _per_image(images, template, preview, rotation,
                                         do_normalize)
    assert (run.scores, run.detections, run.ops) == (scores, detections, ops)
    reference = sim.normalize(template) if do_normalize else template
    assert run.scores == [
        _ncc_one(sim.preprocess(image, preview, rotation=rotation,
                                do_normalize=do_normalize), reference)
        for image in images]


def test_ncc_scores_a_stack_as_its_frames_one_by_one():
    template = sim.make_template()
    frames = np.random.default_rng(3).uniform(0.0, 255.0, size=(8, 32, 32))
    frames[2] = 7.0
    # A strided view of the stack, batch axis innermost.
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(frames, 0, -1)), -1, 0)
    for stack in (frames, strided):
        scores = sim.ncc(stack, template)
        assert scores == [_ncc_one(frame, template) for frame in frames]
        assert scores[2] == 0.0
    assert sim.ncc(frames[:0], template) == []
    assert sim.ncc(frames[1], template) == _ncc_one(frames[1], template)
    with pytest.raises(ValueError, match="do not stack"):
        sim.ncc(frames[:, :16], template)


def test_run_once_on_no_images():
    template = sim.make_template()
    images = sim.make_dataset(template, 0, np.random.default_rng(1))
    for rotation in (0, 90, 45):
        run = sim.run_once(images, template, sim.SizePair(640, 320), rotation,
                           "x", do_normalize=True)
        assert (run.total, run.detections, run.scores) == (0, 0, [])
        assert run.ops.total == 0 and run.detection_rate == 0.0
    result = sim.run_experiment(PerturbationSpec(rotation_delta=90),
                                image_count=0)
    assert result.to_dict()["perturbed"]["pixel_ops"] == 0


def _grid_source_map(image_shape, preview, rotation):
    """``source_map`` of a right angle over a full index grid."""
    height, width = image_shape
    degrees = rotation % 360
    turned = ((preview.width, preview.height) if degrees in (90, 270)
              else (preview.height, preview.width))
    ys, xs = np.meshgrid(sim._resize_index(turned[0], sim.MODEL_INPUT[0]),
                         sim._resize_index(turned[1], sim.MODEL_INPUT[1]),
                         indexing="ij")
    if degrees == 90:
        ys, xs = preview.height - 1 - xs, ys
    elif degrees == 180:
        ys, xs = preview.height - 1 - ys, preview.width - 1 - xs
    elif degrees == 270:
        ys, xs = xs, preview.width - 1 - ys
    rows = sim._resize_index(height, preview.height)[ys]
    cols = sim._resize_index(width, preview.width)[xs]
    return rows * width + cols


@pytest.mark.parametrize("rotation", [-90, 0, 90, 180, 270, 450])
def test_source_map_of_a_right_angle_equals_the_grid_map(rotation):
    for size in sim.LATENCY_SIZES + ((1, 1), (7, 3), (3, 7), (640, 320)):
        preview = sim.SizePair(*size)
        for shape in ((64, 64), (20, 37)):
            got = sim.source_map(shape, preview, rotation)
            want = _grid_source_map(shape, preview, rotation)
            assert got.shape == want.shape == sim.MODEL_INPUT
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (size, shape)
