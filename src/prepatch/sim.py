"""Simulate an image pre-processing pipeline and measure perturbation effects.

The pipeline mirrors what vision wrappers do on device: pick a preview
size close to a desired area, resize with nearest-neighbour sampling,
rotate by the stored rotation value, downscale to the model input, and
optionally normalize pixel values. A toy normalized-cross-correlation
detector stands in for the model: it recognizes an upright template and
fails once the pre-processing feeds it rotated or distorted frames.

Pixel-op counts serve as a deterministic latency proxy; they grow with the
number of samples each stage produces, so larger intermediate buffers cost
more. They are closed-form functions of the shapes: per image, W*H for the
preview resize, W*H more for a rotation that is not a multiple of 360, and
one per model-input pixel for the model resize and again for normalizing.

``preprocess`` runs the stages one image at a time and is the reference.
``run_once`` gets the same frames without building the preview or the
rotated frame: every stage samples by nearest neighbour, so the three
compose into one map from model-input pixel to source pixel, which is
built once per run and gathered from the whole image batch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .perturbation import PerturbationSpec

DESIRED_WIDTH = 640
DESIRED_HEIGHT = 320
MODEL_INPUT = (32, 32)
DETECTION_THRESHOLD = 0.8
LATENCY_SIZES = ((160, 120), (320, 240), (640, 480), (1280, 720))

PIXEL_SCALE = 255.0


# ---------------------------------------------------------------------------
# preview-size selection


@dataclass(frozen=True)
class SizePair:
    width: int
    height: int

    @property
    def area(self) -> int:
        return self.width * self.height


def select_size(sizes: Sequence[Tuple[int, int]],
                desired_width: int = DESIRED_WIDTH,
                desired_height: int = DESIRED_HEIGHT) -> Optional[SizePair]:
    """Pick the supported size whose area is closest to the desired area.

    Scans in order and keeps the first size on ties, updating only on a
    strictly smaller difference.
    """
    target = desired_width * desired_height
    best: Optional[Tuple[int, int]] = None
    min_diff: Optional[int] = None
    for width, height in sizes:
        diff = abs(width * height - target)
        if min_diff is None or diff < min_diff:
            min_diff = diff
            best = (width, height)
    return SizePair(*best) if best is not None else None


# ---------------------------------------------------------------------------
# camera rotation bookkeeping


@dataclass(frozen=True)
class CameraRotation:
    degrees: int            # display rotation in degrees
    rotation_degrees: int   # what the sensor frame needs to be rotated by
    display_angle: int      # what the preview surface is turned by


def camera_rotation(display_rotation: int, sensor_orientation: int) -> CameraRotation:
    """Rotation bookkeeping for a camera preview.

    ``display_rotation`` is the surface rotation constant (0..3),
    ``sensor_orientation`` the mounting angle of the sensor in degrees.
    """
    degrees = (display_rotation % 4) * 90
    rotation_degrees = (sensor_orientation + degrees) % 360
    display_angle = (360 - rotation_degrees) % 360
    return CameraRotation(degrees=degrees, rotation_degrees=rotation_degrees,
                          display_angle=display_angle)


# ---------------------------------------------------------------------------
# pixel operations


@dataclass
class OpCount:
    resize: int = 0
    rotate: int = 0
    normalize: int = 0

    @property
    def total(self) -> int:
        return self.resize + self.rotate + self.normalize

    def add(self, other: "OpCount") -> None:
        self.resize += other.resize
        self.rotate += other.rotate
        self.normalize += other.normalize


def nn_resize(image: np.ndarray, out_height: int, out_width: int,
              ops: Optional[OpCount] = None) -> np.ndarray:
    """Nearest-neighbour resize: source index is floor(dst * src / dst)."""
    src_h, src_w = image.shape
    if ops is not None:
        ops.resize += out_height * out_width
    return image[np.ix_(_resize_index(src_h, out_height),
                        _resize_index(src_w, out_width))]


def _resize_index(src: int, out: int) -> np.ndarray:
    """Source index of each of ``out`` samples along an axis of ``src``."""
    return (np.arange(out) * src) // out


def _inverse_rotate(ys: np.ndarray, xs: np.ndarray, shape: Tuple[int, int],
                    degrees: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest source pixel of destination pixels (``ys``, ``xs``) of a frame
    of ``shape`` rotated clockwise by ``degrees``, and whether it lies inside.

    Every element is computed on its own, so sampling a few destination
    pixels gives the same source pixels as mapping the whole frame.
    """
    theta = math.radians(degrees)
    src_h, src_w = shape
    cy, cx = (src_h - 1) / 2.0, (src_w - 1) / 2.0
    # Inverse map: rotate destination coordinates back by -degrees.
    rel_y = ys - cy
    rel_x = xs - cx
    src_x = np.cos(theta) * rel_x - np.sin(theta) * rel_y + cx
    src_y = np.sin(theta) * rel_x + np.cos(theta) * rel_y + cy
    src_xi = np.rint(src_x).astype(int)
    src_yi = np.rint(src_y).astype(int)
    valid = ((src_xi >= 0) & (src_xi < src_w)
             & (src_yi >= 0) & (src_yi < src_h))
    return src_yi, src_xi, valid


def nn_rotate(image: np.ndarray, degrees: int,
              ops: Optional[OpCount] = None) -> np.ndarray:
    """Rotate clockwise by ``degrees``. Right angles are exact grid turns;
    anything else inverse-maps through the rotation with nearest sampling."""
    degrees %= 360
    if degrees == 0:
        return image.copy()
    if ops is not None:
        height, width = image.shape
        out_pixels = width * height
        ops.rotate += out_pixels
    if degrees % 90 == 0:
        return np.rot90(image, k=-(degrees // 90)).copy()
    ys, xs = np.mgrid[0:image.shape[0], 0:image.shape[1]]
    src_yi, src_xi, valid = _inverse_rotate(ys, xs, image.shape, degrees)
    out = np.zeros_like(image)
    out[valid] = image[src_yi[valid], src_xi[valid]]
    return out


def normalize(image: np.ndarray, scale: float = PIXEL_SCALE,
              ops: Optional[OpCount] = None) -> np.ndarray:
    if ops is not None:
        ops.normalize += image.size
    return image / scale


def preprocess(image: np.ndarray, preview: SizePair,
               model_input: Tuple[int, int] = MODEL_INPUT,
               rotation: int = 0, do_normalize: bool = False,
               ops: Optional[OpCount] = None) -> np.ndarray:
    """Full pipeline: preview resize, rotation, model resize, normalization."""
    frame = nn_resize(image, preview.height, preview.width, ops)
    frame = nn_rotate(frame, rotation, ops)
    frame = nn_resize(frame, model_input[0], model_input[1], ops)
    if do_normalize:
        frame = normalize(frame, ops=ops)
    return frame


def source_map(image_shape: Tuple[int, int], preview: SizePair,
               rotation: int) -> np.ndarray:
    """Flat index into an image of ``image_shape`` of each model-input pixel
    that ``preprocess`` produces, or -1 where the rotation zero-fills.

    Walks back from the model-input grid through the model resize, the
    rotation and the preview resize, touching only the sampled pixels.
    """
    height, width = image_shape
    degrees = rotation % 360
    turned = ((preview.width, preview.height) if degrees in (90, 270)
              else (preview.height, preview.width))
    ys, xs = np.meshgrid(_resize_index(turned[0], MODEL_INPUT[0]),
                         _resize_index(turned[1], MODEL_INPUT[1]),
                         indexing="ij")
    valid = np.ones(ys.shape, dtype=bool)
    # The inverses of np.rot90(frame, -k) for k = 1, 2, 3.
    if degrees == 90:
        ys, xs = preview.height - 1 - xs, ys
    elif degrees == 180:
        ys, xs = preview.height - 1 - ys, preview.width - 1 - xs
    elif degrees == 270:
        ys, xs = xs, preview.width - 1 - ys
    elif degrees:
        ys, xs, valid = _inverse_rotate(ys, xs, (preview.height, preview.width),
                                        degrees)
        ys, xs = np.where(valid, ys, 0), np.where(valid, xs, 0)
    rows = _resize_index(height, preview.height)[ys]
    cols = _resize_index(width, preview.width)[xs]
    return np.where(valid, rows * width + cols, -1)


# ---------------------------------------------------------------------------
# toy detector


def make_template(size: int = 32) -> np.ndarray:
    """Upright T shape: a top bar plus a center stem, bright on dark."""
    img = np.full((size, size), 20.0)
    bar_top = size // 8
    bar_bottom = size // 4
    margin = size // 8
    img[bar_top:bar_bottom, margin:size - margin] = 235.0
    stem_left = size // 2 - size // 16 - 1
    stem_right = size // 2 + size // 16 + 1
    img[bar_bottom:size - bar_top, stem_left:stem_right] = 235.0
    return img


def ncc(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-mean normalized cross-correlation of two same-shape images."""
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    if denom == 0.0:
        return 0.0
    return float((da * db).sum() / denom)


def upscale2x(image: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(image, 2, axis=0), 2, axis=1)


def make_dataset(template: np.ndarray, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Noisy 2x upscales of the template, one brightness offset per image."""
    base = upscale2x(template)
    images = np.empty((count,) + base.shape)
    for i in range(count):
        offset = rng.uniform(-10.0, 10.0)
        noise = rng.uniform(-4.0, 4.0, size=base.shape)
        images[i] = np.clip(base + offset + noise, 0.0, 255.0)
    return images


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class RunResult:
    label: str
    rotation: int
    detections: int
    total: int
    scores: List[float] = field(default_factory=list)
    ops: OpCount = field(default_factory=OpCount)

    @property
    def detection_rate(self) -> float:
        return self.detections / self.total if self.total else 0.0

    @property
    def mean_score(self) -> float:
        return sum(self.scores) / len(self.scores) if self.scores else 0.0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "rotation": self.rotation,
            "detections": self.detections,
            "total": self.total,
            "detection_rate": round(self.detection_rate, 4),
            "mean_score": round(self.mean_score, 4),
            "pixel_ops": self.ops.total,
        }


@dataclass
class ExperimentResult:
    spec: PerturbationSpec
    baseline: RunResult
    perturbed: RunResult

    @property
    def rate_drop(self) -> float:
        return self.baseline.detection_rate - self.perturbed.detection_rate

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "baseline": self.baseline.to_dict(),
            "perturbed": self.perturbed.to_dict(),
            "rate_drop": round(self.rate_drop, 4),
        }


def run_once(images: np.ndarray, template: np.ndarray, preview: SizePair,
             rotation: int, label: str, do_normalize: bool = False,
             threshold: float = DETECTION_THRESHOLD) -> RunResult:
    """Push every image through ``preprocess`` and score it against the
    template, by one gather over the batch with ``source_map``.

    Frames, scores and op counts equal those of calling ``preprocess`` and
    ``ncc`` on each image in turn.
    """
    count, height, width = images.shape
    index = source_map((height, width), preview, rotation)
    # Index -1 reads the last pixel; those samples are zeroed next.
    frames = images.reshape(count, height * width)[:, index]
    frames[:, index < 0] = 0
    reference = template
    if do_normalize:
        frames = normalize(frames)
        reference = normalize(template)
    scores = [ncc(frame, reference) for frame in frames]

    pixels = preview.width * preview.height
    model = MODEL_INPUT[0] * MODEL_INPUT[1]
    ops = OpCount(resize=count * (pixels + model),
                  rotate=count * pixels if rotation % 360 else 0,
                  normalize=count * model if do_normalize else 0)
    return RunResult(label=label, rotation=rotation,
                     detections=sum(score >= threshold for score in scores),
                     total=count, scores=scores, ops=ops)


def run_experiment(spec: PerturbationSpec, image_count: int = 100,
                   seed: int = 20240817,
                   preview_sizes: Sequence[Tuple[int, int]] = ((640, 320),),
                   do_normalize: bool = False,
                   threshold: float = DETECTION_THRESHOLD,
                   desired: Tuple[int, int] = (DESIRED_WIDTH, DESIRED_HEIGHT)
                   ) -> ExperimentResult:
    """Run the pipeline with and without the perturbation on one dataset.

    The preview is the supported size whose area is closest to the
    ``desired`` (width, height). The baseline applies no extra rotation;
    the perturbed run applies the spec to a stored rotation of zero, which
    is what an injected override or delta turns into at runtime.
    """
    template = make_template()
    rng = np.random.default_rng(seed)
    images = make_dataset(template, image_count, rng)
    preview = select_size(preview_sizes, *desired)
    if preview is None:
        raise ValueError("no preview sizes supplied")

    width = spec.width_override
    height = spec.height_override
    perturbed_preview = SizePair(width or preview.width,
                                 height or preview.height)
    rotation = spec.effective_rotation(0) or 0

    baseline = run_once(images, template, preview, 0, "baseline",
                        do_normalize=do_normalize, threshold=threshold)
    perturbed = run_once(images, template, perturbed_preview, rotation,
                         "perturbed", do_normalize=do_normalize,
                         threshold=threshold)
    return ExperimentResult(spec=spec, baseline=baseline, perturbed=perturbed)


def latency_profile(preview_sizes: Sequence[Tuple[int, int]],
                    image_count: int = 10, seed: int = 7,
                    do_normalize: bool = True) -> List[Tuple[SizePair, int]]:
    """Pixel-op totals for the same dataset pushed through different
    preview sizes; larger intermediate frames mean more sampled pixels."""
    template = make_template()
    rng = np.random.default_rng(seed)
    images = make_dataset(template, image_count, rng)
    profile = []
    for width, height in preview_sizes:
        preview = SizePair(width, height)
        result = run_once(images, template, preview, 0,
                          f"{width}x{height}", do_normalize=do_normalize)
        profile.append((preview, result.ops.total))
    return profile
