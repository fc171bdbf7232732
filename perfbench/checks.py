"""Output checks, computed apart from the program.

Each check returns a list of problems; an empty list means the output is
right. The expectations come from the generator's labels, from a plain
regex over the patched smali, and from closed-form formulas or a small
numpy re-implementation of the simulated pipeline. Nothing here calls into
``prepatch``.
"""

from __future__ import annotations

import re
import zipfile
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

MARKER = "__preproc_patch_marker__"
MODEL_SIDE = 32
SCORE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# pipeline report against labels


def _percent(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    share = Decimal(numerator) * 100 / Decimal(denominator)
    return float(share.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def check_report(report: dict, labels: Dict[str, dict],
                 injected: bool) -> List[str]:
    """A pipeline report against the labels of the apps it covered.

    ``injected`` says whether a perturbation was given, in which case every
    injectable app must be injected and no other.
    """
    problems = []
    outcomes = {o["app"]: o for o in report["outcomes"]}
    if sorted(outcomes) != sorted(labels):
        return [f"apps {sorted(outcomes)} != labelled {sorted(labels)}"]
    for name, label in sorted(labels.items()):
        o = outcomes[name]
        corrupt = label["kind"] == "unscannable"
        got = {"is_dl": o["verdict"]["is_dl"],
               "strategies": sorted(o["strategies"]),
               "matched": bool(o["strategies"]),
               "injected": o["injected"],
               "scan_error": o["verdict"]["error"] is not None,
               "error": o["error"]}
        want = {"is_dl": label["is_dl"],
                "strategies": label["strategies"],
                "matched": label["injectable"],
                "injected": injected and label["injectable"],
                "scan_error": corrupt,
                "error": None}
        for key in want:
            if got[key] != want[key]:
                problems.append(f"{name}: {key} {got[key]!r} != {want[key]!r}")
    dl = sum(1 for label in labels.values() if label["is_dl"])
    matched = sum(1 for label in labels.values() if label["injectable"])
    if report["stats"]["dl"] != dl:
        problems.append(f"stats.dl {report['stats']['dl']} != {dl}")
    if report["matched_apps"] != matched:
        problems.append(f"matched_apps {report['matched_apps']} != {matched}")
    want_pct = _percent(matched, dl)
    if report["percent_matched_of_dl"] != want_pct:
        problems.append(f"percent_matched_of_dl "
                        f"{report['percent_matched_of_dl']} != {want_pct}")
    return problems


# ---------------------------------------------------------------------------
# patched tree against its source


def source_files(source: Path) -> Iterator[Tuple[str, bytes]]:
    """(relative path, bytes) of every file of an archive or a tree."""
    if source.is_dir():
        for file in sorted(source.rglob("*")):
            if file.is_file():
                yield file.relative_to(source).as_posix(), file.read_bytes()
        return
    with zipfile.ZipFile(source) as zf:
        for name in sorted(zf.namelist()):
            if not name.endswith("/"):
                yield name, zf.read(name)


def _rotation_literals(text: str, register: str) -> List[int]:
    pattern = re.compile(
        rf"^\s*const(?:/4|/16|/high16)?\s+{register},\s*(-?(?:0x)?[0-9a-fA-F]+)\s*$",
        re.MULTILINE)
    return [int(m.group(1), 0) for m in pattern.finditer(text)]


def check_patched_tree(tree: Path, source: Path, label: dict,
                       delta: int) -> List[str]:
    """An injected tree against the archive or tree it was made from.

    The wrapper's rotation literal must read (generator value + delta) mod
    360, the marker must sit in the wrapper only, and every other file must
    be byte-equal to its source.
    """
    problems = []
    wrapper = label["wrapper"]
    seen = set()
    for rel, data in source_files(source):
        seen.add(rel)
        target = tree / rel
        if not target.is_file():
            problems.append(f"{rel}: missing from the patched tree")
            continue
        patched = target.read_bytes()
        if rel != wrapper:
            if patched != data:
                problems.append(f"{rel}: changed but is not the wrapper")
            continue
        text = patched.decode("utf-8")
        want = (label["rotation_value"] + delta) % 360
        literals = _rotation_literals(text, label["rotation_register"])
        if literals != [want]:
            problems.append(f"{rel}: rotation literals {literals} != [{want}]")
        if text.count(MARKER) != 1:
            problems.append(f"{rel}: marker appears {text.count(MARKER)} times")
    if wrapper not in seen:
        problems.append(f"{wrapper}: wrapper not in the source")
    for file in tree.rglob("*"):
        rel = file.relative_to(tree).as_posix()
        if file.is_file() and rel not in seen:
            problems.append(f"{rel}: extra file in the patched tree")
    return problems


# ---------------------------------------------------------------------------
# simulator


def expected_ops(width: int, height: int, rotated: bool,
                 normalized: bool) -> Dict[str, int]:
    """Pixel ops per image, by stage: W*H + W*H*[rotated] + 1024 + 1024*[norm]."""
    model = MODEL_SIDE * MODEL_SIDE
    return {"resize": width * height + model,
            "rotate": width * height if rotated else 0,
            "normalize": model if normalized else 0}


def _template() -> np.ndarray:
    side = MODEL_SIDE
    img = np.full((side, side), 20.0)
    img[side // 8:side // 4, side // 8:side - side // 8] = 235.0
    img[side // 4:side - side // 8, side // 2 - side // 16 - 1:side // 2 + side // 16 + 1] = 235.0
    return img


def _images(count: int, seed: int) -> np.ndarray:
    base = np.kron(_template(), np.ones((2, 2)))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        offset = rng.uniform(-10.0, 10.0)
        noise = rng.uniform(-4.0, 4.0, size=base.shape)
        out.append(np.clip(base + offset + noise, 0.0, 255.0))
    return np.array(out)


def _sample(image: np.ndarray, height: int, width: int) -> np.ndarray:
    rows = [r * image.shape[0] // height for r in range(height)]
    cols = [c * image.shape[1] // width for c in range(width)]
    return image[rows][:, cols]


def reference_scores(cfg: dict, rotation: int) -> List[float]:
    """Detector scores for one sweep configuration, right angles only."""
    if rotation % 90:
        raise ValueError("the reference handles right angles only")
    template = _template()
    scale = 255.0 if cfg["normalize"] else 1.0
    scores = []
    for image in _images(cfg["images"], cfg["seed"]):
        frame = _sample(image, cfg["height"], cfg["width"])
        frame = np.rot90(frame, k=-(rotation // 90))
        frame = _sample(frame, MODEL_SIDE, MODEL_SIDE) / scale
        scores.append(float(np.corrcoef(frame.ravel(),
                                        (template / scale).ravel())[0, 1]))
    return scores


def _scores_match(got: List[float], want: Optional[List[float]]) -> bool:
    return want is None or (len(got) == len(want) and all(
        abs(a - b) <= SCORE_TOLERANCE for a, b in zip(got, want)))


def check_sim(result: dict, label: dict) -> List[str]:
    """One ``run_experiment`` result against formulas and reference scores.

    ``result`` holds, for "baseline" and "perturbed", the detection rate,
    the op counts by stage and the scores.
    """
    problems = []
    images = label["images"]
    for run, rotated, rate in (("baseline", False, 1.0),
                               ("perturbed", label["delta"] % 360 != 0, 0.0)):
        got = result[run]
        if got["rate"] != rate:
            problems.append(f"{run}: detection rate {got['rate']} != {rate}")
        want_ops = {stage: images * n for stage, n in expected_ops(
            label["width"], label["height"], rotated, label["normalize"]).items()}
        if got["ops"] != want_ops:
            problems.append(f"{run}: ops {got['ops']} != {want_ops}")
        if not _scores_match(got["scores"], label.get(f"{run}_scores")):
            problems.append(f"{run}: scores differ from the reference")
    return problems
