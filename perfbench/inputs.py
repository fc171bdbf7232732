"""Benchmark set-up: make each workload's inputs from a seed.

The inputs of one workload are written under an output directory together
with ``labels.json``, the generator's ground truth that the checks in
``checks.py`` compare the program's outputs against. The same seed gives the
same bytes.

Run as a script, this module builds the inputs ``--repeat`` times, keeps
the last build as ``<out>/inputs`` and prints one JSON line with the time
of every build. ``run.py`` calls it in a child process so that the timed
run's peak memory does not include set-up::

    python3 perfbench/inputs.py --workload corpus_census --seed 1 \
        --out .perfbench_work/setup --repeat 3
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import zipfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("corpus_census", "bigapps_inject", "sim_sweep")

# Workload make-up. "smoke" is a small version of each for the benchmark's
# own tests; "full" is what the benchmark measures.
CENSUS_CORPORA = {"full": 24, "smoke": 2}
# (wrapper kind, synth app index, smali classes, form). The index picks the
# wrapper flavour: s1 at an odd index stores rotation as decimal 180 and
# format 17, s1 at an even index as 0xb4 and 842094169.
BIGAPPS = {
    "full": (("s1", 1, 2_000, "archive"),
             ("s2", 2, 3_500, "tree"),
             ("s3", 4, 5_000, "archive")),
    "smoke": (("s1", 1, 150, "archive"),
              ("s2", 2, 300, "tree")),
}
BIGAPPS_DELTA = 90
SIM_DELTAS = (90, 180, 270, 45)
SIM_SIZES = {"full": ((160, 120), (320, 240), (640, 480), (1280, 720)),
             "smoke": ((160, 120), (320, 240))}
SIM_IMAGES = {"full": 8, "smoke": 2}

# Rotation literal as each wrapper template writes it: (register, value).
WRAPPER_ROTATION = {"s1": ("p4", 180), "s2": ("p2", 180), "s3": ("p4", 180)}


def import_program():
    """Import ``prepatch`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "prepatch" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources at {src}")
    sys.path.insert(0, str(src))
    import prepatch
    if Path(prepatch.__file__).resolve().parent != (src / "prepatch").resolve():
        raise SystemExit(f"benchmark: imported prepatch from {prepatch.__file__}, "
                         f"not from {src}")
    return prepatch


def sim_grid(seed: int, scale: str) -> List[dict]:
    """The sweep configurations, each with its own dataset seed."""
    grid = []
    for delta in SIM_DELTAS:
        for width, height in SIM_SIZES[scale]:
            for normalize in (False, True):
                grid.append({"delta": delta, "width": width, "height": height,
                             "normalize": normalize,
                             "seed": seed * 1000 + len(grid),
                             "images": SIM_IMAGES[scale]})
    return grid


def config_name(cfg: dict) -> str:
    norm = "norm" if cfg["normalize"] else "raw"
    return f"d{cfg['delta']}_{cfg['width']}x{cfg['height']}_{norm}"


# ---------------------------------------------------------------------------
# generators


def _truth_label(truth, form: str) -> dict:
    return {"kind": truth.kind, "is_dl": truth.is_dl,
            "strategies": sorted(truth.strategies),
            "injectable": truth.injectable, "form": form}


def build_census(out: Path, seed: int, scale: str) -> dict:
    """Labelled corpora from ``synth.build_corpus``, one seed each.

    In every corpus about half of the readable apps are unpacked into
    extracted trees (the corrupt archives stay archives). Each app has its
    own name, so no archive and tree share a work directory.
    """
    from prepatch import synth
    labels: Dict[str, dict] = {}
    for c in range(CENSUS_CORPORA[scale]):
        name = f"corpus{c:02d}"
        corpus = out / name
        corpus_seed = seed * 100 + c
        entries = synth.build_corpus(corpus, seed=corpus_seed)
        readable = [e for e in entries if e.truth.kind != "unscannable"]
        as_tree = set(random.Random(corpus_seed).sample(
            range(len(readable)), len(readable) // 2 + 1))
        apps = {}
        for i, entry in enumerate(entries):
            form = "archive"
            if i in as_tree and entry.truth.kind != "unscannable":
                with zipfile.ZipFile(entry.path) as zf:
                    zf.extractall(corpus / entry.truth.name)
                entry.path.unlink()
                form = "tree"
            apps[entry.truth.name] = _truth_label(entry.truth, form)
        labels[name] = apps
    return labels


def big_app_files(kind: str, index: int, classes: int, rng: random.Random):
    """One synth app padded with synth filler classes to ``classes`` units."""
    from prepatch import synth
    files, truth = synth.build_app_files(kind, index, rng)
    pkg = f"demoapp{index:02d}"
    have = sum(1 for p in files if p.endswith(".smali"))
    for i in range(classes - have):
        tag, template = synth._FILLERS[rng.randrange(len(synth._FILLERS))]
        cls = f"Lcom/{pkg}/pad/{tag}{i};"
        files[synth._smali_path(cls)] = template(cls)
    return files, truth


def build_bigapps(out: Path, seed: int, scale: str) -> dict:
    """Real-scale apps, one wrapper shape each, as archives or trees."""
    from prepatch import synth
    apps_dir = out / "apps"
    apps_dir.mkdir(parents=True)
    labels: Dict[str, dict] = {}
    for kind, index, classes, form in BIGAPPS[scale]:
        rng = random.Random(seed * 100 + index)
        files, truth = big_app_files(kind, index, classes, rng)
        name = f"{truth.name}_{classes}"
        if form == "archive":
            (apps_dir / f"{name}.apk").write_bytes(synth.zip_app(files))
            source = f"{name}.apk"
        else:
            synth.write_tree(files, apps_dir / name)
            source = name
        register, value = WRAPPER_ROTATION[kind]
        label = _truth_label(truth, form)
        label.update({
            "source": source, "classes": classes,
            "wrapper": f"smali/com/demoapp{index:02d}/vision/ImageHolder.smali",
            "rotation_register": register, "rotation_value": value})
        labels[name] = label
    return labels


def build_sim(out: Path, seed: int, scale: str) -> dict:
    """The sweep grid plus reference scores computed apart from ``sim``."""
    from checks import reference_scores
    grid = sim_grid(seed, scale)
    labels = {}
    for cfg in grid:
        entry = dict(cfg)
        entry["baseline_scores"] = reference_scores(cfg, 0)
        if cfg["delta"] % 90 == 0:
            entry["perturbed_scores"] = reference_scores(cfg, cfg["delta"])
        labels[config_name(cfg)] = entry
    return labels


GENERATORS = {"corpus_census": build_census, "bigapps_inject": build_bigapps,
            "sim_sweep": build_sim}


def build(workload: str, out: Path, seed: int, scale: str = "full") -> dict:
    out.mkdir(parents=True)
    labels = GENERATORS[workload](out, seed, scale)
    (out / "labels.json").write_text(json.dumps(labels, indent=1, sort_keys=True))
    return labels


def build_repeated(workload: str, out: Path, seed: int, repeat: int,
                   scale: str) -> List[float]:
    """Build ``repeat`` times, each into a new directory, and return each
    build's time. The last build, renamed to ``out/inputs``, is the one
    used; the others are deleted with the rest of the work directory when
    the run ends.
    """
    times = []
    for i in range(repeat):
        target = out / f"build{i}"
        started = time.perf_counter()
        build(workload, target, seed, scale)
        times.append(time.perf_counter() - started)
    target.rename(out / "inputs")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    times = build_repeated(args.workload, args.out, args.seed, args.repeat,
                           args.scale)
    print(json.dumps({"setup_s": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
