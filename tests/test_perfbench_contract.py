"""The program attributes and keyword the benchmark harness relies on.

``perfbench/layers.py`` wraps module attributes of the program by name, and
``perfbench/workloads.py`` calls ``run_pipeline`` with ``workers=``. A
rename or removal on the program side breaks the benchmark, not the
program's own tests, so this test runs the tracer against the program.
"""

import importlib.util
import random
from pathlib import Path

from prepatch import inject, locate, pipeline, scan, sim, synth
from prepatch.perturbation import PerturbationSpec

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# (owner, attribute) pairs LayerTrace replaces while installed.
WRAPPED = [(scan, "scan_path"), (scan, "aggregate"), (pipeline, "materialize"),
           (pipeline, "run_pipeline"), (pipeline.PipelineReport, "to_dict"),
           (locate.ClassIndex, "from_tree"), (locate, "find_anchors"),
           (locate, "backward_slice"), (locate, "match_constructors"),
           (inject, "plan_injection"), (inject, "apply_plan"),
           (sim, "make_dataset"), (sim, "nn_rotate"), (sim, "normalize"),
           (sim, "ncc"), (sim, "nn_resize"), (sim, "preprocess")]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_wraps_and_restores_the_program(tmp_path):
    files, truth = synth.build_app_files("s2", 2, random.Random(5))
    apk = tmp_path / "app.apk"
    apk.write_bytes(synth.zip_app(files))
    tree = tmp_path / truth.name
    synth.write_tree(files, tree)
    originals = [owner.__dict__[attr] for owner, attr in WRAPPED]

    trace = _load_layers().LayerTrace().install()
    try:
        assert all(owner.__dict__[attr] is not original for (owner, attr), original
                   in zip(WRAPPED, originals))
        report = pipeline.run_pipeline([apk], tmp_path / "work",
                                       spec=PerturbationSpec(rotation_delta=90),
                                       workers=1)
        index = locate.ClassIndex.from_tree(tree)
        verdict = scan.scan_path(apk)
    finally:
        trace.restore()

    assert all(owner.__dict__[attr] is original for (owner, attr), original
               in zip(WRAPPED, originals))
    assert report.injected_apps == 1 and verdict.is_dl
    totals = trace.take()
    assert totals["locate.classes"] == len(index.by_path)
    assert totals["inject.patches"] == 1
    assert totals["inject.files_changed"] == 1
    assert totals["locate.matches"] >= 1
