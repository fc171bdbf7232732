"""The benchmark's own tests: each check rejects a wrong output, and a
small ("smoke") run of every workload finishes in seconds.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402

inputs.import_program()

import workloads  # noqa: E402


def _first_round(workload, tmp_path, name=None):
    """Build smoke inputs, run one round, return (bench, name, output, workdir)."""
    labels = inputs.build(workload, tmp_path / "inputs", seed=3, scale="smoke")
    bench = workloads.make(workload, tmp_path / "inputs", tmp_path / "run", 1)
    name = name or sorted(labels)[0]
    workdir = tmp_path / "run" / "round0"
    output = bench.items(workdir)[name]()
    return bench, name, output, workdir


def test_report_check_rejects_flipped_strategy(tmp_path):
    bench, name, output, workdir = _first_round("corpus_census", tmp_path)
    assert bench.check(name, output, workdir) == []
    report = json.loads(output)
    outcome = next(o for o in report["outcomes"] if o["strategies"])
    flipped = "S2_bitmap" if outcome["strategies"] != ["S2_bitmap"] else "S1_buffer"
    outcome["strategies"] = [flipped]
    problems = checks.check_report(report, bench.labels[name], injected=False)
    assert any(outcome["app"] in p and "strategies" in p for p in problems)


def test_report_check_rejects_wrong_stats(tmp_path):
    bench, name, output, _ = _first_round("corpus_census", tmp_path)
    report = json.loads(output)
    report["percent_matched_of_dl"] += 0.01
    report["stats"]["dl"] -= 1
    problems = checks.check_report(report, bench.labels[name], injected=False)
    assert len(problems) == 2


def test_rerun_must_give_identical_report(tmp_path):
    bench, name, output, workdir = _first_round("corpus_census", tmp_path)
    assert bench.check(name, output, workdir) == []
    assert bench.check(name, output.replace('"app"', '"app" ', 1), workdir)


def test_tree_check_rejects_wrong_literal_and_stray_edits(tmp_path):
    bench, name, output, workdir = _first_round("bigapps_inject", tmp_path)
    assert bench.check(name, output, workdir) == []
    label = bench.labels[name]
    tree = bench.targets[name] / name
    source = bench.inputs / "apps" / label["source"]
    wrapper = tree / label["wrapper"]
    text = wrapper.read_text()
    pattern = rf"(const/16 {label['rotation_register']}), (\S+)"
    value = int(re.search(pattern, text).group(2), 0)
    assert value == (label["rotation_value"] + inputs.BIGAPPS_DELTA) % 360
    wrapper.write_text(re.sub(pattern, rf"\1, {hex(value + 1)}", text))
    assert any("rotation literals" in p
               for p in checks.check_patched_tree(tree, source, label, 90))

    wrapper.write_text(text)
    other = next(p for p in sorted(tree.rglob("*.smali")) if p != wrapper)
    other.write_text(other.read_text() + "\n")
    assert any("changed but is not the wrapper" in p
               for p in checks.check_patched_tree(tree, source, label, 90))


def test_sim_check_rejects_off_by_one_op_count_and_bad_score(tmp_path):
    bench, name, output, workdir = _first_round("sim_sweep", tmp_path,
                                                name="d90_160x120_raw")
    assert bench.check(name, output, workdir) == []
    # 160x120 at 90 degrees: 19,200 + 19,200 + 1,024 pixel ops per image.
    assert output.perturbed.ops.total == 39_424 * output.perturbed.total
    output.perturbed.ops.rotate += 1
    assert any("ops" in p for p in bench.check(name, output, workdir))
    output.perturbed.ops.rotate -= 1
    output.baseline.scores[0] += 1e-6
    assert any("scores" in p for p in bench.check(name, output, workdir))


def _benchmark_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]},
            [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run(workload, trace):
    names, end_to_end, per_layer = _benchmark_lists()
    assert workload in names
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace),
             "--scale", "smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, stderr
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(per_layer if trace else end_to_end)
    assert not (ROOT / ".perfbench_work" / f"{workload}-{proc.pid}").exists()


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
