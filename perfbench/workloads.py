"""The three workloads: items to time, and how to check their outputs.

A workload is a fixed list of items. One round calls every item once, in
order, timing each call, into work directories of its own; the outputs are
checked after the round, outside the timed span. Work directories are kept
until the run ends (see ``workdirs``). Every round attempts the same items,
so the share of failed items is the same in every run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import checks
import inputs
import workdirs


@dataclass
class Round:
    wall_s: float
    item_s: List[float]
    failed: int
    problems: List[str] = field(default_factory=list)


class Workload:
    """Base: subclasses provide ``items`` (name -> call) and ``check``."""

    # Whether a round writes into one new tree; a workload that writes into
    # trees of its own, or nowhere, gets the run's work directory instead.
    round_tree = True

    def __init__(self, inputs_dir: Path, work: Path, labels: dict,
                 workers: int = 1):
        self.inputs = inputs_dir
        self.work = work
        self.labels = labels
        self.workers = workers  # run_pipeline's thread pool, where it has one
        # First report of each item, to check that reruns are byte-identical.
        self.first_output: Dict[str, str] = {}

    def items(self, workdir: Path) -> Dict[str, Callable[[], object]]:
        raise NotImplementedError

    def check(self, name: str, output, workdir: Path) -> List[str]:
        raise NotImplementedError

    def count_layers(self, trace, output) -> None:
        """Add counts the trace cannot see at a call boundary (traced pass)."""

    def same_as_first(self, name: str, text: str) -> List[str]:
        first = self.first_output.setdefault(name, text)
        return [] if text == first else [f"{name}: report differs from the first call"]

    def run_round(self, index: int, trace=None) -> Round:
        workdir = (workdirs.new_tree(self.work, f"round{index}")
                   if self.round_tree else self.work)
        calls = self.items(workdir)
        outputs, item_s = {}, []
        started = time.perf_counter()
        for name, call in calls.items():
            t0 = time.perf_counter()
            try:
                outputs[name] = call()
            except Exception:
                outputs[name] = None
                print(f"{name}: raised\n{traceback.format_exc()}", file=sys.stderr)
            item_s.append(time.perf_counter() - t0)
            if trace is not None and outputs[name] is not None:
                self.count_layers(trace, outputs[name])
        wall = time.perf_counter() - started
        # A raised item is a failed operation; a wrong output also makes the
        # run incorrect.
        failed, problems = 0, []
        for name, output in outputs.items():
            found = [] if output is None else self.check(name, output, workdir)
            if output is None or found:
                failed += 1
                problems.extend(f"{name}: {p}" for p in found)
        return Round(wall, item_s, failed, problems)


def _report_json(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


class CorpusCensus(Workload):
    """One item: ``run_pipeline`` over one corpus, no perturbation."""

    def items(self, workdir):
        from prepatch import pipeline

        def call(corpus: Path, target: Path):
            sources = pipeline.collect_sources(corpus)
            report = pipeline.run_pipeline(sources, target, workers=self.workers)
            return _report_json(report)
        return {name: functools.partial(call, self.inputs / name, workdir / name)
                for name in sorted(self.labels)}

    def check(self, name, output, workdir):
        return (checks.check_report(json.loads(output), self.labels[name], False)
                + self.same_as_first(name, output))


class BigAppsInject(Workload):
    """One item: ``run_pipeline([app])`` with a rotation delta."""

    round_tree = False

    def items(self, workdir):
        from prepatch import pipeline
        from prepatch.perturbation import PerturbationSpec
        spec = PerturbationSpec(rotation_delta=inputs.BIGAPPS_DELTA)

        def call(source: Path, target: Path):
            report = pipeline.run_pipeline([source], target, spec=spec, workers=1)
            return _report_json(report)
        # Each app gets a tree of its own: apply_plan deletes the tree it
        # replaced, and an app written next to those inodes would pay for
        # the app before it (see workdirs).
        workdir.mkdir(parents=True, exist_ok=True)
        workdirs.spread_subdirs(workdir)
        self.targets = {name: workdirs.new_tree(workdir, name) for name in self.labels}
        return {name: functools.partial(call, self.inputs / "apps" / label["source"],
                                        self.targets[name])
                for name, label in sorted(self.labels.items())}

    def check(self, name, output, workdir):
        label = self.labels[name]
        problems = checks.check_report(json.loads(output), {name: label}, True)
        problems += checks.check_patched_tree(
            self.targets[name] / name, self.inputs / "apps" / label["source"],
            label, inputs.BIGAPPS_DELTA)
        return problems + self.same_as_first(name, output)


class SimSweep(Workload):
    """One item: ``sim.run_experiment`` for one sweep configuration."""

    round_tree = False

    def items(self, workdir):
        from prepatch import sim
        from prepatch.perturbation import PerturbationSpec

        def call(cfg: dict):
            return sim.run_experiment(
                PerturbationSpec(rotation_delta=cfg["delta"]),
                image_count=cfg["images"], seed=cfg["seed"],
                preview_sizes=((cfg["width"], cfg["height"]),),
                do_normalize=cfg["normalize"])
        return {name: functools.partial(call, cfg)
                for name, cfg in sorted(self.labels.items())}

    def check(self, name, output, workdir):
        result = {}
        for run in ("baseline", "perturbed"):
            r = getattr(output, run)
            result[run] = {"rate": r.detection_rate, "scores": r.scores,
                           "ops": {"resize": r.ops.resize, "rotate": r.ops.rotate,
                                   "normalize": r.ops.normalize}}
        return checks.check_sim(result, self.labels[name])

    def count_layers(self, trace, output):
        for run in (output.baseline, output.perturbed):
            trace.add_sim_ops(run.ops.resize, run.ops.rotate, run.ops.normalize)


def make(workload: str, inputs_dir: Path, work: Path, workers: int) -> Workload:
    labels = json.loads((inputs_dir / "labels.json").read_text())
    if workload == "corpus_census":
        return CorpusCensus(inputs_dir, work, labels, workers)
    if workload == "bigapps_inject":
        return BigAppsInject(inputs_dir, work, labels)
    return SimSweep(inputs_dir, work, labels)
