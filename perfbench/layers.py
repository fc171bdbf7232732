"""Per-layer tracing from outside the program.

``LayerTrace`` replaces the public functions that ``pipeline`` and ``sim``
call between layers with timed wrappers, for as long as it is installed.
The program's sources are not touched: the wrappers sit on module
attributes, which the callers look up at call time. Times are
``perf_counter`` seconds spent inside the call; ``_mb`` figures are
``rchar``/``wchar`` deltas from ``/proc/self/io`` (bytes passed through
read and write calls, cache hits included). The traced pass runs one app at
a time, so no two wrapped calls overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

MB = 1 << 20

# Every per-layer metric the traced pass reports, with its unit.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("scan.scan_path_s", "s"),
    ("pipeline.materialize_s", "s"),
    ("pipeline.materialize_write_mb", "MB"),
    ("locate.index_s", "s"),
    ("locate.index_read_mb", "MB"),
    ("locate.classes", "count"),
    ("locate.anchors_s", "s"),
    ("locate.anchors", "count"),
    ("locate.slice_s", "s"),
    ("locate.slice_gaps", "count"),
    ("locate.match_s", "s"),
    ("locate.matches", "count"),
    ("inject.plan_s", "s"),
    ("inject.plan_read_mb", "MB"),
    ("inject.patches", "count"),
    ("inject.apply_s", "s"),
    ("inject.apply_write_mb", "MB"),
    ("inject.files_changed", "count"),
    ("pipeline.report_s", "s"),
    ("pipeline.other_s", "s"),
    ("sim.dataset_s", "s"),
    ("sim.preview_resize_s", "s"),
    ("sim.rotate_s", "s"),
    ("sim.model_resize_s", "s"),
    ("sim.normalize_s", "s"),
    ("sim.detect_s", "s"),
    ("sim.resize_ops", "count"),
    ("sim.rotate_ops", "count"),
    ("sim.normalize_ops", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
)

# Stages inside run_pipeline; the rest of its time is pipeline.other_s.
_PIPELINE_STAGES = ("scan.scan_path_s", "pipeline.materialize_s",
                    "locate.index_s", "locate.anchors_s", "locate.slice_s",
                    "locate.match_s", "inject.plan_s", "inject.apply_s",
                    "scan.aggregate_s")


def io_counters() -> Tuple[int, int]:
    """(rchar, wchar) of this process."""
    fields = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = int(value)
    return fields["rchar"], fields["wchar"]


class LayerTrace:
    """Timed wrappers around the program's layer entry points."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self._saved: List[Tuple[object, str, object]] = []
        self._resizes_in_frame = 0

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, metric: str, io: str = "", count: Callable = None):
        """Wrapper factory: add call time to ``metric``, plus the read or
        write volume (``io`` = "read_mb" or "write_mb") and a count."""
        prefix = metric.rsplit("_s", 1)[0]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = io_counters() if io else None
                started = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.totals[metric] += time.perf_counter() - started
                    if io:
                        after = io_counters()
                        moved = after[0] - before[0] if io == "read_mb" \
                            else after[1] - before[1]
                        self.totals[f"{prefix}_{io}"] += moved / MB
                if count is not None:
                    name, n = count(result)
                    self.totals[name] += n
                return result
            return wrapper
        return make

    def install(self) -> "LayerTrace":
        from prepatch import inject, locate, pipeline, scan, sim
        t = self._timed
        self._patch(scan, "scan_path", t("scan.scan_path_s"))
        self._patch(scan, "aggregate", t("scan.aggregate_s"))
        self._patch(pipeline, "materialize",
                    t("pipeline.materialize_s", "write_mb"))
        self._patch(pipeline, "run_pipeline", t("pipeline.run_pipeline_s"))
        self._patch(pipeline.PipelineReport, "to_dict",
                    t("pipeline.to_dict_s"))

        def index_wrapper(original):
            timed = t("locate.index_s", "read_mb",
                      lambda idx: ("locate.classes", len(idx.by_path)))(
                          original.__func__)
            return classmethod(timed)
        self._patch(locate.ClassIndex, "from_tree", index_wrapper)
        self._patch(locate, "find_anchors",
                    t("locate.anchors_s", count=lambda r: ("locate.anchors", len(r))))
        self._patch(locate, "backward_slice",
                    t("locate.slice_s", count=lambda r: ("locate.slice_gaps", len(r.gaps))))
        self._patch(locate, "match_constructors",
                    t("locate.match_s", count=lambda r: ("locate.matches", len(r))))
        self._patch(inject, "plan_injection",
                    t("inject.plan_s", "read_mb",
                      lambda plan: ("inject.patches", len(plan.patches))))
        self._patch(inject, "apply_plan",
                    t("inject.apply_s", "write_mb",
                      lambda res: ("inject.files_changed", len(res.files_changed))))

        self._patch(sim, "make_dataset", t("sim.dataset_s"))
        self._patch(sim, "nn_rotate", t("sim.rotate_s"))
        self._patch(sim, "normalize", t("sim.normalize_s"))
        self._patch(sim, "ncc", t("sim.detect_s"))
        # preprocess resizes twice: first to the preview, then to the model.
        preview = t("sim.preview_resize_s")
        model = t("sim.model_resize_s")

        def resize_wrapper(original):
            timed_preview, timed_model = preview(original), model(original)

            def wrapper(*args, **kwargs):
                self._resizes_in_frame += 1
                fn = timed_preview if self._resizes_in_frame == 1 else timed_model
                return fn(*args, **kwargs)
            return wrapper

        def preprocess_wrapper(original):
            def wrapper(*args, **kwargs):
                self._resizes_in_frame = 0
                return original(*args, **kwargs)
            return wrapper
        self._patch(sim, "nn_resize", resize_wrapper)
        self._patch(sim, "preprocess", preprocess_wrapper)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def add_sim_ops(self, resize: int, rotate: int, normalize: int) -> None:
        self.totals["sim.resize_ops"] += resize
        self.totals["sim.rotate_ops"] += rotate
        self.totals["sim.normalize_ops"] += normalize

    def take(self) -> Dict[str, float]:
        """This round's per-layer figures; resets the totals."""
        totals, self.totals = self.totals, defaultdict(float)
        out = {name: totals.get(name, 0.0) for name, _ in METRICS}
        out["pipeline.report_s"] = (totals.get("scan.aggregate_s", 0.0)
                                    + totals.get("pipeline.to_dict_s", 0.0))
        out["pipeline.other_s"] = max(0.0, totals.get("pipeline.run_pipeline_s", 0.0)
                                      - sum(totals.get(s, 0.0) for s in _PIPELINE_STAGES))
        return out
