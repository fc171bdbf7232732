"""The pair summary of ``scripts/bench_pairs.py``: seeds, wins and rules."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges():
    assert _load().parse_seeds("41-43,71,73-74") == [41, 42, 43, 71, 73, 74]


def test_gain_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    summarize = _load().summarize
    metric = {"unit": "ms", "bound": 0.25, "better": "lower"}
    parent = [500, 510, 490, 505, 495, 520, 480, 500, 515, 485]
    clear = summarize(metric, {"parent": parent,
                               "change": [p - 100 for p in parent]})
    assert clear["change_wins"] == 10 and clear["gain_rule_met"]
    assert clear["within_bound"] and clear["median_ratio"] == 0.8

    two_losses = summarize(metric, {"parent": parent,
                                    "change": [p - 100 for p in parent[:8]] + [600, 600]})
    assert two_losses["change_wins"] == 8 and not two_losses["gain_rule_met"]

    small = summarize(metric, {"parent": parent, "change": [p - 5 for p in parent]})
    assert small["change_wins"] == 10 and not small["gain_rule_met"]

    worse = summarize({**metric, "better": "higher"},
                      {"parent": parent, "change": [p * 0.7 for p in parent]})
    assert worse["change_losses"] == 10 and not worse["within_bound"]


def test_calibration_times_three_fixed_loops_and_leaves_no_files(tmp_path):
    calibration = _load().calibrate(tmp_path, python_loops=1000,
                                    numpy_loops=10, files=5)
    assert calibration["counts"] == {"python_loops": 1000, "numpy_loops": 10,
                                     "files": 5}
    for name in ("python_loop_s", "numpy_sum_s", "file_create_unlink_s"):
        assert 0.0 < calibration[name] < 60.0
    assert list(tmp_path.iterdir()) == []
