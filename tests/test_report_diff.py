"""Smoke test of ``tools/report_diff.py``, the workload report comparison of two trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_diff)


def test_one_workload_of_this_tree_matches_itself():
    """Two fresh runs of one workload and seed give reports equal apart from the timestamp."""
    first = report_diff.report_digests(ROOT, [("probe-free", 1)])
    second = report_diff.report_digests(ROOT, [("probe-free", 1)])
    assert list(first) == ["probe-free seed 1 probe-amenability"]
    assert report_diff.differing(first, second) == []
    assert report_diff.differing(first, {}) == list(first)
