"""Smoke test of ``tools/folner_scaling.py``, the folner-witness run and verify time table."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "folner_scaling.py"


def test_folner_scaling_prints_one_row_per_case():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True)
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["group", "eps", "radius", "support", "run_ms", "verify_ms"]
    cells = [row.split() for row in rows]
    assert [(name, float(eps)) for name, eps, *_ in cells] == [
        ("Z", 0.08), ("Z", 0.02), ("Z", 0.005), ("Z2", 0.08), ("Z2", 0.02), ("Z2", 0.005),
        ("H3", 0.08)]
    # the witness is the Perron vector of the whole radius-r ball: 2r + 1 points on Z,
    # 2r^2 + 2r + 1 on Z^2
    ball_size = {"Z": lambda r: 2 * r + 1, "Z2": lambda r: 2 * r * r + 2 * r + 1}
    for name, _eps, radius, support, run_ms, verify_ms in cells:
        assert float(run_ms) > 0 and float(verify_ms) > 0
        if name in ball_size:
            assert int(support) == ball_size[name](int(radius))
    assert [int(c[3]) for c in cells] == [11, 23, 45, 113, 481, 1985, 4533]
