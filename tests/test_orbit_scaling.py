"""Smoke test of ``tools/orbit_scaling.py``, the closure time and allocation table."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "orbit_scaling.py"


def test_orbit_scaling_prints_one_row_per_dimension():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True)
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["d", "time_ms", "peak_MB", "dim"]
    assert [int(row.split()[0]) for row in rows] == [32, 96, 256]
    for row in rows:
        d, ms, mb, dim = row.split()
        assert float(ms) > 0 and float(mb) > 0
        assert 1 <= int(dim) <= int(d)  # a closure inside the d-dim space
