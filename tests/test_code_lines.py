"""Smoke test of ``tools/code_lines.py``, the code-line counter."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"


def test_code_lines_total_is_the_sum_of_its_modules():
    out = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src" / "unirep")],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    rows = [line.split(maxsplit=1) for line in out]
    *modules, (total, label) = rows
    assert label == "total"
    assert [Path(name).name for _n, name in modules] == sorted(
        p.name for p in (ROOT / "src" / "unirep").glob("*.py"))
    assert all(int(n) > 0 for n, _name in modules)
    assert int(total) == sum(int(n) for n, _name in modules)


def test_code_lines_drops_docstrings_comments_and_blanks(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""Module doc."""\n\n# a comment\ndef f(x):\n    """Doc\n    more."""\n'
                      '    s = """two\n    lines"""  # kept: not a docstring\n    return s\n')
    out = subprocess.run([sys.executable, str(TOOL), str(source)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].split()[0] == out[-1].split()[0] == "4"
