"""Run and verify time of ``folner-witness`` as eps shrinks: the Folner function of Z, Z^2 and H3.

For each group and eps in ``CASES`` the task runs in-process through
``unirep.cli.main`` on a config file (F the first two generators: the steps
x and y of the Heisenberg group H3), and its report is verified; each is
timed as the best of ``REPEAT`` runs. The witness support grows like
eps^(-d/2) for growth degree d = 1, 2 and 4. BLAS is pinned to one thread
before numpy loads.

Usage: ``python tools/folner_scaling.py``. The output is a header row, then
one ``<group> <eps> <radius> <support> <run ms> <verify ms>`` row per case.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from unirep.cli import main as unirep  # noqa: E402

# H3 on x, y, z = [x, y]: yx -> xyz^-1 over the signed letters, z central
H3_RULES = [[[2, 1], [1, 2, -3]], [[2, -1], [-1, 2, 3]], [[-2, 1], [1, -2, 3]],
            [[-2, -1], [-1, -2, -3]]] + [[[z, x], [x, z]] for z in (3, -3) for x in (1, -1, 2, -2)]
GROUPS = {
    "Z": ({"kind": "fg-abelian", "rank": 1, "torsion": []}, ["1"]),
    "Z2": ({"kind": "fg-abelian", "rank": 2, "torsion": []}, ["1,0", "0,1"]),
    "H3": ({"kind": "rewriting-presented", "num_generators": 3, "rules": H3_RULES}, ["1", "2"]),
}
CASES = [("Z", 0.08), ("Z", 0.02), ("Z", 0.005), ("Z2", 0.08), ("Z2", 0.02), ("Z2", 0.005),
         ("H3", 0.08)]
REPEAT = 3


def timed(argv) -> float:
    """Seconds of one in-process ``unirep`` call, its printout dropped; it must exit 0."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = unirep(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"unirep {argv[0]} exited {code}")
    return seconds


def measure(name: str, eps: float, tmp: Path) -> tuple:
    """``(radius, support, best run s, best verify s)`` of ``folner-witness`` on one case."""
    group, F = GROUPS[name]
    config, report = tmp / "config.json", tmp / "report.json"
    config.write_text(json.dumps({"group": group, "task": {"eps": eps, "F": F}}))
    run = min(timed(["folner-witness", "--config", str(config), "--out", str(report)])
              for _ in range(REPEAT))
    verify = min(timed(["verify", "--report", str(report)]) for _ in range(REPEAT))
    outputs = json.loads(report.read_text())["outputs"]
    return outputs["radius"], outputs["support-size"], run, verify


def main() -> int:
    print(f"{'group':>5} {'eps':>6} {'radius':>6} {'support':>7} {'run_ms':>9} {'verify_ms':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, eps in CASES:
            radius, support, run, verify = measure(name, eps, Path(tmp))
            print(f"{name:>5} {eps:6g} {radius:6d} {support:7d} "
                  f"{run * 1e3:9.2f} {verify * 1e3:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
