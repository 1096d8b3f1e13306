"""Closure time and allocation peak of one orbit as the representation's dimension grows.

For each dimension d, a seeded random unitary representation of the free
group F2 (two Haar-like unitaries from the QR of complex Gaussian
matrices) and one seeded random unit vector: ``stability.closure`` of that
vector at radius ``RADIUS`` is timed (best of ``REPEAT`` runs) and run
once more under ``tracemalloc`` for its allocation peak. BLAS is pinned to
one thread before numpy loads.

Usage: ``python tools/orbit_scaling.py``. The output is a header row, then
one ``<d> <time ms> <peak MB> <closure dim>`` row for each d in ``DIMS``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from unirep import FreeGroupOracle, MatrixRep, SparseVector  # noqa: E402
from unirep.stability import closure  # noqa: E402

DIMS = (32, 96, 256)
RADIUS = 4
SEED = 0
REPEAT = 5


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def case(d: int):
    """The F2 representation and the unit vector of dimension ``d``."""
    rng = np.random.default_rng(SEED)
    rep = MatrixRep(FreeGroupOracle(2), [random_unitary(rng, d) for _ in range(2)])
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    a /= np.linalg.norm(a)
    return rep, SparseVector(rep, {(0, i): complex(x) for i, x in enumerate(a)})


def measure(d: int) -> tuple:
    """``(best seconds, tracemalloc peak bytes, closure dim)`` of the closure at dimension ``d``."""
    best = float("inf")
    for _ in range(REPEAT):
        rep, a = case(d)  # a fresh leaf each run: nothing is cached between runs
        start = time.perf_counter()
        dim = closure(rep, [a], RADIUS).dim
        best = min(best, time.perf_counter() - start)
    rep, a = case(d)
    tracemalloc.start()
    try:
        closure(rep, [a], RADIUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak, dim


def main() -> int:
    print(f"{'d':>5} {'time_ms':>9} {'peak_MB':>9} {'dim':>5}")
    for d in DIMS:
        seconds, peak, dim = measure(d)
        print(f"{d:5d} {seconds * 1e3:9.2f} {peak / 1e6:9.3f} {dim:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
