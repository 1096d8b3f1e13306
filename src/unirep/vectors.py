"""Finitely supported vectors over a representation space.

Entries are keyed by ``(copy_index, key)`` where ``copy_index`` selects a
leaf of the ambient representation's direct-sum tree and ``key`` is a
group element (regular leaves) or a coordinate index (finite leaves).
Amplitudes are complex; arithmetic never truncates, so the shift action
on these vectors is exact.
"""

from __future__ import annotations

from .errors import KindMismatchError


class SparseVector:
    __slots__ = ("space", "entries")

    def __init__(self, space, entries=None):
        self.space = space
        clean = {}
        if entries:
            for k, v in entries.items():
                v = complex(v)
                if v != 0:
                    clean[k] = v
        self.entries = clean

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.items())

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        _check_same_space(self, other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out.get(k, 0) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return SparseVector(self.space, out)

    def __sub__(self, other):
        _check_same_space(self, other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out.get(k, 0) - v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return SparseVector(self.space, out)

    def __neg__(self):
        return SparseVector(self.space, {k: -v for k, v in self.entries.items()})

    def __mul__(self, scalar):
        scalar = complex(scalar)
        if scalar == 0:
            return SparseVector(self.space, {})
        return SparseVector(self.space, {k: v * scalar for k, v in self.entries.items()})

    __rmul__ = __mul__

    def norm2(self) -> float:
        return sum((v * v.conjugate()).real for v in self.entries.values())

    def norm(self) -> float:
        return self.norm2() ** 0.5

    def restrict(self, keep) -> "SparseVector":
        """Keep only entries whose (copy, key) satisfies the predicate."""
        return SparseVector(self.space, {k: v for k, v in self.entries.items() if keep(k)})

    def amplitude(self, copy, key):
        return self.entries.get((copy, key), 0j)

    def __repr__(self):
        items = sorted(self.entries.items(), key=lambda kv: repr(kv[0]))[:4]
        body = ", ".join(f"{k}: {v:.4g}" for k, v in items)
        more = "" if len(self.entries) <= 4 else f", ... ({len(self.entries)} entries)"
        return f"SparseVector({{{body}{more}}})"


def _check_same_space(u: SparseVector, v: SparseVector):
    if u.space != v.space:
        raise KindMismatchError("vectors live in different ambient spaces")


def inner(u: SparseVector, v: SparseVector) -> complex:
    """Hermitian inner product, linear in the first argument."""
    _check_same_space(u, v)
    a, b = u.entries, v.entries
    if len(b) < len(a):
        return complex(sum(a[k] * w.conjugate() for k, w in b.items() if k in a))
    return complex(sum(w * b[k].conjugate() for k, w in a.items() if k in b))


def delta(space, copy, key, amplitude=1.0) -> SparseVector:
    return SparseVector(space, {(copy, key): amplitude})


def zero(space) -> SparseVector:
    return SparseVector(space, {})


def orthonormal_residual(v: SparseVector, basis, drop_tol: float = 1e-10):
    """Unit residual of ``v`` against the orthonormal ``basis``, or None.

    Modified Gram-Schmidt with one re-orthogonalization pass. A residual
    whose norm falls below ``drop_tol`` means ``v`` is linearly dependent
    on ``basis``, and None is returned.
    """
    w = v
    for _ in range(2):
        for b in basis:
            w = w - inner(w, b) * b
    n = w.norm()
    return w * (1.0 / n) if n >= drop_tol else None


def orthonormalize(vectors, drop_tol: float = 1e-10) -> list:
    """Orthonormal basis of the span of ``vectors``, kept in order.

    Each vector contributes its ``orthonormal_residual`` against the ones
    already kept; linearly dependent vectors are dropped.
    """
    basis = []
    for v in vectors:
        w = orthonormal_residual(v, basis, drop_tol)
        if w is not None:
            basis.append(w)
    return basis
