"""Finitely supported vectors over a representation space.

Entries are keyed by ``(copy_index, key)`` where ``copy_index`` selects a
leaf of the ambient representation's direct-sum tree and ``key`` is a
group element (regular leaves) or a coordinate index (finite leaves).
Amplitudes are complex; arithmetic never truncates, so the shift action
on these vectors is exact.

Linear algebra over many vectors runs on one dense block kernel: a
``KeyIndex`` maps the ``(copy, key)`` entries of a family of vectors to
columns, ``to_dense`` and ``from_dense`` convert between vector lists and
``(rows x keys)`` complex arrays, and ``gram_schmidt`` orthonormalizes the
rows of a block in order, under an optional dimension cap. Inner products
of whole families are then one matrix product, ``X @ Y.conj().T``;
``inner`` remains the sparse formula for a single pair.
"""

from __future__ import annotations

import numpy as np

from .errors import KindMismatchError, ResourceLimitError

DROP_TOL = 1e-10
DEFAULT_DIM_CAP = 2000


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


def same_space(a, b) -> bool:
    """Whether ``a`` and ``b`` are the same ambient space.

    Identity is tested first, so the structural ``__eq__`` (for a
    ``MatrixRep`` a comparison of every generator matrix) runs only for
    distinct objects.
    """
    return a is b or a == b


def _check_same_space(u: SparseVector, v: SparseVector):
    if not same_space(u.space, v.space):
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


class KeyIndex:
    """Columns of a dense block: ``(copy, key)`` -> column, grown as vectors are added."""

    __slots__ = ("keys", "column")

    def __init__(self, vectors=()):
        self.keys = []
        self.column = {}
        self.add(vectors)

    def __len__(self):
        return len(self.keys)

    @classmethod
    def of_keys(cls, keys) -> "KeyIndex":
        """An index whose columns are ``keys``, in order."""
        index = cls()
        index.keys = list(keys)
        index.column = {k: j for j, k in enumerate(index.keys)}
        return index

    def add(self, vectors):
        """Give every entry key of ``vectors`` not yet indexed the next column."""
        keys, column = self.keys, self.column
        for v in vectors:
            for k in v.entries:
                if k not in column:
                    column[k] = len(keys)
                    keys.append(k)


def to_dense(vectors, index: KeyIndex) -> np.ndarray:
    """``(len(vectors) x len(index))`` block with one vector per row.

    Entries whose key has no column are left out. This leaves every inner
    product with a vector supported on the index unchanged, which is what
    projecting onto a block built over the same index needs.
    """
    vectors = list(vectors)
    column = index.column
    rows, cols, amps = [], [], []
    for i, v in enumerate(vectors):
        for k, amp in v.entries.items():
            j = column.get(k)
            if j is not None:
                rows.append(i)
                cols.append(j)
                amps.append(amp)
    X = np.zeros((len(vectors), len(index)), dtype=complex)
    X[rows, cols] = amps
    return X


def from_dense(space, index: KeyIndex, X) -> list:
    """Sparse vectors in ``space`` from the rows of a block over ``index``; zeros are dropped."""
    keys = index.keys
    out = []
    for row in np.asarray(X):
        amps = row.tolist()
        out.append(SparseVector(space, {keys[j]: amps[j] for j in np.flatnonzero(row).tolist()}))
    return out


def gram_schmidt(X, seed=None, cap=None) -> np.ndarray:
    """Orthonormal rows spanning ``seed`` and the rows of ``X``, kept in order.

    The one place a task's span is orthonormalized and its dimension capped.
    Row-wise classical Gram-Schmidt with one reorthogonalization pass
    ("twice is enough"): each row of ``X`` in turn loses its components
    along the rows kept so far, twice, and is kept, normalized, unless the
    norm left is below ``DROP_TOL`` (the row is then linearly dependent on
    the kept ones). The orthonormal rows of ``seed`` come first, verbatim;
    a seed narrower than ``X`` was built before the index grew and is
    padded with zero columns. With ``cap`` rows already kept, seed
    included, keeping another raises ``ResourceLimitError``; dropped rows
    never count. Returns the ``(kept x columns)`` block, seed rows first.
    """
    X = np.asarray(X, dtype=complex)
    n = X.shape[1]
    k = 0 if seed is None else len(seed)
    Q = np.zeros((k + len(X), n), dtype=complex)
    if k:
        Q[:k, : seed.shape[1]] = seed
    Qc = Q.conj()
    for x in X:
        w = x - (Qc[:k] @ x) @ Q[:k]
        w -= (Qc[:k] @ w) @ Q[:k]
        norm = np.sqrt(np.vdot(w, w).real)
        if norm < DROP_TOL:
            continue
        if cap is not None and k >= cap:
            raise ResourceLimitError(f"dimension cap {cap} exceeded")
        Q[k] = w / norm
        Qc[k] = Q[k].conj()
        k += 1
    return Q[:k]


def residual(X, Q) -> np.ndarray:
    """The rows of ``X`` less their projections onto the span of the orthonormal rows of ``Q``."""
    return X - (X @ Q.conj().T) @ Q


def orthonormalize(vectors) -> list:
    """Orthonormal basis of the span of ``vectors``, kept in order.

    One ``gram_schmidt`` pass over the stacked block; linearly dependent
    vectors are dropped.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    space = vectors[0].space
    for v in vectors:
        if not same_space(v.space, space):
            raise KindMismatchError("vectors live in different ambient spaces")
    index = KeyIndex(vectors)
    return from_dense(space, index, gram_schmidt(to_dense(vectors, index)))
