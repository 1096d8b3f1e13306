"""Unitary representation constructors and exact vector actions.

A representation is a tree whose atoms are ``Regular`` (left shift on
square-summable functions of the group), ``Trivial`` (identity action on
a finite-dimensional space), and ``MatrixRep`` (explicit unitary
generator matrices). The atoms share one base: an atom is its own single
leaf, and the two finite atoms also share their coordinates ``0..dim-1``.
Each atom owns its keys: ``leaf_key_to_str`` spells one and
``leaf_key_from_str`` reads and checks one, a regular atom's through its
oracle's element strings, a finite atom's as a decimal coordinate checked
by the range test ``apply`` applies.
Composites are ``DirectSum`` and ``Multiple``; an infinite multiple is
lazy and only ever touches finitely many copies. It carries no
allocation state: a caller that needs untouched copies takes them past
the highest copy its own vectors touch.

Vector entries are addressed by the global leaf index ("copy index") of
the atom they belong to, obtained by depth-first enumeration of the
tree. A part with infinitely many leaves is only allowed in the last
position of every enclosing direct sum so all other offsets stay finite.

``Representation.apply(g, v)`` acts on one sparse vector. An
``OrbitBlock`` acts by every element of a Cayley ball at once, on dense
rows: on a finite tree of ``MatrixRep`` and ``Trivial`` leaves its columns
are the tree's canonical keys, and the rows at an element s h of the
ball's left tree are those at h, one sphere closer, times each
``MatrixRep`` leaf's step matrix sigma(s)^T, one product per (sphere,
step). No matrix of a ball element is formed: a ``MatrixRep`` keeps only
``matrix_of``'s cache, the ``ball_stack`` of the largest generator ball it
has looked an element up in. A tree with a ``Regular`` leaf keeps the
``apply`` path, one vector and one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KindMismatchError, PreconditionError
from .groups import GroupOracle, generator_letters
# inner and orthonormalize are kept bound here: the benchmark tracer checks every
# module binding of them
from .vectors import (  # noqa: F401
    KeyIndex,
    SparseVector,
    delta,
    from_dense,
    gram_schmidt,
    inner,
    orthonormalize,
    same_space,
    to_dense,
)

UNITARY_TOL = 1e-10
RELATION_TOL = 1e-8


class Representation:
    """Base class; concrete kinds implement leaf bookkeeping and atom actions."""

    oracle: GroupOracle | None = None

    # -- leaf bookkeeping ---------------------------------------------------
    def leaf_count(self) -> int | None:
        """Number of atoms in the tree, None when infinite."""
        raise NotImplementedError

    def resolve(self, copy: int):
        """Atom at global leaf index ``copy``."""
        raise NotImplementedError

    def total_dim(self) -> int | None:
        """Hilbert dimension, None when infinite."""
        raise NotImplementedError

    # -- action ---------------------------------------------------------------
    def apply(self, g, v: SparseVector) -> SparseVector:
        """Act by the group element ``g``; exact for regular and trivial atoms."""
        if not same_space(v.space, self):
            raise KindMismatchError("vector does not belong to this representation's space")
        if self.oracle is not None:
            self.oracle.check_element(g)
        buckets: dict[int, dict] = {}
        for (copy, key), amp in v.entries.items():
            buckets.setdefault(copy, {})[key] = amp
        out = {}
        for copy, local in buckets.items():
            atom = self.resolve(copy)
            for key, amp in atom.leaf_apply(g, local).items():
                if amp != 0:
                    out[(copy, key)] = amp
        return SparseVector(self, out)

    # -- canonical basis (finite-dimensional trees only) ----------------------
    def basis_keys(self) -> list:
        if self.total_dim() is None:
            raise PreconditionError("representation is infinite-dimensional")
        keys = []
        for copy in range(self.leaf_count()):
            atom = self.resolve(copy)
            keys.extend((copy, k) for k in atom.leaf_basis_keys())
        return keys

    def canonical_basis(self) -> list:
        return [delta(self, c, k) for c, k in self.basis_keys()]

    def __repr__(self):
        return f"<{type(self).__name__}>"


class _Atom(Representation):
    """A representation that is its own single leaf."""

    def leaf_count(self):
        return 1

    def resolve(self, copy):
        if copy != 0:
            raise PreconditionError(f"copy index {copy} out of range for a single leaf")
        return self


class _FiniteAtom(_Atom):
    """An atom on the coordinates ``0..dim-1``."""

    dim: int

    def total_dim(self):
        return self.dim

    def leaf_basis_keys(self):
        return list(range(self.dim))

    def _coordinates(self, local) -> list:
        """The keys of ``local``, each checked to be a coordinate."""
        dim = self.dim
        for k in local:
            if not (isinstance(k, int) and 0 <= k < dim):
                raise KindMismatchError(f"coordinate {k!r} out of range for dim {dim}")
        return list(local)

    def leaf_key_to_str(self, key) -> str:
        return str(key)

    def leaf_key_from_str(self, s: str) -> int:
        """The coordinate ``s`` spells in decimal, checked to be one."""
        try:
            key = int(s)
        except ValueError:
            raise KindMismatchError(f"bad coordinate '{s}'") from None
        return self._coordinates([key])[0]


class Regular(_Atom):
    """Left-shift action on finitely supported functions of the group."""

    def __init__(self, oracle: GroupOracle):
        self.oracle = oracle

    def total_dim(self):
        return self.oracle.order()

    def leaf_apply(self, g, local):
        # apply has checked g; each key is checked once, then multiplied unchecked
        check, mul = self.oracle.check_element, self.oracle._mul
        out = {}
        for x, amp in local.items():
            check(x)
            out[mul(g, x)] = amp
        return out

    def leaf_basis_keys(self):
        return self.oracle.elements_in_order()

    def leaf_key_to_str(self, key) -> str:
        return self.oracle.element_to_str(key)

    def leaf_key_from_str(self, s: str):
        """The group element ``s`` spells, checked by the oracle."""
        return self.oracle.element_from_str(s)

    def __eq__(self, other):
        return isinstance(other, Regular) and other.oracle == self.oracle

    def __hash__(self):
        return hash(("regular", self.oracle))


class Trivial(_FiniteAtom):
    """Identity action on a finite-dimensional space; compatible with any group."""

    def __init__(self, dim: int):
        if not isinstance(dim, int) or dim < 1:
            raise PreconditionError("trivial representation needs dimension >= 1")
        self.dim = dim

    def leaf_apply(self, g, local):
        self._coordinates(local)
        return dict(local)

    def __eq__(self, other):
        return isinstance(other, Trivial) and other.dim == self.dim

    def __hash__(self):
        return hash(("trivial", self.dim))


class MatrixRep(_FiniteAtom):
    """Finite-dimensional representation given by one unitary matrix per generator.

    Generator matrices must have finite entries and be unitary to
    ``unitary_tol``, and every pair (u, v) of ``oracle.relations()`` must
    hold within ``RELATION_TOL``: the oracle's presentation, checked whole.
    Words are read letter by letter, -i as matrix i's adjoint; a side one
    letter past a right side already evaluated costs one product.
    """

    def __init__(self, oracle, matrices, unitary_tol=UNITARY_TOL):
        if oracle is None:
            raise PreconditionError("matrix representation needs a group oracle")
        self.oracle = oracle
        mats = [np.asarray(m, dtype=complex) for m in matrices]
        if len(mats) != len(oracle.generators):
            raise PreconditionError(
                f"expected {len(oracle.generators)} generator matrices, got {len(mats)}"
            )
        if not mats:
            raise PreconditionError("matrix representation needs at least one generator")
        d = mats[0].shape[0]
        for U in mats:
            if U.shape != (d, d):
                raise PreconditionError("generator matrices must be square and same size")
            if not np.all(np.isfinite(U)):
                raise PreconditionError("generator matrix has a non-finite entry")
            defect = np.max(np.abs(U.conj().T @ U - np.eye(d)))
            if defect > unitary_tol:
                raise PreconditionError(f"generator matrix not unitary: defect {defect:.3g}")
        self.matrices = mats
        self._letters = {a * i: U if a > 0 else U.conj().T
                         for i, U in enumerate(mats, 1) for a in (1, -1)}
        self.dim = d
        self._kept = None  # (ball, ball_stack) of the largest ball stacked so far
        right = {(): np.eye(d, dtype=complex)}  # the right sides evaluated so far
        for u, v in oracle.relations():
            rhs = right[v] = self._side(v, right)
            defect = abs(self._side(u, right) - rhs).max()
            if defect > RELATION_TOL:
                raise PreconditionError(f"relation {u} = {v} violated: defect {defect:.3g}")

    def _side(self, word, right):
        """The matrix of ``word``, one product past ``right[word[:-1]]`` when that is known."""
        if word in right:
            return right[word]
        head = right.get(word[:-1])
        return self.evaluate_word(word) if head is None else head @ self._letters[word[-1]]

    def evaluate_word(self, word) -> np.ndarray:
        """The product of ``word``'s letter matrices: a copy of the first, then one product per letter."""
        if not word:
            return np.eye(self.dim, dtype=complex)
        out = self._letters[word[0]].copy()
        for letter in word[1:]:
            out = out @ self._letters[letter]
        return out

    def ball_stack(self, B) -> np.ndarray:
        """``(len(B), dim, dim)``: the matrix of each element of ``B``, bit for bit ``matrix_of``'s.

        ``matrix_of``'s cache where ``as_word`` reads a ball's tree (``word_ball``
        is not None); orbit rows are formed without it (``OrbitBlock``).
        ``B`` must be a ball over the oracle's generators, whose steps are
        ``symmetric_generators(oracle)``: its tree's letters index them, so
        any other ball, or one of an oracle whose ``as_word`` has a closed
        form, raises PreconditionError. Each matrix is one product past its
        parent's in ``B``'s tree: the parent's times the step's matrix. The
        stack of the largest ball so far is kept in place of a per-element
        cache: a smaller ball's stack is a prefix of it.
        """
        oracle = self.oracle
        letters = generator_letters(oracle)
        if B.steps != list(letters):
            raise PreconditionError("a ball stack needs a ball over the oracle's generators")
        kept = self._kept
        if kept is not None and len(kept[0]) >= len(B):
            return kept[1][:len(B)]
        if oracle.word_ball(B.elements[0]) is None:
            raise PreconditionError("a ball stack needs an oracle whose words read a ball")
        M = np.empty((len(B), self.dim, self.dim), dtype=complex)
        M[0] = np.eye(self.dim)
        steps = [self._letters[a] for a in letters.values()]
        for i, (p, j) in enumerate(zip(B.parent[1:], B.letter[1:]), 1):
            np.matmul(M[p], steps[j], out=M[i])
        self._kept = (B, M)
        return M

    def matrix_of(self, g) -> np.ndarray:
        """The matrix of ``g``: its word's product, read off the kept ball stack when ``g`` is in it.

        Otherwise the stack of ``word_ball(g)`` is built and kept, or where
        ``as_word`` has a closed form the word is evaluated, uncached.
        """
        kept = self._kept
        if kept is None or g not in kept[0]:
            B = self.oracle.word_ball(g)
            if B is None:
                return self.evaluate_word(self.oracle.as_word(g))
            kept = (B, self.ball_stack(B))
        return kept[1][kept[0].index[g]]

    def leaf_apply(self, g, local):
        vec = np.zeros(self.dim, dtype=complex)
        vec[self._coordinates(local)] = list(local.values())
        w = self.matrix_of(g) @ vec
        return {int(i): complex(w[i]) for i in np.nonzero(w)[0]}

    def __eq__(self, other):
        return (
            isinstance(other, MatrixRep)
            and other.oracle == self.oracle
            and other.dim == self.dim
            and all(np.array_equal(a, b) for a, b in zip(other.matrices, self.matrices))
        )

    def __hash__(self):
        return hash(("matrix", self.oracle, self.dim))


def _common_oracle(parts):
    oracle = None
    for p in parts:
        if p.oracle is None:
            continue
        if oracle is None:
            oracle = p.oracle
        elif oracle != p.oracle:
            raise KindMismatchError("direct sum parts use incompatible group oracles")
    return oracle


def _sum_or_none(counts):
    """The sum of ``counts``, or None at the first None (an infinite part)."""
    total = 0
    for c in counts:
        if c is None:
            return None
        total += c
    return total


class DirectSum(Representation):
    """Blockwise action on the direct sum of the parts."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise PreconditionError("direct sum needs at least one part")
        for p in parts[:-1]:
            if p.leaf_count() is None:
                raise PreconditionError(
                    "a part with infinitely many copies must come last in a direct sum"
                )
        self.parts = parts
        self.oracle = _common_oracle(parts)

    def leaf_count(self):
        return _sum_or_none(p.leaf_count() for p in self.parts)

    def resolve(self, copy):
        if copy < 0:
            raise PreconditionError(f"copy index {copy} out of range")
        rest = copy
        for p in self.parts:
            c = p.leaf_count()
            if c is None or rest < c:
                return p.resolve(rest)
            rest -= c
        raise PreconditionError(f"copy index {copy} out of range")

    def part_offset(self, index: int) -> int:
        """Global leaf index where part ``index`` starts."""
        if not (0 <= index < len(self.parts)):
            raise PreconditionError(f"part index {index} out of range")
        # only the last part may be infinite, and it precedes no part
        return sum(p.leaf_count() for p in self.parts[:index])

    def total_dim(self):
        return _sum_or_none(p.total_dim() for p in self.parts)

    def __eq__(self, other):
        return isinstance(other, DirectSum) and other.parts == self.parts

    def __hash__(self):
        return hash(("direct-sum", tuple(self.parts)))


class Multiple(Representation):
    """``count`` copies of a base representation; ``count=None`` means countably many.

    Infinite multiples are lazy: copies exist only through their leaf
    indices, and the multiple records none of them.
    """

    def __init__(self, base: Representation, count: int | None):
        if base.leaf_count() is None:
            raise PreconditionError("cannot take multiples of an already infinite stack")
        if count is not None and (not isinstance(count, int) or count < 1):
            raise PreconditionError("copy count must be a positive integer or None")
        self.base = base
        self.count = count
        self.oracle = base.oracle

    def leaf_count(self):
        if self.count is None:
            return None
        return self.count * self.base.leaf_count()

    def resolve(self, copy):
        if copy < 0:
            raise PreconditionError(f"copy index {copy} out of range")
        bl = self.base.leaf_count()
        j = copy // bl
        if self.count is not None and j >= self.count:
            raise PreconditionError(
                f"copy index {copy} addresses copy {j} of a {self.count}-fold multiple"
            )
        return self.base.resolve(copy % bl)

    def total_dim(self):
        if self.count is None:
            return None
        d = self.base.total_dim()
        return None if d is None else d * self.count

    def __eq__(self, other):
        return (
            isinstance(other, Multiple)
            and other.base == self.base
            and other.count == self.count
        )

    def __hash__(self):
        return hash(("multiple", self.base, self.count))


def embed(rep: Representation, index: int, v: SparseVector) -> SparseVector:
    """Isometric inclusion of part/copy ``index`` into the composite space."""
    if isinstance(rep, DirectSum):
        if not same_space(v.space, rep.parts[index]):
            raise KindMismatchError("vector does not belong to the addressed summand")
        offset = rep.part_offset(index)
    elif isinstance(rep, Multiple):
        if not same_space(v.space, rep.base):
            raise KindMismatchError("vector does not belong to the base representation")
        if index < 0 or (rep.count is not None and index >= rep.count):
            raise PreconditionError(f"copy index {index} out of range")
        offset = index * rep.base.leaf_count()
    else:
        if index != 0 or not same_space(v.space, rep):
            raise KindMismatchError("atomic representation admits only the identity embedding")
        return v
    return SparseVector(rep, {(c + offset, k): amp for (c, k), amp in v.entries.items()})


class OrbitBlock:
    """pi(g) for every element g of a Cayley ball ``B``, acting on dense rows.

    On a finite tree whose leaves are all ``MatrixRep`` or ``Trivial``
    atoms, ``index`` is the tree's canonical keys and ``rows`` forms the
    orbit vectors along the ball's left tree: an element g != e of sphere k
    is s h, with h in sphere k - 1 (``B.left_tree``). Each
    ``MatrixRep`` leaf's rows at g are then its rows at h times sigma(s)^T,
    sigma(s) = ``leaf.matrix_of(s)``: one ``(n k, d) @ (d, d)`` product per
    (sphere, step) for n elements and k vectors, so O(d^2 k) flops and
    O(d k) memory per element, and no element's matrix is formed. A trivial
    leaf's columns, or those of one no vector touches, are copied. The rows
    of the last vectors asked for are carried forward: a call forms only
    the spheres through ``hi`` not formed yet, each whole, so rows asked
    for sphere by sphere equal one call's bit for bit. A tree with a
    ``Regular`` leaf, the only kind that can be infinite-dimensional, keeps
    ``apply``: each orbit vector is ``pi.apply(g, v)``, and ``index``, a copy
    of ``seed``, grows by the keys the rows reach. ``B`` None stands for the
    identity alone.
    """

    def __init__(self, pi: Representation, B=None, seed: KeyIndex | None = None):
        self.pi = pi
        self.ball = B
        self.size = 1 if B is None else len(B)
        n = pi.leaf_count()
        leaves = [None] if n is None else [pi.resolve(c) for c in range(n)]
        if not all(isinstance(a, _FiniteAtom) for a in leaves):
            self.leaves = None
            self.index = KeyIndex.of_keys(() if seed is None else seed.keys)
            return
        self.index = KeyIndex.of_keys((c, k) for c, a in enumerate(leaves) for k in range(a.dim))
        self.leaves, start = [], 0  # (columns, sigma(s)^T for each step s, or None for identity)
        for a in leaves:
            acting = None
            if B is not None and isinstance(a, MatrixRep):
                acting = [a.matrix_of(s).T for s in B.steps]
            self.leaves.append((slice(start, start + a.dim), acting))
            start += a.dim
        self._carried = None  # (vectors, rows) of the last vectors asked for
        self._formed = self._next = 0  # carried rows formed; next left-tree group to form

    def rows(self, vectors, lo=0, hi=None) -> np.ndarray:
        """``(hi - lo, len(vectors), len(index))``: pi(g)v, g the ball elements lo..hi-1 (outer).

        On a finite tree the rows are a read-only view of the carried ones.
        """
        hi = self.size if hi is None else hi
        vectors = list(vectors)
        if self.leaves is None:
            elements = [None] if self.ball is None else self.ball.elements[lo:hi]
            orbit = [v if g is None else self.pi.apply(g, v) for g in elements for v in vectors]
            self.index.add(orbit)
            return to_dense(orbit, self.index).reshape(hi - lo, len(vectors), len(self.index))
        column = self.index.column
        for v in vectors:
            for k in v.entries:
                if k not in column:
                    raise KindMismatchError(f"key {k!r} is not a coordinate of the representation")
        X = to_dense(vectors, self.index)
        if self._carried is None or not np.array_equal(self._carried[0], X):
            Y = np.empty((self.size, len(X), len(self.index)), dtype=complex)
            Y[0] = X
            self._carried, self._formed, self._next = (X, Y), 1, 0
        X, Y = self._carried
        if self._formed < hi:
            self._form(X, Y, hi)
        out = Y[lo:hi]
        out.flags.writeable = False
        return out

    def _form(self, X, Y, hi):
        """Form the rows ``Y`` of ``X`` past those formed, through the sphere holding element hi - 1."""
        B = self.ball
        end = int(B.sizes[np.searchsorted(B.sizes, hi)])
        acting = []
        for cols, sigma_t in self.leaves:
            x = X[:, cols]
            if sigma_t is None or not x.any():  # a leaf no vector touches is copied
                Y[self._formed:end, :, cols] = x
                continue
            acting.append((cols, sigma_t))
        tree = B.left_tree
        while self._next < len(tree) and tree[self._next][0] <= end:
            _stop, g, h, j = tree[self._next]
            for cols, sigma_t in acting:
                d = cols.stop - cols.start
                Y[g, :, cols] = (Y[h, :, cols].reshape(-1, d) @ sigma_t[j]).reshape(len(g), -1, d)
            self._next += 1
        self._formed = end


class Subspace:
    """Finite-dimensional closed subspace given by an orthonormal basis.

    Every subspace holds its basis as a ``(dim x keys)`` block ``Q`` over a
    ``KeyIndex`` of its support, stacked from basis vectors on construction
    or kept as given by ``from_block``: coordinates are ``Q.conj() @ v`` and
    ``from_coords(c)`` is ``c @ Q``. ``Subspace(ambient, basis)`` is the
    checked entry: it stacks the basis and refuses one that is not
    orthonormal to ``UNITARY_TOL``. ``from_block`` is the trusted one, for the rows of a
    ``gram_schmidt`` block the program built itself, and makes the sparse
    basis vectors only when ``basis`` is read. The basis must not be mutated.
    """

    def __init__(self, ambient: Representation, basis):
        self.ambient = ambient
        self._basis = list(basis)
        for b in self._basis:
            if not same_space(b.space, ambient):
                raise KindMismatchError("basis vector lives outside the ambient space")
        index = KeyIndex(self._basis)
        Q = to_dense(self._basis, index)
        self._block = (index, Q, Q.conj())
        defect = np.tril(np.abs(Q @ Q.conj().T - np.eye(len(Q))) > UNITARY_TOL)
        if defect.any():
            i, j = (int(t) for t in np.argwhere(defect)[0])
            raise PreconditionError(f"subspace basis not orthonormal at pair ({i}, {j})")

    @classmethod
    def from_block(cls, ambient: Representation, index: KeyIndex, Q: np.ndarray) -> "Subspace":
        """The span of the orthonormal rows of ``Q`` over ``index``, kept as given, unchecked."""
        sub = cls.__new__(cls)
        sub.ambient, sub._basis, sub._block = ambient, None, (index, Q, Q.conj())
        return sub

    @property
    def basis(self) -> list:
        if self._basis is None:
            index, Q, _Qc = self._block
            self._basis = from_dense(self.ambient, index, Q)
        return self._basis

    @property
    def dim(self):
        return len(self._block[1])

    def block(self):
        """``(index, Q, Q.conj())`` for the stacked basis."""
        return self._block

    def coords(self, v: SparseVector) -> np.ndarray:
        if not same_space(v.space, self.ambient):
            raise KindMismatchError("vector lives outside this subspace's ambient space")
        index, _Q, Qc = self.block()
        return Qc @ to_dense([v], index)[0]

    def from_coords(self, c) -> SparseVector:
        index, Q, _Qc = self.block()
        return from_dense(self.ambient, index, [np.asarray(c, dtype=complex) @ Q])[0]

    def project(self, v: SparseVector) -> SparseVector:
        if not same_space(v.space, self.ambient):
            raise KindMismatchError("vector lives outside this subspace's ambient space")
        return self.from_coords(self.coords(v))

    def residual(self, v: SparseVector) -> SparseVector:
        return v - self.project(v)


class Embedding:
    """Linear isometry from a finite-dimensional representation into another.

    ``images`` are the images of the source's canonical basis; they span a
    ``Subspace`` of the target, so they must be orthonormal there (always
    checked, to ``UNITARY_TOL``), and a vector maps to the combination of
    the images by its coordinates. Equivariance is a separate check used as
    a precondition by amalgamation.
    """

    def __init__(self, source, target, images):
        if source.total_dim() is None:
            raise PreconditionError("embedding source must be finite-dimensional")
        images = list(images)
        if len(images) != source.total_dim():
            raise PreconditionError(
                f"expected {source.total_dim()} basis images, got {len(images)}"
            )
        self.source = source
        self.target = target
        self._span = Subspace(target, images)
        self.images = self._span.basis
        self._index = KeyIndex(source.canonical_basis())

    @classmethod
    def identity(cls, rep):
        return cls(rep, rep, rep.canonical_basis())

    @classmethod
    def into_summand(cls, sum_rep: DirectSum, part_index: int):
        part = sum_rep.parts[part_index]
        images = [embed(sum_rep, part_index, b) for b in part.canonical_basis()]
        return cls(part, sum_rep, images)

    def __call__(self, v: SparseVector) -> SparseVector:
        if not same_space(v.space, self.source):
            raise KindMismatchError("vector does not belong to the embedding source")
        return self._span.from_coords(to_dense([v], self._index)[0])

    def equivariance_defect(self):
        """Worst generator and defect of intertwining over the source basis."""
        gens = self.source.oracle.generators if self.source.oracle else []
        if not gens and self.target.oracle is not None:
            gens = self.target.oracle.generators
        worst_s, worst = None, 0.0
        basis = self.source.canonical_basis()
        for s in gens:
            for b in basis:
                d = (self.target.apply(s, self(b)) - self(self.source.apply(s, b))).norm()
                if d > worst:
                    worst_s, worst = s, d
        return worst_s, worst


@dataclass
class Amalgam:
    """Composite of two extensions glued over a common subrepresentation."""

    rep: Representation
    embed_first: Embedding
    embed_second: Embedding


def _complement_rep(big: Representation, images, oracle):
    """Orthocomplement of the embedded subspace, compressed to a matrix action.

    The frame is the images followed by an orthonormal basis of their
    complement. Returns the complement's representation (None when it is
    zero) and the ``(dim big x dim frame)`` coordinates of ``big``'s
    canonical basis in the frame.
    """
    basis = big.canonical_basis()
    index = KeyIndex(images + basis)
    B = to_dense(basis, index)
    frame = gram_schmidt(B, seed=to_dense(images, index))
    coords = B @ frame.conj().T
    Q = frame[len(images):]
    if not len(Q):
        return None, coords
    if oracle is None:
        return Trivial(len(Q)), coords
    comp = from_dense(big, index, Q)
    # U[i, j] = <pi(s) q_j, q_i>
    mats = [Q.conj() @ to_dense([big.apply(s, q) for q in comp], index).T
            for s in oracle.generators]
    return MatrixRep(oracle, mats, unitary_tol=10 * RELATION_TOL), coords


def amalgamate(pi: Representation, into_first: Embedding, into_second: Embedding) -> Amalgam:
    """Glue two extensions of ``pi`` over their common copy of ``pi``.

    Both embeddings must be isometries of ``pi`` onto generator-invariant
    subspaces, intertwining the actions within ``RELATION_TOL``; the result acts as
    ``pi`` on the common part and by the compressed complement actions on
    the rest, together with isometric equivariant inclusions of both
    factors.
    """
    for emb, label in ((into_first, "first"), (into_second, "second")):
        if emb.source != pi:
            raise PreconditionError(f"{label} embedding does not start from the common part")
        if emb.target.total_dim() is None:
            raise PreconditionError("amalgamation requires finite-dimensional factors")
        s, d = emb.equivariance_defect()
        if d > RELATION_TOL:
            raise PreconditionError(
                f"embedded copy is not invariant in the {label} factor: "
                f"worst generator {s} with defect {d:.3g}"
            )
    oracle = _common_oracle([pi, into_first.target, into_second.target])
    factors = [(emb, *_complement_rep(emb.target, emb.images, oracle))
               for emb in (into_first, into_second)]
    amalgam = DirectSum([pi] + [comp for _emb, comp, _coords in factors if comp is not None])
    # columns of the amalgam's canonical basis: pi's, then each complement's in turn
    index = KeyIndex(amalgam.canonical_basis())
    n = pi.total_dim()
    start = n
    embeddings = []
    for emb, _comp, coords in factors:
        X = np.zeros((len(coords), len(index)), dtype=complex)
        X[:, :n] = coords[:, :n]
        X[:, start:start + coords.shape[1] - n] = coords[:, n:]
        start += coords.shape[1] - n
        embeddings.append(Embedding(emb.target, amalgam, from_dense(amalgam, index, X)))
    return Amalgam(amalgam, *embeddings)
