"""Exact arithmetic and Cayley-ball enumeration for the supported group families.

Group elements are plain hashable payloads in canonical form:

* free kind: reduced words as tuples of signed 1-based generator indices,
  e.g. ``(1, -2)`` for ``a b^-1``; the empty tuple is the identity;
* fg-abelian kind: integer exponent tuples, torsion coordinates reduced
  into ``[0, m)``;
* finite-table kind: row indices into the multiplication table;
* rewriting kind: words over the signed alphabet in normal form under a
  user-supplied complete (terminating and confluent) rewriting system.

An oracle interprets payloads of its own kind only; feeding it a payload
that is not canonical for that kind raises ``KindMismatchError``. Each
oracle also presents its group: ``relations`` lists word pairs that,
with the free cancellations, define it on the oracle's generators.

``ball`` is the one Cayley-graph search: words with no closed form and a
table's generation check read its breadth-first tree. An oracle holds no
state beyond what its construction sets.

Validation happens at the boundary. The public operations (``multiply``,
``invert``, ``check_element``, ``element_from_str`` and the rewriting
oracle's ``normalize``) check every payload they are given. Each oracle's
private ``_mul`` is the same product without the checks: it trusts its
operands to be canonical, and is called only on elements the oracle
produced (the identity, generators, step sets already passed through the
validating ``invert``, and products of these) or that a public check has
already accepted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Optional, Sequence

import numpy as np

from .errors import (
    KindMismatchError,
    PreconditionError,
    ResourceLimitError,
)

DEFAULT_BALL_CAP = 100_000
DEFAULT_REWRITE_STEPS = 100_000


class GroupOracle:
    """Arithmetic interface for a countable discrete group with a finite generating set."""

    kind: str = "abstract"

    def __init__(self):
        self.generators: list = []

    # -- arithmetic -------------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        """The product of canonical ``a`` and ``b``, with no checks."""
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def check_element(self, a) -> None:
        """Raise KindMismatchError unless ``a`` is canonical for this oracle."""
        raise NotImplementedError

    # -- structure --------------------------------------------------------
    def relations(self) -> list:
        """Pairs (u, v) of words equal in the group that, with free cancellation, present it.

        Letter i is generator i and -i its inverse. Built on each call.
        """
        raise NotImplementedError

    def order(self) -> Optional[int]:
        """Group order, or None when infinite (or not known to be finite)."""
        return None

    def elements_in_order(self) -> list:
        """Canonical enumeration of a finite group; error when infinite."""
        raise PreconditionError(f"{self.kind} oracle is not finitely enumerable")

    def word_ball(self, a) -> Optional[Ball]:
        """The first ball of radius 1, 2, 4, ... holding ``a``; None where ``as_word`` has a closed form.

        At distance d >= 1, ceil(log2 d) + 1 ball builds in O(|ball|) memory,
        nothing kept on the oracle. Raises ``ball``'s ResourceLimitError past
        ``DEFAULT_BALL_CAP`` elements (read at each call), naming the radius,
        and PreconditionError once a ball closes under its steps without ``a``.
        """
        self.check_element(a)
        r = 1
        while a not in (B := ball(self, r, DEFAULT_BALL_CAP)):
            if (B.right >= 0).all():
                raise PreconditionError("element is not generated by the oracle's generating set")
            r *= 2
        return B

    def as_word(self, a) -> tuple:
        """Express ``a`` as a shortest word in this oracle's generators (signed 1-based letters).

        Read off the tree of ``word_ball(a)``, at its cost and with its errors.
        """
        B = self.word_ball(a)
        letters, word, i = list(generator_letters(self).values()), [], B.index[a]
        while i:
            word.append(letters[B.letter[i]])
            i = B.parent[i]
        return tuple(reversed(word))

    # -- serialization ----------------------------------------------------
    def element_to_str(self, a) -> str:
        raise NotImplementedError

    def element_from_str(self, s: str):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _key(self) -> tuple:
        """The data that defines this oracle: what ``to_json`` writes, hashable."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash((type(self), self._key()))

    # -- shared helpers ---------------------------------------------------
    def _validate_generators(self):
        e = self.identity()
        for g in self.generators:
            self.check_element(g)
            if g == e:
                raise PreconditionError("generating set must not contain the identity")

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_json()}>"


def _check_word(word, rank, reduced=True):
    if not isinstance(word, tuple):
        raise KindMismatchError(f"expected a word tuple, got {type(word).__name__}")
    for x in word:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise KindMismatchError(f"letter {x!r} out of range for rank {rank}")
    if reduced:
        for u, v in zip(word, word[1:]):
            if u == -v:
                raise KindMismatchError(f"word {word} is not freely reduced")


class _WordOracle(GroupOracle):
    """An oracle whose elements are words over signed 1-based letters, each its own word.

    The identity is the empty word, spelled ``e``; other words are spelled as
    their letters separated by spaces.
    """

    def identity(self):
        return ()

    def word_ball(self, a):
        return None

    def as_word(self, a):
        self.check_element(a)
        return a

    def element_to_str(self, a):
        return "e" if not a else " ".join(str(x) for x in a)

    def element_from_str(self, s):
        s = s.strip()
        if s in ("", "e"):
            return ()
        word = tuple(int(tok) for tok in s.split())
        self.check_element(word)
        return word


class FreeGroupOracle(_WordOracle):
    """Free group of finite rank on the standard generating set."""

    kind = "free"

    def __init__(self, rank: int):
        super().__init__()
        if not isinstance(rank, int) or rank < 1:
            raise PreconditionError("free rank must be a positive integer")
        self.rank = rank
        self.generators = [(i,) for i in range(1, rank + 1)]

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        # both words are reduced, so cancellation happens only at the junction
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return a[: len(a) - k] + b[k:]

    def invert(self, a):
        self.check_element(a)
        return tuple(-x for x in reversed(a))

    def check_element(self, a):
        _check_word(a, self.rank)

    def relations(self):
        return []

    def to_json(self):
        return {"kind": "free", "rank": self.rank}

    def _key(self):
        return (self.rank,)


class FgAbelianOracle(GroupOracle):
    """Finitely generated abelian group Z^rank x prod Z/m_i, exponent-vector arithmetic."""

    kind = "fg-abelian"

    def __init__(self, rank: int, torsion: Sequence[int] = (), generators=None):
        super().__init__()
        if not isinstance(rank, int) or rank < 0:
            raise PreconditionError("abelian rank must be a non-negative integer")
        torsion = tuple(int(m) for m in torsion)
        for m in torsion:
            if m < 2:
                raise PreconditionError("torsion moduli must be at least 2")
        self.rank = rank
        self.torsion = torsion
        self.moduli = (0,) * rank + torsion
        self.dim = len(self.moduli)
        if generators is None:
            generators = [
                tuple(1 if j == i else 0 for j in range(self.dim))
                for i in range(self.dim)
            ]
        self.generators = [self._reduce(tuple(int(c) for c in g)) for g in generators]
        if self.dim > 0 and not self.generators:
            raise PreconditionError("a nontrivial abelian oracle needs generators")
        self._validate_generators()
        # with no free part, the generators and the m_i e_i must span Z^dim: every pivot is +-1
        if rank == 0 and any(abs(p) != 1 for p in self._eliminate()[0]):
            raise PreconditionError("generators do not generate the whole group")

    def _reduce(self, vec):
        return tuple(c % m if m else c for c, m in zip(vec, self.moduli))

    def _eliminate(self):
        """Integer row reduction of the rows (g_i | e_i) and (m_t e_t | 0), one column at a time.

        Extended Euclid folds each column into one pivot row, set aside.
        Returns the pivot entries and the right parts c of the rows left with
        a zero left part: a basis of the integer relations sum c_i g_i = 0.
        """
        k = len(self.generators)
        rows = [list(g) + [int(i == j) for j in range(k)] for i, g in enumerate(self.generators)]
        pivots = []
        for col, m in enumerate(self.moduli):
            pivot = [m if j == col else 0 for j in range(self.dim + k)]
            for i, r in enumerate(rows):
                while r[col]:
                    q = pivot[col] // r[col]
                    pivot, r = r, [a - q * b for a, b in zip(pivot, r)]
                rows[i] = r
            pivots.append(pivot[col])
        return pivots, [r[self.dim:] for r in rows if any(r)]

    def identity(self):
        return (0,) * self.dim

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        # one tuple build; only the torsion coordinates are reduced
        if not self.torsion:
            return tuple(map(add, a, b))
        c = list(map(add, a, b))
        for i, m in enumerate(self.torsion, self.rank):
            c[i] %= m
        return tuple(c)

    def invert(self, a):
        self.check_element(a)
        return self._reduce(tuple(-x for x in a))

    def check_element(self, a):
        if not isinstance(a, tuple) or len(a) != self.dim:
            raise KindMismatchError(
                f"expected an exponent tuple of length {self.dim}, got {a!r}"
            )
        for c, m in zip(a, self.moduli):
            if not isinstance(c, int):
                raise KindMismatchError(f"non-integer coordinate {c!r}")
            if m and not (0 <= c < m):
                raise KindMismatchError(f"torsion coordinate {c} not reduced mod {m}")

    def order(self):
        if self.rank > 0:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def elements_in_order(self):
        if self.rank > 0:
            raise PreconditionError("fg-abelian oracle with free part is infinite")
        return [tuple(t) for t in itertools.product(*(range(m) for m in self.torsion))]

    def _standard_generators(self):
        return self.generators == [
            tuple(1 if j == i else 0 for j in range(self.dim)) for i in range(self.dim)
        ]

    def relations(self):
        """The generators commute, and each relation c of ``_eliminate`` is a word equal to e."""
        letters = range(1, len(self.generators) + 1)
        pairs = [((i, j), (j, i)) for i, j in itertools.combinations(letters, 2)]
        for c in self._eliminate()[1]:
            word = [i if ci > 0 else -i for i, ci in enumerate(c, 1) for _ in range(abs(ci))]
            pairs.append((tuple(word), ()))
        return pairs

    def word_ball(self, a):
        return None if self._standard_generators() else super().word_ball(a)

    def as_word(self, a):
        if not self._standard_generators():
            return super().as_word(a)
        self.check_element(a)
        word = []
        for i, (c, m) in enumerate(zip(a, self.moduli), start=1):
            if m and c > m // 2:
                c = c - m
            word.extend([i if c > 0 else -i] * abs(c))
        return tuple(word)

    def element_to_str(self, a):
        return ",".join(str(c) for c in a)

    def element_from_str(self, s):
        s = s.strip()
        vec = tuple(int(tok) for tok in s.split(",")) if s else ()
        self.check_element(vec)
        return vec

    def to_json(self):
        out = {"kind": "fg-abelian", "rank": self.rank, "torsion": list(self.torsion)}
        if not self._standard_generators():
            out["generators"] = [list(g) for g in self.generators]
        return out

    def _key(self):
        return (self.rank, self.torsion, tuple(self.generators))


class FiniteTableOracle(GroupOracle):
    """Finite group given by a full multiplication table over indices 0..n-1."""

    kind = "finite-table"

    def __init__(self, table, generators):
        super().__init__()
        n = len(table)
        if n == 0:
            raise PreconditionError("multiplication table must be nonempty")
        self.n = n
        self.table = [tuple(int(x) for x in row) for row in table]
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise PreconditionError("multiplication table must be square with in-range entries")
            if len(set(row)) != n:
                raise PreconditionError("multiplication table rows must be permutations")
        for j in range(n):
            col = {self.table[i][j] for i in range(n)}
            if len(col) != n:
                raise PreconditionError("multiplication table columns must be permutations")
        self._identity = self._find_identity()
        self._inverse = [row.index(self._identity) for row in self.table]
        self.generators = [int(g) for g in generators]
        self._validate_generators()
        self._check_associativity()  # before the first ball, which pairs each x s with (x s) s^-1
        if len(ball(self, n - 1, n)) != n:
            raise PreconditionError("generators do not generate the whole table group")

    def _find_identity(self):
        for e in range(self.n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.n)):
                return e
        raise PreconditionError("multiplication table has no identity element")

    def _check_associativity(self):
        """Light's test on the steps: (x s) y = x (s y) for every step s and all x, y.

        The middle elements b with (x b) y = x (b y) for all x, y are closed
        under products, and the steps generate the table (checked next, before
        the oracle is returned), so this proves associativity for every triple
        in O(n^2 |S|). With y = s^-1 it proves (x s) s^-1 = x, which ``ball``
        assumes.
        """
        T = np.array(self.table, dtype=np.intp)
        for s in symmetric_generators(self):
            bad = np.argwhere(T[T[:, s]] != T[:, T[s]])
            if len(bad):
                x, y = (int(t) for t in bad[0])
                raise PreconditionError(f"multiplication table is not associative at {(x, s, y)}")

    def relations(self):
        """w_x a = w_xa for each element x and letter a = +-i, w_x the path to x in the ball's tree.

        The saturated ball's breadth-first tree gives this Reidemeister-Schreier
        presentation; x runs in tree order, so each w_x is a right side before a prefix.
        """
        B = ball(self, self.n - 1, self.n)
        letters = list(generator_letters(self).values())
        words = {self._identity: ()}
        for x, p, j in zip(B.elements[1:], B.parent[1:], B.letter[1:]):
            words[x] = words[B.elements[p]] + (letters[j],)
        return [(words[x] + (a,), words[self.table[x][g if a > 0 else self._inverse[g]]])
                for x in B.elements for i, g in enumerate(self.generators, 1) for a in (i, -i)]

    def identity(self):
        return self._identity

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        return self.table[a][b]

    def invert(self, a):
        self.check_element(a)
        return self._inverse[a]

    def check_element(self, a):
        if not isinstance(a, int) or not (0 <= a < self.n):
            raise KindMismatchError(f"expected a table index in [0, {self.n}), got {a!r}")

    def order(self):
        return self.n

    def elements_in_order(self):
        return list(range(self.n))

    def element_to_str(self, a):
        return str(a)

    def element_from_str(self, s):
        a = int(s.strip())
        self.check_element(a)
        return a

    def to_json(self):
        return {
            "kind": "finite-table",
            "table": [list(row) for row in self.table],
            "generators": list(self.generators),
        }

    def _key(self):
        return (tuple(self.table), tuple(self.generators))


class RewritingOracle(_WordOracle):
    """Group presented by a complete rewriting system over a signed letter alphabet.

    The system must be supplied already terminating and confluent; the free
    cancellation rules ``x x^-1 -> e`` are added automatically, and a rule
    whose left-hand side another rule (a cancellation rule included)
    rewrites to a different right-hand side is refused, as is a rule whose
    left-hand side holds a cancellation pair (it never fires) and whose
    sides have different normal forms. Normal forms
    are computed in one left-to-right pass: input letters are pushed one at
    a time onto an output stack, which stays irreducible, so after each push
    only the stack's suffixes of the left-hand-side lengths can match. A
    match pops the left-hand side and pushes the right-hand side back onto
    the input. For a complete system every reduction strategy reaches the
    same normal form. Each rewrite counts one step against
    ``DEFAULT_REWRITE_STEPS`` (read at each normal form); rewriting that
    does not terminate within that cap raises ResourceLimitError naming it.
    """

    kind = "rewriting-presented"

    def __init__(self, num_generators: int, rules):
        super().__init__()
        if not isinstance(num_generators, int) or num_generators < 1:
            raise PreconditionError("rewriting oracle needs at least one generator")
        self.num_generators = num_generators
        norm_rules = []
        for lhs, rhs in rules:
            lhs = tuple(int(x) for x in lhs)
            rhs = tuple(int(x) for x in rhs)
            _check_word(lhs, num_generators, reduced=False)
            _check_word(rhs, num_generators, reduced=False)
            if not lhs:
                raise PreconditionError("rewriting rule left-hand sides must be nonempty")
            norm_rules.append((lhs, rhs))
        self.user_rules = norm_rules
        cancel = []
        for i in range(1, num_generators + 1):
            cancel.append(((i, -i), ()))
            cancel.append(((-i, i), ()))
        self._rhs = {}
        spell = self.element_to_str
        for lhs, rhs in cancel + norm_rules:
            first = self._rhs.setdefault(lhs, rhs)
            if first != rhs:
                raise PreconditionError(
                    f"rewriting rules {spell(lhs)} -> {spell(first)} and {spell(lhs)} -> "
                    f"{spell(rhs)} share a left-hand side")
        # longest left-hand side first so overlapping rules fire deterministically
        self._lhs_lengths = sorted({len(lhs) for lhs in self._rhs}, reverse=True)
        # the normal-form stack never holds x x^-1, so a rule on such a pair never
        # fires; ``relations()`` reports it, so its sides must already agree
        for lhs, rhs in norm_rules:
            if any(a == -b for a, b in zip(lhs, lhs[1:])):
                lhs_nf, rhs_nf = self._rewrite((), lhs), self._rewrite((), rhs)
                if lhs_nf != rhs_nf:
                    raise PreconditionError(
                        f"rewriting rule {spell(lhs)} -> {spell(rhs)} never fires, and its "
                        f"sides have the different normal forms {spell(lhs_nf)} and "
                        f"{spell(rhs_nf)}")
        self.generators = [(i,) for i in range(1, num_generators + 1)]

    def _rewrite(self, stack, word):
        """Normal form of ``stack + word`` for an irreducible ``stack``."""
        out = list(stack)
        todo = list(reversed(word))  # the input, next letter last
        rhs_of, lengths = self._rhs, self._lhs_lengths
        steps = 0
        while todo:
            out.append(todo.pop())
            n = len(out)
            for k in lengths:
                rhs = rhs_of.get(tuple(out[n - k:])) if k <= n else None
                if rhs is not None:
                    del out[n - k:]
                    todo.extend(reversed(rhs))
                    steps += 1
                    if steps > DEFAULT_REWRITE_STEPS:
                        raise ResourceLimitError(
                            f"rewriting step cap {DEFAULT_REWRITE_STEPS} exceeded"
                        )
                    break
        return tuple(out)

    def relations(self):
        """Each user rule's left side equals its right side."""
        return list(self.user_rules)

    def normalize(self, word):
        word = tuple(word)
        _check_word(word, self.num_generators, reduced=False)
        return self._rewrite((), word)

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        return self._rewrite(a, b)

    def invert(self, a):
        self.check_element(a)
        return self._rewrite((), tuple(-x for x in reversed(a)))

    def check_element(self, a):
        _check_word(a, self.num_generators, reduced=False)
        if self._rewrite((), a) != a:
            raise KindMismatchError(f"word {a} is not in rewriting normal form")

    def to_json(self):
        return {
            "kind": "rewriting-presented",
            "num_generators": self.num_generators,
            "rules": [[list(l), list(r)] for l, r in self.user_rules],
        }

    def _key(self):
        return (self.num_generators, tuple(self.user_rules))


def symmetric_generators(oracle: GroupOracle, steps=None) -> list:
    """The step set S union S^-1 with duplicates removed, order preserved."""
    return list(generator_letters(oracle, steps))


def generator_letters(oracle: GroupOracle, steps=None) -> dict:
    """Each step of ``symmetric_generators(oracle, steps)``, in order, to its signed 1-based letter.

    Letter i stands for S[i - 1] and -i for its inverse; S is the generators by default.
    """
    base = list(oracle.generators) if steps is None else list(steps)
    out = {}
    for sign in (1, -1):
        for i, s in enumerate(base, start=1):
            out.setdefault(s if sign > 0 else oracle.invert(s), sign * i)
    return out


@dataclass
class Ball:
    """Cayley ball: breadth-first enumeration of all products of at most ``radius`` steps.

    ``oracle`` is the group searched, ``steps`` is the step list S union
    S^-1 the search walks, ``index`` maps each element to its position in
    ``elements``, and ``sizes[k]`` is the number of elements of word length
    at most k, for k = 0..radius: the radius-k ball is the prefix
    ``elements[:sizes[k]]``. The neighbour tables are ``(len(elements),
    len(steps))`` intp arrays: ``right[i, j]`` is the position of
    ``elements[i] * steps[j]`` and ``left[i, j]`` that of ``steps[j] *
    elements[i]``, or -1 where the product lies outside the ball.
    ``parent`` and ``letter`` are the breadth-first tree: element i > 0 was
    found as ``elements[parent[i]] * steps[letter[i]]``, one sphere closer.
    ``in_neighbours`` is the walk's in-neighbour table, ``left_tree``
    the tree of left steps and ``spelling`` the position of each element's
    string, each built once per ball when first read; ``left_column(g)`` is
    the index map of left multiplication by any g.
    """

    oracle: GroupOracle
    radius: int
    elements: list
    index: dict
    steps: list
    sizes: np.ndarray
    right: np.ndarray
    left: np.ndarray
    parent: np.ndarray
    letter: np.ndarray

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def left_column(self, g) -> np.ndarray:
        """The position of g * x for each element x, in ball order; -1 where it leaves the ball.

        ``arange`` for the identity and ``left[:, j]`` for a step; any other g
        is checked once (``KindMismatchError`` if malformed), then takes one
        unchecked product per element and an index lookup: each x is an
        element the ball built.
        """
        if g == self.oracle.identity():
            return np.arange(len(self))
        if g in self.steps:
            return self.left[:, self.steps.index(g)]
        self.oracle.check_element(g)
        mul, index = self.oracle._mul, self.index
        return np.array([index.get(mul(g, x), -1) for x in self.elements], dtype=np.intp)

    @cached_property
    def in_neighbours(self) -> np.ndarray:
        """The ``(len(steps), len(elements))`` table whose column i is row i of ``left``, ascending.

        The steps are closed under inverses, so column i lists the elements y
        with s y = ``elements[i]`` for a step s: the tails of the edges
        y -> s y into i, ascending. An entry -1 (outside the ball) becomes
        ``len(elements)``, past every index. An odd-even transposition network
        sorts the columns: len(steps) rounds of compare-exchanges of adjacent
        rows. A first ``np.sort`` call would raise the peak resident set by
        about 0.25 MB.
        """
        table = np.where(self.left < 0, len(self), self.left).T.copy()
        for k in range(len(table)):
            for a in range(k % 2, len(table) - 1, 2):
                pair = table[a:a + 2]  # compare-exchange rows a and a + 1
                pair[:] = pair.min(axis=0), pair.max(axis=0)
        return table

    @cached_property
    def left_tree(self) -> list:
        """``(stop, g, h, j)`` per (sphere, step): the elements g = steps[j] * h of one sphere.

        ``stop`` is ``sizes[k]`` for the sphere k of g, ``g`` its positions
        reached by step j, ascending, and ``h`` their first in-neighbours
        (``in_neighbours[0]``), so ``left[h, j] = g``. The in-neighbours of an
        element of sphere k >= 1 lie in spheres k - 1..k + 1, one at least in
        k - 1 since the steps are closed under inverses, and the ball lists
        spheres in order: the first lies in sphere k - 1. The groups ascend
        by sphere, then by step.
        """
        g = np.arange(1, len(self))
        if not len(g):
            return []
        h = self.in_neighbours[0, 1:]
        j = np.argmax(self.left[h] == g[:, None], axis=1)
        stop = self.sizes[np.searchsorted(self.sizes, g, side="right")]
        order = np.lexsort((j, stop))
        g, h, j, stop = g[order], h[order], j[order], stop[order]
        cuts = [0, *(np.flatnonzero((np.diff(stop) != 0) | (np.diff(j) != 0)) + 1), len(g)]
        return [(int(stop[a]), g[a:b], h[a:b], int(j[a])) for a, b in zip(cuts, cuts[1:])]

    @cached_property
    def spelling(self) -> dict:
        """Each element's string, ``oracle.element_to_str(x)``, to the position of x."""
        return {self.oracle.element_to_str(x): i for i, x in enumerate(self.elements)}


def ball(oracle: GroupOracle, r: int, cap: int = DEFAULT_BALL_CAP, S=None) -> Ball:
    """Breadth-first Cayley ball of radius ``r`` over S union S^-1 (the generators by default).

    The search makes one product per Cayley-graph edge. A product
    y = x * s found at position k also gives ``right[k, inverse of s] = x``,
    since y * s^-1 = x in a group, and an entry already known is skipped with
    no product; such an entry always names an element already found, so the
    discovery order is that of multiplying every element by every step. That
    the oracle is a group is the oracle's premise: a table is checked
    associative before its first ball, and a rewriting system is trusted to
    be complete (a non-confluent one broke the every-product ball too); a
    step whose inverse is not a step is refused. The last sphere adds
    nothing; its products only fill its rows of ``right``, -1 where they
    leave the ball.
    ``left`` needs no further product: an element x found as p * steps[a]
    from its parent p one sphere closer has s * x = (s * p) * steps[a],
    where s * p lies in the ball, so each sphere's rows are one gather of
    ``right`` at its parents' ``left`` rows.
    """
    if not isinstance(r, int) or r < 0:
        raise PreconditionError("ball radius must be a non-negative integer")
    steps = symmetric_generators(oracle, S)
    m = len(steps)
    position = {s: j for j, s in enumerate(steps)}
    inverse = [position.get(oracle.invert(s), -1) for s in steps]
    if -1 in inverse:
        s = steps[inverse.index(-1)]
        raise PreconditionError(
            f"the inverse {oracle.element_to_str(oracle.invert(s))} of step "
            f"{oracle.element_to_str(s)} is not a step, so the oracle is not a group")
    paired = list(zip(range(m), steps, inverse))
    unknown = [None] * m
    mul = oracle._mul
    e = oracle.identity()
    elements, index = [e], {e: 0}
    parent, letter = [0], [0]
    right = list(unknown)  # row-major (element, step) positions, None until known
    sizes, lo = [], 0
    for radius in range(1, r + 2):  # the pass at r + 1 adds nothing: it fills the last rows
        hi = len(elements)
        sizes.append(hi)
        for i in range(lo, hi):
            x, row = elements[i], i * m
            for j, s, t in paired:
                if right[row + j] is not None:
                    continue
                y = mul(x, s)
                k = index.get(y)
                if k is None:
                    if radius > r:  # the product leaves the ball
                        right[row + j] = -1
                        continue
                    k = index[y] = len(elements)
                    elements.append(y)
                    parent.append(i)
                    letter.append(j)
                    right.extend(unknown)
                    if k >= cap:
                        raise ResourceLimitError(
                            f"ball element cap {cap} exceeded at radius {radius}"
                        )
                right[row + j] = k
                right[k * m + t] = i
        lo = hi
    right = np.array(right, dtype=np.intp).reshape(len(elements), m)
    parent = np.array(parent, dtype=np.intp)
    letter = np.array(letter, dtype=np.intp)
    left = np.empty_like(right)
    left[0] = right[0]
    for a, b in zip(sizes, sizes[1:]):
        left[a:b] = right[left[parent[a:b]], letter[a:b, None]]
    return Ball(oracle, r, elements, index, steps, np.array(sizes), right, left, parent, letter)
