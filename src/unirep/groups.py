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
that is not canonical for that kind raises ``KindMismatchError``.

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
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    KindMismatchError,
    PreconditionError,
    ResourceLimitError,
)

DEFAULT_BALL_CAP = 100_000
DEFAULT_REWRITE_STEPS = 100_000

Element = object  # int | tuple[int, ...]
Word = tuple


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
    def order(self) -> Optional[int]:
        """Group order, or None when infinite (or not known to be finite)."""
        return None

    def elements_in_order(self) -> list:
        """Canonical enumeration of a finite group; error when infinite."""
        raise PreconditionError(f"{self.kind} oracle is not finitely enumerable")

    def as_word(self, a, cap: int = DEFAULT_BALL_CAP) -> Word:
        """Express ``a`` as a word in this oracle's generators (signed 1-based letters)."""
        return self._bfs_word(a, cap)

    # -- serialization ----------------------------------------------------
    def element_to_str(self, a) -> str:
        raise NotImplementedError

    def element_from_str(self, s: str):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------
    def _validate_generators(self):
        e = self.identity()
        for g in self.generators:
            self.check_element(g)
            if g == e:
                raise PreconditionError("generating set must not contain the identity")

    def _bfs_word(self, a, cap):
        """Breadth-first word lookup over the generating set, cached and resumable."""
        self.check_element(a)
        cache = getattr(self, "_word_cache", None)
        if cache is None:
            e = self.identity()
            cache = {e: ()}
            self._word_cache = cache
            self._word_frontier = [e]
        if a in cache:
            return cache[a]
        letters = []
        for i, g in enumerate(self.generators, start=1):
            letters.append((i, g))
            letters.append((-i, self.invert(g)))
        frontier = self._word_frontier
        while frontier:
            new_frontier = []
            for x in frontier:
                wx = cache[x]
                for letter, g in letters:
                    y = self._mul(x, g)
                    if y not in cache:
                        cache[y] = wx + (letter,)
                        new_frontier.append(y)
                        if len(cache) > cap:
                            self._word_frontier = new_frontier
                            raise ResourceLimitError(
                                f"word search cap {cap} exceeded while expressing an element"
                            )
            frontier = new_frontier
            self._word_frontier = frontier
            if a in cache:
                return cache[a]
        raise PreconditionError(
            "element is not generated by the oracle's generating set"
        )

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


class FreeGroupOracle(GroupOracle):
    """Free group of finite rank on the standard generating set."""

    kind = "free"

    def __init__(self, rank: int):
        super().__init__()
        if not isinstance(rank, int) or rank < 1:
            raise PreconditionError("free rank must be a positive integer")
        self.rank = rank
        self.generators = [(i,) for i in range(1, rank + 1)]

    def identity(self):
        return ()

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

    def as_word(self, a, cap: int = DEFAULT_BALL_CAP):
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

    def to_json(self):
        return {"kind": "free", "rank": self.rank}

    def __eq__(self, other):
        return isinstance(other, FreeGroupOracle) and other.rank == self.rank

    def __hash__(self):
        return hash(("free", self.rank))


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

    def _reduce(self, vec):
        return tuple(c % m if m else c for c, m in zip(vec, self.moduli))

    def identity(self):
        return (0,) * self.dim

    def multiply(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        return self._reduce(tuple(x + y for x, y in zip(a, b)))

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

    def generator_order(self, g):
        """Order of a single element, or None when infinite."""
        self.check_element(g)
        if any(c != 0 for c, m in zip(g, self.moduli) if m == 0):
            return None
        ords = [m // math.gcd(m, c) for c, m in zip(g, self.moduli) if m]
        return math.lcm(*ords) if ords else 1

    def as_word(self, a, cap: int = DEFAULT_BALL_CAP):
        self.check_element(a)
        if not self._standard_generators():
            return self._bfs_word(a, cap)
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

    def __eq__(self, other):
        return (
            isinstance(other, FgAbelianOracle)
            and other.moduli == self.moduli
            and other.generators == self.generators
        )

    def __hash__(self):
        return hash(("fg-abelian", self.moduli, tuple(self.generators)))


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
        self._check_associativity()
        self._inverse = [0] * n
        for a in range(n):
            self._inverse[a] = self.table[a].index(self._identity)
        self.generators = [int(g) for g in generators]
        self._validate_generators()
        if not self._generates():
            raise PreconditionError("generators do not generate the whole table group")

    def _find_identity(self):
        for e in range(self.n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.n)):
                return e
        raise PreconditionError("multiplication table has no identity element")

    def _check_associativity(self):
        n = self.n
        if n <= 40:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(12345)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(2000))
        for a, b, c in triples:
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise PreconditionError(f"multiplication table is not associative at {(a, b, c)}")

    def _generates(self):
        seen = {self._identity}
        frontier = [self._identity]
        steps = list(dict.fromkeys(list(self.generators) + [self._inverse[g] for g in self.generators]))
        if self.n == 1:
            return True
        while frontier:
            new = []
            for x in frontier:
                for s in steps:
                    y = self.table[x][s]
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return len(seen) == self.n

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

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTableOracle)
            and other.table == self.table
            and other.generators == self.generators
        )

    def __hash__(self):
        return hash(("finite-table", tuple(self.table), tuple(self.generators)))


class RewritingOracle(GroupOracle):
    """Group presented by a complete rewriting system over a signed letter alphabet.

    The system must be supplied already terminating and confluent; the free
    cancellation rules ``x x^-1 -> e`` are added automatically. Normal forms
    are computed in one left-to-right pass: input letters are pushed one at
    a time onto an output stack, which stays irreducible, so after each push
    only the stack's suffixes of the left-hand-side lengths can match. A
    match pops the left-hand side and pushes the right-hand side back onto
    the input. For a complete system every reduction strategy reaches the
    same normal form. Each rewrite counts one step against
    ``max_rewrite_steps``; rewriting that does not terminate within that cap
    raises ResourceLimitError naming it.
    """

    kind = "rewriting-presented"

    def __init__(self, num_generators: int, rules, max_rewrite_steps: int = DEFAULT_REWRITE_STEPS):
        super().__init__()
        if not isinstance(num_generators, int) or num_generators < 1:
            raise PreconditionError("rewriting oracle needs at least one generator")
        self.num_generators = num_generators
        self.max_rewrite_steps = max_rewrite_steps
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
        for lhs, rhs in cancel + norm_rules:
            self._rhs.setdefault(lhs, rhs)  # the first rule for a left-hand side wins
        # longest left-hand side first so overlapping rules fire deterministically
        self._lhs_lengths = sorted({len(lhs) for lhs in self._rhs}, reverse=True)
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
                    if steps > self.max_rewrite_steps:
                        raise ResourceLimitError(
                            f"rewriting step cap {self.max_rewrite_steps} exceeded"
                        )
                    break
        return tuple(out)

    def normalize(self, word):
        word = tuple(word)
        _check_word(word, self.num_generators, reduced=False)
        return self._rewrite((), word)

    def identity(self):
        return ()

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

    def as_word(self, a, cap: int = DEFAULT_BALL_CAP):
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

    def to_json(self):
        return {
            "kind": "rewriting-presented",
            "num_generators": self.num_generators,
            "rules": [[list(l), list(r)] for l, r in self.user_rules],
        }

    def __eq__(self, other):
        return (
            isinstance(other, RewritingOracle)
            and other.num_generators == self.num_generators
            and other.user_rules == self.user_rules
        )

    def __hash__(self):
        return hash(("rewriting", self.num_generators, tuple(self.user_rules)))


def symmetric_generators(oracle: GroupOracle, steps=None) -> list:
    """The step set S union S^-1 with duplicates removed, order preserved."""
    base = list(oracle.generators) if steps is None else list(steps)
    out = dict.fromkeys(base)
    for s in base:
        out.setdefault(oracle.invert(s))
    return list(out)


@dataclass
class Ball:
    """Cayley ball: breadth-first enumeration of all products of at most ``radius`` steps.

    ``steps`` is the step list S union S^-1 the search walks, ``index`` maps
    each element to its position in ``elements``, and ``sizes[k]`` is the
    number of elements of word length at most k, for k = 0..radius: the
    radius-k ball is the prefix ``elements[:sizes[k]]``. The neighbour
    tables are ``(len(elements), len(steps))`` intp arrays: ``right[i, j]``
    is the position of ``elements[i] * steps[j]`` and ``left[i, j]`` that of
    ``steps[j] * elements[i]``, or -1 where the product lies outside the ball.
    """

    radius: int
    elements: list
    index: dict
    steps: list
    sizes: np.ndarray
    right: np.ndarray
    left: np.ndarray

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def sphere(self, k: int) -> list:
        return self.elements[self.sizes[k - 1] if k else 0:self.sizes[k]]

    def edges(self, n: int):
        """``rows``, ``cols`` of the edges x -> s x with both ends among the first ``n`` elements.

        ``cols`` ascend, and the edges out of one element follow the step order.
        """
        rows = self.left[:n].ravel()
        cols = np.repeat(np.arange(n), len(self.steps))
        inside = (rows >= 0) & (rows < n)
        return rows[inside], cols[inside]


def ball(oracle: GroupOracle, r: int, cap: int = DEFAULT_BALL_CAP, S=None) -> Ball:
    """Breadth-first Cayley ball of radius ``r`` over S union S^-1 (the generators by default).

    The search multiplies every element on the right by every step, the
    last sphere included, whose products only fill its rows of ``right``.
    ``left`` needs no further product: an element x found as p * steps[a]
    from its parent p one sphere closer has s * x = (s * p) * steps[a],
    where s * p lies in the ball, so each sphere's rows are one gather of
    ``right`` at its parents' ``left`` rows.
    """
    if not isinstance(r, int) or r < 0:
        raise PreconditionError("ball radius must be a non-negative integer")
    steps = symmetric_generators(oracle, S)
    mul = oracle._mul
    e = oracle.identity()
    elements, index = [e], {e: 0}
    parent, letter = [0], [0]
    right = []  # row-major (element, step) positions
    sizes = [1]
    lo = 0
    for radius in range(1, r + 1):
        hi = len(elements)
        for i in range(lo, hi):
            x = elements[i]
            for j, s in enumerate(steps):
                y = mul(x, s)
                k = index.get(y)
                if k is None:
                    k = index[y] = len(elements)
                    elements.append(y)
                    parent.append(i)
                    letter.append(j)
                    if k >= cap:
                        raise ResourceLimitError(
                            f"ball element cap {cap} exceeded at radius {radius}"
                        )
                right.append(k)
        lo = hi
        sizes.append(len(elements))
    for x in elements[lo:]:  # the last sphere adds nothing; its products fill its rows
        right.extend([index.get(mul(x, s), -1) for s in steps])
    right = np.array(right, dtype=np.intp).reshape(len(elements), len(steps))
    parent = np.array(parent, dtype=np.intp)
    letter = np.array(letter, dtype=np.intp)
    left = np.empty_like(right)
    left[0] = right[0]
    for a, b in zip(sizes, sizes[1:]):
        left[a:b] = right[left[parent[a:b]], letter[a:b, None]]
    return Ball(r, elements, index, steps, np.array(sizes), right, left)
