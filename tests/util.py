"""Shared helpers for the test suite: oracle builders, random data, dense references, and
the one decoder of written reports."""

import base64
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from unirep import (
    FgAbelianOracle,
    FiniteTableOracle,
    FreeGroupOracle,
    MatrixRep,
    RewritingOracle,
    SparseVector,
    ball,
    delta,
    symmetric_generators,
)


def z_oracle():
    return FgAbelianOracle(1)


def z2_oracle():
    return FgAbelianOracle(2)


def f2_oracle():
    return FreeGroupOracle(2)


def cyclic_table(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteTableOracle(table, [1] if n > 1 else [])


def s4_table():
    """S4 on a transposition and a 4-cycle; row p, column q holds the composite p o q."""
    perms = list(itertools.permutations(range(4)))
    table = [[perms.index(tuple(p[q[i]] for i in range(4))) for q in perms] for p in perms]
    return FiniteTableOracle(table, [perms.index((1, 0, 2, 3)), perms.index((1, 2, 3, 0))])


def swapped_intercalate_table():
    """Z/200's table with the intercalate at rows 3, 103 and columns 5, 105 swapped.

    It is still a Latin square with identity 0, but 3,152 of its 8,000,000
    triples are not associative, (2, 1, 5) the first: in the table
    (2 * 1) * 5 = 3 * 5 = 108 but 2 * (1 * 5) = 2 * 6 = 8.
    """
    table = [[(i + j) % 200 for j in range(200)] for i in range(200)]
    for i in (3, 103):
        table[i][5], table[i][105] = table[i][105], table[i][5]
    return table


def z2_rewriting():
    rules = [
        [[2, 1], [1, 2]],
        [[2, -1], [-1, 2]],
        [[-2, 1], [1, -2]],
        [[-2, -1], [-1, -2]],
    ]
    return RewritingOracle(2, rules)


# the Heisenberg group on x, y, z = [x, y]: normal forms x^a y^b z^c (12 rules)
H3_RULES = [[[2, 1], [1, 2, -3]], [[2, -1], [-1, 2, 3]], [[-2, 1], [1, -2, 3]],
            [[-2, -1], [-1, -2, -3]]] + [[[z, x], [x, z]] for z in (3, -3) for x in (1, -1, 2, -2)]


def h3_rewriting():
    return RewritingOracle(3, H3_RULES)


# PSL(2, Z) = Z/2 * Z/3 on an involution a and b of order 3: normal forms alternate a with b or B
PSL2Z_RULES = [[[1, 1], []], [[-1], [1]], [[2, 2], [-2]], [[-2, -2], [2]]]


def psl2z_rewriting():
    return RewritingOracle(2, PSL2Z_RULES)


# D_inf = Z/2 * Z/2 on two involutions: aa -> e, A -> a, bb -> e, B -> b
D_INF_RULES = [[[1, 1], []], [[-1], [1]], [[2, 2], []], [[-2], [2]]]


def dinf_rewriting():
    return RewritingOracle(2, D_INF_RULES)


def z_on_2_3():
    """Z generated by 2 and 3: its words come from a search ball, and g1 g1 g1 = g2 g2."""
    return FgAbelianOracle(1, [], [(2,), (3,)])


def z3_rewriting():
    return RewritingOracle(1, [[[1, 1], [-1]], [[-1, -1], [1]]])


def every_product_ball(oracle, r, S=None):
    """The ball's tables by multiplying every element by every step, as a dict of arrays.

    The reference for ``ball``: the same breadth-first order, with no product
    read off another. Returns ``elements``, ``sizes``, ``right``, ``left``,
    ``parent`` and ``letter``.
    """
    steps = symmetric_generators(oracle, S)
    e = oracle.identity()
    elements, index, parent, letter, sizes = [e], {e: 0}, [0], [0], [1]
    lo = 0
    for _ in range(r):
        hi = len(elements)
        for i in range(lo, hi):
            for j, s in enumerate(steps):
                y = oracle.multiply(elements[i], s)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    parent.append(i)
                    letter.append(j)
        lo = hi
        sizes.append(len(elements))
    right = [[index.get(oracle.multiply(x, s), -1) for s in steps] for x in elements]
    left = [[index.get(oracle.multiply(s, x), -1) for s in steps] for x in elements]
    shape = (len(elements), len(steps))
    return {"elements": elements, "sizes": np.array(sizes),
            "right": np.array(right, dtype=np.intp).reshape(shape),
            "left": np.array(left, dtype=np.intp).reshape(shape),
            "parent": np.array(parent, dtype=np.intp), "letter": np.array(letter, dtype=np.intp)}


def scatter_shift(B, n):
    """The reference for ``averaged_shift`` on a ``Ball``: a scatter-add over its edges.

    The edges x -> s x with both ends among the first n elements are read off
    ``B.left`` row by row, each row in step order. Each carries 1/deg;
    ``np.bincount`` adds the edges in their order, from 0.0, and the sums are
    divided by deg.
    """
    deg = len(B.steps)
    rows, cols = B.left[:n].ravel(), np.repeat(np.arange(n), deg)
    inside = (rows >= 0) & (rows < n)
    rows, cols = rows[inside], cols[inside]
    return lambda x: np.bincount(rows, weights=x[cols], minlength=n) / deg


def dict_shift_defect(oracle, amplitudes, g):
    """The reference for ``containment.shift_defect``: a dict of dyadic integer pairs per element.

    ``amplitudes`` maps group elements to complex amplitudes. Each part is
    its exact ratio n / d; scaled by the largest d every part is an integer.
    lambda(g) moves each pair to one checked product g x, the pairs at x are
    subtracted, and the ratio of the squared norms is the exact defect.
    """
    ratios = {x: (a.real.as_integer_ratio(), a.imag.as_integer_ratio())
              for x, a in ((x, complex(a)) for x, a in amplitudes.items())}
    scale = max(d for pair in ratios.values() for _n, d in pair)
    amps = {x: tuple(n * (scale // d) for n, d in pair) for x, pair in ratios.items()}
    diff = {oracle.multiply(g, x): a for x, a in amps.items()}  # lambda(g)w
    for x, (re, im) in amps.items():
        moved_re, moved_im = diff.get(x, (0, 0))
        diff[x] = (moved_re - re, moved_im - im)

    def norm2(parts):
        return sum(re * re + im * im for re, im in parts)

    return Fraction(norm2(diff.values()), norm2(amps.values()))


def chain_shift(deg, n):
    """The reference for ``averaged_shift`` on the n-point prefix of a free ``DistanceChain``.

    Point d stands for the sphere of radius d in the deg-regular tree. The
    edge list holds the n - 1 edges out (d - 1 -> d), then the n - 1 back
    (d -> d - 1); an edge out carries deg steps from e and deg - 1 beyond, one
    back carries one, and both directions of d - 1 <-> d weigh
    sqrt(out * back)/deg. ``np.bincount`` adds the edges in list order, from 0.0.
    """
    d = np.arange(1, n)
    rows, cols = np.concatenate([d, d - 1]), np.concatenate([d - 1, d])
    mult = np.concatenate([np.where(d == 1, deg, deg - 1), np.ones(n - 1, np.intp)])
    half = np.sqrt(mult[:n - 1] * mult[n - 1:]) / deg
    weights = np.concatenate([half, half])
    return lambda x: np.bincount(rows, weights=weights * x[cols], minlength=n)


def ball_deltas(basis):
    """The delta vectors of a ``BallBasis``'s span in ball order: the span as an explicit basis."""
    return [delta(basis.ambient, 0, x) for x in basis.ball.elements]


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def phase(rng, m=0):
    """A random unit complex number; an m-th root of unity when m > 0."""
    return np.exp(2j * np.pi * (rng.integers(m) / m if m else rng.random()))


def character_action(rng, d, character):
    """One unitary Q diag(...) Q^H per generator: d draws of ``character(rng)``, each a phase
    per generator, conjugated by one random unitary Q. It acts whenever each draw is a character."""
    Q = random_unitary(rng, d)
    phases = np.array([character(rng) for _ in range(d)], dtype=complex).reshape(d, -1)
    return [Q @ np.diag(column) @ Q.conj().T for column in phases.T]


def random_matrix_rep(rng, oracle, dim):
    """Random unitary tuple; always a valid action for free oracles."""
    return MatrixRep(oracle, [random_unitary(rng, dim) for _ in oracle.generators])


def random_elements(oracle, rng, count, radius=3):
    pool = ball(oracle, radius).elements
    return [pool[int(rng.integers(len(pool)))] for _ in range(count)]


def random_sparse(rng, space, keys, nnz):
    picks = [keys[int(rng.integers(len(keys)))] for _ in range(nnz)]
    entries = {}
    for k in picks:
        entries[k] = entries.get(k, 0) + complex(rng.standard_normal(), rng.standard_normal())
    return SparseVector(space, entries)


def dense_of(v, key_index):
    """Dense coordinate vector of a sparse vector over an explicit key order."""
    out = np.zeros(len(key_index), dtype=complex)
    for k, amp in v.entries.items():
        out[key_index[k]] = amp
    return out


def dense_inner(u, v):
    """Same convention as the sparse inner product: linear in the first slot."""
    return complex(np.vdot(v, u))


def unpacked(node):
    """``node``, a report or a part of one, with every packed float block in list form.

    A block ``{"f64", "shape"}`` becomes nested lists of floats (a complex
    matrix: rows of ``[re, im]`` pairs, a probe's ``argmin``: a list of
    numbers). A vector block, one with ``keys``, becomes ``[copy, element,
    re, im]`` entries with zero amplitudes left out, or a list of such
    vectors; this is the list form that configs use and ``verify`` reads. The
    base64 is decoded here with numpy alone, independently of ``serialize``.
    """
    if isinstance(node, list):
        return [unpacked(x) for x in node]
    if not isinstance(node, dict):
        return node
    if "f64" not in node:
        return {k: unpacked(v) for k, v in node.items()}
    a = np.frombuffer(base64.b64decode(node["f64"]), dtype="<f8").reshape(node["shape"])
    if "keys" not in node:
        return a.tolist()
    vectors = [[[copy, elem, re, im] for (copy, elem), (re, im) in zip(node["keys"], row)
                if re or im] for row in (a if a.ndim == 3 else a[None]).tolist()]
    return vectors if a.ndim == 3 else vectors[0]


def read_report(path):
    """The report at ``path``, every packed block in list form (``unpacked``)."""
    return unpacked(json.loads(Path(path).read_text()))
