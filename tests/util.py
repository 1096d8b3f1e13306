"""Shared helpers for the test suite: oracle builders, random data, dense references."""

import numpy as np

from unirep import (
    FgAbelianOracle,
    FiniteTableOracle,
    FreeGroupOracle,
    MatrixRep,
    RewritingOracle,
    SparseVector,
    ball,
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


def z3_rewriting():
    return RewritingOracle(1, [[[1, 1], [-1]], [[-1, -1], [1]]])


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
