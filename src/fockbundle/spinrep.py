"""Spin representations of SU(2) and their operator-valued analogues.

The spin-j irrep, for any positive half-integer j, is the 2j-th symmetric
power of the defining representation; one term table of that power serves
the numeric matrices and the operator matrices read from the chart entries.
From j = 2 on, the level strings of the operator matrices reach excited
states (at theta = 1, slot 5 of the spin-2 matrix excludes n = 0, 1, 2).
Also the Clebsch-Gordan change of basis for two- and three-fold tensor
products, and the negative result: conjugating the operator tensor square
by the Clebsch-Gordan matrix does NOT block-diagonalize it.
"""

from __future__ import annotations

import functools
import random
from math import comb, sqrt
from typing import List, Sequence, Tuple

import numpy as np

from .classical import _deviation, _matmul, random_direction, seeded_rng
from .opmatrix import OpMatrix, Product, check_unitary, matrix_equal, matrix_grid_deviation, strings
from .operators import FockOperator, row_names
from .report import CheckResult, Frozen, excluded_rows, lower_bound_check
from .veronese import LiftedColumn, VeroneseFamily, projector_pn

_S2 = np.sqrt(2.0)
_S3 = np.sqrt(3.0)
_S6 = np.sqrt(6.0)

# Change of basis for 1/2 (x) 1/2 = 0 (+) 1
T4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [1.0 / _S2, 0.0, 1.0 / _S2, 0.0],
        [-1.0 / _S2, 0.0, 1.0 / _S2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)

# Change of basis for 1/2 (x) 1/2 (x) 1/2 = 1/2 (+) 1/2 (+) 3/2
T8 = np.array(
    [
        [0, 0, 0, 0, 1, 0, 0, 0],
        [1 / _S2, 0, 1 / _S6, 0, 0, 1 / _S3, 0, 0],
        [-1 / _S2, 0, 1 / _S6, 0, 0, 1 / _S3, 0, 0],
        [0, 0, 0, _S2 / _S3, 0, 0, 1 / _S3, 0],
        [0, 0, -_S2 / _S3, 0, 0, 1 / _S3, 0, 0],
        [0, 1 / _S2, 0, -1 / _S6, 0, 0, 1 / _S3, 0],
        [0, -1 / _S2, 0, -1 / _S6, 0, 0, 1 / _S3, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=complex,
)


class SU2Element(Frozen):
    """2x2 special unitary matrix parametrised by its first column; or a
    batch of them, with alpha and beta arrays of one shape.  Every map
    below returns its matrices stacked along the batch's shape."""

    alpha: complex | np.ndarray
    beta: complex | np.ndarray

    def __init__(self, alpha: complex | np.ndarray, beta: complex | np.ndarray):
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if not np.asarray(abs(norm - 1.0) <= 1e-12).all():  # a NaN norm is rejected too
            raise ValueError(f"column norm {norm} is not 1 within 1e-12")
        self.__dict__.update(alpha=alpha, beta=beta)

    def matrix(self) -> np.ndarray:
        a, b = np.asarray(self.alpha, dtype=complex), np.asarray(self.beta, dtype=complex)
        return np.stack([np.stack([a, -np.conj(b)], axis=-1), np.stack([b, np.conj(a)], axis=-1)], axis=-2)


def random_su2(rng: random.Random) -> SU2Element:
    """A Haar-random element: its first column is a uniform direction of C^2 = R^4."""
    re_a, im_a, re_b, im_b = random_direction(rng, 4)
    return SU2Element(alpha=complex(re_a, im_a), beta=complex(re_b, im_b))


def sample_pairs(count: int, seed: int) -> Tuple[SU2Element, SU2Element, SU2Element]:
    """Seeded pairs (g1, g2) of SU(2) elements and their products g1 g2,
    as three batches of ``count``.  Each column is drawn as ``random_su2``
    draws it, g1 before g2; the batches validate every norm at once."""
    rng = seeded_rng(seed)
    columns = []
    for _ in range(count):
        (ra1, ia1, rb1, ib1), (ra2, ia2, rb2, ib2) = random_direction(rng, 4), random_direction(rng, 4)
        a1, b1, a2, b2 = complex(ra1, ia1), complex(rb1, ib1), complex(ra2, ia2), complex(rb2, ib2)
        # each product in scalar complex arithmetic: numpy's array multiply rounds differently
        columns.append((a1, b1, a2, b2, a1 * a2 - b1.conjugate() * b2, b1 * a2 + a1.conjugate() * b2))
    a1, b1, a2, b2, a12, b12 = np.array(columns, dtype=complex).reshape(count, 6).T
    return SU2Element(a1, b1), SU2Element(a2, b2), SU2Element(a12, b12)


def _degree(j: float) -> int:
    if not (2 * j >= 1 and float(2 * j).is_integer()):
        raise ValueError(f"spin must be a positive half-integer, got {j!r}")
    return int(2 * j)


@functools.lru_cache(maxsize=None)
def _symmetric_power(n: int) -> Tuple[Tuple[int, int, float, Tuple[Tuple[int, int, int], ...]], ...]:
    """The terms (i, k, weight, factors) of the n-th symmetric power of a 2x2
    matrix g, one per entry (i, k) and count r of (1, 1) factors.  Basis
    vector k is t = 0^(n-k) 1^k, and s = 0^(n-k-i+r) 1^(i-r) 0^(k-r) 1^r
    stands for all C(k, r) C(n-k, i-r) orderings of its blocks.  A factor is
    (s_m, t_m, level): the block g[s_m, t_m] at level (ones of s before m)
    + (ones of t after m).  The weight holds the sign of g01.
    """
    terms = []
    for i in range(n + 1):
        for k in range(n + 1):
            t = "0" * (n - k) + "1" * k
            for r in range(max(0, i + k - n), min(i, k) + 1):
                s = "0" * (n - k - i + r) + "1" * (i - r) + "0" * (k - r) + "1" * r
                factors = tuple((int(s[m]), int(t[m]), s[:m].count("1") + t[m + 1 :].count("1")) for m in range(n))
                weight = (-1) ** (k - r) * comb(k, r) * comb(n - k, i - r) * sqrt(comb(n, k) / comb(n, i))
                terms.append((i, k, weight, factors))
    return tuple(terms)


@functools.lru_cache(maxsize=None)
def _exponent_table(n: int) -> Tuple[np.ndarray, ...]:
    """``_symmetric_power(n)`` for commuting blocks: rows, columns, weights and
    the exponents of the blocks (0, 0), (1, 0), (0, 1), (1, 1) of each term."""
    rows, cols, weights, factors = zip(*_symmetric_power(n))
    exponents = [[sum((o, t) == b for o, t, _ in f) for b in ((0, 0), (1, 0), (0, 1), (1, 1))] for f in factors]
    return np.array(rows), np.array(cols), np.array(weights), np.array(exponents)


def spin_rep(g: SU2Element, j: float) -> np.ndarray:
    """Spin-j matrix of g, its 2j-th symmetric power, for any positive half-integer j."""
    n = _degree(j)
    rows, cols, weights, exponents = _exponent_table(n)
    a, b = np.asarray(g.alpha, dtype=complex), np.asarray(g.beta, dtype=complex)
    blocks = np.stack([a, b, np.conj(b), np.conj(a)], axis=-1)[..., None, :]
    out = np.zeros(a.shape + (n + 1, n + 1), dtype=complex)
    # the terms of one entry add up in table order, for every element of a batch
    np.add.at(out, (..., rows, cols), weights * np.prod(blocks**exponents, axis=-1))
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, for every element of a batch."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (m * p, n * q))


def cg_decompose_pair(g: SU2Element) -> np.ndarray:
    """T4† (g (x) g) T4, which equals diag(1, spin_rep(g, 1))."""
    m = g.matrix()
    return _matmul(_matmul(T4.conj().T, _kron(m, m)), T4)


def cg_decompose_triple(g: SU2Element) -> np.ndarray:
    """T8† (g (x) g (x) g) T8 = diag(g, g, spin_rep(g, 3/2))."""
    m = g.matrix()
    return _matmul(_matmul(T8.conj().T, _kron(_kron(m, m), m)), T8)


def pair_block_target(g: SU2Element) -> np.ndarray:
    out = np.zeros(np.shape(g.alpha) + (4, 4), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1:, 1:] = spin_rep(g, 1)
    return out


def triple_block_target(g: SU2Element) -> np.ndarray:
    out = np.zeros(np.shape(g.alpha) + (8, 8), dtype=complex)
    out[..., 0:2, 0:2] = g.matrix()
    out[..., 2:4, 2:4] = g.matrix()
    out[..., 4:, 4:] = spin_rep(g, 1.5)
    return out


@functools.lru_cache(maxsize=None)
def group_sample_deviations(seed: int) -> Tuple[float, float, float]:
    """Worst deviations of the numeric spin matrices over 50 seeded pairs
    (g1, g2) of SU(2) elements: unitarity of spin_rep(g1, j), the
    homomorphism spin_rep(g1, j) spin_rep(g2, j) = spin_rep(g1 g2, j) for
    j in {1/2, 1, 3/2}, and the Clebsch-Gordan blocks of g1 (x) g1 and
    g1 (x) g1 (x) g1.  Each is evaluated on all 50 pairs at once, and is
    NaN if any pair's deviation is.

    A pure function of the seed, so it is cached: a sweep computes it
    once per process, whatever axis it varies.
    """
    g1, g2, prod = sample_pairs(50, seed)
    unitary, homomorphism = [], []
    for j in (0.5, 1.0, 1.5):
        m1, m2 = spin_rep(g1, j), spin_rep(g2, j)
        unitary.append(_deviation(_matmul(np.conj(m1).swapaxes(-1, -2), m1), np.eye(m1.shape[-1])))
        homomorphism.append(_deviation(_matmul(m1, m2), spin_rep(prod, j)))
    blocks = [
        _deviation(cg_decompose_pair(g1), pair_block_target(g1)),
        _deviation(cg_decompose_triple(g1), triple_block_target(g1)),
    ]
    return tuple(float(np.max(devs)) for devs in (unitary, homomorphism, blocks))


# -- operator-valued analogues ---------------------------------------------


# no caller in the package: it stays only because perfbench/tracer.py times it (layer spinrep.build)
def chart_matrix(family: VeroneseFamily) -> OpMatrix:
    """[[X_0, -Y_0†], [Y_0, X_{-1}]] -- the base unitary the higher maps lift."""
    return nc_spin_rep(family, 0.5)


def nc_spin_rep(family: VeroneseFamily, j: float) -> OpMatrix:
    """The 2j-th symmetric power of the chart matrix [[X_0, -Y_0†], [Y_0, X_{-1}]],
    for any positive half-integer j, read from a family of degree at least 2j."""
    n = _degree(j)
    if len(family.x) <= n:
        raise ValueError(f"spin {j} needs a family of degree at least {n}, got {len(family.x) - 1}")
    x, y = family.x, family.y
    entries = [[FockOperator.zero()] * (n + 1) for _ in range(n + 1)]
    for i, k, weight, factors in _symmetric_power(n):
        # the blocks (0, 0), (1, 0), (0, 1), (1, 1) at level l are X_{-l}, Y_{-l}, Y_{-l}†, X_{-(l+1)}
        blocks = [(x[lv + 1] if o else y[lv].dagger()) if t else (y if o else x)[lv] for o, t, lv in factors]
        # block 0 acts first, so a term composes leftward; interning returns the prefixes other terms built
        term = functools.reduce(lambda acc, block: block * acc, blocks[1:], blocks[0])
        entries[i][k] = entries[i][k] + (term if weight == 1 else weight * term)
    return OpMatrix.build(entries)


def family_string_map(thetas: Sequence[float], family: VeroneseFamily, n: int, n_max: int) -> np.ndarray:
    """The level strings, a (theta rows, n + 1, n_max + 1) mask: slot k+1 excludes where X_{-k} or Y_{-k} is singular.

    Column k of the operator spin matrices is normalized through the
    level-k sum rule, so its domain excludes the singular states of both
    level-k generators even when only one of them appears in the column.
    """
    return strings(n_max, OpMatrix.build([family.x[: n + 1], family.y[: n + 1]]), thetas=thetas)


def _spin(m: OpMatrix) -> float:
    return (m.rows - 1) / 2


def _first_column(m: OpMatrix) -> OpMatrix:
    return OpMatrix.build([[m.entry(i, 0)] for i in range(m.rows)])


def nc_unitarity_check(
    thetas: Sequence[float], family: VeroneseFamily, m: OpMatrix, n_max: int, tol: float
) -> List[CheckResult]:
    """Unitarity of the operator spin matrix ``m`` off the level strings of
    the family it was read from."""
    skip = family_string_map(thetas, family, m.rows - 1, n_max)
    return check_unitary(m, n_max, tol, f"nc_spin_unitary_j{_spin(m)}", skip=skip, thetas=thetas)


def first_column_check(
    thetas: Sequence[float], m: OpMatrix, lifted: LiftedColumn, n_max: int, tol: float
) -> List[CheckResult]:
    """The first column of the operator spin-j matrix is the degree-2j
    lifted column."""
    name = f"first_column_j{_spin(m)}"
    return matrix_equal(_first_column(m), lifted.a_col, n_max, tol, name, thetas=thetas)


def projector_relation_check(
    thetas: Sequence[float], m: OpMatrix, lifted: LiftedColumn, n_max: int, tol: float
) -> List[CheckResult]:
    """M e00 M†, the projector c c† on the first column c of M, equals the
    rank-1 projector of the degree-2j lifted column."""
    col = _first_column(m)
    name = f"projector_relation_j{_spin(m)}"
    return matrix_equal(Product(col, col.dagger()), projector_pn(lifted), n_max, tol, name, thetas=thetas)


def tensor_breakdown_check(
    thetas: Sequence[float], v: OpMatrix, phi1: OpMatrix, n_max: int, floors: Sequence[float]
) -> List[CheckResult]:
    """The operator analogue of the pair decomposition fails: conjugating
    V (x) V by T4 does not give diag(1, phi1), for the chart matrix V and
    its spin-1 matrix phi1.  Passes, per theta, when the deviation
    genuinely exceeds that theta's floor.

    Every slot excludes every string of V (x) V, the states where any of
    its entries is singular, as conjugation by a generic unitary mixes
    them all.  That rule is explicit: T4's zero entries build no product
    (``OpMatrix.conjugated``), so no string rides on a product with 0."""
    square = v.kron(v)
    conj = square.conjugated(T4)
    zero = FockOperator.zero()
    target = OpMatrix.build([[FockOperator.identity(), zero, zero, zero]] + [[zero, *row] for row in phi1.entries])
    # the union per theta row, broadcast over the four slots
    skip = strings(n_max, square, thetas=thetas).any(axis=1, keepdims=True)
    top, at, dropped = matrix_grid_deviation(conj, n_max, skip, thetas, right=target)
    records = []
    rows = zip(row_names("tensor_breakdown", thetas), floors, top, at, excluded_rows(dropped))
    for name, floor, dev, where, excluded in rows:
        detail = f"largest mismatch {dev:.3e} at {where}; must exceed {floor:.0e}"
        records.append(lower_bound_check(name, dev, floor, excluded, 4 * (n_max + 1), detail))
    return records
