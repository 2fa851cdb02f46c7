"""Spin representations of SU(2) and their operator-valued analogues.

Numeric spin-j matrices for j = 1/2, 1, 3/2, the Clebsch-Gordan change of
basis for two- and three-fold tensor products, and the operator matrices
built from the chart entries X_{-j}, Y_{-j}.  Includes the negative
result: conjugating the operator tensor square by the Clebsch-Gordan
matrix does NOT block-diagonalize it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .opmatrix import OpMatrix, check_unitary, matrix_equal, matrix_grid_deviation, strings
from .operators import FockOperator
from .report import CheckResult, lower_bound_check
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


@dataclass(frozen=True)
class SU2Element:
    """2x2 special unitary matrix parametrised by its first column."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"column norm {norm} is not 1 within 1e-12")

    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.array([[a, -np.conj(b)], [b, np.conj(a)]], dtype=complex)


def random_su2(rng: np.random.Generator) -> SU2Element:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return SU2Element(alpha=complex(v[0], v[1]), beta=complex(v[2], v[3]))


def spin_rep(g: SU2Element, j: float) -> np.ndarray:
    """Spin-j matrix for j in {1/2, 1, 3/2}."""
    a, b = g.alpha, g.beta
    ac, bc = np.conj(a), np.conj(b)
    if j == 0.5:
        return g.matrix()
    if j == 1:
        return np.array(
            [
                [a**2, -_S2 * a * bc, bc**2],
                [_S2 * a * b, abs(a) ** 2 - abs(b) ** 2, -_S2 * ac * bc],
                [b**2, _S2 * ac * b, ac**2],
            ],
            dtype=complex,
        )
    if j == 1.5:
        aa, bb = abs(a) ** 2, abs(b) ** 2
        return np.array(
            [
                [a**3, -_S3 * a**2 * bc, _S3 * a * bc**2, -(bc**3)],
                [_S3 * a**2 * b, (aa - 2 * bb) * a, -(2 * aa - bb) * bc, _S3 * ac * bc**2],
                [_S3 * a * b**2, (2 * aa - bb) * b, (aa - 2 * bb) * ac, -_S3 * ac**2 * bc],
                [b**3, _S3 * ac * b**2, _S3 * ac**2 * b, ac**3],
            ],
            dtype=complex,
        )
    raise ValueError(f"no explicit spin-{j} matrix available")


def cg_decompose_pair(g: SU2Element) -> np.ndarray:
    """T4† (g (x) g) T4, which equals diag(1, spin_rep(g, 1))."""
    m = g.matrix()
    return T4.conj().T @ np.kron(m, m) @ T4


def cg_decompose_triple(g: SU2Element) -> np.ndarray:
    """T8† (g (x) g (x) g) T8 = diag(g, g, spin_rep(g, 3/2))."""
    m = g.matrix()
    return T8.conj().T @ np.kron(np.kron(m, m), m) @ T8


def pair_block_target(g: SU2Element) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = 1.0
    out[1:, 1:] = spin_rep(g, 1)
    return out


def triple_block_target(g: SU2Element) -> np.ndarray:
    out = np.zeros((8, 8), dtype=complex)
    out[0:2, 0:2] = g.matrix()
    out[2:4, 2:4] = g.matrix()
    out[4:, 4:] = spin_rep(g, 1.5)
    return out


@functools.lru_cache(maxsize=None)
def group_sample_deviations(seed: int) -> Tuple[float, float, float]:
    """Worst deviations of the numeric spin matrices over 50 seeded pairs
    (g1, g2) of SU(2) elements: unitarity of spin_rep(g1, j), the
    homomorphism spin_rep(g1, j) spin_rep(g2, j) = spin_rep(g1 g2, j) for
    j in {1/2, 1, 3/2}, and the Clebsch-Gordan blocks of g1 (x) g1 and
    g1 (x) g1 (x) g1.

    A pure function of the seed, so it is cached: a sweep computes it
    once per process, whatever axis it varies.
    """
    rng = np.random.default_rng(seed)
    worst_u, worst_h, worst_cg = 0.0, 0.0, 0.0
    for _ in range(50):
        g1 = random_su2(rng)
        g2 = random_su2(rng)
        prod = SU2Element(
            alpha=g1.alpha * g2.alpha - np.conj(g1.beta) * g2.beta,
            beta=g1.beta * g2.alpha + np.conj(g1.alpha) * g2.beta,
        )
        for j in (0.5, 1.0, 1.5):
            m1, m2 = spin_rep(g1, j), spin_rep(g2, j)
            k = m1.shape[0]
            worst_u = max(worst_u, float(np.max(np.abs(m1.conj().T @ m1 - np.eye(k)))))
            worst_h = max(worst_h, float(np.max(np.abs(m1 @ m2 - spin_rep(prod, j)))))
        worst_cg = max(
            worst_cg,
            float(np.max(np.abs(cg_decompose_pair(g1) - pair_block_target(g1)))),
            float(np.max(np.abs(cg_decompose_triple(g1) - triple_block_target(g1)))),
        )
    return worst_u, worst_h, worst_cg


# -- operator-valued analogues ---------------------------------------------


def chart_matrix(family: VeroneseFamily) -> OpMatrix:
    """[[X_0, -Y_0†], [Y_0, X_{-1}]] -- the base unitary the higher maps lift."""
    return OpMatrix.build([[family.x[0], -family.y[0].dagger()], [family.y[0], family.x[1]]])


def nc_spin_rep(family: VeroneseFamily, j: float) -> OpMatrix:
    """Operator matrix playing the role of spin_rep for j in {1/2, 1, 3/2},
    read from a family of degree at least 2j."""
    if j == 0.5:
        return chart_matrix(family)
    x, y = family.x, family.y
    yd = [op.dagger() for op in y[:3]]
    if j == 1:
        return OpMatrix.build(
            [
                [x[0] * x[0], -_S2 * (x[0] * yd[0]), yd[0] * yd[1]],
                [_S2 * (y[0] * x[0]), x[1] * x[1] - yd[1] * y[1], -_S2 * (x[1] * yd[1])],
                [y[1] * y[0], _S2 * (y[1] * x[1]), x[2] * x[2]],
            ]
        )
    if j == 1.5:
        x1sq = x[1] * x[1]
        x2sq = x[2] * x[2]
        return OpMatrix.build(
            [
                [
                    x[0] * x[0] * x[0],
                    -_S3 * (x[0] * x[0] * yd[0]),
                    _S3 * (x[0] * yd[0] * yd[1]),
                    -(yd[0] * yd[1] * yd[2]),
                ],
                [
                    _S3 * (y[0] * x[0] * x[0]),
                    x[1] * (x1sq - 2.0 * (yd[1] * y[1])),
                    -((2.0 * x1sq - yd[1] * y[1]) * yd[1]),
                    _S3 * (x[1] * yd[1] * yd[2]),
                ],
                [
                    _S3 * (y[1] * y[0] * x[0]),
                    y[1] * (2.0 * x1sq - yd[1] * y[1]),
                    x[2] * (x2sq - 2.0 * (yd[2] * y[2])),
                    -_S3 * (x2sq * yd[2]),
                ],
                [
                    y[2] * y[1] * y[0],
                    _S3 * (y[2] * y[1] * x[1]),
                    _S3 * (y[2] * x2sq),
                    x[3] * x[3] * x[3],
                ],
            ]
        )
    raise ValueError(f"no operator matrix for j={j}")


def family_string_map(family: VeroneseFamily, n: int, n_max: int) -> Dict[int, List[int]]:
    """The level strings: slot k+1 excludes states where X_{-k} or Y_{-k} is singular.

    Column k of the operator spin matrices is normalized through the
    level-k sum rule, so its domain excludes the singular states of both
    level-k generators even when only one of them appears in the column.
    """
    return strings(n_max, OpMatrix.build([family.x[: n + 1], family.y[: n + 1]]))


def _spin(m: OpMatrix) -> float:
    return (m.rows - 1) / 2


def _first_column(m: OpMatrix) -> OpMatrix:
    return OpMatrix.build([[m.entry(i, 0)] for i in range(m.rows)])


def nc_unitarity_check(family: VeroneseFamily, m: OpMatrix, n_max: int, tol: float) -> CheckResult:
    """Unitarity of the operator spin matrix ``m`` off the level strings of
    the family it was read from."""
    skip = family_string_map(family, m.rows - 1, n_max)
    return check_unitary(m, n_max, tol, f"nc_spin_unitary_j{_spin(m)}_theta{family.theta}", skip=skip)


def first_column_check(m: OpMatrix, lifted: LiftedColumn, n_max: int, tol: float) -> CheckResult:
    """The first column of the j = 1 or 3/2 operator matrix is the
    degree-2j lifted column."""
    name = f"first_column_j{_spin(m)}_theta{lifted.family.theta}"
    return matrix_equal(_first_column(m), lifted.a_col, n_max, tol, name=name)


def projector_relation_check(m: OpMatrix, lifted: LiftedColumn, n_max: int, tol: float) -> CheckResult:
    """M e00 M†, the projector c c† on the first column c of M, equals the
    rank-1 projector of the degree-2j lifted column."""
    col = _first_column(m)
    name = f"projector_relation_j{_spin(m)}_theta{lifted.family.theta}"
    return matrix_equal(col @ col.dagger(), projector_pn(lifted), n_max, tol, name=name)


def tensor_breakdown_check(theta: float, v: OpMatrix, phi1: OpMatrix, n_max: int, floor: float) -> CheckResult:
    """The operator analogue of the pair decomposition fails: conjugating
    V (x) V by T4 does not give diag(1, phi1), for the chart matrix V and
    its spin-1 matrix phi1.  Passes when the deviation genuinely exceeds
    the floor."""
    t4 = OpMatrix.from_scalars(T4)
    conj = t4.dagger() @ v.kron(v) @ t4
    zero = FockOperator.zero()
    target = OpMatrix.build([[FockOperator.identity(), zero, zero, zero]] + [[zero, *row] for row in phi1.entries])
    diff = conj - target
    dev, where, excluded = matrix_grid_deviation(diff, n_max)
    detail = f"largest mismatch {dev:.3e} at {where}; must exceed {floor:.0e}"
    return lower_bound_check(f"tensor_breakdown_theta{theta}", dev, floor, excluded, 4 * (n_max + 1), detail)
