"""Spin representations of SU(2) and their operator-valued analogues.

Numeric spin-j matrices for j = 1/2, 1, 3/2, the Clebsch-Gordan change of
basis for two- and three-fold tensor products, and the operator matrices
built from the chart entries X_{-j}, Y_{-j}.  Includes the negative
result: conjugating the operator tensor square by the Clebsch-Gordan
matrix does NOT block-diagonalize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .opmatrix import OpMatrix, check_unitary, matrix_equal, matrix_grid_deviation, strings
from .operators import FockOperator
from .report import CheckResult, lower_bound_check
from .veronese import build_family, lift, projector_pn, x_operator, y_operator

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


# -- operator-valued analogues ---------------------------------------------


def chart_matrix(theta: float) -> OpMatrix:
    """[[X_0, -Y_0†], [Y_0, X_{-1}]] -- the base unitary the higher maps lift."""
    x0 = x_operator(theta, 0)
    x1 = x_operator(theta, 1)
    y0 = y_operator(theta, 0)
    return OpMatrix.build([[x0, -y0.dagger()], [y0, x1]])


def nc_spin_rep(theta: float, j: float) -> OpMatrix:
    """Operator matrix playing the role of spin_rep for j in {1/2, 1, 3/2}."""
    if j == 0.5:
        return chart_matrix(theta)
    x = [x_operator(theta, i) for i in range(4)]
    y = [y_operator(theta, i) for i in range(3)]
    yd = [op.dagger() for op in y]
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


def family_string_map(theta: float, n: int, n_max: int) -> Dict[int, List[int]]:
    """The level strings: slot k+1 excludes states where X_{-k} or Y_{-k} is singular.

    Column k of the operator spin matrices is normalized through the
    level-k sum rule, so its domain excludes the singular states of both
    level-k generators even when only one of them appears in the column.
    """
    levels = range(n + 1)
    generators = [[x_operator(theta, k) for k in levels], [y_operator(theta, k) for k in levels]]
    return strings(n_max, OpMatrix.build(generators))


def nc_unitarity_check(theta: float, j: float, n_max: int, tol: float) -> CheckResult:
    """Unitarity of the operator spin matrix off its level strings."""
    skip = family_string_map(theta, int(round(2 * j)), n_max)
    return check_unitary(nc_spin_rep(theta, j), n_max, tol, f"nc_spin_unitary_j{j}_theta{theta}", skip=skip)


def first_column_check(theta: float, j: float, n_max: int, tol: float) -> CheckResult:
    """The first column of the j = 1 or 3/2 operator matrix is the
    degree-2j lifted column."""
    m = nc_spin_rep(theta, j)
    col = OpMatrix.build([[m.entry(i, 0)] for i in range(m.rows)])
    target = lift(build_family(theta, int(round(2 * j)))).a_col
    return matrix_equal(col, target, n_max, tol, name=f"first_column_j{j}_theta{theta}")


def projector_relation_check(theta: float, j: float, n_max: int, tol: float) -> CheckResult:
    """M e00 M† equals the rank-1 projector of the degree-2j lifted column."""
    m = nc_spin_rep(theta, j)
    k = m.rows
    e00 = OpMatrix.build(
        [
            [FockOperator.identity() if i == 0 and c == 0 else FockOperator.zero() for c in range(k)]
            for i in range(k)
        ]
    )
    target = projector_pn(lift(build_family(theta, int(round(2 * j)))))
    return matrix_equal(m @ e00 @ m.dagger(), target, n_max, tol, name=f"projector_relation_j{j}_theta{theta}")


def tensor_breakdown_check(theta: float, n_max: int, floor: float) -> CheckResult:
    """The operator analogue of the pair decomposition fails: conjugating
    V (x) V by T4 does not give diag(1, nc_spin_rep(1)).  Passes when the
    deviation genuinely exceeds the floor."""
    v = chart_matrix(theta)
    t4 = OpMatrix.from_scalars(T4)
    conj = t4.dagger() @ v.kron(v) @ t4
    target_rows = [[FockOperator.zero() for _ in range(4)] for _ in range(4)]
    target_rows[0][0] = FockOperator.identity()
    phi1 = nc_spin_rep(theta, 1)
    for i in range(3):
        for k in range(3):
            target_rows[i + 1][k + 1] = phi1.entry(i, k)
    diff = conj - OpMatrix.build(target_rows)
    dev, where, excluded = matrix_grid_deviation(diff, n_max)
    detail = f"largest mismatch {dev:.3e} at {where}; must exceed {floor:.0e}"
    return lower_bound_check(f"tensor_breakdown_theta{theta}", dev, floor, excluded, 4 * (n_max + 1), detail)
