"""Binomial lift of the operator sphere into higher projective columns.

The classical degree-n lift of CP^1 into CP^n and its operator-valued
counterpart: the diagonal/shift family X_{-j}, Y_{-j}, Z_{-j}, the lifted
(n+1)x1 column with ordered entry products, the rank-1 projectors, and
the single-coordinate block expression of those projectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .jc import r_symbol
from .opmatrix import OpMatrix, matrix_equal
from .operators import FockOperator, op_equal
from .report import CheckResult
from .symbols import DiagonalSymbol, const, guarded_div, guarded_sqrt, number, sigma_tol


def x_symbol(theta: float, j: int) -> DiagonalSymbol:
    """(R(N+1-j)+theta) / sqrt(2 R(N+1-j)(R(N+1-j)+theta))."""
    tol = sigma_tol(theta)
    r = r_symbol(theta, 1 - j)
    return guarded_div(r + theta, guarded_sqrt(const(2.0) * r * (r + theta), tol), tol)


def x_operator(theta: float, j: int) -> FockOperator:
    return FockOperator.diagonal(x_symbol(theta, j))


def y_operator(theta: float, j: int) -> FockOperator:
    """sqrt((N-j)/N) / sqrt(2 R(N-j)(R(N-j)+theta)) a-dagger.

    The diagonal factor is only ever evaluated at N >= 1 because the
    shift acts first; states where N-j goes negative under the square
    root are singular and get reported, never regularized.
    """
    tol = sigma_tol(theta)
    r = r_symbol(theta, -j)
    nn = number()
    ratio = guarded_sqrt(guarded_div(nn - j, nn, tol), tol)
    pre = FockOperator.diagonal(ratio * guarded_div(1.0, guarded_sqrt(const(2.0) * r * (r + theta), tol), tol))
    return pre * FockOperator.creation()


def z_operator(theta: float, j: int) -> FockOperator:
    """sqrt((N-j)/N) (1/(R(N-j)+theta)) a-dagger; Z_0 is the chart coordinate."""
    tol = sigma_tol(theta)
    r = r_symbol(theta, -j)
    nn = number()
    ratio = guarded_sqrt(guarded_div(nn - j, nn, tol), tol)
    pre = FockOperator.diagonal(ratio * guarded_div(1.0, r + theta, tol))
    return pre * FockOperator.creation()


@dataclass(frozen=True)
class VeroneseFamily:
    theta: float
    n: int
    x: List[FockOperator]  # X_0 .. X_{-n}
    y: List[FockOperator]  # Y_0 .. Y_{-n}
    z: List[FockOperator]  # Z_0 .. Z_{-n}


def build_family(theta: float, n: int) -> VeroneseFamily:
    if n < 1:
        raise ValueError("target degree must be at least 1")
    return VeroneseFamily(
        theta=theta,
        n=n,
        x=[x_operator(theta, j) for j in range(n + 1)],
        y=[y_operator(theta, j) for j in range(n + 1)],
        z=[z_operator(theta, j) for j in range(n + 1)],
    )


def sum_rule_check(theta: float, j: int, n_max: int, tol: float) -> CheckResult:
    """X_{-j}^2 + Y_{-j}† Y_{-j} = 1."""
    x = x_operator(theta, j)
    y = y_operator(theta, j)
    return op_equal(x * x + y.dagger() * y, FockOperator.identity(), n_max, tol, name=f"sum_rule_j{j}_theta{theta}")


def shift_rule_check(theta: float, j: int, n_max: int, tol: float) -> CheckResult:
    """Y_{-j}† Y_{-j} = Y_{-(j-1)} Y_{-(j-1)}† for j >= 1."""
    if j < 1:
        raise ValueError("shift rule needs j >= 1")
    yj = y_operator(theta, j)
    yp = y_operator(theta, j - 1)
    return op_equal(yj.dagger() * yj, yp * yp.dagger(), n_max, tol, name=f"shift_rule_j{j}_theta{theta}")


def commutation_check(theta: float, j: int, k: int, n_max: int, tol: float) -> CheckResult:
    """Y_{-j} X_{-k}^{-1} = X_{-(k+1)}^{-1} Y_{-j} (shift-through of the creation factor)."""
    tol_sigma = sigma_tol(theta)
    y = y_operator(theta, j)
    xk_inv = x_operator(theta, k).inverse(tol_sigma)
    xk1_inv = x_operator(theta, k + 1).inverse(tol_sigma)
    return op_equal(y * xk_inv, xk1_inv * y, n_max, tol, name=f"commutation_j{j}_k{k}_theta{theta}")


def _ordered_product(ops: List[FockOperator]) -> FockOperator:
    acc = FockOperator.identity()
    for op in ops:
        acc = acc * op
    return acc


def op_power(op: FockOperator, k: int) -> FockOperator:
    return _ordered_product([op] * k) if k > 0 else FockOperator.identity()


@dataclass(frozen=True)
class LiftedColumn:
    family: VeroneseFamily
    a_col: OpMatrix  # (n+1) x 1
    z_col: OpMatrix  # n x 1

    def check_name(self, stem: str) -> str:
        return f"{stem}_n{self.family.n}_theta{self.family.theta}"


def lift(family: VeroneseFamily) -> LiftedColumn:
    """The degree-n column with entries sqrt(nCj) Y_{-(j-1)}...Y_0 X_0^{n-j}."""
    n, theta = family.n, family.theta
    x0 = family.x[0]
    a_entries = [op_power(x0, n)]
    for j in range(1, n + 1):
        ys = [family.y[i] for i in range(j - 1, -1, -1)]  # Y_{-(j-1)} leftmost
        a_entries.append(math.sqrt(math.comb(n, j)) * (_ordered_product(ys) * op_power(x0, n - j)))
    z_entries = []
    for k in range(1, n + 1):
        zs = [family.z[i] for i in range(k - 1, -1, -1)]
        z_entries.append(math.sqrt(math.comb(n, k)) * _ordered_product(zs))
    return LiftedColumn(
        family=family,
        a_col=OpMatrix.build([[e] for e in a_entries]),
        z_col=OpMatrix.build([[e] for e in z_entries]),
    )


def lift_norm_check(lifted: LiftedColumn, n_max: int, tol: float) -> CheckResult:
    col = lifted.a_col
    prod = col.dagger() @ col
    return matrix_equal(prod, OpMatrix.identity(1), n_max, tol, name=lifted.check_name("lift_norm"))


def _one_plus_ztz(lifted: LiftedColumn) -> FockOperator:
    acc = FockOperator.identity()
    zc = lifted.z_col
    for i in range(zc.rows):
        acc = acc + zc.entry(i, 0).dagger() * zc.entry(i, 0)
    return acc


def factored_form_check(lifted: LiftedColumn, n_max: int, tol: float) -> CheckResult:
    """A_n = (1; Z-column) (1 + Z_0† Z_0)^{-n/2} entrywise."""
    fam = lifted.family
    z0 = fam.z[0]
    base = FockOperator.identity() + z0.dagger() * z0
    scale = base.power(-fam.n / 2.0, sigma_tol(fam.theta))
    stacked = [[FockOperator.identity() * scale]]
    for i in range(lifted.z_col.rows):
        stacked.append([lifted.z_col.entry(i, 0) * scale])
    return matrix_equal(lifted.a_col, OpMatrix.build(stacked), n_max, tol, name=lifted.check_name("factored_form"))


def binomial_power_check(lifted: LiftedColumn, n_max: int, tol: float) -> CheckResult:
    """1 + Zcol† Zcol = (1 + Z_0† Z_0)^n."""
    fam = lifted.family
    z0 = fam.z[0]
    base = FockOperator.identity() + z0.dagger() * z0
    return op_equal(
        _one_plus_ztz(lifted), op_power(base, fam.n), n_max, tol, name=lifted.check_name("binomial_power")
    )


def projector_pn(lifted: LiftedColumn) -> OpMatrix:
    col = lifted.a_col
    return col @ col.dagger()


def oike_layout(lifted: LiftedColumn) -> OpMatrix:
    """The projector written through the coordinate column: blocks of
    (1+Z†Z)^{-1} against Z entries."""
    fam = lifted.family
    s_inv = _one_plus_ztz(lifted).inverse(sigma_tol(fam.theta))
    zc = lifted.z_col
    n = zc.rows
    rows = [[s_inv] + [s_inv * zc.entry(k, 0).dagger() for k in range(n)]]
    for i in range(n):
        rows.append(
            [zc.entry(i, 0) * s_inv] + [zc.entry(i, 0) * s_inv * zc.entry(k, 0).dagger() for k in range(n)]
        )
    return OpMatrix.build(rows)


def oike_layout_check(lifted: LiftedColumn, n_max: int, tol: float) -> CheckResult:
    return matrix_equal(
        projector_pn(lifted), oike_layout(lifted), n_max, tol, name=lifted.check_name("oike_layout")
    )


def eigencolumn_check(lifted: LiftedColumn, n_max: int, tol: float) -> CheckResult:
    """P_n A_n = A_n."""
    p = projector_pn(lifted)
    return matrix_equal(p @ lifted.a_col, lifted.a_col, n_max, tol, name=lifted.check_name("eigencolumn"))
