"""Binomial lift of the operator sphere into higher projective columns.

The classical degree-n lift of CP^1 into CP^n and its operator-valued
counterpart: the diagonal/shift family X_{-j}, Y_{-j}, Z_{-j}, the lifted
(n+1)x1 column with ordered entry products, the rank-1 projectors, and
the single-coordinate block expression of those projectors.  Theta enters
only as ``symbols.THETA``, so a family and its lifted columns are built once
per process and degree, and every check takes the detunings it scans and
returns one record per theta.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

from .jc import chart_prefactor, r_root, r_theta
from .opmatrix import OpMatrix, matrix_equal
from .operators import CREATION, FockOperator, op_equal
from .report import CheckResult, Frozen
from .symbols import ROW_TOL, DiagonalSymbol, guarded_div, guarded_sqrt, number


def x_symbol(offset: int) -> DiagonalSymbol:
    """(R + theta) / sqrt(2 R (R + theta)) at R = R(N + offset); X_{-j} reads offset 1-j."""
    return guarded_div(r_theta(offset, +1), r_root(offset, +1), ROW_TOL)


def x_operator(offset: int) -> FockOperator:
    return FockOperator.diagonal(x_symbol(offset))


def _level_ratio(offset: int) -> DiagonalSymbol:
    """sqrt((N-j)/N) at offset -j."""
    return guarded_sqrt(guarded_div(number(offset), number(), ROW_TOL), ROW_TOL)


def y_operator(offset: int) -> FockOperator:
    """Y_{-j} at offset -j: sqrt((N-j)/N) / sqrt(2 R(N-j)(R(N-j)+theta))
    a-dagger, the second factor being chart I's prefactor at N-j.

    The diagonal factor is only ever evaluated at N >= 1 because the
    shift acts first; states where N-j goes negative under the square
    root are singular and get reported, never regularized.
    """
    return FockOperator.diagonal(_level_ratio(offset) * chart_prefactor(offset, +1)) * CREATION


def z_operator(offset: int) -> FockOperator:
    """Z_{-j} at offset -j: sqrt((N-j)/N) (1/(R(N-j)+theta)) a-dagger; Z_0 is the chart coordinate."""
    pre = guarded_div(1.0, r_theta(offset, +1), ROW_TOL)
    return FockOperator.diagonal(_level_ratio(offset) * pre) * CREATION


class VeroneseFamily(Frozen):
    """The chart entries up to degree n, for every theta; compared by identity, as it keys its lifts."""

    x: Tuple[FockOperator, ...]  # X_0 .. X_{-n}
    y: Tuple[FockOperator, ...]  # Y_0 .. Y_{-n}
    z: Tuple[FockOperator, ...]  # Z_0 .. Z_{-n}

    def __init__(self, x: Tuple[FockOperator, ...], y: Tuple[FockOperator, ...], z: Tuple[FockOperator, ...]):
        self.__dict__.update(x=x, y=y, z=z)


@functools.lru_cache(maxsize=None)
def build_family(n: int) -> VeroneseFamily:
    """The family of degree n, one per process: its nodes, and those of its cached lifts, keep their
    values on the last grid they were read on until ``cache_clear()``."""
    if n < 1:
        raise ValueError("target degree must be at least 1")
    return VeroneseFamily(
        x=tuple(x_operator(1 - j) for j in range(n + 1)),
        y=tuple(y_operator(-j) for j in range(n + 1)),
        z=tuple(z_operator(-j) for j in range(n + 1)),
    )


def sum_rule_check(
    thetas: Sequence[float], family: VeroneseFamily, j: int, n_max: int, tol: float
) -> List[CheckResult]:
    """X_{-j}^2 + Y_{-j}† Y_{-j} = 1."""
    x, y = family.x[j], family.y[j]
    lhs = x * x + y.dagger() * y
    return op_equal(lhs, FockOperator.identity(), n_max, tol, f"sum_rule_j{j}", thetas=thetas)


def shift_rule_check(
    thetas: Sequence[float], family: VeroneseFamily, j: int, n_max: int, tol: float
) -> List[CheckResult]:
    """Y_{-j}† Y_{-j} = Y_{-(j-1)} Y_{-(j-1)}† for j >= 1."""
    if j < 1:
        raise ValueError("shift rule needs j >= 1")
    yj, yp = family.y[j], family.y[j - 1]
    return op_equal(yj.dagger() * yj, yp * yp.dagger(), n_max, tol, f"shift_rule_j{j}", thetas=thetas)


def commutation_check(
    thetas: Sequence[float], family: VeroneseFamily, j: int, k: int, n_max: int, tol: float
) -> List[CheckResult]:
    """Y_{-j} X_{-k}^{-1} = X_{-(k+1)}^{-1} Y_{-j} (shift-through of the creation factor)."""
    y = family.y[j]
    xk_inv = family.x[k].inverse(ROW_TOL)
    xk1_inv = family.x[k + 1].inverse(ROW_TOL)
    return op_equal(y * xk_inv, xk1_inv * y, n_max, tol, f"commutation_j{j}_k{k}", thetas=thetas)


def _ordered_product(ops: Sequence[FockOperator]) -> FockOperator:
    # from the first factor, not the identity: composing with it would only add nodes
    return functools.reduce(lambda acc, op: acc * op, ops)


def op_power(op: FockOperator, k: int) -> FockOperator:
    return _ordered_product([op] * k) if k > 0 else FockOperator.identity()


class LiftedColumn(Frozen):
    family: VeroneseFamily
    n: int  # the degree, at most one above the family's
    a_col: OpMatrix  # (n+1) x 1
    z_col: OpMatrix  # n x 1

    def __init__(self, family: VeroneseFamily, n: int, a_col: OpMatrix, z_col: OpMatrix):
        self.__dict__.update(family=family, n=n, a_col=a_col, z_col=z_col)

    def check_name(self, stem: str) -> str:
        """The name stem of a check of this column; each theta row adds its tag."""
        return f"{stem}_n{self.n}"

    @functools.cached_property
    def projector(self) -> OpMatrix:
        """P_n = A_n A_n†, built once for every check that reads it."""
        return self.a_col @ self.a_col.dagger()

    @functools.cached_property
    def one_plus_ztz(self) -> FockOperator:
        """1 + Zcol† Zcol, built once for every check that reads it."""
        return sum((z.dagger() * z for (z,) in self.z_col.entries), FockOperator.identity())


@functools.lru_cache(maxsize=None)  # so its projector and normaliser are built once per process
def lift(family: VeroneseFamily, n: int) -> LiftedColumn:
    """The degree-n column with entries sqrt(nCj) Y_{-(j-1)}...Y_0 X_0^{n-j},
    read from a family of degree at least n - 1, which holds Y_0 .. Y_{-(n-1)} and Z_0 .. Z_{-(n-1)}."""
    if len(family.y) < n:
        raise ValueError(f"a degree-{n} lift needs a family of degree at least {n - 1}, got {len(family.y) - 1}")
    x0 = family.x[0]
    a_entries, z_entries = [op_power(x0, n)], []
    for j in range(1, n + 1):
        w = math.sqrt(math.comb(n, j))
        # the reversed slices put Y_{-(j-1)} and Z_{-(j-1)} leftmost
        ys = _ordered_product(family.y[j - 1 :: -1])
        a_entries.append(w * (ys * op_power(x0, n - j) if j < n else ys))
        z_entries.append(w * _ordered_product(family.z[j - 1 :: -1]))
    return LiftedColumn(
        family=family,
        n=n,
        a_col=OpMatrix.build([[e] for e in a_entries]),
        z_col=OpMatrix.build([[e] for e in z_entries]),
    )


def cache_clear() -> None:
    """Drop the cached families and lifts, and with them the values their nodes hold."""
    build_family.cache_clear()
    lift.cache_clear()


def _base(lifted: LiftedColumn) -> FockOperator:
    """1 + Z_0† Z_0, the normaliser of degree 1: built once per family, not once per check."""
    return lift(lifted.family, 1).one_plus_ztz


def lift_norm_check(thetas: Sequence[float], lifted: LiftedColumn, n_max: int, tol: float) -> List[CheckResult]:
    col = lifted.a_col
    prod = col.dagger() @ col
    return matrix_equal(prod, OpMatrix.identity(1), n_max, tol, lifted.check_name("lift_norm"), thetas=thetas)


def factored_form_check(thetas: Sequence[float], lifted: LiftedColumn, n_max: int, tol: float) -> List[CheckResult]:
    """A_n = (1; Z-column) (1 + Z_0† Z_0)^{-n/2} entrywise."""
    scale = _base(lifted).power(-lifted.n / 2.0, ROW_TOL)
    stacked = [[scale]]
    for i in range(lifted.z_col.rows):
        stacked.append([lifted.z_col.entry(i, 0) * scale])
    name = lifted.check_name("factored_form")
    return matrix_equal(lifted.a_col, OpMatrix.build(stacked), n_max, tol, name, thetas=thetas)


def binomial_power_check(thetas: Sequence[float], lifted: LiftedColumn, n_max: int, tol: float) -> List[CheckResult]:
    """1 + Zcol† Zcol = (1 + Z_0† Z_0)^n."""
    name = lifted.check_name("binomial_power")
    return op_equal(lifted.one_plus_ztz, op_power(_base(lifted), lifted.n), n_max, tol, name, thetas=thetas)


def projector_pn(lifted: LiftedColumn) -> OpMatrix:
    return lifted.projector


def oike_layout(lifted: LiftedColumn) -> OpMatrix:
    """The projector written through the coordinate column: blocks of
    (1+Z†Z)^{-1} against Z entries."""
    s_inv = lifted.one_plus_ztz.inverse(ROW_TOL)
    zc = lifted.z_col
    n = zc.rows
    rows = [[s_inv] + [s_inv * zc.entry(k, 0).dagger() for k in range(n)]]
    for i in range(n):
        rows.append(
            [zc.entry(i, 0) * s_inv] + [zc.entry(i, 0) * s_inv * zc.entry(k, 0).dagger() for k in range(n)]
        )
    return OpMatrix.build(rows)


def oike_layout_check(thetas: Sequence[float], lifted: LiftedColumn, n_max: int, tol: float) -> List[CheckResult]:
    name = lifted.check_name("oike_layout")
    return matrix_equal(projector_pn(lifted), oike_layout(lifted), n_max, tol, name, thetas=thetas)


def eigencolumn_check(thetas: Sequence[float], lifted: LiftedColumn, n_max: int, tol: float) -> List[CheckResult]:
    """P_n A_n = A_n."""
    p = projector_pn(lifted)
    name = lifted.check_name("eigencolumn")
    return matrix_equal(p @ lifted.a_col, lifted.a_col, n_max, tol, name, thetas=thetas)
