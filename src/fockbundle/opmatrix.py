"""Matrices with FockOperator entries and grid-based identity checks.

Multiplication uses ordered entry products (left factor composed on the
left), so operator ordering inside every product is observable.  Grid
checks run over all basis states (slot, |n>) with n <= n_max; states on
which some coefficient is singular are excluded from the scan and
reported per slot -- the exclusion sets are the Dirac strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .operators import FockOperator, grid_deviation
from .report import CheckResult, Exclusions, merge_excluded, upper_bound_check


@dataclass(frozen=True)
class OpMatrix:
    entries: Tuple[Tuple[FockOperator, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(self.entries[0])
        if any(len(row) != cols for row in self.entries):
            raise ValueError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def build(rows: Sequence[Sequence[FockOperator]]) -> "OpMatrix":
        return OpMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def identity(k: int) -> "OpMatrix":
        return OpMatrix.diag(*[FockOperator.identity()] * k)

    @staticmethod
    def diag(*ops: FockOperator) -> "OpMatrix":
        k = len(ops)
        return OpMatrix.build(
            [[ops[i] if i == j else FockOperator.zero() for j in range(k)] for i in range(k)]
        )

    @staticmethod
    def from_scalars(values: np.ndarray) -> "OpMatrix":
        """Numeric (classical) matrix, embedded as constant operators."""
        arr = np.atleast_2d(np.asarray(values, dtype=complex))
        return OpMatrix.build([[FockOperator.scalar(v) for v in row] for row in arr])

    def entry(self, i: int, j: int) -> FockOperator:
        return self.entries[i][j]

    def columns(self) -> List[List[FockOperator]]:
        return [[row[j] for row in self.entries] for j in range(self.cols)]

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        rows = []
        for i in range(self.rows):
            row = []
            for k in range(other.cols):
                acc = FockOperator.zero()
                for j in range(self.cols):
                    acc = acc + self.entries[i][j] * other.entries[j][k]
                row.append(acc)
            rows.append(row)
        return OpMatrix.build(rows)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix.build(
            [[self.entries[i][j] - other.entries[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def dagger(self) -> "OpMatrix":
        return OpMatrix.build(
            [[self.entries[j][i].dagger() for j in range(self.rows)] for i in range(self.cols)]
        )

    def kron(self, other: "OpMatrix") -> "OpMatrix":
        """(A kron B)[(i,k)][(j,l)] = A[i][j] composed left of B[k][l]."""
        rows = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    for l in range(other.cols):
                        row.append(self.entries[i][j] * other.entries[k][l])
                rows.append(row)
        return OpMatrix.build(rows)

    # -- evaluation -------------------------------------------------------

    def column_singular_map(self, n_max: int) -> Dict[int, Set[int]]:
        """Per input slot, the basis states on which some column entry is singular."""
        return grid_deviation(self.columns(), n_max)[2]


def strings(n_max: int, *forms: OpMatrix) -> Dict[int, List[int]]:
    """The Dirac strings of an object displayed in several forms: the
    union of the forms' column singular maps."""
    return merge_excluded(*(form.column_singular_map(n_max) for form in forms))


def matrix_grid_deviation(
    diff: OpMatrix, n_max: int, skip: Exclusions | None = None
) -> Tuple[float, str, Dict[int, Set[int]]]:
    """Max |coefficient| of ``diff`` over non-excluded grid states.

    Returns (max deviation, location string, exclusion map); states in
    ``skip`` and states found singular during the scan are excluded (see
    ``operators.grid_deviation`` for the rules).
    """
    dev, at, excluded = grid_deviation(diff.columns(), n_max, skip)
    where = "" if at is None else f"(slot{at[0] + 1},{at[2] + at[3]} | slot{at[1] + 1},{at[2]})"
    return dev, where, excluded


def matrix_equal(
    a: OpMatrix,
    b: OpMatrix,
    n_max: int,
    tol: float,
    name: str = "matrix_equal",
    skip: Exclusions | None = None,
    detail: str = "",
) -> CheckResult:
    """Max deviation of A - B on the grid; fails when every state is excluded.
    A ``detail`` replaces the default one, the location of the maximum."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    max_dev, where, excl = matrix_grid_deviation(a - b, n_max, skip)
    detail = detail or (f"max at {where}" if where else "")
    return upper_bound_check(name, max_dev, tol, excl, a.cols * (n_max + 1), detail)


def pair_check(
    name: str, first: OpMatrix, second: OpMatrix, n_max: int, tol: float, skip: Exclusions, detail: str = ""
) -> CheckResult:
    """The larger of two grid deviations (each against zero) with the
    union of their exclusions; the default detail is the location, the
    first one's on a tie."""
    dev1, w1, e1 = matrix_grid_deviation(first, n_max, skip)
    dev2, w2, e2 = matrix_grid_deviation(second, n_max, skip)
    detail = detail or f"max at {w1 if dev1 >= dev2 else w2}"
    return upper_bound_check(name, max(dev1, dev2), tol, merge_excluded(e1, e2), first.cols * (n_max + 1), detail)


def check_unitary(
    m: OpMatrix, n_max: int, tol: float, name: str = "unitary", detail: str = "", skip: Exclusions | None = None
) -> CheckResult:
    """Deviation of M†M and MM† from the identity on the grid off ``skip``.

    By default ``skip`` is the strings of M and M†, even where the
    products happen to smooth the singularity out: the operator being
    checked is undefined there.
    """
    if m.rows != m.cols:
        raise ValueError("unitarity check needs a square matrix")
    ident = OpMatrix.identity(m.rows)
    skip = strings(n_max, m, m.dagger()) if skip is None else skip
    return pair_check(name, m.dagger() @ m - ident, m @ m.dagger() - ident, n_max, tol, skip, detail)


def check_idempotent_hermitian(
    m: OpMatrix, n_max: int, tol: float, name: str = "projector", skip: Exclusions | None = None
) -> CheckResult:
    """Deviations of M@M - M and M† - M on the grid off ``skip``, by
    default the strings of M and M†."""
    if m.rows != m.cols:
        raise ValueError("projector check needs a square matrix")
    skip = strings(n_max, m, m.dagger()) if skip is None else skip
    return pair_check(name, m @ m - m, m.dagger() - m, n_max, tol, skip)
