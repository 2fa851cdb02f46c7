"""Matrices with FockOperator entries and grid-based identity checks.

Multiplication uses ordered entry products (left factor composed on the
left), so operator ordering inside every product is observable.  Grid
checks run over all basis states (slot, |n>) with n <= n_max; states on
which some coefficient is singular are excluded from the scan and
reported per slot -- the exclusion sets are the Dirac strings.  A scan or
check runs on every theta row at once and returns a list of one result per
row, in order, one row without ``thetas``, as ``operators.scan_rows`` does;
a ``skip`` or ``detail`` is one value for every row or a list of one per row.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .operators import FockOperator, per_row, row_names, scan_rows, singular_rows
from .report import CheckResult, Exclusions, Frozen, merge_excluded, upper_bound_check

Thetas = Optional[Sequence[float]]
Skip = Exclusions | Sequence[Exclusions] | None


class OpMatrix(Frozen):
    entries: Tuple[Tuple[FockOperator, ...], ...]

    def __init__(self, entries: Tuple[Tuple[FockOperator, ...], ...]):
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        return type(other) is OpMatrix and other.entries == self.entries

    def __hash__(self):
        return hash(self.entries)

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
        """Numeric (classical) matrix, embedded as constant operators.  An entry
        equal to 0 (0, -0.0 or 0j) is the zero operator, with no terms, so a
        product with it builds nothing: a check that relied on such a product
        to carry the singular marks of its other factor passes them as ``skip``."""
        arr = np.atleast_2d(np.asarray(values, dtype=complex))
        return OpMatrix.build([[FockOperator.scalar(v) if v != 0 else FockOperator.zero() for v in row] for row in arr])

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
                acc = self.entries[i][0] * other.entries[0][k]  # not zero + ...: that would only copy it
                for j in range(1, self.cols):
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

    def column_singular_map(self, n_max: int, thetas: Thetas = None) -> List[Exclusions]:
        """Per input slot, the basis states on which some column entry is singular, per theta row."""
        return singular_rows(self.columns(), n_max, thetas)


def strings(n_max: int, *forms: OpMatrix, thetas: Thetas = None) -> List[Exclusions]:
    """The Dirac strings of an object displayed in several forms: the
    union of the forms' column singular maps, per theta row."""
    maps = [form.column_singular_map(n_max, thetas) for form in forms]
    return [merge_excluded(*row) for row in zip(*maps)]


def matrix_grid_deviation(
    left: OpMatrix, n_max: int, skip: Skip = None, thetas: Thetas = None, right: OpMatrix | None = None
) -> list:
    """Max |coefficient| of ``left``, or of ``left`` - ``right`` subtracted
    on the grid, over non-excluded grid states.

    Returns (max deviation, location string, exclusion map) per theta
    row; states in ``skip`` and states found singular during the scan are
    excluded (see ``operators.scan_rows`` for the rules).
    """
    scanned = scan_rows(left.columns(), n_max, thetas, skip, None if right is None else right.columns())
    return [
        (dev, "" if at is None else f"(slot{at[0] + 1},{at[2] + at[3]} | slot{at[1] + 1},{at[2]})", excluded)
        for dev, at, excluded in scanned
    ]


def matrix_equal(
    a: OpMatrix,
    b: OpMatrix,
    n_max: int,
    tol: float,
    name: str = "matrix_equal",
    skip: Skip = None,
    detail: str | Sequence[str] = "",
    thetas: Thetas = None,
) -> List[CheckResult]:
    """Max deviation of A - B on the grid; fails when every state is excluded.
    A ``detail`` replaces the default one, the location of the maximum."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    found = matrix_grid_deviation(a, n_max, skip, thetas, right=b)
    return [
        upper_bound_check(row, dev, tol, excl, a.cols * (n_max + 1), text or (f"max at {where}" if where else ""))
        for row, text, (dev, where, excl) in zip(row_names(name, thetas), per_row(detail, thetas), found)
    ]


def pair_check(
    name: str,
    first: Tuple[OpMatrix, OpMatrix],
    second: Tuple[OpMatrix, OpMatrix],
    n_max: int,
    tol: float,
    skip: Skip,
    detail: str | Sequence[str] = "",
    thetas: Thetas = None,
) -> List[CheckResult]:
    """The larger of two grid deviations, each of a (left, right) pair of
    sides, with the union of their exclusions; the default detail is the
    location, the first one's on a tie, and empty when both are 0."""
    rows = zip(
        row_names(name, thetas),
        per_row(detail, thetas),
        matrix_grid_deviation(first[0], n_max, skip, thetas, right=first[1]),
        matrix_grid_deviation(second[0], n_max, skip, thetas, right=second[1]),
    )
    records: List[CheckResult] = []
    for row, text, (dev1, w1, e1), (dev2, w2, e2) in rows:
        where = w1 if dev1 >= dev2 else w2
        text = text or (f"max at {where}" if where else "")
        excluded, grid_states = merge_excluded(e1, e2), first[0].cols * (n_max + 1)
        records.append(upper_bound_check(row, max(dev1, dev2), tol, excluded, grid_states, text))
    return records


def check_unitary(
    m: OpMatrix,
    n_max: int,
    tol: float,
    name: str = "unitary",
    detail: str | Sequence[str] = "",
    skip: Skip = None,
    thetas: Thetas = None,
) -> List[CheckResult]:
    """Deviation of M†M and MM† from the identity on the grid off ``skip``.

    By default ``skip`` is the strings of M and M†, even where the
    products happen to smooth the singularity out: the operator being
    checked is undefined there.
    """
    if m.rows != m.cols:
        raise ValueError("unitarity check needs a square matrix")
    ident, adjoint = OpMatrix.identity(m.rows), m.dagger()
    skip = strings(n_max, m, adjoint, thetas=thetas) if skip is None else skip
    return pair_check(name, (adjoint @ m, ident), (m @ adjoint, ident), n_max, tol, skip, detail, thetas)


def check_idempotent_hermitian(
    m: OpMatrix,
    n_max: int,
    tol: float,
    name: str = "projector",
    skip: Skip = None,
    adjoint: OpMatrix | None = None,
    thetas: Thetas = None,
) -> List[CheckResult]:
    """Deviations of M@M from M and of M† from M on the grid off ``skip``, by
    default the strings of M and M†.  ``adjoint`` is M† when the caller
    has built it already."""
    if m.rows != m.cols:
        raise ValueError("projector check needs a square matrix")
    adjoint = m.dagger() if adjoint is None else adjoint
    skip = strings(n_max, m, adjoint, thetas=thetas) if skip is None else skip
    return pair_check(name, (m @ m, m), (adjoint, m), n_max, tol, skip, thetas=thetas)
