"""Matrices with FockOperator entries and grid-based identity checks.

Multiplication uses ordered entry products (left factor composed on the
left), so operator ordering inside every product is observable.  Grid
checks run over all basis states (slot, |n>) with n <= n_max; states on
which some coefficient is singular are excluded from the scan and
reported per slot -- the exclusion sets are the Dirac strings.  A scan or
check runs on every theta row at once and returns a list of one result per
row, in order, one row without ``thetas``, as ``operators.scan_rows`` does;
a ``detail`` is one value for every row or a list of one per row, and a
``skip`` one boolean (row, slot, state) mask, as the string maps return it.
"""

from __future__ import annotations

from functools import reduce
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .operators import FockOperator, per_row, row_names, scan_rows, singular_rows
from .report import CheckResult, Frozen, excluded_rows, upper_bound_check

Thetas = Optional[Sequence[float]]
Skip = Optional[np.ndarray]  # a boolean mask that broadcasts to (theta rows, slots, n_max + 1)
Side = Union["OpMatrix", "Product"]  # what a scan or check compares


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

    def entry(self, i: int, j: int) -> FockOperator:
        return self.entries[i][j]

    def columns(self) -> List[List[FockOperator]]:
        return [[row[j] for row in self.entries] for j in range(self.cols)]

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        # each entry sums its factor pairs' products in l order from the first: zero + ... would only copy it
        rows = zip(*Product(self, other).columns())
        return OpMatrix.build([[reduce(FockOperator.__add__, (a * b for a, b in pairs)) for pairs in row] for row in rows])

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return OpMatrix.build(
            [[self.entries[i][j] - other.entries[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def dagger(self) -> "OpMatrix":
        return OpMatrix.build(
            [[self.entries[j][i].dagger() for j in range(self.rows)] for i in range(self.cols)]
        )

    def conjugated(self, t: np.ndarray) -> "OpMatrix":
        """t† M t for a numeric matrix t, associated as (t† M) t.  Each entry
        sums its products in index order, each an entry of M scaled by a
        number of t (``FockOperator.scale``).  A number equal to 0 (0, -0.0
        or 0j) adds no product, so no singular mark of the entry it would
        scale rides on it: a check that relies on those marks passes them as
        ``skip``."""
        t = np.asarray(t, dtype=complex)
        left = [[_weighted_sum(np.conj(t[:, i]), col) for col in self.columns()] for i in range(t.shape[1])]
        return OpMatrix.build([[_weighted_sum(t[:, k], row) for k in range(t.shape[1])] for row in left])

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

    def column_singular_map(self, n_max: int, thetas: Thetas = None) -> np.ndarray:
        """The (theta rows, slots, n_max + 1) mask of the basis states on which some entry of a column is singular."""
        return singular_rows(self.columns(), n_max, thetas)


class Product:
    """A @ B that a check only compares: each entry is its factor pairs (A[i][l], B[l][k]), l = 0, 1, ...,
    which ``@`` composes and adds and a scan multiplies on the grid with the same bits
    (``operators._entry_values``), so no node of the product is built.  It is not a matrix to compose."""

    def __init__(self, a: OpMatrix, b: OpMatrix):
        if a.cols != b.rows:
            raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
        self.rows, self.cols = a.rows, b.cols
        self._pairs = [[tuple(zip(row, col)) for row in a.entries] for col in b.columns()]

    def columns(self) -> List[List[tuple]]:
        return self._pairs


def _weighted_sum(weights: np.ndarray, ops: Sequence[FockOperator]) -> FockOperator:
    """The sum of ``w * op`` in index order, with no term for a zero weight."""
    total = FockOperator.zero()
    for w, op in zip(weights.tolist(), ops):
        if w != 0:  # a real w scales as w.real: np.conj's -0.0 imaginary part would intern a second constant
            total = total + op.scale(w.real if w.imag == 0 else w)
    return total


def strings(n_max: int, *forms: OpMatrix, thetas: Thetas = None) -> np.ndarray:
    """The Dirac strings of an object displayed in several forms: the
    union of the forms' column singular masks, as wide as the widest."""
    union = np.zeros((1 if thetas is None else len(thetas), max(form.cols for form in forms), n_max + 1), dtype=bool)
    for form in forms:
        union[:, : form.cols] |= form.column_singular_map(n_max, thetas)
    return union


def matrix_grid_deviation(
    left: Side, n_max: int, skip: Skip = None, thetas: Thetas = None, right: Side | None = None
) -> Tuple[List[float], List[str], np.ndarray]:
    """Max |coefficient| of ``left``, or of ``left`` - ``right`` subtracted
    on the grid, over non-excluded grid states.

    Returns the max deviations and their location strings, one per theta
    row, and the mask of the excluded states: those in ``skip`` and those
    found singular during the scan (see ``operators.scan_rows`` for the rules).
    """
    top, at, dropped = scan_rows(left.columns(), n_max, thetas, skip, None if right is None else right.columns())
    where = ["" if a is None else f"(slot{a[0] + 1},{a[2] + a[3]} | slot{a[1] + 1},{a[2]})" for a in at]
    return top, where, dropped


def matrix_equal(
    a: Side,
    b: Side,
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
    top, at, dropped = matrix_grid_deviation(a, n_max, skip, thetas, right=b)
    rows = zip(row_names(name, thetas), per_row(detail, thetas), top, at, excluded_rows(dropped))
    return [
        upper_bound_check(row, dev, tol, excl, a.cols * (n_max + 1), text or (f"max at {where}" if where else ""))
        for row, text, dev, where, excl in rows
    ]


def pair_check(
    name: str,
    first: Tuple[Side, Side],
    second: Tuple[Side, Side],
    n_max: int,
    tol: float,
    skip: Skip,
    detail: str | Sequence[str] = "",
    thetas: Thetas = None,
) -> List[CheckResult]:
    """The larger of two grid deviations, each of a (left, right) pair of
    sides of one shape, with the union of their exclusions; the default
    detail is the location, the first one's on a tie, and empty when both are 0."""
    top1, at1, dropped1 = matrix_grid_deviation(first[0], n_max, skip, thetas, right=first[1])
    top2, at2, dropped2 = matrix_grid_deviation(second[0], n_max, skip, thetas, right=second[1])
    rows = zip(row_names(name, thetas), per_row(detail, thetas), top1, at1, top2, at2)
    records: List[CheckResult] = []
    for (row, text, dev1, w1, dev2, w2), excluded in zip(rows, excluded_rows(dropped1 | dropped2)):
        where = w1 if dev1 >= dev2 else w2
        text = text or (f"max at {where}" if where else "")
        records.append(upper_bound_check(row, max(dev1, dev2), tol, excluded, first[0].cols * (n_max + 1), text))
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
    one, adjoint = OpMatrix.identity(m.rows), m.dagger()
    skip = strings(n_max, m, adjoint, thetas=thetas) if skip is None else skip
    return pair_check(name, (Product(adjoint, m), one), (Product(m, adjoint), one), n_max, tol, skip, detail, thetas)


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
    return pair_check(name, (Product(m, m), m), (adjoint, m), n_max, tol, skip, thetas=thetas)
