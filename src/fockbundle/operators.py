"""Weighted-shift operator algebra over the bosonic number basis.

A FockOperator is a finite sum of shift terms (d, c): the term acts on a
basis state |n> as c(n)|n+d>, and as 0 whenever n+d < 0.  Every operator
built from the ladder operators and functions of the number operator is
closed under composition, adjoint and linear combination in this form,
so operator identities can be checked on arbitrarily large basis grids
without any truncation error: the only cutoff lives in the verification
grid, never in the operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .report import Exclusions, upper_bound_check
from .symbols import (
    DEFAULT_SIGMA_TOL,
    DiagonalSymbol,
    Grid,
    adjoint,
    composed,
    const,
    difference,
    guarded_div,
    guarded_pow,
    guarded_sqrt,
    number,
)

Scalar = (int, float, complex)


@dataclass(frozen=True)
class FockOperator:
    """Normal-form finite sum of shift terms, at most one per shift degree."""

    terms: Tuple[Tuple[int, DiagonalSymbol], ...]

    @staticmethod
    def from_terms(mapping: Mapping[int, DiagonalSymbol]) -> "FockOperator":
        return FockOperator(tuple(sorted(mapping.items())))

    @staticmethod
    def zero() -> "FockOperator":
        return FockOperator(())

    @staticmethod
    def diagonal(sym: DiagonalSymbol) -> "FockOperator":
        return FockOperator.from_terms({0: sym})

    @staticmethod
    def scalar(value: complex) -> "FockOperator":
        return FockOperator.diagonal(const(value))

    @staticmethod
    def identity() -> "FockOperator":
        return FockOperator.scalar(1.0)

    @staticmethod
    def annihilation() -> "FockOperator":
        return FockOperator.from_terms({-1: guarded_sqrt(number())})

    @staticmethod
    def creation() -> "FockOperator":
        return FockOperator.from_terms({1: guarded_sqrt(number(1))})

    @staticmethod
    def number_op() -> "FockOperator":
        return FockOperator.diagonal(number())

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "FockOperator") -> "FockOperator":
        out: Dict[int, DiagonalSymbol] = dict(self.terms)
        for d, c in other.terms:
            out[d] = out[d] + c if d in out else c
        return FockOperator.from_terms(out)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "FockOperator":
        return (-1.0) * self

    def scale(self, z: complex) -> "FockOperator":
        if z == 0:
            return FockOperator.zero()
        if z == 1:  # an identity factor: const(1) * c would be a new node with the values of c
            return self
        return FockOperator.from_terms({d: const(z) * c for d, c in self.terms})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        out: Dict[int, DiagonalSymbol] = {}
        for da, ca in self.terms:
            for db, cb in other.terms:
                sym = composed(ca, db, cb)
                d = da + db
                out[d] = out[d] + sym if d in out else sym
        return FockOperator.from_terms(out)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def dagger(self) -> "FockOperator":
        out: Dict[int, DiagonalSymbol] = {}
        for d, c in self.terms:
            out[-d] = adjoint(c, d)
        return FockOperator.from_terms(out)

    def inverse(self, tol: float = DEFAULT_SIGMA_TOL) -> "FockOperator":
        return FockOperator.diagonal(guarded_div(1.0, self._diagonal_symbol("inverse"), tol))

    def power(self, exponent: float, tol: float = DEFAULT_SIGMA_TOL) -> "FockOperator":
        """Pointwise real power; only defined for pure functions of N."""
        return FockOperator.diagonal(guarded_pow(self._diagonal_symbol("power"), exponent, tol))

    def _diagonal_symbol(self, what: str) -> DiagonalSymbol:
        if any(d != 0 for d, _ in self.terms):
            raise ValueError(f"{what} is only defined for shift-degree-0 operators")
        return self.terms[0][1] if self.terms else const(0.0)

    # -- evaluation -------------------------------------------------------

    def singular_support(self, n_max: int, thetas: Optional[Sequence[float]] = None):
        """Basis indices n <= n_max at which any coefficient evaluation is
        singular; with ``thetas``, one set per theta row."""
        rows = [excluded.get(1, set()) for _, _, excluded in scan_rows([[self]], n_max, thetas)]
        return one_or_rows(rows, thetas)


# the ladder operators, built once: every builder composes these nodes
ANNIHILATION = FockOperator.annihilation()
CREATION = FockOperator.creation()


# -- the grid scan -----------------------------------------------------------

Location = Tuple[int, int, int, int]  # (row, column, n, d)
ScanRow = Tuple[float, Optional[Location], Dict[int, Set[int]]]


@functools.lru_cache(maxsize=2)  # the latest grids: a run holds one with theta rows and one without
def _grid(n_max: int, thetas: Optional[bytes]) -> Grid:
    # keyed by the bits of the detunings, as +0.0 and -0.0 compare equal
    n = np.arange(n_max + 1, dtype=np.int64)
    n.flags.writeable = False  # node caches key on this grid; nothing may change its index row
    return Grid(n, None if thetas is None else np.frombuffer(thetas).tolist())


def row_names(name: str, thetas: Optional[Sequence[float]]) -> List[str]:
    """The record name of each row: ``name`` alone without theta rows, else ``{name}_theta{theta}``."""
    return [name] if thetas is None else [f"{name}_theta{theta}" for theta in thetas]


def per_row(value: Any, thetas: Optional[Sequence[float]]) -> list:
    """``value`` for each row: a list or tuple holds one value per row, anything else serves every row."""
    rows = 1 if thetas is None else len(thetas)
    if isinstance(value, (list, tuple)):
        if len(value) != rows:
            raise ValueError(f"{len(value)} values for {rows} rows")
        return list(value)
    return [value] * rows


def one_or_rows(rows: list, thetas: Optional[Sequence[float]]):
    """The scan convention: with ``thetas`` the list of one result per
    theta row, without them the one result of the scan."""
    return rows if thetas is not None else rows[0]


def as_rows(result, thetas: Optional[Sequence[float]]) -> list:
    """The inverse of ``one_or_rows``: a list of one result per row."""
    return result if thetas is not None else [result]


def grid_deviation(
    columns: Sequence[Sequence[FockOperator]],
    n_max: int,
    skip: Exclusions | Sequence[Exclusions] | None = None,
    thetas: Optional[Sequence[float]] = None,
):
    """Max |coefficient| over the grid states (slot j, n) with n <= n_max.

    This is the one grid scan.  ``columns[j]`` holds the operators (one
    per row of the matrix) acting on slot j + 1.  Each coefficient is
    evaluated once on the grid every scan at this n_max and ``thetas``
    shares, for all theta rows at once, so a subexpression is computed
    once per node, index offset and grid.

    It is also the one rule for singular states, the Dirac strings: a
    state is excluded when ``skip`` lists it or when a coefficient
    evaluated on it is singular, wherever its term maps it.  A term that
    maps it above n_max or below the vacuum adds no deviation.  Excluded
    states add nothing, and a NaN or infinite coefficient counts as an
    infinite deviation.

    Returns the maximum, the location of its first occurrence in slot,
    n, row, term order (None when the maximum is 0), and the exclusions
    per 1-based slot, ``skip`` included.  With ``thetas`` every theta row
    is reduced by that rule on its own and the result is one such triple
    per row (see ``one_or_rows``); ``skip`` is then one map for every row
    or a sequence of one per row.
    """
    return one_or_rows(scan_rows(columns, n_max, thetas, skip), thetas)


def scan_rows(
    columns: Sequence[Sequence[FockOperator]],
    n_max: int,
    thetas: Optional[Sequence[float]] = None,
    skip: Exclusions | Sequence[Exclusions] | None = None,
    right: Optional[Sequence[Sequence[FockOperator]]] = None,
) -> List[ScanRow]:
    """``grid_deviation`` as a list of one result per row, one row without ``thetas``.  Given
    ``right``, columns of the same shape, each shift degree of either side is read on both and
    subtracted on the grid (``symbols.difference``): no operator is built for the difference."""
    grid = _grid(n_max, None if thetas is None else np.array(thetas, dtype=float).tobytes())
    skips = [s or {} for s in per_row(skip, thetas)]
    rows, size, slots = len(skips), n_max + 1, len(columns)
    excluded = [{s: set(v) for s, v in sk.items()} for sk in skips]
    # the states each row drops, per slot: skipped ones, then those singular wherever their terms map them
    dropped = np.zeros((rows, slots, size), dtype=bool)
    for r, sk in enumerate(skips):
        for s, states in sk.items():
            if 1 <= s <= slots:
                dropped[r, s - 1, [m for m in states if 0 <= m <= n_max]] = True
    # row 0 is the starting maximum 0, so the first maximum of a row is the first column above 0
    tops, ats, labels = np.zeros((slots + 1, rows)), np.zeros((slots + 1, rows), dtype=np.intp), [None]
    with np.errstate(all="ignore"):  # no value warns, whatever its guards let through
        for j, col in enumerate(columns):
            sides = [(dict(op.terms), {} if right is None else dict(right[j][i].terms)) for i, op in enumerate(col)]
            labels.append([(i, d) for i, (x, y) in enumerate(sides) for d in sorted(x.keys() | y.keys())])
            if not labels[-1]:
                continue
            table = np.empty((rows, size, len(labels[-1])))  # |value| per row, state and term
            for t, (i, d) in enumerate(labels[-1]):
                x, y = sides[i][0].get(d), sides[i][1].get(d)
                if x is None or y is None:
                    v = (x or y)(grid, raw=True)
                else:
                    v = difference(x(grid, raw=True), y(grid, raw=True))
                dev = v.magnitude(out=table[:, :, t])  # |-y| = |y|
                if v.singular is not None:  # a node's cached mask: only read
                    dropped[:, j] |= v.singular
                if d > 0:
                    dev[:, max(size - d, 0) :] = -1.0  # maps above n_max
                else:
                    dev[:, : -d] = -1.0  # maps below the vacuum
            table[np.isnan(table)] = np.inf
            table[dropped[:, j]] = -1.0
            flat = table.reshape(rows, -1)
            ats[j + 1] = flat.argmax(axis=1)
            tops[j + 1] = flat[np.arange(rows), ats[j + 1]]
    best = tops.argmax(axis=0)
    where: List[Optional[Location]] = [None] * rows
    for r, j in enumerate(best.tolist()):
        if j:
            n, t = divmod(int(ats[j, r]), len(labels[j]))
            where[r] = (labels[j][t][0], j - 1, n, labels[j][t][1])
    for r, s, n in zip(*(axis.tolist() for axis in np.nonzero(dropped))):  # a skipped state is already listed
        excluded[r].setdefault(s + 1, set()).add(n)
    top = tops[best, np.arange(rows)].tolist()
    return [(top[r], where[r], {s: v for s, v in excluded[r].items() if v}) for r in range(rows)]


def op_deviation(a: FockOperator, b: FockOperator, n_max: int, thetas: Optional[Sequence[float]] = None):
    """Max |<m|A-B|n>| over the non-singular grid m, n <= n_max, the
    singular points of either side (slot 1 by convention for scalar
    operators) and the location of the maximum as a detail; with
    ``thetas``, one such triple per theta row."""
    return one_or_rows(_op_rows(a, b, n_max, thetas), thetas)


def _op_rows(a: FockOperator, b: FockOperator, n_max: int, thetas: Optional[Sequence[float]]) -> list:
    return [
        (dev, excluded, "" if where is None else f"max at (m={where[2] + where[3]}, n={where[2]})")
        for dev, where, excluded in scan_rows([[a]], n_max, thetas, right=[[b]])
    ]


def op_equal(
    a: FockOperator,
    b: FockOperator,
    n_max: int,
    tol: float,
    name: str = "op_equal",
    thetas: Optional[Sequence[float]] = None,
):
    """The check of ``op_deviation``: singular points are excluded from the
    scan and listed in the result, and it fails when every grid state is
    excluded.  With ``thetas``, one record per theta row (``row_names``)."""
    records = [
        upper_bound_check(row, dev, tol, excluded, n_max + 1, detail)
        for row, (dev, excluded, detail) in zip(row_names(name, thetas), _op_rows(a, b, n_max, thetas))
    ]
    return one_or_rows(records, thetas)
