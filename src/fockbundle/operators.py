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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .report import CheckResult, Exclusions, Frozen, upper_bound_check
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


class FockOperator(Frozen):
    """Normal-form finite sum of shift terms, at most one per shift degree; equal when the terms are."""

    terms: Tuple[Tuple[int, DiagonalSymbol], ...]

    def __init__(self, terms: Tuple[Tuple[int, DiagonalSymbol], ...]):
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        return type(other) is FockOperator and other.terms == self.terms

    def __hash__(self):
        return hash(self.terms)

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

    # no caller in the package: it stays only because perfbench/tracer.py times it (layer operators.support)
    def singular_support(self, n_max: int, thetas: Optional[Sequence[float]] = None) -> List[Set[int]]:
        """Basis indices n <= n_max at which any coefficient evaluation is
        singular, one set per theta row (one row without ``thetas``)."""
        return [excluded.get(1, set()) for excluded in singular_rows([[self]], n_max, thetas)]


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


def _read_column(col: Sequence[FockOperator], right_col: Optional[Sequence[FockOperator]], grid: Grid, out):
    """A column's term labels (row, shift degree) and the values read for each, less ``right_col``'s if given,
    with their singular masks OR-ed into ``out``: the one read of a term's mask, where singular states are found."""
    sides = [(dict(op.terms), {} if right_col is None else dict(right_col[i].terms)) for i, op in enumerate(col)]
    labels = [(i, d) for i, (x, y) in enumerate(sides) for d in sorted(x.keys() | y.keys())]
    values = [
        (x or y)(grid) if x is None or y is None else difference(x(grid), y(grid))
        for x, y in ((sides[i][0].get(d), sides[i][1].get(d)) for i, d in labels)
    ]
    for v in values:
        if v.singular is not None:  # a node's cached mask: only read
            out |= v.singular
    return labels, values


def scan_rows(
    columns: Sequence[Sequence[FockOperator]],
    n_max: int,
    thetas: Optional[Sequence[float]] = None,
    skip: Exclusions | Sequence[Exclusions] | None = None,
    right: Optional[Sequence[Sequence[FockOperator]]] = None,
) -> List[ScanRow]:
    """Max |coefficient| over the grid states (slot j, n) with n <= n_max,
    one result per theta row, one row without ``thetas``.

    This is the one grid scan.  ``columns[j]`` holds the operators (one
    per row of the matrix) acting on slot j + 1.  Each coefficient is
    evaluated once on the grid every scan at this n_max and ``thetas``
    shares, for all theta rows at once, so a subexpression is computed
    once per node, index offset and grid.  Given ``right``, columns of the
    same shape, each shift degree of either side is read on both and
    subtracted on the grid (``symbols.difference``): no operator is built
    for the difference.

    It applies the one rule for singular states, the Dirac strings, that
    ``_read_column`` holds: a state is excluded when ``skip`` lists it or a
    coefficient evaluated on it is singular, wherever its term maps it.  A
    term mapping it above n_max or below the vacuum adds no deviation, nor
    does an excluded state; a NaN or infinite coefficient counts as infinite.

    Each row is reduced by that rule on its own to the maximum, the
    location of its first occurrence in slot, n, row, term order (None
    when the maximum is 0), and the exclusions per 1-based slot, ``skip``
    included.  ``skip`` is one map for every row or a sequence of one per
    row.
    """
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
            column, values = _read_column(col, None if right is None else right[j], grid, dropped[:, j])
            labels.append(column)
            if not column:
                continue
            table = np.empty((rows, size, len(column)))  # |value| per row, state and term
            for t, ((_, d), v) in enumerate(zip(column, values)):
                dev = v.magnitude(out=table[:, :, t])  # |-y| = |y|
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
    _list_dropped(dropped, excluded)  # a skipped state is already listed
    top = tops[best, np.arange(rows)].tolist()
    return [(top[r], where[r], {s: v for s, v in excluded[r].items() if v}) for r in range(rows)]


def singular_rows(columns: Sequence[Sequence[FockOperator]], n_max: int, thetas: Optional[Sequence[float]] = None):
    """The exclusions ``scan_rows`` finds with no ``skip``, per theta row, from the masks alone: no deviation."""
    grid = _grid(n_max, None if thetas is None else np.array(thetas, dtype=float).tobytes())
    dropped = np.zeros((len(per_row(None, thetas)), len(columns), n_max + 1), dtype=bool)
    with np.errstate(all="ignore"):
        for j, col in enumerate(columns):
            _read_column(col, None, grid, dropped[:, j])
    return _list_dropped(dropped, [{} for _ in dropped])


def _list_dropped(dropped: np.ndarray, excluded: List[Dict[int, Set[int]]]) -> List[Dict[int, Set[int]]]:
    """``excluded``, one map per row, with the states of the (rows, slots, n_max + 1) mask ``dropped``
    added under their 1-based slots, in row, slot, n order: the one listing of both scanners' masks."""
    _, slots, size = dropped.shape
    for k in np.flatnonzero(dropped).tolist():
        excluded[k // (slots * size)].setdefault(k // size % slots + 1, set()).add(k % size)
    return excluded


def op_equal(
    a: FockOperator,
    b: FockOperator,
    n_max: int,
    tol: float,
    name: str = "op_equal",
    thetas: Optional[Sequence[float]] = None,
) -> List[CheckResult]:
    """Max |<m|A-B|n>| over the grid m, n <= n_max as a check: the singular
    points of either side (slot 1 by convention for scalar operators) are
    excluded from the scan and listed in the result, the location of the
    maximum is its detail, and it fails when every grid state is excluded.
    One record per theta row (``row_names``)."""
    checks = []
    for row, (dev, at, excluded) in zip(row_names(name, thetas), scan_rows([[a]], n_max, thetas, right=[[b]])):
        detail = "" if at is None else f"max at (m={at[2] + at[3]}, n={at[2]})"
        checks.append(upper_bound_check(row, dev, tol, excluded, n_max + 1, detail))
    return checks
