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
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .report import CheckResult, Exclusions, upper_bound_check
from .symbols import (
    DEFAULT_SIGMA_TOL,
    DiagonalSymbol,
    adjoint,
    composed,
    const,
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

    def singular_support(self, n_max: int) -> Set[int]:
        """Basis indices n <= n_max at which any coefficient evaluation is singular."""
        return grid_deviation([[self]], n_max)[2].get(1, set())


# the ladder operators, built once: every builder composes these nodes
ANNIHILATION = FockOperator.annihilation()
CREATION = FockOperator.creation()


# -- the grid scan -----------------------------------------------------------

Location = Tuple[int, int, int, int]  # (row, column, n, d)


@functools.lru_cache(maxsize=1)  # the latest grid only: an n_max sweep holds one
def _index_grid(n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1, dtype=np.int64)
    n.flags.writeable = False  # node caches key on this object; nothing may change it
    return n


def grid_deviation(
    columns: Sequence[Sequence[FockOperator]], n_max: int, skip: Exclusions | None = None
) -> Tuple[float, Optional[Location], Dict[int, Set[int]]]:
    """Max |coefficient| over the grid states (slot j, n) with n <= n_max.

    This is the one grid scan.  ``columns[j]`` holds the operators (one
    per row) acting on slot j + 1.  Each coefficient is evaluated on one
    read-only index array shared by every scan at this n_max, so a
    subexpression is computed once per node, index offset and grid.

    It is also the one rule for singular states, the Dirac strings: a
    state is excluded when ``skip`` lists it or when a coefficient
    evaluated on it is singular, wherever its term maps it.  A term that
    maps it above n_max or below the vacuum adds no deviation.  Excluded
    states add nothing, and a NaN or infinite coefficient counts as an
    infinite deviation.

    Returns the maximum, the location of its first occurrence in slot,
    n, row, term order (None when the maximum is 0), and the exclusions
    per 1-based slot, ``skip`` included.
    """
    skip = skip or {}
    excluded = {s: set(v) for s, v in skip.items()}
    n = _index_grid(n_max)
    best, where = 0.0, None
    for j, col in enumerate(columns):
        # both masks stay None, unallocated, while the column has nothing to drop
        skipped = None
        states = [m for m in skip.get(j + 1, ()) if 0 <= m <= n_max]
        if states:
            skipped = np.zeros(n_max + 1, dtype=bool)
            skipped[states] = True
        found = None
        devs, labels = [], []
        for i, op in enumerate(col):
            for d, c in op.terms:
                v = c(n)
                if v.singular is not None:  # a node's cached mask: never written to
                    found = v.singular if found is None else found | v.singular
                dev = v.magnitude()
                if d > 0:
                    dev[max(n_max + 1 - d, 0) :] = -1.0  # maps above n_max
                else:
                    dev[: -d] = -1.0  # maps below the vacuum
                devs.append(dev)
                labels.append((i, d))
        if found is not None:
            found = found if skipped is None else found & ~skipped
            if found.any():
                excluded.setdefault(j + 1, set()).update(np.flatnonzero(found).tolist())
        if not devs:
            continue
        table = np.stack(devs, axis=1)
        table[np.isnan(table)] = np.inf
        for drop in (skipped, found):
            if drop is not None:
                table[drop] = -1.0
        at = int(np.argmax(table))
        if table.flat[at] > best:
            best = float(table.flat[at])
            row, t = divmod(at, len(devs))
            where = (labels[t][0], j, row, labels[t][1])
    return best, where, {s: v for s, v in excluded.items() if v}


def op_deviation(a: FockOperator, b: FockOperator, n_max: int) -> Tuple[float, Dict[int, Set[int]], str]:
    """Max |<m|A-B|n>| over the non-singular grid m, n <= n_max, the
    singular points of either side (slot 1 by convention for scalar
    operators) and the location of the maximum as a detail."""
    dev, where, excluded = grid_deviation([[a - b]], n_max)
    return dev, excluded, "" if where is None else f"max at (m={where[2] + where[3]}, n={where[2]})"


def op_equal(a: FockOperator, b: FockOperator, n_max: int, tol: float, name: str = "op_equal") -> CheckResult:
    """The check of ``op_deviation``: singular points are excluded from the
    scan and listed in the result, and it fails when every grid state is
    excluded."""
    dev, excluded, detail = op_deviation(a, b, n_max)
    return upper_bound_check(name, dev, tol, excluded, n_max + 1, detail)
