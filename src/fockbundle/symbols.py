"""Coefficient functions of the photon-number index, evaluated over the grid.

A DiagonalSymbol is a node of a guarded expression: a constant, the
index itself, a vectorised leaf, add/sub/mul, a guarded division /
square root / power of a real argument, or one of the two node kinds the
shift algebra needs (a composed product and an adjoint coefficient).  A
node evaluates on a whole int64 index array at once and returns the
values plus a singular mask: a vanishing divisor, or a square root of a
negative value, marks the index singular instead of producing NaN/Inf.

Values keep CPython's scalar arithmetic bit for bit.  A real symbol is
held as one float64 array; a complex one as real and imaginary float64
arrays, combined with CPython's formulas for complex ``*`` and ``abs``.
The grid is the only way to read a symbol: calling one on anything but
an int64 index array is a TypeError.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

DEFAULT_SIGMA_TOL = 1e-12

Scalar = Union[int, float, complex]


def sigma_tol(theta: float = 0.0) -> float:
    """Singularity threshold for divisors built at detuning ``theta``.

    Exact zeros such as R(0)+theta at theta < 0 only come out as ~1e-17
    in floating point, so anything below this threshold inside a divisor
    is declared singular.
    """
    return 1e-12 * (1.0 + abs(theta))


class SingularPoint(Exception):
    # nothing raises it: it stays only because perfbench/tracer.py counts SingularPoint.__init__
    def __init__(self, n: int, reason: str):
        super().__init__(f"singular coefficient at basis index {n}: {reason}")


class GridValues(NamedTuple):
    """A symbol on an index array: real part, imaginary part (None while
    the symbol is real) and singular mask (None where nothing is singular)."""

    re: np.ndarray
    im: Optional[np.ndarray]
    singular: Optional[np.ndarray]

    def magnitude(self) -> np.ndarray:
        """|value| as CPython's abs computes it (hypot for complex values)."""
        return np.abs(self.re) if self.im is None else np.hypot(self.re, self.im)


class DiagonalSymbol:
    """An exactly evaluable function of the number operator.

    Nodes are never modified and are compared by identity, so a subexpression
    shared by many coefficients is one node; a scan evaluates each
    (node, index offset) pair once through its memo.
    """

    __slots__ = ("op", "args", "real")

    def __init__(self, op: str, args: tuple, real: bool):
        self.op = op
        self.args = args
        self.real = real

    def __call__(self, n: np.ndarray, memo: Dict) -> GridValues:
        """The values on the int64 index array ``n``.  ``memo`` is shared by
        calls on the same array, so subexpressions common to them are
        evaluated once."""
        if not (isinstance(n, np.ndarray) and n.dtype == np.int64):
            raise TypeError("a symbol is evaluated on an int64 index array")
        with np.errstate(all="ignore"):
            return _Grid(n, memo).values(self, 0)

    def __add__(self, other) -> "DiagonalSymbol":
        other = _coerce(other)
        return DiagonalSymbol("add", (self, other), self.real and other.real)

    __radd__ = __add__

    def __sub__(self, other) -> "DiagonalSymbol":
        other = _coerce(other)
        return DiagonalSymbol("sub", (self, other), self.real and other.real)

    def __mul__(self, other) -> "DiagonalSymbol":
        other = _coerce(other)
        return DiagonalSymbol("mul", (self, other), self.real and other.real)

    __rmul__ = __mul__


def _coerce(value) -> DiagonalSymbol:
    if isinstance(value, DiagonalSymbol):
        return value
    if isinstance(value, (int, float, complex)):
        return const(value)
    raise TypeError(f"cannot use {type(value).__name__} as a diagonal symbol")


def _real(value, what: str) -> DiagonalSymbol:
    sym = _coerce(value)
    if not sym.real:
        raise TypeError(f"{what} must be a real symbol")
    return sym


def const(value: Scalar) -> DiagonalSymbol:
    v = complex(value)
    return DiagonalSymbol("const", (v,), v.imag == 0)


def number(shift: int = 0, add: float = 0.0) -> DiagonalSymbol:
    """The number operator itself, n -> (n + shift) + add."""
    return DiagonalSymbol("index", (shift, float(add)), True)


def grid_leaf(fn: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]) -> DiagonalSymbol:
    """A complex leaf: ``fn`` maps an int64 index array to the real and
    imaginary parts of the values there, as float64 arrays.

    The array may hold indices below the vacuum; what ``fn`` returns there
    is never used.
    """
    return DiagonalSymbol("leaf", (fn,), False)


def guarded_div(num, den, tol: float = DEFAULT_SIGMA_TOL) -> DiagonalSymbol:
    """num / den for a real divisor, singular where |den| < tol."""
    num, den = _coerce(num), _real(den, "divisor")
    return DiagonalSymbol("div", (num, den, tol), num.real)


def guarded_sqrt(arg, tol: float = DEFAULT_SIGMA_TOL) -> DiagonalSymbol:
    """sqrt(arg) for a real argument, singular where arg < -tol.

    Values in [-tol, 0) are float noise around an exact zero and are
    clamped to 0.
    """
    return DiagonalSymbol("sqrt", (_real(arg, "radicand"), tol), True)


def guarded_pow(arg, exponent: float, tol: float = DEFAULT_SIGMA_TOL) -> DiagonalSymbol:
    """arg ** exponent for a real argument and exponent, with sqrt/division guards.

    Negative bases are singular for non-integer exponents; bases with
    magnitude below tol are singular for negative exponents.  A power
    that overflows is the signed infinity.
    """
    return DiagonalSymbol("pow", (_real(arg, "power base"), float(exponent), tol), True)


def composed(ca: DiagonalSymbol, db: int, cb: DiagonalSymbol) -> DiagonalSymbol:
    """Coefficient of the product of shift terms (da, ca) after (db, cb).

    cb acts first and is always evaluated, so its singularities count
    everywhere.  ca is evaluated at the intermediate index n + db only
    where that index is a basis state; below the vacuum the product is 0.
    A vanishing right factor does not repair a singular ca.
    """
    return DiagonalSymbol("composed", (ca, db, cb), ca.real and cb.real)


def adjoint(c: DiagonalSymbol, d: int) -> DiagonalSymbol:
    """Coefficient of the adjoint of the shift term (d, c): conj(c(n - d)),
    and 0 below the vacuum (n - d < 0), where c is not evaluated."""
    return DiagonalSymbol("adjoint", (c, d), c.real)


def sinc(x):
    """sin(x)/x, finite at x = 0 via a 7-term Taylor series for |x| < 1e-2.

    Takes a float or a float array.
    """
    x = np.asarray(x, dtype=float)
    x2 = x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 7):
        term = term * (-x2 / ((2 * k) * (2 * k + 1)))
        total = total + term
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(np.abs(x) >= 1e-2, np.sin(x) / x, total)
    return float(out) if out.ndim == 0 else out


# -- grid evaluation ----------------------------------------------------------


def _either(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _flag(mask: np.ndarray) -> Optional[np.ndarray]:
    return mask if mask.any() else None


class _Grid:
    """One evaluation of symbols on ``base + offset`` index arrays.

    ``memo`` maps (node, offset) to GridValues.  Positions whose index is
    below the vacuum may hold anything: every node that reads a child
    there (composed, adjoint) masks them out.
    """

    __slots__ = ("base", "lo", "memo")

    def __init__(self, base: np.ndarray, memo: Dict):
        self.base = base
        self.lo = int(base.min()) if base.size else 0
        self.memo = memo

    def index(self, k: int) -> np.ndarray:
        return self.base + k if k else self.base

    def values(self, node: DiagonalSymbol, k: int) -> GridValues:
        key = (node, k)
        out = self.memo.get(key)
        if out is None:
            out = _EVAL[node.op](self, node, k)
            self.memo[key] = out
        return out


def _eval_const(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    (v,) = node.args
    re = np.full(grid.base.shape, v.real)
    return GridValues(re, None if node.real else np.full(grid.base.shape, v.imag), None)


def _eval_index(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    shift, add = node.args
    return GridValues(grid.index(k + shift) + add, None, None)


def _eval_leaf(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    re, im = node.args[0](grid.index(k))
    return GridValues(np.asarray(re, dtype=float), np.asarray(im, dtype=float), None)


def _eval_sum(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    a, b = (grid.values(x, k) for x in node.args)
    combine = np.add if node.op == "add" else np.subtract
    im = None
    if not node.real:  # a missing imaginary part is an exact 0
        im = combine(np.zeros_like(a.re) if a.im is None else a.im, np.zeros_like(b.re) if b.im is None else b.im)
    return GridValues(combine(a.re, b.re), im, _either(a.singular, b.singular))


def _product(a: GridValues, b: GridValues) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    # CPython's complex product; with one side real it reduces exactly to
    # scaling the other side's parts
    if a.im is None and b.im is None:
        return a.re * b.re, None
    if a.im is None:
        return a.re * b.re, a.re * b.im
    if b.im is None:
        return a.re * b.re, a.im * b.re
    return a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re


def _eval_mul(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    a, b = (grid.values(x, k) for x in node.args)
    re, im = _product(a, b)
    return GridValues(re, im, _either(a.singular, b.singular))


def _eval_div(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    num, den, tol = node.args
    a, b = grid.values(num, k), grid.values(den, k)
    singular = _either(_either(b.singular, _flag(np.abs(b.re) < tol)), a.singular)
    return GridValues(a.re / b.re, None if a.im is None else a.im / b.re, singular)


def _eval_sqrt(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    arg, tol = node.args
    a = grid.values(arg, k)
    return GridValues(np.sqrt(np.maximum(a.re, 0.0)), None, _either(a.singular, _flag(a.re < -tol)))


def _eval_pow(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    # CPython's float ** per element: np.power does not round every value as it does
    arg, p, tol = node.args
    a = grid.values(arg, k)
    integral = p.is_integer()
    re = np.zeros(a.re.size)
    singular = np.zeros(a.re.size, dtype=bool) if a.singular is None else a.singular.copy()
    live = grid.index(k) >= 0
    for i, x in enumerate(a.re.tolist()):
        if singular[i] or not live[i]:
            continue
        if (abs(x) < tol and p < 0) or (x < -tol and not integral):
            singular[i] = True
            continue
        base = x if integral else max(x, 0.0)
        try:
            re[i] = base**p
        except OverflowError:  # the signed infinity, as the overflowing product x * x * ... gives
            re[i] = -np.inf if base < 0 and p % 2 == 1 else np.inf
    return GridValues(re, None, _flag(singular))


def _eval_composed(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    ca, db, cb = node.args
    right = grid.values(cb, k)
    left = grid.values(ca, k + db)
    re, im = _product(left, right)
    if grid.lo + k + db >= 0:
        return GridValues(re, im, _either(right.singular, left.singular))
    inside = grid.index(k + db) >= 0
    re = np.where(inside, re, 0.0)
    im = None if im is None else np.where(inside, im, 0.0)
    left_singular = None if left.singular is None else _flag(left.singular & inside)
    return GridValues(re, im, _either(right.singular, left_singular))


def _eval_adjoint(grid: _Grid, node: DiagonalSymbol, k: int) -> GridValues:
    c, d = node.args
    a = grid.values(c, k - d)
    im = None if a.im is None else -a.im
    if grid.lo + k - d >= 0:
        return GridValues(a.re, im, a.singular)
    inside = grid.index(k - d) >= 0
    return GridValues(
        np.where(inside, a.re, 0.0),
        None if im is None else np.where(inside, im, 0.0),
        None if a.singular is None else _flag(a.singular & inside),
    )


_EVAL = {
    "const": _eval_const,
    "index": _eval_index,
    "leaf": _eval_leaf,
    "add": _eval_sum,
    "sub": _eval_sum,
    "mul": _eval_mul,
    "div": _eval_div,
    "sqrt": _eval_sqrt,
    "pow": _eval_pow,
    "composed": _eval_composed,
    "adjoint": _eval_adjoint,
}
