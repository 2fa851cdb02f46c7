"""Coefficient functions of the photon-number index and the detuning, evaluated over a grid.

A DiagonalSymbol is a node of a guarded expression, of one of 11 kinds:
``const``; ``index``, N + k + c, the one writing of N +- k; ``theta``, the
detuning; a vectorised ``leaf``; ``add`` and ``mul`` (a - b is a + (-1) b);
the guarded ``div``, ``sqrt`` and ``pow`` of a real argument; and
``composed`` and ``adjoint``, which the shift algebra needs.  A node
evaluates on a whole grid at once and returns the values plus a singular
mask: a vanishing divisor, or a square root of a negative value, marks the
state singular instead of producing NaN/Inf.

A ``Grid`` is an int64 row of N consecutive indices n and, when the detuning
is an evaluation axis, a column of T detunings: its values broadcast to (T, N),
one row per theta.  Without detunings the shape is (N,), and reading the
``theta`` node is a TypeError.  Nodes are evaluated with numpy's
broadcasting, so a node that reads no theta holds one row (N,) and the
``theta`` node one column (T, 1); a guard's threshold is a number or
``ROW_TOL``, the column of ``sigma_tol(theta)`` per row, computed by the
scalar function.  A row's values equal those of a one-row grid bit for bit.

Values keep CPython's scalar arithmetic bit for bit, so reports do not
depend on the machine's numpy kernels: a real symbol is one float64 array,
a complex one real and imaginary float64 arrays combined with CPython's
formulas for complex ``*`` and ``abs`` (hypot), and ``pow`` is CPython's
float ``**`` element by element.  numpy's complex128 ``*``, ``np.abs``
and ``np.power`` round differently on some machines.
The grid is the only way to read a symbol: calling one on a Grid returns
the node's cached values, unbroadcast, and calling it on anything else is
a TypeError.  A node caches its values on the last grid it was read on,
per offset, for the node's lifetime.  No node is evaluated below the
vacuum: a read at an offset k whose first m states have n + k < 0 is the
read at the vacuum's edge moved up by m, 0 and not singular on those m.

Nodes are hash-consed: every builder goes through ``_node``, which returns
the live node of the same kind and arguments if there is one (children
compared by identity, numbers by value, a constant's zeros by sign too).
So while any copy is alive, structurally equal subexpressions are one
node, and the cache evaluates them once per offset.  The table holds weak
references only and a node removes its entry when it dies, so interning
keeps no node, and none of its cached values, alive.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

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


ROW_TOL = object()  # a guard's threshold: sigma_tol(theta) of each grid row's theta


class SingularPoint(Exception):
    # nothing raises it: it stays only because perfbench/tracer.py counts SingularPoint.__init__
    def __init__(self, n: int, reason: str):
        super().__init__(f"singular coefficient at basis index {n}: {reason}")


class GridValues(NamedTuple):
    """A symbol's values on a grid: real part, imaginary part (None while
    the symbol is real) and singular mask (None where nothing is singular)."""

    re: np.ndarray
    im: Optional[np.ndarray]
    singular: Optional[np.ndarray]

    def magnitude(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """|value| as CPython's abs computes it (hypot for complex values), written into ``out`` if given."""
        return np.abs(self.re, out=out) if self.im is None else np.hypot(self.re, self.im, out=out)


# (op, args, signs) -> weak reference to the one live node built from them
_NODES: Dict[tuple, "weakref.ref[DiagonalSymbol]"] = {}


class DiagonalSymbol:
    """An exactly evaluable function of the number operator.

    Built only by ``_node``, so two live nodes of equal structure are one
    object; nodes are compared by identity and their expression never
    changes.  ``key`` is the node's entry in the interning table, and
    ``cache`` holds its values on the last grid it was read on, as
    (grid, {offset: GridValues}).
    """

    __slots__ = ("op", "args", "real", "key", "cache", "__weakref__")

    def __init__(self, op: str, args: tuple, real: bool, key: tuple):
        self.op = op
        self.args = args
        self.real = real
        self.key = key
        self.cache: Optional[Tuple[Grid, Dict[int, GridValues]]] = None

    def __del__(self, _nodes=_NODES):
        # the entry may already point to a successor built after the garbage
        # collector cleared this node's weak reference; that one stays
        ref = _nodes.get(self.key)
        if ref is not None and ref() in (None, self):
            del _nodes[self.key]

    def __call__(self, grid: "Grid") -> GridValues:
        """The values on ``grid``, as cached on this node: unbroadcast (a
        node that reads no theta holds one row (N,)) and computed under the
        caller's ``np.errstate``.  Calls on the same Grid object reuse the
        values cached on every node they reach."""
        if not isinstance(grid, Grid):
            raise TypeError(f"a symbol is read on a Grid, not on {type(grid).__name__}")
        return grid.values(self, 0)

    def __add__(self, other) -> "DiagonalSymbol":
        other = _coerce(other)
        return _node("add", (self, other), self.real and other.real)

    __radd__ = __add__

    def __mul__(self, other) -> "DiagonalSymbol":
        other = _coerce(other)
        return _node("mul", (self, other), self.real and other.real)

    __rmul__ = __mul__


def _node(op: str, args: tuple, real: bool, signs: Optional[tuple] = None) -> DiagonalSymbol:
    """The one constructor: the live node (op, args) if any, else a new one.

    ``signs`` tells apart numbers that compare equal but evaluate
    differently, +0.0 and -0.0.
    """
    key = (op, args, signs)
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = DiagonalSymbol(op, args, real, key)
    _NODES[key] = weakref.ref(node)
    return node


THETA = _node("theta", (), True)  # the detuning: each grid row's theta


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
    return _node("const", (v,), v.imag == 0, (math.copysign(1.0, v.real), math.copysign(1.0, v.imag)))


def number(shift: int = 0, add: float = 0.0) -> DiagonalSymbol:
    """The number operator itself, n -> (n + shift) + add."""
    return _node("index", (shift, float(add)), True)


def grid_leaf(fn: Callable[[np.ndarray, Optional[np.ndarray]], Tuple[np.ndarray, np.ndarray]]) -> DiagonalSymbol:
    """A complex leaf: ``fn`` maps an int64 index row and the grid's
    column of detunings (None on a grid without them) to the real and
    imaginary parts of the values there, as float64 arrays of at least one
    axis that broadcast to the grid's shape.  The row holds basis states only.
    """
    return _node("leaf", (fn,), False)


def guarded_div(num, den, tol=DEFAULT_SIGMA_TOL) -> DiagonalSymbol:
    """num / den for a real divisor, singular where |den| < tol (a number,
    or ``ROW_TOL`` for each row's sigma_tol(theta), as for every guard)."""
    num, den = _coerce(num), _real(den, "divisor")
    return _node("div", (num, den, tol), num.real)


def guarded_sqrt(arg, tol=DEFAULT_SIGMA_TOL) -> DiagonalSymbol:
    """sqrt(arg) for a real argument, singular where arg < -tol.

    Values in [-tol, 0) are float noise around an exact zero and are
    clamped to 0.
    """
    return _node("sqrt", (_real(arg, "radicand"), tol), True)


def guarded_pow(arg, exponent: float, tol=DEFAULT_SIGMA_TOL) -> DiagonalSymbol:
    """arg ** exponent for a real argument and exponent, with sqrt/division guards.

    Negative bases are singular for non-integer exponents; bases with
    magnitude below tol are singular for negative exponents.  A power
    that overflows is the signed infinity.
    """
    return _node("pow", (_real(arg, "power base"), float(exponent), tol), True)


def composed(ca: DiagonalSymbol, db: int, cb: DiagonalSymbol) -> DiagonalSymbol:
    """Coefficient of the product of shift terms (da, ca) after (db, cb).

    cb acts first and is always evaluated, so its singularities count
    everywhere.  ca is read at the intermediate index n + db, and is 0 and
    not singular where that index is below the vacuum; so is the product,
    however cb reads there.  A vanishing right factor does not repair a
    singular ca.
    """
    return _node("composed", (ca, db, cb), ca.real and cb.real)


def adjoint(c: DiagonalSymbol, d: int) -> DiagonalSymbol:
    """Coefficient of the adjoint of the shift term (d, c): conj(c(n - d)),
    and 0 below the vacuum (n - d < 0), where c is not evaluated."""
    return _node("adjoint", (c, d), c.real)


def sinc(x):
    """sin(x)/x, finite at x = 0 via a 7-term Taylor series for |x| < 1e-2.

    Takes a float or a float array.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.sin(x) / x)  # a new array, or a 0-d one for a scalar x
    small = ~(np.abs(x) >= 1e-2)  # a NaN takes the series too, keeping its sign bit
    if small.any():
        x2 = x[small] * x[small]
        term = total = np.ones_like(x2)
        for k in range(1, 7):
            term = term * (-x2 / ((2 * k) * (2 * k + 1)))
            total = total + term
        out[small] = total
    return float(out) if out.ndim == 0 else out


# -- grid evaluation ----------------------------------------------------------


def _either(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None or b is a:  # a scan only reads the cached masks, so the one array may serve
        return a
    return a | b


def _flag(mask: np.ndarray) -> Optional[np.ndarray]:
    return mask if np.count_nonzero(mask) else None  # on a scan's small masks, a third of the time of mask.any()


class Grid:
    """Where symbols are evaluated: the int64 index row ``n``, a run of
    consecutive indices from ``lo`` = n[0], and, unless None, one row per
    detuning in ``thetas``, with its threshold ``sigma_tol(theta)``.

    A node's cache serves it only while it holds this very grid, which it
    keeps alive, so a reused id cannot match; otherwise it is replaced.
    A read at an offset k with lo + k < 0 is the read at the vacuum's edge
    (offset -lo) moved up, so no evaluator sees an index below the vacuum.
    """

    __slots__ = ("n", "lo", "theta", "tol")

    def __init__(self, n: np.ndarray, thetas: Optional[Sequence[float]] = None):
        if not (isinstance(n, np.ndarray) and n.dtype == np.int64 and n.ndim == 1 and (np.diff(n) == 1).all()):
            raise TypeError("a symbol is evaluated on a one-dimensional int64 index array of consecutive indices")
        self.n = n
        self.lo = int(n[0]) if n.size else 0
        self.theta = self.tol = None
        if thetas is not None:
            thetas = [float(t) for t in thetas]
            self.theta = np.array(thetas).reshape(-1, 1)
            self.tol = np.array([sigma_tol(t) for t in thetas]).reshape(-1, 1)
            self.theta.flags.writeable = self.tol.flags.writeable = False

    def index(self, k: int) -> np.ndarray:
        return self.n + k if k else self.n

    def threshold(self, tol):
        if tol is not ROW_TOL:
            return tol
        if self.tol is None:
            raise TypeError("a per-row threshold is read on a grid with theta values only")
        return self.tol

    def values(self, node: DiagonalSymbol, k: int) -> GridValues:
        cache = node.cache
        if cache is None or cache[0] is not self:
            cache = node.cache = (self, {})
        found = cache[1].get(k)
        if found is None:
            m = _below_vacuum(self, k)
            found = _moved_up(self, self.values(node, -self.lo), m) if m else _EVAL[node.op](self, node, k)
            cache[1][k] = found
        return found


def _below_vacuum(grid: Grid, k: int) -> int:
    """The number of leading states whose index n + k is below the vacuum: the one copy of the vacuum rule."""
    return min(max(-(grid.lo + k), 0), grid.n.size)


def _moved_up(grid: Grid, edge: GridValues, m: int) -> GridValues:
    """``edge`` moved up by m states, with 0 and no singular state on the m it moves in."""

    def move(part: np.ndarray) -> np.ndarray:
        # a part without the index axis, such as theta's (T, 1), spreads over the states first
        out = np.zeros(part.shape[:-1] + grid.n.shape, part.dtype)
        out[..., m:] = part[..., : grid.n.size - m]
        return out

    im, singular = edge.im, edge.singular
    im, singular = None if im is None else move(im), None if singular is None else _flag(move(singular))
    return GridValues(move(edge.re), im, singular)


def _eval_const(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    (v,) = node.args
    re = np.full(grid.n.shape, v.real)
    return GridValues(re, None if node.real else np.full(grid.n.shape, v.imag), None)


def _eval_index(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    shift, add = node.args
    return GridValues(grid.index(k + shift) + add, None, None)


def _eval_theta(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    if grid.theta is None:
        raise TypeError("the theta node is read on a grid with theta values only")
    return GridValues(grid.theta, None, None)


def _eval_leaf(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    re, im = node.args[0](grid.index(k), grid.theta)
    return GridValues(np.asarray(re, dtype=float), np.asarray(im, dtype=float), None)


def sum_values(a: GridValues, b: GridValues) -> GridValues:
    """a + b, the values of the ``add`` node: a missing imaginary part is an exact 0, masks are OR-ed.
    A part is missing exactly when the node is real, so this decides as ``node.real`` would."""
    im = None
    if a.im is not None or b.im is not None:
        im = (np.zeros_like(a.re) if a.im is None else a.im) + (np.zeros_like(b.re) if b.im is None else b.im)
    return GridValues(a.re + b.re, im, _either(a.singular, b.singular))


def _eval_add(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    a, b = node.args
    return sum_values(grid.values(a, k), grid.values(b, k))


def difference(a: GridValues, b: GridValues) -> GridValues:
    """a - b with the bits of the ``add`` node a + (-1) b: a missing imaginary part is 0, masks are OR-ed.
    inf - inf is a NaN, which a scan counts as an infinite deviation; the scan silences the warning."""
    im = None
    if a.im is not None or b.im is not None:
        im = (0.0 if a.im is None else a.im) - (0.0 if b.im is None else b.im)
    return GridValues(a.re - b.re, im, _either(a.singular, b.singular))


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


def _eval_mul(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    a, b = node.args
    a, b = grid.values(a, k), grid.values(b, k)
    re, im = _product(a, b)
    return GridValues(re, im, _either(a.singular, b.singular))


def _eval_div(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    num, den, tol = node.args
    a, b = grid.values(num, k), grid.values(den, k)
    singular = _either(_either(b.singular, _flag(np.abs(b.re) < grid.threshold(tol))), a.singular)
    return GridValues(a.re / b.re, None if a.im is None else a.im / b.re, singular)


def _eval_sqrt(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    arg, tol = node.args
    a = grid.values(arg, k)
    return GridValues(np.sqrt(np.maximum(a.re, 0.0)), None, _either(a.singular, _flag(a.re < -grid.threshold(tol))))


def _eval_pow(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    # CPython's float ** per element: np.power does not round every value as it does
    arg, p, tol = node.args
    a = grid.values(arg, k)
    tol = grid.threshold(tol)
    shape = np.broadcast_shapes(a.re.shape, grid.n.shape, np.shape(tol), np.shape(a.singular))
    integral = p.is_integer()
    re = [0.0] * math.prod(shape)
    singular = [False] * len(re) if a.singular is None else np.broadcast_to(a.singular, shape).ravel().tolist()
    tol = np.broadcast_to(tol, shape).ravel().tolist()
    for i, x in enumerate(np.broadcast_to(a.re, shape).ravel().tolist()):
        if singular[i]:
            continue
        if (abs(x) < tol[i] and p < 0) or (x < -tol[i] and not integral):
            singular[i] = True
            continue
        base = x if integral else max(x, 0.0)
        try:
            re[i] = base**p
        except OverflowError:  # the signed infinity, as the overflowing product x * x * ... gives
            re[i] = -np.inf if base < 0 and p % 2 == 1 else np.inf
    return GridValues(np.array(re).reshape(shape), None, _flag(np.array(singular).reshape(shape)))


def composed_values(grid: Grid, left: GridValues, right: GridValues, k: int) -> GridValues:
    """The values of the ``composed`` node: ``left``, read at the index n + k, after ``right``."""
    re, im = _product(left, right)
    m = _below_vacuum(grid, k)
    if m:  # left is 0 there, but 0 times a non-finite right value is NaN: the product, a new array, is zeroed
        re[..., :m] = 0.0
        if im is not None:
            im[..., :m] = 0.0
    return GridValues(re, im, _either(right.singular, left.singular))


def _eval_composed(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    ca, db, cb = node.args
    return composed_values(grid, grid.values(ca, k + db), grid.values(cb, k), k + db)


def _eval_adjoint(grid: Grid, node: DiagonalSymbol, k: int) -> GridValues:
    c, d = node.args
    a = grid.values(c, k - d)
    if a.im is None:
        return a
    im = -a.im
    im[..., : _below_vacuum(grid, k - d)] = 0.0  # the conjugate of a moved-in 0 is +0.0, not -0.0
    return GridValues(a.re, im, a.singular)


_EVAL = {
    "const": _eval_const,
    "index": _eval_index,
    "theta": _eval_theta,
    "leaf": _eval_leaf,
    "add": _eval_add,
    "mul": _eval_mul,
    "div": _eval_div,
    "sqrt": _eval_sqrt,
    "pow": _eval_pow,
    "composed": _eval_composed,
    "adjoint": _eval_adjoint,
}
