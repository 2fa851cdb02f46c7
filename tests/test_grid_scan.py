"""The grid evaluation of coefficient symbols and the scan rules built on it.

``scalar_reference`` evaluates a symbol at one index and one theta with
Python complex arithmetic, as the closure-based symbols did; the grid
evaluation must agree with it bit for bit, singular indices included.
The grid is the only way the package reads a symbol, and a grid with T
theta rows must give each row what a grid of that row alone gives.
"""

import ast
import gc
import inspect
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fockbundle import cli, jc, operators, spinrep, symbols, veronese
from fockbundle.operators import FockOperator, op_equal, per_row, scan_rows
from fockbundle.opmatrix import (
    OpMatrix,
    Product,
    check_idempotent_hermitian,
    check_unitary,
    matrix_equal,
    matrix_grid_deviation,
    pair_check,
    strings,
)
from fockbundle.report import excluded_rows, merge_excluded
from fockbundle.symbols import (
    ROW_TOL,
    THETA,
    adjoint,
    composed,
    const,
    grid_leaf,
    guarded_div,
    guarded_pow,
    guarded_sqrt,
    number,
    sigma_tol,
)
from symbol_reader import read_symbol

SRC = Path(__file__).resolve().parent.parent / "src" / "fockbundle"


class Singular(Exception):
    """The reference hit a vanishing divisor or a root of a negative value."""


def scalar_reference(node, n, theta):
    """One value of ``node`` at ``n`` and ``theta`` in CPython complex arithmetic, or Singular."""
    op, args = node.op, node.args
    if op == "const":
        return args[0]
    if op == "index":
        return complex(n + args[0] + args[1])
    if op == "theta":
        return complex(theta)
    if op == "leaf":
        return complex(*args[0](n, theta))
    if op in ("add", "mul"):
        a, b = scalar_reference(args[0], n, theta), scalar_reference(args[1], n, theta)
        return a + b if op == "add" else a * b
    tol = sigma_tol(theta) if args[-1] is ROW_TOL else args[-1]
    if op == "div":
        d = scalar_reference(args[1], n, theta)
        if abs(d) < tol:
            raise Singular(n)
        return scalar_reference(args[0], n, theta) / d
    if op == "sqrt":
        x = scalar_reference(args[0], n, theta).real
        if x < -tol:
            raise Singular(n)
        return complex(math.sqrt(max(x, 0.0)))
    if op == "pow":
        x, p = scalar_reference(args[0], n, theta).real, args[1]
        if (abs(x) < tol and p < 0) or (x < -tol and not p.is_integer()):
            raise Singular(n)
        return complex((x if p.is_integer() else max(x, 0.0)) ** p)
    if op == "composed":
        ca, db, cb = args
        right = scalar_reference(cb, n, theta)
        return 0j if n + db < 0 else scalar_reference(ca, n + db, theta) * right
    if op == "adjoint":
        c, d = args
        return scalar_reference(c, n - d, theta).conjugate() if n - d >= 0 else 0j
    raise AssertionError(op)


def test_the_reference_covers_every_node_kind():
    kinds = {"const", "index", "theta", "leaf", "add", "mul", "div", "sqrt", "pow", "composed", "adjoint"}
    assert set(symbols._EVAL) == kinds


# rows on both sides of the band |theta| < sigma_tol(theta) of a theta divisor, both zeros, and a duplicate
ROWS = [1.0, -1.0, 0.0, -0.0, 0.37, 1e-13, -7e-13, 2.5e-12, -3e-12, 1.0]


def _theta_leaf(n, theta):
    return n + theta, theta * n - 0.5


def random_symbol(rng, depth, real=False, leaves=False):
    """A random expression over every node kind, leaves only when asked;
    divisors, radicands and power bases are drawn real, as the guards
    require, and a guard's threshold is 0.3 or each row's sigma_tol(theta)."""
    if depth == 0:
        pick = rng.integers(5 if leaves and not real else 4)
        if pick == 0:
            complex_value = not real and rng.random() < 0.5
            return const(complex(*rng.normal(size=2)) if complex_value else float(rng.normal()))
        if pick == 1:
            return THETA
        if pick == 4:
            return grid_leaf(_theta_leaf)
        return number(int(rng.integers(-1, 3)), float(rng.normal()))
    kind = rng.integers(8)
    tol = 0.3 if rng.random() < 0.5 else ROW_TOL

    def sub(real_sub=real):
        return random_symbol(rng, depth - 1, real_sub, leaves)

    if kind == 0:
        return sub() + sub()
    if kind == 1:
        return sub() + (-1.0) * sub()
    if kind == 2:
        return sub() * sub()
    if kind == 3:  # a theta divisor half the time: singular on the rows inside the band
        return guarded_div(sub(), THETA if rng.random() < 0.5 else sub(True), tol)
    if kind == 4:
        return guarded_sqrt(sub(True), tol)
    if kind == 5:
        base = THETA if rng.random() < 0.3 else sub(True)
        return guarded_pow(base, float(rng.choice([-2.0, -0.5, 1.5, 3.0])), tol)
    if kind == 6:
        a = sub()
        return composed(a, int(rng.integers(-2, 3)), sub())
    return adjoint(sub(), int(rng.integers(-2, 3)))


def same(x: complex, y: complex) -> bool:
    return all(u == v or (math.isnan(u) and math.isnan(v)) for u, v in ((x.real, y.real), (x.imag, y.imag)))


def test_grid_values_match_the_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    grid = np.arange(12, dtype=np.int64)
    compared = singular = complex_compared = 0
    for _ in range(300):
        sym = random_symbol(rng, 4)
        values = read_symbol(sym, grid, ROWS)
        for r, theta in enumerate(ROWS):
            for n in range(12):
                try:
                    expected = scalar_reference(sym, n, theta)
                except (Singular, ValueError, OverflowError, ZeroDivisionError):
                    expected = None
                if expected is None:
                    assert values.singular is not None and values.singular[r, n], (theta, n, sym.op)
                    singular += 1
                    continue
                assert values.singular is None or not values.singular[r, n]
                got = complex(values.re[r, n], 0.0 if values.im is None else values.im[r, n])
                assert same(got, expected), (theta, n, sym.op)
                compared += 1
                complex_compared += not sym.real
    assert compared > 10000 and singular > 1000
    assert complex_compared > 1000


def _read_at(grid, sym, k):
    """``sym`` read at offset ``k`` on ``grid``, broadcast to (rows, N), with numpy's warnings silenced."""
    shape = (1 if grid.theta is None else grid.theta.shape[0], grid.n.size)
    with np.errstate(all="ignore"):
        values = grid.values(sym, k)
    assert grid.values(sym, k) is values  # cached under k, like every read
    return [None if v is None else np.broadcast_to(v, shape) for v in values]


@pytest.mark.parametrize("lo", [0, 3])
@pytest.mark.parametrize("thetas", [ROWS, None], ids=["theta_rows", "no_theta"])
def test_a_read_at_any_offset_is_the_reference_on_basis_states_and_0_below_the_vacuum(lo, thetas, monkeypatch):
    # no node is evaluated below the vacuum: a read there is the read at the vacuum's edge moved up, each
    # part spread over the states first, so theta's column and the mask of 1 / theta at theta = 0 move too
    for op, fn in list(symbols._EVAL.items()):

        def checked(grid, node, k, fn=fn):
            assert grid.lo + k >= 0, (node.op, k)
            return fn(grid, node, k)

        monkeypatch.setitem(symbols._EVAL, op, checked)
    rng = np.random.default_rng(31 + lo)
    syms = [] if thetas is None else [THETA, guarded_div(1.0, THETA, ROW_TOL), adjoint(THETA * const(0.5j), 2)]
    while len(syms) < 300:
        sym = random_symbol(rng, 3, leaves=True)
        if thetas is not None or reads_no_theta(sym):
            syms.append(sym)
    grid = symbols.Grid(np.arange(lo, lo + 8, dtype=np.int64), thetas)
    compared = below = singular = 0
    for sym in syms:
        for k in range(-3, 4):
            re, im, mask = _read_at(grid, sym, k)
            for r, theta in enumerate([None] if thetas is None else thetas):
                for j, n in enumerate(grid.n.tolist()):
                    flagged = mask is not None and mask[r, j]
                    if n + k < 0:
                        assert re[r, j] == 0.0 and not np.signbit(re[r, j]) and not flagged, (sym.op, k, n)
                        assert im is None or (im[r, j] == 0.0 and not np.signbit(im[r, j])), (sym.op, k, n)
                        below += 1
                        continue
                    try:
                        expected = scalar_reference(sym, n + k, theta)
                    except (Singular, ValueError, OverflowError, ZeroDivisionError):
                        assert flagged, (theta, n, k, sym.op)
                        singular += 1
                        continue
                    assert not flagged, (theta, n, k, sym.op)
                    assert same(complex(re[r, j], 0.0 if im is None else im[r, j]), expected), (theta, n, k, sym.op)
                    compared += 1
    assert compared > 10000 and singular > 100
    assert below == (0 if lo else 300 * 6 * len(thetas or [None]))


def test_a_product_or_an_adjoint_that_reaches_below_the_vacuum_is_plus_0_there():
    # the left factor is 0 there, but 0 times a non-finite right value is NaN, and the conjugate of a moved-in
    # 0 is -0.0: composed and adjoint reset those states to +0.0, not singular
    grid = symbols.Grid(np.arange(6, dtype=np.int64), [1.0, 0.0])
    plus_0 = np.zeros((2, 2)).tobytes()
    rights = [const(v) for v in (math.inf, -math.inf, math.nan, complex(math.inf, math.nan), -2.0)]
    for right in rights + [THETA * const(-1j)]:
        re, im, mask = _read_at(grid, composed(const(2 - 1j), -2, right), 0)
        assert re[:, :2].tobytes() == im[:, :2].tobytes() == plus_0 and mask is None, right
    for c in (const(2 - 1j), const(-0.5), THETA * const(3j)):
        re, im, mask = _read_at(grid, adjoint(c, 2), 0)
        assert re[:, :2].tobytes() == plus_0 and (im is None or im[:, :2].tobytes() == plus_0) and mask is None, c
        assert re[:, 2:].tolist() == _read_at(grid, c, 0)[0][:, :4].tolist()


def _bits(values):
    """The bytes of values, imaginary part and singular mask; a missing mask is all False."""
    re, im, singular = values
    singular = np.zeros(re.shape, dtype=bool) if singular is None else singular
    return [None if a is None else (a.shape, a.tobytes()) for a in (re, im, singular)]


def test_a_grid_of_theta_rows_is_its_rows_alone_bit_for_bit():
    rng = np.random.default_rng(12)
    grid = np.arange(9, dtype=np.int64)
    kinds, band = set(), {"inside": 0, "outside": 0}
    for _ in range(300):
        sym = random_symbol(rng, 4, leaves=True)
        stack = [sym]
        while stack:
            node = stack.pop()
            kinds.add(node.op)
            stack += [a for a in node.args if isinstance(a, symbols.DiagonalSymbol)]
            if node.op in ("div", "pow") and node.args[-1] is ROW_TOL and THETA in node.args[:2]:
                for theta in ROWS:
                    band["inside" if abs(theta) < sigma_tol(theta) else "outside"] += 1
        rows = read_symbol(sym, grid, ROWS)
        for r, theta in enumerate(ROWS):
            alone = read_symbol(sym, grid, [theta])
            assert _bits([v if v is None else v[r : r + 1] for v in rows]) == _bits(alone), (theta, sym.op)
    assert kinds == set(symbols._EVAL)
    assert min(band.values()) > 100


def test_a_symbol_is_read_only_on_the_grid():
    sym = guarded_div(1.0, number(-3))
    # a grid is built only on a one-dimensional int64 index array ...
    for index in (5, np.int64(5), [5], np.arange(6, dtype=np.int32), np.arange(6.0), np.zeros((2, 3), np.int64)):
        with pytest.raises(TypeError, match="one-dimensional int64 index array"):
            symbols.Grid(index)
    # ... of consecutive indices, so that its lowest index is its first
    for index in ([0, 2, 3], [3, 2, 1, 0], [1, 1, 2], [-1, 0, 5]):
        with pytest.raises(TypeError, match="int64 index array of consecutive indices"):
            symbols.Grid(np.array(index, dtype=np.int64))
    assert [symbols.Grid(np.arange(lo, lo + 3, dtype=np.int64)).lo for lo in (0, 4, -2)] == [0, 4, -2]
    # ... and a symbol is read only on a grid, never on an index array
    for index in (5, np.int64(5), [5], np.arange(6, dtype=np.int64), np.arange(6.0)):
        with pytest.raises(TypeError, match="read on a Grid"):
            sym(index)
    grid = symbols.Grid(np.arange(6, dtype=np.int64))
    with np.errstate(divide="ignore"):
        values = sym(grid)
    assert values.singular.tolist() == [False, False, False, True, False, False]
    assert (values.re[5], values.im) == (0.5, None)
    assert sym(grid) is values  # the node's cached values themselves
    # unbroadcast: a node that reads no theta holds one row on a grid of theta rows
    rows = symbols.Grid(np.arange(6, dtype=np.int64), [1.0, -2.0])
    with np.errstate(divide="ignore"):
        assert sym(rows).re.shape == (6,)
    assert (THETA + sym)(rows).re.shape == (2, 6)


def test_nan_coefficient_counts_as_infinite_deviation():
    nan_op = FockOperator.scalar(float("nan"))
    (res,) = op_equal(nan_op, FockOperator.identity(), 8, 1e-10)
    assert res.max_deviation == math.inf
    assert not res.passed
    assert res.detail == "max at (m=0, n=0)"
    (res,) = matrix_equal(OpMatrix.diag(FockOperator.identity(), nan_op), OpMatrix.identity(2), 8, 1e-10)
    assert res.max_deviation == math.inf and not res.passed
    assert "slot2,0 | slot2,0" in res.detail


def test_propagator_with_nan_time_fails():
    assert not jc.propagator_oracle_check([0.5], 1.0, float("nan"), 8, 1e-9)[0].passed
    assert not jc.propagator_semigroup_check([0.5], 1.0, float("nan"), 0.5, 8, 1e-9)[0].passed


def test_check_that_scans_no_state_fails():
    # singular at every grid state: nothing is compared, so nothing is verified
    everywhere = FockOperator.diagonal(guarded_div(1.0, const(0.0)))
    (res,) = op_equal(everywhere, everywhere, 6, 1e-10)
    assert res.excluded == {1: list(range(7))}
    assert res.max_deviation == 0.0
    assert not res.passed
    (res,) = matrix_equal(OpMatrix.diag(everywhere), OpMatrix.diag(everywhere), 6, 1e-10)
    assert not res.passed


def test_excluded_state_adds_no_deviation():
    # row 1 deviates by 5 at every state; row 2 is singular at n = 0, so
    # state (slot 1, 0) is excluded and the maximum is found at n = 1
    bump = FockOperator.diagonal(guarded_div(5.0, number()))
    col = [FockOperator.scalar(5.0), bump - bump]
    ((dev, where, excluded),) = rows_of(scan_rows([col], 4))
    assert dev == 5.0
    assert where == (0, 0, 1, 0)
    assert excluded == {1: [0]}


def test_location_is_the_first_maximum_in_scan_order():
    # equal deviations everywhere: slot 1 before slot 2, lower n first
    two = FockOperator.scalar(2.0)
    ((dev, where, _),) = rows_of(matrix_grid_deviation(OpMatrix.diag(two, two), 5))
    assert (dev, where) == (2.0, "(slot1,0 | slot1,0)")
    (res,) = op_equal(FockOperator.creation(), FockOperator.zero(), 5, 1e-10)
    # sqrt(n + 1) grows, but the largest one maps n = 5 above the grid
    assert res.detail == "max at (m=5, n=4)"


def test_propagator_is_checked_on_the_full_grid():
    for (check,) in (
        jc.propagator_oracle_check([0.5], 1.0, 1.0, 768, 1e-9),
        jc.propagator_unitarity_check([0.5], 1.0, 1.0, 768, 1e-9),
        jc.propagator_semigroup_check([0.5], 1.0, 1.0, 0.5, 768, 1e-9),
    ):
        assert check.passed, check.text_line()
        assert check.max_deviation < 1e-13


def test_pow_overflow_is_the_signed_infinity():
    big = FockOperator.diagonal(guarded_pow(number(add=1e200), 3.0))
    (res,) = op_equal(big, FockOperator.identity(), 6, 1e-10)
    assert res.max_deviation == math.inf
    assert not res.passed
    grid = np.arange(7, dtype=np.int64)
    x = number(add=-1e200)
    cube = read_symbol(guarded_pow(x, 3.0), grid)
    assert cube.singular is None
    assert cube.re.tolist() == read_symbol(x * x * x, grid).re.tolist() == [-math.inf] * 7
    assert read_symbol(guarded_pow(x, 2.0), grid).re.tolist() == [math.inf] * 7


def test_singular_state_counts_wherever_its_term_maps_it():
    # the term maps n = 6 to 8, above the grid, but its coefficient is
    # evaluated there and is singular: one rule for the check and the support
    op = FockOperator.from_terms({2: guarded_div(1.0, number(add=-6.0))})
    (res,) = op_equal(op, op, 6, 1e-10)
    assert res.excluded == {1: [6]} == {1: sorted(op.singular_support(6)[0])}
    assert res.passed and res.max_deviation == 0.0


def functions_reading(source: str, attr: str) -> set:
    """The innermost function around each read of ``.{attr}`` in ``source`` (None at module level)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_only_the_grid_scan_decides_singular_states():
    callers, definitions = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "column_singular_map":
                callers.add(path.name)
            if isinstance(node, ast.FunctionDef) and node.name == "singular_states":
                definitions.add(path.name)
    assert callers == {"opmatrix.py"}
    assert not definitions
    # the rule for singular states lives in the one column read that the scan and the mask pass share
    assert functions_reading((SRC / "operators.py").read_text(), "singular") == {"_read_column"}


# -- one result shape: a list of one result per theta row ---------------------------

def rows_of(scan):
    """A scan's maxima, locations and exclusion mask as one (maximum, location, exclusions) triple per row."""
    top, where, mask = scan
    assert len(top) == len(where) == len(mask) and mask.dtype == bool
    return list(zip(top, where, excluded_rows(mask)))


# every scan and check, called on an operator and a matrix that read theta (or not) and on theta rows;
# a scan or string map that returns a mask is read through the listing every record takes
SHAPES = {
    "scan_rows": lambda op, m, thetas: rows_of(scan_rows(m.columns(), 6, thetas)),
    "op_equal": lambda op, m, thetas: op_equal(op, op.dagger(), 6, 1e-10, thetas=thetas),
    "singular_support": lambda op, m, thetas: op.singular_support(6, thetas),
    "column_singular_map": lambda op, m, thetas: excluded_rows(m.column_singular_map(6, thetas)),
    "strings": lambda op, m, thetas: excluded_rows(strings(6, m, m.dagger(), thetas=thetas)),
    "matrix_grid_deviation": lambda op, m, thetas: rows_of(matrix_grid_deviation(m, 6, thetas=thetas, right=m.dagger())),
    "matrix_equal": lambda op, m, thetas: matrix_equal(m, OpMatrix.identity(2), 6, 1e-10, thetas=thetas),
    "pair_check": lambda op, m, thetas: pair_check("pair", (m, m.dagger()), (m @ m, m), 6, 1e-10, None, thetas=thetas),
    "check_unitary": lambda op, m, thetas: check_unitary(m, 6, 1e-10, thetas=thetas),
    "check_idempotent_hermitian": lambda op, m, thetas: check_idempotent_hermitian(m, 6, 1e-10, thetas=thetas),
}


def shape_objects(shift):
    """An operator whose diagonal reads ``shift`` and is singular where n = -shift, and a matrix of it."""
    op = FockOperator.diagonal(guarded_div(1.0, number() + shift) + shift) + FockOperator.creation()
    return op, OpMatrix.build([[op, FockOperator.annihilation()], [FockOperator.creation(), op.dagger()]])


@pytest.mark.parametrize("scan", sorted(SHAPES))
def test_every_scan_and_check_returns_one_result_per_theta_row(scan):
    without = SHAPES[scan](*shape_objects(const(-2.0)), None)
    assert type(without) is list and len(without) == 1
    thetas = [1.0, -2.0, 0.0, -3.5]
    op, m = shape_objects(THETA)
    rows = SHAPES[scan](op, m, thetas)
    assert type(rows) is list and len(rows) == len(thetas)
    alone = [SHAPES[scan](op, m, [theta]) for theta in thetas]
    assert all(type(row) is list and len(row) == 1 for row in alone)
    assert rows == [row for (row,) in alone]
    assert rows[1] != rows[2]  # the rows differ, so row order is checked too


def test_no_module_converts_between_result_shapes():
    gone = {"one_or_rows", "as_rows", "grid_deviation", "_op_rows"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if name in gone:
                found.add(f"{path.name}: {name}")
    assert not found


def test_no_theta_free_scan_cache_or_second_way_to_read_a_symbol_comes_back():
    # the fock checks and the gluing strings are scanned by each run, not cached per process, and
    # a symbol is read one way: called on a Grid, unbroadcast, with no index-array or raw mode
    gone = {"op_deviation", "_fock_deviations", "_transition_strings"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if name in gone:
                found.add(f"{path.name}: {name}")
            if isinstance(node, ast.FunctionDef) and node.name == "full":
                found.add(f"{path.name}: def full")
            if isinstance(node, ast.Attribute) and node.attr == "full" and getattr(node.value, "id", None) != "np":
                found.add(f"{path.name}: .full")
            if isinstance(node, ast.keyword) and node.arg == "raw":
                found.add(f"{path.name}: raw=")
    assert not found
    assert list(inspect.signature(symbols.DiagonalSymbol.__call__).parameters) == ["self", "grid"]


def test_no_run_reaches_blas_or_lapack():
    # the small matrices of a run go through elementwise numpy and einsum's own loops: a first
    # BLAS or LAPACK call faults in workspace pages, and costs a call per 2x2 to 8x8 matrix
    blas = {"linalg", "dot", "matmul", "vdot", "inner", "tensordot"}
    no_matmul = {
        "classical.py": None,  # the whole module
        "jc.py": {"propagator_block_oracle"},
        "spinrep.py": {"cg_decompose_pair", "cg_decompose_triple", "group_sample_deviations"},
    }
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in blas and getattr(node.value, "id", None) == "np":
                found.add(f"{path.name}: np.{node.attr}")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(part in blas for name in names for part in name.split(".")):
                    found.add(f"{path.name}: import {names}")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum":
                found.update(f"{path.name}: einsum optimize=" for k in node.keywords if k.arg == "optimize")
        if path.name not in no_matmul:
            continue
        scopes = [tree] if no_matmul[path.name] is None else [
            node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in no_matmul[path.name]
        ]
        assert no_matmul[path.name] is None or len(scopes) == len(no_matmul[path.name])
        for scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                    found.add(f"{path.name}: @ in {getattr(scope, 'name', 'module')}")
    assert not found


# the position of each guard's threshold among its positional arguments
GUARDS = {"guarded_div": 2, "guarded_sqrt": 1, "guarded_pow": 2, "inverse": 0, "power": 1}
BUILDERS = {"const", "scalar", "number", "diagonal", "grid_leaf", *GUARDS}


def _numeric_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))


def theta_outside_the_theta_node(source: str) -> list:
    """Calls that put a float theta into the DAG: a constant or an index
    offset that is not a number literal, a guard threshold that is neither
    a literal nor ROW_TOL, or a name theta / thetas among a builder's arguments."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        args = node.args + [k.value for k in node.keywords]
        bad = called in ("const", "scalar") and not all(map(_numeric_literal, args))
        bad |= called == "number" and (len(node.args) > 1 or any(k.arg == "add" for k in node.keywords))
        if called in GUARDS:
            tol = node.args[GUARDS[called] :] + [k.value for k in node.keywords if k.arg == "tol"]
            bad |= not all(_numeric_literal(t) or getattr(t, "id", None) == "ROW_TOL" for t in tol)
        if called in BUILDERS and called != "grid_leaf":
            names = {getattr(n, "id", getattr(n, "attr", None)) for a in args for n in ast.walk(a)}
            bad |= bool(names & {"theta", "thetas"})
        if bad:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_theta_reaches_the_dag_only_through_the_theta_node():
    # the theta-dependent builders: one build must serve every theta row
    for name in ("jc.py", "veronese.py", "spinrep.py"):
        assert theta_outside_the_theta_node((SRC / name).read_text()) == [], name
    # the guard itself reads the old float paths
    for call in ("number(0, theta * theta)", "number(1, add=t2)", "const(-theta)", "FockOperator.scalar(theta)"):
        assert theta_outside_the_theta_node(call) != [], call
    for call in ("guarded_div(1.0, r, sigma_tol(theta))", "x.inverse(level.tol)", "base.power(-1.5, tol=tol)"):
        assert theta_outside_the_theta_node(call) != [], call
    for call in ("guarded_div(1.0, r, ROW_TOL)", "x.inverse(ROW_TOL)", "number(offset)", "const(-1.0) * THETA"):
        assert theta_outside_the_theta_node(call) == [], call


def test_no_scalar_evaluation_path_is_defined():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "DomainError":
                found.add(node.name)
            if isinstance(node, ast.FunctionDef) and node.name == "matrix_element":
                found.add(node.name)
            if isinstance(node, ast.ClassDef) and node.name == "GridValues":
                found.update(f"GridValues.{f.name}" for f in node.body if getattr(f, "name", "") == "scalar")
    assert not found


# -- values cached on the nodes ----------------------------------------------


def count_evaluations(monkeypatch) -> Counter:
    """Count every (node, offset) evaluation from here on."""
    calls: Counter = Counter()
    for op, fn in list(symbols._EVAL.items()):

        def counted(grid, node, k, fn=fn):
            calls[node, k] += 1
            return fn(grid, node, k)

        monkeypatch.setitem(symbols._EVAL, op, counted)
    return calls


def singular_mix():
    """A fresh operator with terms of several degrees, adjoints and a
    singular divisor, so every kind of cached node is read."""
    a, adag = FockOperator.annihilation(), FockOperator.creation()
    inv = FockOperator.diagonal(guarded_div(1.0, number(-3)))
    return (a * inv * adag) - inv.dagger() * adag * a + adag * adag * 0.5


def test_a_node_shared_by_two_scans_is_evaluated_once_per_offset(monkeypatch):
    calls = count_evaluations(monkeypatch)
    shared = guarded_div(1.0, number(-2))
    first = FockOperator.from_terms({0: shared * 2.0, 1: composed(shared, 1, shared)})
    second = FockOperator.from_terms({-1: adjoint(shared, 1)}) * FockOperator.creation()
    scan_rows([[first]], 10)
    assert sorted(k for node, k in calls if node is shared) == [0, 1]
    scan_rows([[second]], 10)  # reads shared at offset 0 again, through the adjoint
    assert sorted(k for node, k in calls if node is shared) == [0, 1]
    assert max(calls.values()) == 1


def uncached_deviation(columns, n_max):
    """The scan with every live node's cache emptied first.  A fresh build
    is no fresh evaluation: while the old nodes live it returns them."""
    for ref in list(symbols._NODES.values()):
        node = ref()
        if node is not None:
            node.cache = None
    return rows_of(scan_rows(columns, n_max))


def test_scans_across_grids_read_no_stale_values():
    op = singular_mix()
    expected = {n_max: uncached_deviation([[op]], n_max) for n_max in (6, 24)}
    for n_max in (6, 24, 6):
        assert rows_of(scan_rows([[op]], n_max)) == expected[n_max]
    # two arrays of one size: the cache follows the array object, not its size
    sym = guarded_div(1.0, number(-3))
    low, high = np.arange(6, dtype=np.int64), np.arange(6, dtype=np.int64) + 4
    assert read_symbol(sym, low).singular.tolist() == [False, False, False, True, False, False]
    assert read_symbol(sym, high).singular is None
    assert read_symbol(sym, low).re.tolist() == read_symbol(guarded_div(1.0, number(-3)), low).re.tolist()


def test_the_index_array_handed_to_a_leaf_is_read_only():
    seen = []

    def record(n, theta):
        seen.append(n.flags.writeable)
        return n.astype(float), np.zeros(n.shape)

    scan_rows([[FockOperator.diagonal(grid_leaf(record))]], 6)
    assert seen == [False]


def test_a_repeated_scan_returns_the_same_result():
    # slot 2 reads x again inside x + y: a scan that wrote into x's cached
    # mask would hand slot 1 of the next scan the singular state 7 of y
    x, y = guarded_div(1.0, number(-9)), guarded_div(1.0, number(-7))
    op = singular_mix()
    columns = [[op, op.dagger(), FockOperator.diagonal(x)], [op * op, FockOperator.diagonal(x + y)]]
    (first,) = rows_of(scan_rows(columns, 12))
    assert first[0] > 0 and first[2] == {1: [2, 3, 9], 2: [0, 1, 2, 3, 7, 9]}
    assert rows_of(scan_rows(columns, 12)) == [first]
    assert uncached_deviation(columns, 12) == [first]


# -- interning ------------------------------------------------------------------


def build_every_kind():
    """Ten nodes, one of each kind but leaf, on values no other test uses:
    all new but the one theta node, which is built at import."""
    n = number(5, 0.125)
    c = const(3.25 - 1.5j)
    return {
        "const": c,
        "index": n,
        "theta": symbols._node("theta", (), True),
        "add": n + c,
        "mul": n * c,
        "div": guarded_div(c, n, 0.375),
        "sqrt": guarded_sqrt(n, 0.375),
        "pow": guarded_pow(n, -1.5, 0.375),
        "composed": composed(c, 1, n),
        "adjoint": adjoint(n * c, -1),
    }


def test_equal_builds_are_one_node():
    first, second = build_every_kind(), build_every_kind()
    assert set(first) == set(symbols._EVAL) - {"leaf"}
    for kind, node in first.items():
        assert node.op == kind
        assert node is second[kind], kind
    # numbers match by value, children by identity
    assert const(2) is const(2.0) is const(2 + 0j)
    assert number(5, 0.125) + 1 is first["index"] + 1.0
    assert guarded_sqrt(first["index"], 0.5) is not first["sqrt"]
    assert adjoint(first["mul"], 1) is not first["adjoint"]
    assert number(5, 0.125) * const(3.25 - 1.5j) is not first["composed"]


def test_a_node_is_initialised_only_when_new(monkeypatch):
    # the benchmark counts DiagonalSymbol.__init__ as the nodes built
    kinds = []
    init = symbols.DiagonalSymbol.__init__

    def counted(self, op, *args):
        kinds.append(op)
        init(self, op, *args)

    monkeypatch.setattr(symbols.DiagonalSymbol, "__init__", counted)
    first = build_every_kind()
    assert sorted(kinds) == sorted(set(first) - {"theta"})
    second = build_every_kind()
    assert sorted(kinds) == sorted(set(first) - {"theta"}) and second == first


def test_two_leaf_functions_are_two_nodes():
    leaves = [grid_leaf(lambda n, theta, c=c: (n + c, np.zeros(n.shape))) for c in (1.0, 2.0)]
    assert leaves[0] is not leaves[1]
    grid = np.arange(4, dtype=np.int64)
    assert [read_symbol(leaf, grid).re.tolist() for leaf in leaves] == [[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0]]


def test_a_zero_of_either_sign_is_its_own_constant():
    # +0.0 == -0.0, yet a product keeps the factor's sign
    assert const(0.0) is not const(-0.0)
    assert const(complex(0.0, 0.0)) is not const(complex(0.0, -0.0))
    assert const(complex(1.0, 0.0)) is not const(complex(1.0, -0.0))
    assert const(-0.0) is const(-0.0) and const(complex(1.0, -0.0)) is const(complex(1.0, -0.0))
    grid = np.arange(3, dtype=np.int64)
    assert np.signbit(read_symbol(const(-0.0) * number(1), grid).re).all()
    assert not np.signbit(read_symbol(const(0.0) * number(1), grid).re).any()


def test_a_nan_constant_is_an_infinite_deviation_however_often_built():
    nan = float("nan")
    for _ in range(2):
        assert scan_rows([[FockOperator.scalar(nan)]], 4)[0][0] == math.inf
        (res,) = op_equal(FockOperator.scalar(nan), FockOperator.scalar(nan), 4, 1e-10)
        assert res.max_deviation == math.inf and not res.passed


def _collect_all_but_interned():
    """Collect every node that only the per-process Veronese caches keep alive."""
    veronese.cache_clear()
    gc.collect()


def test_the_interning_table_keeps_no_node_alive(capsys):
    _collect_all_but_interned()
    before = len(symbols._NODES)
    argv = ["sweep", "--suite", "all", "--axis", "theta", "--values", "-1", "0", "1", "--nmax", "6"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 4
    _collect_all_but_interned()
    assert len(symbols._NODES) == before
    # every entry is a live node that knows its own key
    for key, ref in symbols._NODES.items():
        assert ref().key is key


def test_only_the_interning_constructor_builds_nodes():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "_node" and path.name == "symbols.py":
                inside.update(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            builds = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DiagonalSymbol"
            fills = isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            fills = fills and getattr(node.value, "id", None) == "_NODES"
            if (builds or fills) and id(node) not in inside:
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []


def test_one_helper_decides_what_is_below_the_vacuum():
    # the rule n + k < 0 is written once, as the count of states below the vacuum that _below_vacuum
    # returns to the grid's read and to composed and adjoint: no other function compares an index or a
    # grid's lowest index with 0, only the read takes the vacuum's edge from it, and symbols selects
    # with no np.where
    compares, readers, callers, wheres = set(), set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.name}:{fn.name}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "lo" and isinstance(node.ctx, ast.Load):
                    readers.add(where)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_below_vacuum":
                    callers.add(where)
                if isinstance(node, ast.Compare):
                    sides = [n for side in (node.left, *node.comparators) for n in ast.walk(side)]
                    names = {getattr(n, "attr", None) for n in sides} | {getattr(n, "id", None) for n in sides}
                    zero = any(isinstance(n, ast.Constant) and n.value == 0 for n in sides)
                    if names & {"index", "lo"} or (zero and names & {"n", "idx"}):
                        compares.add(where)
        if path.name == "symbols.py":
            wheres += [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "where"]
    assert compares == set()
    assert readers == {"symbols.py:_below_vacuum", "symbols.py:values"}
    assert callers == {"symbols.py:values", "symbols.py:composed_values", "symbols.py:_eval_adjoint"}
    assert wheres == []


# -- the two sides of a check, subtracted on the grid ---------------------------------

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, complex(0.0, -0.0), complex(math.inf, 1.0), 2.5 - 1.5j]


def reads_no_theta(sym) -> bool:
    """Whether ``sym`` evaluates on a grid without theta rows: no theta, leaf or per-row threshold in it."""
    stack = [sym]
    while stack:
        node = stack.pop()
        if node.op in ("theta", "leaf") or ROW_TOL in node.args:
            return False
        stack += [a for a in node.args if isinstance(a, symbols.DiagonalSymbol)]
    return True


def random_side(rng, with_theta):
    """An operator with random shift degrees in [-2, 2], each coefficient a
    random symbol, a special constant (NaN, inf, a zero of either sign, a
    complex value) or their sum or product; none reads theta without theta rows."""
    terms = {}
    for d in range(-2, 3):
        if rng.random() < 0.5:
            continue
        sym = random_symbol(rng, 3, leaves=True)
        while not (with_theta or reads_no_theta(sym)):
            sym = random_symbol(rng, 2)
        special = const(SPECIAL[rng.integers(len(SPECIAL))])
        terms[d] = [sym, special, sym + special, sym * special][rng.integers(4)]
    return FockOperator.from_terms(terms)


@pytest.mark.parametrize("thetas", [ROWS, None], ids=["theta_rows", "no_theta"])
def test_a_two_sided_scan_is_the_scan_of_the_difference_bit_for_bit(thetas):
    rng = np.random.default_rng(21)
    one_sided = nonfinite = 0
    for _ in range(150):
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))  # (columns, operators per column)
        left = [[random_side(rng, thetas is not None) for _ in range(shape[1])] for _ in range(shape[0])]
        right = [[random_side(rng, thetas is not None) for _ in range(shape[1])] for _ in range(shape[0])]
        skip = as_mask({1: [2, 5]}, shape[0], 7) if rng.random() < 0.3 else None
        diff = [[a - b for a, b in zip(*pair)] for pair in zip(left, right)]
        expected = rows_of(scan_rows(diff, 7, thetas, skip))
        assert rows_of(scan_rows(left, 7, thetas, skip, right=right)) == expected
        nonfinite += sum(dev == math.inf for dev, _, _ in expected)
        for pair in zip(left, right):
            for a, b in zip(*pair):
                one_sided += len({d for d, _ in a.terms} ^ {d for d, _ in b.terms})
                # each degree alone, so a deviation below another degree's maximum shows too
                for d in {d for d, _ in a.terms + b.terms}:
                    x, y = (FockOperator.from_terms({k: c for k, c in op.terms if k == d}) for op in (a, b))
                    assert rows_of(scan_rows([[x]], 7, thetas, right=[[y]])) == rows_of(scan_rows([[x - y]], 7, thetas))
    assert one_sided > 200 and nonfinite > 20
    # a tie is reported at the first degree in sorted order, from either side
    inf, one = const(math.inf), const(1.0)
    a = FockOperator.from_terms({0: one, 1: const(math.nan)})
    b = FockOperator.from_terms({-1: inf, 0: inf})
    expected = rows_of(scan_rows([[a - b]], 7, thetas))
    assert rows_of(scan_rows([[a]], 7, thetas, right=[[b]])) == expected
    assert {where for _, where, _ in expected} == {(0, 0, 0, 0)}


def test_equality_checks_build_no_node_for_the_difference(monkeypatch):
    # degrees on one side only and shared ones: a - b would need new add and mul nodes
    a = FockOperator.creation() * FockOperator.diagonal(guarded_div(1.0, number(-2))) + FockOperator.number_op()
    b = FockOperator.annihilation() * 0.5 + FockOperator.scalar(2.0)
    built = []
    init = symbols.DiagonalSymbol.__init__

    def counted(self, op, *args):
        built.append(op)
        init(self, op, *args)

    monkeypatch.setattr(symbols.DiagonalSymbol, "__init__", counted)
    op_equal(a, b, 8, 1e-10)
    matrix_equal(OpMatrix.diag(a, b), OpMatrix.diag(b, a), 8, 1e-10, thetas=[1.0, -1.0])
    assert built == []
    assert (a - b).terms and built  # the difference as an operator does build nodes


# -- a product that a check only compares, multiplied on the grid ---------------------------------


def bits(scan):
    """A scan's maxima as their bytes, its locations and its exclusion mask as bytes: equal only bit for bit."""
    top, where, mask = scan
    return np.array(top).tobytes(), where, mask.shape, mask.tobytes()


def pooled_matrix(rng, rows, cols, pool):
    """A matrix whose entries are drawn from ``pool`` (so products share factors and nodes) or are zero."""
    zero = FockOperator.zero()
    return OpMatrix.build([[pool[rng.integers(len(pool))] if rng.random() < 0.8 else zero for _ in range(cols)]
                           for _ in range(rows)])


def looped_product(a, b):
    """A @ B as nested loops: each entry a[i][0] b[0][k] + a[i][1] b[1][k] + ..., summed from the first product."""
    rows = []
    for row in a.entries:
        entries = []
        for k in range(b.cols):
            acc = row[0] * b.entries[0][k]
            for j in range(1, a.cols):
                acc = acc + row[j] * b.entries[j][k]
            entries.append(acc)
        rows.append(entries)
    return OpMatrix.build(rows)


@pytest.mark.parametrize("thetas", [ROWS, None], ids=["theta_rows", "no_theta"])
def test_a_product_scan_is_the_scan_of_the_built_product_bit_for_bit(thetas):
    rng = np.random.default_rng(41)
    singular = below = nonfinite = zeros = complex_ = 0
    for _ in range(100):
        pool = [random_side(rng, thetas is not None) for _ in range(4)]
        r, m, c = (int(x) for x in rng.integers(1, 5, size=3))
        a, b, right = (pooled_matrix(rng, *shape, pool) for shape in ((r, m), (m, c), (r, c)))
        skip = as_mask({1: [2, 5]}, c, 7) if rng.random() < 0.3 else None
        lazy = Product(a, b)
        assert (lazy.rows, lazy.cols) == (r, c)
        # scanned before a @ b exists, so nothing of the built product can be read
        scans = [
            scan_rows(lazy.columns(), 7, thetas, skip),
            scan_rows(lazy.columns(), 7, thetas, skip, right=right.columns()),
            scan_rows(right.columns(), 7, thetas, skip, right=lazy.columns()),
        ]
        built = a @ b
        assert built == looped_product(a, b)  # interned: the same nodes, so the same order of products and sums
        expected = [
            scan_rows(built.columns(), 7, thetas, skip),
            scan_rows(built.columns(), 7, thetas, skip, right=right.columns()),
            scan_rows(right.columns(), 7, thetas, skip, right=built.columns()),
        ]
        assert [bits(s) for s in scans] == [bits(s) for s in expected]
        singular += bool(expected[0][2].any())
        nonfinite += math.inf in expected[0][0]
        zeros += any(not op.terms for row in a.entries + b.entries for op in row)
        below += any(d < 0 for row in b.entries for op in row for d, _ in op.terms)
        complex_ += any(not c.real for op in pool for _, c in op.terms)
    assert min(singular, below, nonfinite, zeros, complex_) > 10, (singular, below, nonfinite, zeros, complex_)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 1"):
        Product(OpMatrix.identity(2), OpMatrix.identity(1))


def test_a_node_has_an_imaginary_part_exactly_when_it_is_complex():
    # symbols.sum_values decides the imaginary part of a sum from the values, as _eval_add did from node.real
    rng = np.random.default_rng(43)
    grid = operators._grid(7, np.array(ROWS).tobytes())
    kinds = Counter()
    for _ in range(200):
        stack = [random_symbol(rng, 3, leaves=True)]
        while stack:
            node = stack.pop()
            stack += [arg for arg in node.args if isinstance(arg, symbols.DiagonalSymbol)]
            with np.errstate(all="ignore"):
                values = grid.values(node, int(rng.integers(-2, 3)))
            assert (values.im is None) == node.real, node.op
            kinds[node.op, node.real] += 1
    assert {op for op, _ in kinds} == set(symbols._EVAL)
    assert all(kinds[op, False] for op in ("const", "leaf", "add", "mul", "div", "composed", "adjoint"))


def counting_built(monkeypatch):
    """The kind of every node built from now on, in order."""
    built = []
    init = symbols.DiagonalSymbol.__init__

    def counted(self, op, *args):
        built.append(op)
        init(self, op, *args)

    monkeypatch.setattr(symbols.DiagonalSymbol, "__init__", counted)
    return built


def test_the_product_checks_build_no_node_of_the_product(monkeypatch):
    family = veronese.build_family(4)
    spin = spinrep.nc_spin_rep(family, 1.5)
    bundle = jc.build_bundle([1.0, -1.0, 0.0])
    ident = FockOperator.identity()  # the identity's constant stays alive: only the check's own nodes count
    built = counting_built(monkeypatch)
    check_unitary(spin, 8, 1e-10, thetas=[1.0, -1.0])
    assert set(built) <= {"adjoint"}  # M† only: no composed node of M†M or MM†, no add node of their sums
    built.clear()
    check_idempotent_hermitian(bundle.projector, 8, 1e-10, adjoint=bundle.projector_adjoint, thetas=bundle.thetas)
    assert built == []
    check_idempotent_hermitian(bundle.projector, 8, 1e-10, thetas=bundle.thetas)
    assert set(built) <= {"adjoint"}
    assert ident.terms


@pytest.mark.parametrize("suite", ["veronese", "spinrep", "propagator"])
def test_no_check_subtracts_operators(suite, monkeypatch, capsys):
    # these suites build no side by subtraction, so any call would be a check's difference
    def refuse(self, other):
        raise AssertionError("a check built its difference as an operator")

    monkeypatch.setattr(FockOperator, "__sub__", refuse)
    monkeypatch.setattr(OpMatrix, "__sub__", refuse)
    assert cli.main(["verify", "--suite", suite, "--nmax", "8", "--theta", "1", "--theta", "-1", "--theta", "0"]) == 0
    capsys.readouterr()


# -- the scan against the one it replaced ------------------------------------------


def reference_scan(columns, n_max, thetas=None, skip=None, right=None):
    """The scan as it was before it wrote cached values in place: every term
    read through ``read_symbol`` (broadcast to the grid), the
    terms of a column stacked into one table, and each column's maxima kept
    row by row with a strict > from 0."""
    grid = operators._grid(n_max, None if thetas is None else np.array(thetas, dtype=float).tobytes())
    skips = [s or {} for s in per_row(skip, thetas)]
    rows, shape = len(skips), (len(skips), n_max + 1)
    excluded = [{s: set(v) for s, v in sk.items()} for sk in skips]
    best, where = np.zeros(rows), [None] * rows
    for j, col in enumerate(columns):
        skipped = np.zeros(shape, dtype=bool)
        for r, sk in enumerate(skips):
            skipped[r, [m for m in sk.get(j + 1, ()) if 0 <= m <= n_max]] = True
        found = np.zeros(shape, dtype=bool)
        devs, labels = [], []
        for i, op in enumerate(col):
            left, other = dict(op.terms), {} if right is None else dict(right[j][i].terms)
            for d in sorted(left.keys() | other.keys()):
                x, y = left.get(d), other.get(d)
                x, y = (None if z is None else read_symbol(z, grid) for z in (x, y))
                with np.errstate(all="ignore"):
                    v = (x or y) if x is None or y is None else symbols.difference(x, y)
                if v.singular is not None:
                    found = found | v.singular.reshape(shape)
                dev = v.magnitude().reshape(shape)
                if d > 0:
                    dev[:, max(n_max + 1 - d, 0) :] = -1.0
                else:
                    dev[:, : -d] = -1.0
                devs.append(dev)
                labels.append((i, d))
        found &= ~skipped
        for r in range(rows):
            if found[r].any():
                excluded[r].setdefault(j + 1, set()).update(np.flatnonzero(found[r]).tolist())
        if not devs:
            continue
        table = np.stack(devs, axis=-1)
        table[np.isnan(table)] = np.inf
        table[skipped | found] = -1.0
        for r in range(rows):
            at = int(table[r].reshape(-1).argmax())
            top = table[r].reshape(-1)[at]
            if top > best[r]:
                best[r] = top
                n, t = divmod(at, len(devs))
                where[r] = (labels[t][0], j, n, labels[t][1])
    return [(float(best[r]), where[r], {s: ex[s] for s in sorted(ex) if ex[s]}) for r, ex in enumerate(excluded)]


def _scan_bits(rows):
    """A scan's results with each deviation as its bytes and each exclusion map in its order."""
    return [(np.float64(dev).tobytes(), where, [(s, sorted(v)) for s, v in ex.items()]) for dev, where, ex in rows]


def random_skip(rng, slots, n_max):
    """A skip map of grid states, some slots empty and some states repeated."""
    return {
        int(s): [int(m) for m in rng.integers(0, n_max + 1, size=int(rng.integers(0, 4)))]
        for s in rng.integers(1, slots + 1, size=int(rng.integers(1, 3)))
    }


def as_mask(skip, slots, n_max):
    """A skip map, or a list of one per row, as the boolean mask ``scan_rows`` takes; one map serves every row."""
    maps = skip if isinstance(skip, list) else [skip]
    mask = np.zeros((len(maps), slots, n_max + 1), dtype=bool)
    for r, sk in enumerate(maps):
        for s, states in sk.items():
            mask[r, s - 1, states] = True
    return mask


@pytest.mark.parametrize("thetas", [ROWS, None], ids=["theta_rows", "no_theta"])
def test_the_scan_is_the_reference_scan_bit_for_bit(thetas):
    rng = np.random.default_rng(31)
    seen = Counter()
    for _ in range(200):
        slots, per = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        left = [[random_side(rng, thetas is not None) for _ in range(per)] for _ in range(slots)]
        right = None
        if rng.random() < 0.5:
            right = [[random_side(rng, thetas is not None) for _ in range(per)] for _ in range(slots)]
        skip = None
        if rng.random() < 0.6:  # one map for every row, or one per row
            rows = 1 if thetas is None or rng.random() < 0.5 else len(thetas)
            skip = [random_skip(rng, slots, 7) for _ in range(rows)]
            skip = skip[0] if rows == 1 else skip
        expected = reference_scan(left, 7, thetas, skip, right)
        mask = None if skip is None else as_mask(skip, slots, 7)
        assert _scan_bits(rows_of(scan_rows(left, 7, thetas, mask, right))) == _scan_bits(expected)
        seen["skip"] += skip is not None
        seen["right"] += right is not None
        for dev, where, excluded in expected:
            seen["inf"] += dev == math.inf
            seen["zero"] += where is None
            seen["located"] += where is not None and where[1] > 0  # a maximum past the first column
            seen["excluded"] += bool(excluded)
            seen["several slots"] += len(excluded) > 1
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("thetas", [ROWS, None], ids=["theta_rows", "no_theta"])
def test_a_skip_off_the_grid_is_refused(thetas):
    # a mask marks grid states of the scanned slots only; what cannot be one is refused, not dropped
    columns = [[FockOperator.number_op()], [FockOperator.creation()]]
    rows = 1 if thetas is None else len(thetas)
    state_past_n_max = np.zeros((rows, 2, 9), dtype=bool)  # n_max = 7: the last entry is state 8
    state_past_n_max[:, 0, 8] = True
    slot_past_the_columns = np.zeros((1, 3, 8), dtype=bool)
    slot_past_the_columns[0, 2, 0] = True
    refused = {
        "state n_max + 1": state_past_n_max,
        "slot past the columns": slot_past_the_columns,
        "state -1 as a map": {1: [-1]},
        "states as indices": np.array([[[-1, 0]]]),
        "a row too many": np.zeros((rows + 1, 2, 8), dtype=bool),
    }
    for what, skip in refused.items():
        with pytest.raises(ValueError):
            scan_rows(columns, 7, thetas, skip)
            pytest.fail(f"{what} was accepted")
    # the shapes that broadcast: one row for every row, one slot for every slot
    (top, _, dropped) = scan_rows(columns, 7, thetas, np.arange(8) == 7)
    assert dropped[:, :, 7].all() and not dropped[:, :, :7].any() and top == [6.0] * rows


def _map_bits(excluded):
    """An exclusion map as (slot, sorted states) pairs in its own slot order."""
    return [(s, sorted(v)) for s, v in excluded.items()]


def random_matrix(rng, slots, per, with_theta):
    """A matrix of ``per`` rows and ``slots`` columns of random sides."""
    return OpMatrix.build([[random_side(rng, with_theta) for _ in range(slots)] for _ in range(per)])


def maps_off_the_grid(m, excluded, n_max):
    """Whether an excluded state of some slot has a term in its column that maps it above n_max or below 0."""
    columns = m.columns()
    return any(
        n + d > n_max or n + d < 0
        for s, states in excluded.items()
        for n in states
        for op in columns[s - 1]
        for d, _ in op.terms
    )


@pytest.mark.parametrize("thetas", [ROWS, None], ids=["theta_rows", "no_theta"])
def test_the_mask_pass_finds_the_exclusions_of_the_reference_scan(thetas):
    rng = np.random.default_rng(37)
    seen = Counter()
    for _ in range(200):
        slots, per = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        a = random_matrix(rng, slots, per, thetas is not None)
        b = random_matrix(rng, slots % 3 + 1, per, thetas is not None)  # a different column count
        expected_a = [excluded for _, _, excluded in reference_scan(a.columns(), 7, thetas)]
        expected_b = [excluded for _, _, excluded in reference_scan(b.columns(), 7, thetas)]
        found = a.column_singular_map(7, thetas)
        assert found.shape == (len(expected_a), a.cols, 8)
        assert [_map_bits(row) for row in excluded_rows(found)] == [_map_bits(row) for row in expected_a]
        union = strings(7, a, b, thetas=thetas)
        assert union.shape == (len(expected_a), max(a.cols, b.cols), 8)
        assert excluded_rows(union) == [merge_excluded(x, y) for x, y in zip(expected_a, expected_b)]
        for excluded in expected_a:
            seen["excluded"] += bool(excluded)
            seen["clean"] += not excluded
            seen["several slots"] += len(excluded) > 1
            seen["mapped off the grid"] += maps_off_the_grid(a, excluded, 7)
    assert min(seen.values()) > 20, seen


def string_maps(thetas):
    """Every string map of the package, on objects that read theta and some that do not."""
    op, m = shape_objects(THETA)
    bundle, family = jc.build_bundle(thetas), veronese.build_family(4)
    return {
        "strings": excluded_rows(strings(12, m, m.dagger(), thetas=thetas)),
        "column_singular_map": excluded_rows(m.column_singular_map(12, thetas)),
        "singular_support": op.singular_support(12, thetas),
        "transition": excluded_rows(jc.transition_operator().column_singular_map(12)),
        "dirac_string_map": [jc.dirac_string_map(bundle, label, 12) for label in ("I", "II")],
        "projector_singular_map": excluded_rows(jc.projector_singular_map(bundle, 12)),
        "family_string_map": [excluded_rows(spinrep.family_string_map(thetas, family, n, 12)) for n in range(5)],
    }


def test_a_string_map_does_no_deviation_work(monkeypatch):
    thetas = [1.0, -1.0, 0.0, -2.0, 1e-13]
    expected = string_maps(thetas)
    assert any(expected["singular_support"]) and any(expected["projector_singular_map"])

    def refuse(*args, **kwargs):
        raise AssertionError("a string map computed a deviation")

    monkeypatch.setattr(symbols.GridValues, "magnitude", refuse)
    monkeypatch.setattr(symbols, "difference", refuse)
    monkeypatch.setattr(operators, "difference", refuse)
    with pytest.raises(AssertionError, match="deviation"):  # the patch bites: a scan does compute deviations
        scan_rows(shape_objects(THETA)[1].columns(), 12, thetas)
    assert string_maps(thetas) == expected
