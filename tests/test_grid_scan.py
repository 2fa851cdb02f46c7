"""The grid evaluation of coefficient symbols and the scan rules built on it.

``scalar_reference`` evaluates a symbol at one index with Python
complex arithmetic, as the closure-based symbols did; the grid
evaluation must agree with it bit for bit, singular indices included.
The grid is the only way the package reads a symbol.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fockbundle import jc
from fockbundle.operators import FockOperator, grid_deviation, op_equal
from fockbundle.opmatrix import OpMatrix, matrix_equal, matrix_grid_deviation
from fockbundle.symbols import (
    adjoint,
    composed,
    const,
    guarded_div,
    guarded_pow,
    guarded_sqrt,
    number,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "fockbundle"


class Singular(Exception):
    """The reference hit a vanishing divisor or a root of a negative value."""


def scalar_reference(node, n):
    """One value of ``node`` at ``n`` in CPython complex arithmetic, or Singular."""
    op, args = node.op, node.args
    if op == "const":
        return args[0]
    if op == "index":
        return complex(n + args[0] + args[1])
    if op == "leaf":
        raise NotImplementedError
    if op in ("add", "sub", "mul"):
        a, b = scalar_reference(args[0], n), scalar_reference(args[1], n)
        return a + b if op == "add" else a - b if op == "sub" else a * b
    if op == "div":
        num, den, tol = args
        d = scalar_reference(den, n)
        if abs(d) < tol:
            raise Singular(n)
        return scalar_reference(num, n) / d
    if op == "sqrt":
        arg, tol = args
        x = scalar_reference(arg, n).real
        if x < -tol:
            raise Singular(n)
        return complex(math.sqrt(max(x, 0.0)))
    if op == "pow":
        arg, p, tol = args
        x = scalar_reference(arg, n).real
        if (abs(x) < tol and p < 0) or (x < -tol and not p.is_integer()):
            raise Singular(n)
        return complex((x if p.is_integer() else max(x, 0.0)) ** p)
    if op == "composed":
        ca, db, cb = args
        right = scalar_reference(cb, n)
        return 0j if n + db < 0 else scalar_reference(ca, n + db) * right
    if op == "adjoint":
        c, d = args
        return scalar_reference(c, n - d).conjugate() if n - d >= 0 else 0j
    raise AssertionError(op)


def random_symbol(rng, depth, real=False):
    """A random expression over every node kind except leaves; divisors,
    radicands and power bases are drawn real, as the guards require."""
    if depth == 0:
        pick = rng.integers(3)
        if pick == 0:
            complex_value = not real and rng.random() < 0.5
            return const(complex(*rng.normal(size=2)) if complex_value else float(rng.normal()))
        return number(int(rng.integers(-1, 3)), float(rng.normal()))
    kind = rng.integers(8)
    if kind == 0:
        return random_symbol(rng, depth - 1, real) + random_symbol(rng, depth - 1, real)
    if kind == 1:
        return random_symbol(rng, depth - 1, real) - random_symbol(rng, depth - 1, real)
    if kind == 2:
        return random_symbol(rng, depth - 1, real) * random_symbol(rng, depth - 1, real)
    if kind == 3:
        return guarded_div(random_symbol(rng, depth - 1, real), random_symbol(rng, depth - 1, True), 0.3)
    if kind == 4:
        return guarded_sqrt(random_symbol(rng, depth - 1, True), 0.3)
    if kind == 5:
        return guarded_pow(random_symbol(rng, depth - 1, True), float(rng.choice([-2.0, -0.5, 1.5, 3.0])), 0.3)
    if kind == 6:
        a = random_symbol(rng, depth - 1, real)
        return composed(a, int(rng.integers(-2, 3)), random_symbol(rng, depth - 1, real))
    return adjoint(random_symbol(rng, depth - 1, real), int(rng.integers(-2, 3)))


def same(x: complex, y: complex) -> bool:
    return all(u == v or (math.isnan(u) and math.isnan(v)) for u, v in ((x.real, y.real), (x.imag, y.imag)))


def test_grid_values_match_the_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    grid = np.arange(12, dtype=np.int64)
    compared = singular = complex_compared = 0
    for _ in range(300):
        sym = random_symbol(rng, 4)
        values = sym(grid, {})
        for n in range(12):
            try:
                expected = scalar_reference(sym, n)
            except (Singular, ValueError, OverflowError, ZeroDivisionError):
                expected = None
            if expected is None:
                assert values.singular is not None and values.singular[n], (n, sym.op)
                singular += 1
                continue
            assert values.singular is None or not values.singular[n]
            got = complex(values.re[n], 0.0 if values.im is None else values.im[n])
            assert same(got, expected), (n, sym.op)
            compared += 1
            complex_compared += not sym.real
    assert compared > 1000 and singular > 100
    assert complex_compared > 100


def test_a_symbol_is_read_only_on_the_grid():
    sym = guarded_div(1.0, number() - 3.0)
    for index in (5, np.int64(5), [5], np.arange(6, dtype=np.int32), np.arange(6.0)):
        with pytest.raises(TypeError):
            sym(index, {})
    values = sym(np.arange(6, dtype=np.int64), {})
    assert values.singular.tolist() == [False, False, False, True, False, False]
    assert (values.re[5], values.im) == (0.5, None)


def test_nan_coefficient_counts_as_infinite_deviation():
    nan_op = FockOperator.scalar(float("nan"))
    res = op_equal(nan_op, FockOperator.identity(), 8, 1e-10)
    assert res.max_deviation == math.inf
    assert not res.passed
    assert res.detail == "max at (m=0, n=0)"
    res = matrix_equal(OpMatrix.diag(FockOperator.identity(), nan_op), OpMatrix.identity(2), 8, 1e-10)
    assert res.max_deviation == math.inf and not res.passed
    assert "slot2,0 | slot2,0" in res.detail


def test_propagator_with_nan_time_fails():
    assert not jc.propagator_oracle_check(0.5, 1.0, float("nan"), 8, 1e-9).passed
    assert not jc.propagator_semigroup_check(0.5, 1.0, float("nan"), 0.5, 8, 1e-9).passed


def test_check_that_scans_no_state_fails():
    # singular at every grid state: nothing is compared, so nothing is verified
    everywhere = FockOperator.diagonal(guarded_div(1.0, const(0.0)))
    res = op_equal(everywhere, everywhere, 6, 1e-10)
    assert res.excluded == {1: list(range(7))}
    assert res.max_deviation == 0.0
    assert not res.passed
    res = matrix_equal(OpMatrix.diag(everywhere), OpMatrix.diag(everywhere), 6, 1e-10)
    assert not res.passed


def test_excluded_state_adds_no_deviation():
    # row 1 deviates by 5 at every state; row 2 is singular at n = 0, so
    # state (slot 1, 0) is excluded and the maximum is found at n = 1
    bump = FockOperator.diagonal(guarded_div(5.0, number()))
    col = [FockOperator.scalar(5.0), bump - bump]
    dev, where, excluded = grid_deviation([col], 4)
    assert dev == 5.0
    assert where == (0, 0, 1, 0)
    assert excluded == {1: {0}}


def test_location_is_the_first_maximum_in_scan_order():
    # equal deviations everywhere: slot 1 before slot 2, lower n first
    two = FockOperator.scalar(2.0)
    dev, where, _ = matrix_grid_deviation(OpMatrix.diag(two, two), 5)
    assert (dev, where) == (2.0, "(slot1,0 | slot1,0)")
    res = op_equal(FockOperator.creation(), FockOperator.zero(), 5, 1e-10)
    # sqrt(n + 1) grows, but the largest one maps n = 5 above the grid
    assert res.detail == "max at (m=5, n=4)"


def test_propagator_is_checked_on_the_full_grid():
    for check in (
        jc.propagator_oracle_check(0.5, 1.0, 1.0, 768, 1e-9),
        jc.propagator_unitarity_check(0.5, 1.0, 1.0, 768, 1e-9),
        jc.propagator_semigroup_check(0.5, 1.0, 1.0, 0.5, 768, 1e-9),
    ):
        assert check.passed, check.text_line()
        assert check.max_deviation < 1e-13


def test_pow_overflow_is_the_signed_infinity():
    big = FockOperator.diagonal(guarded_pow(number(add=1e200), 3.0))
    res = op_equal(big, FockOperator.identity(), 6, 1e-10)
    assert res.max_deviation == math.inf
    assert not res.passed
    grid = np.arange(7, dtype=np.int64)
    x = number(add=-1e200)
    cube = guarded_pow(x, 3.0)(grid, {})
    assert cube.singular is None
    assert cube.re.tolist() == (x * x * x)(grid, {}).re.tolist() == [-math.inf] * 7
    assert guarded_pow(x, 2.0)(grid, {}).re.tolist() == [math.inf] * 7


def test_singular_state_counts_wherever_its_term_maps_it():
    # the term maps n = 6 to 8, above the grid, but its coefficient is
    # evaluated there and is singular: one rule for the check and the support
    op = FockOperator.from_terms({2: guarded_div(1.0, number(add=-6.0))})
    res = op_equal(op, op, 6, 1e-10)
    assert res.excluded == {1: [6]} == {1: sorted(op.singular_support(6))}
    assert res.passed and res.max_deviation == 0.0


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
