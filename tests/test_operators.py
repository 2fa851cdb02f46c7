"""Unit tests for the diagonal-symbol layer and the shift-term algebra."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fockbundle.operators import FockOperator, op_equal
from fockbundle.symbols import (
    DiagonalSymbol,
    const,
    guarded_div,
    guarded_pow,
    guarded_sqrt,
    number,
    sigma_tol,
    sinc,
)

N_MAX = 32
TOL = 1e-12

SRC = Path(__file__).resolve().parent.parent / "src" / "fockbundle"


def on_grid(sym: DiagonalSymbol, n_max: int = 8):
    """The symbol's values on 0..n_max, as the grid scan reads them."""
    return sym(np.arange(n_max + 1))


def singular(sym: DiagonalSymbol, n_max: int = 8):
    """The singular indices of the symbol on 0..n_max."""
    mask = on_grid(sym, n_max).singular
    return [] if mask is None else np.flatnonzero(mask).tolist()


def coefficient(op: FockOperator, d: int) -> DiagonalSymbol:
    """The coefficient of the shift term of degree d."""
    return dict(op.terms)[d]


def test_symbol_arithmetic():
    s = number() + 1.0
    assert on_grid(s).re[4] == 5.0
    assert on_grid(2.0 * s).re[3] == 8.0
    assert on_grid(s + (-1.0) * number()).re[7] == 1.0


def test_guarded_div_is_singular_on_zero():
    bad = guarded_div(1.0, number())
    assert singular(bad) == [0]
    assert on_grid(bad).re[4] == 0.25


def test_guarded_sqrt_clamps_noise_and_is_singular_on_negative():
    noisy = guarded_sqrt(const(-1e-15))
    assert on_grid(noisy).re[0] == 0.0
    assert singular(noisy) == []
    assert singular(guarded_sqrt(number(-2))) == [0, 1]


def test_guarded_pow_integer_exponent_allows_negative_base():
    cube = guarded_pow(number(-5), 3)
    assert singular(cube) == []
    assert on_grid(cube).re[2] == pytest.approx(-27.0)
    assert singular(guarded_pow(number(-5), 0.5)) == [0, 1, 2, 3, 4]
    assert singular(guarded_pow(number(), -1.0)) == [0]


def test_guards_reject_complex_arguments():
    z = number() + 1j
    with pytest.raises(TypeError):
        guarded_div(1.0, z)
    with pytest.raises(TypeError):
        guarded_sqrt(z)
    with pytest.raises(TypeError):
        guarded_pow(z, 2.0)
    # a complex numerator over a real divisor is fine
    half = on_grid(guarded_div(z, 2.0))
    assert (half.re[1], half.im[1]) == (0.5, 0.5)


def test_sigma_tol_scales_with_theta():
    assert sigma_tol(0.0) == 1e-12
    assert sigma_tol(3.0) == 4e-12


def test_sinc_matches_direct_evaluation():
    for x in (1e-8, 1e-3, 0.5, 2.0):
        assert sinc(x) == pytest.approx(math.sin(x) / x if x > 1e-4 else 1 - x * x / 6, rel=1e-14)
    assert sinc(0.0) == 1.0


def test_ladder_action_on_basis():
    # a|n> = sqrt(n)|n-1> and a†|n> = sqrt(n+1)|n+1>, one term each
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    assert [d for d, _ in a.terms] == [-1] and [d for d, _ in adag.terms] == [1]
    assert on_grid(coefficient(a, -1)).re[3] == pytest.approx(math.sqrt(3))
    assert on_grid(coefficient(a, -1)).re[0] == 0.0
    assert on_grid(coefficient(adag, 1)).re[3] == pytest.approx(2.0)


def test_commutator_is_identity():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    (res,) = op_equal(a * adag - adag * a, FockOperator.identity(), N_MAX, TOL)
    assert res.passed


def test_number_operator_from_ladders():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    (res,) = op_equal(adag * a, FockOperator.number_op(), N_MAX, TOL)
    assert res.passed


def test_adjoint_is_involutive_and_antihomomorphic():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    assert op_equal(a.dagger().dagger(), a, N_MAX, TOL)[0].passed
    assert op_equal((a * adag).dagger(), adag.dagger() * a.dagger(), N_MAX, TOL)[0].passed


def test_composition_is_associative_including_guards():
    a = FockOperator.annihilation()
    d = FockOperator.diagonal(guarded_div(1.0, number()))
    left = (d * a) * a
    right = d * (a * a)
    assert op_equal(left, right, N_MAX, TOL)[0].passed


def test_singular_support_of_composed_operator():
    # a (1/sqrt(N)) annihilates nothing gracefully: the divisor blows up at |0>
    inv_sqrt_n = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number())))
    op = FockOperator.annihilation() * inv_sqrt_n
    assert op.singular_support(N_MAX) == [{0}]
    assert singular(coefficient(op, -1)) == [0]
    assert singular(coefficient(inv_sqrt_n, 0)) == [0]


def test_term_below_the_vacuum_still_evaluates_its_coefficient():
    # a (1/sqrt(N)) maps |0> below the vacuum, but its coefficient is
    # evaluated there and is singular, so the scan flags |0>
    inv_sqrt_n = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number())))
    op = FockOperator.annihilation() * inv_sqrt_n
    assert op.singular_support(4) == [{0}]
    assert singular(coefficient(op, -1), 4) == [0]
    assert on_grid(coefficient(op, -1), 4).re[1] == 1.0
    assert singular(coefficient(FockOperator.annihilation(), -1), 4) == []


def test_zero_times_singular_is_still_singular():
    # a vanishing left factor does not repair a singular right factor
    zero_at_0 = FockOperator.diagonal(number())
    singular_at_0 = FockOperator.diagonal(guarded_div(1.0, number()))
    assert (zero_at_0 * singular_at_0).singular_support(4) == [{0}]


def test_a_unit_scale_is_the_operator_itself():
    a = FockOperator.annihilation()
    assert a.scale(1) is a and 1.0 * a is a and a * (1 + 0j) is a
    assert a.scale(0) == FockOperator.zero()
    ((_, c),) = a.scale(2.0).terms
    assert c.op == "mul"


def test_diagonal_inverse_and_power():
    op = FockOperator.diagonal(number() + 1.0)
    (res,) = op_equal(op * op.inverse(), FockOperator.identity(), N_MAX, TOL)
    assert res.passed
    assert op_equal(op.power(0.5) * op.power(0.5), op, N_MAX, 1e-13)[0].passed


def test_op_equal_reports_exclusions():
    inv = FockOperator.diagonal(guarded_div(1.0, number()))
    (res,) = op_equal(inv, inv, 8, TOL)
    assert res.passed
    assert res.excluded == {1: [0]}


def test_only_operators_builds_the_ladder_operators():
    # every other module composes the one shared pair ANNIHILATION, CREATION
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("annihilation", "creation"):
                callers.add(path.name)
    assert callers == {"operators.py"}


def _sinc_series_everywhere(x):
    # the earlier form: the 7-term series over the whole array (an infinite x
    # makes it inf - inf there), kept where |x| < 1e-2
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        x2 = x * x
        term = np.ones_like(x)
        total = np.ones_like(x)
        for k in range(1, 7):
            term = term * (-x2 / ((2 * k) * (2 * k + 1)))
            total = total + term
        return np.where(np.abs(x) >= 1e-2, np.sin(x) / x, total)


def test_sinc_keeps_the_bits_of_the_series_everywhere_form():
    points = [0.0, -0.0, 1e-3, -1e-3, 9.99e-3, -9.99e-3, 1e-2, -1e-2, 0.5, math.nan, -math.nan, math.inf, -math.inf]
    x = np.array(points + list(np.linspace(-0.05, 0.05, 101)))
    got, expected = sinc(x), _sinc_series_everywhere(x)
    assert got.tobytes() == expected.tobytes()  # NaN sign bits included
    for p in points:
        one = sinc(p)
        assert type(one) is float
        assert np.array(one).tobytes() == _sinc_series_everywhere(p).tobytes()
    assert sinc(0.0) == 1.0
    assert sinc(np.zeros((3, 4))).shape == (3, 4)
