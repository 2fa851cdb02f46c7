"""Unit tests for the diagonal-symbol layer and the shift-term algebra."""

import math

import pytest

from fockbundle.operators import DomainError, FockOperator, op_equal
from fockbundle.symbols import (
    DiagonalSymbol,
    SingularPoint,
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


def test_symbol_arithmetic():
    s = number() + 1.0
    assert s(4) == 5.0
    assert (2.0 * s)(3) == 8.0
    assert (s - number())(7) == 1.0


def test_guarded_div_raises_on_zero():
    bad = guarded_div(1.0, number())
    with pytest.raises(SingularPoint):
        bad(0)
    assert bad(4) == 0.25


def test_guarded_sqrt_clamps_noise_and_raises_on_negative():
    noisy = guarded_sqrt(const(-1e-15))
    assert noisy(0) == 0.0
    with pytest.raises(SingularPoint):
        guarded_sqrt(number() - 2.0)(0)


def test_guarded_pow_integer_exponent_allows_negative_base():
    cube = guarded_pow(number() - 5.0, 3)
    assert cube(2) == pytest.approx(-27.0)
    with pytest.raises(SingularPoint):
        guarded_pow(number() - 5.0, 0.5)(2)
    with pytest.raises(SingularPoint):
        guarded_pow(number(), -1.0)(0)


def test_guards_reject_complex_arguments():
    z = number() + 1j
    with pytest.raises(TypeError):
        guarded_div(1.0, z)
    with pytest.raises(TypeError):
        guarded_sqrt(z)
    with pytest.raises(TypeError):
        guarded_pow(z, 2.0)
    # a complex numerator over a real divisor is fine
    assert guarded_div(z, 2.0)(1) == 0.5 + 0.5j


def test_sigma_tol_scales_with_theta():
    assert sigma_tol(0.0) == 1e-12
    assert sigma_tol(3.0) == 4e-12


def test_sinc_matches_direct_evaluation():
    for x in (1e-8, 1e-3, 0.5, 2.0):
        assert sinc(x) == pytest.approx(math.sin(x) / x if x > 1e-4 else 1 - x * x / 6, rel=1e-14)
    assert sinc(0.0) == 1.0


def test_ladder_action_on_basis():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    assert a.matrix_element(2, 3) == pytest.approx(math.sqrt(3))
    assert a.matrix_element(-1, 0) == 0.0
    assert adag.matrix_element(4, 3) == pytest.approx(2.0)


def test_commutator_is_identity():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    res = op_equal(a * adag - adag * a, FockOperator.identity(), N_MAX, TOL)
    assert res.passed


def test_number_operator_from_ladders():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    res = op_equal(adag * a, FockOperator.number_op(), N_MAX, TOL)
    assert res.passed


def test_adjoint_is_involutive_and_antihomomorphic():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    assert op_equal(a.dagger().dagger(), a, N_MAX, TOL).passed
    assert op_equal((a * adag).dagger(), adag.dagger() * a.dagger(), N_MAX, TOL).passed


def test_composition_is_associative_including_guards():
    a = FockOperator.annihilation()
    d = FockOperator.diagonal(guarded_div(1.0, number()))
    left = (d * a) * a
    right = d * (a * a)
    assert op_equal(left, right, N_MAX, TOL).passed


def test_singular_support_of_composed_operator():
    # a (1/sqrt(N)) annihilates nothing gracefully: the divisor blows up at |0>
    inv_sqrt_n = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number())))
    op = FockOperator.annihilation() * inv_sqrt_n
    assert op.singular_support(N_MAX) == {0}
    with pytest.raises(SingularPoint):
        dict(op.terms)[-1](0)
    with pytest.raises(DomainError):
        inv_sqrt_n.matrix_element(0, 0)


def test_matrix_element_below_the_vacuum_evaluates_the_coefficient():
    # the scan flags |0> for a (1/sqrt(N)), so the scalar path must too,
    # although the target state a|0> lies below the vacuum
    inv_sqrt_n = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number())))
    op = FockOperator.annihilation() * inv_sqrt_n
    assert op.singular_support(4) == {0}
    with pytest.raises(DomainError):
        op.matrix_element(-1, 0)
    assert op.matrix_element(0, 1) == 1.0
    assert FockOperator.annihilation().matrix_element(-1, 0) == 0.0


def test_zero_times_singular_is_still_singular():
    # a vanishing left factor does not repair a singular right factor
    zero_at_0 = FockOperator.diagonal(number())
    singular_at_0 = FockOperator.diagonal(guarded_div(1.0, number()))
    assert (zero_at_0 * singular_at_0).singular_support(4) == {0}


def test_matrix_element_grid():
    a = FockOperator.annihilation()
    assert a.matrix_element(2, 3) == pytest.approx(math.sqrt(3))
    assert a.matrix_element(3, 3) == 0.0
    assert a.matrix_element(-1, 0) == 0.0


def test_diagonal_inverse_and_power():
    op = FockOperator.diagonal(number() + 1.0)
    res = op_equal(op * op.inverse(), FockOperator.identity(), N_MAX, TOL)
    assert res.passed
    assert op_equal(op.power(0.5) * op.power(0.5), op, N_MAX, 1e-13).passed


def test_op_equal_reports_exclusions():
    inv = FockOperator.diagonal(guarded_div(1.0, number()))
    res = op_equal(inv, inv, 8, TOL)
    assert res.passed
    assert res.excluded == {1: [0]}

