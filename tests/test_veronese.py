"""Tests for the diagonal-coefficient family X/Y/Z, the lifted columns of
weighted shifts and their rank-one projectors."""

import math

import numpy as np
import pytest

from fockbundle import veronese
from fockbundle.operators import FockOperator
from fockbundle.opmatrix import check_idempotent_hermitian, matrix_equal

N_MAX = 32
TOL = 1e-10

THETAS = [2.0, 1.0, 0.5, 0.0, -0.5]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("j", range(5))
def test_sum_rule(theta, j):
    res = veronese.sum_rule_check(theta, j, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("j", range(1, 5))
def test_shift_rule(theta, j):
    res = veronese.shift_rule_check(theta, j, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [1.0, 0.5, -0.5])
@pytest.mark.parametrize("k", range(4))
def test_commutation_rule(theta, k):
    res = veronese.commutation_check(theta, k, k + 1, N_MAX, TOL)
    assert res.passed, res.text_line()


def test_x_values_explicit():
    # at theta=0 every X collapses to 1/sqrt(2) wherever it is defined
    x0 = veronese.x_symbol(0.0, 0)(np.arange(8), {})
    assert x0.singular is None and x0.im is None
    for n in (1, 2, 7):
        assert x0.re[n] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    # large theta pushes X toward 1: the fibre aligns with the pole
    assert veronese.x_symbol(50.0, 0)(np.arange(4), {}).magnitude()[3] > 0.999


def test_y_index_structure():
    # the shift acts first, so the sqrt((N-2)/N) factor of Y_{-2} is read
    # at the raised index: negative under the root at |0>, zero at |1>
    y2 = veronese.y_operator(1.0, 2)
    assert y2.singular_support(N_MAX) == {0}
    (d, c), = y2.terms
    values = c(np.arange(N_MAX + 1), {})
    assert d == 1
    assert values.magnitude()[1] == 0.0
    assert values.magnitude()[3] > 0.0


def test_z_regular_at_vacuum_for_positive_theta():
    z0 = veronese.z_operator(1.0, 0)
    assert z0.singular_support(N_MAX) == set()
    (d, c), = veronese.z_operator(1.0, 2).terms
    assert d == 1 and c(np.arange(N_MAX + 1), {}).singular[0]


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lift_is_isometric_column(theta, n):
    lifted = veronese.lift(veronese.build_family(theta, n))
    res = veronese.lift_norm_check(lifted, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_factored_form_and_binomial_power(theta, n):
    lifted = veronese.lift(veronese.build_family(theta, n))
    assert veronese.factored_form_check(lifted, N_MAX, TOL).passed
    assert veronese.binomial_power_check(lifted, N_MAX, TOL).passed


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_projector_and_eigencolumn(theta, n):
    lifted = veronese.lift(veronese.build_family(theta, n))
    p = veronese.projector_pn(lifted)
    assert check_idempotent_hermitian(p, N_MAX, TOL).passed
    assert veronese.eigencolumn_check(lifted, N_MAX, TOL).passed


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_oike_layout(theta, n):
    lifted = veronese.lift(veronese.build_family(theta, n))
    res = veronese.oike_layout_check(lifted, N_MAX, TOL)
    assert res.passed, res.text_line()


def test_lift_degree_one_matches_chart_column():
    # for n=1 the lifted column is just (X0; Y0)
    lifted = veronese.lift(veronese.build_family(1.0, 1))
    col = veronese.OpMatrix.build([[veronese.x_operator(1.0, 0)], [veronese.y_operator(1.0, 0)]])
    assert matrix_equal(lifted.a_col, col, N_MAX, TOL).passed
