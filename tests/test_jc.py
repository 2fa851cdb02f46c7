"""Tests for the operator-valued 2x2 Hamiltonian: factorization, charts,
strings, projector, propagator, and the local coordinate."""

import math

import numpy as np
import pytest

from fockbundle import jc
from fockbundle.operators import FockOperator
from fockbundle.opmatrix import OpMatrix, check_idempotent_hermitian, check_unitary, matrix_equal, matrix_grid_deviation
from fockbundle.symbols import guarded_div, guarded_sqrt, number

N_MAX = 32
TOL = 1e-10

THETAS = [2.0, 1.0, 0.5, 0.1, 0.0, -0.5, -1.0, -2.0]


def element(op, d: int, n: int) -> complex:
    """<n + d| op |n>, read from the grid values of op's degree-d term."""
    values = dict(op.terms)[d](np.arange(n + 1))
    assert values.singular is None or not values.singular[n]
    return complex(values.re[n], 0.0 if values.im is None else values.im[n])


def projector_strings(theta):
    p = jc.projector_pjc(theta)
    return jc.projector_singular_map(theta, p, p.dagger(), N_MAX)


@pytest.mark.parametrize("theta", THETAS)
def test_qdm_reconstruction(theta):
    res = jc.qdm_reconstruction_check(theta, jc.build_h_jc(theta), N_MAX, TOL)
    assert res.passed, res.text_line()
    assert res.excluded == {2: [0]}


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("label", ["I", "II"])
def test_chart_rebuilds_hamiltonian(theta, label):
    chart = jc.build_chart(theta, label)
    rebuilt = chart.unitary @ chart.diagonal @ chart.unitary.dagger()
    res = matrix_equal(rebuilt, jc.build_h_jc(theta), N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("label", ["I", "II"])
def test_chart_orderings_agree(theta, label):
    chart = jc.build_chart(theta, label)
    res = matrix_equal(chart.unitary, chart.unitary_alt, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("label", ["I", "II"])
def test_chart_unitary_off_strings(theta, label):
    res = check_unitary(jc.build_chart(theta, label).unitary, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("label", ["I", "II"])
def test_dirac_strings_match_claims(theta, label):
    rep = jc.dirac_string_map(theta, label, jc.build_chart(theta, label), N_MAX)
    assert rep.passed, rep.text_line() + " " + rep.detail


def test_string_jump_across_resonance():
    # the chart-I string exists only for theta <= 0 and disappears above it
    assert jc.dirac_string_map(-0.25, "I", jc.build_chart(-0.25, "I"), N_MAX).excluded == {2: [0]}
    assert jc.dirac_string_map(0.25, "I", jc.build_chart(0.25, "I"), N_MAX).excluded == {}


@pytest.mark.parametrize("theta", [1e-13, -1e-13])
def test_resonance_band_has_the_resonant_strings(theta):
    assert jc.resonant(theta) and not jc.resonant(1e-11)
    for label in ("I", "II"):
        rep = jc.dirac_string_map(theta, label, jc.build_chart(theta, label), N_MAX)
        assert rep.excluded == jc.dirac_string_map(0.0, label, jc.build_chart(0.0, label), N_MAX).excluded
        assert rep.passed, rep.text_line() + " " + rep.detail
    resonant = projector_strings(0.0)
    assert projector_strings(theta) == resonant


@pytest.mark.parametrize("theta", THETAS)
def test_gluing_relation(theta):
    glue = jc.transition_operator()
    vi = jc.chart_unitary(theta, "I")
    vii = jc.chart_unitary(theta, "II")
    res = matrix_equal(vi @ glue, vii, N_MAX, TOL)
    assert res.passed, res.text_line()
    assert res.excluded.get(1) == [0]


def test_transition_forms_and_strings():
    ground = jc.transition_operator()
    # the equivalent 1/sqrt(N+1) writing, regular everywhere
    inv_sqrt_np1 = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number(1))))
    shifted = OpMatrix.diag(inv_sqrt_np1 * FockOperator.annihilation(), FockOperator.creation() * inv_sqrt_np1)
    assert shifted.column_singular_map(N_MAX) == {}
    res = matrix_equal(ground, shifted, N_MAX, TOL)
    assert res.passed
    assert jc.transition_singular_map(N_MAX) == {1: [0]}
    # the gluing operator is a shift: an isometry whose range misses
    # slot2 |0>, so only the one-sided product is the identity
    ident = jc.OpMatrix.identity(2)
    assert matrix_equal(ground.dagger() @ ground, ident, N_MAX, TOL).passed


@pytest.mark.parametrize("theta", THETAS)
def test_projector_idempotent_hermitian(theta):
    res = check_idempotent_hermitian(jc.projector_pjc(theta), N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
def test_projector_string_only_at_resonance(theta):
    expected = {2: [0]} if theta == 0 else {}
    assert projector_strings(theta) == expected


@pytest.mark.parametrize("theta", THETAS)
def test_spectral_decomposition(theta):
    assert jc.spectral_decomposition_check(theta, jc.build_h_jc(theta), jc.projector_pjc(theta), N_MAX, TOL).passed


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gt", [0.5, 1.0, math.pi])
def test_propagator_against_block_oracle(theta, gt):
    res = jc.propagator_oracle_check(theta, 1.0, gt, N_MAX, 1e-9)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_propagator_unitary_and_semigroup(theta):
    assert jc.propagator_unitarity_check(theta, 1.0, 1.3, N_MAX, 1e-9).passed
    assert jc.propagator_semigroup_check(theta, 1.0, 0.7, 0.9, N_MAX, 1e-9).passed


def test_rabi_cosine_at_resonance():
    # <slot1,0| U |slot1,0> at theta=0 is cos(g t)
    for gt in (0.3, 1.0, 2.5):
        u = jc.propagator_closed_form(0.0, 1.0, gt)
        assert element(u.entry(0, 0), 0, 0) == pytest.approx(math.cos(gt), abs=1e-14)


def test_uncoupled_ground_state_phase():
    u = jc.propagator_closed_form(0.7, 1.0, 2.0)
    assert element(u.entry(1, 1), 0, 0) == pytest.approx(np.exp(1j * 2.0 * 0.7), abs=1e-14)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, -1.0])
def test_local_coordinate_forms_agree(theta):
    lhs = jc.local_coordinate_z(theta)
    # the prefactor written to the right of a-dagger, at N + 1
    post = guarded_div(1.0, jc.r_symbol(theta, 1) + theta, jc.sigma_tol(theta))
    rhs = FockOperator.creation() * FockOperator.diagonal(post)
    dev, _, _ = matrix_grid_deviation(OpMatrix.build([[lhs - rhs]]), N_MAX)
    assert dev <= TOL


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.0])
def test_z_identity(theta):
    assert jc.z_identity_check(theta, N_MAX, TOL).passed


def test_coherent_expectation_matches_direct_sum():
    theta, alpha = 1.0, 2.0
    # direct amplitude-level evaluation as an independent cross-check
    n_top = jc.coherent_support(alpha)
    amps = np.array(
        [alpha**n * math.exp(-abs(alpha) ** 2 / 2) / math.sqrt(math.factorial(n)) for n in range(n_top + 1)]
    )
    z = jc.local_coordinate_z(theta)
    direct = sum(
        amps[n + 1] * element(z, 1, n) * amps[n] for n in range(n_top)
    )
    assert jc.coherent_expectation_z(theta, alpha) == pytest.approx(direct, rel=1e-12)


def test_coherent_expectation_rejects_negative_theta():
    with pytest.raises(ValueError):
        jc.coherent_expectation_z(-1.0, 2.0)


def test_classical_limit_errors_decay():
    errs = jc.classical_limit_errors(1.0)
    assert errs[0] > errs[1] > errs[2]
    assert jc.classical_limit_check(1.0).passed


@pytest.mark.parametrize("theta", THETAS + [1e-13, -1e-13])
def test_claimed_strings_sit_on_the_ground_state(theta):
    claims = jc.claimed_strings(theta)
    assert set(claims) == {"chart_I", "chart_II", "transition", "projector"}
    assert all(states == {0} for claim in claims.values() for states in claim.values())
