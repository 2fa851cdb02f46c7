"""Tests for SU(2) irreps, Clebsch-Gordan block decompositions, and their
operator-entried counterparts built from the chart matrix."""

import numpy as np
import pytest

from fockbundle import spinrep
from fockbundle.veronese import build_family, lift, x_operator, y_operator

N_MAX = 32
TOL = 1e-12
NC_TOL = 1e-10


def _dev(a, b):
    return float(np.max(np.abs(a - b)))


def _unitarity(theta, j):
    family = build_family(theta, 3)
    return spinrep.nc_unitarity_check(family, spinrep.nc_spin_rep(family, j), N_MAX, NC_TOL)


def _rep_and_lift(theta, j):
    family = build_family(theta, 3)
    return spinrep.nc_spin_rep(family, j), lift(family, int(2 * j))


def _breakdown(theta, floor):
    family = build_family(theta, 3)
    v, phi1 = spinrep.nc_spin_rep(family, 0.5), spinrep.nc_spin_rep(family, 1.0)
    return spinrep.tensor_breakdown_check(theta, v, phi1, N_MAX, floor)


def test_su2_element_validation():
    g = spinrep.SU2Element(0.6, 0.8j)
    assert _dev(g.matrix() @ g.matrix().conj().T, np.eye(2)) < TOL
    with pytest.raises(ValueError):
        spinrep.SU2Element(1.0, 0.5)


def test_cg_matrices_are_unitary():
    assert _dev(spinrep.T4.conj().T @ spinrep.T4, np.eye(4)) < TOL
    assert _dev(spinrep.T8.conj().T @ spinrep.T8, np.eye(8)) < TOL


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
def test_irrep_unitary_and_homomorphism(j):
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, h = spinrep.random_su2(rng), spinrep.random_su2(rng)
        dj = spinrep.spin_rep(g, j)
        assert _dev(dj.conj().T @ dj, np.eye(dj.shape[0])) < TOL
        prod = g.matrix() @ h.matrix()
        gh = spinrep.SU2Element(prod[0, 0], prod[1, 0])
        assert _dev(spinrep.spin_rep(gh, j), dj @ spinrep.spin_rep(h, j)) < 1e-11


def test_identity_maps_to_identity():
    e = spinrep.SU2Element(1.0, 0.0)
    for j, dim in ((0.5, 2), (1.0, 3), (1.5, 4)):
        assert _dev(spinrep.spin_rep(e, j), np.eye(dim)) < TOL


def test_pair_decomposition():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = spinrep.random_su2(rng)
        assert _dev(spinrep.cg_decompose_pair(g), spinrep.pair_block_target(g)) < TOL


def test_triple_decomposition():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = spinrep.random_su2(rng)
        assert _dev(spinrep.cg_decompose_triple(g), spinrep.triple_block_target(g)) < TOL


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_chart_matrix_unitary_half_spin(theta):
    assert _unitarity(theta, 0.5).passed


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5])
def test_nc_rep_unitary_off_strings(theta, j):
    res = _unitarity(theta, j)
    assert res.passed, res.text_line()


def test_family_string_map_covers_partner_singularities():
    # at theta=2 the slot-3 diagonal factor is regular at |0> (theta^2 > 1)
    # but its sum-rule partner is not, so the state stays excluded
    assert 0 in spinrep.family_string_map(build_family(2.0, 3), 3, N_MAX)[3]


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5])
def test_first_column_is_lifted_column(theta, j):
    res = spinrep.first_column_check(*_rep_and_lift(theta, j), N_MAX, NC_TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5])
def test_projector_relation(theta, j):
    res = spinrep.projector_relation_check(*_rep_and_lift(theta, j), N_MAX, NC_TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_tensor_square_does_not_block_decompose(theta):
    res = _breakdown(theta, 1e-8)
    assert res.passed, res.text_line()
    assert res.max_deviation > 0.1  # the obstruction is order one, not roundoff


def test_tensor_square_recovers_block_form_at_resonance():
    # with no detuning the conjugated tensor square does agree with the
    # block form on the common domain, so the obstruction check would be
    # vacuous there; pin that boundary behavior
    res = _breakdown(0.0, 1e-8)
    assert not res.passed
    assert res.max_deviation < 1e-12


@pytest.mark.parametrize("theta", [-1.9, -1.0, 0.0, 0.37, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_string_map_is_the_union_of_generator_supports(theta, n):
    union = {}
    for k in range(n + 1):
        bad = x_operator(theta, k).singular_support(24) | y_operator(theta, k).singular_support(24)
        if bad:
            union[k + 1] = bad
    assert {k: set(v) for k, v in spinrep.family_string_map(build_family(theta, 3), n, 24).items()} == union
