"""End-to-end acceptance checks.

Each test pins one headline property of the package at its contractual
tolerance and parameter grid, independent of the faster unit suites.
"""

import math
import random

import numpy as np
import pytest

from fockbundle import classical, jc, spinrep, veronese
from fockbundle.opmatrix import check_idempotent_hermitian, matrix_equal
from fockbundle.report import excluded_rows


def _dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# 1. both chart factorizations rebuild the Hamiltonian exactly

@pytest.mark.parametrize("theta", [2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 0.1])
@pytest.mark.parametrize("label", ["I", "II"])
def test_acceptance_chart_reconstruction(theta, label):
    bundle = jc.build_bundle([theta])
    chart = bundle.charts[label]
    rebuilt = chart.unitary @ chart.diagonal @ chart.unitary.dagger()
    (res,) = matrix_equal(rebuilt, bundle.h, 64, 1e-10, thetas=[theta])
    assert res.passed, res.text_line()


# 2. computed undefined sets equal the claimed ones, state by state

@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
def test_acceptance_dirac_strings(theta):
    bundle = jc.build_bundle([theta])
    for label in ("I", "II"):
        (rep,) = jc.dirac_string_map(bundle, label, 64)
        assert rep.passed, rep.text_line() + " " + rep.detail
    expected_proj = {2: [0]} if theta == 0 else {}
    assert excluded_rows(jc.projector_singular_map(bundle, 64)) == [expected_proj]
    assert jc.transition_singular_map(64) == {1: [0]}


# 3. closed-form propagator against the dense block oracle

@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gt", [0.5, 1.0, math.pi])
def test_acceptance_propagator(theta, gt):
    (res,) = jc.propagator_oracle_check([theta], 1.0, gt, 32, 1e-9)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gt", [0.5, 1.0, math.pi])
def test_acceptance_propagator_properties(theta, gt):
    assert jc.propagator_unitarity_check([theta], 1.0, gt, 32, 1e-9)[0].passed
    assert jc.propagator_semigroup_check([theta], 1.0, gt, 0.5 * gt, 32, 1e-9)[0].passed


# 4. spectral decomposition through the projector pair

@pytest.mark.parametrize("theta", [2.0, 1.0, 0.5, 0.0, -1.0])
def test_acceptance_spectral_decomposition(theta):
    (res,) = jc.spectral_decomposition_check(jc.build_bundle([theta]), 64, 1e-10)
    assert res.passed, res.text_line()


# 5. lifted columns: isometry, binomial power identity, entrywise layout

@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_acceptance_lift_identities(theta, n):
    lifted = veronese.lift(veronese.build_family(n), n)
    assert veronese.lift_norm_check([theta], lifted, 48, 1e-9)[0].passed
    assert veronese.binomial_power_check([theta], lifted, 48, 1e-9)[0].passed


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
def test_acceptance_family_rules(theta, j):
    assert veronese.sum_rule_check([theta], veronese.build_family(4), j, 48, 1e-9)[0].passed
    if j >= 1:
        assert veronese.shift_rule_check([theta], veronese.build_family(4), j, 48, 1e-9)[0].passed


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_acceptance_oike_layout(theta, n):
    lifted = veronese.lift(veronese.build_family(n), n)
    (res,) = veronese.oike_layout_check([theta], lifted, 48, 1e-10)
    assert res.passed, res.text_line()


# 6. spin representations, scalar and operator-entried

def test_acceptance_su2_reps_random_pairs():
    rng = random.Random(2024)
    for _ in range(100):
        g, h = spinrep.random_su2(rng), spinrep.random_su2(rng)
        prod = g.matrix() @ h.matrix()
        gh = spinrep.SU2Element(prod[0, 0], prod[1, 0])
        for j in (0.5, 1.0, 1.5):
            dj = spinrep.spin_rep(g, j)
            assert _dev(dj.conj().T @ dj, np.eye(dj.shape[0])) < 1e-12
            assert _dev(spinrep.spin_rep(gh, j), dj @ spinrep.spin_rep(h, j)) < 1e-12
        assert _dev(spinrep.cg_decompose_pair(g), spinrep.pair_block_target(g)) < 1e-12
        assert _dev(spinrep.cg_decompose_triple(g), spinrep.triple_block_target(g)) < 1e-12


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5])
def test_acceptance_nc_spin_reps(theta, j):
    family = veronese.build_family(3)
    m, lifted = spinrep.nc_spin_rep(family, j), veronese.lift(family, int(2 * j))
    assert spinrep.nc_unitarity_check([theta], family, m, 48, 1e-10)[0].passed
    assert spinrep.first_column_check([theta], m, lifted, 48, 1e-10)[0].passed
    assert spinrep.projector_relation_check([theta], m, lifted, 48, 1e-10)[0].passed


# 7. the tensor square does not block-decompose off resonance

@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_acceptance_tensor_obstruction(theta):
    family = veronese.build_family(3)
    v, phi1 = spinrep.nc_spin_rep(family, 0.5), spinrep.nc_spin_rep(family, 1.0)
    (res,) = spinrep.tensor_breakdown_check([theta], v, phi1, 48, [1e-8])
    assert res.passed, res.text_line()
    assert res.max_deviation > 1e-8


# 8. classical sphere layer at scale, plus projective spot values

def test_acceptance_classical_sample():
    assert classical.verify_sample(1000, seed=42) < 1e-12


def test_acceptance_projective_spot_values():
    assert _dev(classical.cp1_chart_projector(1.0, 0), 0.5 * np.ones((2, 2))) < 1e-12
    z = 0.3 - 0.7j
    assert _dev(
        classical.cp1_chart_projector(z, 0),
        classical.cp_projector(np.array([1.0, z])),
    ) < 1e-12
    assert _dev(
        classical.cp1_chart_projector(1.0 / z, 1),
        classical.cp_projector(np.array([1.0, z])),
    ) < 1e-12
    z1, z2 = 1.0 + 0.5j, -0.25j
    assert _dev(
        classical.cp2_chart_projector(z1, z2),
        classical.cp_projector(np.array([1.0, z1, z2])),
    ) < 1e-12


# 9. coherent expectations approach the classical coordinate monotonically

def test_acceptance_classical_limit():
    (errs,) = jc.classical_limit_errors([1.0])
    assert errs[0] > errs[1] > errs[2] > 0.0


# 10. reported deviations do not move when the basis grid is enlarged

def _representative_deviations(n_max):
    devs = {}
    for theta in (1.0, -1.0, 0.5):
        bundle = jc.build_bundle([theta])
        chart = bundle.charts["I"]
        rebuilt = chart.unitary @ chart.diagonal @ chart.unitary.dagger()
        devs[f"chart_{theta}"] = matrix_equal(rebuilt, bundle.h, n_max, 1e-10, thetas=[theta])[0].max_deviation
        (spectral,) = jc.spectral_decomposition_check(bundle, n_max, 1e-10)
        devs[f"spectral_{theta}"] = spectral.max_deviation
        lifted = veronese.lift(veronese.build_family(3), 3) if theta > 0 else None
        if lifted is not None:
            devs[f"lift_{theta}"] = veronese.lift_norm_check([theta], lifted, n_max, 1e-9)[0].max_deviation
    projector = jc.build_bundle([1.0]).projector
    devs["projector"] = check_idempotent_hermitian(projector, n_max, 1e-10, thetas=[1.0])[0].max_deviation
    family = veronese.build_family(3)
    (unitarity,) = spinrep.nc_unitarity_check([1.0], family, spinrep.nc_spin_rep(family, 1.5), n_max, 1e-10)
    devs["nc_unitary"] = unitarity.max_deviation
    return devs


def test_acceptance_grid_invariance():
    small = _representative_deviations(48)
    large = _representative_deviations(96)
    for key in small:
        assert abs(small[key] - large[key]) <= 1e-12, key
