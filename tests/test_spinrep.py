"""Tests for SU(2) irreps, Clebsch-Gordan block decompositions, and their
operator-entried counterparts built from the chart matrix."""

import hashlib
import math

import numpy as np
import pytest

from fockbundle import spinrep
from fockbundle.report import upper_bound_check
from fockbundle.jc import Radius
from fockbundle.opmatrix import OpMatrix, matrix_equal
from fockbundle.veronese import build_family, lift, x_operator, y_operator

N_MAX = 32
TOL = 1e-12
NC_TOL = 1e-10
S2, S3 = np.sqrt(2.0), np.sqrt(3.0)


def _dev(a, b):
    return float(np.max(np.abs(a - b)))


def _n_max(j):
    # from j = 2 on the matrices are large enough that a short grid keeps the tests quick
    return N_MAX if j < 2 else 12


def _unitarity(theta, j):
    family = build_family([theta], 5)
    (res,) = spinrep.nc_unitarity_check(family, spinrep.nc_spin_rep(family, j), _n_max(j), NC_TOL)
    return res


def _rep_and_lift(theta, j):
    family = build_family([theta], 5)
    return spinrep.nc_spin_rep(family, j), lift(family, int(2 * j))


def _hand_expanded_spin_rep(g, j):
    """The spin-1 and spin-3/2 matrices written out entry by entry."""
    a, b = g.alpha, g.beta
    ac, bc = np.conj(a), np.conj(b)
    aa, bb = abs(a) ** 2, abs(b) ** 2
    if j == 1:
        return np.array(
            [
                [a**2, -S2 * a * bc, bc**2],
                [S2 * a * b, aa - bb, -S2 * ac * bc],
                [b**2, S2 * ac * b, ac**2],
            ]
        )
    return np.array(
        [
            [a**3, -S3 * a**2 * bc, S3 * a * bc**2, -(bc**3)],
            [S3 * a**2 * b, (aa - 2 * bb) * a, -(2 * aa - bb) * bc, S3 * ac * bc**2],
            [S3 * a * b**2, (2 * aa - bb) * b, (aa - 2 * bb) * ac, -S3 * ac**2 * bc],
            [b**3, S3 * ac * b**2, S3 * ac**2 * b, ac**3],
        ]
    )


def _hand_expanded_nc_spin_rep(family, j):
    """The chart matrix and the operator spin-1 and spin-3/2 matrices
    written out entry by entry, in the factor orders of the first hand
    derivation."""
    x, y = family.x, family.y
    yd = [op.dagger() for op in y[:3]]
    if j == 0.5:
        return OpMatrix.build([[x[0], -yd[0]], [y[0], x[1]]])
    if j == 1:
        return OpMatrix.build(
            [
                [x[0] * x[0], -S2 * (x[0] * yd[0]), yd[0] * yd[1]],
                [S2 * (y[0] * x[0]), x[1] * x[1] - yd[1] * y[1], -S2 * (x[1] * yd[1])],
                [y[1] * y[0], S2 * (y[1] * x[1]), x[2] * x[2]],
            ]
        )
    x1sq, x2sq = x[1] * x[1], x[2] * x[2]
    return OpMatrix.build(
        [
            [x[0] * x[0] * x[0], -S3 * (x[0] * x[0] * yd[0]), S3 * (x[0] * yd[0] * yd[1]), -(yd[0] * yd[1] * yd[2])],
            [
                S3 * (y[0] * x[0] * x[0]),
                x[1] * (x1sq - 2.0 * (yd[1] * y[1])),
                -((2.0 * x1sq - yd[1] * y[1]) * yd[1]),
                S3 * (x[1] * yd[1] * yd[2]),
            ],
            [
                S3 * (y[1] * y[0] * x[0]),
                y[1] * (2.0 * x1sq - yd[1] * y[1]),
                x[2] * (x2sq - 2.0 * (yd[2] * y[2])),
                -S3 * (x2sq * yd[2]),
            ],
            [y[2] * y[1] * y[0], S3 * (y[2] * y[1] * x[1]), S3 * (y[2] * x2sq), x[3] * x[3] * x[3]],
        ]
    )


def _spin_generators(j):
    """J_x, J_y, J_z of spin j in the basis m = j, j - 1, ..., -j."""
    m = j - np.arange(int(2 * j) + 1)
    raising = np.diag(np.sqrt((j - m[1:]) * (j + m[1:] + 1)), 1)
    return (raising + raising.T) / 2, (raising - raising.T) / 2j, np.diag(m)


def _breakdown(theta, floor):
    family = build_family([theta], 3)
    v, phi1 = spinrep.nc_spin_rep(family, 0.5), spinrep.nc_spin_rep(family, 1.0)
    (res,) = spinrep.tensor_breakdown_check([theta], v, phi1, N_MAX, [floor])
    return res


def test_su2_element_validation():
    g = spinrep.SU2Element(0.6, 0.8j)
    assert _dev(g.matrix() @ g.matrix().conj().T, np.eye(2)) < TOL
    nan, inf = float("nan"), float("inf")
    columns = [(1.0, 0.5), (nan, 0.0), (0.6, complex(0.8, nan)), (inf, 0.0), (1.0, -inf), (complex(0.0, inf), 0.0)]
    for alpha, beta in columns:
        with pytest.raises(ValueError):
            spinrep.SU2Element(alpha, beta)


def test_cg_matrices_are_unitary():
    assert _dev(spinrep.T4.conj().T @ spinrep.T4, np.eye(4)) < TOL
    assert _dev(spinrep.T8.conj().T @ spinrep.T8, np.eye(8)) < TOL


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5])
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
    for j, dim in ((0.5, 2), (1.0, 3), (1.5, 4), (2.0, 5)):
        assert _dev(spinrep.spin_rep(e, j), np.eye(dim)) < TOL


def test_half_spin_is_the_element_itself():
    g = spinrep.random_su2(np.random.default_rng(5))
    assert np.array_equal(spinrep.spin_rep(g, 0.5), g.matrix())


@pytest.mark.parametrize("j", [1.0, 1.5])
def test_spin_rep_matches_the_hand_expanded_matrices(j):
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = spinrep.random_su2(rng)
        assert _dev(spinrep.spin_rep(g, j), _hand_expanded_spin_rep(g, j)) <= 1e-15


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
def test_spin_rep_is_the_exponential_of_the_spin_generators(j):
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(19)
    half, generators = _spin_generators(0.5), _spin_generators(j)
    for _ in range(10):
        h = rng.normal(size=3)
        g = expm(-1j * sum(c * s for c, s in zip(h, half)))
        rep = spinrep.spin_rep(spinrep.SU2Element(g[0, 0], g[1, 0]), j)
        assert _dev(rep, expm(-1j * sum(c * s for c, s in zip(h, generators)))) < 1e-13


@pytest.mark.parametrize("j", [0, 0.3, -0.5, 1.25, float("nan"), float("inf")])
def test_spin_must_be_a_positive_half_integer(j):
    with pytest.raises(ValueError):
        spinrep.spin_rep(spinrep.SU2Element(1.0, 0.0), j)
    with pytest.raises(ValueError):
        spinrep.nc_spin_rep(build_family([1.0], 3), j)


def test_operator_spin_needs_a_family_of_degree_2j():
    family = build_family([1.0], 3)
    assert spinrep.nc_spin_rep(family, 1.5).rows == 4
    with pytest.raises(ValueError):
        spinrep.nc_spin_rep(family, 2.0)


@pytest.mark.parametrize("theta", [1.0, -1.0, 0.37, 0.0])
@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
def test_nc_spin_rep_matches_the_hand_expanded_matrices(theta, j):
    family = build_family([theta], 3)
    reference = _hand_expanded_nc_spin_rep(family, j)
    (res,) = matrix_equal(spinrep.nc_spin_rep(family, j), reference, N_MAX, 1e-12, thetas=[theta])
    assert res.passed, res.text_line()



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


def _one(batch, i):
    return spinrep.SU2Element(batch.alpha[i], batch.beta[i])


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
def test_a_batch_is_its_elements_one_at_a_time(j):
    g, _, _ = spinrep.sample_pairs(12, seed=3)
    reps = spinrep.spin_rep(g, j)
    assert reps.shape == (12, int(2 * j) + 1, int(2 * j) + 1)
    for i in range(12):
        assert _dev(reps[i], spinrep.spin_rep(_one(g, i), j)) <= 1e-15


def test_batched_clebsch_gordan_blocks_match_np_kron():
    g, _, _ = spinrep.sample_pairs(12, seed=4)
    pair, triple = spinrep.cg_decompose_pair(g), spinrep.cg_decompose_triple(g)
    pair_target, triple_target = spinrep.pair_block_target(g), spinrep.triple_block_target(g)
    for i in range(12):
        m = _one(g, i).matrix()
        assert _dev(pair[i], spinrep.T4.conj().T @ np.kron(m, m) @ spinrep.T4) <= 1e-15
        assert _dev(triple[i], spinrep.T8.conj().T @ np.kron(np.kron(m, m), m) @ spinrep.T8) <= 1e-15
        assert _dev(pair_target[i], spinrep.pair_block_target(_one(g, i))) == 0.0
        assert _dev(triple_target[i], spinrep.triple_block_target(_one(g, i))) == 0.0


def test_sample_pairs_multiply_each_pair():
    g1, g2, prod = spinrep.sample_pairs(20, seed=5)
    assert _dev(prod.matrix(), g1.matrix() @ g2.matrix()) < 1e-15


def test_a_nan_pair_fails_the_group_sample(monkeypatch):
    g1, g2, prod = spinrep.sample_pairs(50, seed=0)
    alpha = g1.alpha.copy()
    alpha[7] = complex(math.nan, 0.0)
    object.__setattr__(g1, "alpha", alpha)  # past the constructor, which rejects a NaN column
    monkeypatch.setattr(spinrep, "sample_pairs", lambda count, seed: (g1, g2, prod))
    with np.errstate(invalid="ignore"):  # some numpy builds warn when a reduction meets NaN
        values = spinrep.group_sample_deviations.__wrapped__(0)
    assert all(math.isnan(v) for v in values)
    for name, value in zip(("su2_rep_unitary", "su2_rep_homomorphism", "su2_cg_blocks"), values):
        assert not upper_bound_check(name, value, 1e-12).passed


# SHA-256 of the little-endian complex128 rows (g1.alpha, g1.beta, g2.alpha,
# g2.beta) of the 50 seeded pairs, recorded from the loop that drew one pair
# at a time with random_su2.  A batched draw reads the stream in another order.
PAIRS_SHA256 = {
    0: "69234d3bc8ea8551c4c923f690c664615caa47bb44bc92dd91c9854a4d37acd4",
    1: "caf2d932ad15f8b8516230298cfc6ba2411e494e558e5417e2daa4e58c3c5677",
    10: "c54b8afde48f2751e97e829d996fd560a36c5824c489ab5c6e29726ab7047e31",
}


@pytest.mark.parametrize("seed", sorted(PAIRS_SHA256))
def test_pair_draws_are_pinned(seed):
    g1, g2, _ = spinrep.sample_pairs(50, seed)
    rows = np.stack([g1.alpha, g1.beta, g2.alpha, g2.beta], axis=-1).astype("<c16")
    assert hashlib.sha256(rows.tobytes()).hexdigest() == PAIRS_SHA256[seed]


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_chart_matrix_unitary_half_spin(theta):
    family = build_family([theta], 1)
    assert spinrep.nc_unitarity_check(family, spinrep.chart_matrix(family), N_MAX, NC_TOL)[0].passed


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5, 2.0, 2.5])
def test_nc_rep_unitary_off_strings(theta, j):
    res = _unitarity(theta, j)
    assert res.passed, res.text_line()


def test_family_string_map_covers_partner_singularities():
    # at theta=2 the slot-3 diagonal factor is regular at |0> (theta^2 > 1)
    # but its sum-rule partner is not, so the state stays excluded
    assert 0 in spinrep.family_string_map(build_family([2.0], 3), 3, N_MAX)[0][3]


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5, 2.0, 2.5])
def test_first_column_is_lifted_column(theta, j):
    (res,) = spinrep.first_column_check(*_rep_and_lift(theta, j), _n_max(j), NC_TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5, 2.0, 2.5])
def test_projector_relation(theta, j):
    (res,) = spinrep.projector_relation_check(*_rep_and_lift(theta, j), _n_max(j), NC_TOL)
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
        generators = (x_operator(Radius(1 - k)), y_operator(Radius(-k)))
        (x_bad,), (y_bad,) = (op.singular_support(24, [theta]) for op in generators)
        if x_bad | y_bad:
            union[k + 1] = x_bad | y_bad
    (found,) = spinrep.family_string_map(build_family([theta], 3), n, 24)
    assert {k: set(v) for k, v in found.items()} == union
