"""Tests for SU(2) irreps, Clebsch-Gordan block decompositions, and their
operator-entried counterparts built from the chart matrix."""

import gc
import hashlib
import math
import random
import weakref

import numpy as np
import pytest

from fockbundle import operators, spinrep
from fockbundle.classical import seeded_rng
from fockbundle.report import excluded_rows, lower_bound_check, upper_bound_check
from fockbundle.operators import FockOperator, row_names
from fockbundle.opmatrix import OpMatrix, matrix_equal, matrix_grid_deviation
from fockbundle.symbols import guarded_div, number
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
    family = build_family(5)
    (res,) = spinrep.nc_unitarity_check([theta], family, spinrep.nc_spin_rep(family, j), _n_max(j), NC_TOL)
    return res


def _rep_and_lift(theta, j):
    family = build_family(5)
    return [theta], spinrep.nc_spin_rep(family, j), lift(family, int(2 * j))


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
    family = build_family(3)
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
    rng = random.Random(7)
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
    g = spinrep.random_su2(random.Random(5))
    assert np.array_equal(spinrep.spin_rep(g, 0.5), g.matrix())


@pytest.mark.parametrize("j", [1.0, 1.5])
def test_spin_rep_matches_the_hand_expanded_matrices(j):
    rng = random.Random(17)
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
        spinrep.nc_spin_rep(build_family(3), j)


def test_an_operator_spin_matrix_dies_with_its_last_reference():
    # entry (0, 2) of spin 1 is the chain Y_l† Y_l'†, built only here (no lifted column holds a Y† factor):
    # with no reference cycle in the builder, it dies without the cyclic collector
    family = build_family(3)
    gc.collect()
    gc.disable()
    try:
        m = spinrep.nc_spin_rep(family, 1.0)
        ((_, chain),) = m.entry(0, 2).terms
        assert chain.op == "composed" and {a.op for a in chain.args[::2]} == {"adjoint"}
        ref = weakref.ref(chain)
        del m, chain
        assert ref() is None
    finally:
        gc.enable()


def test_operator_spin_needs_a_family_of_degree_2j():
    family = build_family(3)
    assert spinrep.nc_spin_rep(family, 1.5).rows == 4
    with pytest.raises(ValueError):
        spinrep.nc_spin_rep(family, 2.0)


@pytest.mark.parametrize("theta", [1.0, -1.0, 0.37, 0.0])
@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
def test_nc_spin_rep_matches_the_hand_expanded_matrices(theta, j):
    family = build_family(3)
    reference = _hand_expanded_nc_spin_rep(family, j)
    (res,) = matrix_equal(spinrep.nc_spin_rep(family, j), reference, N_MAX, 1e-12, thetas=[theta])
    assert res.passed, res.text_line()



def test_pair_decomposition():
    rng = random.Random(11)
    for _ in range(25):
        g = spinrep.random_su2(rng)
        assert _dev(spinrep.cg_decompose_pair(g), spinrep.pair_block_target(g)) < TOL


def test_triple_decomposition():
    rng = random.Random(13)
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
# g2.beta) of the 50 seeded pairs, drawn from random.Random(seed).random(): per
# element, as random_su2 draws it, a column (Re alpha, Im alpha, Re beta, Im beta) by
# rejection from the cube [-1, 1]^4, g1 before g2.  Python keeps that stream
# across releases; a change of draw order or arithmetic moves these pins.
PAIRS_SHA256 = {
    0: "0ea882448b2fd13e20f651baddc11bb0a369be7a25ac38b3abd7ce2efe8c08d3",
    1: "2a4bc23639a413a530e3759099325788b3da378e78d9f98e72e5b51be73aa17c",
    10: "c3c4dba2b885d0437cf99f163d4e951617ffc5d87d745f38f9bf2dc7944518d8",
}


@pytest.mark.parametrize("seed", sorted(PAIRS_SHA256))
def test_pair_draws_are_pinned(seed):
    g1, g2, _ = spinrep.sample_pairs(50, seed)
    rows = np.stack([g1.alpha, g1.beta, g2.alpha, g2.beta], axis=-1).astype("<c16")
    assert hashlib.sha256(rows.tobytes()).hexdigest() == PAIRS_SHA256[seed]


@pytest.mark.parametrize("seed", [0, 7])
def test_sample_pairs_are_random_su2_draws_and_their_scalar_products(seed):
    rng = seeded_rng(seed)
    rows = []
    for _ in range(30):
        g1, g2 = spinrep.random_su2(rng), spinrep.random_su2(rng)
        a12 = g1.alpha * g2.alpha - g1.beta.conjugate() * g2.beta
        b12 = g1.beta * g2.alpha + g1.alpha.conjugate() * g2.beta
        rows.append((g1.alpha, g1.beta, g2.alpha, g2.beta, a12, b12))
    expected = np.array(rows, dtype=complex).T
    batches = spinrep.sample_pairs(30, seed)
    found = np.array([part for g in batches for part in (g.alpha, g.beta)])
    assert found.tobytes() == expected.tobytes()


def test_same_seed_gives_the_same_pairs():
    first, again = spinrep.sample_pairs(50, 42), spinrep.sample_pairs(50, 42)
    for a, b in zip(first, again):
        assert a.alpha.tobytes() == b.alpha.tobytes() and a.beta.tobytes() == b.beta.tobytes()
    assert first[0].alpha.tobytes() != spinrep.sample_pairs(50, 43)[0].alpha.tobytes()


def test_sampled_columns_have_unit_norm():
    for g in spinrep.sample_pairs(200, 8)[:2]:
        assert np.all(np.abs(np.sqrt(np.abs(g.alpha) ** 2 + np.abs(g.beta) ** 2) - 1.0) <= 1e-15)


@pytest.mark.parametrize("seed", [-1, -10])
def test_negative_seed_is_refused(seed):
    with pytest.raises(ValueError, match="nonnegative"):
        spinrep.sample_pairs(10, seed)


def test_every_seed_below_100_passes_the_group_sample():
    failing = [seed for seed in range(100) if not max(spinrep.group_sample_deviations(seed)) <= TOL]
    assert failing == []


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_chart_matrix_unitary_half_spin(theta):
    family = build_family(1)
    assert spinrep.nc_unitarity_check([theta], family, spinrep.chart_matrix(family), N_MAX, NC_TOL)[0].passed


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("j", [1.0, 1.5, 2.0, 2.5])
def test_nc_rep_unitary_off_strings(theta, j):
    res = _unitarity(theta, j)
    assert res.passed, res.text_line()


def test_family_string_map_covers_partner_singularities():
    # at theta=2 the slot-3 diagonal factor is regular at |0> (theta^2 > 1)
    # but its sum-rule partner is not, so the state stays excluded
    assert spinrep.family_string_map([2.0], build_family(3), 3, N_MAX)[0, 2, 0]


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


def _breakdown_with_zero_products(thetas, v, phi1, n_max, floors):
    """The reference: tensor_breakdown_check with every T4 entry a constant,
    zeros included, and no skip, so the exclusions ride on the products with 0."""
    t4 = OpMatrix.build([[FockOperator.scalar(x) for x in row] for row in spinrep.T4])
    conj = t4.dagger() @ v.kron(v) @ t4
    zero = FockOperator.zero()
    target = OpMatrix.build([[FockOperator.identity(), zero, zero, zero]] + [[zero, *row] for row in phi1.entries])
    top, at, dropped = matrix_grid_deviation(conj, n_max, thetas=thetas, right=target)
    records = []
    rows = zip(row_names("tensor_breakdown", thetas), floors, top, at, excluded_rows(dropped))
    for name, floor, dev, where, excluded in rows:
        detail = f"largest mismatch {dev:.3e} at {where}; must exceed {floor:.0e}"
        records.append(lower_bound_check(name, dev, floor, excluded, 4 * (n_max + 1), detail))
    return records


def _fields(record):
    return record.name, record.max_deviation, record.detail, record.excluded, record.passed


BREAKDOWN_THETAS = [1.0, -1.0, 0.37, -1.9, 2.5, -1e-9, 300.0]


@pytest.mark.parametrize("n_max", [6, 24, 48])
def test_tensor_breakdown_matches_the_construction_with_zero_products(n_max):
    family = build_family(3)
    v, phi1 = spinrep.nc_spin_rep(family, 0.5), spinrep.nc_spin_rep(family, 1.0)
    floors = [min(1e-8, 1e-2 * abs(theta)) for theta in BREAKDOWN_THETAS]
    found = spinrep.tensor_breakdown_check(BREAKDOWN_THETAS, v, phi1, n_max, floors)
    reference = _breakdown_with_zero_products(BREAKDOWN_THETAS, v, phi1, n_max, floors)
    assert [_fields(r) for r in found] == [_fields(r) for r in reference]
    assert any(r.excluded for r in found)  # the exclusions are compared, not only empty maps


def test_every_slot_of_tensor_breakdown_excludes_every_string_of_the_square():
    # column 2 alone is singular, at n = 3; T4's second column reads only the
    # square's (0, 0) column, I I, so slot 2 excludes n = 3 only by the explicit rule
    ident = FockOperator.identity()
    v = OpMatrix.build([[ident, FockOperator.diagonal(guarded_div(1.0, number(-3)))], [ident, ident]])
    phi1 = OpMatrix.identity(3)
    (record,) = spinrep.tensor_breakdown_check([1.0], v, phi1, 8, [1e-8])
    assert record.excluded == {slot: [3] for slot in (1, 2, 3, 4)}
    (reference,) = _breakdown_with_zero_products([1.0], v, phi1, 8, [1e-8])
    assert _fields(record) == _fields(reference)


def _constant(sym):
    """The value of a constant operand, None for any other node."""
    if sym.op == "adjoint":  # how T4's entries appear in T4 dagger when composed
        sym = sym.args[0]
    return sym.args[0] if sym.op == "const" else None


def test_tensor_breakdown_composes_no_constant_zero(monkeypatch):
    # nor any other constant: T4's numbers scale the square's entries, and a unit builds no node
    family = build_family(3)
    v, phi1 = spinrep.nc_spin_rep(family, 0.5), spinrep.nc_spin_rep(family, 1.0)
    calls, constants = [], []
    compose = operators.composed  # the name the shift algebra calls

    def counted(ca, db, cb):
        calls.append(db)
        constants.extend(c for c in (_constant(ca), _constant(cb)) if c is not None)
        return compose(ca, db, cb)

    monkeypatch.setattr(operators, "composed", counted)
    spinrep.tensor_breakdown_check([1.0, -1.0], v, phi1, 24, [1e-8, 1e-8])
    assert calls and constants == []
    _breakdown_with_zero_products([1.0, -1.0], v, phi1, 24, [1e-8, 1e-8])
    assert constants.count(0) >= 24  # the counter sees the constant products where they are built
    assert {abs(c) for c in constants} == {0.0, 1.0, 1 / np.sqrt(2.0)}


@pytest.mark.parametrize("theta", [-1.9, -1.0, 0.0, 0.37, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_string_map_is_the_union_of_generator_supports(theta, n):
    union = {}
    for k in range(n + 1):
        generators = (x_operator(1 - k), y_operator(-k))
        (x_bad,), (y_bad,) = (op.singular_support(24, [theta]) for op in generators)
        if x_bad | y_bad:
            union[k + 1] = x_bad | y_bad
    (found,) = excluded_rows(spinrep.family_string_map([theta], build_family(3), n, 24))
    assert {k: set(v) for k, v in found.items()} == union
