"""Tests for the operator-valued 2x2 Hamiltonian: factorization, charts,
strings, projector, propagator, and the local coordinate."""

import math

import numpy as np
import pytest

from fockbundle import jc, spinrep, symbols, veronese
from fockbundle.operators import FockOperator
from fockbundle.opmatrix import OpMatrix, check_idempotent_hermitian, check_unitary, matrix_equal, matrix_grid_deviation
from fockbundle.report import excluded_rows
from fockbundle.symbols import ROW_TOL, THETA, DiagonalSymbol, guarded_div, guarded_sqrt, number
from symbol_reader import coefficient_nodes, read_symbol

N_MAX = 32
TOL = 1e-10

THETAS = [2.0, 1.0, 0.5, 0.1, 0.0, -0.5, -1.0, -2.0]


def element(op, d: int, n: int, theta: float) -> complex:
    """<n + d| op |n> at theta, read from the grid values of op's degree-d term."""
    values = read_symbol(dict(op.terms)[d], np.arange(n + 1), [theta])
    assert values.singular is None or not values.singular[0, n]
    return complex(values.re[0, n], 0.0 if values.im is None else values.im[0, n])


def projector_strings(theta):
    (found,) = excluded_rows(jc.projector_singular_map(jc.build_bundle([theta]), N_MAX))
    return found


@pytest.mark.parametrize("theta", THETAS)
def test_qdm_reconstruction(theta):
    (res,) = jc.qdm_reconstruction_check(jc.build_bundle([theta]), N_MAX, TOL)
    assert res.passed, res.text_line()
    assert res.excluded == {2: [0]}


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("label", ["I", "II"])
def test_chart_rebuilds_hamiltonian(theta, label):
    chart = jc.build_bundle([theta]).charts[label]
    rebuilt = chart.unitary @ chart.diagonal @ chart.unitary.dagger()
    (res,) = matrix_equal(rebuilt, jc.build_h_jc(), N_MAX, TOL, thetas=[theta])
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("label", ["I", "II"])
def test_chart_orderings_agree(theta, label):
    chart = jc.build_bundle([theta]).charts[label]
    (res,) = matrix_equal(chart.unitary, chart.unitary_alt, N_MAX, TOL, thetas=[theta])
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("label", ["I", "II"])
def test_chart_unitary_off_strings(theta, label):
    (res,) = check_unitary(jc.build_bundle([theta]).charts[label].unitary, N_MAX, TOL, thetas=[theta])
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("label", ["I", "II"])
def test_dirac_strings_match_claims(theta, label):
    (rep,) = jc.dirac_string_map(jc.build_bundle([theta]), label, N_MAX)
    assert rep.passed, rep.text_line() + " " + rep.detail


def test_string_jump_across_resonance():
    # the chart-I string exists only for theta <= 0 and disappears above it
    below, above = jc.dirac_string_map(jc.build_bundle([-0.25, 0.25]), "I", N_MAX)
    assert below.excluded == {2: [0]}
    assert above.excluded == {}


@pytest.mark.parametrize("theta", [1e-13, -1e-13])
def test_resonance_band_has_the_resonant_strings(theta):
    assert jc.resonant(theta) and not jc.resonant(1e-11)
    for label in ("I", "II"):
        rep, resonance = jc.dirac_string_map(jc.build_bundle([theta, 0.0]), label, N_MAX)
        assert rep.excluded == resonance.excluded
        assert rep.passed, rep.text_line() + " " + rep.detail
    resonant = projector_strings(0.0)
    assert projector_strings(theta) == resonant


@pytest.mark.parametrize("theta", THETAS)
def test_gluing_relation(theta):
    glue = jc.transition_operator()
    charts = jc.build_bundle([theta]).charts
    vi, vii = charts["I"].unitary, charts["II"].unitary
    (res,) = matrix_equal(vi @ glue, vii, N_MAX, TOL, thetas=[theta])
    assert res.passed, res.text_line()
    assert res.excluded.get(1) == [0]


def test_two_gluing_operators_are_built_on_the_same_nodes():
    def coefficients(m):
        return [c for row in m.entries for op in row for _, c in op.terms]

    first, second = coefficients(jc.transition_operator()), coefficients(jc.transition_operator())
    assert len(first) == 2
    assert all(a is b for a, b in zip(first, second))


def test_transition_forms_and_strings():
    ground = jc.transition_operator()
    # the equivalent 1/sqrt(N+1) writing, regular everywhere
    inv_sqrt_np1 = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number(1))))
    shifted = OpMatrix.diag(inv_sqrt_np1 * FockOperator.annihilation(), FockOperator.creation() * inv_sqrt_np1)
    assert not shifted.column_singular_map(N_MAX).any()
    (res,) = matrix_equal(ground, shifted, N_MAX, TOL)
    assert res.passed
    assert jc.transition_singular_map(N_MAX) == {1: [0]}
    # the gluing operator is a shift: an isometry whose range misses
    # slot2 |0>, so only the one-sided product is the identity
    ident = jc.OpMatrix.identity(2)
    assert matrix_equal(ground.dagger() @ ground, ident, N_MAX, TOL)[0].passed


def shared_r_nodes(*objects):
    """The R(N + c) = sqrt(N + c + theta theta) nodes reachable from
    ``objects``, checking that each has one R + theta node and one
    sqrt(2 R (R + theta)) node on it."""
    nodes = coefficient_nodes(*objects)
    squares = [n for n in nodes if n.op == "mul" and n.args == (THETA, THETA)]
    r_nodes = [n for n in nodes if n.op == "sqrt" and n.args[0].op == "add" and n.args[0].args[1] in squares]
    for r in r_nodes:
        plus = [n for n in nodes if n.op == "add" and n.args == (r, THETA)]
        assert len(plus) <= 1
        roots = [n for n in nodes if n.op == "sqrt" and n.args[0].op == "mul" and n.args[0].args[1] in plus]
        assert len(roots) <= 1
    return r_nodes


@pytest.mark.parametrize("theta", [2.0, 0.5, -1.0])
def test_bundle_and_family_share_one_r_node_per_offset(theta):
    # theta is a node, so the R nodes are the same at every theta, 0 included
    bundle = jc.build_bundle([theta, 0.0])
    objects = [bundle.h, bundle.projector, bundle.projector_alt, bundle.projector_adjoint, bundle.z]
    for chart in bundle.charts.values():
        objects += [chart.unitary, chart.unitary_alt, chart.adjoint, chart.diagonal]
    assert {id(r) for r in shared_r_nodes(*objects)} == {id(jc.r_symbol(0)), id(jc.r_symbol(1))}
    family = veronese.build_family(4)
    r_nodes = shared_r_nodes(*family.x, *family.y, *family.z)
    assert sorted(r.args[0].args[0].args[0] for r in r_nodes) == list(range(-4, 2))  # offsets -n .. 1, once each


@pytest.mark.parametrize("builder", ["build_bundle", "build_family", "nc_spin_rep"])
def test_a_fresh_build_creates_each_node_once(monkeypatch, builder):
    # every node a build creates is one it returns, created once: none is built and dropped, none twice
    veronese.cache_clear()  # a family built earlier in the process would be returned as it is
    family = veronese.build_family(4) if builder == "nc_spin_rep" else None  # what nc_spin_rep reads is not its own
    before = [ref() for ref in list(symbols._NODES.values())]  # held, so that no new node takes an old one's id
    created = []
    init = DiagonalSymbol.__init__

    def counted(self, *args):
        created.append(None)  # no reference: a node the build drops still dies
        init(self, *args)

    monkeypatch.setattr(DiagonalSymbol, "__init__", counted)
    if builder == "build_bundle":
        bundle = jc.build_bundle([1.0, -0.5])
        objects = [bundle.h, bundle.projector, bundle.projector_alt, bundle.projector_adjoint, bundle.z]
        objects += [m for chart in bundle.charts.values() for m in vars(chart).values()]
    elif builder == "build_family":
        family = veronese.build_family(4)
        objects = [*family.x, *family.y, *family.z]
    else:
        objects = [spinrep.nc_spin_rep(family, 1.5)]
    monkeypatch.undo()
    old = {id(node) for node in before}
    new = [node for node in coefficient_nodes(*objects) if id(node) not in old]
    assert len(created) == len(new) > 0


def test_one_build_serves_every_theta():
    # theta enters the DAG as the THETA node only, so builds for two theta lists are one set of nodes
    first, second = jc.build_bundle([0.3]), jc.build_bundle([-2.0, 0.0, 1e4])
    for a, b in ((first.h, second.h), (first.projector, second.projector), (first.z, second.z)):
        assert [id(n) for n in coefficient_nodes(a)] == [id(n) for n in coefficient_nodes(b)]
    for label in ("I", "II"):
        assert coefficient_nodes(first.charts[label].unitary) == coefficient_nodes(second.charts[label].unitary)
    # a family takes no theta at all: one per degree and process, its levels the nodes of any higher degree's
    low, high = veronese.build_family(3), veronese.build_family(4)
    assert veronese.build_family(3) is low
    assert coefficient_nodes(*low.x, *low.y, *low.z) == coefficient_nodes(*high.x[:4], *high.y[:4], *high.z[:4])
    assert any(n is jc.THETA for n in coefficient_nodes(first.h))


def test_two_propagators_at_one_gt_are_built_on_the_same_leaves():
    def leaves(u):
        return [n for n in coefficient_nodes(u) if n.op == "leaf"]

    first, second = jc.propagator_closed_form(1.0, 0.5), jc.propagator_closed_form(1.0, 0.5)
    same_gt = jc.propagator_closed_form(2.0, 0.25)
    assert len(leaves(first)) == 4
    assert all(a is b is c for a, b, c in zip(leaves(first), leaves(second), leaves(same_gt)))
    # the node of each coefficient too, while both are alive
    entries = zip(first.entries[0] + first.entries[1], second.entries[0] + second.entries[1])
    assert all(a.terms[0][1] is b.terms[0][1] for a, b in entries)
    # +0.0 and -0.0 compare equal but are two products g t
    plus, minus = jc.propagator_closed_form(1.0, 0.0), jc.propagator_closed_form(-1.0, 0.0)
    assert not set(map(id, leaves(plus))) & set(map(id, leaves(minus)))


@pytest.mark.parametrize("theta", THETAS)
def test_projector_orderings_agree(theta):
    bundle = jc.build_bundle([theta])
    (res,) = matrix_equal(bundle.projector, bundle.projector_alt, N_MAX, TOL, thetas=[theta])
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", THETAS)
def test_projector_idempotent_hermitian(theta):
    projector = jc.build_bundle([theta]).projector
    (res,) = check_idempotent_hermitian(projector, N_MAX, TOL, thetas=[theta])
    assert res.passed, res.text_line()
    # the detail names a location only where there is a deviation; at theta = 0 the short grid has none
    (short,) = check_idempotent_hermitian(projector, 8, TOL, thetas=[theta])
    assert short.max_deviation == 0.0 or theta != 0.0
    assert (short.detail == "") == (short.max_deviation == 0.0)
    assert short.detail == "" or short.detail.startswith("max at (slot")


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
def test_projector_string_only_at_resonance(theta):
    expected = {2: [0]} if theta == 0 else {}
    assert projector_strings(theta) == expected


@pytest.mark.parametrize("theta", THETAS)
def test_spectral_decomposition(theta):
    assert jc.spectral_decomposition_check(jc.build_bundle([theta]), N_MAX, TOL)[0].passed


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("gt", [0.5, 1.0, math.pi])
def test_propagator_against_block_oracle(theta, gt):
    (res,) = jc.propagator_oracle_check([theta], 1.0, gt, N_MAX, 1e-9)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_propagator_unitary_and_semigroup(theta):
    assert jc.propagator_unitarity_check([theta], 1.0, 1.3, N_MAX, 1e-9)[0].passed
    assert jc.propagator_semigroup_check([theta], 1.0, 0.7, 0.9, N_MAX, 1e-9)[0].passed


def test_rabi_cosine_at_resonance():
    # <slot1,0| U |slot1,0> at theta=0 is cos(g t)
    for gt in (0.3, 1.0, 2.5):
        u = jc.propagator_closed_form(1.0, gt)
        assert element(u.entry(0, 0), 0, 0, 0.0) == pytest.approx(math.cos(gt), abs=1e-14)


def test_uncoupled_ground_state_phase():
    u = jc.propagator_closed_form(1.0, 2.0)
    assert element(u.entry(1, 1), 0, 0, 0.7) == pytest.approx(np.exp(1j * 2.0 * 0.7), abs=1e-14)


ORACLE_THETAS = [1.0, -1.0, 0.0, 0.37, -1.9, 2.5, 1e-13, -1e-13, 300.0, -300.0]
ORACLE_GTS = [1.0, 1.61, -3.0]


def oracle_blocks(thetas, gt, n_max):
    """The oracle's 2x2 blocks on (slot1,|n>), (slot2,|n+1>) for n < n_max, shape (rows, n_max, 2, 2),
    and its (slot2,|0>) phases, shape (rows,)."""
    u = jc.propagator_block_oracle(thetas, 1.0, gt, n_max)

    def read(i, j, d):
        values = read_symbol(dict(u.entry(i, j).terms)[d], np.arange(n_max + 1), thetas)
        return values.re + 1j * values.im

    u00, u01, u10, u11 = read(0, 0, 0), read(0, 1, -1), read(1, 0, 1), read(1, 1, 0)
    blocks = np.stack([np.stack([u00[:, :-1], u01[:, 1:]], -1), np.stack([u10[:, :-1], u11[:, 1:]], -1)], -2)
    return blocks, u11[:, 0]


def eigh_blocks(theta, gt, n_max):
    # the blocks exponentiated through LAPACK's eigendecomposition, as the oracle once did
    h = np.zeros((n_max, 2, 2))
    h[:, 0, 0], h[:, 1, 1] = theta, -theta
    h[:, 0, 1] = h[:, 1, 0] = np.sqrt(np.arange(1, n_max + 1))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * gt * w)[:, None, :]) @ np.swapaxes(v, 1, 2)


@pytest.mark.parametrize("gt", ORACLE_GTS)
def test_block_oracle_agrees_with_an_eigh_reference_and_is_unitary(gt):
    blocks, ground = oracle_blocks(ORACLE_THETAS, gt, 768)
    for row, theta in enumerate(ORACLE_THETAS):
        assert np.max(np.abs(blocks[row] - eigh_blocks(theta, gt, 768))) <= 1e-14
        assert ground[row] == np.exp(1j * gt * theta)
    gram = blocks @ np.conj(np.swapaxes(blocks, -1, -2))
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-14


def test_block_oracle_matches_scipy_expm():
    expm = pytest.importorskip("scipy.linalg").expm
    thetas = [0.37, -1.9, 300.0]
    blocks, _ = oracle_blocks(thetas, 1.61, 12)
    for row, theta in enumerate(thetas):
        for n in (0, 5, 11):
            h = np.array([[theta, math.sqrt(n + 1)], [math.sqrt(n + 1), -theta]])
            assert np.max(np.abs(blocks[row, n] - expm(-1j * 1.61 * h))) <= 1e-13


def test_block_oracle_warns_at_no_theta(recwarn):
    # the CLI prints any numpy warning on stderr; at |theta| ~ 1e154 dlaev2's ct * ct overflows to inf, by design
    jc.propagator_block_oracle([1e154, -1e200, 1e300, 0.0, -0.0, 1e-300], 1.0, 1.0, 6)
    assert not recwarn.list


def test_block_oracle_rows_are_computed_from_their_own_theta_bit_for_bit():
    together, ground = oracle_blocks(ORACLE_THETAS, 1.61, 48)
    for row, theta in enumerate(ORACLE_THETAS):
        alone, alone_ground = oracle_blocks([theta], 1.61, 48)
        assert np.array_equal(together[row], alone[0]) and ground[row] == alone_ground[0]


# (a, b, c) of [[a, b], [b, c]], reaching each branch of dlaev2
EIGEN_CASES = [
    (3.0, 0.5, -1.0),  # |a - c| > |2b|, a + c > 0
    (0.1, 2.0, 0.3),  # |a - c| < |2b|, a + c > 0
    (1.0, 1.0, -1.0),  # |a - c| = |2b|, a + c = 0
    (-3.0, 0.5, -1.0),  # a + c < 0, a - c < 0
    (-1.0, 2.0, -0.5),  # a + c < 0, |a - c| < |2b|
    (-1.0, 0.5, 2.0),  # a - c < 0, a + c > 0
    (0.37, math.sqrt(5.0), -0.37),  # a + c = 0, the oracle's blocks
    (-1.9, 1.0, 1.9),  # a + c = 0, a - c < 0
    (2.0, 0.0, -1.0),  # b = 0
    (-2.0, 0.0, 5.0),  # b = 0, a - c < 0
    (-1.0, -1.0, -1.0),  # b < 0, a = c
    (1e-13, 1.0, -1e-13),
    (300.0, 27.7, -300.0),
]


def test_eigen_2x2_matches_eigh_on_every_branch():
    a, b, c = (np.array(v) for v in zip(*EIGEN_CASES))
    rt1, rt2, cs, sn = jc.eigen_2x2(a, b, c)
    for k, (ak, bk, ck) in enumerate(EIGEN_CASES):
        w, v = np.linalg.eigh(np.array([[ak, bk], [bk, ck]]))
        scale = max(abs(w))
        assert abs(rt1[k]) >= abs(rt2[k])
        assert np.max(np.abs(np.sort([rt1[k], rt2[k]]) - w)) <= 2e-15 * scale
        top = v[:, np.argmin(np.abs(w - rt1[k]))]  # the eigenvector of rt1, up to sign
        assert min(np.max(np.abs([cs[k], sn[k]] - s * top)) for s in (1, -1)) <= 1e-15
        assert abs(cs[k] ** 2 + sn[k] ** 2 - 1.0) <= 1e-15


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, -1.0])
def test_local_coordinate_forms_agree(theta):
    lhs = jc.build_bundle([theta]).z
    # the prefactor written to the right of a-dagger, at N + 1
    post = guarded_div(1.0, jc.r_symbol(1) + THETA, ROW_TOL)
    rhs = FockOperator.creation() * FockOperator.diagonal(post)
    (dev,), _, _ = matrix_grid_deviation(OpMatrix.build([[lhs - rhs]]), N_MAX, thetas=[theta])
    assert dev <= TOL


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.0])
def test_z_identity(theta):
    assert jc.z_identity_check(jc.build_bundle([theta]), N_MAX, TOL)[0].passed


def test_coherent_expectation_matches_direct_sum():
    theta, alpha = 1.0, 2.0
    # direct amplitude-level evaluation as an independent cross-check
    n_top = jc.coherent_support(alpha)
    amps = np.array(
        [alpha**n * math.exp(-abs(alpha) ** 2 / 2) / math.sqrt(math.factorial(n)) for n in range(n_top + 1)]
    )
    z = jc.build_bundle([theta]).z
    direct = sum(
        amps[n + 1] * element(z, 1, n, theta) * amps[n] for n in range(n_top)
    )
    assert jc.coherent_expectation_z([theta], alpha)[0] == pytest.approx(direct, rel=1e-12)


def test_coherent_expectation_rejects_negative_theta():
    with pytest.raises(ValueError):
        jc.coherent_expectation_z([1.0, -1.0], 2.0)


def test_classical_limit_errors_decay():
    (errs,) = jc.classical_limit_errors([1.0])
    assert errs[0] > errs[1] > errs[2]
    assert jc.classical_limit_check([1.0])[0].passed


def _looped_expectation_z(theta, alpha):
    # the sum one theta at a time, in Python floats, as the check was first written
    a2, total, log_p = abs(alpha) ** 2, 0.0, -abs(alpha) ** 2
    for n in range(jc.coherent_support(alpha) + 1):
        total += math.exp(log_p) / (math.sqrt(n + 1 + theta * theta) + theta)
        log_p += math.log(a2) - math.log(n + 1)
    return complex(np.conj(alpha)) * total


def test_batched_coherent_sums_equal_the_scalar_loop_bit_for_bit():
    thetas = [0.0, -0.0, 1e-13, 0.37, 1.0, 2.5, 100.0, 1e4, 1e155, 1e300]
    for alpha in jc.CLASSICAL_ALPHAS:
        assert jc.coherent_expectation_z(thetas, alpha) == [_looped_expectation_z(t, alpha) for t in thetas]


def test_classical_limit_records_one_per_theta_in_order():
    records = jc.classical_limit_check([2.0, 0.0, 2.0])
    assert [r.name for r in records] == [f"z_classical_limit_decay_theta{t}" for t in (2.0, 0.0, 2.0)]
    assert records[0] == records[2]
    assert jc.classical_limit_check([]) == []


@pytest.mark.parametrize("theta", THETAS + [1e-13, -1e-13])
def test_claimed_strings_sit_on_the_ground_state(theta):
    claims = jc.claimed_strings(theta)
    assert set(claims) == {"chart_I", "chart_II", "transition", "projector"}
    assert all(states == {0} for claim in claims.values() for states in claim.values())
