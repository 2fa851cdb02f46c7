"""Tests for the diagonal-coefficient family X/Y/Z, the lifted columns of
weighted shifts and their rank-one projectors."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fockbundle import jc, veronese
from fockbundle.operators import FockOperator
from fockbundle.opmatrix import check_idempotent_hermitian, matrix_equal
from symbol_reader import r_nodes, read_symbol

N_MAX = 32
TOL = 1e-10
SRC = Path(__file__).resolve().parent.parent / "src" / "fockbundle"

THETAS = [2.0, 1.0, 0.5, 0.0, -0.5]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("j", range(5))
def test_sum_rule(theta, j):
    (res,) = veronese.sum_rule_check([theta], veronese.build_family(4), j, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("j", range(1, 5))
def test_shift_rule(theta, j):
    (res,) = veronese.shift_rule_check([theta], veronese.build_family(4), j, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [1.0, 0.5, -0.5])
@pytest.mark.parametrize("k", range(4))
def test_commutation_rule(theta, k):
    (res,) = veronese.commutation_check([theta], veronese.build_family(5), k, k + 1, N_MAX, TOL)
    assert res.passed, res.text_line()


def test_x_values_explicit():
    # at theta=0 every X collapses to 1/sqrt(2) wherever it is defined
    x0 = read_symbol(veronese.x_symbol(1), np.arange(8), [0.0])
    assert x0.singular is None and x0.im is None
    for n in (1, 2, 7):
        assert x0.re[0, n] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    # large theta pushes X toward 1: the fibre aligns with the pole
    assert read_symbol(veronese.x_symbol(1), np.arange(4), [50.0]).magnitude()[0, 3] > 0.999


def test_y_index_structure():
    # the shift acts first, so the sqrt((N-2)/N) factor of Y_{-2} is read
    # at the raised index: negative under the root at |0>, zero at |1>
    y2 = veronese.y_operator(-2)
    assert y2.singular_support(N_MAX, [1.0]) == [{0}]
    (d, c), = y2.terms
    values = read_symbol(c, np.arange(N_MAX + 1), [1.0])
    assert d == 1
    assert values.magnitude()[0, 1] == 0.0
    assert values.magnitude()[0, 3] > 0.0


def test_z_regular_at_vacuum_for_positive_theta():
    z0 = veronese.z_operator(0)
    assert z0.singular_support(N_MAX, [1.0]) == [set()]
    (d, c), = veronese.z_operator(-2).terms
    assert d == 1 and read_symbol(c, np.arange(N_MAX + 1), [1.0]).singular[0, 0]


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lift_is_isometric_column(theta, n):
    lifted = veronese.lift(veronese.build_family(n), n)
    (res,) = veronese.lift_norm_check([theta], lifted, N_MAX, TOL)
    assert res.passed, res.text_line()


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_factored_form_and_binomial_power(theta, n):
    lifted = veronese.lift(veronese.build_family(n), n)
    assert veronese.factored_form_check([theta], lifted, N_MAX, TOL)[0].passed
    assert veronese.binomial_power_check([theta], lifted, N_MAX, TOL)[0].passed


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_projector_and_eigencolumn(theta, n):
    lifted = veronese.lift(veronese.build_family(n), n)
    p = veronese.projector_pn(lifted)
    assert check_idempotent_hermitian(p, N_MAX, TOL, thetas=[theta])[0].passed
    assert veronese.eigencolumn_check([theta], lifted, N_MAX, TOL)[0].passed


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 3])
def test_oike_layout(theta, n):
    lifted = veronese.lift(veronese.build_family(n), n)
    (res,) = veronese.oike_layout_check([theta], lifted, N_MAX, TOL)
    assert res.passed, res.text_line()


def test_lift_needs_a_family_of_degree_at_least_n_minus_one():
    # a degree-n column reads Y_0 .. Y_{-(n-1)} and Z_0 .. Z_{-(n-1)}: a shorter family would truncate its entries
    with pytest.raises(ValueError, match="needs a family of degree at least 2, got 1"):
        veronese.lift(veronese.build_family(1), 3)
    (res,) = veronese.lift_norm_check([1.0], veronese.lift(veronese.build_family(2), 3), N_MAX, TOL)
    assert res.passed, res.text_line()


def test_lift_degree_one_matches_chart_column():
    # for n=1 the lifted column is just (X0; Y0)
    lifted = veronese.lift(veronese.build_family(1), 1)
    col = veronese.OpMatrix.build([[veronese.x_operator(1)], [veronese.y_operator(0)]])
    assert matrix_equal(lifted.a_col, col, N_MAX, TOL, thetas=[1.0])[0].passed


def test_only_build_family_builds_the_operator_family():
    builders = ("x_operator", "y_operator", "z_operator")
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in builders:
                        callers.add(f"{path.name}:{getattr(stmt, 'name', '<module>')}")
    assert callers == {"veronese.py:build_family"}
    # which builds one family of tuples per degree and process
    family = veronese.build_family(2)
    assert veronese.build_family(2) is family
    assert all(isinstance(ops, tuple) for ops in (family.x, family.y, family.z))


@pytest.mark.parametrize("n", [1, 3, 4])
def test_build_family_builds_one_r_node_per_offset(n):
    veronese.cache_clear()  # a family built earlier in the process would be returned as it is
    family = veronese.build_family(n)
    # X_{-j} reads R(N+1-j), Y_{-j} and Z_{-j} read R(N-j), for every theta at once
    found = r_nodes(*family.x, *family.y, *family.z)
    assert [offset for offset, _ in found] == list(range(-n, 2))
    assert all(node is jc.r_symbol(offset) for offset, node in found)
    assert all(res.passed for res in veronese.sum_rule_check([0.5, -0.5], family, n, N_MAX, TOL))


def test_y_and_z_of_a_level_share_one_level_ratio_node():
    family = veronese.build_family(3)
    for j in range(4):
        # Y_{-j} and Z_{-j} are (ratio * prefactor) a-dagger: one composed term each
        ((_, y),), ((_, z),) = family.y[j].terms, family.z[j].terms
        ratio = veronese._level_ratio(-j)
        assert y.args[0].args[0] is ratio
        assert z.args[0].args[0] is ratio


def test_the_lifted_projector_and_normaliser_are_built_once():
    lifted, thetas = veronese.lift(veronese.build_family(3), 3), [0.5, -0.5]
    p, s = lifted.projector, lifted.one_plus_ztz
    assert veronese.projector_pn(lifted) is p is lifted.projector
    assert lifted.one_plus_ztz is s
    assert all(res.passed for res in veronese.eigencolumn_check(thetas, lifted, N_MAX, TOL))
    assert all(res.passed for res in veronese.oike_layout_check(thetas, lifted, N_MAX, TOL))
    assert all(res.passed for res in veronese.binomial_power_check(thetas, lifted, N_MAX, TOL))
    assert lifted.projector is p and lifted.one_plus_ztz is s


def test_ordered_products_compose_no_identity():
    family = veronese.build_family(3)
    op = family.y[1]
    assert veronese._ordered_product([op]) is op
    assert veronese.op_power(op, 0) == FockOperator.identity()
    assert veronese.op_power(op, 1) is op
    assert veronese.op_power(op, 3) == op * op * op
    # no coefficient of the lifted column composes or multiplies the constant 1 with another factor
    one = FockOperator.identity().terms[0][1]
    lifted = veronese.lift(family, 3)
    stack = [c for (entry,) in lifted.a_col.entries + lifted.z_col.entries for _, c in entry.terms]
    while stack:
        node = stack.pop()
        assert not (node.op in ("composed", "mul") and one in node.args), node.args
        stack += [a for a in node.args if isinstance(a, type(one))]
