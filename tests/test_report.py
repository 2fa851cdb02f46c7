"""The check record and its four assertion-kind constructors.

Every ``CheckResult`` comes from ``upper_bound_check``,
``lower_bound_check``, ``exact_set_check`` or ``monotone_check``; each
one alone decides whether its kind of claim passed.
"""

import ast
import math
from pathlib import Path

import pytest

from fockbundle import spinrep
from fockbundle.opmatrix import OpMatrix, matrix_equal
from fockbundle.report import exact_set_check, lower_bound_check, monotone_check, upper_bound_check
from fockbundle.veronese import build_family

SRC = Path(__file__).resolve().parent.parent / "src" / "fockbundle"


def test_upper_bound_rule():
    assert upper_bound_check("u", 1e-12, 1e-10, {1: [0]}, 2).passed
    assert not upper_bound_check("u", 1e-12, 1e-10, {1: [0], 2: [0]}, 2).passed  # empty scan
    assert not upper_bound_check("u", math.nan, 1e-10).passed
    assert not upper_bound_check("u", 1e-9, 1e-10).passed


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_upper_bound_needs_a_positive_tolerance(tol):
    with pytest.raises(ValueError):
        upper_bound_check("u", 0.0, tol)


def test_matrix_equal_rejects_a_zero_tolerance():
    with pytest.raises(ValueError):
        matrix_equal(OpMatrix.identity(2), OpMatrix.identity(2), 6, 0.0)


def test_lower_bound_rule():
    assert lower_bound_check("l", 0.5, 1e-8, {}, 4, "").passed
    assert not lower_bound_check("l", 1e-9, 1e-8, {}, 4, "").passed
    assert not lower_bound_check("l", math.inf, 1e-8, {}, 4, "").passed
    assert not lower_bound_check("l", math.nan, 1e-8, {}, 4, "").passed
    assert not lower_bound_check("l", 0.5, 1e-8, {1: [0, 1], 2: {0, 1}}, 4, "").passed  # empty scan


def test_tensor_breakdown_fails_at_nan_theta():
    family = build_family(3)
    v, phi1 = spinrep.nc_spin_rep(family, 0.5), spinrep.nc_spin_rep(family, 1.0)
    (res,) = spinrep.tensor_breakdown_check([float("nan")], v, phi1, 6, [1e-8])
    assert not res.passed, res.text_line()


def test_exact_set_rule():
    res = exact_set_check("s", {1: {0}, 2: [0]}, {2: {0}, 1: [0]})
    assert res.passed and res.max_deviation == 0.0 and res.tol == 0.0
    assert res.excluded == {1: [0], 2: [0]}
    assert res.detail == "claimed {1: [0], 2: [0]}"
    res = exact_set_check("s", {1: [0, 3], 2: [1]}, {1: [0], 3: [2]})
    assert not res.passed
    assert res.max_deviation == 3.0  # 3 in slot 1, 1 in slot 2, 2 in slot 3
    assert res.excluded == {1: [0, 3], 2: [1]}
    assert res.detail == "claimed {1: [0], 3: [2]}"


def test_monotone_rule():
    res = monotone_check("m", [0.3, 0.2, 0.1], "d")
    assert res.passed and (res.max_deviation, res.tol, res.detail) == (0.1, 0.3, "d")
    assert not monotone_check("m", [0.3, 0.3, 0.1], "").passed
    assert not monotone_check("m", [0.3, 0.4, 0.1], "").passed
    assert not monotone_check("m", [math.inf, 0.2, 0.1], "").passed
    assert not monotone_check("m", [0.3, 0.2, math.nan], "").passed
    assert not monotone_check("m", [0.1], "").passed  # one value shows no decay


def test_only_report_builds_check_results():
    builders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "CheckResult":
                    builders.append(path.name)
    assert builders and set(builders) == {"report.py"}
