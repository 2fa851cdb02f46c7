"""The check record and its four assertion-kind constructors.

Every ``CheckResult`` comes from ``upper_bound_check``,
``lower_bound_check``, ``exact_set_check`` or ``monotone_check``; each
one alone decides whether its kind of claim passed.
"""

import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fockbundle import spinrep
from fockbundle.opmatrix import OpMatrix, matrix_equal
from fockbundle.report import excluded_rows, exact_set_check, lower_bound_check, monotone_check, upper_bound_check
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


def listed_by_hand(mask):
    """Per row of an exclusion mask, each non-empty slot's states in a Python loop, and their count."""
    rows, slots, size = mask.shape
    maps = [{s + 1: [n for n in range(size) if mask[r, s, n]] for s in range(slots)} for r in range(rows)]
    maps = [{s: states for s, states in row.items() if states} for row in maps]
    return maps, [sum(map(len, row.values())) for row in maps]


def test_the_listing_is_the_per_row_reference():
    rng = np.random.default_rng(43)
    seen = Counter()
    for _ in range(300):
        rows, slots, size = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        # each row its own density: nothing excluded, some states, or every state
        mask = rng.random((rows, slots, size)) < rng.choice([0.0, 0.3, 0.7, 1.0], size=(rows, 1, 1))
        maps, counts = listed_by_hand(mask)
        found = excluded_rows(mask)
        # slots in order and states sorted, as Python ints: the maps a record holds and the report writes
        assert [list(row.items()) for row in found] == [list(row.items()) for row in maps]
        assert all(type(n) is int for row in found for states in row.values() for n in states)
        for row, count in zip(found, counts):
            dev = float(rng.choice([0.0, 0.5, 1e-12, math.inf, math.nan]))
            everything = slots * size
            upper = upper_bound_check("u", dev, 1e-10, row, everything)
            lower = lower_bound_check("l", dev, 1e-8, row, everything, "")
            assert upper.passed == (count < everything and dev <= 1e-10)
            assert lower.passed == (count < everything and math.isfinite(dev) and dev > 1e-8)
            assert upper.excluded is row and upper.to_dict()["excluded_states"] == {str(s): v for s, v in row.items()}
            seen["nothing excluded"] += count == 0
            seen["every state excluded"] += count == everything
            seen["every state excluded, within tol"] += count == everything and dev <= 1e-10
            seen["passed"] += upper.passed
            seen["several slots"] += len(row) > 1
        seen["one state"] += size == 1
    assert min(seen.values()) > 20, seen
    assert excluded_rows(np.zeros((3, 2, 0), dtype=bool)) == [{}, {}, {}]


SCAN_PATH = {"operators.py", "opmatrix.py", "spinrep.py", "jc.py", "veronese.py"}


def test_one_helper_lists_an_exclusion_mask():
    # a mask becomes states in excluded_rows alone, and no module on the scan path merges maps again
    listers, merged = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if called in {"flatnonzero", "nonzero", "argwhere"} or (called == "where" and len(node.args) == 1):
                        listers.add(f"{path.name}:{fn.name}")
                if path.name in SCAN_PATH and "merge_excluded" in {getattr(node, "id", None), getattr(node, "attr", None)}:
                    merged.add(f"{path.name}:{fn.name}")
    assert listers == {"report.py:excluded_rows"}
    assert not merged
    for name in SCAN_PATH:
        assert "merge_excluded" not in (SRC / name).read_text()
