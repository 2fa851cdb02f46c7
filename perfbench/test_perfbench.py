"""Self-tests of the benchmark: the correctness gate and the layer trace.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import gate_sweep, gate_verify  # noqa: E402
from run import cold_starts, expected_path, run_child  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED = json.loads(expected_path("charts", 768).read_text())["checks"]
MISALIGNED = HERE / "fixtures" / "sweep_misaligned.csv"


def verify_output(checks, rc=0):
    report = {
        "checks": [{"name": name, "excluded_states": excl, "pass": ok} for name, excl, ok in checks],
    }
    return {"rc": rc, "out": json.dumps(report), "error": ""}


def passing():
    return [[name, copy.deepcopy(excl), True] for name, excl in EXPECTED]


def test_gate_accepts_the_expected_report():
    assert gate_verify(verify_output(passing()), EXPECTED) == (len(EXPECTED), 0, [])


def test_gate_rejects_a_failed_check():
    checks = passing()
    checks[3][2] = False
    attempted, failed, problems = gate_verify(verify_output(checks, rc=1), EXPECTED)
    assert (attempted, failed) == (len(EXPECTED), 1)
    assert any(checks[3][0] in p for p in problems)


def test_gate_rejects_a_missing_check():
    checks = passing()
    del checks[5]
    attempted, failed, _ = gate_verify(verify_output(checks), EXPECTED)
    assert (attempted, failed) == (len(EXPECTED), 1)


def test_gate_rejects_a_changed_exclusion_set():
    checks = passing()
    name, excl, _ = next(c for c in checks if c[1])
    slot = next(iter(excl))
    excl[slot] = excl[slot] + [max(excl[slot]) + 1]
    attempted, failed, problems = gate_verify(verify_output(checks), EXPECTED)
    assert (attempted, failed) == (len(EXPECTED), 1)
    assert any(name in p for p in problems)


def test_gate_fails_every_check_of_a_crash_or_a_lying_exit_code():
    total = len(EXPECTED)
    assert gate_verify(None, EXPECTED)[:2] == (total, total)
    assert gate_verify({"rc": None, "out": "", "error": "Traceback"}, EXPECTED)[:2] == (total, total)
    assert gate_verify(verify_output(passing(), rc=1), EXPECTED)[:2] == (total, total)


def test_sweep_gate_reads_rows_that_do_not_match_the_header():
    text = MISALIGNED.read_text()
    lines = text.splitlines()
    # the header comes from theta=-1; the theta=1 row has one field more
    assert len(lines[0].split(",")) != len(lines[-1].split(","))
    output = {"rc": 0, "out": text, "error": ""}
    assert gate_sweep(output, ["-1", "0", "1"]) == (3, 0, [])


def test_sweep_gate_rejects_a_failed_or_missing_row():
    lines = MISALIGNED.read_text().splitlines()
    failed_row = lines[:2] + [lines[2][:-1] + "0"] + lines[3:]
    output = {"rc": 0, "out": "\n".join(failed_row) + "\n", "error": ""}
    assert gate_sweep(output, ["-1", "0", "1"])[:2] == (3, 1)
    output = {"rc": 0, "out": "\n".join(lines[:-1]) + "\n", "error": ""}
    assert gate_sweep(output, ["-1", "0", "1"])[:2] == (3, 1)


def test_tiny_traced_pass_counts_evaluations_and_matrix_scans():
    result = run_child([["verify", "--suite", "spinrep", "--theta", "1", "--nmax", "4"]], trace=True)
    assert "crashed" not in result, result
    summary = result["trace"]
    assert summary["absent"] == []
    assert summary["counts"]["symbols.evals"] > 0
    assert summary["calls"]["opmatrix.scan"] > 0
    assert result["pass"]["norm_s"] > 0


def test_cold_start_is_normalised_by_a_reference_start():
    (start,) = cold_starts(1)
    assert "crashed" not in start, start
    assert start["reference_s"] > 0
    assert start["setup_norm_s"] == start["setup_raw_s"] * start["setup_factor"] > 0


def test_tracer_reports_a_vanished_name_as_absent():
    tracer = Tracer()
    tracer._patch("nosuchmodule", "build", lambda fn: fn)
    tracer._patch("symbols", "DiagonalSymbol.no_such_method", lambda fn: fn)
    assert tracer.absent == ["nosuchmodule.build", "symbols.DiagonalSymbol.no_such_method"]
