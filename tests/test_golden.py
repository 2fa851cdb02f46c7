"""Byte-for-byte regression of ``verify --format json`` against recorded reports.

``tests/golden/<suite>-nmax<N>.json`` was written by the closure-based
coefficient evaluation that the grid evaluation replaced, with

    fockbundle verify --suite <suite> --theta 1 --theta=-1 --theta 0 \\
        --theta 0.37 --theta=-1.9 --nmax <N> --format json

The classical suite is not recorded: its sample check was made more
accurate since.
"""

from pathlib import Path

import pytest

from fockbundle import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
THETAS = ["--theta", "1", "--theta=-1", "--theta", "0", "--theta", "0.37", "--theta=-1.9"]
CASES = [(suite, n_max) for suite in ("fock", "charts", "propagator", "veronese", "spinrep") for n_max in (6, 24)]


@pytest.mark.parametrize("suite,n_max", CASES)
def test_report_is_byte_identical_to_golden(suite, n_max, capsys):
    expected = (GOLDEN / f"{suite}-nmax{n_max}.json").read_text(encoding="utf-8")
    code = cli.main(["verify", "--suite", suite, *THETAS, "--nmax", str(n_max), "--format", "json"])
    assert capsys.readouterr().out == expected
    assert code == 0
