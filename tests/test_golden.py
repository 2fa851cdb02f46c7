"""Byte-for-byte regression of ``verify`` output against recorded reports.

``tests/golden/<suite>-nmax<N>.json`` for the fock, charts, propagator,
veronese and spinrep suites was written by the closure-based coefficient
evaluation that the grid evaluation replaced, with

    fockbundle verify --suite <suite> --theta 1 --theta=-1 --theta 0 \\
        --theta 0.37 --theta=-1.9 --nmax <N> --format json

``classical-nmax6.json``, ``all-nmax6.txt`` and ``all-nmax6.csv`` were
written with the same theta values by the grid evaluation, before the
check records named themselves and the CLI stopped renaming them: the
classical suite in json, and the whole suite in text and csv.
"""

from pathlib import Path

import pytest

from fockbundle import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
THETAS = ["--theta", "1", "--theta=-1", "--theta", "0", "--theta", "0.37", "--theta=-1.9"]
CASES = [(suite, n_max) for suite in ("fock", "charts", "propagator", "veronese", "spinrep") for n_max in (6, 24)]
FORMATS = [("classical", "json", "json"), ("all", "text", "txt"), ("all", "csv", "csv")]


def _verify(suite, n_max, fmt, capsys):
    code = cli.main(["verify", "--suite", suite, *THETAS, "--nmax", str(n_max), "--format", fmt])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("suite,n_max", CASES)
def test_report_is_byte_identical_to_golden(suite, n_max, capsys):
    expected = (GOLDEN / f"{suite}-nmax{n_max}.json").read_text(encoding="utf-8")
    assert _verify(suite, n_max, "json", capsys) == (0, expected)


@pytest.mark.parametrize("suite,fmt,suffix", FORMATS)
def test_format_is_byte_identical_to_golden(suite, fmt, suffix, capsys):
    expected = (GOLDEN / f"{suite}-nmax6.{suffix}").read_text(encoding="utf-8")
    assert _verify(suite, 6, fmt, capsys) == (0, expected)
