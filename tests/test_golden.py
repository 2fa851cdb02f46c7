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

``spinrep-theta1.5-2.5-nmax24.json`` and ``sweep-theta-nmax6.csv`` were
written before every singular-state question went through the grid
scanner, with the command lines in ``RUNS``.  At theta 1.5 and 2.5 the
level strings of the j = 1 and 3/2 operator spin matrices are not the
matrices' own strings.

Every report that holds spinrep checks (the spinrep JSONs, both
``all-nmax6`` files and the sweep CSV) was written again when the spin
matrices came to be built from one symmetric-power table instead of by
hand.  Only ``max_deviation`` and ``detail`` of the j = 3/2 checks and of
``su2_rep_homomorphism`` moved, each by less than 1e-15.

The seven reports that hold a seeded-sample check (the spinrep JSONs,
``classical-nmax6.json``, both ``all-nmax6`` files and the sweep CSV) were
written again when the samples came to be drawn from ``random.Random``
instead of numpy's generator.  Only ``max_deviation`` of
``sphere_identities_sample``, ``su2_rep_unitary``, ``su2_rep_homomorphism``
and ``su2_cg_blocks`` moved; each stays below 1e-14.

The propagator and spinrep JSONs, ``classical-nmax6.json``, both
``all-nmax6`` files, ``spinrep-theta1.5-2.5-nmax24.json`` and the sweep
CSV were written again when the propagator's block oracle came to solve
its 2x2 blocks elementwise (LAPACK's dlaev2 written over arrays) instead
of by ``np.linalg.eigh``, and the sampled small matrices came to multiply
through ``np.einsum`` instead of ``@``: both round differently from the
BLAS and LAPACK calls they replace.  Only ``max_deviation`` and ``detail``
of ``propagator_oracle_*``, ``su2_rep_homomorphism``, ``su2_cg_blocks``
and ``sphere_identities_sample`` moved; each stays below 1e-14.
"""

from pathlib import Path

import pytest

from fockbundle import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
THETAS = ["--theta", "1", "--theta=-1", "--theta", "0", "--theta", "0.37", "--theta=-1.9"]
CASES = [(suite, n_max) for suite in ("fock", "charts", "propagator", "veronese", "spinrep") for n_max in (6, 24)]
FORMATS = [("classical", "json", "json"), ("all", "text", "txt"), ("all", "csv", "csv")]
RUNS = [
    ("spinrep-theta1.5-2.5-nmax24.json", "verify --suite spinrep --theta 1.5 --theta 2.5 --nmax 24".split()),
    ("sweep-theta-nmax6.csv", "sweep --suite all --axis theta --values -1.5 -0.2 0 0.3 1.7 --nmax 6".split()),
]


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


@pytest.mark.parametrize("golden,argv", RUNS, ids=[g for g, _ in RUNS])
def test_run_is_byte_identical_to_golden(golden, argv, capsys):
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert (cli.main(argv), capsys.readouterr().out) == (0, expected)
