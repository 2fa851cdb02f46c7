"""Command-line interface tests: exit codes, output formats, determinism,
sweep tables, and configuration validation."""

import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from fockbundle import cli, operators, symbols
from symbol_reader import r_nodes

FAST = ["--nmax", "16", "--theta", "1.0"]


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_fock_json(capsys):
    code, out, _ = run_main(["verify", "--suite", "fock", "--format", "json"] + FAST, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "fock"
    assert doc["pass"] is True
    assert doc["version"] == 1
    assert all({"name", "max_deviation", "tol", "pass"} <= set(c) for c in doc["checks"])


def test_json_output_is_byte_stable(capsys):
    argv = ["verify", "--suite", "charts", "--format", "json", "--seed", "5"] + FAST
    _, first, _ = run_main(argv, capsys)
    _, second, _ = run_main(argv, capsys)
    assert first == second


def test_text_format_mentions_every_check(capsys):
    code, out, _ = run_main(["verify", "--suite", "classical", "--format", "text"] + FAST, capsys)
    assert code == 0
    assert "pass" in out.lower()


def test_csv_format_has_header(capsys):
    code, out, _ = run_main(["verify", "--suite", "fock", "--format", "csv"] + FAST, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,")
    assert len(lines) > 1


def test_all_suites_pass_quick(capsys):
    code, out, _ = run_main(["verify", "--suite", "all", "--format", "json"] + FAST, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["checks"]) > 50


def test_failing_tolerance_exits_one(capsys):
    code, out, _ = run_main(
        ["verify", "--suite", "fock", "--format", "json", "--nmax", "16", "--tol", "1e-30"], capsys
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_unknown_suite_exits_two(capsys):
    code, _, err = run_main(["verify", "--suite", "nonsense"], capsys)
    assert code == 2
    assert "config error" in err


def test_bad_nmax_exits_two(capsys):
    code, _, _ = run_main(["verify", "--suite", "fock", "--nmax", "2"], capsys)
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_main(
        ["verify", "--suite", "fock", "--format", "json", "--out", str(target)] + FAST, capsys
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["suite"] == "fock"


# What the argparse parser of earlier versions gave for each argv, recorded
# from it: the values that differ from the command's defaults.  The
# CLI's own parser must give the same, in both forms of every option.
DEFAULTS = {"suite": "all", "theta": None, "nmax": 48, "tol": 1e-10, "g": 1.0, "t": 1.0, "seed": 0, "out": None}
PARSED = [
    (["verify"], {}),
    (["sweep", "--axis", "theta", "--values", "1"], {"axis": "theta", "values": [1.0]}),
    (["verify", "--suite", "fock"], {"suite": "fock"}),
    (["verify", "--suite=charts"], {"suite": "charts"}),
    (["verify", "--theta", "0.5"], {"theta": [0.5]}),
    (["verify", "--theta=0.5"], {"theta": [0.5]}),
    (["verify", "--theta", "-1"], {"theta": [-1.0]}),
    (["verify", "--theta=-1"], {"theta": [-1.0]}),
    (["verify", "--theta", "-1e-13"], {"theta": [-1e-13]}),
    (["verify", "--theta=-1e-13"], {"theta": [-1e-13]}),
    (["verify", "--theta", "-inf"], {"theta": [-np.inf]}),
    (["verify", "--theta=-inf"], {"theta": [-np.inf]}),
    (["verify", "--theta", "1", "--theta=-1", "--theta", "0"], {"theta": [1.0, -1.0, 0.0]}),
    (["verify", "--nmax", "6", "--nmax=+24"], {"nmax": 24}),
    (["verify", "--tol", "1e-8", "--g=2.5", "--t", "-0.5"], {"tol": 1e-08, "g": 2.5, "t": -0.5}),
    (["verify", "--tol=1e-12", "--g", "-1", "--t=3"], {"tol": 1e-12, "g": -1.0, "t": 3.0}),
    (["verify", "--seed", "7", "--out", "report.json"], {"seed": 7, "out": "report.json"}),
    (["verify", "--seed=-1", "--out=r.txt", "--format=text"], {"seed": -1, "out": "r.txt", "format": "text"}),
    (
        ["verify", "--format", "csv", "--suite", "spinrep", "--nmax", "8"],
        {"suite": "spinrep", "nmax": 8, "format": "csv"},
    ),
    (
        ["sweep", "--axis=nmax", "--values", "6", "24", "--suite", "fock"],
        {"suite": "fock", "axis": "nmax", "values": [6.0, 24.0]},
    ),
    (
        ["sweep", "--values", "-1", "-1e-13", "-inf", "0", "--axis", "theta", "--nmax", "6"],
        {"nmax": 6, "axis": "theta", "values": [-1.0, -1e-13, -np.inf, 0.0]},
    ),
    (
        ["sweep", "--axis", "t", "--values=-2", "--theta=-1e-13", "--seed", "3"],
        {"theta": [-1e-13], "seed": 3, "axis": "t", "values": [-2.0]},
    ),
    (["sweep", "--values", "1", "--values", "2", "3", "--axis", "theta"], {"axis": "theta", "values": [2.0, 3.0]}),
    (
        ["sweep", "--axis", "theta", "--values", "-1", "0", "1", "--out", "sweep.csv", "--tol=1e-9"],
        {"tol": 1e-09, "out": "sweep.csv", "axis": "theta", "values": [-1.0, 0.0, 1.0]},
    ),
    (
        ["verify", "--theta", "1e155", "--nmax", "100000000000000000000"],
        {"theta": [1e155], "nmax": 100000000000000000000},
    ),
]


@pytest.mark.parametrize("argv, changed", PARSED)
def test_the_parser_gives_what_argparse_gave(argv, changed):
    defaults = {"command": argv[0], **DEFAULTS, **({"format": "json"} if argv[0] == "verify" else {})}
    assert cli.parse_args(argv) == {**defaults, **changed}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["check"],
        ["verify", "--bogus", "1"],
        ["verify", "--nmax", "abc"],
        ["verify", "--seed", "1.5"],
        ["verify", "--format", "xml"],
        ["sweep", "--values", "1"],
        ["sweep", "--axis", "theta"],
        ["sweep", "--axis", "theta", "--values"],
        ["sweep", "--axis", "theta", "--values", "--nmax", "6"],
        ["verify", "fock"],
        ["verify", "--theta"],
        ["verify", "--axis", "theta"],
        ["sweep", "--axis", "t", "--values", "1", "--format", "csv"],
        # argparse took a unique prefix for its option: only exact names are options now
        ["verify", "--nm", "6"],
    ],
)
def test_a_malformed_command_line_exits_two(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"], ["sweep", "--suite", "fock", "-h"], None])
def test_help_names_both_commands_and_every_option(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fockbundle", "--help"])  # what main(None) reads
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "")
    assert "fockbundle verify" in out and "fockbundle sweep" in out
    named = set(re.findall(r"--[a-z]+", out))
    assert set(cli.OPTIONS["verify"]) | set(cli.OPTIONS["sweep"]) <= named


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "fock", "--nmax", "4"], ["sweep", "--suite", "fock", "--axis", "nmax", "--values", "4", "6"]],
)
def test_an_out_path_that_cannot_be_written_exits_two(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "report"
    code, out, err = run_main(argv + ["--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "all", "--nmax", "768"], ["sweep", "--suite", "all", "--axis", "nmax", "--values", "768", "1536"]],
)
def test_an_out_path_that_cannot_be_written_fails_before_any_check_runs(argv, monkeypatch, tmp_path, capsys):
    ran = []

    def refuse(cfg):
        ran.append(cfg)
        raise AssertionError("a runner was called")

    monkeypatch.setattr(cli, "run_parts", refuse)
    target = tmp_path / "missing" / "report"
    code, out, err = run_main(argv + ["--out", str(target)], capsys)
    assert (code, out, ran) == (2, "", [])
    assert err.startswith(f"config error: cannot write {target}: ")


def test_a_configuration_error_leaves_an_existing_out_file_untouched(tmp_path, capsys):
    target = tmp_path / "report.csv"
    target.write_text("an earlier report\n")
    for argv in (
        ["verify", "--suite", "fock", "--nmax", "2"],
        ["sweep", "--suite", "fock", "--axis", "x", "--values", "6"],
        ["sweep", "--suite", "fock", "--axis", "nmax", "--values", "6", "2"],
    ):
        code, out, err = run_main(argv + ["--out", str(target)], capsys)
        assert (code, out) == (2, "") and "cannot write" not in err
    assert target.read_text() == "an earlier report\n"


def test_sweep_theta(capsys):
    code, out, _ = run_main(
        ["sweep", "--suite", "charts", "--axis", "theta", "--values", "-1", "0", "1", "--nmax", "16"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theta,")
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["-1.0", "0.0", "1.0"]


def test_a_theta_sweep_strips_only_each_rows_own_tag(monkeypatch, capsys):
    # a theta-free record whose name holds "_theta" keeps its column whole;
    # a theta record loses its row's tag, so its rows share one column
    def runner(cfg):
        free = [cli.upper_bound_check("a_theta_free", 0.5, 1.0)]
        return free, [[cli.upper_bound_check(f"b_theta{theta}", 0.25, 1.0)] for theta in cfg.theta_list]

    monkeypatch.setitem(cli._RUNNERS, "fock", runner)
    code, out, _ = run_main(["sweep", "--suite", "fock", "--axis", "theta", "--values", "-1", "-0.0", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["theta,a_theta_free,b,pass", "-1.0,0.5,0.25,1", "-0.0,0.5,0.25,1", "2.0,0.5,0.25,1"]


def test_sweep_nmax(capsys):
    code, out, _ = run_main(
        ["sweep", "--suite", "fock", "--axis", "nmax", "--values", "8", "16"] + ["--theta", "1.0"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3


def test_sweep_bad_axis_exits_two(capsys):
    code, _, err = run_main(
        ["sweep", "--suite", "fock", "--axis", "bogus", "--values", "1"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "charts", "--theta", "nan"],
        ["--suite", "charts", "--theta=-inf"],
        ["--suite", "propagator", "--t", "nan"],
        ["--suite", "propagator", "--g", "inf"],
        ["--suite", "fock", "--tol", "inf"],
        ["--suite", "fock", "--tol", "nan"],
        ["--suite", "fock", "--theta", "-inf"],
        ["--suite", "fock", "--theta", "-nan"],
        ["--suite", "fock", "--theta", "-Infinity"],
        ["--suite", "fock", "--theta", "-INF"],
    ],
)
def test_non_finite_configuration_exits_two(argv, capsys):
    code, out, err = run_main(["verify", *argv, "--nmax", "6"], capsys)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_sweep_header_is_the_union_of_check_names(capsys):
    code, out, _ = run_main(
        ["sweep", "--suite", "all", "--axis", "theta", "--values", "-1", "0", "1", "--nmax", "4"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    header = rows[0]
    assert len(set(header)) == len(header)
    assert all(len(row) == len(header) for row in rows)
    col = header.index("z_classical_limit_decay")
    by_theta = {row[0]: row for row in rows[1:]}
    assert by_theta["-1.0"][col] == ""  # the classical limit is only taken for theta >= 0
    assert float(by_theta["1.0"][col]) > 0
    assert by_theta["0.0"][header.index("tensor_breakdown")] == ""


def test_sweep_rows_match_verify_alone_and_follow_the_seed(capsys):
    # the theta-free checks are cached per process: each sweep computes
    # them once, keyed by the seed, and every row repeats the same values.
    # Seeds 3 and 4 differ in all four theta-free checks (3 and 5 share
    # su2_rep_unitary = 1.1102230246251565e-15, a common roundoff value)
    caches = (cli.spinrep.group_sample_deviations, cli.classical.verify_sample)
    thetas = ["-1", "0", "1"]
    by_seed = {}
    for seed in ("3", "4"):
        for cache in caches:
            cache.cache_clear()
        argv = ["sweep", "--suite", "all", "--axis", "theta", "--values", *thetas, "--nmax", "4", "--seed", seed]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert [cache.cache_info().misses for cache in caches] == [1, 1]
        header, *rows = [line.split(",") for line in out.strip().splitlines()]
        for theta, row in zip(thetas, rows):
            for cache in caches:
                cache.cache_clear()
            argv = ["verify", "--suite", "all", f"--theta={theta}", "--nmax", "4", "--seed", seed, "--format", "csv"]
            code, alone, _ = run_main(argv, capsys)
            tag = f"_theta{float(theta)}"
            cells = {line.split(",")[0].removesuffix(tag): line.split(",")[1] for line in alone.splitlines()[1:]}
            assert dict(zip(header[1:-1], row[1:-1])) == {name: cells.get(name, "") for name in header[1:-1]}
            assert row[-1] == str(1 - code)
        by_seed[seed] = dict(zip(header, rows[0]))
    for name in ("su2_rep_unitary", "su2_rep_homomorphism", "su2_cg_blocks", "sphere_identities_sample"):
        assert by_seed["3"][name] != by_seed["4"][name], name
    # a t sweep runs row by row: each row is what verify at that t gives alone
    values = ["0.5", "2"]
    code, out, _ = run_main(["sweep", "--suite", "all", "--axis", "t", "--values", *values, "--nmax", "4"], capsys)
    assert code == 0
    header, *rows = [line.split(",") for line in out.strip().splitlines()]
    assert [row[0] for row in rows] == ["0.5", "2.0"] and rows[0][1:-1] != rows[1][1:-1]
    for t, row in zip(values, rows):
        code, alone, _ = run_main(["verify", "--suite", "all", "--t", t, "--nmax", "4", "--format", "csv"], capsys)
        cells = {line.split(",")[0]: line.split(",")[1] for line in alone.splitlines()[1:]}
        assert dict(zip(header[1:-1], row[1:-1])) == {name: cells.get(name, "") for name in header[1:-1]}
        assert row[-1] == str(1 - code)


def test_an_nmax_sweep_back_to_a_grid_reads_no_stale_node_values(capsys):
    # ANNIHILATION and CREATION live for the whole process and keep values
    # on the last grid they were read on, across rows and CLI calls
    argv = ["sweep", "--suite", "all", "--axis", "nmax", "--values", "6", "24", "6", "--theta", "0.37"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    header, *rows = [line.split(",") for line in out.strip().splitlines()]
    assert [row[0] for row in rows] == ["6.0", "24.0", "6.0"]
    assert rows[0] == rows[2] != rows[1]
    code, alone, _ = run_main(["verify", "--suite", "all", "--theta", "0.37", "--nmax", "6", "--format", "csv"], capsys)
    assert code == 0
    cells = {line.split(",")[0]: line.split(",")[1] for line in alone.splitlines()[1:]}
    assert dict(zip(header[1:-1], rows[2][1:-1])) == cells


def test_the_chart_projector_check_is_computed_once_per_sweep(capsys):
    cache = cli.classical.chart_projector_deviation
    cache.cache_clear()
    code, out, _ = run_main(["sweep", "--suite", "classical", "--axis", "theta", "--values", "-1", "0", "1"], capsys)
    assert code == 0
    # a theta sweep runs its values as one batch: every row reads the one record
    assert (cache.cache_info().misses, cache.cache_info().hits) == (1, 0)
    column = out.splitlines()[0].split(",").index("cp_chart_projectors")
    assert {line.split(",")[column] for line in out.strip().splitlines()[1:]} == {repr(cache())}


def test_theta_free_checks_are_equal_across_a_sweep_and_fresh_for_every_caller(capsys):
    code, out, _ = run_main(["sweep", "--suite", "all", "--axis", "theta", "--values", "-1", "0", "1", "--nmax", "6"], capsys)
    assert code == 0
    code, again, _ = run_main(["sweep", "--suite", "all", "--axis", "theta", "--values", "1", "--nmax", "6"], capsys)
    assert code == 0 and again.splitlines()[1] == out.splitlines()[3]
    header, *rows = [line.split(",") for line in out.strip().splitlines()]
    for name in ("ladder_commutator", "strings_transition"):
        assert len({row[header.index(name)] for row in rows}) == 1
    # the records and the string maps are rebuilt for every caller: changing one changes no other
    cli.jc.transition_singular_map(6)[1].append(5)
    assert cli.jc.transition_singular_map(6) == {1: [0]}
    cfg = cli.SuiteConfig(suite="fock", n_max=6)
    first = cli.run_suite(cfg).checks
    first[0].excluded[1] = [0]
    first[0].passed = False
    second = cli.run_suite(cfg).checks
    assert second[0].excluded == {} and second[0].passed
    assert [c.to_dict() for c in second[1:]] == [c.to_dict() for c in first[1:]]


def test_sweep_with_a_failed_row_exits_one(capsys):
    code, out, _ = run_main(
        ["sweep", "--suite", "fock", "--axis", "nmax", "--values", "8", "16", "--tol", "1e-30"], capsys
    )
    assert code == 1
    assert [line.split(",")[-1] for line in out.strip().splitlines()[1:]] == ["0", "0"]


def test_propagator_suite_scans_the_requested_grid(capsys):
    code, out, _ = run_main(["verify", "--suite", "propagator", "--theta", "0.5", "--nmax", "96", "--format", "json"], capsys)
    assert code == 0
    oracle = json.loads(out)["checks"][0]
    assert oracle["name"] == "propagator_oracle_theta0.5"
    # the largest deviation sits beyond n = 32, where the suite used to stop
    m, n = map(int, re.search(r"max at \(slot\d,(\d+) \| slot\d,(\d+)\)$", oracle["detail"]).groups())
    assert m > 32 and n > 32
    # where exactly follows the float rounding of the two sides
    assert oracle["detail"].endswith("max at (slot1,57 | slot1,57)")


# the string divisors at the ground state are 2 |theta|, so the band ends at
# |theta| = sigma_tol / 2, about 5e-13: 4e-13 is inside it, the others just outside
@pytest.mark.parametrize(
    "theta",
    ["--theta=1e-13", "--theta=-1e-13"]
    + [f"--theta={s}{v}" for v in ("4e-13", "6e-13", "7e-13", "9e-13", "1.2e-12") for s in ("", "-")],
)
def test_resonance_band_passes_every_suite(theta, capsys):
    code, out, _ = run_main(["verify", "--suite", "all", theta, "--nmax", "24", "--format", "text"], capsys)
    assert code == 0
    assert ("tensor_breakdown" in out) == (abs(float(theta.split("=")[1])) > 5e-13)


def test_negative_exponent_form_parses(capsys):
    code, out, _ = run_main(["verify", "--suite", "fock", "--theta", "-1e-13", "--nmax", "6"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["theta_list"] == [-1e-13]
    argv = ["sweep", "--suite", "fock", "--axis", "theta", "--values", "-1e-13", "1", "--nmax", "6"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["-1e-13", "1.0"]


def test_negative_seed_exits_two(capsys):
    code, out, err = run_main(["verify", "--suite", "spinrep", "--seed", "-1", "--nmax", "6"], capsys)
    assert code == 2
    assert out == ""
    assert "seed" in err


def test_non_integral_nmax_sweep_value_exits_two(capsys):
    code, out, err = run_main(["sweep", "--suite", "fock", "--axis", "nmax", "--values", "6.7"], capsys)
    assert code == 2
    assert out == ""
    assert "nmax" in err


def test_sweep_checks_every_row_before_running_any(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: ran.append(cfg))
    code, out, err = run_main(["sweep", "--suite", "all", "--axis", "nmax", "--values", "48", "2"], capsys)
    assert (code, out, ran) == (2, "", [])
    assert "n_max must be at least 4" in err


def test_negative_infinite_sweep_value_reaches_the_finiteness_check(capsys):
    code, out, err = run_main(["sweep", "--suite", "fock", "--axis", "theta", "--values", "-inf", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("theta", ["-1e-9", "-6e-8"])
def test_tensor_breakdown_holds_for_small_negative_theta(theta, capsys):
    # the mismatch is about 0.146 |theta| there, below a fixed 1e-8 floor
    code, out, _ = run_main(["verify", "--suite", "spinrep", "--theta", theta, "--nmax", "24", "--format", "json"], capsys)
    assert code == 0
    (check,) = [c for c in json.loads(out)["checks"] if c["name"].startswith("tensor_breakdown")]
    assert check["pass"]
    assert check["max_deviation"] > 0.1 * abs(float(theta))


def test_classical_limit_with_overflowing_theta_fails_with_a_report(capsys):
    # theta^2 overflows, so the classical target is 0: the relative error is infinite
    code, out, _ = run_main(["verify", "--suite", "classical", "--theta", "1e155", "--nmax", "6"], capsys)
    assert code == 1
    (check,) = [c for c in json.loads(out)["checks"] if c["name"].startswith("z_classical_limit_decay")]
    assert not check["pass"] and check["max_deviation"] == float("inf")



def test_charts_suite_builds_each_object_once_per_run(monkeypatch):
    calls, bundles = [], []
    for name in ("build_bundle", "transition_singular_map"):

        def counted(*args, _name=name, _fn=getattr(cli.jc, name), **kwargs):
            calls.append((_name,) + args + tuple(kwargs.values()))
            out = _fn(*args, **kwargs)
            if _name == "build_bundle":
                bundles.append(out)
            return out

        monkeypatch.setattr(cli.jc, name, counted)
    cfg = cli.SuiteConfig(suite="charts", theta_list=[1.0, -0.5], n_max=8)
    free, rows = cli.run_charts(cfg)
    assert free == [] and len(rows) == 2
    assert all(c.passed for row in rows for c in row)
    assert [c for c in calls if c[0] == "build_bundle"] == [("build_bundle", [1.0, -0.5])]
    # one R(N) and one R(N+1) node for every theta, shared by the charts, the projector and Z
    (bundle,) = bundles
    objects = [bundle.h, bundle.projector, bundle.projector_alt, bundle.projector_adjoint, bundle.z]
    for chart in bundle.charts.values():
        objects += [chart.unitary, chart.unitary_alt, chart.adjoint, chart.diagonal]
    found = r_nodes(*objects)
    assert [offset for offset, _ in found] == [0, 1]
    assert all(node is cli.jc.r_symbol(offset) for offset, node in found)
    assert [c[0] for c in calls].count("transition_singular_map") == 1


def test_spin_and_veronese_suites_build_one_family_per_run(monkeypatch):
    # one degree-4 family per process: both suites ask for it, and spinrep reads spins 1/2 to 3/2 from it
    family = cli.veronese.build_family(4)
    calls = []
    for module, name in ((cli.veronese, "build_family"), (cli.spinrep, "nc_spin_rep")):

        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls.append((_name,) + args)
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    for suite, spins in (("veronese", []), ("spinrep", [0.5, 1.0, 1.5])):
        calls.clear()
        cfg = cli.SuiteConfig(suite=suite, theta_list=[1.0, -0.5], n_max=8)
        assert all(c.passed for c in cli.run_suite(cfg).checks)
        assert [c for c in calls if c[0] == "build_family"] == [("build_family", 4)]
        assert [c[2] for c in calls if c[0] == "nc_spin_rep" and c[1] is family] == spins


def _suite_evaluations(argvs, collect, counts):
    """The (node, offset) evaluations of each CLI call, from the state of a
    fresh process, with the cyclic collector off or run only between the
    calls; ``counts`` is the list the counting evaluators add to."""
    cli.veronese.cache_clear()
    gc.collect()
    operators._grid.cache_clear()  # no node holds values on the grid of the calls yet
    gc.disable()
    try:
        for argv in argvs:
            if collect:
                gc.collect()
            counts.append(0)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        gc.enable()
    return counts[-len(argvs) :]


def test_the_veronese_suite_reads_the_values_spinrep_left_whenever_garbage_is_collected(monkeypatch):
    # the family and its lifts live for the process, and spinrep leaves no cycle that would keep
    # more alive until the collector runs: the work of the second call does not depend on it
    counts = []
    for op, fn in list(symbols._EVAL.items()):

        def counted(grid, node, k, fn=fn):
            counts[-1] += 1
            return fn(grid, node, k)

        monkeypatch.setitem(symbols._EVAL, op, counted)
    argvs = [
        ["verify", "--suite", suite, "--nmax", "48", "--theta", "1", "--theta=-1", "--theta", "0"]
        for suite in ("spinrep", "veronese")
    ]
    spinrep, veronese = _suite_evaluations(argvs, False, counts)
    assert _suite_evaluations(argvs, True, counts) == [spinrep, veronese]
    assert veronese <= 159


def test_no_run_evaluates_a_coefficient_below_the_vacuum(monkeypatch):
    # a read at an offset that puts states below the vacuum is the read at the vacuum's edge moved up
    counts, below = [], []
    for op, fn in list(symbols._EVAL.items()):

        def counted(grid, node, k, fn=fn):
            counts[-1] += 1
            if grid.lo + k < 0:
                below.append((node.op, k))
            return fn(grid, node, k)

        monkeypatch.setitem(symbols._EVAL, op, counted)
    argvs = [
        ["verify", "--suite", "all", "--nmax", "48", "--theta", "1", "--theta=-1", "--theta", "0"],
        ["sweep", "--suite", "all", "--axis", "theta", "--values", "-1.5", "0", "0.37", "2", "--nmax", "6"],
    ]
    assert min(_suite_evaluations(argvs, False, counts)) > 100
    assert below == []


# (exit code, argv) of every kind of run: each suite in each format, the three sweep axes, the
# resonance band, a failing detuning, a configuration error and help
ACYCLIC_RUNS = [
    (0, ["verify", "--suite", suite, "--nmax", "8", "--theta", "1", "--theta=-1", "--theta", "0", "--format", fmt])
    for suite in cli.SUITES
    for fmt in ("json", "text", "csv")
] + [
    (0, ["sweep", "--suite", "all", "--axis", "theta", "--values", "-1", "0", "0.37", "--nmax", "6"]),
    (0, ["sweep", "--suite", "all", "--axis", "t", "--values", "1", "2", "--nmax", "6"]),
    (0, ["sweep", "--suite", "all", "--axis", "nmax", "--values", "6", "8", "6", "--nmax", "6"]),
    (0, ["verify", "--suite", "all", "--theta", "1e-13", "--nmax", "8"]),
    (1, ["verify", "--suite", "all", "--theta=-300", "--nmax", "8"]),
    (2, ["verify", "--suite", "all", "--nmax", "abc"]),
    (0, ["--help"]),
]


@pytest.mark.parametrize("code, argv", ACYCLIC_RUNS, ids=[" ".join(argv) for _, argv in ACYCLIC_RUNS])
def test_a_run_leaves_no_reference_cycle(code, argv, capsys):
    # cli.main pauses the cyclic collector, which is safe only while a run makes no cycle: every
    # object of a run dies by reference count, the DAG's nodes (interned by weak references) too
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.main(argv) == code
        gc.collect()
        garbage = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert garbage == []


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, monkeypatch, capsys):
    seen = []

    def failing(cfg):
        seen.append(gc.isenabled())
        raise RuntimeError("runner failed")

    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["verify", "--suite", "fock", "--nmax", "6"]) == 0
        assert gc.isenabled() is enabled
        assert cli.main(["verify", "--nmax", "abc"]) == 2
        assert gc.isenabled() is enabled
        monkeypatch.setitem(cli._RUNNERS, "fock", failing)
        with pytest.raises(RuntimeError, match="runner failed"):
            cli.main(["verify", "--suite", "fock", "--nmax", "6"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert seen == [False]  # paused during the run


def test_only_the_cli_touches_the_collector():
    # the pause is one decision, taken around a whole run: no module below the CLI imports gc
    package = Path(cli.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names):
                found.add(f"{path.name}: import gc")
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.add(f"{path.name}: from gc import")
            if isinstance(node, ast.Name) and node.id == "gc":
                found.add(f"{path.name}: gc")
    assert not found


def test_the_spinrep_suite_scans_the_family_and_lifts_the_veronese_suite_built(monkeypatch, capsys):
    got = {}
    for module, name, key, at in (
        (cli.veronese, "sum_rule_check", "veronese family", 1),
        (cli.veronese, "lift_norm_check", "veronese lift", 1),
        (cli.spinrep, "nc_unitarity_check", "spinrep family", 1),
        (cli.spinrep, "first_column_check", "spinrep lift", 2),
        (cli.spinrep, "projector_relation_check", "spinrep lift", 2),
    ):

        def recorded(*args, _fn=getattr(module, name), _key=key, _at=at):
            got.setdefault(_key, []).append(args[_at])
            return _fn(*args)

        monkeypatch.setattr(module, name, recorded)
    assert cli.main(["verify", "--suite", "all", "--nmax", "8", "--theta", "1", "--theta", "0.5"]) == 0
    capsys.readouterr()
    family = got["veronese family"][0]
    assert len(got["veronese family"]) == 5 and len(got["spinrep family"]) == 3
    assert all(f is family for f in got["veronese family"] + got["spinrep family"])
    lifts = {lifted.n: lifted for lifted in got["veronese lift"]}
    assert sorted(lifts) == [2, 3] and all(lifted.family is family for lifted in lifts.values())
    assert [lifted.n for lifted in got["spinrep lift"]] == [2, 2, 3, 3]
    assert all(lifted is lifts[lifted.n] for lifted in got["spinrep lift"])


def _cached_veronese_nodes():
    """By id, every node the coefficients of the cached degree-4 family and its lifts reach."""
    assert cli.veronese.lift.cache_info().currsize == 3  # degrees 1, 2 and 3; asking again builds none
    family = cli.veronese.build_family(cli.FAMILY_DEGREE)
    ops = [*family.x, *family.y, *family.z]
    for n in (1, 2, 3):
        lifted = cli.veronese.lift(family, n)
        built = vars(lifted)  # the projector and normaliser, once a check has read them
        for m in (lifted.a_col, lifted.z_col, built.get("projector")):
            ops += [] if m is None else [op for row in m.entries for op in row]
        ops += [built["one_plus_ztz"]] if "one_plus_ztz" in built else []
    nodes, stack = {}, [c for op in ops for _, c in op.terms]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(a for a in node.args if isinstance(a, symbols.DiagonalSymbol))
    return nodes


def _held_after(argv, alive):
    """Weak references to the nodes that outlive ``cli.main(argv)`` and were not in ``alive``."""
    assert cli.main(argv) == 0
    gc.collect()
    held = [ref() for ref in symbols._NODES.values() if id(ref()) not in alive]
    assert held and set(map(id, held)) <= set(_cached_veronese_nodes())
    # each keeps its values on the run's grid alone: at most one (theta, n) array per part and offset
    grid = operators._grid(48, np.array([1.0, -1.0, 0.0]).tobytes())
    for node in held:
        if node.cache is not None:
            assert node.cache[0] is grid
            assert all(a is None or a.size <= 3 * 49 for v in node.cache[1].values() for a in v)
    return [weakref.ref(node) for node in held]


def test_a_run_leaves_held_only_the_cached_family_and_lifts_with_the_values_of_its_grid(capsys):
    cli.veronese.cache_clear()
    gc.collect()
    alive = {id(ref()) for ref in symbols._NODES.values()}
    argv = ["verify", "--suite", "all", "--nmax", "48", "--theta", "1", "--theta=-1", "--theta", "0"]
    held = _held_after(argv, alive)
    capsys.readouterr()
    cli.veronese.cache_clear()
    gc.collect()
    assert [ref for ref in held if ref() is not None] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "fock", "--nmax", "100000000000000000000"],
        ["sweep", "--suite", "fock", "--axis", "nmax", "--values", "4", "1e300"],
    ],
)
def test_nmax_beyond_the_index_grid_numpy_can_hold_exits_two(argv, capsys):
    # both sizes are past numpy's limit, so even without the bound nothing would be allocated
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert "n_max" in err


# one batch of every kind of row: a duplicate, both zeros, the resonance band and a failing theta
BATCH = ["1", "-1", "0", "-0.0", "0.37", "1e-13", "1", "-300"]


def test_theta_rows_are_independent(capsys):
    suites = [s for s in cli.SUITES if s != "all"]
    alone = {}
    for suite in suites:
        for theta in dict.fromkeys(BATCH):
            argv = ["verify", "--suite", suite, f"--theta={theta}", "--nmax", "6", "--format", "json"]
            code, out, _ = run_main(argv, capsys)
            checks = json.loads(out)["checks"]
            free = [c for c in checks if "_theta" not in c["name"]]
            alone[suite, theta] = [c for c in checks if c not in free], free
    # verify: per suite, its theta-free records once and then each theta's records, as each theta alone gives them
    expected = []
    for suite in suites:
        expected += alone[suite, BATCH[0]][1]
        for theta in BATCH:
            expected += alone[suite, theta][0]
    code, out, _ = run_main(["verify", "--suite", "all", *[f"--theta={t}" for t in BATCH], "--nmax", "6"], capsys)
    assert code == 1  # -300 fails
    assert json.loads(out)["checks"] == expected
    # sweep: every row is its theta's verify alone, cell for cell
    code, out, _ = run_main(["sweep", "--suite", "all", "--axis", "theta", "--values", *BATCH, "--nmax", "6"], capsys)
    assert code == 1
    header, *rows = [line.split(",") for line in out.strip().splitlines()]
    assert [row[0] for row in rows] == [repr(float(t)) for t in BATCH]
    for theta, row in zip(BATCH, rows):
        argv = ["verify", "--suite", "all", f"--theta={theta}", "--nmax", "6", "--format", "csv"]
        code, verify, _ = run_main(argv, capsys)
        cells = [line.split(",") for line in verify.splitlines()[1:]]
        cells = {name.removesuffix(f"_theta{float(theta)}"): dev for name, dev, *_ in cells}
        assert dict(zip(header[1:-1], row[1:-1])) == {name: cells.get(name, "") for name in header[1:-1]}
        assert row[-1] == str(1 - code)
    assert rows[0] == rows[6] and rows[-1][-1] == "0"


def test_no_call_imports_numpy_random():
    # the seeded samples come from the standard library's random; numpy.random
    # takes 10-15 ms and ~6 MiB to import and is never needed by a run.  Nor is
    # gettext, which an argparse parser imports with locale to translate its
    # texts.  Only modules beyond those of `import numpy` count: numpy 1.x
    # imports numpy.random with numpy itself, numpy 2.x on first use.
    script = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.startswith('numpy.random') or m in ('gettext', 'locale')}\n"
        "before = loaded()\n"
        "from fockbundle import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'all', '--nmax', '6']) == 0\n"
        "    assert cli.main(['sweep', '--suite', 'all', '--axis', 'theta', '--values', '-1', '0', '1', '--nmax', '6']) == 0\n"
        "print(sorted(loaded() - before))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_dataclasses():
    # the record classes are written out: generating and compiling the code of
    # @dataclass took 7-12 ms of every start; and the command line is parsed
    # from the CLI's own table, not by argparse.  Only modules beyond those of
    # `import numpy` count, as a numpy release may import either itself.
    script = (
        "import sys\n"
        "import numpy\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.split('.')[0] in ('dataclasses', 'argparse')}\n"
        "before = loaded()\n"
        "import fockbundle.cli\n"
        "print(sorted(loaded() - before))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    package = Path(cli.__file__).resolve().parent
    banned = ("dataclasses", "argparse")
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] not in banned for alias in node.names), path.name
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] not in banned, path.name


def test_the_report_config_is_a_copy_of_the_configuration():
    cfg = cli.SuiteConfig(suite="fock", theta_list=[1.0, -0.5], n_max=6)
    report = cli.assemble(cfg, cli.run_parts(cfg), range(2))
    expected = {"suite": "fock", "theta_list": [1.0, -0.5], "n_max": 6, "tol": 1e-10, "g": 1.0, "t": 1.0, "seed": 0}
    assert report.config == expected
    cfg.theta_list.append(2.0)
    cfg.theta_list[0] = 3.0
    cfg.n_max = 8
    assert report.config == expected
    # a configuration holds a list of its own, and a replaced one is validated as a new one
    thetas = [0.25]
    other = cfg.replace(theta_list=thetas)
    thetas.append(1.0)
    assert other.theta_list == [0.25] and other.n_max == 8 and cfg.theta_list == [3.0, -0.5, 2.0]
    with pytest.raises(cli.ConfigError):
        cfg.replace(n_max=2)
    assert cfg.n_max == 8


def test_calls_in_one_process_print_what_fresh_runs_print(capsys):
    # an argv that exits 2 leaves nothing behind that changes a later call
    argvs = [
        ["verify", "--suite", "fock", "--nmax", "8"],
        ["verify", "--suite", "fock", "--nmax", "abc"],
        ["verify", "--suite", "charts", "--nmax", "8", "--theta", "-1", "--theta", "0", "--format", "text"],
        ["verify", "--suite", "nonsense"],
        ["sweep", "--suite", "fock", "--axis", "nmax", "--values", "6", "8", "--nmax", "6"],
    ]
    in_process = []
    for argv in argvs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 2, 0, 2, 0]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys\nfrom fockbundle import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    for argv, seen in zip(argvs, in_process):
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == seen, argv
