"""Command-line interface tests: exit codes, output formats, determinism,
sweep tables, and configuration validation."""

import json
import os

import pytest

from fockbundle import cli

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
    assert oracle["detail"].endswith("max at (slot1,57 | slot1,57)")


@pytest.mark.parametrize("theta", ["--theta=1e-13", "--theta=-1e-13"])
def test_resonance_band_passes_every_suite(theta, capsys):
    code, _, _ = run_main(["verify", "--suite", "all", theta, "--nmax", "24", "--format", "text"], capsys)
    assert code == 0


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



def test_charts_suite_builds_each_object_once_per_theta(monkeypatch):
    calls = []
    for name in ("build_chart", "projector_pjc", "transition_singular_map"):

        def counted(*args, _name=name, _fn=getattr(cli.jc, name), **kwargs):
            calls.append((_name,) + args + tuple(kwargs.values()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli.jc, name, counted)
    cfg = cli.SuiteConfig(suite="charts", theta_list=[1.0, -0.5], n_max=8)
    assert all(c.passed for c in cli.run_charts(cfg))
    for theta in (1.0, -0.5):
        assert [c for c in calls if c[:2] == ("build_chart", theta)] == [
            ("build_chart", theta, "I"),
            ("build_chart", theta, "II"),
        ]
        assert calls.count(("projector_pjc", theta)) + calls.count(("projector_pjc", theta, "left")) == 1
    assert [c[0] for c in calls].count("transition_singular_map") == 1
