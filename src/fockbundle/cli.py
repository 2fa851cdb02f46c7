"""Command-line verification harness.

``fockbundle verify`` runs one of the identity suites over a list of
detuning values and writes a deterministic report (json/text);
``fockbundle sweep`` runs a suite along one axis (theta, t, nmax) and
writes one CSV row per axis value.

Exit codes: 0 all checks pass (or help was printed), 1 some check failed
(report still written; for ``sweep``, some row failed), 2 invalid
configuration: a malformed command line, a NaN or infinite theta, t, g, tol
or sweep value, a negative seed, a non-integral nmax sweep value, an nmax
whose index grid numpy cannot hold, or an ``--out`` that cannot be written.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import classical, jc, spinrep, veronese
from .operators import ANNIHILATION, CREATION, FockOperator, op_equal, row_names
from .opmatrix import check_idempotent_hermitian, matrix_equal
from .report import CheckResult, VerificationReport, exact_set_check, format_excluded, upper_bound_check

SUITES = ("fock", "charts", "propagator", "veronese", "spinrep", "classical", "all")


class ConfigError(Exception):
    pass


class SuiteConfig:
    suite: str
    theta_list: List[float]  # a copy of the argument
    n_max: int
    tol: float
    g: float
    t: float
    seed: int

    def __init__(self, suite, theta_list=(1.0,), n_max=48, tol=1e-10, g=1.0, t=1.0, seed=0):
        self.suite, self.theta_list, self.n_max = suite, list(theta_list), n_max
        self.tol, self.g, self.t, self.seed = tol, g, t, seed
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.n_max < 4:
            raise ConfigError("n_max must be at least 4")
        grid_states = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize  # numpy's byte limit on one array
        if self.n_max >= grid_states:
            raise ConfigError(f"n_max must be below {grid_states}, the most int64 indices numpy can hold")
        if not self.theta_list:
            raise ConfigError("at least one theta is required")
        for label, value in [("theta", v) for v in self.theta_list] + [("t", self.t), ("g", self.g), ("tol", self.tol)]:
            if not math.isfinite(value):
                raise ConfigError(f"{label} must be finite, got {value!r}")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def replace(self, **changes) -> SuiteConfig:
        return SuiteConfig(**{**vars(self), **changes})


# -- suites ----------------------------------------------------------------

# A runner returns its theta-free checks and one list of checks per theta of
# the configuration, in order: every theta-dependent object is built once
# and scanned on one grid with a row per theta.
Parts = Tuple[List[CheckResult], List[List[CheckResult]]]


def _by_theta(checks: List[List[CheckResult]]) -> List[List[CheckResult]]:
    """Per-check lists of per-theta records as per-theta lists of records, in check order."""
    return [list(row) for row in zip(*checks)]


def run_fock(cfg: SuiteConfig) -> Parts:
    a, adag = ANNIHILATION, CREATION
    num = FockOperator.number_op()
    ident = FockOperator.identity()
    sides = {
        "ladder_commutator": (a * adag - adag * a, ident),
        "number_from_ladders": (adag * a, num),
        "adjoint_of_annihilation": (a.dagger(), adag),
        "composition_associativity": ((a * adag) * a, a * (adag * a)),
        "number_shift_relation": (num * a, a * (num - ident)),
    }
    free = [op_equal(lhs, rhs, cfg.n_max, cfg.tol, name)[0] for name, (lhs, rhs) in sides.items()]
    return free, [[] for _ in cfg.theta_list]


def run_charts(cfg: SuiteConfig) -> Parts:
    nm, tol, thetas = cfg.n_max, cfg.tol, cfg.theta_list
    glue = jc.transition_operator()
    transition = jc.transition_singular_map(nm)  # the same at every theta
    bundle = jc.build_bundle(thetas)
    checks = [jc.qdm_reconstruction_check(bundle, nm, tol)]
    for label, chart in bundle.charts.items():
        rebuilt = chart.unitary @ chart.diagonal @ chart.adjoint
        checks.append(matrix_equal(rebuilt, bundle.h, nm, tol, f"chart_{label}_rebuilds_h", thetas=thetas))
        checks.append(jc.dirac_string_map(bundle, label, nm))
    gluing = bundle.charts["I"].unitary @ glue
    checks.append(matrix_equal(gluing, bundle.charts["II"].unitary, nm, tol, "gluing_relation", thetas=thetas))
    claimed = [jc.claimed_strings(theta) for theta in thetas]
    names = row_names("strings_transition", thetas)
    checks.append([exact_set_check(name, transition, c["transition"]) for name, c in zip(names, claimed)])
    computed = jc.projector_singular_map(bundle, nm)
    p, p_adjoint = bundle.projector, bundle.projector_adjoint
    checks.append(check_idempotent_hermitian(p, nm, tol, "projector", skip=computed, adjoint=p_adjoint, thetas=thetas))
    names = row_names("strings_projector", thetas)
    checks.append([exact_set_check(n, found, c["projector"]) for n, found, c in zip(names, computed, claimed)])
    checks.append(jc.spectral_decomposition_check(bundle, nm, tol))
    checks.append(jc.z_identity_check(bundle, nm, tol))
    return [], _by_theta(checks)


def run_propagator(cfg: SuiteConfig) -> Parts:
    nm, tol, g, t, thetas = cfg.n_max, cfg.tol, cfg.g, cfg.t, cfg.theta_list
    u = jc.propagator_closed_form(g, t)  # alive while the checks run: each of them builds U(t) on its nodes
    checks = [
        jc.propagator_oracle_check(thetas, g, t, nm, tol),
        jc.propagator_unitarity_check(thetas, g, t, nm, tol),
        jc.propagator_semigroup_check(thetas, g, t, t / 2.0, nm, tol),
    ]
    del u
    return [], _by_theta(checks)


FAMILY_DEGREE = 4  # of the one family both suites read: veronese checks levels 0-4, spinrep (j <= 3/2) 0-3


def run_veronese(cfg: SuiteConfig) -> Parts:
    nm, tol, thetas = cfg.n_max, cfg.tol, cfg.theta_list
    family = veronese.build_family(FAMILY_DEGREE)
    checks = [veronese.sum_rule_check(thetas, family, j, nm, tol) for j in range(5)]
    checks += [veronese.shift_rule_check(thetas, family, j, nm, tol) for j in range(1, 5)]
    checks.append(veronese.commutation_check(thetas, family, 0, 0, nm, tol))
    checks.append(veronese.commutation_check(thetas, family, 1, 0, nm, tol))
    for n in (2, 3):
        lifted = veronese.lift(family, n)
        checks.append(veronese.lift_norm_check(thetas, lifted, nm, tol))
        checks.append(veronese.binomial_power_check(thetas, lifted, nm, tol))
        checks.append(veronese.factored_form_check(thetas, lifted, nm, tol))
        checks.append(veronese.oike_layout_check(thetas, lifted, nm, tol))
        checks.append(veronese.eigencolumn_check(thetas, lifted, nm, tol))
    return [], _by_theta(checks)


def run_spinrep(cfg: SuiteConfig) -> Parts:
    worst_u, worst_h, worst_cg = spinrep.group_sample_deviations(cfg.seed)
    free = [
        upper_bound_check("su2_rep_unitary", worst_u, 1e-12),
        upper_bound_check("su2_rep_homomorphism", worst_h, 1e-12),
        upper_bound_check("su2_cg_blocks", worst_cg, 1e-12),
    ]
    nm, tol, thetas = cfg.n_max, cfg.tol, cfg.theta_list
    family = veronese.build_family(FAMILY_DEGREE)  # the veronese suite's, with its cached values
    reps = {j: spinrep.nc_spin_rep(family, j) for j in (0.5, 1.0, 1.5)}
    checks = [spinrep.nc_unitarity_check(thetas, family, m, nm, tol) for m in reps.values()]
    for j in (1.0, 1.5):
        lifted = veronese.lift(family, int(2 * j))
        checks.append(spinrep.first_column_check(thetas, reps[j], lifted, nm, tol))
        checks.append(spinrep.projector_relation_check(thetas, reps[j], lifted, nm, tol))
    # for small negative theta the mismatch is about 0.146 |theta|, so the floor scales with it
    floors = [min(1e-8, 1e-2 * abs(theta)) for theta in thetas]
    breakdown = spinrep.tensor_breakdown_check(thetas, reps[0.5], reps[1.0], nm, floors)
    rows = _by_theta(checks)
    for row, theta, record in zip(rows, thetas, breakdown):
        # at resonance the conjugated tensor square happens to agree with
        # the block form on the common domain: there is no breakdown to assert
        if not jc.resonant(theta):
            row.append(record)
    return free, rows


def run_classical(cfg: SuiteConfig) -> Parts:
    free = [
        upper_bound_check("sphere_identities_sample", classical.verify_sample(200, cfg.seed), 1e-12),
        upper_bound_check("cp_chart_projectors", classical.chart_projector_deviation(), 1e-12),
    ]
    limits = iter(jc.classical_limit_check([theta for theta in cfg.theta_list if theta >= 0]))
    return free, [[next(limits)] if theta >= 0 else [] for theta in cfg.theta_list]


_RUNNERS = {
    "fock": run_fock,
    "charts": run_charts,
    "propagator": run_propagator,
    "veronese": run_veronese,
    "spinrep": run_spinrep,
    "classical": run_classical,
}


def run_parts(cfg: SuiteConfig) -> List[Parts]:
    """The parts of every runner of the configured suite, in suite order."""
    return [_RUNNERS[name](cfg) for name in (list(_RUNNERS) if cfg.suite == "all" else [cfg.suite])]


def assemble(cfg: SuiteConfig, parts: List[Parts], rows: Sequence[int]) -> VerificationReport:
    """The report of ``cfg`` from runner parts: per runner, its theta-free checks
    and then the checks of each theta row in ``rows``; its config is a copy."""
    report = VerificationReport(suite=cfg.suite, config={**vars(cfg), "theta_list": list(cfg.theta_list)})
    for free, per_theta in parts:
        report.checks.extend(free)
        for row in rows:
            report.checks.extend(per_theta[row])
    return report


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    return assemble(cfg, run_parts(cfg), range(len(cfg.theta_list)))


# -- output ----------------------------------------------------------------


def render(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow(["name", "max_deviation", "tol", "pass", "excluded"])
    for c in report.checks:
        writer.writerow([c.name, repr(c.max_deviation), repr(c.tol), int(c.passed), format_excluded(c.excluded)])
    return buf.getvalue()


def emit(text: str, out: str | None, mode: str) -> None:
    """Write ``text`` to stdout, or to the file ``out`` opened with ``mode``."""
    if out:
        try:
            with open(out, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write {out}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)


def sweep_configs(cfg: SuiteConfig, axis: str, values: List[float]) -> List[SuiteConfig]:
    """The configuration of each row of a sweep, every one checked before the first row runs."""
    if axis not in ("theta", "t", "nmax"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    if axis == "nmax" and not all(v == int(v) for v in values):
        raise ConfigError("nmax sweep values must be integers")
    return [
        cfg.replace(
            theta_list=[v] if axis == "theta" else cfg.theta_list,
            n_max=int(v) if axis == "nmax" else cfg.n_max,
            t=v if axis == "t" else cfg.t,
        )
        for v in values
    ]


def sweep(axis: str, values: List[float], subs: List[SuiteConfig]) -> Tuple[str, bool]:
    """One CSV row of maximum deviations per axis value, run on its row of ``subs``, and whether every row passed.

    The header holds every check name met along the sweep, in first-seen
    order; a row leaves the cell empty for a check it did not run.  A theta
    sweep runs every value in one batch and takes each row's report from it;
    the t and nmax sweeps run row by row.
    """
    rows: List[Tuple[float, Dict[str, str], bool]] = []
    columns: Dict[str, None] = {}
    parts = run_parts(subs[0].replace(theta_list=values)) if axis == "theta" else None
    for i, (v, sub) in enumerate(zip(values, subs)):
        report = run_suite(sub) if parts is None else assemble(sub, parts, [i])
        devs = {_axis_free_name(c.name, axis): repr(c.max_deviation) for c in report.checks}
        columns.update(dict.fromkeys(devs))
        rows.append((v, devs, report.passed))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow([axis] + list(columns) + ["pass"])
    for v, devs, passed in rows:
        writer.writerow([repr(v)] + [devs.get(name, "") for name in columns] + [int(passed)])
    return buf.getvalue(), all(passed for _, _, passed in rows)


def _axis_free_name(name: str, axis: str) -> str:
    # per-theta tags vary along a theta sweep; strip them so columns line up
    if axis == "theta" and "_theta" in name:
        return name[: name.rindex("_theta")]
    return name


# -- entry point -----------------------------------------------------------


# the options of each command: converter and default.  The token after an
# option is always its value, so "--theta -1e-13" and "--values -inf 1" need no "="
_COMMON = {
    "--suite": (str, "all"),
    "--theta": (float, None),  # repeatable; none given means [1.0]
    "--nmax": (int, 48),
    "--tol": (float, 1e-10),
    "--g": (float, 1.0),
    "--t": (float, 1.0),
    "--seed": (int, 0),
    "--out": (str, None),
}
OPTIONS = {
    "verify": {**_COMMON, "--format": (str, "json")},
    "sweep": {**_COMMON, "--axis": (str, None), "--values": (float, None)},
}

USAGE = f"""\
usage: fockbundle verify [options] [--format json|csv|text]
       fockbundle sweep [options] --axis theta|t|nmax --values V [V ...]
options: --suite SUITE, --theta X (repeatable), --nmax N, --tol X, --g X,
  --t X, --seed N, --out PATH, each as --name value or --name=value
suites: {", ".join(SUITES)}
"""


def parse_args(argv: Sequence[str]) -> Dict[str, object] | None:
    """The command and option values of ``argv`` by name without dashes, or ``None`` for help."""
    if "-h" in argv or "--help" in argv:
        return None
    command = argv[0] if argv else None
    if command not in OPTIONS:
        raise ConfigError(f"expected a command, verify or sweep, got {command!r}")
    table = OPTIONS[command]
    args = {"command": command, **{name[2:]: default for name, (_, default) in table.items()}}
    tokens = [part for token in argv[1:] for part in (token.split("=", 1) if token.startswith("--") else [token])]
    i = 0
    while i < len(tokens):
        name = tokens[i]
        if name not in table:
            raise ConfigError(f"unknown {command} option {name}" if name[:1] == "-" else f"stray argument {name!r}")
        end = i + 2
        if name == "--values":
            end = next((j for j in range(i + 1, len(tokens)) if tokens[j].startswith("--")), len(tokens))
        raw, i = tokens[i + 1 : end], end
        if not raw:
            raise ConfigError(f"{name} needs a value")
        try:
            vals = [table[name][0](v) for v in raw]
        except ValueError:
            raise ConfigError(f"invalid {name} value {' '.join(raw)!r}") from None
        args[name[2:]] = vals if name == "--values" else (args["theta"] or []) + vals if name == "--theta" else vals[0]
    if command == "verify" and args["format"] not in ("json", "csv", "text"):
        raise ConfigError(f"--format must be json, csv or text, got {args['format']!r}")
    if command == "sweep" and (args["axis"] is None or args["values"] is None):
        raise ConfigError("sweep needs --axis and --values")
    return args


def main(argv: List[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(USAGE)
            return 0
        cfg = SuiteConfig(
            suite=args["suite"],
            theta_list=args["theta"] or [1.0],
            n_max=args["nmax"],
            tol=args["tol"],
            g=args["g"],
            t=args["t"],
            seed=args["seed"],
        )
        subs = sweep_configs(cfg, args["axis"], args["values"]) if args["command"] == "sweep" else None
        emit("", args["out"], "a")  # an --out that cannot be written fails here, before any check runs
        if subs is None:
            report = run_suite(cfg)
            text, passed = render(report, args["format"]), report.passed
        else:
            text, passed = sweep(args["axis"], args["values"], subs)
        emit(text, args["out"], "w")
        return 0 if passed else 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
