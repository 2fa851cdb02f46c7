"""Command-line verification harness.

``fockbundle verify`` runs one of the identity suites over a list of
detuning values and writes a deterministic report (json/text);
``fockbundle sweep`` runs a suite along one axis (theta, t, nmax) and
writes one CSV row per axis value.

Exit codes: 0 all checks pass, 1 some check failed (report still
written; for ``sweep``, some row failed), 2 invalid configuration,
including a NaN or infinite theta, t, g, tol or sweep value, a negative
seed, a non-integral nmax sweep value and an nmax whose index grid numpy
cannot hold.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import re
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import classical, jc, spinrep, veronese
from .operators import ANNIHILATION, CREATION, FockOperator, op_deviation, row_names
from .opmatrix import check_idempotent_hermitian, matrix_equal
from .report import CheckResult, VerificationReport, exact_set_check, format_excluded, upper_bound_check

SUITES = ("fock", "charts", "propagator", "veronese", "spinrep", "classical", "all")


class ConfigError(Exception):
    pass


@dataclass
class SuiteConfig:
    suite: str
    theta_list: List[float] = field(default_factory=lambda: [1.0])
    n_max: int = 48
    tol: float = 1e-10
    g: float = 1.0
    t: float = 1.0
    seed: int = 0

    def __post_init__(self):
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


# -- suites ----------------------------------------------------------------

# A runner returns its theta-free checks and one list of checks per theta of
# the configuration, in order: every theta-dependent object is built once
# and scanned on one grid with a row per theta.
Parts = Tuple[List[CheckResult], List[List[CheckResult]]]


def _by_theta(checks: List[List[CheckResult]]) -> List[List[CheckResult]]:
    """Per-check lists of per-theta records as per-theta lists of records, in check order."""
    return [list(row) for row in zip(*checks)]


def run_fock(cfg: SuiteConfig) -> Parts:
    free = [
        upper_bound_check(name, dev, cfg.tol, dict(excluded), cfg.n_max + 1, detail)
        for name, dev, excluded, detail in _fock_deviations(cfg.n_max)
    ]
    return free, [[] for _ in cfg.theta_list]


@functools.lru_cache(maxsize=None)
def _fock_deviations(n_max: int) -> Tuple[Tuple[str, float, tuple, str], ...]:
    """Name, deviation, ((slot, states), ...) and detail of each fock check.

    Neither theta nor tol enters them, so a sweep scans once per grid;
    ``run_fock`` builds fresh records from them for every report.
    """
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
    out = []
    for name, (lhs, rhs) in sides.items():
        dev, excluded, detail = op_deviation(lhs, rhs, n_max)
        out.append((name, dev, tuple((slot, frozenset(states)) for slot, states in excluded.items()), detail))
    return tuple(out)


def run_charts(cfg: SuiteConfig) -> Parts:
    nm, tol, thetas = cfg.n_max, cfg.tol, cfg.theta_list
    glue = jc.transition_operator()
    transition = jc.transition_singular_map(nm)  # cached: the same at every theta
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
    """The report of ``cfg`` from runner parts: per runner, its theta-free
    checks and then the checks of each theta row in ``rows``."""
    report = VerificationReport(suite=cfg.suite, config=asdict(cfg))
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


def emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def sweep(cfg: SuiteConfig, axis: str, values: List[float]) -> Tuple[str, bool]:
    """One CSV row of maximum deviations per axis value, and whether every row passed.

    The header holds every check name met along the sweep, in first-seen
    order; a row leaves the cell empty for a check it did not run.  A theta
    sweep runs every value in one batch and takes each row's report from it;
    the t and nmax sweeps run row by row.
    """
    if axis not in ("theta", "t", "nmax"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    if axis == "nmax" and not all(v == int(v) for v in values):
        raise ConfigError("nmax sweep values must be integers")
    # every row's configuration is checked before the first row runs
    subs = [
        replace(
            cfg,
            theta_list=[v] if axis == "theta" else cfg.theta_list,
            n_max=int(v) if axis == "nmax" else cfg.n_max,
            t=v if axis == "t" else cfg.t,
        )
        for v in values
    ]
    rows: List[Tuple[float, VerificationReport]] = []
    columns: Dict[str, None] = {}
    parts = run_parts(replace(cfg, theta_list=list(values))) if axis == "theta" else None
    for i, (v, sub) in enumerate(zip(values, subs)):
        report = run_suite(sub) if parts is None else assemble(sub, parts, [i])
        columns.update((_axis_free_name(c.name, axis), None) for c in report.checks)
        rows.append((v, report))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=",", lineterminator="\n")
    writer.writerow([axis] + list(columns) + ["pass"])
    for v, report in rows:
        devs = {_axis_free_name(c.name, axis): repr(c.max_deviation) for c in report.checks}
        writer.writerow([repr(v)] + [devs.get(name, "") for name in columns] + [int(report.passed)])
    return buf.getvalue(), all(report.passed for _, report in rows)


def _axis_free_name(name: str, axis: str) -> str:
    # per-theta tags vary along a theta sweep; strip them so columns line up
    if axis == "theta" and "_theta" in name:
        return name[: name.rindex("_theta")]
    return name


# -- entry point -----------------------------------------------------------


# argparse reads "-1e-13" or "-inf" as an option string because its
# pattern for negative numbers has no exponent form and no infinity or NaN;
# this one has them, so such values reach the finiteness check
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


@functools.lru_cache(maxsize=None)  # one per process: parsing leaves it unchanged, even when it exits 2
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fockbundle")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)}")
        p.add_argument("--theta", action="append", type=float, default=None)
        p.add_argument("--nmax", type=int, default=48)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--g", type=float, default=1.0)
        p.add_argument("--t", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run a suite and write a report")
    common(pv)
    pv.add_argument("--format", choices=("json", "csv", "text"), default="json")

    ps = sub.add_parser("sweep", help="run a suite along one axis, emit CSV")
    common(ps)
    ps.add_argument("--axis", required=True, help="theta, t or nmax")
    ps.add_argument("--values", type=float, nargs="+", required=True)
    for p in (parser, pv, ps):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SuiteConfig(
            suite=args.suite,
            theta_list=args.theta if args.theta is not None else [1.0],
            n_max=args.nmax,
            tol=args.tol,
            g=args.g,
            t=args.t,
            seed=args.seed,
        )
        if args.command == "verify":
            report = run_suite(cfg)
            emit(render(report, args.format), args.out)
            return 0 if report.passed else 1
        text, passed = sweep(cfg, args.axis, list(args.values))
        emit(text, args.out)
        return 0 if passed else 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
