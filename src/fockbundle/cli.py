"""Command-line verification harness.

``fockbundle verify`` runs one of the identity suites over a list of
detuning values and writes a deterministic report (json/text);
``fockbundle sweep`` runs a suite along one axis (theta, t, nmax) and
writes one CSV row per axis value.

Exit codes: 0 all checks pass, 1 some check failed (report still
written; for ``sweep``, some row failed), 2 invalid configuration,
including a NaN or infinite theta, t, g, tol or sweep value, a negative
seed and a non-integral nmax sweep value.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Tuple

from . import classical, jc, spinrep, veronese
from .operators import FockOperator, op_equal
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


def run_fock(cfg: SuiteConfig) -> List[CheckResult]:
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    num = FockOperator.number_op()
    ident = FockOperator.identity()
    nm, tol = cfg.n_max, cfg.tol
    return [
        op_equal(a * adag - adag * a, ident, nm, tol, name="ladder_commutator"),
        op_equal(adag * a, num, nm, tol, name="number_from_ladders"),
        op_equal(a.dagger(), adag, nm, tol, name="adjoint_of_annihilation"),
        op_equal((a * adag) * a, a * (adag * a), nm, tol, name="composition_associativity"),
        op_equal(num * a, a * (num - ident), nm, tol, name="number_shift_relation"),
    ]


def run_charts(cfg: SuiteConfig) -> List[CheckResult]:
    out: List[CheckResult] = []
    nm, tol = cfg.n_max, cfg.tol
    glue = jc.transition_operator("ground")
    transition = jc.transition_singular_map(nm)  # the same at every theta
    for theta in cfg.theta_list:
        h = jc.build_h_jc(theta)
        claimed = jc.claimed_strings(theta)
        out.append(jc.qdm_reconstruction_check(theta, nm, tol))
        charts = {}
        for label in ("I", "II"):
            chart = charts[label] = jc.build_chart(theta, label)
            rebuilt = chart.unitary @ chart.diagonal @ chart.unitary.dagger()
            out.append(matrix_equal(rebuilt, h, nm, tol, f"chart_{label}_rebuilds_h_theta{theta}"))
            out.append(jc.dirac_string_map(theta, label, chart, nm))
        gluing = charts["I"].unitary @ glue
        out.append(matrix_equal(gluing, charts["II"].unitary, nm, tol, f"gluing_relation_theta{theta}"))
        out.append(exact_set_check(f"strings_transition_theta{theta}", transition, claimed["transition"]))
        p = jc.projector_pjc(theta)
        computed = jc.projector_singular_map(theta, p, nm)
        out.append(check_idempotent_hermitian(p, nm, tol, f"projector_theta{theta}", skip=computed))
        out.append(exact_set_check(f"strings_projector_theta{theta}", computed, claimed["projector"]))
        out.append(jc.spectral_decomposition_check(theta, p, nm, tol))
        out.append(jc.z_identity_check(theta, nm, tol))
    return out


def run_propagator(cfg: SuiteConfig) -> List[CheckResult]:
    out: List[CheckResult] = []
    nm, tol, g, t = cfg.n_max, cfg.tol, cfg.g, cfg.t
    for theta in cfg.theta_list:
        out.append(jc.propagator_oracle_check(theta, g, t, nm, tol))
        out.append(jc.propagator_unitarity_check(theta, g, t, nm, tol))
        out.append(jc.propagator_semigroup_check(theta, g, t, t / 2.0, nm, tol))
    return out


def run_veronese(cfg: SuiteConfig) -> List[CheckResult]:
    out: List[CheckResult] = []
    nm, tol = cfg.n_max, cfg.tol
    for theta in cfg.theta_list:
        for j in range(5):
            out.append(veronese.sum_rule_check(theta, j, nm, tol))
        for j in range(1, 5):
            out.append(veronese.shift_rule_check(theta, j, nm, tol))
        out.append(veronese.commutation_check(theta, 0, 0, nm, tol))
        out.append(veronese.commutation_check(theta, 1, 0, nm, tol))
        for n in (2, 3):
            lifted = veronese.lift(veronese.build_family(theta, n))
            out.append(veronese.lift_norm_check(lifted, nm, tol))
            out.append(veronese.binomial_power_check(lifted, nm, tol))
            out.append(veronese.factored_form_check(lifted, nm, tol))
            out.append(veronese.oike_layout_check(lifted, nm, tol))
            out.append(veronese.eigencolumn_check(lifted, nm, tol))
    return out


def run_spinrep(cfg: SuiteConfig) -> List[CheckResult]:
    import numpy as np

    out: List[CheckResult] = []
    rng = np.random.default_rng(cfg.seed)
    worst_u, worst_h, worst_cg = 0.0, 0.0, 0.0
    for _ in range(50):
        g1 = spinrep.random_su2(rng)
        g2 = spinrep.random_su2(rng)
        prod = spinrep.SU2Element(
            alpha=g1.alpha * g2.alpha - np.conj(g1.beta) * g2.beta,
            beta=g1.beta * g2.alpha + np.conj(g1.alpha) * g2.beta,
        )
        for j in (0.5, 1.0, 1.5):
            m1, m2 = spinrep.spin_rep(g1, j), spinrep.spin_rep(g2, j)
            k = m1.shape[0]
            worst_u = max(worst_u, float(np.max(np.abs(m1.conj().T @ m1 - np.eye(k)))))
            worst_h = max(worst_h, float(np.max(np.abs(m1 @ m2 - spinrep.spin_rep(prod, j)))))
        worst_cg = max(
            worst_cg,
            float(np.max(np.abs(spinrep.cg_decompose_pair(g1) - spinrep.pair_block_target(g1)))),
            float(np.max(np.abs(spinrep.cg_decompose_triple(g1) - spinrep.triple_block_target(g1)))),
        )
    out.append(upper_bound_check("su2_rep_unitary", worst_u, 1e-12))
    out.append(upper_bound_check("su2_rep_homomorphism", worst_h, 1e-12))
    out.append(upper_bound_check("su2_cg_blocks", worst_cg, 1e-12))
    nm, tol = cfg.n_max, cfg.tol
    for theta in cfg.theta_list:
        for j in (0.5, 1.0, 1.5):
            out.append(spinrep.nc_unitarity_check(theta, j, nm, tol))
        for j in (1.0, 1.5):
            out.append(spinrep.first_column_check(theta, j, nm, tol))
            out.append(spinrep.projector_relation_check(theta, j, nm, tol))
        if not jc.resonant(theta):
            # at resonance the conjugated tensor square happens to agree
            # with the block form on the common domain, so there is no
            # breakdown to assert there; for small negative theta the
            # mismatch is about 0.146 |theta|, so the floor scales with it
            out.append(spinrep.tensor_breakdown_check(theta, nm, min(1e-8, 1e-2 * abs(theta))))
    return out


def run_classical(cfg: SuiteConfig) -> List[CheckResult]:
    import numpy as np

    out: List[CheckResult] = []
    worst = classical.verify_sample(200, cfg.seed)
    out.append(upper_bound_check("sphere_identities_sample", worst, 1e-12))
    spots = [0.3 + 0.4j, -1.2 + 0.7j, 2.0 - 0.5j]
    pairs = [(classical.cp1_chart_projector(z, 0), [1.0, z]) for z in spots]
    pairs += [(classical.cp1_chart_projector(z, 1), [z, 1.0]) for z in spots]
    pairs += [
        (classical.cp2_chart_projector(z1, z2), [1.0, z1, z2])
        for z1, z2 in [(0.3 + 0.4j, -0.2j), (1.0 - 1.0j, 0.5 + 0.25j)]
    ]
    dev = max(float(np.max(np.abs(form - classical.cp_projector(np.array(col))))) for form, col in pairs)
    out.append(upper_bound_check("cp_chart_projectors", dev, 1e-12))
    for theta in cfg.theta_list:
        if theta >= 0:
            out.append(jc.classical_limit_check(theta))
    return out


_RUNNERS = {
    "fock": run_fock,
    "charts": run_charts,
    "propagator": run_propagator,
    "veronese": run_veronese,
    "spinrep": run_spinrep,
    "classical": run_classical,
}


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    report = VerificationReport(suite=cfg.suite, config=asdict(cfg))
    names = list(_RUNNERS) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        report.extend(_RUNNERS[name](cfg))
    return report


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
    order; a row leaves the cell empty for a check it did not run.
    """
    if axis not in ("theta", "t", "nmax"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    if axis == "nmax" and not all(v == int(v) for v in values):
        raise ConfigError("nmax sweep values must be integers")
    rows: List[Tuple[float, VerificationReport]] = []
    columns: Dict[str, None] = {}
    for v in values:
        sub = replace(
            cfg,
            theta_list=[v] if axis == "theta" else cfg.theta_list,
            n_max=int(v) if axis == "nmax" else cfg.n_max,
            t=v if axis == "t" else cfg.t,
        )
        report = run_suite(sub)
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
