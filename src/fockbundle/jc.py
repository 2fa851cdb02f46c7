"""The detuned Jaynes-Cummings Hamiltonian as an operator-valued 2x2 matrix.

Provides its exact factorization into shift times classical times shift,
the two chart unitaries with their Dirac-string domains, the transition
operator gluing them, the rank-1 projector, the closed-form propagator
with an independent block oracle, and the local complex coordinate with
its classical limit.  The detuning enters every coefficient as the node
``symbols.THETA`` and every guard as ``ROW_TOL``, so one build serves all
theta: ``build_bundle`` builds the charts, the projector and the
coordinate once, and its checks scan every theta of the run as one grid,
one record per theta.  Each builder writes R(N + c) and the nodes on it
through functions of the offset c, and interning makes each one node.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from .opmatrix import OpMatrix, Product, check_unitary, matrix_equal, strings
from .operators import ANNIHILATION, CREATION, FockOperator, op_equal, row_names, scan_rows
from .report import CheckResult, Frozen, exact_set_check, excluded_rows, monotone_check, upper_bound_check
from .symbols import (
    ROW_TOL,
    THETA,
    DiagonalSymbol,
    const,
    grid_leaf,
    guarded_div,
    guarded_sqrt,
    number,
    sigma_tol,
    sinc,
)

MINUS_THETA = const(-1.0) * THETA  # -theta as an operator difference writes it


def resonant(theta: float) -> bool:
    """Whether theta lies in the resonance band 2 |theta| < sigma_tol(theta).

    At the ground state R(0) = |theta|, so one of R(0) +- theta is 0 and
    the other 2 |theta|.  The divisors that make the strings are then
    2 |theta|: sqrt(2 R(0) (R(0) +- theta)) in the chart prefactors and
    2 R(0) in the projector.  Inside the band they are below the guards'
    threshold, so the charts and the projector are singular exactly where
    they are at theta = 0: the claimed strings there are the resonant
    ones.
    """
    return 2.0 * abs(theta) < sigma_tol(theta)


def r_symbol(offset: int = 0) -> DiagonalSymbol:
    """sqrt(N + offset + theta^2) as a diagonal symbol."""
    return guarded_sqrt(number(offset) + THETA * THETA, ROW_TOL)


def r_theta(offset: int, sign: int) -> DiagonalSymbol:
    """R(N + offset) + sign*theta."""
    return r_symbol(offset) + (THETA if sign > 0 else MINUS_THETA)


def r_root(offset: int, sign: int) -> DiagonalSymbol:
    """sqrt(2 R (R + sign*theta)) at R = R(N + offset)."""
    return guarded_sqrt(const(2.0) * r_symbol(offset) * r_theta(offset, sign), ROW_TOL)


def r_operator(offset: int) -> FockOperator:
    return FockOperator.diagonal(r_symbol(offset))


def chart_prefactor(offset: int, sign: int) -> DiagonalSymbol:
    """1 / sqrt(2 R (R + sign*theta)) at R = R(N + offset)."""
    return guarded_div(1.0, r_root(offset, sign), ROW_TOL)


def build_h_jc() -> OpMatrix:
    return OpMatrix.build(
        [[FockOperator.diagonal(THETA), ANNIHILATION], [CREATION, FockOperator.diagonal(MINUS_THETA)]]
    )


def qdm_factorization() -> Tuple[OpMatrix, OpMatrix, OpMatrix]:
    """The shift / classical / shift triple whose ordered product is H_JC."""
    root = guarded_sqrt(number(1))
    inv_sqrt_np1 = FockOperator.diagonal(guarded_div(1.0, root))
    sqrt_np1 = FockOperator.diagonal(root)
    left = OpMatrix.diag(FockOperator.identity(), CREATION * inv_sqrt_np1)
    middle = OpMatrix.build([[FockOperator.diagonal(THETA), sqrt_np1], [sqrt_np1, FockOperator.diagonal(MINUS_THETA)]])
    right = OpMatrix.diag(FockOperator.identity(), inv_sqrt_np1 * ANNIHILATION)
    return left, middle, right


def qdm_reconstruction_check(bundle: Bundle, n_max: int, tol: float) -> List[CheckResult]:
    """(left @ middle) @ right against H, away from the uncoupled state.

    The right factor (1/sqrt(N+1)) a annihilates (slot2, |0>), while H
    acts on it as -theta; equivalently its alternate writing a (1/sqrt(N))
    is singular there.  That state is the factorization's string and is
    excluded and reported.
    """
    left, middle, right = qdm_factorization()
    product = Product(left @ middle, right)
    skip = np.array([[False], [True]]) & (np.arange(n_max + 1) == 0)  # (slot 2, |0>), for every theta row
    return matrix_equal(product, bundle.h, n_max, tol, "qdm_factorization", skip=skip, thetas=bundle.thetas)


def chart_core(label: str) -> OpMatrix:
    if label == "I":
        return OpMatrix.build(
            [
                [FockOperator.diagonal(r_theta(1, +1)), -ANNIHILATION],
                [CREATION, FockOperator.diagonal(r_theta(0, +1))],
            ]
        )
    return OpMatrix.build(
        [
            [ANNIHILATION, FockOperator.diagonal(THETA) - r_operator(1)],
            [FockOperator.diagonal(r_theta(0, -1)), CREATION],
        ]
    )


def chart_unitary(label: str) -> Tuple[OpMatrix, OpMatrix]:
    """V_I or V_II, one core with its scalar prefactors on the left and on the right."""
    sign = +1 if label == "I" else -1
    p_upper = FockOperator.diagonal(chart_prefactor(1, sign))
    p_lower = FockOperator.diagonal(chart_prefactor(0, sign))
    core = chart_core(label)
    left = OpMatrix.diag(p_upper, p_lower)
    right = left if label == "I" else OpMatrix.diag(p_lower, p_upper)
    return left @ core, core @ right


def chart_diagonal(label: str) -> OpMatrix:
    upper, lower = (1, 0) if label == "I" else (0, 1)
    return OpMatrix.diag(r_operator(upper), -r_operator(lower))


class BundleChart(Frozen):
    unitary: OpMatrix  # prefactors on the left
    unitary_alt: OpMatrix  # prefactors on the right
    adjoint: OpMatrix  # unitary.dagger()
    diagonal: OpMatrix

    def __init__(self, unitary: OpMatrix, unitary_alt: OpMatrix, adjoint: OpMatrix, diagonal: OpMatrix):
        self.__dict__.update(unitary=unitary, unitary_alt=unitary_alt, adjoint=adjoint, diagonal=diagonal)


def build_chart(label: str) -> BundleChart:
    unitary, unitary_alt = chart_unitary(label)
    return BundleChart(unitary, unitary_alt, unitary.dagger(), chart_diagonal(label))


def claimed_strings(theta: float) -> Dict[str, Dict[int, Set[int]]]:
    """The paper's Dirac strings, all on ground states, of chart I, chart II,
    the transition operator and the projector.  The resonance band counts
    as both signs of theta."""
    band = resonant(theta)
    return {
        "chart_I": {2: {0}} if theta < 0 or band else {},
        "chart_II": {1: {0}, 2: {0}} if theta > 0 or band else {},
        "transition": {1: {0}},
        "projector": {2: {0}} if band else {},
    }


def dirac_string_map(bundle: Bundle, label: str, n_max: int) -> List[CheckResult]:
    """The strings of the bundle's chart ``label`` -- of both orderings of V
    and of V†, as the chart map uses V with V† -- against the claimed ones,
    as the exact-set check ``strings_chart_{label}_theta{theta}``, per theta."""
    chart, thetas = bundle.charts[label], bundle.thetas
    computed = excluded_rows(strings(n_max, chart.unitary, chart.unitary_alt, chart.adjoint, thetas=thetas))
    names = row_names(f"strings_chart_{label}", thetas)
    return [
        exact_set_check(name, found, claimed_strings(theta)[f"chart_{label}"])
        for name, theta, found in zip(names, thetas, computed)
    ]


def transition_operator() -> OpMatrix:
    """The diagonal gluing operator between the two charts, in the
    1/sqrt(N) writing that is singular on (slot 1, |0>)."""
    inv_sqrt_n = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number())))
    return OpMatrix.diag(ANNIHILATION * inv_sqrt_n, inv_sqrt_n * CREATION)


def projector_pjc() -> Tuple[OpMatrix, OpMatrix]:
    """The rank-1 projector, one core with its 1/(2R) prefactors on the left and on the right."""
    half_inv_r1 = FockOperator.diagonal(guarded_div(1.0, 2.0 * r_symbol(1), ROW_TOL))
    half_inv_r0 = FockOperator.diagonal(guarded_div(1.0, 2.0 * r_symbol(0), ROW_TOL))
    core = OpMatrix.build(
        [
            [FockOperator.diagonal(r_theta(1, +1)), ANNIHILATION],
            [CREATION, FockOperator.diagonal(r_theta(0, -1))],
        ]
    )
    pre = OpMatrix.diag(half_inv_r1, half_inv_r0)
    return pre @ core, core @ pre


def local_coordinate_z() -> FockOperator:
    """The off-diagonal chart coordinate (1/(R(N)+theta)) a-dagger."""
    return FockOperator.diagonal(guarded_div(1.0, r_theta(0, +1), ROW_TOL)) * CREATION


class Bundle(Frozen):
    """Everything the charts suite reads, built once, with the detunings its checks scan."""

    thetas: Tuple[float, ...]
    h: OpMatrix
    charts: Dict[str, BundleChart]  # "I", "II"
    projector: OpMatrix  # prefactors on the left
    projector_alt: OpMatrix  # prefactors on the right
    projector_adjoint: OpMatrix  # projector.dagger()
    z: FockOperator

    def __init__(self, thetas, h, charts, projector, projector_alt, projector_adjoint, z):
        self.__dict__.update(thetas=thetas, h=h, charts=charts, projector=projector)
        self.__dict__.update(projector_alt=projector_alt, projector_adjoint=projector_adjoint, z=z)


def build_bundle(thetas: Sequence[float]) -> Bundle:
    charts = {label: build_chart(label) for label in ("I", "II")}
    projector, projector_alt = projector_pjc()
    h, z = build_h_jc(), local_coordinate_z()
    return Bundle(tuple(thetas), h, charts, projector, projector_alt, projector.dagger(), z)


def projector_singular_map(bundle: Bundle, n_max: int) -> np.ndarray:
    """Strings of the bundle's projector, in both orderings, and of its adjoint, as the
    (theta rows, slots, n_max + 1) mask that its checks skip and list."""
    return strings(n_max, bundle.projector, bundle.projector_alt, bundle.projector_adjoint, thetas=bundle.thetas)


def transition_singular_map(n_max: int) -> Dict[int, List[int]]:
    """Strings of the gluing operator in its defining form, each slot's states in order."""
    return excluded_rows(strings(n_max, transition_operator()))[0]


def spectral_decomposition_check(bundle: Bundle, n_max: int, tol: float) -> List[CheckResult]:
    """H_JC against diag(R(N+1), R(N)) (2 P - 1), for the bundle's projector P."""
    d = OpMatrix.diag(r_operator(1), r_operator(0))
    rebuilt = (d @ bundle.projector) - (d @ (OpMatrix.identity(2) - bundle.projector))
    return matrix_equal(bundle.h, rebuilt, n_max, tol, "spectral", thetas=bundle.thetas)


def z_identity_check(bundle: Bundle, n_max: int, tol: float) -> List[CheckResult]:
    """1 + Z†Z against 2 R(N+1) / (R(N+1)+theta)."""
    lhs = FockOperator.identity() + bundle.z.dagger() * bundle.z
    rhs = FockOperator.diagonal(guarded_div(2.0 * r_symbol(1), r_theta(1, +1), ROW_TOL))
    return op_equal(lhs, rhs, n_max, tol, "z_identity", thetas=bundle.thetas)


# -- propagator -----------------------------------------------------------


def propagator_closed_form(g: float, t: float) -> OpMatrix:
    """exp(-i g t H_JC) written with cos/sin of R(N), sinc-regularized at R=0.

    Its leaves are interned by function and the functions are cached per
    g t, so two U at one g t are one set of nodes while either is alive.
    """
    gt = g * t
    leaves = (grid_leaf(fn) for fn in _propagator_parts(gt, math.copysign(1.0, gt)))
    e11, e22, f_upper, f_lower = map(FockOperator.diagonal, leaves)
    return OpMatrix.build([[e11, f_upper * ANNIHILATION], [f_lower * CREATION, e22]])


@functools.lru_cache(maxsize=3)  # the suite's three g t: t, t/2 and 3t/2
def _propagator_parts(gt: float, sign: float) -> Tuple[Callable, ...]:
    # the leaf functions of U at gt; ``sign`` keeps apart +0.0 and -0.0, which compare equal

    def part(offset: int, fn: Callable) -> Callable:
        # coefficient (real part, imaginary part) = fn(x, theta gt) at x = gt R(N + offset)
        return lambda idx, theta: fn(gt * np.sqrt(idx + offset + theta * theta), theta * gt)

    return (
        part(1, lambda x, phase: (np.cos(x), -(phase * sinc(x)))),  # cos - i theta gt sinc
        part(0, lambda x, phase: (np.cos(x), phase * sinc(x))),  # cos + i theta gt sinc
        part(1, lambda x, phase: (np.zeros_like(x), -gt * sinc(x))),  # -i gt sinc
        part(0, lambda x, phase: (np.zeros_like(x), -gt * sinc(x))),
    )


def eigen_2x2(a, b, c) -> Tuple[np.ndarray, ...]:
    """Eigensystem of the real symmetric [[a, b], [b, c]], elementwise over arrays.

    LAPACK's dlaev2 written out over arrays, branch by branch: returns
    rt1, the eigenvalue of larger magnitude, rt2, the other one, and the
    unit eigenvector (cs, sn) of rt1; the eigenvector of rt2 is (-sn, cs).
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)))
    sm, df, tb = a + c, a - c, b + b
    adf, ab = np.abs(df), np.abs(tb)
    a_larger = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(a_larger, a, c), np.where(a_larger, c, a)
    big, small = np.maximum(adf, ab), np.minimum(adf, ab)
    # the branches not taken may divide by 0; ct * ct may overflow to inf, and 1 / sqrt(inf) is sn = 0
    with np.errstate(all="ignore"):
        rt = big * np.sqrt(1.0 + (small / np.where(big > 0, big, 1.0)) ** 2)  # sqrt(df^2 + tb^2)
        sgn1 = np.where(sm < 0, -1.0, 1.0)
        rt1 = 0.5 * (sm + sgn1 * rt)
        rt2 = np.where(sm == 0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
        sgn2 = np.where(df >= 0, 1.0, -1.0)
        cs = df + sgn2 * rt
        ct, tn = -tb / cs, -cs / tb
        sn_ct, cs_tn = 1.0 / np.sqrt(1.0 + ct * ct), 1.0 / np.sqrt(1.0 + tn * tn)
        steep, flat = np.abs(cs) > ab, ab == 0
        cs1 = np.where(steep, ct * sn_ct, np.where(flat, 1.0, cs_tn))
        sn1 = np.where(steep, sn_ct, np.where(flat, 0.0, tn * cs_tn))
    swap = sgn1 == sgn2
    return rt1, rt2, np.where(swap, -sn1, cs1), np.where(swap, cs1, sn1)


def propagator_block_oracle(thetas: Sequence[float], g: float, t: float, n_max: int) -> OpMatrix:
    """Exact propagator elements from the invariant two-dimensional subspaces.

    The Hamiltonian couples only (slot1,|n>) with (slot2,|n+1>), plus the
    uncoupled (slot2,|0>).  Each 2x2 block [[theta, sqrt(n+1)], [sqrt(n+1),
    -theta]] is exponentiated through its eigensystem, solved by
    ``eigen_2x2`` for every theta and n at once, which is independent of
    the closed form: with e = exp(-i g t rt), U = e1 v1 v1^T + e2 v2 v2^T.
    Returns the propagator with those elements as coefficients, one row
    per theta, valid on n = 0..n_max of the grid with these ``thetas``.
    """
    theta = np.array(thetas, dtype=float).reshape(-1, 1)
    coupling = np.sqrt(np.arange(1, n_max + 2, dtype=float))
    rt1, rt2, cs, sn = eigen_2x2(theta, coupling, -theta)  # [row, n] is the block of (slot1,|n>), (slot2,|n+1>)
    e1, e2 = np.exp(-1j * g * t * rt1), np.exp(-1j * g * t * rt2)
    u00, u11, u01 = e1 * cs * cs + e2 * sn * sn, e1 * sn * sn + e2 * cs * cs, (e1 - e2) * cs * sn
    below, ground = np.zeros((len(theta), 1), dtype=complex), np.exp(1j * g * t * theta)

    def term(d: int, values: np.ndarray) -> FockOperator:
        # values[row, n] = <slot si, n + d| U |slot sj, n> at the row's theta; a leaf reads no idx below 0,
        # so none wraps round to the end of the row
        return FockOperator.from_terms({d: grid_leaf(lambda idx, theta: (values.real[:, idx], values.imag[:, idx]))})

    return OpMatrix.build(
        [
            [term(0, u00), term(-1, np.concatenate((below, u01[:, :-1]), axis=1))],
            [term(1, u01), term(0, np.concatenate((ground, u11[:, :-1]), axis=1))],
        ]
    )


def propagator_oracle_check(thetas: Sequence[float], g: float, t: float, n_max: int, tol: float) -> List[CheckResult]:
    """Closed form against the block oracle on every element <slot si, m|U|slot sj, n>
    with m in {n-1, n, n+1}, both indices within the grid, per theta.

    The four entries are one scan of four columns in row order, so a tied
    maximum is reported at its first occurrence in (1,1), (1,2), (2,1), (2,2).
    """
    closed, oracle = propagator_closed_form(g, t), propagator_block_oracle(thetas, g, t, n_max)
    entries = [(si, sj) for si in (1, 2) for sj in (1, 2)]
    top, at, dropped = scan_rows(
        [[closed.entry(si - 1, sj - 1)] for si, sj in entries],
        n_max,
        thetas,
        right=[[oracle.entry(si - 1, sj - 1)] for si, sj in entries],
    )
    # the state of entry (si, sj) is in slot sj: (1,1) and (2,1) exclude from slot 1, (1,2) and (2,2) from slot 2
    by_slot = excluded_rows(dropped[:, :2] | dropped[:, 2:])
    records = []
    for name, theta, dev, at, excluded in zip(row_names("propagator_oracle", thetas), thetas, top, at, by_slot):
        where = ""
        if at is not None:  # column at[1] is entry (si, sj)
            si, sj = entries[at[1]]
            where = f"(slot{si},{at[2] + at[3]} | slot{sj},{at[2]})"
        detail = f"theta={theta}, gt={g * t}; max at {where}"
        records.append(upper_bound_check(name, dev, tol, excluded, 2 * (n_max + 1), detail))
    return records


def propagator_unitarity_check(
    thetas: Sequence[float], g: float, t: float, n_max: int, tol: float
) -> List[CheckResult]:
    details = [f"theta={theta}, gt={g * t}" for theta in thetas]
    return check_unitary(propagator_closed_form(g, t), n_max, tol, "propagator_unitary", details, thetas=thetas)


def propagator_semigroup_check(
    thetas: Sequence[float], g: float, t1: float, t2: float, n_max: int, tol: float
) -> List[CheckResult]:
    """U(t1) U(t2) against U(t1 + t2)."""
    prod = Product(propagator_closed_form(g, t1), propagator_closed_form(g, t2))
    whole = propagator_closed_form(g, t1 + t2)
    details = [f"theta={theta}, g={g}, t1={t1}, t2={t2}" for theta in thetas]
    return matrix_equal(prod, whole, n_max, tol, "propagator_semigroup", detail=details, thetas=thetas)


# -- classical limit of the local coordinate ------------------------------


COHERENT_CUTOFF = 1e-16  # coherent amplitudes below this are cut from the sums
CLASSICAL_ALPHAS = (2.0, 4.0, 8.0)  # coherent amplitudes of the classical-limit checks


def coherent_support(alpha: complex) -> int:
    """Largest n whose coherent amplitude |alpha|^n e^{-|alpha|^2/2}/sqrt(n!) exceeds COHERENT_CUTOFF."""
    a2 = abs(alpha) ** 2
    log_cut = math.log(COHERENT_CUTOFF)
    log_amp = -a2 / 2.0
    n, n_top = 0, 0
    while n < 100000:
        if log_amp > log_cut:
            n_top = n
        elif n > a2:
            break
        n += 1
        log_amp += math.log(abs(alpha)) - 0.5 * math.log(n)
    return n_top


def poisson_weights(alpha: complex) -> np.ndarray:
    """The Poisson weights e^{-|alpha|^2} |alpha|^{2n} / n! for n up to coherent_support(alpha)."""
    a2 = abs(alpha) ** 2
    weights = []
    log_p = -a2
    for n in range(coherent_support(alpha) + 1):
        weights.append(math.exp(log_p))
        log_p += math.log(a2) - math.log(n + 1)
    return np.array(weights)


def coherent_expectation_z(thetas: Sequence[float], alpha: complex) -> List[complex]:
    """<alpha| Z |alpha> per theta, with the coherent tail cut below COHERENT_CUTOFF amplitude.

    Reduces to conj(alpha) * sum_n p_n / (R(n+1)+theta) over Poisson
    weights p_n.  The sums of all theta are taken at once, each term added
    left to right along n.
    """
    if any(theta < 0 for theta in thetas):
        raise ValueError("coordinate chart undefined for theta < 0 (string at the ground state)")
    weights = poisson_weights(alpha)
    n = np.arange(len(weights))
    theta = np.array(thetas, dtype=float).reshape(-1, 1)
    # theta^2 overflows to inf from |theta| ~ 1.3e154 on; every term is then 0, as in float arithmetic
    with np.errstate(over="ignore"):
        totals = np.add.accumulate(weights / (np.sqrt(n + 1 + theta * theta) + theta), axis=-1)[:, -1]
    return [complex(np.conj(alpha)) * float(total) for total in totals]


def classical_z(alpha: complex, theta: float) -> complex:
    """Classical stereographic target: conj(alpha)/(r + theta), r^2 = |alpha|^2 + theta^2."""
    r = math.sqrt(abs(alpha) ** 2 + theta * theta)
    return complex(np.conj(alpha)) / (r + theta)


def classical_limit_errors(thetas: Sequence[float]) -> List[List[float]]:
    """Relative error of <alpha|Z|alpha> against the classical coordinate, per theta and CLASSICAL_ALPHAS."""
    expects = [coherent_expectation_z(thetas, alpha) for alpha in CLASSICAL_ALPHAS]
    errs = []
    for i, theta in enumerate(thetas):
        row = []
        for alpha, expect in zip(CLASSICAL_ALPHAS, expects):
            target = classical_z(alpha, theta)
            # the target underflows to 0 once theta^2 overflows: no relative error exists
            row.append(abs(expect[i] - target) / abs(target) if target else math.inf)
        errs.append(row)
    return errs


def classical_limit_check(thetas: Sequence[float]) -> List[CheckResult]:
    """The decay of the classical-limit errors, one record per theta >= 0."""
    records = []
    for theta, errs in zip(thetas, classical_limit_errors(thetas)):
        detail = "relative errors " + ", ".join(f"|a|={a}: {e:.3e}" for a, e in zip(CLASSICAL_ALPHAS, errs))
        records.append(monotone_check(f"z_classical_limit_decay_theta{theta}", errs, detail))
    return records
