"""The detuned Jaynes-Cummings Hamiltonian as an operator-valued 2x2 matrix.

Provides its exact factorization into shift times classical times shift,
the two chart unitaries with their Dirac-string domains, the transition
operator gluing them, the rank-1 projector, the closed-form propagator
with an independent block oracle, and the local complex coordinate with
its classical limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from .opmatrix import OpMatrix, check_unitary, matrix_equal, strings
from .operators import ANNIHILATION, CREATION, FockOperator, grid_deviation, op_equal
from .report import CheckResult, exact_set_check, merge_excluded, monotone_check, upper_bound_check
from .symbols import DiagonalSymbol, const, grid_leaf, guarded_div, guarded_sqrt, number, sigma_tol, sinc


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


def r_symbol(theta: float, offset: int = 0) -> DiagonalSymbol:
    """sqrt(N + offset + theta^2) as a diagonal symbol."""
    return guarded_sqrt(number(offset, theta * theta), sigma_tol(theta))


def r_operator(theta: float, offset: int = 0) -> FockOperator:
    return FockOperator.diagonal(r_symbol(theta, offset))


def chart_prefactor(theta: float, sign: int, offset: int) -> DiagonalSymbol:
    """1 / sqrt(2 R(N+offset) (R(N+offset) + sign*theta))."""
    tol = sigma_tol(theta)
    r = r_symbol(theta, offset)
    return guarded_div(1.0, guarded_sqrt(const(2.0) * r * (r + sign * theta), tol), tol)


def build_h_jc(theta: float) -> OpMatrix:
    return OpMatrix.build([[FockOperator.scalar(theta), ANNIHILATION], [CREATION, FockOperator.scalar(-theta)]])


def qdm_factorization(theta: float) -> Tuple[OpMatrix, OpMatrix, OpMatrix]:
    """The shift / classical / shift triple whose ordered product is H_JC."""
    root = guarded_sqrt(number(1))
    inv_sqrt_np1 = FockOperator.diagonal(guarded_div(1.0, root))
    sqrt_np1 = FockOperator.diagonal(root)
    left = OpMatrix.diag(FockOperator.identity(), CREATION * inv_sqrt_np1)
    middle = OpMatrix.build([[FockOperator.scalar(theta), sqrt_np1], [sqrt_np1, FockOperator.scalar(-theta)]])
    right = OpMatrix.diag(FockOperator.identity(), inv_sqrt_np1 * ANNIHILATION)
    return left, middle, right


def qdm_reconstruction_check(theta: float, h: OpMatrix, n_max: int, tol: float) -> CheckResult:
    """left @ middle @ right against H = ``h`` (built at theta), away from
    the uncoupled state.

    The right factor (1/sqrt(N+1)) a annihilates (slot2, |0>), while H
    acts on it as -theta; equivalently its alternate writing a (1/sqrt(N))
    is singular there.  That state is the factorization's string and is
    excluded and reported.
    """
    left, middle, right = qdm_factorization(theta)
    return matrix_equal(
        left @ middle @ right, h, n_max, tol, f"qdm_factorization_theta{theta}", skip={2: {0}}
    )


def chart_core(theta: float, label: str) -> OpMatrix:
    r0 = r_operator(theta, 0)
    r1 = r_operator(theta, 1)
    if label == "I":
        return OpMatrix.build(
            [
                [r1 + FockOperator.scalar(theta), -ANNIHILATION],
                [CREATION, r0 + FockOperator.scalar(theta)],
            ]
        )
    if label == "II":
        return OpMatrix.build(
            [
                [ANNIHILATION, FockOperator.scalar(theta) - r1],
                [r0 - FockOperator.scalar(theta), CREATION],
            ]
        )
    raise ValueError(f"unknown chart label {label!r}")


def chart_unitary(theta: float, label: str, ordering: str = "left") -> OpMatrix:
    """V_I or V_II, with the scalar prefactors composed on the requested side."""
    sign = +1 if label == "I" else -1
    p_upper = FockOperator.diagonal(chart_prefactor(theta, sign, 1))
    p_lower = FockOperator.diagonal(chart_prefactor(theta, sign, 0))
    core = chart_core(theta, label)
    if ordering == "left":
        return OpMatrix.diag(p_upper, p_lower) @ core
    if ordering == "right":
        if label == "I":
            return core @ OpMatrix.diag(p_upper, p_lower)
        return core @ OpMatrix.diag(p_lower, p_upper)
    raise ValueError(f"unknown ordering {ordering!r}")


def chart_diagonal(theta: float, label: str) -> OpMatrix:
    r0 = r_operator(theta, 0)
    r1 = r_operator(theta, 1)
    if label == "I":
        return OpMatrix.diag(r1, -r0)
    return OpMatrix.diag(r0, -r1)


@dataclass(frozen=True)
class BundleChart:
    unitary: OpMatrix
    unitary_alt: OpMatrix
    adjoint: OpMatrix  # unitary.dagger()
    diagonal: OpMatrix


def build_chart(theta: float, label: str) -> BundleChart:
    unitary = chart_unitary(theta, label, "left")
    return BundleChart(
        unitary=unitary,
        unitary_alt=chart_unitary(theta, label, "right"),
        adjoint=unitary.dagger(),
        diagonal=chart_diagonal(theta, label),
    )


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


def dirac_string_map(theta: float, label: str, chart: BundleChart, n_max: int) -> CheckResult:
    """Computed strings of ``chart`` (built at theta) against the claimed
    ones, as the exact-set check ``strings_chart_{label}_theta{theta}``.

    The chart map uses V together with V†, so the strings are those of
    both orderings of V and of V†.
    """
    computed = strings(n_max, chart.unitary, chart.unitary_alt, chart.adjoint)
    return exact_set_check(f"strings_chart_{label}_theta{theta}", computed, claimed_strings(theta)[f"chart_{label}"])


def transition_operator() -> OpMatrix:
    """The diagonal gluing operator between the two charts, in the
    1/sqrt(N) writing that is singular on (slot 1, |0>)."""
    inv_sqrt_n = FockOperator.diagonal(guarded_div(1.0, guarded_sqrt(number())))
    return OpMatrix.diag(ANNIHILATION * inv_sqrt_n, inv_sqrt_n * CREATION)


def projector_pjc(theta: float, ordering: str = "left") -> OpMatrix:
    r0, r1 = r_symbol(theta, 0), r_symbol(theta, 1)
    tol = sigma_tol(theta)
    half_inv_r1 = FockOperator.diagonal(guarded_div(1.0, 2.0 * r1, tol))
    half_inv_r0 = FockOperator.diagonal(guarded_div(1.0, 2.0 * r0, tol))
    core = OpMatrix.build(
        [
            [FockOperator.diagonal(r1) + FockOperator.scalar(theta), ANNIHILATION],
            [CREATION, FockOperator.diagonal(r0) - FockOperator.scalar(theta)],
        ]
    )
    pre = OpMatrix.diag(half_inv_r1, half_inv_r0)
    if ordering == "left":
        return pre @ core
    if ordering == "right":
        return core @ pre
    raise ValueError(f"unknown ordering {ordering!r}")


def projector_singular_map(theta: float, p: OpMatrix, p_adjoint: OpMatrix, n_max: int) -> Dict[int, List[int]]:
    """Strings of the projector ``p`` (built at theta, left ordering) and
    of its adjoint ``p_adjoint``."""
    return strings(n_max, p, projector_pjc(theta, "right"), p_adjoint)


def transition_singular_map(n_max: int) -> Dict[int, List[int]]:
    """Strings of the gluing operator in its defining form."""
    return strings(n_max, transition_operator())


def spectral_decomposition_check(theta: float, h: OpMatrix, p: OpMatrix, n_max: int, tol: float) -> CheckResult:
    """H_JC = ``h`` against diag(R(N+1), R(N)) (2 P - 1), for the projector
    ``p``; both built at theta."""
    d = OpMatrix.diag(r_operator(theta, 1), r_operator(theta, 0))
    rebuilt = (d @ p) - (d @ (OpMatrix.identity(2) - p))
    return matrix_equal(h, rebuilt, n_max, tol, name=f"spectral_theta{theta}")


# -- propagator -----------------------------------------------------------


def propagator_closed_form(theta: float, g: float, t: float) -> OpMatrix:
    """exp(-i g t H_JC) written with cos/sin of R(N), sinc-regularized at R=0."""
    gt = g * t
    phase = theta * gt

    def diagonal(offset: int, parts) -> FockOperator:
        # coefficient (real part, imaginary part) = parts(x) at x = gt R(N + offset)
        return FockOperator.diagonal(grid_leaf(lambda idx: parts(gt * np.sqrt(idx + offset + theta * theta))))

    e11 = diagonal(1, lambda x: (np.cos(x), -(phase * sinc(x))))  # cos - i theta gt sinc
    e22 = diagonal(0, lambda x: (np.cos(x), phase * sinc(x)))  # cos + i theta gt sinc
    f_upper = diagonal(1, lambda x: (np.zeros_like(x), -gt * sinc(x)))  # -i gt sinc
    f_lower = diagonal(0, lambda x: (np.zeros_like(x), -gt * sinc(x)))
    return OpMatrix.build([[e11, f_upper * ANNIHILATION], [f_lower * CREATION, e22]])


def propagator_block_oracle(theta: float, g: float, t: float, n_max: int) -> OpMatrix:
    """Exact propagator elements from the invariant two-dimensional subspaces.

    The Hamiltonian couples only (slot1,|n>) with (slot2,|n+1>), plus the
    uncoupled (slot2,|0>).  Each 2x2 block is exponentiated through its
    numpy eigendecomposition, which is independent of the closed form.
    Returns the propagator with those elements as coefficients, valid on
    n = 0..n_max.
    """
    coupling = np.sqrt(np.arange(1, n_max + 2, dtype=float))
    h = np.zeros((n_max + 1, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = theta, -theta
    h[:, 0, 1] = h[:, 1, 0] = coupling
    w, v = np.linalg.eigh(h)
    phases = np.zeros_like(h)
    phases[:, 0, 0], phases[:, 1, 1] = np.exp(-1j * g * t * w).T
    u = v @ phases @ np.conj(np.swapaxes(v, 1, 2))  # u[n] is the block of (slot1,|n>), (slot2,|n+1>)

    def term(d: int, values: np.ndarray) -> FockOperator:
        # values[n] = <slot si, n + d| U |slot sj, n>
        return FockOperator.from_terms({d: grid_leaf(lambda idx: (values.real[idx], values.imag[idx]))})

    return OpMatrix.build(
        [
            [term(0, u[:, 0, 0]), term(-1, np.concatenate(([0.0], u[:-1, 0, 1])))],
            [term(1, u[:, 1, 0]), term(0, np.concatenate(([np.exp(1j * g * t * theta)], u[:-1, 1, 1])))],
        ]
    )


def propagator_oracle_check(theta: float, g: float, t: float, n_max: int, tol: float) -> CheckResult:
    """Closed form against the block oracle on every element <slot si, m|U|slot sj, n>
    with m in {n-1, n, n+1}, both indices within the grid.

    The entries are scanned one at a time in row order, so a tied maximum
    is reported at its first occurrence in (1,1), (1,2), (2,1), (2,2).
    """
    diff = propagator_closed_form(theta, g, t) - propagator_block_oracle(theta, g, t, n_max)
    max_dev, where, excluded = 0.0, "", {}
    for si in (1, 2):
        for sj in (1, 2):
            dev, at, found = grid_deviation([[diff.entry(si - 1, sj - 1)]], n_max)
            excluded = merge_excluded(excluded, {sj: found.get(1, set())})
            if dev > max_dev:
                max_dev, where = dev, f"(slot{si},{at[2] + at[3]} | slot{sj},{at[2]})"
    detail = f"theta={theta}, gt={g * t}; max at {where}"
    return upper_bound_check(f"propagator_oracle_theta{theta}", max_dev, tol, excluded, 2 * (n_max + 1), detail)


def propagator_unitarity_check(theta: float, g: float, t: float, n_max: int, tol: float) -> CheckResult:
    name, detail = f"propagator_unitary_theta{theta}", f"theta={theta}, gt={g * t}"
    return check_unitary(propagator_closed_form(theta, g, t), n_max, tol, name, detail)


def propagator_semigroup_check(theta: float, g: float, t1: float, t2: float, n_max: int, tol: float) -> CheckResult:
    """U(t1) U(t2) against U(t1 + t2)."""
    prod = propagator_closed_form(theta, g, t1) @ propagator_closed_form(theta, g, t2)
    whole = propagator_closed_form(theta, g, t1 + t2)
    detail = f"theta={theta}, g={g}, t1={t1}, t2={t2}"
    return matrix_equal(prod, whole, n_max, tol, f"propagator_semigroup_theta{theta}", detail=detail)


# -- local coordinate and classical limit ---------------------------------


def local_coordinate_z(theta: float) -> FockOperator:
    """The off-diagonal chart coordinate (1/(R(N)+theta)) a-dagger."""
    pre = FockOperator.diagonal(guarded_div(1.0, r_symbol(theta, 0) + theta, sigma_tol(theta)))
    return pre * CREATION


def z_identity_check(theta: float, n_max: int, tol: float) -> CheckResult:
    """1 + Z†Z against 2 R(N+1) / (R(N+1)+theta)."""
    z = local_coordinate_z(theta)
    lhs = FockOperator.identity() + z.dagger() * z
    r1 = r_symbol(theta, 1)
    rhs = FockOperator.diagonal(guarded_div(2.0 * r1, r1 + theta, sigma_tol(theta)))
    return op_equal(lhs, rhs, n_max, tol, name=f"z_identity_theta{theta}")


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


def coherent_expectation_z(theta: float, alpha: complex) -> complex:
    """<alpha| Z |alpha> with the coherent tail cut below COHERENT_CUTOFF amplitude.

    Reduces to conj(alpha) * sum_n p_n / (R(n+1)+theta) over Poisson
    weights p_n.
    """
    if theta < 0:
        raise ValueError("coordinate chart undefined for theta < 0 (string at the ground state)")
    a2 = abs(alpha) ** 2
    n_top = coherent_support(alpha)
    total = 0.0
    log_p = -a2  # log of the Poisson weight e^{-|a|^2} |a|^{2n} / n!
    for n in range(n_top + 1):
        total += math.exp(log_p) / (math.sqrt(n + 1 + theta * theta) + theta)
        log_p += math.log(a2) - math.log(n + 1)
    return complex(np.conj(alpha)) * total


def classical_z(alpha: complex, theta: float) -> complex:
    """Classical stereographic target: conj(alpha)/(r + theta), r^2 = |alpha|^2 + theta^2."""
    r = math.sqrt(abs(alpha) ** 2 + theta * theta)
    return complex(np.conj(alpha)) / (r + theta)


def classical_limit_errors(theta: float) -> List[float]:
    """Relative error of <alpha|Z|alpha> against the classical coordinate, per CLASSICAL_ALPHAS."""
    errs = []
    for alpha in CLASSICAL_ALPHAS:
        expect = coherent_expectation_z(theta, alpha)
        target = classical_z(alpha, theta)
        # the target underflows to 0 once theta^2 overflows: no relative error exists
        errs.append(abs(expect - target) / abs(target) if target else math.inf)
    return errs


def classical_limit_check(theta: float) -> CheckResult:
    errs = classical_limit_errors(theta)
    detail = "relative errors " + ", ".join(f"|a|={a}: {e:.3e}" for a, e in zip(CLASSICAL_ALPHAS, errs))
    return monotone_check(f"z_classical_limit_decay_theta{theta}", errs, detail)
