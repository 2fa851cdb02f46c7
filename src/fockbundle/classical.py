"""Commutative counterparts on the two-sphere.

Everything here is plain 2x2 / (n+1)x(n+1) numpy linear algebra at a
point (x, y, z) with r = sqrt(x^2+y^2+z^2) > 0: the linear Hamiltonian,
its two diagonalizing unitaries with their axis singularities, the
transition function, the global projector, the degree-n coordinate lift
of CP^1 into CP^n, and the projective-chart projectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .symbols import sigma_tol


class AxisSingular(Exception):
    """The requested chart is undefined at (or too near) this point."""


@dataclass(frozen=True)
class SpherePoint:
    x: float
    y: float
    z: float

    @property
    def r(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    @property
    def w(self) -> complex:
        """x + iy."""
        return complex(self.x, self.y)

    def r_plus_minus_z(self) -> Tuple[float, float]:
        """(r + z, r - z).  The smaller one is computed as (x^2 + y^2)
        divided by the larger, which avoids the cancellation of r - z
        near the +z axis (and of r + z near the -z axis)."""
        r, z = self.r, self.z
        rho2 = self.x**2 + self.y**2
        if z >= 0:
            plus = r + z
            return plus, rho2 / plus
        minus = r - z
        return rho2 / minus, minus


def sample_points(count: int, seed: int) -> List[SpherePoint]:
    """Deterministic off-origin points: random direction, radius
    log-uniform in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        v = v / norm * radius
        pts.append(SpherePoint(float(v[0]), float(v[1]), float(v[2])))
    return pts


def berry_h(p: SpherePoint) -> np.ndarray:
    """[[z, x-iy], [x+iy, -z]], eigenvalues +-r."""
    return np.array([[p.z, np.conj(p.w)], [p.w, -p.z]], dtype=complex)


def chart_unitary(p: SpherePoint, label: str) -> np.ndarray:
    """Diagonalizing unitary on chart I (bad on the -z axis) or II (bad
    on the +z axis)."""
    r, w = p.r, p.w
    plus, minus = p.r_plus_minus_z()
    if label == "I":
        denom = 2.0 * r * plus
    elif label == "II":
        denom = 2.0 * r * minus
    else:
        raise ValueError(f"unknown chart {label!r}")
    if denom < sigma_tol(r) * r:
        raise AxisSingular(f"chart {label} undefined at {p}")
    s = 1.0 / math.sqrt(denom)
    if label == "I":
        return s * np.array([[plus, -np.conj(w)], [w, plus]], dtype=complex)
    return s * np.array([[np.conj(w), -minus], [minus, w]], dtype=complex)


def transition_fn(p: SpherePoint) -> np.ndarray:
    """diag(conj(w), w)/|w|, relating the two charts off both poles."""
    rho = abs(p.w)
    if rho < sigma_tol(p.r) * p.r:
        raise AxisSingular(f"transition undefined on the z-axis at {p}")
    return np.diag([np.conj(p.w), p.w]) / rho


def hopf_projector(p: SpherePoint) -> np.ndarray:
    """(1/2r) [[r+z, x-iy], [x+iy, r-z]] -- defined everywhere off the origin."""
    plus, minus = p.r_plus_minus_z()
    return np.array([[plus, np.conj(p.w)], [p.w, minus]], dtype=complex) / (2.0 * p.r)


def classical_local_z(p: SpherePoint) -> complex:
    """(x+iy)/(r+z), the stereographic chart coordinate."""
    denom = p.r_plus_minus_z()[0]
    if abs(denom) < sigma_tol(p.r) * p.r:
        raise AxisSingular(f"stereographic coordinate undefined at {p}")
    return p.w / denom


def cp_projector(zeta: np.ndarray) -> np.ndarray:
    """|zeta><zeta| / |zeta|^2 for a nonzero column in C^{n+1}."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    norm2 = float(np.vdot(zeta, zeta).real)
    if norm2 == 0.0:
        raise ValueError("zero column has no projective class")
    return np.outer(zeta, zeta.conj()) / norm2


def cp1_chart_projector(z: complex, chart: int = 0) -> np.ndarray:
    """Entrywise chart forms of the CP^1 projector: chart 0 uses the
    column (1, z), chart 1 the column (w, 1)."""
    if chart == 0:
        return np.array([[1.0, np.conj(z)], [z, abs(z) ** 2]], dtype=complex) / (1.0 + abs(z) ** 2)
    if chart == 1:
        return np.array([[abs(z) ** 2, z], [np.conj(z), 1.0]], dtype=complex) / (abs(z) ** 2 + 1.0)
    raise ValueError("CP^1 has charts 0 and 1")


def cp2_chart_projector(z1: complex, z2: complex) -> np.ndarray:
    """Entrywise chart-0 form of the CP^2 projector from the column (1, z1, z2)."""
    s = 1.0 + abs(z1) ** 2 + abs(z2) ** 2
    return (
        np.array(
            [
                [1.0, np.conj(z1), np.conj(z2)],
                [z1, abs(z1) ** 2, z1 * np.conj(z2)],
                [z2, z2 * np.conj(z1), abs(z2) ** 2],
            ],
            dtype=complex,
        )
        / s
    )


@functools.lru_cache(maxsize=None)
def chart_projector_deviation() -> float:
    """Worst entry of the CP^1 and CP^2 chart forms against cp_projector at fixed points."""
    spots = [0.3 + 0.4j, -1.2 + 0.7j, 2.0 - 0.5j]
    pairs = [(cp1_chart_projector(z, 0), [1.0, z]) for z in spots]
    pairs += [(cp1_chart_projector(z, 1), [z, 1.0]) for z in spots]
    pairs += [(cp2_chart_projector(a, b), [1.0, a, b]) for a, b in [(0.3 + 0.4j, -0.2j), (1.0 - 1.0j, 0.5 + 0.25j)]]
    return max(float(np.max(np.abs(form - cp_projector(np.array(col))))) for form, col in pairs)


def veronese_column(zc: complex, n: int) -> np.ndarray:
    """Chart column (1, sqrt(nC1) Zc, ..., sqrt(nCn) Zc^n)."""
    return np.array([math.sqrt(math.comb(n, k)) * zc**k for k in range(n + 1)], dtype=complex)


def lifted_projector(p: SpherePoint, n: int) -> np.ndarray:
    return cp_projector(veronese_column(classical_local_z(p), n))


N_LIFT = 3  # degree of the Veronese lift checked at every point


def verify_point(p: SpherePoint) -> float:
    """All classical identities at one point; returns the worst deviation.

    Covers: both chart unitaries diagonalize H to diag(r, -r), the
    transition function relates them, the projector is the upper
    spectral projector and is rank-1 idempotent Hermitian, and the
    degree-n lift reproduces the CP^n projector of the chart column.
    """
    h = berry_h(p)
    r = p.r
    target = np.diag([r, -r])
    worst = 0.0

    charts = {}
    for label in ("I", "II"):
        try:
            u = chart_unitary(p, label)
        except AxisSingular:
            continue
        charts[label] = u
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
        worst = max(worst, float(np.max(np.abs(u.conj().T @ h @ u - target))))

    if len(charts) == 2:
        try:
            phi = transition_fn(p)
            worst = max(worst, float(np.max(np.abs(charts["I"] @ phi - charts["II"]))))
        except AxisSingular:
            pass

    proj = hopf_projector(p)
    worst = max(worst, float(np.max(np.abs(proj @ proj - proj))))
    worst = max(worst, float(np.max(np.abs(proj.conj().T - proj))))
    worst = max(worst, float(np.max(np.abs(h @ proj - r * proj))))
    worst = max(worst, abs(np.trace(proj).real - 1.0))
    if "I" in charts:
        u = charts["I"]
        worst = max(worst, float(np.max(np.abs(u @ np.diag([1.0, 0.0]) @ u.conj().T - proj))))
        try:
            zc = classical_local_z(p)
            col = np.array([1.0, zc], dtype=complex)
            worst = max(worst, float(np.max(np.abs(cp_projector(col) - proj))))
            big = lifted_projector(p, N_LIFT)
            worst = max(
                worst,
                float(np.max(np.abs(big @ big - big))),
            )
            col_n = veronese_column(zc, N_LIFT)
            worst = max(
                worst,
                float(np.max(np.abs(big @ col_n - col_n))) / float(np.linalg.norm(col_n)),
            )
        except AxisSingular:
            pass
    return worst


@functools.lru_cache(maxsize=None)
def verify_sample(count: int, seed: int) -> float:
    """Worst deviation of verify_point over a seeded sample.

    A pure function of its arguments, so it is cached: a sweep computes
    it once per process, whatever axis it varies.
    """
    return max(verify_point(p) for p in sample_points(count, seed))
