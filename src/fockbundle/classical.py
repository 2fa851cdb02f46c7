"""Commutative counterparts on the two-sphere.

Everything here is plain 2x2 / (n+1)x(n+1) numpy linear algebra at points
(x, y, z) with r = sqrt(x^2+y^2+z^2) > 0: the linear Hamiltonian, its two
diagonalizing unitaries with their axis singularities, the transition
function, the global projector, the degree-n coordinate lift of CP^1 into
CP^n, and the projective-chart projectors.  A ``SpherePoint`` is one point
or a batch of them, and every map returns its matrices stacked along the
batch's shape, so a whole sample is checked in a few array operations.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .symbols import sigma_tol


class AxisSingular(Exception):
    """The requested chart is undefined at (or too near) a requested point."""


def _square(v):
    # pow(v, 2) from the C library, as Python's float ** 2 computes it; numpy's v**2 is v * v,
    # which rounds differently about once in a thousand and would move the recorded sample values
    return np.float_power(v, 2)


def _complex(re, im) -> np.ndarray:
    """re + i im, built without complex arithmetic (which would turn an infinite part into NaN)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _matrices(rows) -> np.ndarray:
    """Entries (numbers, or arrays of one batch shape) stacked into complex
    matrices of shape batch + (len(rows), len(rows[0]))."""
    entries = np.broadcast_arrays(*(np.asarray(e, dtype=complex) for row in rows for e in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (len(rows), len(rows[0])))


def _per_matrix(a) -> np.ndarray:
    """A value per point, shaped to scale that point's matrix."""
    return np.expand_dims(a, (-2, -1))


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def _deviation(a: np.ndarray, b) -> np.ndarray:
    """Largest entry of |a - b| per matrix; NaN wherever an entry is NaN."""
    return np.max(np.abs(a - b), axis=(-2, -1))


@dataclass(frozen=True)
class SpherePoint:
    """A point off the origin, or a batch of them: x, y and z are floats
    or arrays of one shape."""

    x: float | np.ndarray
    y: float | np.ndarray
    z: float | np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        return np.shape(self.x)

    def __getitem__(self, lanes) -> SpherePoint:
        """The points of a batch that an index or a boolean mask picks."""
        return SpherePoint(*(np.asarray(c)[lanes] for c in (self.x, self.y, self.z)))

    @functools.cached_property
    def r(self):
        return np.sqrt(_square(self.x) + _square(self.y) + _square(self.z))

    @property
    def w(self):
        """x + iy."""
        return _complex(self.x, self.y)

    def r_plus_minus_z(self):
        """(r + z, r - z).  The smaller one is computed as (x^2 + y^2)
        divided by the larger, which avoids the cancellation of r - z
        near the +z axis (and of r + z near the -z axis)."""
        r, z, upper = self.r, self.z, self.z >= 0
        larger = np.where(upper, r + z, r - z)
        smaller = (_square(self.x) + _square(self.y)) / larger
        return np.where(upper, larger, smaller), np.where(upper, smaller, larger)


def seeded_rng(seed: int) -> random.Random:
    """The standard library's generator for a nonnegative seed.  Random(-s)
    would draw the same stream as Random(s), so a negative seed is refused."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return random.Random(seed)


def random_direction(rng: random.Random, dim: int) -> List[float]:
    """A unit vector of R^dim, uniform on the sphere: a point of the unit
    ball drawn by rejection from the cube [-1, 1]^dim, then normalised.
    Only random() and correctly rounded arithmetic are used, so the
    direction is the same on every platform and Python release."""
    while True:
        v = [2.0 * rng.random() - 1.0 for _ in range(dim)]
        norm2 = 0.0
        for c in v:  # left to right: sum() of floats is compensated from Python 3.12 on
            norm2 += c * c
        if 1e-16 <= norm2 <= 1.0:
            norm = math.sqrt(norm2)
            return [c / norm for c in v]


def sample_points(count: int, seed: int) -> SpherePoint:
    """A batch of deterministic off-origin points: random direction,
    radius log-uniform in [0.1, 10].  The radius goes through the C
    library's pow, which need not round correctly, so the points are the
    same only where pow is."""
    rng = seeded_rng(seed)
    directions, radii = [], []
    for _ in range(count):
        directions.append(random_direction(rng, 3))
        radii.append(10.0 ** rng.uniform(-1.0, 1.0))
    xyz = np.array(directions).reshape(count, 3) * np.array(radii)[:, None]
    return SpherePoint(*xyz.T)


def axis_masks(p: SpherePoint) -> Dict[str, np.ndarray]:
    """Where each axis-singular map is defined, as a boolean array of the
    batch's shape: chart "I" (undefined on the -z axis), chart "II" (on
    the +z axis), the "transition" function (on the whole z axis) and the
    stereographic coordinate "zeta" (on the -z axis).  A size below
    sigma_tol(r) r counts as zero; a NaN size does not, so a NaN point
    reaches the checks."""
    r = p.r
    plus, minus = p.r_plus_minus_z()
    sizes = {"I": 2.0 * r * plus, "II": 2.0 * r * minus, "transition": np.hypot(p.x, p.y), "zeta": abs(plus)}
    floor = sigma_tol(r) * r
    return {name: ~(size < floor) for name, size in sizes.items()}


def _require(p: SpherePoint, name: str) -> None:
    if not np.all(axis_masks(p)[name]):
        raise AxisSingular(f"{name} undefined at {p}")


def berry_h(p: SpherePoint) -> np.ndarray:
    """[[z, x-iy], [x+iy, -z]], eigenvalues +-r."""
    return _matrices([[p.z, np.conj(p.w)], [p.w, -p.z]])


def chart_unitary(p: SpherePoint, label: str) -> np.ndarray:
    """Diagonalizing unitary on chart I (bad on the -z axis) or II (bad
    on the +z axis)."""
    if label not in ("I", "II"):
        raise ValueError(f"unknown chart {label!r}")
    _require(p, label)
    r, w = p.r, p.w
    plus, minus = p.r_plus_minus_z()
    if label == "I":
        s, m = 1.0 / np.sqrt(2.0 * r * plus), _matrices([[plus, -np.conj(w)], [w, plus]])
    else:
        s, m = 1.0 / np.sqrt(2.0 * r * minus), _matrices([[np.conj(w), -minus], [minus, w]])
    return _per_matrix(s) * m


def transition_fn(p: SpherePoint) -> np.ndarray:
    """diag(conj(w), w)/|w|, relating the two charts off both poles."""
    _require(p, "transition")
    w = p.w
    return _matrices([[np.conj(w), 0.0], [0.0, w]]) / _per_matrix(np.hypot(p.x, p.y))


def hopf_projector(p: SpherePoint) -> np.ndarray:
    """(1/2r) [[r+z, x-iy], [x+iy, r-z]] -- defined everywhere off the origin."""
    plus, minus = p.r_plus_minus_z()
    return _matrices([[plus, np.conj(p.w)], [p.w, minus]]) / _per_matrix(2.0 * p.r)


def classical_local_z(p: SpherePoint):
    """(x+iy)/(r+z), the stereographic chart coordinate."""
    _require(p, "zeta")
    plus = p.r_plus_minus_z()[0]
    # each part divided by the float, as Python divides a complex by a float (numpy would
    # multiply by the reciprocal)
    return _complex(p.x / plus, p.y / plus)


def cp_projector(zeta: np.ndarray) -> np.ndarray:
    """|zeta><zeta| / |zeta|^2 for nonzero columns in C^{n+1}, the last axis."""
    zeta = np.asarray(zeta, dtype=complex)
    norm2 = (np.conj(zeta)[..., None, :] @ zeta[..., :, None])[..., 0, 0].real
    if np.any(norm2 == 0.0):
        raise ValueError("zero column has no projective class")
    return zeta[..., :, None] * np.conj(zeta)[..., None, :] / _per_matrix(norm2)


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


def veronese_column(zc, n: int) -> np.ndarray:
    """Chart columns (1, sqrt(nC1) Zc, ..., sqrt(nCn) Zc^n), along a last axis."""
    # np.power multiplies out small integer powers as Python's complex ** does; zc**2 would
    # square with another rounding
    zc = np.asarray(zc, dtype=complex)
    return np.stack([math.sqrt(math.comb(n, k)) * np.power(zc, k) for k in range(n + 1)], axis=-1)


def lifted_projector(p: SpherePoint, n: int) -> np.ndarray:
    return cp_projector(veronese_column(classical_local_z(p), n))


N_LIFT = 3  # degree of the Veronese lift checked at every point


def verify_points(p: SpherePoint) -> np.ndarray:
    """All classical identities at every point of a batch; returns the
    worst deviation per point, an array of the batch's shape.

    Covers: both chart unitaries diagonalize H to diag(r, -r), the
    transition function relates them, the projector is the upper
    spectral projector and is rank-1 idempotent Hermitian, and the
    degree-n lift reproduces the CP^n projector of the chart column.
    An identity whose chart, transition function or coordinate is
    undefined at a point (``axis_masks``) is skipped there.  A NaN
    deviation is kept, so a non-finite point gives NaN.
    """
    worst = np.zeros(p.shape)

    def fold(lanes, deviation):
        worst[lanes] = np.maximum(worst[lanes], deviation)

    h, r, masks = berry_h(p), p.r, axis_masks(p)
    target = _matrices([[r, 0.0], [0.0, -r]])
    charts = {}
    for label in ("I", "II"):
        lanes = masks[label]
        u = charts[label] = chart_unitary(p[lanes], label)
        fold(lanes, _deviation(_dagger(u) @ u, np.eye(2)))
        fold(lanes, _deviation(_dagger(u) @ h[lanes] @ u, target[lanes]))

    # a lane of both charts sits at index both[masks[label]] of that chart's unitaries
    both = masks["I"] & masks["II"] & masks["transition"]
    u1, u2 = (charts[label][both[masks[label]]] for label in ("I", "II"))
    fold(both, _deviation(u1 @ transition_fn(p[both]), u2))

    proj = hopf_projector(p)
    fold(..., _deviation(proj @ proj, proj))
    fold(..., _deviation(_dagger(proj), proj))
    fold(..., _deviation(h @ proj, _per_matrix(r) * proj))
    fold(..., abs((proj[..., 0, 0] + proj[..., 1, 1]).real - 1.0))
    lanes, u = masks["I"], charts["I"]
    fold(lanes, _deviation(u @ np.diag([1.0, 0.0]) @ _dagger(u), proj[lanes]))

    lanes = masks["I"] & masks["zeta"]
    zc = classical_local_z(p[lanes])
    fold(lanes, _deviation(cp_projector(veronese_column(zc, 1)), proj[lanes]))
    col = veronese_column(zc, N_LIFT)
    big = cp_projector(col)
    fold(lanes, _deviation(big @ big, big))
    # np.linalg.norm of each column: sqrt(re . re + im . im), each product a dot
    re, im = col.real[..., None, :], col.imag[..., None, :]
    norm = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])
    fold(lanes, _deviation(big @ col[..., None], col[..., None]) / norm)
    return worst


@functools.lru_cache(maxsize=None)
def verify_sample(count: int, seed: int) -> float:
    """Worst deviation of verify_points over a seeded sample; NaN if any
    point's is.

    A pure function of its arguments, so it is cached: a sweep computes
    it once per process, whatever axis it varies.
    """
    return float(np.max(verify_points(sample_points(count, seed))))
