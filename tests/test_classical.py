"""Tests for the commutative counterparts on the sphere: chart unitaries,
the transition function, the spectral projector, and projective lifts."""

import hashlib
import math

import numpy as np
import pytest

from fockbundle import classical
from fockbundle.report import upper_bound_check
from fockbundle.symbols import sigma_tol

TOL = 1e-12


def _dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def test_sphere_point_derived_quantities():
    p = classical.SpherePoint(3.0, 4.0, 12.0)
    assert p.r == pytest.approx(13.0)
    assert p.w == pytest.approx(3.0 + 4.0j)


def test_sampler_is_seeded_and_spread():
    pts = classical.sample_points(50, seed=3)
    again = classical.sample_points(50, seed=3)
    assert [(p.x, p.y, p.z) for p in pts] == [(q.x, q.y, q.z) for q in again]
    radii = [p.r for p in pts]
    assert min(radii) < 0.5 and max(radii) > 2.0


@pytest.mark.parametrize("label", ["I", "II"])
def test_chart_diagonalizes(label):
    for p in classical.sample_points(20, seed=5):
        u = classical.chart_unitary(p, label)
        assert _dev(u.conj().T @ u, np.eye(2)) < TOL
        assert _dev(u.conj().T @ classical.berry_h(p) @ u, np.diag([p.r, -p.r])) < 1e-11


def test_chart_singular_on_its_axis():
    with pytest.raises(classical.AxisSingular):
        classical.chart_unitary(classical.SpherePoint(0.0, 0.0, -1.0), "I")
    with pytest.raises(classical.AxisSingular):
        classical.chart_unitary(classical.SpherePoint(0.0, 0.0, 1.0), "II")
    # each chart is fine on the other pole
    classical.chart_unitary(classical.SpherePoint(0.0, 0.0, 1.0), "I")
    classical.chart_unitary(classical.SpherePoint(0.0, 0.0, -1.0), "II")


def test_transition_relates_charts():
    for p in classical.sample_points(20, seed=9):
        lhs = classical.chart_unitary(p, "I") @ classical.transition_fn(p)
        assert _dev(lhs, classical.chart_unitary(p, "II")) < TOL
    with pytest.raises(classical.AxisSingular):
        classical.transition_fn(classical.SpherePoint(0.0, 0.0, 2.0))


def test_projector_properties():
    for p in classical.sample_points(20, seed=21):
        proj = classical.hopf_projector(p)
        assert _dev(proj, proj.conj().T) < TOL
        assert _dev(proj @ proj, proj) < TOL
        assert np.trace(proj).real == pytest.approx(1.0, abs=TOL)
        assert _dev(classical.berry_h(p) @ proj, p.r * proj) < 1e-11


def test_local_z_and_cp1_charts():
    p = classical.SpherePoint(1.0, 1.0, 1.0)
    z = classical.classical_local_z(p)
    assert z == pytest.approx((1.0 + 1.0j) / (math.sqrt(3.0) + 1.0))
    proj = classical.cp_projector(np.array([1.0, z]))
    assert _dev(proj, classical.cp1_chart_projector(z, 0)) < TOL
    # chart 1 parametrizes the same class by the reciprocal coordinate
    assert _dev(proj, classical.cp1_chart_projector(1.0 / z, 1)) < TOL


def test_cp1_spot_value():
    proj = classical.cp1_chart_projector(1.0, 0)
    assert _dev(proj, 0.5 * np.array([[1, 1], [1, 1]])) < TOL


def test_cp2_chart_projector():
    z1, z2 = 0.5 + 0.25j, -1.0j
    proj = classical.cp2_chart_projector(z1, z2)
    assert _dev(proj, classical.cp_projector(np.array([1.0, z1, z2]))) < TOL
    assert _dev(proj @ proj, proj) < TOL


def test_veronese_column_degree_two():
    col = classical.veronese_column(2.0, 2)
    assert _dev(col, [1.0, 2.0 * math.sqrt(2.0), 4.0]) < TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lifted_projector_matches_projective_class(n):
    for p in classical.sample_points(10, seed=33):
        lifted = classical.lifted_projector(p, n)
        direct = classical.cp_projector(classical.veronese_column(classical.classical_local_z(p), n))
        assert _dev(lifted, direct) < TOL
        assert np.trace(lifted).real == pytest.approx(1.0, abs=TOL)


def test_verify_sample_is_tight():
    assert classical.verify_sample(200, seed=1) < TOL


# seeds whose samples put a point so near the +z axis that r - z lost
# most of its digits when computed by subtraction
NEAR_AXIS_SEEDS = [35, 47, 117, 121, 147, 150, 227, 244, 278, 288, 290, 405, 505, 506, 508, 603]


@pytest.mark.parametrize("seed", NEAR_AXIS_SEEDS)
def test_sample_near_the_pole_stays_within_tolerance(seed):
    assert classical.verify_sample(200, seed) <= TOL


def test_r_plus_minus_z_near_the_pole():
    p = classical.SpherePoint(1e-6, 0.0, 1.0)
    plus, minus = p.r_plus_minus_z()
    assert plus * minus == pytest.approx(1e-12, rel=1e-15)
    q = classical.SpherePoint(1e-6, 0.0, -1.0)
    assert q.r_plus_minus_z() == pytest.approx((minus, plus), rel=1e-15)


# -- the batch against a per-point reference ----------------------------------
#
# The evaluation of one point at a time in plain Python and 2x2 numpy, with
# Python's max() fold (which is only right for finite points).


class _Singular(Exception):
    pass


def _ref_sides(x, y, z):
    r = math.sqrt(x**2 + y**2 + z**2)
    rho2 = x**2 + y**2
    if z >= 0:
        plus = r + z
        return r, plus, rho2 / plus
    minus = r - z
    return r, rho2 / minus, minus


def _ref_chart(x, y, z, label):
    r, plus, minus = _ref_sides(x, y, z)
    w = complex(x, y)
    denom = 2.0 * r * (plus if label == "I" else minus)
    if denom < sigma_tol(r) * r:
        raise _Singular
    s = 1.0 / math.sqrt(denom)
    if label == "I":
        return s * np.array([[plus, -np.conj(w)], [w, plus]], dtype=complex)
    return s * np.array([[np.conj(w), -minus], [minus, w]], dtype=complex)


def _ref_transition(x, y, z):
    r, w = _ref_sides(x, y, z)[0], complex(x, y)
    if abs(w) < sigma_tol(r) * r:
        raise _Singular
    return np.diag([np.conj(w), w]) / abs(w)


def _ref_zeta(x, y, z):
    r, plus, _ = _ref_sides(x, y, z)
    if abs(plus) < sigma_tol(r) * r:
        raise _Singular
    return complex(x, y) / plus


def _ref_defined(x, y, z):
    """The reference's decision, per axis-singular map, at one point."""
    maps = {
        "I": lambda: _ref_chart(x, y, z, "I"),
        "II": lambda: _ref_chart(x, y, z, "II"),
        "transition": lambda: _ref_transition(x, y, z),
        "zeta": lambda: _ref_zeta(x, y, z),
    }
    found = {}
    for name, build in maps.items():
        try:
            with np.errstate(invalid="ignore"):  # a NaN point passes every guard and divides by NaN
                build()
            found[name] = True
        except _Singular:
            found[name] = False
    return found


def _ref_cp(col):
    col = np.asarray(col, dtype=complex)
    return np.outer(col, col.conj()) / float(np.vdot(col, col).real)


def _ref_verify_point(x, y, z):
    r, plus, minus = _ref_sides(x, y, z)
    w = complex(x, y)
    h = np.array([[z, np.conj(w)], [w, -z]], dtype=complex)
    terms, charts = [], {}
    for label in ("I", "II"):
        try:
            u = charts[label] = _ref_chart(x, y, z, label)
        except _Singular:
            continue
        terms += [u.conj().T @ u - np.eye(2), u.conj().T @ h @ u - np.diag([r, -r])]
    if len(charts) == 2:
        try:
            terms.append(charts["I"] @ _ref_transition(x, y, z) - charts["II"])
        except _Singular:
            pass
    proj = np.array([[plus, np.conj(w)], [w, minus]], dtype=complex) / (2.0 * r)
    terms += [proj @ proj - proj, proj.conj().T - proj, h @ proj - r * proj, np.trace(proj).real - 1.0]
    worst = max(float(np.max(np.abs(t))) for t in terms)
    if "I" in charts:
        u = charts["I"]
        worst = max(worst, _dev(u @ np.diag([1.0, 0.0]) @ u.conj().T, proj))
        try:
            zc = _ref_zeta(x, y, z)
        except _Singular:
            return worst
        col = np.array([math.sqrt(math.comb(3, k)) * zc**k for k in range(4)], dtype=complex)
        big = _ref_cp(col)
        worst = max(worst, _dev(_ref_cp([1.0, zc]), proj), _dev(big @ big, big))
        worst = max(worst, _dev(big @ col, col) / float(np.linalg.norm(col)))
    return worst


# on both poles, next to them, and on the z axis at other radii
POLE_POINTS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1e-7, 0.0, 1.0), (1e-7, 0.0, -1.0)]
POLE_POINTS += [(0.0, 0.0, 0.1), (0.0, 0.0, -0.1), (0.0, 0.0, 10.0), (0.0, 0.0, -10.0)]


def _batch(points):
    return classical.SpherePoint(*np.array(points, dtype=float).T)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [None, 0, 10, 235])
def test_batch_matches_the_per_point_reference(seed):
    # seed None is the batch of POLE_POINTS
    p = _batch(POLE_POINTS) if seed is None else classical.sample_points(200, seed)
    masks = classical.axis_masks(p)
    values = classical.verify_points(p)
    assert np.all(np.isfinite(values))
    for i, point in enumerate(zip(p.x.tolist(), p.y.tolist(), p.z.tolist())):
        assert {name: bool(mask[i]) for name, mask in masks.items()} == _ref_defined(*point), point
        assert abs(values[i] - _ref_verify_point(*point)) <= 1e-14, point
    if seed is None:
        # every map is left out somewhere, and chart II with the transition next to the +z pole
        assert not any(mask.all() for mask in masks.values())
        assert masks["transition"][2] and not masks["II"][2]


@pytest.mark.parametrize("bad", [(math.nan, 0.0, 1.0), (0.3, math.nan, 0.5), (0.3, 0.2, math.inf)])
def test_a_non_finite_point_fails_the_sample(monkeypatch, bad):
    good = classical.sample_points(5, seed=1)
    p = classical.SpherePoint(*(np.append(c, v) for c, v in zip((good.x, good.y, good.z), bad)))
    # an infinite coordinate reaches NaN through inf * 0 and inf - inf, which warn
    with np.errstate(invalid="ignore"):
        values = classical.verify_points(p)
        masks = classical.axis_masks(p)
        monkeypatch.setattr(classical, "sample_points", lambda count, seed: p)
        value = classical.verify_sample.__wrapped__(6, 1)
    assert np.all(np.isfinite(values[:-1])) and np.isnan(values[-1])
    if not math.isinf(bad[2]):
        # a NaN size is not below the floor: the point is not masked out, as a single point never raised
        assert {name: bool(mask[-1]) for name, mask in masks.items()} == _ref_defined(*bad)
    assert math.isnan(value)
    assert not upper_bound_check("sphere_identities_sample", value, TOL).passed


# SHA-256 of the little-endian float64 rows (x, y, z) of sample_points(200, seed),
# recorded from the sampler that built its points one at a time.  A batched draw
# such as rng.normal(size=(count, 3)) reads the stream in another order.
SAMPLE_SHA256 = {
    0: "2b55b8821a1ecc23070b16d1e03618b17b4f29850c462110aba45bf4fb52637a",
    1: "b0a8319fdc8f27c999c0b1181125b5f67136598c7f2118cf9cbea2b340234b27",
    10: "ea1905463d6b7715d2f0f20ecc900532556e9db0579fb98a971839e1ba82bb10",
}


@pytest.mark.parametrize("seed", sorted(SAMPLE_SHA256))
def test_sample_draws_are_pinned(seed):
    p = classical.sample_points(200, seed)
    rows = np.stack([p.x, p.y, p.z], axis=-1).astype("<f8")
    assert hashlib.sha256(rows.tobytes()).hexdigest() == SAMPLE_SHA256[seed]
