"""Tests for the ambient geometries: curvature sign, signature, product and
geodesic distance against a 50-digit mpmath oracle."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confocal.errors import InvalidParameters, NotOnModel
from confocal.geometry import (
    MODEL_TOL,
    Geometry,
    Kind,
    check_on_model,
    euclidean,
    geodesic_distance,
    hyperbolic,
    spherical,
)

S2, H2 = spherical(2), hyperbolic(2)
EPS = np.finfo(float).eps


def mp_distance(geometry, x, y):
    """Distance between two float points, each taken as the model point on
    its ray: on S^n the angle atan2(|x ^ y|, x . y) between them, on H^n
    acosh(-<x, y> / sqrt(<x, x> <y, y>)), both in 50-digit arithmetic."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in x]
        ys = [mpmath.mpf(float(v)) for v in y]
        if geometry.kappa > 0:
            # Lagrange's identity: |x|^2 |y|^2 - (x . y)^2 without cancellation
            wedge = mpmath.sqrt(mpmath.fsum((xs[i] * ys[j] - xs[j] * ys[i]) ** 2
                                            for i in range(len(xs))
                                            for j in range(i + 1, len(xs))))
            return float(mpmath.atan2(wedge, mpmath.fdot(xs, ys)))

        def mink(u, v):
            return -u[0] * v[0] + mpmath.fdot(u[1:], v[1:])

        return float(mpmath.acosh(-mink(xs, ys) / mpmath.sqrt(mink(xs, xs) * mink(ys, ys))))


def test_kappa_eta_and_product():
    for geo, kappa, eta in ((euclidean(2), 0, [1, 1]), (S2, 1, [1, 1, 1]),
                            (H2, -1, [-1, 1, 1])):
        assert geo.kappa == kappa
        assert list(geo.eta) == eta and geo.ambient_dim == len(eta)
        assert geo.dot([1.0, 2.0, 3.0][:len(eta)], [4.0, 5.0, 6.0][:len(eta)]) \
            == sum(e * a * b for e, a, b in zip(eta, (1, 2, 3), (4, 5, 6)))
    x = np.array([np.cosh(0.3), np.sinh(0.3), 0.0])
    assert abs(H2.dot(x, x) + 1.0) < 1e-15
    stack = np.stack([x, 2.0 * x])
    assert np.allclose(H2.dot(stack, x), [-1.0, -2.0])
    assert np.allclose(H2.dot(stack, stack), [-1.0, -4.0])
    # hashable, and equal by (kind, n) alone
    assert Geometry(Kind.HYPERBOLIC, 2) == H2 and len({H2, hyperbolic(2), S2}) == 2
    with pytest.raises(ValueError):
        H2.eta[0] = 1.0


def test_dimension_below_one_is_invalid():
    for kind in Kind:
        with pytest.raises(InvalidParameters):
            Geometry(kind, 0)


def test_trig_pair_only_on_curved_geometries():
    assert S2.trig == (np.sin, np.cos) and H2.trig == (np.sinh, np.cosh)
    with pytest.raises(InvalidParameters):
        euclidean(2).trig


def _near_antipode_pairs(rng, count):
    """Unit x and y = -x + eps t renormalised, eps log-uniform in 1e-9..1."""
    x = rng.normal(size=(count, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    t = rng.normal(size=(count, 3))
    t -= np.sum(t * x, axis=1, keepdims=True) * x
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    eps = 10.0 ** rng.uniform(-9.0, 0.0, size=count)
    y = -x + eps[:, None] * t
    return x, y / np.linalg.norm(y, axis=1, keepdims=True)


def test_sphere_distance_near_the_antipode():
    """Near pi the arccos of x . y loses half the digits; the distance must
    stay within a few rounding errors of the angle, per pair and stacked."""
    xs, ys = _near_antipode_pairs(np.random.default_rng(61), 300)
    oracle = np.array([mp_distance(S2, x, y) for x, y in zip(xs, ys)])
    got = np.array([geodesic_distance(S2, x, y) for x, y in zip(xs, ys)])
    assert np.max(np.abs(got - oracle) / oracle) < 4.0 * EPS
    stacked = geodesic_distance(S2, -xs[0], ys)
    single = [geodesic_distance(S2, -xs[0], y) for y in ys]
    assert np.allclose(stacked, single, rtol=4.0 * EPS, atol=0.0)


_COORD = st.floats(-1.0, 1.0, allow_nan=False)
_UNIT3 = st.tuples(_COORD, _COORD, _COORD).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.asarray(v) / np.linalg.norm(v))


def _tangent(x, v):
    t = np.asarray(v) - (np.asarray(v) @ x) * x
    return t / np.linalg.norm(t)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_UNIT3, _UNIT3, st.floats(-12.0, -1.0), st.booleans())
def test_sphere_distance_nearly_equal_and_near_antipodal(x, v, log_eps, antipodal):
    """y at angle eps from x, or from -x.  A float point is off the sphere
    by about one rounding error, which moves its distance by as much: the
    gate is a few rounding errors of the distance plus of the radius."""
    if abs(v @ x) > 0.99:
        return
    eps = 10.0 ** log_eps
    base = -x if antipodal else x
    y = np.cos(eps) * base + np.sin(eps) * _tangent(x, v)
    got = geodesic_distance(S2, x, y)
    oracle = mp_distance(S2, x, y)
    assert abs(got - oracle) <= 4.0 * EPS * (oracle + 1.0)


def _integer_point(n, s1, s2, swap):
    """(2n^2 + 1, 2n, 2n^2) up to signs and order: exactly on H^2, with
    exact squares for n <= 80, at distance up to about 10.2 from (1, 0, 0)."""
    a, b = 2.0 * n, 2.0 * n * n
    if swap:
        a, b = b, a
    return np.array([2.0 * n * n + 1.0, s1 * a, s2 * b])


_H_POINT = st.builds(_integer_point, st.integers(0, 80), st.sampled_from((-1.0, 1.0)),
                     st.sampled_from((-1.0, 1.0)), st.booleans())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_H_POINT, _H_POINT)
def test_hyperbolic_distance_up_to_20(x, y):
    """Exact model points at distances 0 to about 20: relative accuracy."""
    assert x[0] ** 2 - x[1] ** 2 - x[2] ** 2 == 1.0
    got = geodesic_distance(H2, x, y)
    oracle = mp_distance(H2, x, y)
    assert abs(got - oracle) <= 4.0 * EPS * oracle


def test_stacks_are_checked_row_by_row():
    x = np.array([1.0, 0.0, 0.0])
    ys = np.array([[1.0, 0.0, 0.0], [np.cosh(1.0), np.sinh(1.0), 0.0]])
    assert np.allclose(geodesic_distance(H2, x, ys), [0.0, 1.0], rtol=0, atol=1e-15)
    with pytest.raises(NotOnModel):
        geodesic_distance(H2, x, np.stack([ys[0], -ys[1]]))
    assert np.array_equal(geodesic_distance(H2, ys, x), geodesic_distance(H2, x, ys))
    with pytest.raises(NotOnModel):
        geodesic_distance(S2, x, ys[:, :2])


def test_check_on_model_takes_one_point():
    for geo, x in ((euclidean(2), [0.3, 0.4]), (S2, [1.0, 0.0, 0.0]),
                   (H2, [1.0, 0.0, 0.0])):
        assert np.array_equal(check_on_model(geo, x), x)
        for bad in (np.stack([x, x]), np.array(x)[None, :], x[:-1]):
            with pytest.raises(NotOnModel):
                check_on_model(geo, bad)


@pytest.mark.parametrize("v", [np.inf, -np.inf, np.nan])
def test_non_finite_coordinates_are_off_the_model(v):
    """An inf or nan coordinate is on no model: the gate fails closed where
    the residual, x . x or both are not finite."""
    for geo in (S2, H2):
        x = np.array([1.0, 0.0, 0.0])
        for k in range(3):
            bad = x.copy()
            bad[k] = v
            for call in (lambda: check_on_model(geo, bad),
                         lambda: geodesic_distance(geo, x, bad),
                         lambda: geodesic_distance(geo, x, np.stack([x, bad]))):
                with pytest.raises(NotOnModel):
                    call()
        # numpy warns of inf - inf in <x, x> on H^2, and of the overflow below
        with np.errstate(invalid="ignore"), pytest.raises(NotOnModel):
            geodesic_distance(geo, x, np.full(3, v))
    # <x, x> = 0 is finite, but x . x overflows to inf: off H^2 by 1
    with np.errstate(over="ignore"), pytest.raises(NotOnModel):
        check_on_model(H2, [1e154, 1e154, 0.0])


def test_one_point_model_test_refusals():
    """One point's model test, on its Python floats, refuses on every model
    a nan or +-inf coordinate and an x . x that overflows (1e200), with no
    warning, and a wrong length; on H^2 the lower sheet, and on S^2 a point
    1e-9 x . x off.  It accepts the far H^n points of the quadrics tests,
    out to r = 8."""
    for geo, x in ((euclidean(2), [0.3, 0.4]), (euclidean(3), [0.3, -0.4, 2.0]),
                   (S2, [0.6, 0.0, 0.8]), (H2, [1.25, 0.75, 0.0])):
        assert check_on_model(geo, x).tolist() == x
        for k in range(len(x)):
            for v in (np.nan, np.inf, -np.inf, 1e200):
                with pytest.raises(NotOnModel):
                    check_on_model(geo, x[:k] + [v] + x[k + 1:])
        for bad in (x + [0.0], x[:-1]):
            with pytest.raises(NotOnModel):
                check_on_model(geo, bad)
    with pytest.raises(NotOnModel):
        check_on_model(H2, [-1.25, 0.75, 0.0])
    with pytest.raises(NotOnModel):
        check_on_model(S2, np.sqrt(1.0 + 1e-9) * np.array([0.6, 0.0, 0.8]))
    for geo in (H2, hyperbolic(3)):
        rng = np.random.default_rng(37)   # as test_far_hyperbolic_points_match_secular_oracle
        for r in (2.0, 4.0, 6.0, 8.0):
            for _ in range(10):
                u = rng.normal(size=geo.n)
                x = np.concatenate(([np.cosh(r)], np.sinh(r) * u / np.linalg.norm(u)))
                assert np.array_equal(check_on_model(geo, x), x)


def _exact_gate(geo, x):
    """|<x, x> - kappa| over MODEL_TOL x . x in rational arithmetic, inf where
    the point is not finite, x . x overflows or x is on H^n's lower sheet."""
    if not np.isfinite(sum(v * v for v in x.tolist())) or (geo.kappa < 0 and not x[0] > 0.0):
        return np.inf
    q = [Fraction(v) ** 2 for v in x.tolist()]
    if not geo.kappa:
        return 0.0
    return abs(geo.kappa * q[0] + sum(q[1:]) - geo.kappa) / (Fraction(MODEL_TOL) * sum(q))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(geo=st.sampled_from([euclidean(2), S2, H2, spherical(3), hyperbolic(3)]),
       raw=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       log_off=st.floats(-15.0, -7.0), sign=st.sampled_from((-1.0, 1.0)),
       lower=st.booleans(), bad=st.sampled_from([None, np.nan, np.inf, -np.inf, 1e200]))
def test_point_and_stack_model_tests_agree(geo, raw, log_off, sign, lower, bad):
    """A model point scaled off its model by 1e-15 ... 1e-7 (relative to
    MODEL_TOL x . x at r = 0, ever less further out on H^n), maybe on the
    lower sheet or with a non-finite or huge coordinate: one point's float
    test and the stacked test give the exact answer wherever the point is a
    factor 2 or more from the gate."""
    x = np.array(raw[:geo.ambient_dim])
    if geo.kappa > 0:
        assume(x @ x > 1e-6)
        x /= np.sqrt(x @ x)
    elif geo.kappa < 0:
        x[0] = (-1.0 if lower else 1.0) * np.sqrt(1.0 + x[1:] @ x[1:])
    x *= np.sqrt(1.0 + sign * 10.0 ** log_off)
    if bad is not None:
        x[len(raw) % geo.ambient_dim] = bad
    ratio = _exact_gate(geo, x)
    assume(not 0.5 < ratio < 2.0)

    def accepts(call):
        try:
            with np.errstate(all="ignore"):
                call()
        except NotOnModel:
            return False
        return True

    one = accepts(lambda: check_on_model(geo, x))
    stacked = accepts(lambda: geodesic_distance(geo, np.stack([x, x]), np.stack([x, x])))
    assert one == stacked == (ratio <= 0.5)


def mp_residual(x):
    """|<x, x> + 1| of a float point of H^n, exactly."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(float(v)) for v in x]
        return float(abs(-xs[0] ** 2 + mpmath.fdot(xs[1:], xs[1:]) + 1))


@pytest.mark.parametrize("r", [9.0, 10.0, 15.0])
def test_hyperbolic_points_far_from_the_origin(r):
    """(cosh r, sinh r, 0) in floats is off H^2 by about eps cosh 2r: 2.6e-10
    at r = 9, above an absolute 1e-10, so the model gate is taken relative
    to x . x.  The oracle takes each point on its ray, which moves the
    distance by the point's residual over 2 (times coth d).  The chord
    formula rounds <x - y, x - y> = 2 (cosh d - 1) to about eps (x . x +
    y . y), which moves d by that over 2 sinh d."""
    x = np.array([np.cosh(2.0), np.sinh(2.0) * np.cos(2.5), np.sinh(2.0) * np.sin(2.5)])
    for t in (0.0, 0.7, 2.5):
        y = np.array([np.cosh(r), np.sinh(r) * np.cos(t), np.sinh(r) * np.sin(t)])
        got = geodesic_distance(H2, x, y)
        rho = mp_residual(x) + mp_residual(y)
        assert abs(got - mp_distance(H2, x, y)) <= 4.0 * EPS * got + rho, (r, t)
        tol = 4.0 * EPS * (got + (x @ x + y @ y) / np.sinh(got))
        if t == 2.5:   # x and y on one geodesic through the origin
            assert abs(got - (r - 2.0)) <= tol, r
        stacked = geodesic_distance(H2, x, np.stack([y, x]))
        assert abs(stacked[0] - got) <= tol and stacked[1] == 0.0
        # moved off the model by 1e-6 of x . x, in one coordinate
        for k in range(3):
            off = y.copy()
            off[k] += 1e-6 * (y @ y) / (2.0 * abs(y[k])) if y[k] else 1e-3 * np.sqrt(y @ y)
            with pytest.raises(NotOnModel):
                geodesic_distance(H2, x, off)
