"""Tests for confocal families and elliptic coordinates."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confocal import (
    ConfocalFamily,
    Kind,
    confocal_parameters,
    euclidean,
    geodesic_distance,
    hyperbolic,
    ivory_parallelepiped_check,
    point_from_parameters,
    spherical,
    tangent_parameters_of_line,
)
from confocal.errors import DegeneratePoint, InvalidParameters, NoRealPoint
from confocal.quadrics import (
    confocal_equation,
    confocal_gradient,
    random_interior_point,
)

FAM2 = ConfocalFamily(euclidean(2), (4.0, 1.0))
FAM3 = ConfocalFamily(euclidean(3), (4.0, 2.0, 1.0))
FAM4 = ConfocalFamily(euclidean(4), (5.0, 3.0, 2.0, 1.0))
FAMS2 = ConfocalFamily(spherical(2), (3.0, 2.0), b=1.0)
FAMH2 = ConfocalFamily(hyperbolic(2), (1.0, 0.5), b=2.0)
ALL_FAMS = [FAM2, FAM3, FAMS2, FAMH2]


def _onto_model(fam, x):
    """Put x back on the model: normalise on S^n, recompute x0 on H^n."""
    x = np.array(x, dtype=float)
    if fam.geometry.kind is Kind.SPHERICAL:
        return x / np.linalg.norm(x)
    if fam.geometry.kind is Kind.HYPERBOLIC:
        x[0] = np.sqrt(1.0 + x[1:] @ x[1:])
    return x


def _near_pole_points(fam, rng):
    """Random model points with one spatial coordinate set to +-1e-4 or
    +-1e-5, so that one parameter lies within ~1e-8 to 1e-10 of its pole."""
    m = fam.geometry.ambient_dim
    for i in range(m - fam.n, m):
        for v in (1e-4, -1e-4, 1e-5, -1e-5):
            x = random_interior_point(fam, rng)
            x[i] = v
            yield _onto_model(fam, x)


def test_family_validation():
    with pytest.raises(InvalidParameters):
        ConfocalFamily(euclidean(2), (1.0, 4.0))
    with pytest.raises(InvalidParameters):
        ConfocalFamily(hyperbolic(2), (3.0, 1.0), b=2.0)
    with pytest.raises(InvalidParameters):
        ConfocalFamily(spherical(2), (3.0, 2.0))
    # circle degeneration is allowed in the plane
    assert ConfocalFamily(euclidean(2), (2.0, 2.0)).is_circular


def test_degenerate_axis_points():
    assert np.allclose(confocal_parameters(FAM2, (2.0, 0.0)).lam, (1.0, 0.0))
    assert np.allclose(confocal_parameters(FAM2, (0.0, 1.0)).lam, (4.0, 0.0))
    with pytest.raises(DegeneratePoint):
        confocal_parameters(FAM2, (2.0, 0.0), strict=True)


@pytest.mark.parametrize("fam, x, pole", [
    (FAMS2, (0.0, 0.6, 0.8), -1.0),
    (FAMS2, (0.6, 0.0, 0.8), 3.0),
    (FAMS2, (0.6, 0.8, 0.0), 2.0),
    (FAMH2, (np.sqrt(1.25), 0.0, 0.5), 1.0),
    (FAMH2, (np.sqrt(1.25), 0.5, 0.0), 0.5),
], ids=["S2-x0", "S2-x1", "S2-x2", "H2-x1", "H2-x2"])
def test_degenerate_curved_points(fam, x, pole):
    """A zero coordinate gives its pole exactly (a_i, or -b for x0 = 0 on
    S^n), flagged; the other parameters still solve the secular equation."""
    coords = confocal_parameters(fam, x)
    assert coords.degenerate == (pole,)
    assert pole in coords.lam
    for lv in coords.lam:
        if lv != pole:
            assert abs(confocal_equation(fam, lv, x)) < 1e-12
    assert np.max(np.abs(point_from_parameters(fam, coords) - x)) < 1e-12
    with pytest.raises(DegeneratePoint):
        confocal_parameters(fam, x, strict=True)


def test_roundtrip_axis_points():
    assert np.allclose(point_from_parameters(FAM2, (0.0, 1.0), signs=(1, 1)), (2.0, 0.0))
    assert np.allclose(point_from_parameters(FAM2, (4.0, 0.0), signs=(1, 1)), (0.0, 1.0))


def test_interlacing_and_residual():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = random_interior_point(FAM3, rng)
        lam = confocal_parameters(FAM3, x).lam
        assert 4.0 > lam[0] > 2.0 > lam[1] > 1.0 > lam[2]
        for lv in lam:
            assert abs(confocal_equation(FAM3, lv, x)) < 1e-10


def test_roundtrip_all_geometries():
    rng = np.random.default_rng(7)
    for fam in ALL_FAMS:
        points = [random_interior_point(fam, rng) for _ in range(100)]
        points += _near_pole_points(fam, np.random.default_rng(29))
        for x in points:
            coords = confocal_parameters(fam, x)
            y = point_from_parameters(fam, coords)
            assert np.max(np.abs(np.asarray(x) - y)) < 1e-9


def test_gradient_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_interior_point(FAM3, rng)
        lam = confocal_parameters(FAM3, x).lam
        grads = [confocal_gradient(FAM3, lv, x) for lv in lam]
        for i in range(3):
            for j in range(i + 1, 3):
                gi = grads[i] / np.linalg.norm(grads[i])
                gj = grads[j] / np.linalg.norm(grads[j])
                assert abs(gi @ gj) < 1e-9


def test_noreal_point():
    with pytest.raises(NoRealPoint):
        # two parameters in the same class interval
        point_from_parameters(FAM2, (0.5, 0.2))


def test_point_from_parameters_bad_input():
    with pytest.raises(InvalidParameters):
        point_from_parameters(FAM2, (0.5,))
    with pytest.raises(InvalidParameters):
        point_from_parameters(ConfocalFamily(euclidean(2), (2.0, 2.0)), (1.0, 0.5))


def test_focus_from_parameters():
    # both degenerate members lam = a_2 pass through the focus (sqrt 3, 0)
    focus = (np.sqrt(3.0), 0.0)
    assert np.allclose(point_from_parameters(FAM2, (1.0, 1.0)), focus)
    assert np.allclose(confocal_parameters(FAM2, focus).lam, (1.0, 1.0))


def _secular_oracle(fam, x):
    """Elliptic coordinates of x to 50 digits, descending: the roots of
    sum_j J_j x_j^2 prod_{l != j} (D_j - lam) - c prod_j (D_j - lam), the
    secular equation with denominators cleared."""
    if fam.geometry.kind is Kind.EUCLIDEAN:
        d, sig, c = list(fam.a), [1] * fam.n, 1
    elif fam.geometry.kind is Kind.SPHERICAL:
        d, sig, c = [-fam.b, *fam.a], [1] * (fam.n + 1), 0
    else:
        d, sig, c = [fam.b, *fam.a], [-1] + [1] * fam.n, 0
    with mpmath.workdps(50):
        d, x = ([mpmath.mpf(float(v)) for v in w] for w in (d, x))

        def prod_without(skip):
            p = [mpmath.mpf(1)]  # highest degree first, padded to degree m
            for k, dk in enumerate(d):
                if k != skip:
                    p = [dk * v - u for u, v in zip(p + [0], [0] + p)]
            return [0] * (len(d) + 1 - len(p)) + p

        q = [-c * v for v in prod_without(None)]
        for j in range(len(d)):
            q = [s + sig[j] * x[j] ** 2 * t for s, t in zip(q, prod_without(j))]
        while q[0] == 0:
            q = q[1:]
        roots = mpmath.polyroots(q, maxsteps=200, extraprec=200)
        return sorted((float(mpmath.re(r)) for r in roots), reverse=True)


_coordinate = st.builds(
    lambda sign, size: sign * size,
    st.sampled_from((-1.0, 1.0)),
    st.one_of(st.floats(0.05, 1.5), st.floats(-11.0, -2.0).map(lambda e: 10.0 ** e)),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fam=st.sampled_from([FAM3, FAMS2, FAMH2]),
       raw=st.lists(_coordinate, min_size=3, max_size=3))
def test_parameters_match_secular_oracle(fam, raw):
    """Coordinates near a hyperplane (|x_i| down to 1e-11) put a parameter
    within ~1e-22 of its pole; it must still match the 50-digit root."""
    x = _onto_model(fam, raw)
    lam = np.asarray(confocal_parameters(fam, x).lam)
    oracle = np.asarray(_secular_oracle(fam, x))
    assert len(oracle) == fam.n
    assert np.all(np.abs(lam - oracle) <= 1e-13 * np.maximum(1.0, np.abs(oracle)))


def test_tangent_line_vertex():
    # vertical line x = 2 touches the base ellipse at its vertex
    lam = tangent_parameters_of_line(FAM2, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(lam[0] - 0.0) < 1e-10


def test_tangent_line_through_focus():
    f = np.sqrt(3.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.normal(size=2)
        lam = tangent_parameters_of_line(FAM2, np.array([f, 0.0]), d)
        assert abs(lam[0] - 1.0) < 1e-9


def test_tangent_random_chords():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = random_interior_point(FAM2, rng)
        # scale inside the base ellipse
        x = x * 0.8 / np.sqrt(x[0] ** 2 / 4.0 + x[1] ** 2)
        d = rng.normal(size=2)
        lam = tangent_parameters_of_line(FAM2, x, d)[0]
        assert (0.0 < lam < 1.0) or (1.0 < lam < 4.0)
        # tangency: restricted quadratic has vanishing discriminant
        nu = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        c = nu @ x
        assert abs((4.0 - lam) * nu[0] ** 2 + (1.0 - lam) * nu[1] ** 2 - c * c) < 1e-10


def test_tangent_count_in_space():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = random_interior_point(FAM3, rng)
        d = rng.normal(size=3)
        lams = tangent_parameters_of_line(FAM3, p, d)
        assert len(lams) == 2
        for lv in lams:
            a = np.asarray(FAM3.a)
            qdd = np.sum(d * d / (a - lv))
            qpd = np.sum(p * d / (a - lv))
            qpp = np.sum(p * p / (a - lv)) - 1.0
            assert abs(qpd * qpd - qdd * qpp) < 1e-8


def test_tangent_count_in_four_space():
    rng = np.random.default_rng(19)
    for _ in range(50):
        p = random_interior_point(FAM4, rng)
        lams = tangent_parameters_of_line(FAM4, p, rng.normal(size=4))
        assert len(lams) == 3
        assert lams == sorted(lams)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_tangent_near_pole(side):
    """Lines tangent to the lam-member for lam = a_3 - delta (ellipsoid) and
    a_3 + delta (one-sheeted hyperboloid), delta down to 1e-8, give back lam."""
    a = np.asarray(FAM3.a)
    rng = np.random.default_rng(17)
    for k in range(1, 9):
        lam = a[2] + side * 10.0 ** -k
        for _ in range(5):
            # x_i = sqrt|a_i - lam| u_i lies on the member iff
            # u_1^2 + u_2^2 -+ u_3^2 = 1
            u = rng.normal(size=3)
            if side > 0:
                u[:2] *= np.sqrt(1.0 + u[2] ** 2) / np.linalg.norm(u[:2])
            else:
                u /= np.linalg.norm(u)
            x = np.sqrt(np.abs(a - lam)) * u
            g = x / (a - lam)
            d = rng.normal(size=3)
            d -= (d @ g) / (g @ g) * g
            lams = tangent_parameters_of_line(FAM3, x, d)
            assert len(lams) == 2
            assert np.min(np.abs(np.asarray(lams) - lam)) < 1e-12


def _tangency_oracle(a, p, d):
    """Tangency parameters of the line p + t d to 50 digits: the roots of
    its discriminant with denominators cleared and prod_k (a_k - lam)
    divided out, sum_i d_i^2 P_i - sum_{i<j} (p_i d_j - p_j d_i)^2 P_ij,
    where P_S is prod_k (a_k - lam) over k not in S."""
    n = len(a)
    with mpmath.workdps(50):
        a, p, d = ([mpmath.mpf(float(v)) for v in w] for w in (a, p, d))

        def prod_without(*skip):
            c = [mpmath.mpf(1)]  # highest degree first, padded to degree n-1
            for k in range(n):
                if k not in skip:
                    c = [a[k] * y - x for x, y in zip(c + [0], [0] + c)]
            return [0] * (n - len(c)) + c

        q = [mpmath.mpf(0)] * n
        for i in range(n):
            q = [s + d[i] ** 2 * t for s, t in zip(q, prod_without(i))]
            for j in range(i + 1, n):
                w = (p[i] * d[j] - p[j] * d[i]) ** 2
                q = [s - w * t for s, t in zip(q, prod_without(i, j))]
        roots = mpmath.polyroots(q, maxsteps=200, extraprec=200)
        return sorted(float(mpmath.re(r)) for r in roots)


@pytest.mark.parametrize("fam", [FAM3, FAM4], ids=["n3", "n4"])
def test_tangent_parameters_match_oracle(fam):
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_interior_point(fam, rng)
        d = rng.normal(size=fam.n)
        lams = tangent_parameters_of_line(fam, p, d)
        oracle = _tangency_oracle(fam.a, p, d)
        assert len(lams) == len(oracle) == fam.n - 1
        assert np.max(np.abs(np.asarray(lams) - oracle)) < 1e-12


def test_tangent_zero_direction():
    with pytest.raises(InvalidParameters):
        tangent_parameters_of_line(FAM3, np.ones(3), np.zeros(3))


def test_geodesic_distance_basics():
    assert geodesic_distance(euclidean(2), (0.0, 0.0), (3.0, 4.0)) == 5.0
    assert abs(geodesic_distance(spherical(2), (1, 0, 0), (0, 1, 0)) - np.pi / 2) < 1e-14
    x = np.array([np.sqrt(2.0), 0.0, 1.0])
    assert geodesic_distance(hyperbolic(2), x, x) == 0.0


def test_ivory_boxes_all_geometries():
    for fam in ALL_FAMS:
        rng = np.random.default_rng(17)
        for _ in range(25):
            x1 = random_interior_point(fam, rng)
            x2 = random_interior_point(fam, rng)
            l1 = confocal_parameters(fam, x1).lam
            l2 = confocal_parameters(fam, x2).lam
            intervals = [tuple(sorted((l1[k], l2[k]), reverse=True))
                         for k in range(fam.n)]
            rep = ivory_parallelepiped_check(fam, intervals)
            assert rep["spread"] < 1e-8
            assert rep["passed"]


def test_ivory_named_example():
    rep = ivory_parallelepiped_check(FAM2, [(2.5, 1.5), (0.5, 0.2)])
    assert rep["spread"] < 1e-9


def test_ivory_circle_family():
    fam = ConfocalFamily(euclidean(2), (2.0, 2.0))
    rep = ivory_parallelepiped_check(fam, [(-2.0, 0.5), (0.3, 1.2)])
    assert rep["spread"] < 1e-12
