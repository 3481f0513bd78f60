"""Tests for planar confocal billiards."""

import math
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from confocal import ConfocalFamily, euclidean
from confocal.billiards import (
    CausticChart,
    CausticKind,
    OrientedLine,
    _ellipe,
    _incircle_residuals,
    _line_intersection,
    _rd,
    _reflected,
    _rf,
    _rotation_number,
    canonical_coordinate,
    caustic_of_line,
    circ_diff,
    circumscribed_check,
    exterior_coordinates,
    four_periodic_family,
    ivory_quadrilateral,
    line_conic_intersections,
    poncelet_caustic_for_rotation,
    poncelet_grid,
    poncelet_polygon,
    reflect,
    reflect_direction,
    string_length,
)
from confocal.errors import (
    DegenerateConfiguration,
    InsideCaustic,
    InvalidParameters,
    NoIntersection,
    NotBracketed,
    NotTangent,
    OrbitEscapesTable,
    TangentHit,
)
from confocal.quadrics import confocal_parameters, planar_coordinates, point_from_parameters

FAM = ConfocalFamily(euclidean(2), (4.0, 1.0))
CIRC = ConfocalFamily(euclidean(2), (2.0, 2.0))
_ULP = np.finfo(float).eps


def random_interior_line(rng, scale=0.7):
    x0 = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8)])
    x0 *= scale / max(1.0, np.sqrt(x0[0] ** 2 / 4.0 + x0[1] ** 2))
    return OrientedLine.from_point_direction(x0, rng.normal(size=2))


# -- oriented lines and reflection ------------------------------------------

def test_oriented_line_roundtrip():
    ln = OrientedLine.from_point_direction([1.0, 2.0], [0.6, 0.8])
    assert abs(ln.normal @ np.array([1.0, 2.0]) - ln.p) < 1e-14
    rev = OrientedLine.from_point_direction([1.0, 2.0], [-0.6, -0.8])
    assert abs(circ_diff(rev.alpha / (2 * np.pi), (ln.alpha + np.pi) / (2 * np.pi))) < 1e-14
    assert abs(rev.p + ln.p) < 1e-14


@pytest.mark.parametrize("alpha, p", [(math.nan, 1.0), (math.inf, 1.0), (0.3, math.nan),
                                      (0.3, -math.inf)])
def test_oriented_line_needs_finite_coordinates(alpha, p):
    with pytest.raises(InvalidParameters, match="finite"):
        OrientedLine(alpha, p)


@pytest.mark.parametrize("point, direction", [
    ([1.0, 2.0], [0.0, 0.0]),          # zero direction
    ([1.0, 2.0], [math.nan, 1.0]),     # non-finite direction
    ([1.0, 2.0], [1.0, -math.inf]),
    ([math.nan, 0.0], [1.0, 0.0]),     # non-finite point
    ([0.0, math.inf], [1.0, 1.0]),
])
def test_line_from_point_direction_refuses_bad_input(point, direction):
    """A zero direction gave alpha = 0 and a NaN point p = nan, whose
    intersections with a conic were [nan, nan]."""
    with pytest.raises(InvalidParameters, match="finite"):
        OrientedLine.from_point_direction(point, direction)


# -- the float kernels against their numpy forms ----------------------------

# angles anywhere, on an axis, or within 1e-16..1e-3 of one
_ANGLE = st.one_of(
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    st.integers(0, 3).map(lambda k: k * math.pi / 2.0),
    st.tuples(st.integers(0, 4), st.floats(-16.0, -3.0), st.sampled_from([-1.0, 1.0])).map(
        lambda kes: kes[0] * math.pi / 2.0 + kes[2] * 10.0 ** kes[1]),
)
# offsets and coordinates: zero (through the centre, on an axis), 1e-200 to
# 1e-9, or anywhere up to 1e6; subnormals are left out, as below 2^-1022
# rounding is absolute, not relative to the problem
_COORD = st.one_of(
    st.just(0.0),
    st.tuples(st.floats(-200.0, -9.0), st.sampled_from([-1.0, 1.0])).map(
        lambda es: es[1] * 10.0 ** es[0]),
    st.floats(-1e6, 1e6, allow_subnormal=False),
)


def _numpy_line(alpha):
    """The numpy form of the OrientedLine maps: direction and normal."""
    return np.array([np.cos(alpha), np.sin(alpha)]), np.array([-np.sin(alpha), np.cos(alpha)])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_ANGLE, _COORD, _COORD)
def test_line_maps_match_numpy(alpha, p, t):
    line = OrientedLine(alpha, p)
    d, nu = _numpy_line(line.alpha)
    assert np.max(np.abs(line.direction - d)) <= 2 * _ULP
    assert np.max(np.abs(line.normal - nu)) <= 2 * _ULP
    assert np.max(np.abs(line.foot - p * nu)) <= 4 * _ULP * abs(p)
    assert np.max(np.abs(line.point_at(t) - (p * nu + t * d))) <= 4 * _ULP * (abs(p) + abs(t))


# the four vertex tangents of the lam = 0 ellipse of FAM
_VERTEX_TANGENTS = st.sampled_from([((2.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (-1.0, 0.0)),
                                    ((-2.0, 0.0), (0.0, -1.0)), ((0.0, -1.0), (1.0, 0.0))])
_POINT = st.tuples(_COORD, _COORD)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(_VERTEX_TANGENTS,
                 st.tuples(_POINT, st.one_of(_POINT, _ANGLE.map(lambda a: (math.cos(a), math.sin(a))))),
                 _POINT.map(lambda x: (x, x))))
def test_line_from_point_direction_matches_numpy(point_direction):
    """Vertex tangents, directions along or near an axis, points on or near
    one, and lines through the centre (point 0, or a point along the
    direction)."""
    point, direction = point_direction
    if direction == (0.0, 0.0):
        direction = (1.0, 0.0)
    line = OrientedLine.from_point_direction(point, direction)
    alpha = np.arctan2(direction[1], direction[0])
    p = float(_numpy_line(alpha)[1] @ np.array(point))
    size = abs(point[0]) + abs(point[1])
    assert abs(circ_diff(line.alpha / (2 * np.pi), alpha / (2 * np.pi))) <= 2 * _ULP
    # the point is on the stored line
    assert abs(line.normal @ np.array(point) - line.p) <= 2 * _ULP * size
    # the numpy form takes p from the angle before its reduction mod 2 pi,
    # which moves it by up to half an ulp of 2 pi (2 eps)
    assert abs(line.p - p) <= 8 * _ULP * size


def _numpy_reflect(family, lam, point, direction):
    """reflect_direction's numpy form: d - 2 (d . n) n, n = g / |g|."""
    x, d = np.asarray(point, dtype=float), np.asarray(direction, dtype=float)
    g = np.array([2.0 * x[0] / (family.a[0] - lam), 2.0 * x[1] / (family.a[1] - lam)])
    n = g / np.linalg.norm(g)
    return d - 2.0 * (d @ n) * n


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.floats(-1.0, 0.9), st.floats(1.1, 3.9)), _ANGLE, _ANGLE)
def test_reflect_direction_matches_numpy(lam, th, phi):
    """At points of an ellipse (lam < 1) or hyperbola (lam > 1) member, at
    or near its vertices (th near a multiple of pi/2, and near pi on the
    hyperbola)."""
    A, B = FAM.a[0] - lam, FAM.a[1] - lam
    if lam < 1.0:
        x = (math.sqrt(A) * math.cos(th), math.sqrt(B) * math.sin(th))
    else:
        x = (math.sqrt(A) * math.cosh(th - math.pi), math.sqrt(-B) * math.sinh(th - math.pi))
    d = (math.cos(phi), math.sin(phi))
    got = reflect_direction(FAM, lam, x, d)
    assert np.max(np.abs(got - _numpy_reflect(FAM, lam, x, d))) <= 8 * _ULP
    assert abs(math.hypot(*got) - 1.0) <= 8 * _ULP


def test_reflect_diametral_line_in_circle():
    ln = OrientedLine.from_point_direction([0.0, 0.0], [1.0, 0.0])
    out, pt = reflect(CIRC, 0.0, ln, branch="exit")
    # same line, reversed orientation
    assert abs(out.p) < 1e-12
    assert abs(circ_diff(out.alpha / (2 * np.pi), (ln.alpha + np.pi) / (2 * np.pi))) < 1e-12


def test_reflect_angles_equal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ln = random_interior_line(rng)
        out, pt = reflect(FAM, 0.0, ln, branch="exit")
        n = np.array([2 * pt[0] / 4.0, 2 * pt[1] / 1.0])
        n /= np.linalg.norm(n)
        ci = ln.direction @ n
        co = out.direction @ n
        assert abs(ci + co) < 1e-10


def test_reflect_preserves_caustic():
    rng = np.random.default_rng(1)
    for _ in range(100):
        ln = random_interior_line(rng)
        tag = caustic_of_line(FAM, ln)
        out, _ = reflect(FAM, 0.0, ln, branch="exit")
        assert abs(caustic_of_line(FAM, out).lam - tag.lam) < 1e-9


def test_reflect_through_focus():
    f = np.sqrt(3.0)
    rng = np.random.default_rng(2)
    for _ in range(30):
        ln = OrientedLine.from_point_direction([f, 0.0], rng.normal(size=2))
        out, _ = reflect(FAM, 0.0, ln, branch="exit")
        # reflected line passes through the other focus
        assert abs(out.normal @ np.array([-f, 0.0]) - out.p) < 1e-9


def test_reflect_no_intersection():
    with pytest.raises(NoIntersection):
        reflect(FAM, 0.0, OrientedLine(0.0, 5.0))


@pytest.mark.parametrize("branch", ["entry", "Exit", "forwards", "forward"])
def test_reflect_refuses_an_unknown_branch(branch):
    """Only 'exit' or a callable: a typo is refused, also on a
    line that misses the mirror or touches it."""
    for line in (OrientedLine(0.3, 0.1), OrientedLine(0.0, 5.0),
                 CausticChart(FAM, 0.0).tangent_line_at(0.1)):
        with pytest.raises(InvalidParameters, match="branch"):
            reflect(FAM, 0.0, line, branch=branch)


def test_reflect_forward_both_behind():
    # the foot lies outside the ellipse and both intersections behind it
    ln = OrientedLine(np.pi / 4.0, 1.4)
    ts = line_conic_intersections(FAM, 0.0, ln)
    assert len(ts) == 2 and max(ts) < 0.0
    _, pt = reflect(FAM, 0.0, ln, branch="exit")
    assert np.allclose(pt, ln.point_at(ts[-1]))


@pytest.mark.parametrize("x", [0.0, 0.25, 0.1, 0.4])
def test_tangent_line_is_a_tangent_hit(x):
    """A tangent of the lam = 0 ellipse, at a vertex (x = 0, 0.25: the
    line's foot is the tangency point, where c1^2 - 4 c2 c0 is rounding
    noise) or off the axes, is a double root: reflection is the identity."""
    line = CausticChart(FAM, 0.0).tangent_line_at(x)
    with pytest.raises(TangentHit):
        line_conic_intersections(FAM, 0.0, line)
    assert reflect(FAM, 0.0, line) == (line, None)
    # moved off by 1e-9 the line meets the conic twice, or misses it
    assert len(line_conic_intersections(FAM, 0.0, OrientedLine(line.alpha, line.p * 0.999999999))) == 2
    with pytest.raises(NoIntersection):
        line_conic_intersections(FAM, 0.0, OrientedLine(line.alpha, line.p * 1.000000001))


def test_lines_not_tangent_to_the_caustic():
    chart = CausticChart(FAM, 0.5)
    with pytest.raises(NotTangent, match="tangent to lam=0.29"):
        chart.coordinate_of_line(CausticChart(FAM, 0.3).tangent_line_at(0.2))
    with pytest.raises(NotTangent):
        chart.coordinate_of_line(OrientedLine(0.3, 0.0))
    # a line through the centre has the hyperbola caustic 4 sin^2 a + cos^2 a
    alpha = math.asin(math.sqrt(1.0 / 3.0))
    assert abs(caustic_of_line(FAM, OrientedLine(alpha, 0.0)).lam - 2.0) < 1e-15
    with pytest.raises(NotTangent, match="through the center"):
        CausticChart(FAM, 2.0).coordinate_of_line(OrientedLine(alpha, 0.0))


def test_caustic_kinds():
    # tangent at a vertex of the base ellipse
    ln = OrientedLine.from_point_direction([2.0, 0.0], [0.0, 1.0])
    tag = caustic_of_line(FAM, ln)
    assert tag.kind is CausticKind.ELLIPSE and abs(tag.lam) < 1e-12
    # chord crossing the segment between the foci
    ln = OrientedLine.from_point_direction([0.1, 0.0], [0.2, 1.0])
    tag = caustic_of_line(FAM, ln)
    assert tag.kind is CausticKind.HYPERBOLA and 1.0 < tag.lam < 4.0
    ln = OrientedLine.from_point_direction([np.sqrt(3.0), 0.0], [1.0, 1.0])
    assert caustic_of_line(FAM, ln).kind is CausticKind.FOCAL


def test_area_preservation():
    rng = np.random.default_rng(3)

    def bmap(al, p):
        out, _ = reflect(FAM, 0.0, OrientedLine(al, p), branch="exit")
        return np.array([out.alpha, out.p])

    checked = 0
    for _ in range(60):
        al = rng.uniform(0.0, 2 * np.pi)
        p = rng.uniform(-0.7, 0.7)
        h = 1e-6
        try:
            cols = []
            for dal, dp in [(h, 0.0), (0.0, h)]:
                f1 = bmap(al + dal, p + dp)
                f0 = bmap(al - dal, p - dp)
                d = f1 - f0
                d[0] = (d[0] + np.pi) % (2 * np.pi) - np.pi
                cols.append(d / (2 * h))
        except NoIntersection:
            continue
        det = np.linalg.det(np.array(cols).T)
        assert abs(abs(det) - 1.0) < 1e-6
        checked += 1
    assert checked > 30


def test_commuting_reflections():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ln = random_interior_line(rng, scale=0.5)
        try:
            a, _ = reflect(FAM, 0.0, ln, branch="exit")
            ab, _ = reflect(FAM, 0.3, a, branch="exit")
            b, _ = reflect(FAM, 0.3, ln, branch="exit")
            ba, _ = reflect(FAM, 0.0, b, branch="exit")
        except NoIntersection:
            continue
        assert abs(circ_diff(ab.alpha / (2 * np.pi), ba.alpha / (2 * np.pi))) < 1e-8
        assert abs(ab.p - ba.p) < 1e-8


# -- canonical coordinate ---------------------------------------------------

def test_circle_chart_is_angle():
    chart = CausticChart(CIRC, 1.0)
    for x in (0.1, 0.35, 0.8):
        ln = chart.tangent_line_at(x)
        assert abs(canonical_coordinate(CIRC, 1.0, ln) - x) < 1e-12


class _CircleOracle:
    """The closed forms of a circle caustic of radius r: the chart is the
    polar angle over 2 pi, tangents from a point at distance d touch at
    angles arccos(r / d) to either side of it, and the string is two
    tangent segments and the arc they leave."""

    def __init__(self, r):
        self.r = r

    def point_at(self, x):
        th = 2.0 * np.pi * (x % 1.0)
        return self.r * np.array([np.cos(th), np.sin(th)])

    def coordinate_of_point(self, p):
        return (math.atan2(p[1], p[0]) / (2.0 * math.pi)) % 1.0

    def tangent_line_at(self, x):
        th = 2.0 * np.pi * (x % 1.0)
        return OrientedLine.from_point_direction(self.point_at(x), [-np.sin(th), np.cos(th)])

    def tangency_points_from(self, P):
        phi, dth = np.arctan2(P[1], P[0]), np.arccos(self.r / np.hypot(*P))
        return [self.r * np.array([np.cos(phi + s * dth), np.sin(phi + s * dth)])
                for s in (-1.0, 1.0)]

    def exterior_coordinates(self, P):
        x1, x2 = (self.coordinate_of_point(t) for t in self.tangency_points_from(P))
        for xa, xb in ((x1, x2), (x2, x1)):
            mid = self.point_at(xa + ((xb - xa) % 1.0) / 2.0)
            if (P - mid) @ mid > 0.0:
                return xa, xb
        return x1, x2

    def string_length(self, P):
        r, d = self.r, np.hypot(*P)
        return 2.0 * np.sqrt(d * d - r * r) + r * (2.0 * np.pi - 2.0 * np.arccos(r / d))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(-6.0, math.log10(math.sqrt(2.0)), exclude_max=True),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(-3.0, 2.0),
       st.floats(-math.pi, math.pi))
def test_circle_chart_matches_closed_forms(radius_exp, x, out_exp, phi):
    """A circle caustic runs through the ellipse chart at mc = 1; the closed
    forms of the circle are its oracle.  Radii from 1e-6 to sqrt(a1) of
    CIRC, exterior points at 1 + 1e-3 to 1 + 1e2 radii.  The tangency
    angle arccos(r / d) amplifies a rounding of d / r by 1 / sqrt((d/r)^2 - 1),
    and its gates carry that factor."""
    lam_c = 2.0 - (10.0 ** radius_exp) ** 2
    chart, circle = CausticChart(CIRC, lam_c), _CircleOracle(math.sqrt(2.0 - lam_c))
    r = circle.r
    assert chart.kind is CausticKind.ELLIPSE and chart.mc == 1.0

    assert np.max(np.abs(chart.point_at(x) - circle.point_at(x))) <= 8 * _ULP * r
    p = circle.point_at(x)
    assert abs(circ_diff(chart.coordinate_of_point(p), circle.coordinate_of_point(p))) <= 4 * _ULP
    got, exp = chart.tangent_line_at(x), circle.tangent_line_at(x)
    assert abs(circ_diff(got.alpha / (2 * np.pi), exp.alpha / (2 * np.pi))) <= 4 * _ULP
    assert abs(got.p - exp.p) <= 4 * _ULP * r
    assert abs(chart.perimeter() - 2.0 * np.pi * r) <= 4 * _ULP * 2.0 * np.pi * r

    d = r * (1.0 + 10.0 ** out_exp)
    P = d * np.array([math.cos(phi), math.sin(phi)])
    cond = 1.0 + 1.0 / math.sqrt((np.hypot(*P) / r) ** 2 - 1.0)
    for g, e in zip(chart.tangency_points_from(P), circle.tangency_points_from(P)):
        assert np.max(np.abs(g - e)) <= 8 * _ULP * cond * r
    for g, e in zip(exterior_coordinates(CIRC, lam_c, P), circle.exterior_coordinates(P)):
        assert abs(circ_diff(g, e)) <= 8 * _ULP * cond
    expect = circle.string_length(P)
    assert abs(string_length(CIRC, lam_c, P) - expect) <= 8 * _ULP * expect


def test_line_through_the_circle_centre_is_focal():
    # the centre is the radius-0 member lam = a1, as a focus is of an ellipse
    for alpha in np.linspace(0.0, 2.0 * np.pi, 13):
        tag = caustic_of_line(CIRC, OrientedLine(alpha, 0.0))
        assert tag.kind is CausticKind.FOCAL and abs(tag.lam - 2.0) < 1e-15


def test_caustic_parameter_errors_name_their_case():
    for fam in (FAM, CIRC):
        for lam_c in fam.a:
            with pytest.raises(InvalidParameters, match="collides with a focal value"):
                CausticChart(fam, lam_c)
        for lam_c in (fam.a[0] + 1e-9, fam.a[0] + 1.0, math.inf, math.nan):
            with pytest.raises(InvalidParameters, match="outside the family"):
                CausticChart(fam, lam_c)


def test_ellipse_reflection_is_shift():
    chart = CausticChart(FAM, 0.5)
    rng = np.random.default_rng(5)
    shifts = []
    for _ in range(100):
        x = rng.uniform(0.0, 1.0)
        ln = chart.tangent_line_at(x)
        out, _ = reflect(FAM, 0.0, ln, branch="exit")
        shifts.append(circ_diff(chart.coordinate_of_line(out, tol=1e-6), x))
    assert max(shifts) - min(shifts) < 1e-8


def test_hyperbola_reflection_is_reversal():
    chart = CausticChart(FAM, 0.5)
    rng = np.random.default_rng(6)
    first_quadrant = lambda pt: pt[0] > 0.0 and pt[1] > 0.0
    sums = []
    for _ in range(200):
        x = rng.uniform(0.0, 1.0)
        ln = chart.tangent_line_at(x)
        try:
            out, _ = reflect(FAM, 2.0, ln, branch=first_quadrant)
        except NoIntersection:
            continue
        sums.append((x + chart.coordinate_of_line(out, tol=1e-6)) % 1.0)
    assert len(sums) >= 100
    s0 = np.median(sums)
    assert max(abs(circ_diff(s, s0)) for s in sums) < 1e-8


def test_hyperbola_caustic_chart_roundtrip():
    chart = CausticChart(FAM, 2.0)
    for x in (0.0, 0.02, 0.2, 0.45, 0.6, 0.9):
        ln = chart.tangent_line_at(x)
        assert abs(circ_diff(chart.coordinate_of_line(ln, tol=1e-6), x)) < 1e-9
    # at the vertex the tangent direction (+-0, sqrt(-B / c1)) is vertical
    assert chart.tangent_line_at(0.0) == OrientedLine.from_point_direction((math.sqrt(2.0), 0.0),
                                                                          (0.0, 1.0))


def test_exterior_coordinates_sweeps():
    # x2 - x1 constant on a confocal ellipse
    diffs = []
    for th in np.linspace(0.0, 2 * np.pi, 60, endpoint=False):
        P = np.array([np.sqrt(3.9) * np.cos(th), np.sqrt(0.9) * np.sin(th)])
        x1, x2 = exterior_coordinates(FAM, 0.5, P)
        diffs.append((x2 - x1) % 1.0)
    assert max(diffs) - min(diffs) < 1e-8
    # x2 + x1 constant on a confocal hyperbola branch
    sums = []
    for s in np.linspace(0.9, 1.8, 40):
        P = np.array([np.sqrt(2.5) * np.cosh(s), np.sqrt(0.5) * np.sinh(s)])
        x1, x2 = exterior_coordinates(FAM, 0.5, P)
        sums.append((x1 + x2) % 1.0)
    s0 = np.median(sums)
    assert max(abs(circ_diff(s, s0)) for s in sums) < 1e-8
    # axial symmetry: x1 + x2 = 0 mod 1 on the major axis
    x1, x2 = exterior_coordinates(FAM, 0.5, np.array([2.5, 0.0]))
    assert abs(circ_diff(x1 + x2, 0.0)) < 1e-10


def test_exterior_inside_raises():
    with pytest.raises(InsideCaustic):
        exterior_coordinates(FAM, 0.5, np.array([0.1, 0.1]))


# -- Ivory quadrilaterals ---------------------------------------------------

def test_ivory_quadrilateral_example():
    q = ivory_quadrilateral(FAM, 0.0, 0.6, 1.4, 3.0)
    assert abs(q["AC"] - q["BD"]) < 1e-9
    assert abs(q["lam_AC"] - q["lam_BD"]) < 1e-9


def test_ivory_quadrilateral_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        le = np.sort(rng.uniform(-1.0, 0.95, size=2))
        lh = np.sort(rng.uniform(1.05, 3.95, size=2))
        q = ivory_quadrilateral(FAM, le[0], le[1], lh[0], lh[1])
        assert abs(q["AC"] - q["BD"]) < 1e-9
        assert abs(q["lam_AC"] - q["lam_BD"]) < 1e-9


# t over the family, and within 1e-3 .. 1e-11 of either end
_FAMILY_TS = np.concatenate([np.linspace(0.0, 1.0, 20), 10.0 ** -np.arange(3.0, 12.0),
                             1.0 - 10.0 ** -np.arange(3.0, 12.0)])


def _seeded_quadrilaterals():
    """Eighteen random quadrilaterals with an ellipse caustic (seed 5),
    split by where the diagonal BD touches the caustic, and those with a
    hyperbola caustic drawn on the way."""
    rng = np.random.default_rng(5)
    good, bad, hyperbola = [], [], []
    while len(good) + len(bad) < 18:
        le = np.sort(rng.uniform(-1.0, 0.95, size=2))
        lh = np.sort(rng.uniform(1.05, 3.95, size=2))
        q = ivory_quadrilateral(FAM, le[0], le[1], lh[0], lh[1])
        if q["lam_AC"] >= FAM.a[1]:
            hyperbola.append(q)
            continue
        # the touch point's fraction along BD, from the chart
        touch = CausticChart(FAM, q["lam_BD"]).tangency_of_line(q["line_BD"])
        along = (touch - q["B"]) @ (q["D"] - q["B"]) / q["BD"] ** 2
        (bad if 0.0 < along < 1.0 else good).append(q)
    return good, bad, hyperbola


def _traced_family(q, t):
    """The leg-by-leg trace the diamond replaced, kept as its oracle:
    launch from P along the tangent to the caustic that meets H1, and
    reflect on to the first point of each arc.  Returns P, Q, R, S and the
    point where the fourth leg lands."""
    (e1, e2), (h1, h2) = q["lam_e"], q["lam_h"]
    chart = CausticChart(FAM, 0.5 * (q["lam_AC"] + q["lam_BD"]))
    P = point_from_parameters(FAM, (h2 + t * (h1 - h2), e1), signs=(1, 1)).tolist()

    def hit(x, d, mirror, ends):
        line = OrientedLine.from_point_direction(x, d)
        t0 = x[0] * line.cs[0] + x[1] * line.cs[1]
        for s in line_conic_intersections(FAM, mirror, line):
            y = line.point_at(s)
            # on the arc: its other coordinate, the trace less the mirror,
            # lies between the ends
            other = FAM.a[0] + FAM.a[1] - y @ y - mirror
            if s - t0 > 1e-9 and min(y) > -1e-7 and min(ends) - 1e-6 <= other <= max(ends) + 1e-6:
                return y.tolist()
        raise OrbitEscapesTable("reflection misses the bounding arcs")

    for tx, ty in chart.tangency_points_from(P):
        try:
            pts = [P, hit(P, (tx - P[0], ty - P[1]), h1, (e1, e2))]
            break
        except OrbitEscapesTable:
            pass
    mirrors = [(h1, (e1, e2)), (e2, (h1, h2)), (h2, (e1, e2)), (e1, (h1, h2))]
    d = np.subtract(pts[1], P)
    for k in range(1, 4):
        d = _reflected(FAM, mirrors[k - 1][0], pts[-1], d)
        pts.append(hit(pts[-1], d, *mirrors[k]))
    return np.array(pts)


def _assert_member(q, r):
    """Perimeter 2 BD (Ivory's lemma), the reflection law at every vertex,
    and every leg tangent to the diagonals' caustic, at rounding."""
    lam = 0.5 * (q["lam_AC"] + q["lam_BD"])
    assert abs(r["perimeter"] - 2.0 * q["BD"]) <= 1e-12 * q["BD"]
    assert r["closure_gap"] <= 1e-12 * q["BD"]
    pts = [r[X] for X in "PQRS"]
    for X, Y in zip(pts, pts[1:] + pts[:1]):
        # the rounding of the ends turns the leg by about eps (|X| + |Y|) / leg,
        # which moves its caustic by that much times a1 + |X|^2 + |Y|^2
        leg = np.linalg.norm(Y - X)
        if leg > 0.0:
            tag = caustic_of_line(FAM, OrientedLine.from_point_direction(X, Y - X))
            turn = _ULP * (np.linalg.norm(X) + np.linalg.norm(Y)) / leg
            assert abs(tag.lam - lam) <= 128 * turn * (FAM.a[0] + X @ X + Y @ Y)


def test_four_periodic_family():
    q = ivory_quadrilateral(FAM, 0.0, 0.6, 1.4, 3.0)
    for t in _FAMILY_TS:
        _assert_member(q, four_periodic_family(FAM, q, t))
    # at the ends the diagonals themselves
    r0, r1 = four_periodic_family(FAM, q, 0.0), four_periodic_family(FAM, q, 1.0)
    for r, corners in ((r0, "DBBD"), (r1, "AACC")):
        for X, corner in zip("PQRS", corners):
            assert np.allclose(r[X], q[corner], rtol=0.0, atol=8 * _ULP * q["BD"])
    # the random quadrilaterals: where BD touches the caustic inside its
    # segment the family is refused at every t, and elsewhere every member is
    good, bad, hyperbola = _seeded_quadrilaterals()
    assert (len(good), len(bad)) == (10, 8)
    for q in good:
        for t in _FAMILY_TS:
            _assert_member(q, four_periodic_family(FAM, q, t))
    for q in bad:
        for t in _FAMILY_TS:
            with pytest.raises(OrbitEscapesTable):
                four_periodic_family(FAM, q, t)
    assert hyperbola
    for q in hyperbola:
        for t in (0.0, 0.5, 1.0):
            with pytest.raises(InvalidParameters, match="ellipse caustics"):
                four_periodic_family(FAM, q, t)


def test_four_periodic_family_matches_the_trace():
    """On the inner t of the quadrilaterals where the family exists, the
    diamond's vertices are those of the leg-by-leg trace."""
    good, _, _ = _seeded_quadrilaterals()
    for q in good + [ivory_quadrilateral(FAM, 0.0, 0.6, 1.4, 3.0)]:
        for t in np.linspace(0.0, 1.0, 20)[1:-1]:
            traced, r = _traced_family(q, t), four_periodic_family(FAM, q, t)
            assert np.linalg.norm(traced[4] - traced[0]) < 1e-8
            assert np.abs(traced[:4] - [r[X] for X in "PQRS"]).max() <= 1e-12


def test_four_periodic_gate_sees_a_moved_caustic():
    """The caustic moved by 1e-9: the diamond still closes, by its
    construction, but the reflection law fails at its vertices by far more
    than test_four_periodic_family's gate; the planar workload's 1e-8 gate
    on closure_gap would not see it."""
    q = ivory_quadrilateral(FAM, 0.0, 0.6, 1.4, 3.0)
    moved = {**q, "lam_AC": q["lam_AC"] + 1e-9, "lam_BD": q["lam_BD"] + 1e-9}
    for t in _FAMILY_TS:
        assert four_periodic_family(FAM, moved, t)["closure_gap"] > 1e-12 * q["BD"]


# where an end of a diagonal lies on its tangent to the caustic, as a
# fraction of the way from the touch point to the axis on its side: at the
# touch point, within 1e-6 of it, or anywhere
_FROM_TOUCH = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6, allow_subnormal=False),
                        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(-1.0, 0.99), st.floats(0.01, 1.56), _FROM_TOUCH, _FROM_TOUCH)
# a corner 4.6e-14 off the x axis (h1 - a2), where h2 + t (h1 - h2) rounds
# below h1 at t = 1: P past A misses by 2e-8 of the corners' size
@example(0.8802139793296015, 1.4237727648942795, 0.0, -0.9999957073790232)
def test_four_periodic_family_is_refused_or_exists(lam_c, th, fb, fd):
    """Quadrilaterals built on a diagonal tangent to the lam_c caustic at
    eccentric angle th, with its touch point at or near an end, inside or
    outside: each is refused at every t, and exactly when the touch point
    lies inside, or every member has perimeter 2 BD and obeys the
    reflection law.  The gate is relative to the corners' size, not to BD:
    a thin table rounds at its corners' scale, and a caustic near the
    focal value a2 magnifies the rounding of lam by about 1 / (a2 - lam)."""
    ra, rb = math.sqrt(FAM.a[0] - lam_c), math.sqrt(FAM.a[1] - lam_c)
    touch = np.array([ra * math.cos(th), rb * math.sin(th)])
    # the tangent meets the y axis at ray parameter cot th, the x axis at -tan th
    ss = [f / math.tan(th) if f > 0.0 else f * math.tan(th) for f in (fb, fd)]
    ends = [touch + s * np.array([-ra * math.sin(th), rb * math.cos(th)]) for s in ss]
    (hb, eb), (hd, ed) = (confocal_parameters(FAM, x).lam for x in ends)
    es, hs = sorted((eb, ed)), sorted((hb, hd))
    assume(es[0] < es[1] and FAM.a[1] < hs[0] < hs[1] < FAM.a[0])
    q = ivory_quadrilateral(FAM, *es, *hs)
    scale = max(np.abs(q[X]).max() for X in "ABCD")
    refused = []
    for t in (0.0, 1e-11, 0.3, 0.7, 1.0 - 1e-11, 1.0):
        try:
            r = four_periodic_family(FAM, q, t)
        except OrbitEscapesTable:
            refused.append(t)
            continue
        assert abs(r["perimeter"] - 2.0 * q["BD"]) <= 1e-12 * scale
        assert r["closure_gap"] <= 1e-12 * scale
    assert len(refused) in (0, 6)
    if min(abs(fb), abs(fd)) > 1e-9:
        assert bool(refused) == (fb * fd < 0.0)


@pytest.mark.parametrize("t", [1.5, -0.5, math.nan])
def test_four_periodic_family_needs_t_in_unit_interval(t):
    q = ivory_quadrilateral(FAM, 0.0, 0.6, 1.4, 3.0)
    with pytest.raises(InvalidParameters, match="0 <= t <= 1"):
        four_periodic_family(FAM, q, t)


@pytest.mark.parametrize("t", [0.0, 0.1, 0.3, 1.0])
def test_four_periodic_orbit_escapes_the_table(t):
    q = ivory_quadrilateral(FAM, -0.8, 0.3, 1.5, 3.8)
    with pytest.raises(OrbitEscapesTable):
        four_periodic_family(FAM, q, t)


_E_SIDE = st.floats(-1.0, 0.95)
_H_SIDE = st.floats(1.05, 3.95)
# the fraction along a side, at its ends, within 1e-9 of them, or anywhere
_ALONG = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e-9),
                   st.floats(1.0 - 1e-9, 1.0), st.floats(0.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.tuples(_E_SIDE, _E_SIDE), st.tuples(_H_SIDE, _H_SIDE),
       st.integers(0, 3), _ALONG)
def test_arc_coordinate_is_the_trace(es, hs, side, s):
    """The other coordinate of a point of a side, a1 + a2 - |x|^2 - mirror:
    the trace of diag(a) - x x^T less the mirror, the identity
    _hyperbola_root rests on, against the eigenvalues of
    confocal_parameters (the oracle)."""
    es, hs = sorted(es), sorted(hs)
    mirror, ends = (es[side], hs) if side < 2 else (hs[side - 2], es)
    other = ends[0] + s * (ends[1] - ends[0])
    x = point_from_parameters(FAM, (other, mirror) if side < 2 else (mirror, other), signs=(1, 1))
    oracle = [lam for lam in confocal_parameters(FAM, x).lam if (lam > FAM.a[1]) == (side < 2)]
    trace = FAM.a[0] + FAM.a[1] - x @ x - mirror
    assert abs(trace - oracle[0]) <= 4 * _ULP * (FAM.a[0] + FAM.a[1] + x @ x + abs(mirror))


# -- circumscribed quadrilaterals -------------------------------------------

def _outer_corner(th):
    """The point at eccentric angle th of the lam = 0.05 ellipse of FAM."""
    return np.array([np.sqrt(3.95) * np.cos(th), np.sqrt(0.95) * np.sin(th)])


def test_circumscribed_random():
    rng = np.random.default_rng(8)
    pairs = []
    while len(pairs) < 50:
        th1, th2 = rng.uniform(0.15, 2.9, size=2)
        if abs(th1 - th2) >= 0.3:
            pairs.append((th1, th2))
    # corners near opposite ends of the major axis, where about half the
    # pairs make ACBD ex-tangential: every touch point outside its side
    far = [(rng.uniform(0.15, 0.45), rng.uniform(np.pi - 0.6, 2.9)) for _ in range(50)]
    pairs += [(0.2, 2.8), (2.8, 0.2)] + far + [(th2, th1) for th1, th2 in far[:10]]
    for th1, th2 in pairs:
        rep = circumscribed_check(FAM, _outer_corner(th1), _outer_corner(th2), 0.5)
        assert rep["perimeter_residual"] < 1e-9, (th1, th2)
        assert rep["tangency_residual"] < 1e-9, (th1, th2)
        assert rep["hyperbola_mismatch"] < 1e-9, (th1, th2)


@pytest.mark.parametrize("th1, th2", [(0.7, 2.1), (1.4, 0.4), (0.2, 2.8)])
@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_circumscribed_sees_a_moved_caustic(monkeypatch, th1, th2, shift):
    # the lines from B touch a caustic 1e-6 off that of the lines from A:
    # the four lines no longer touch one circle, and the check says so
    A, B = _outer_corner(th1), _outer_corner(th2)
    exact = CausticChart.tangency_points_from

    def moved(chart, point):
        if np.array_equal(point, B):
            chart = CausticChart(chart.family, chart.lam_c + shift)
        return exact(chart, point)

    monkeypatch.setattr(CausticChart, "tangency_points_from", moved)
    assert circumscribed_check(FAM, A, B, 0.5)["tangency_residual"] > 1e-9


def test_circumscribed_symmetric_center_on_axis():
    th = 0.8
    A = np.array([np.sqrt(3.95) * np.cos(th), np.sqrt(0.95) * np.sin(th)])
    B = np.array([-A[0], A[1]])
    rep = circumscribed_check(FAM, A, B, 0.5)
    assert abs(rep["incircle_center"][0]) < 1e-9


def test_circumscribed_needs_confocal_hyperbolas():
    """Concentric circles have no confocal hyperbolas to compare C and D
    on (the closed-form root would read a2 at every point)."""
    with pytest.raises(InvalidParameters, match="circular"):
        circumscribed_check(CIRC, [1.3, 0.3], [-1.3, 0.3], 0.5)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_ANGLE, st.integers(0, 1), st.one_of(st.floats(-1e-2, 1e-2), st.floats(0.0, math.pi)),
       _COORD, _COORD)
def test_line_intersection_matches_solve(alpha, half_turns, turn, p1, p2):
    """Cramer's rule against np.linalg.solve on the unit normals: lines
    nearly parallel or antiparallel (within 1e-2 rad, down to parallel),
    through the centre (p = 0), or along an axis.  Both solves are within
    eps |M^-1| (|x| + |p|) of the point, |M^-1| <= sqrt 2 / |det|."""
    l1, l2 = OrientedLine(alpha, p1), OrientedLine(alpha + half_turns * math.pi + turn, p2)
    M, rhs = np.vstack([l1.normal, l2.normal]), np.array([l1.p, l2.p])
    with np.errstate(divide="ignore"):   # LU of an exactly singular M
        det = np.linalg.det(M)
    if abs(det) < 0.99e-12:
        with pytest.raises(DegenerateConfiguration):
            _line_intersection(l1, l2)
    elif abs(det) > 1.01e-12:
        want = np.linalg.solve(M, rhs)
        got = _line_intersection(l1, l2)
        scale = (np.max(np.abs(want)) + np.max(np.abs(rhs))) / abs(det)
        assert np.max(np.abs(np.array(got) - want)) <= 8 * _ULP * scale


def _planar_oracle(a, x):
    """The roots of det(diag(a) - x x^T - lam), larger first, from its
    trace and determinant, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a1, a2, u, v = (mpmath.mpf(t) for t in (*a, *x))
        tr = a1 + a2 - u * u - v * v
        det = (a1 - u * u) * (a2 - v * v) - u * u * v * v
        root = mpmath.sqrt(tr * tr / 4 - det)
        return tr / 2 + root, tr / 2 - root


_SCALE = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
_TINY = st.one_of(st.just(0.0), st.floats(-300.0, -3.0).map(lambda e: 10.0 ** e))
_FAR = st.tuples(st.floats(0.0, 11.0), _ANGLE).map(
    lambda ra: (10.0 ** ra[0] * math.cos(ra[1]), 10.0 ** ra[0] * math.sin(ra[1])))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_SCALE, _SCALE, st.sampled_from(["x-axis", "y-axis", "focus", "far"]),
       st.floats(-3.0, 3.0), _TINY, _TINY, _FAR)
def test_hyperbola_root_matches_mpmath(a2, gap, where, along, off, shift, far):
    """planar_coordinates against 50 digits, for families a2 in [1e-3, 1e3]
    and a1 - a2 in [1e-3, 1e3], at points near each axis, near a focus
    (+-sqrt(a1 - a2), 0), and far out, at |x| up to 1e11.  The hyperbola
    holds to the rounding of a1 + a2 everywhere, tighter than the
    eps (a1 + a2 + |x|^2) that eigvalsh's backward error allows: far out
    a1 + a2 - |x|^2 and the root of the discriminant cancel, and there the
    shift above a2 is their quotient form.  Over 20000 of these draws
    eigvalsh missed by up to 5e22 eps (a1 + a2) far out and 4e3 near a
    focus, and the cancelling form by 8e15; this form by 1.8.  The ellipse
    holds to the rounding of max(a1 + a2, |lam|); the float and the array
    path agree to the bit."""
    fam = ConfocalFamily(euclidean(2), (a2 + gap, a2))
    a1, a2 = fam.a
    focus = math.sqrt(a1 - a2)
    x = {"x-axis": (along * math.sqrt(a1), off), "y-axis": (off, along * math.sqrt(a1)),
         "focus": (math.copysign(focus, along) * (1.0 + shift), off), "far": far}[where]
    hyp, ell = (float(v) for v in planar_coordinates(a1, a2, *x))
    want_hyp, want_ell = _planar_oracle(fam.a, x)
    assert ell <= a2 <= hyp
    assert abs(hyp - want_hyp) <= 4 * _ULP * (a1 + a2)
    assert abs(ell - want_ell) <= 4 * _ULP * max(a1 + a2, abs(ell))
    stacked = planar_coordinates(a1, a2, np.array([x[0], 0.0]), np.array([x[1], 0.0]))
    assert stacked[0][0] == hyp and stacked[1][0] == ell


@pytest.mark.parametrize("a", [(5.0, 1.0), (4.0, 3.0)])
def test_planar_coordinates_at_a_focus(a):
    """At a focus on the x axis (exact in these families) h = r = g = 0,
    and both roots are a2, on floats and on arrays, with no 0 / 0."""
    focus = math.sqrt(a[0] - a[1])
    assert tuple(map(float, planar_coordinates(*a, focus, 0.0))) == (a[1], a[1])
    hyp, ell = planar_coordinates(*a, np.array([focus, -focus]), np.zeros(2))
    assert hyp.tolist() == ell.tolist() == [a[1], a[1]]


# -- Poncelet ---------------------------------------------------------------

def test_poncelet_circle_closed_forms():
    R = np.sqrt(2.0)
    lam = poncelet_caustic_for_rotation(CIRC, 0.0, 1, 3)
    assert abs(np.sqrt(2.0 - lam) - R / 2.0) < 1e-9
    lam = poncelet_caustic_for_rotation(CIRC, 0.0, 1, 4)
    assert abs(np.sqrt(2.0 - lam) - R / np.sqrt(2.0)) < 1e-9


def test_poncelet_nine_gon():
    lam_c = poncelet_caustic_for_rotation(FAM, 0.0, 2, 9)
    for x0 in np.linspace(0.0, 0.95, 20):
        _, gap = poncelet_polygon(FAM, 0.0, lam_c, 9, x0)
        assert gap < 1e-7


def test_poncelet_grid():
    g = poncelet_grid(FAM, 0.0, 9, 2)
    assert g["closure_gap"] < 1e-7
    assert len(g["radial_spread"]) == 9
    assert max(g["concentric_spread"].values()) < 1e-8
    assert max(g["radial_spread"].values()) < 1e-8
    assert max(g["quad_residuals"]) < 1e-8


def test_poncelet_grid_q7():
    g = poncelet_grid(FAM, 0.0, 7, 2)
    assert max(g["concentric_spread"].values()) < 1e-8


@pytest.mark.parametrize("q, p, start_x", [
    (9, 2, 0.0), (9, 2, 0.37), (41, 2, 0.0), (41, 2, 0.37),
    (8, 3, 0.0),    # even q: opposite sides are parallel and skipped
])
def test_poncelet_grid_points_match_loop(q, p, start_x):
    """The per-point loop as oracle: one _line_intersection and one
    confocal_parameters per pair of sides.  The stacked Cramer's rule and
    planar_coordinates take the same IEEE steps on arrays as on one point's
    floats, so everything agrees exactly.  confocal_parameters pins a
    coordinate within 1e-12 of zero to its pole and the grid does not; that
    moves a coordinate by ~1e-24, below rounding."""
    g = poncelet_grid(FAM, -0.2, q, p, start_x)
    verts = g["vertices"]
    sides = [OrientedLine.from_point_direction(verts[i], verts[(i + 1) % q] - verts[i])
             for i in range(q)]
    points, concentric, radial = {}, {}, {}
    for i in range(q):
        for j in range(i + 1, q):
            try:
                points[(i, j)] = _line_intersection(sides[i], sides[j])
            except DegenerateConfiguration:
                continue
            lam = confocal_parameters(FAM, np.abs(points[(i, j)])).lam
            concentric.setdefault(min((j - i) % q, (i - j) % q), []).append(min(lam))
            radial.setdefault((i + j) % q, []).append(max(lam))
    assert list(g["points"]) == list(points)
    for key, pt in points.items():
        assert np.array_equal(g["points"][key], pt), key
    assert g["concentric_spread"] == {
        d: float(np.max(v) - np.min(v)) for d, v in concentric.items()}
    assert g["radial_spread"] == {s: float(np.ptp(v)) for s, v in radial.items()}
    if q % 2 == 0:
        assert len(points) < q * (q - 1) // 2


def _tangent_circle_residual(lines):
    """Per-cell loop oracle for _incircle_residuals: least squares per
    sign pattern, the smallest max-abs residual.  It solves in units of the
    power of two just above the largest offset, an exact scaling, so that
    subnormal offsets are not rounded before the residual is."""
    unit = math.ldexp(1.0, math.frexp(max(abs(ln.p) for ln in lines))[1])
    best = np.inf
    for signs in product([1.0, -1.0], repeat=3):
        sv = (1.0,) + signs
        rows = [[ln.normal[0], ln.normal[1], -s] for ln, s in zip(lines, sv)]
        rhs = [ln.p / unit for ln in lines]
        sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
        c = sol[:2]
        resid = max(abs((ln.normal @ c - p) - s * sol[2]) for ln, s, p in zip(lines, sv, rhs))
        best = min(best, resid)
    return float(best) * unit


@pytest.mark.parametrize("q", [9, 41])
def test_poncelet_grid_residuals_match_loop(q):
    g = poncelet_grid(FAM, -0.2, q, 2, 0.37)
    verts = g["vertices"]
    sides = [OrientedLine.from_point_direction(verts[i], verts[(i + 1) % q] - verts[i])
             for i in range(q)]
    expect = []
    for i in range(q):
        for j in range(i + 1, q):
            idx = [i, (i + 1) % q, j, (j + 1) % q]
            if len(set(idx)) == 4:
                expect.append(_tangent_circle_residual([sides[k] for k in idx]))
    assert len(g["quad_residuals"]) == len(expect)
    assert max(abs(a - b) for a, b in zip(g["quad_residuals"], expect)) < 1e-12


_DIRECTION = st.floats(0.0, 0.5)
_OFFSETS = st.tuples(*[st.floats(-10.0, 10.0)] * 4)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.tuples(_DIRECTION, _DIRECTION, _DIRECTION, _DIRECTION), _OFFSETS,
       st.tuples(*[st.booleans()] * 4),
       st.one_of(st.none(), st.floats(-1e-6, 1e-6)))
def test_incircle_residuals_match_lstsq(spread, offsets, flips, near):
    """Four lines in general position, or with lines 0 and 1 within 1e-6
    rad of parallel (either orientation), against per-pattern least
    squares, to rounding in units of the largest offset."""
    alpha = [spread[k] + k * math.pi / 4.0 + math.pi * flips[k] for k in range(4)]
    if near is not None:
        alpha[1] = alpha[0] + near + math.pi * flips[1]
    lines = [OrientedLine(a, p) for a, p in zip(alpha, offsets)]
    normals = np.array([ln.normal for ln in lines])
    got = _incircle_residuals(normals, np.array(offsets)).min()
    assert abs(got - _tangent_circle_residual(lines)) <= 1e-12 * max(map(abs, offsets))


def reflection_shift(family, outer_lam, lam_c, x0=0.13):
    """Oracle for the rotation number: the canonical-coordinate shift of
    one reflection in the outer ellipse, as a value in (0, 1/2)."""
    chart = CausticChart(family, lam_c)
    line = chart.tangent_line_at(x0)
    out, _ = reflect(family, outer_lam, line, branch="exit")
    return abs(circ_diff(chart.coordinate_of_line(out, tol=1e-6), x0))


def test_rotation_number_matches_reflection_shift():
    rng = np.random.default_rng(9)
    for _ in range(40):
        outer = rng.uniform(-1.0, 0.9)
        lam_c = outer + rng.uniform(0.02, 0.98) * (1.0 - outer)
        rho = _rotation_number(FAM, outer, lam_c)
        assert 0.0 < rho < 0.5
        assert abs(rho - reflection_shift(FAM, outer, lam_c)) < 1e-12


def test_poncelet_caustic_has_the_rotation_number():
    # solved to the last bit: p/q lies between rho at the neighbouring doubles
    for p, q in [(1, 3), (2, 9), (2, 41), (18, 41)]:
        lam_c = poncelet_caustic_for_rotation(FAM, -0.2, p, q)
        below, above = (_rotation_number(FAM, -0.2, math.nextafter(lam_c, to))
                        for to in (-math.inf, math.inf))
        assert below <= p / q <= above
    # rho tends to 1/2 only logarithmically at the focal value
    with pytest.raises(NotBracketed):
        poncelet_caustic_for_rotation(FAM, -0.2, 19, 41)


def test_poncelet_outer_mirror_must_be_an_ellipse():
    # outer_lam >= a2 is a hyperbola, a focal segment or no curve at all;
    # it used to fail with a math domain error (or a sqrt warning on CIRC)
    for fam in (FAM, CIRC):
        for outer in (fam.a[1], 0.5 * (fam.a[0] + fam.a[1]), fam.a[0] + 1.0):
            with pytest.raises(InvalidParameters, match="outer mirror must be an ellipse"):
                poncelet_caustic_for_rotation(fam, outer, 1, 5)
            with pytest.raises(InvalidParameters, match="outer mirror must be an ellipse"):
                poncelet_grid(fam, outer, 5, 1)


def test_rotation_number_at_the_focal_value_raises():
    # R_F(0, 0, A) diverges; the duplication used to loop forever on it
    with pytest.raises(InvalidParameters):
        _rotation_number(FAM, -0.2, FAM.a[1])
    for args in [(0.0, 0.0, 1.0), (0.0, 2.0, 0.0), (3.0, 0.0, 0.0)]:
        with pytest.raises(InvalidParameters):
            _rf(*args)
    with pytest.raises(InvalidParameters):
        _rd(0.0, 0.0, 1.0)


# -- elliptic integrals against 50-digit mpmath -----------------------------

def _rel(value, exact):
    return abs(mpmath.mpf(value) - exact) / abs(exact)


_EXPONENT = st.floats(-8.0, 8.0)
# amplitudes in [0, 2pi): anywhere, at k pi/2, and within 1e-16..1e-3 of it
_AMPLITUDE = st.one_of(
    st.floats(1e-200, 2.0 * math.pi, exclude_max=True),
    st.integers(0, 3).map(lambda k: k * math.pi / 2.0),
    st.tuples(st.integers(1, 4), st.floats(-16.0, -3.0)).map(
        lambda kd: kd[0] * math.pi / 2.0 - 10.0 ** kd[1]),
    st.tuples(st.integers(0, 3), st.floats(-16.0, -3.0)).map(
        lambda kd: kd[0] * math.pi / 2.0 + 10.0 ** kd[1]),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.tuples(_EXPONENT, _EXPONENT, _EXPONENT), st.booleans())
def test_carlson_kernels_match_mpmath(exponents, zero):
    x, y, z = (10.0 ** e for e in exponents)
    x = 0.0 if zero else x
    with mpmath.workdps(50):
        assert _rel(_rf(x, y, z), mpmath.elliprf(x, y, z)) < 1e-14
        assert _rel(_rd(x, y, z), mpmath.elliprd(x, y, z)) < 1e-14


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_EXPONENT, st.one_of(_AMPLITUDE, _AMPLITUDE.map(lambda a: a + 2.0 * math.pi),
                            _AMPLITUDE.map(lambda a: -a)))
def test_k_and_e_match_mpmath(exponent, phi):
    mc = 10.0 ** exponent
    with mpmath.workdps(50):
        m = 1 - mpmath.mpf(mc)
        assert _rel(_rf(0.0, mc, 1.0), mpmath.ellipk(m)) < 1e-14
        if phi != 0.0:
            assert _rel(_ellipe(phi, mc), mpmath.ellipe(phi, m)) < 1e-14


# caustics from 3 to 1e-8 below (ellipse) or above (hyperbola) the focal
# value a2 = 1 of FAM: mc = A/B up to about 3e8, and c2/c1 down to 3e-9
_FOCAL_GAP = st.floats(-8.0, math.log10(2.9)).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_FOCAL_GAP, _AMPLITUDE)
def test_ellipse_chart_f_matches_mpmath(gap, phi):
    """coordinate_of_point is F(phi | m) / 4K(m), m = 1 - A/B."""
    chart = CausticChart(FAM, 1.0 - gap)
    point = (math.sqrt(chart.A) * math.cos(phi), math.sqrt(chart.B) * math.sin(phi))
    with mpmath.workdps(50):
        m = 1 - mpmath.mpf(chart.mc)
        exact = mpmath.ellipf(phi, m) / (4 * mpmath.ellipk(m))
        err = abs(circ_diff(chart.coordinate_of_point(point), float(exact)))
        assert err <= 1e-14 * exact


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_FOCAL_GAP, st.one_of(st.floats(1e-200, 1.0, exclude_max=True),
                             st.sampled_from([0.0, 0.25, 0.5, 0.75, 1e-12, 0.5 - 1e-12,
                                              1.0 - 1e-12])))
def test_ellipse_chart_inverse_matches_mpmath(gap, x):
    chart = CausticChart(FAM, 1.0 - gap)
    c, s = chart._ellipse_at(x)
    phi = math.atan2(s, c) % (2.0 * math.pi)
    with mpmath.workdps(50):
        m = 1 - mpmath.mpf(chart.mc)
        target = x * 4 * mpmath.ellipk(m)
        exact = mpmath.findroot(lambda f: mpmath.ellipf(f, m) - target, phi)
        assert abs(phi - exact) <= 1e-14 * exact


def _branch_measure(chart, t):
    """mpmath: the branch measure from the vertex to t, as a share of the
    whole branch, F(arctan(t / sqrt(c2)) | 1 - c2/c1) / 2K."""
    c1, c2 = mpmath.mpf(chart.c1), mpmath.mpf(chart.c2)
    m = 1 - c2 / c1
    return mpmath.ellipf(mpmath.atan(t / mpmath.sqrt(c2)), m) / (2 * mpmath.ellipk(m))


_BRANCH_T = st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_FOCAL_GAP, _BRANCH_T, st.sampled_from([1.0, -1.0]))
def test_hyperbola_chart_matches_mpmath(gap, t, half):
    """The branch coordinate at t from 1e-6 (near the vertex) to 1e4, and
    the inverse: the measure at the returned t is the one asked for."""
    chart = CausticChart(FAM, 1.0 + gap)
    y = chart._branch_point(t, half)[1]
    with mpmath.workdps(50):
        t_y = abs(mpmath.mpf(y)) * mpmath.sqrt(mpmath.mpf(chart.c1) / mpmath.mpf(chart.c2))
        exact = _branch_measure(chart, t_y)
        x = chart.coordinate_of_point((chart._branch_point(t, half)[0], y))
        assert abs(circ_diff(x, half * float(exact))) <= 1e-14 * exact
        x = float(exact)
        t_back, sign = chart._branch_t_at(x)
        assert sign == 1.0
        assert _rel(x, _branch_measure(chart, mpmath.mpf(t_back))) < 1e-14


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_FOCAL_GAP, st.sampled_from([1.0, -1.0]), st.floats(0.0, 1.0, exclude_max=True))
def test_chart_round_trip(gap, side, x):
    chart = CausticChart(FAM, 1.0 - side * gap)
    if chart.kind is CausticKind.HYPERBOLA and abs(circ_diff(x, 0.5)) < 1e-3:
        x = 0.25    # the branch ends at x = 1/2
    assert abs(circ_diff(chart.coordinate_of_point(chart.point_at(x)), x)) < 1e-13


# -- string construction ----------------------------------------------------

def test_string_circle_closed_form():
    r, d = 1.0, 1.3
    val = string_length(CIRC, 1.0, np.array([d, 0.0]))
    expect = 2.0 * np.sqrt(d * d - r * r) + r * (2.0 * np.pi - 2.0 * np.arccos(r / d))
    assert abs(val - expect) < 1e-12


def test_string_constant_on_confocal_ellipse():
    vals = []
    for th in np.linspace(0.0, 2 * np.pi, 50, endpoint=False):
        P = np.array([np.sqrt(3.9) * np.cos(th), np.sqrt(0.9) * np.sin(th)])
        vals.append(string_length(FAM, 0.5, P))
    assert max(vals) - min(vals) < 1e-8


def test_string_on_caustic_is_perimeter():
    chart = CausticChart(FAM, 0.5)
    P = chart.point_at(0.2)
    assert abs(string_length(FAM, 0.5, P) - chart.perimeter()) < 1e-8
