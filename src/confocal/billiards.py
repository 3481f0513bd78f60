"""Planar billiards in confocal conics.

A phase point is an oriented line (alpha, p): direction angle alpha and
signed distance p to the origin, with unit normal nu = (-sin a, cos a) so
the line is {x : <x, nu> = p}.  Reflection in any member of a confocal
family preserves the tangent confocal conic (the caustic); on a fixed
caustic there is a canonical coordinate x, normalized to total measure 1,
in which reflections in confocal ellipses are shifts x -> x + c and
reflections in confocal hyperbolas are reversals x -> c - x.

The 2-D kernels (lines, intersections, reflection, tangency) run on
Python floats with closed forms; public functions still return points as
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import product

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InsideCaustic,
    InvalidParameters,
    NoIntersection,
    NotBracketed,
    NotTangent,
    OrbitEscapesTable,
    TangentHit,
)
from .geometry import Kind
from .quadrics import ConfocalFamily, planar_coordinates, point_from_parameters

# ---------------------------------------------------------------------------
# oriented lines


@dataclass(frozen=True)
class OrientedLine:
    """Ray coordinates (alpha, p): alpha in [0, 2pi), p signed, both finite;
    cs is (cos alpha, sin alpha)."""

    alpha: float
    p: float
    cs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha, p = float(self.alpha), float(self.p)
        if not (math.isfinite(alpha) and math.isfinite(p)):
            raise InvalidParameters(f"line coordinates must be finite, got ({alpha}, {p})")
        alpha %= 2.0 * math.pi
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "cs", (math.cos(alpha), math.sin(alpha)))

    @property
    def normal(self) -> np.ndarray:
        c, s = self.cs
        return np.array((-s, c))

    def _at(self, t: float) -> tuple:
        c, s = self.cs
        return -self.p * s + t * c, self.p * c + t * s

    def point_at(self, t: float) -> np.ndarray:
        return np.array(self._at(t))

    @staticmethod
    def from_point_direction(point, direction) -> "OrientedLine":
        (x, y), (dx, dy) = point, direction
        x, y, dx, dy = float(x), float(y), float(dx), float(dy)
        if not (dx or dy) or not all(map(math.isfinite, (x, y, dx, dy))):
            raise InvalidParameters("a line needs a finite point and a finite nonzero direction")
        alpha = math.atan2(dy, dx) % (2.0 * math.pi)
        return OrientedLine(alpha, math.cos(alpha) * y - math.sin(alpha) * x)


class CausticKind(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    FOCAL = "focal"


@dataclass(frozen=True)
class CausticTag:
    lam: float
    kind: CausticKind


FOCAL_TOL = 1e-9
# a line within this much of tangency, relative to |a1| + |a2| + |lam|, is a
# TangentHit of the lam-member
TANGENT_TOL = 1e-12


def _check_planar(family: ConfocalFamily):
    if family.geometry.kind is not Kind.EUCLIDEAN or family.n != 2:
        raise InvalidParameters("billiards are implemented in the Euclidean plane")


def _tangent_lam(family: ConfocalFamily, line: OrientedLine) -> float:
    """Parameter of the confocal conic tangent to the line nu . x = p, nu
    its unit normal (-sin a, cos a): a1 nu1^2 + a2 nu2^2 - p^2."""
    c, s = line.cs
    return family.a[0] * s * s + family.a[1] * c * c - line.p * line.p


def caustic_of_line(family: ConfocalFamily, line: OrientedLine) -> CausticTag:
    """Parameter of the confocal conic tangent to the line, with its class."""
    _check_planar(family)
    lam = _tangent_lam(family, line)
    if abs(lam - family.a[1]) < FOCAL_TOL:
        return CausticTag(lam, CausticKind.FOCAL)
    if lam < family.a[1]:
        return CausticTag(lam, CausticKind.ELLIPSE)
    return CausticTag(lam, CausticKind.HYPERBOLA)


# ---------------------------------------------------------------------------
# reflection


def line_conic_intersections(family: ConfocalFamily, lam: float, line: OrientedLine):
    """Intersection parameters t (points line.point_at(t)) with the
    lam-member, sorted ascending.  Raises NoIntersection; a double root
    raises TangentHit.  The discriminant is 4 (lam_line - lam) / (AB)
    exactly, lam_line the line's caustic, so the decision is taken on that
    gap, within TANGENT_TOL: c1^2 - 4 c2 c0 is all rounding where the
    line's foot is the tangency point, as at a vertex."""
    A, B = family.a[0] - lam, family.a[1] - lam
    gap = (_tangent_lam(family, line) - lam) * math.copysign(1.0, A * B)
    cut = TANGENT_TOL * (abs(family.a[0]) + abs(family.a[1]) + abs(lam))
    if gap < -cut:
        raise NoIntersection("line misses the mirror conic")
    if gap < cut:
        raise TangentHit("line is tangent to the mirror conic")
    (c, s), p = line.cs, line.p
    u0, u1 = p * -s, p * c     # the foot
    c2 = c * c / A + s * s / B
    c1 = 2.0 * (u0 * c / A + u1 * s / B)
    c0 = u0 * u0 / A + u1 * u1 / B - 1.0
    # past the cut the rounding of c1^2 - 4 c2 c0 may still leave it below 0
    r = math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0))
    return sorted([(-c1 - r) / (2.0 * c2), (-c1 + r) / (2.0 * c2)])


def _unit_normal(family: ConfocalFamily, lam: float, point) -> tuple:
    gx, gy = float(point[0]) / (family.a[0] - lam), float(point[1]) / (family.a[1] - lam)
    g = math.hypot(gx, gy)
    return gx / g, gy / g


def _reflected(family: ConfocalFamily, lam: float, point, direction) -> tuple:
    """direction - 2 (direction . n) n, n the unit normal at the point."""
    nx, ny = _unit_normal(family, lam, point)
    dx, dy = float(direction[0]), float(direction[1])
    k = 2.0 * (dx * nx + dy * ny)
    return dx - k * nx, dy - k * ny


def reflect(family: ConfocalFamily, lam: float, line: OrientedLine, branch="exit"):
    """Billiard reflection of an oriented line in the lam-member.

    branch: 'exit' picks the latest intersection along the line; a callable
    receives each candidate point and keeps those where it is true.  Any
    other branch raises InvalidParameters.  Returns (reflected line,
    incidence point).
    """
    _check_planar(family)
    if not callable(branch) and branch != "exit":
        raise InvalidParameters(f"branch must be 'exit' or a callable, got {branch!r}")
    try:
        ts = line_conic_intersections(family, lam, line)
    except TangentHit:
        # tangential incidence: reflection is the identity
        return line, None
    if callable(branch):
        keep = [tv for tv in ts if branch(line.point_at(tv))]
        if not keep:
            raise NoIntersection("no intersection satisfies the branch selector")
        t = keep[0]
    else:
        t = ts[-1]
    q = line._at(t)
    return OrientedLine.from_point_direction(q, _reflected(family, lam, q, line.cs)), np.array(q)


# ---------------------------------------------------------------------------
# elliptic integrals by Carlson's duplication (DLMF 19.36), on Python floats

_EPS = 2.0 ** -52
# Carlson (1995): once 4^-n Q < |A_n| the truncated series is exact to
# machine epsilon
_RF_Q = (3.0 * _EPS) ** (-1.0 / 6.0)
_RD_Q = (0.25 * _EPS) ** (-1.0 / 6.0)


def _rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z); x, y, z >= 0, at most one of them zero."""
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        # R_F diverges there, and the duplication would never shrink
        raise InvalidParameters("R_F with two zero arguments diverges")
    x0, y0 = x, y
    a0 = (x + y + z) / 3.0
    q = _RF_Q * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    a, f = a0, 1.0
    while f * q >= abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        f *= 0.25
    X = f * (a0 - x0) / a
    Y = f * (a0 - y0) / a
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def _rd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z); x, y >= 0, at most one of them zero, z > 0."""
    if x == 0.0 and y == 0.0:
        raise InvalidParameters("R_D with two zero arguments diverges")
    x0, y0 = x, y
    a0 = (x + y + 3.0 * z) / 5.0
    q = _RD_Q * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    a, f, tail = a0, 1.0, 0.0
    while f * q >= abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        tail += f / (sz * (z + lam))
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        f *= 0.25
    X = f * (a0 - x0) / a
    Y = f * (a0 - y0) / a
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2 = xy - 6.0 * zz
    e3 = (3.0 * xy - 8.0 * zz) * Z
    e4 = 3.0 * (xy - zz) * zz
    e5 = xy * Z * zz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return f * series / (a * math.sqrt(a)) + 3.0 * tail


# The kernels below take the complementary parameter mc = 1 - m > 0, so
# that 1 - m sin^2 psi is the sum cos^2 psi + mc sin^2 psi, exact to
# rounding also when m is close to 1; K(m) = R_F(0, mc, 1).

def _ellipe(phi: float, mc: float) -> float:
    """E(phi | 1 - mc), reduced by E(psi + k pi) = E(psi) + 2kE.

    For m <= 0, sin psi R_F - (m/3) sin^3 psi R_D (DLMF 19.25.9); for
    0 < m < 1, whose terms in that form cancel near psi = pi/2, the form
    of DLMF 19.25.10.  Either way every term has the sign of psi."""
    m = 1.0 - mc

    def part(s, c):
        d = c * c + mc * s * s
        if m <= 0.0:
            return s * _rf(c * c, d, 1.0) - m / 3.0 * s ** 3 * _rd(c * c, d, 1.0)
        return (mc * s * _rf(c * c, d, 1.0) + m * mc / 3.0 * s ** 3 * _rd(c * c, 1.0, d)
                + m * s * c / math.sqrt(d))

    psi = math.remainder(phi, math.pi)
    k = round((phi - psi) / math.pi)
    val = part(math.sin(psi), math.cos(psi))
    return val + 2 * k * part(1.0, 0.0) if k else val


def _amplitude(u: float, mc: float, K: float):
    """(sin phi, cos phi) of the amplitude phi with F(phi | 1 - mc) = u,
    given K = K(m): Jacobi's sn u and cn u.

    After the reduction u = r + 2kK with |r| <= K, phi = psi + k pi, and F
    is odd in psi; on [0, pi/2] it is concave for mc >= 1 and convex for
    mc < 1.  Newton's method started at 0 (concave) or at pi/2 (convex)
    therefore moves monotonically towards the root.  Once a step fails to
    move it on, it is at the root to rounding, and it takes further steps
    only while they shrink.
    """
    k = round(u / (2.0 * K))
    r = u - 2.0 * k * K
    sign, r = math.copysign(1.0, r), abs(r)
    concave = mc >= 1.0
    ahead = 1.0 if concave else -1.0
    psi = 0.0 if concave else 0.5 * math.pi
    last = math.inf
    while True:
        s, c = math.sin(psi), math.cos(psi)
        d = c * c + mc * s * s
        nxt = psi + (r - s * _rf(c * c, d, 1.0)) * math.sqrt(d)
        step = min(max(nxt, 0.0), 0.5 * math.pi) - psi
        if step * ahead <= 0.0 or last < math.inf:
            if step == 0.0 or abs(step) >= last:
                flip = -1.0 if k % 2 else 1.0
                return flip * sign * s, flip * c
            last = abs(step)
        psi += step


def _branch_integral(tt: float, c1: float, c2: float) -> float:
    """int_0^t ds / sqrt((c1 + s^2)(c2 + s^2)) at t = sqrt(tt), c1, c2 > 0:
    t R_F(c1 c2, c2 (c1 + t^2), c1 (c2 + t^2)), whose limit at t = inf is
    R_F(0, c2, c1)."""
    return math.sqrt(tt) * _rf(c1 * c2, c2 * (c1 + tt), c1 * (c2 + tt))


# ---------------------------------------------------------------------------
# canonical coordinate on a caustic


class CausticChart:
    """Canonical (unit total measure) coordinate on a fixed caustic.

    Ellipse caustics carry the separated measure dmu / (2 sqrt((a1-mu)
    (mu-a2)(mu-lam))) in the conjugate elliptic coordinate mu, which in the
    standard angle parametrization T = (sqrt(A) cos th, sqrt(B) sin th)
    is proportional to F(th | m) with 1 - m = mc = A / B, so the coordinate
    is F(th | m) / 4K(m).  Hyperbola caustics use one branch, parametrized
    by t = sqrt(a2 - mu) from its vertex, with the measure
    dt / sqrt((c1 + t^2)(c2 + t^2)), c1 = a1 - a2, c2 = lam - a2; in
    t = sqrt(c2) tan psi that is dpsi / sqrt(c1 (1 - m sin^2 psi)) with
    mc = c2 / c1, so the branch carries F(psi | m) / 2K(m).

    A circular family is the ellipse case with A = B: mc = 1, so K = pi/2,
    F(th | 0) = th and the coordinate is the polar angle over 2 pi.
    """

    def __init__(self, family: ConfocalFamily, lam_c: float):
        _check_planar(family)
        self.family = family
        self.lam_c = float(lam_c)
        a1, a2 = family.a
        if lam_c < a2:
            self.kind = CausticKind.ELLIPSE
            self.A = a1 - lam_c
            self.B = a2 - lam_c
            self.mc = self.A / self.B
        elif a2 < lam_c < a1:
            self.kind = CausticKind.HYPERBOLA
            self.A = a1 - lam_c      # > 0
            self.B = a2 - lam_c      # < 0
            self.c1 = a1 - a2
            self.c2 = lam_c - a2
            self.mc = self.c2 / self.c1
        elif lam_c in (a1, a2):
            raise InvalidParameters("caustic parameter collides with a focal value")
        else:
            raise InvalidParameters("caustic parameter outside the family")

    @cached_property
    def K(self) -> float:
        """K(m): a quarter of the ellipse's measure, half of the branch's."""
        return _rf(0.0, self.mc, 1.0)

    def coordinate_of_point(self, point) -> float:
        """Canonical coordinate of a point on the caustic."""
        x, y = (float(v) for v in point)
        if self.kind is CausticKind.ELLIPSE:
            # F(th | m) at cos th : sin th = X : Y, with F(th + pi) = F(th) + 2K
            X, Y = x / math.sqrt(self.A), y / math.sqrt(self.B)
            f = Y * _rf(X * X, X * X + self.mc * Y * Y, X * X + Y * Y)
            if X < 0.0:
                f = math.copysign(2.0 * self.K, Y) - f
            return (f / (4.0 * self.K)) % 1.0
        # hyperbola branch: y^2 = c2 t^2 / c1
        c1, c2 = self.c1, self.c2
        w = math.sqrt(c1) * _branch_integral(y * y * c1 / c2, c1, c2)
        return math.copysign(w / (2.0 * self.K), y) % 1.0

    def tangency_of_line(self, line: OrientedLine, tol: float = 1e-8) -> np.ndarray:
        tag = caustic_of_line(self.family, line)
        if abs(tag.lam - self.lam_c) > tol:
            raise NotTangent(f"line is tangent to lam={tag.lam}, not {self.lam_c}")
        if line.p == 0.0:
            raise NotTangent("a line through the center cannot touch the caustic")
        c, s = line.cs
        return np.array((self.A * -s / line.p, self.B * c / line.p))

    def coordinate_of_line(self, line: OrientedLine, tol: float = 1e-8) -> float:
        return self.coordinate_of_point(self.tangency_of_line(line, tol))

    def _ellipse_at(self, x: float):
        """(cos th, sin th) of the ellipse point at canonical coordinate x."""
        s, c = _amplitude((x % 1.0) * 4.0 * self.K, self.mc, self.K)
        return c, s

    def _branch_t_at(self, x: float):
        """Hyperbola branch: (t, half-sign) at canonical coordinate x."""
        frac = x % 1.0
        frac = frac if frac <= 0.5 else frac - 1.0
        K = self.K
        w = 2.0 * K * abs(frac)
        if w >= K:
            raise InvalidParameters("coordinate beyond the branch end")
        # t -> sqrt(c1 c2) / t swaps the measure from the vertex with the
        # measure to the end, so psi is solved for on the half where
        # tan psi <= (c1 / c2)^(1/4), away from the pole of tan
        if w <= 0.5 * K:
            s, c = _amplitude(w, self.mc, K)
            t = math.sqrt(self.c2) * s / c
        else:
            s, c = _amplitude(K - w, self.mc, K)
            t = math.sqrt(self.c1) * c / s
        return t, (1.0 if frac >= 0.0 else -1.0)

    def _branch_point(self, t: float, half: float) -> tuple:
        c1 = self.c1
        return math.sqrt(self.A * (c1 + t * t) / c1), half * t * math.sqrt(-self.B / c1)

    def point_at(self, x: float) -> np.ndarray:
        """Caustic point at canonical coordinate x (mod 1)."""
        if self.kind is CausticKind.ELLIPSE:
            c, s = self._ellipse_at(x)
            return np.array((math.sqrt(self.A) * c, math.sqrt(self.B) * s))
        # hyperbola: right branch by convention
        return np.array(self._branch_point(*self._branch_t_at(x)))

    def tangent_line_at(self, x: float) -> OrientedLine:
        """Tangent line at canonical coordinate x, oriented along
        increasing x."""
        if self.kind is CausticKind.ELLIPSE:
            c, s = self._ellipse_at(x)
            ra, rb = math.sqrt(self.A), math.sqrt(self.B)
            return OrientedLine.from_point_direction((ra * c, rb * s), (-ra * s, rb * c))
        t, half = self._branch_t_at(x)
        c1 = self.c1
        # increasing coordinate runs with increasing t on the upper half
        d = (half * math.sqrt(self.A / c1) * t / math.sqrt(c1 + t * t), math.sqrt(-self.B / c1))
        return OrientedLine.from_point_direction(self._branch_point(t, half), d)

    # -- exterior geometry (ellipse caustics only) -------------------------
    def tangency_angles(self, point) -> tuple:
        """Eccentric angles th0 < th1 where the tangents from an exterior
        point touch the caustic ellipse; it sees the arc between, < pi."""
        if self.kind is not CausticKind.ELLIPSE:
            raise InvalidParameters("exterior tangency implemented for ellipse caustics")
        cx, cy = float(point[0]) / math.sqrt(self.A), float(point[1]) / math.sqrt(self.B)
        R = math.hypot(cx, cy)
        if R <= 1.0:
            raise InsideCaustic("point inside the caustic ellipse")
        phi, dth = math.atan2(cy, cx), math.acos(1.0 / R)
        return phi - dth, phi + dth

    def tangency_points_from(self, point) -> list:
        """The two points where tangent lines from an exterior point touch
        the caustic ellipse."""
        ths = self.tangency_angles(point)
        ra, rb = math.sqrt(self.A), math.sqrt(self.B)
        return [np.array((ra * math.cos(th), rb * math.sin(th))) for th in ths]

    def perimeter(self) -> float:
        return 4.0 * math.sqrt(self.A) * _ellipe(0.5 * math.pi, self.B / self.A)

    def arc_length(self, th0: float, th1: float) -> float:
        """Length of T(th) = (sqrt(A) cos th, sqrt(B) sin th), th0 <= th <= th1:
        ds = sqrt(A) sqrt(1 - m sin^2(th - pi/2)) dth with m = 1 - B/A."""
        mc = self.B / self.A
        return math.sqrt(self.A) * (_ellipe(th1 - 0.5 * math.pi, mc)
                                    - _ellipe(th0 - 0.5 * math.pi, mc))


def circ_diff(x: float, y: float) -> float:
    """Representative of x - y modulo 1 in (-1/2, 1/2]."""
    d = (x - y) % 1.0
    return d if d <= 0.5 else d - 1.0


def exterior_coordinates(family: ConfocalFamily, lam_c: float, point):
    """Canonical coordinates (x1, x2) of the two tangency points seen from
    an exterior point, ordered so that the increasing-coordinate arc from
    x1 to x2 is the one facing the point."""
    chart = CausticChart(family, lam_c)
    x1, x2 = (chart.coordinate_of_point(tp) for tp in chart.tangency_points_from(point))
    for xa, xb in ((x1, x2), (x2, x1)):
        # the point lies outside the tangent at the middle of the arc it faces
        mx, my = chart.point_at(xa + ((xb - xa) % 1.0) / 2.0).tolist()
        if (point[0] - mx) * mx / chart.A + (point[1] - my) * my / chart.B > 0.0:
            return xa, xb
    return x1, x2


# ---------------------------------------------------------------------------
# Ivory quadrilaterals and the four-periodic family


def ivory_quadrilateral(family: ConfocalFamily, lam_e1: float, lam_e2: float,
                        lam_h1: float, lam_h2: float) -> dict:
    """Confocal quadrilateral ABCD (A and C on opposite corners) and its
    two diagonals; the diagonals have equal length and a common caustic."""
    _check_planar(family)
    a1, a2 = family.a
    if not (lam_e1 < a2 and lam_e2 < a2):
        raise InvalidParameters("ellipse parameters must lie below a2")
    if not (a2 < lam_h1 < a1 and a2 < lam_h2 < a1):
        raise InvalidParameters("hyperbola parameters must lie in (a2, a1)")
    corners = point_from_parameters(family, [(lam_h1, lam_e1), (lam_h1, lam_e2),
                                             (lam_h2, lam_e2), (lam_h2, lam_e1)], signs=(1, 1))
    A, B, C, D = corners.tolist()
    line_ac = OrientedLine.from_point_direction(A, (C[0] - A[0], C[1] - A[1]))
    line_bd = OrientedLine.from_point_direction(B, (D[0] - B[0], D[1] - B[1]))
    return {
        **dict(zip("ABCD", corners)),
        "lam_e": (lam_e1, lam_e2), "lam_h": (lam_h1, lam_h2),
        "AC": math.dist(A, C), "BD": math.dist(B, D),
        "lam_AC": caustic_of_line(family, line_ac).lam,
        "lam_BD": caustic_of_line(family, line_bd).lam,
        "line_AC": line_ac, "line_BD": line_bd,
    }


def _jacobi_add(x: tuple, y: tuple, m: float) -> tuple:
    """Jacobi's (sn, cn, dn) of u + v from those of u and v (DLMF 22.8)."""
    (s1, c1, d1), (s2, c2, d2) = x, y
    den = 1.0 - m * (s1 * s2) ** 2
    return ((s1 * c2 * d2 + s2 * c1 * d1) / den, (c1 * c2 - s1 * d1 * s2 * d2) / den,
            (d1 * d2 - m * s1 * c1 * s2 * c2) / den)


def four_periodic_family(family: ConfocalFamily, ivory: dict, t: float) -> dict:
    """Member of the 4-periodic billiard family between the diagonals of an
    Ivory quadrilateral (t=0: BD, t=1: AC) on their caustic, an ellipse
    (InvalidParameters otherwise, or for t outside [0, 1]); OrbitEscapesTable
    at every t if a diagonal touches it inside its segment: no family there.

    In u, the argument of Jacobi's functions at m = (a1 - a2) / (a1 - lam),
    of each elliptic coordinate, the caustic's tangents have slope +-1 and
    the orbit is a diamond in a square table.  With d = u_P - u(h1), Q is
    u(e1) - d on H1, R u(h2) - d on E2 and S u(e1) - u(h2) + u_P on H2
    (u(e2) + d, ill-conditioned where E2 nears the caustic).  closure_gap,
    which the diamond does not assume, is the largest reflection residual
    |rho(u) |v| - v |u|| / max(|u|, |v|), legs u in and v out, at a vertex."""
    if not 0.0 <= t <= 1.0:
        raise InvalidParameters(f"need 0 <= t <= 1, got {t}")
    (a1, a2), (e1, e2), (h1, h2) = family.a, ivory["lam_e"], ivory["lam_h"]
    lam = 0.5 * (ivory["lam_AC"] + ivory["lam_BD"])
    if not lam < a2:
        raise InvalidParameters("the four-periodic family is built on ellipse caustics")
    c, A, B = a1 - a2, a1 - lam, a2 - lam
    for diagonal in ("AC", "BD"):
        (co, si), p = ivory["line_" + diagonal].cs, ivory["line_" + diagonal].p
        at = -c * co * si / p     # ray parameter of the touch point, whatever lam
        if (at - ivory[diagonal[0]] @ (co, si)) * (at - ivory[diagonal[1]] @ (co, si)) < 0.0:
            raise OrbitEscapesTable(f"diagonal {diagonal} touches its caustic inside the table")
    m, rA = c / A, math.sqrt(A)

    def ellipse(mu):    # u = 0 at mu = lam
        g = a2 - mu
        return math.sqrt(max(lam - mu, 0.0) / g), math.sqrt(B / g), math.sqrt(B * (a1 - mu) / (A * g))

    def hyperbola(mu):  # u = 0 at mu = a2, K at a1
        g = mu - lam
        return math.sqrt(A * (mu - a2) / (c * g)), math.sqrt(B * (a1 - mu) / (c * g)), math.sqrt(B / g)

    def point(e, h):    # Jacobi's product formula, in (sn, cn, dn)
        return rA * e[2] * h[1] / (e[1] * h[2]), B * h[0] / (rA * e[1] * h[2])

    # P slides along E1 from D (t=0) to A (t=1), not past A where t = 1 rounds
    E1, H1, H2, HP = ellipse(e1), hyperbola(h1), hyperbola(h2), hyperbola(max(h2 + t * (h1 - h2), h1))
    minus_d = _jacobi_add(H1, (-HP[0], *HP[1:]), m)
    pts = [point(E1, HP), point(_jacobi_add(E1, minus_d, m), H1),
           point(ellipse(e2), _jacobi_add(H2, minus_d, m)),
           point(_jacobi_add(E1, _jacobi_add(HP, (-H2[0], *H2[1:]), m), m), H2)]
    legs = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])]
    lengths = [math.hypot(*leg) for leg in legs]
    gap = 0.0
    for k, mirror in enumerate((e1, h1, e2, h2)):
        (rx, ry), (vx, vy) = _reflected(family, mirror, pts[k], legs[k - 1]), legs[k]
        nu, nv = lengths[k - 1], lengths[k]
        gap = max(gap, math.hypot(rx * nv - vx * nu, ry * nv - vy * nu) / max(nu, nv))
    return {**dict(zip("PQRS", map(np.array, pts))), "perimeter": sum(lengths), "closure_gap": gap}


# ---------------------------------------------------------------------------
# circumscribed quadrilaterals


def _line_intersection(l1: OrientedLine, l2: OrientedLine) -> tuple:
    """The common point of two lines, as floats: Cramer's rule on the rows
    (-s_k, c_k) of their unit normals, det = s2 c1 - s1 c2."""
    (c1, s1), (c2, s2) = l1.cs, l2.cs
    det = s2 * c1 - s1 * c2
    if abs(det) < 1e-12:
        raise DegenerateConfiguration("tangent lines are parallel")
    return (l1.p * c2 - l2.p * c1) / det, (l1.p * s2 - l2.p * s1) / det


# sign patterns of <nu_k, c> - s_k r = p_k: the side of line k a circle
# touching four lines lies on, s_0 = 1 as r takes the overall sign
_SIGNS = np.array([(1.0,) + s for s in product((1.0, -1.0), repeat=3)])
# W_jk = X_ab for the pair (a, b) at [j, k]: the Hodge dual of the minors
# X_ab = nu_a x nu_b, skew as X is (X_ba = -X_ab, X_aa = 0)
_DUAL = np.moveaxis([[(0, 0), (2, 3), (3, 1), (1, 2)], [(3, 2), (1, 1), (0, 3), (2, 0)],
                     [(1, 3), (3, 0), (2, 2), (0, 1)], [(2, 1), (0, 2), (1, 0), (3, 3)]], -1, 0)


def _incircle_residuals(normals, offsets) -> np.ndarray:
    """Max-abs least-squares residual of <nu_k, c> - s_k r = p_k, k < 4,
    per pattern s of _SIGNS: (..., 8) from (..., 4, 2) normals and (..., 4)
    offsets.  For a full-rank R = [nu_k, -s_k] it is (y.p / |y|^2) y, with
    y_k = (-1)^k det(R without row k) = (s W)_k the null vector of R^T: W
    the dual of the six minors of the normals, which all patterns share."""
    (a, b), nx, ny = _DUAL, normals[..., 0], normals[..., 1]
    y = _SIGNS @ (nx[..., a] * ny[..., b] - ny[..., a] * nx[..., b])
    yp = (y * offsets[..., None, :]).sum(axis=-1)
    return np.abs(yp) * np.abs(y).max(axis=-1) / (y * y).sum(axis=-1)


def circumscribed_check(family: ConfocalFamily, A, B, lam_c: float) -> dict:
    """Tangent lines from two points of a confocal ellipse to a caustic:
    the other two intersection points lie on one confocal hyperbola and
    the four lines touch one circle, that of the best sign pattern.

    Walking A, C, B, D, its touch point splits side k into signed lengths
    a_k + b_k, and |b_k| = |a_k+1| at each corner, so with c_0 = 1 and
    c_k+1 = -c_k sign(b_k a_k+1) the sum of c_k |side k| cancels corner by
    corner.  With every touch point inside its side that is Pitot's
    |AC| + |BD| = |CB| + |DA|; with every one outside (ex-tangential, as
    for some A and B near opposite ends of the major axis) it is
    |DA| + |AC| = |CB| + |BD|."""
    _check_planar(family)
    if family.is_circular:
        raise InvalidParameters("elliptic coordinates degenerate for circular families")
    chart = CausticChart(family, lam_c)
    A, B = (np.asarray(X, dtype=float) for X in (A, B))
    la, lb = ([OrientedLine.from_point_direction(X, (tx - X[0], ty - X[1]))
               for tx, ty in map(np.ndarray.tolist, chart.tangency_points_from(X))]
              for X in (A.tolist(), B.tolist()))

    # pair the non-(A,B) intersections so that C, D share a hyperbola root
    best = None
    for (i, j), (k, m) in [(((0, 0), (1, 1))), (((0, 1), (1, 0)))]:
        try:
            Cc = _line_intersection(la[i], lb[j])
            Dc = _line_intersection(la[k], lb[m])
        except DegenerateConfiguration:
            continue
        hc, hd = (planar_coordinates(*family.a, *X)[0] for X in (Cc, Dc))
        if best is None or abs(hc - hd) < best[0]:
            # the sides AC, CB, BD, DA
            best = (abs(hc - hd), Cc, Dc, (hc + hd) / 2.0, [la[i], lb[j], lb[m], la[k]])
    if best is None:
        raise DegenerateConfiguration("all tangent-line pairings degenerate")
    mismatch, C, D, lam_hyp, sides = best

    normals = np.array([ln.normal for ln in sides])
    offsets = np.array([ln.p for ln in sides])
    resid = _incircle_residuals(normals, offsets)
    win = int(np.argmin(resid))
    sol, *_ = np.linalg.lstsq(np.column_stack([normals, -_SIGNS[win]]), offsets, rcond=None)
    cx, cy = sol[:2].tolist()

    # side k runs from corner k to k + 1 of A, C, B, D; a is how far along
    # it the touch point lies, the foot of the centre, which is e off line k
    corners = [A.tolist(), C, B.tolist(), D]
    total, c, b = 0.0, 1.0, None
    for k, ln in enumerate(sides):
        (x0, y0), (x1, y1) = corners[k], corners[(k + 1) % 4]
        (co, si), dx, dy = ln.cs, x1 - x0, y1 - y0
        e = co * cy - si * cx - ln.p
        length = math.hypot(dx, dy)
        a = ((cx + e * si - x0) * dx + (cy - e * co - y0) * dy) / length
        if b is not None:
            c *= -((b * a > 0.0) - (b * a < 0.0))    # -sign(b_k a_k+1)
        total, b = total + c * length, length - a
    return {
        "A": A, "B": B, "C": np.array(C), "D": np.array(D),
        "lam_hyp": lam_hyp, "hyperbola_mismatch": mismatch,
        "incircle_center": sol[:2], "incircle_radius": abs(sol[2]),
        "tangency_residual": float(resid[win]),
        "perimeter_residual": abs(total),
        "lines": la + lb,
    }


# ---------------------------------------------------------------------------
# Poncelet


def _rotation_number(family: ConfocalFamily, outer_lam: float, lam_c: float) -> float:
    """Rotation number of the billiard in the outer_lam ellipse on lines
    tangent to the lam_c ellipse caustic, a ratio of elliptic periods:
    X R_F(AB, B(A + X^2), A(B + X^2)) / 2 R_F(0, B, A) with A, B the
    caustic's squared semi-axes and X^2 = lam_c - outer_lam.  It increases
    from 0 at lam_c = outer_lam to 1/2 at the focal value a2."""
    a1, a2 = family.a
    A, B = a1 - lam_c, a2 - lam_c
    return _branch_integral(lam_c - outer_lam, A, B) / (2.0 * _rf(0.0, B, A))


def poncelet_caustic_for_rotation(family: ConfocalFamily, outer_lam: float,
                                  p: int, q: int) -> float:
    """Caustic parameter whose billiard in the outer ellipse has rotation
    number p/q; all trajectories tangent to it close after q bounces."""
    _check_planar(family)
    a1, a2 = family.a
    if not outer_lam < a2:
        raise InvalidParameters("the outer mirror must be an ellipse: outer_lam < a2")
    rho = p / q
    if not 0.0 < rho < 0.5:
        raise NotBracketed("rotation number must lie in (0, 1/2)")
    if family.is_circular:
        return a1 - (math.sqrt(a1 - outer_lam) * math.cos(math.pi * rho)) ** 2
    lo = outer_lam + 1e-9 * (a2 - outer_lam)
    hi = a2 - 1e-9 * (a2 - outer_lam)
    if not (_rotation_number(family, outer_lam, lo) <= rho
            <= _rotation_number(family, outer_lam, hi)):
        raise NotBracketed("rotation number outside the achievable range")
    # bisection to the last bit on the increasing rotation number
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _rotation_number(family, outer_lam, mid) < rho:
            lo = mid
        else:
            hi = mid


def poncelet_polygon(family: ConfocalFamily, outer_lam: float, lam_c: float,
                     q: int, start_x: float = 0.0):
    """q successive billiard vertices on the outer ellipse for a
    trajectory tangent to the lam_c caustic, plus the closure gap."""
    chart = CausticChart(family, lam_c)
    line = chart.tangent_line_at(start_x)
    ts = line_conic_intersections(family, outer_lam, line)
    verts, cur = [line.point_at(ts[0])], line
    # orient so the first bounce moves forward from the first vertex
    for _ in range(q):
        cur, pt = reflect(family, outer_lam, cur, branch="exit")
        verts.append(pt)
    return verts[:q], math.dist(verts[q], verts[0])


def poncelet_grid(family: ConfocalFamily, outer_lam: float, q: int, p: int,
                  start_x: float = 0.0) -> dict:
    """Intersections of the extended sides of a Poncelet q-gon, organized
    into concentric (confocal-ellipse) and radial (confocal-hyperbola)
    sets, with the circumscribed-quadrilateral residuals of the grid."""
    lam_c = poncelet_caustic_for_rotation(family, outer_lam, p, q)
    verts, gap = poncelet_polygon(family, outer_lam, lam_c, q, start_x)
    sides = [OrientedLine.from_point_direction(verts[i], verts[(i + 1) % q] - verts[i])
             for i in range(q)]
    c, s = np.array([ln.cs for ln in sides]).T
    normals = np.stack([-s, c], axis=1)
    offsets = np.array([ln.p for ln in sides])

    # every pair of sides meets where _line_intersection's Cramer's rule
    # says, but for opposite sides of an even polygon, parallel by its
    # central symmetry
    i, j = np.triu_indices(q, 1)
    meets = 2 * (j - i) != q
    i, j = i[meets], j[meets]
    pts = np.stack([offsets[i] * c[j] - offsets[j] * c[i],
                    offsets[i] * s[j] - offsets[j] * s[i]], axis=1)
    pts /= (s[j] * c[i] - s[i] * c[j])[:, None]
    points = dict(zip(zip(i.tolist(), j.tolist()), pts))

    # each point's confocal hyperbola and ellipse, as in confocal_parameters
    hyp, ell = planar_coordinates(*family.a, *np.abs(pts).T)
    ring = np.minimum((j - i) % q, (i - j) % q)
    spoke = (i + j) % q
    conc_spread = {int(d): float(np.ptp(ell[ring == d])) for d in np.unique(ring)}
    rad_spread = {int(k): float(np.ptp(hyp[spoke == k])) for k in np.unique(spoke)}

    # each grid cell is bounded by lines i, i+1, j, j+1 and is circumscribed
    # about a circle: per cell the smallest residual over the sign patterns.
    # A cell with j - i = q/2 has two pairs of parallel sides and two
    # corners at infinity; its 4-line system has rank 2, so it is skipped
    # (the pairs i, j above lack it).  Lines i, i+1, j, j+1 are four lines
    # where j - i > 1 and j + 1 is not i modulo q
    skipped = q * (q - 1) // 2 - len(i)
    cells = np.stack([i, (i + 1) % q, j, (j + 1) % q], axis=1)[(j - i > 1) & (j - i < q - 1)]
    quad_residuals = _incircle_residuals(normals[cells], offsets[cells]).min(axis=1).tolist()

    return {"lam_c": lam_c, "vertices": verts, "closure_gap": gap,
            "points": points, "concentric_spread": conc_spread,
            "radial_spread": rad_spread, "quad_residuals": quad_residuals,
            "skipped_cells": skipped}


# ---------------------------------------------------------------------------
# string construction


def string_length(family: ConfocalFamily, lam_c: float, point) -> float:
    """Length of a closed string wrapped around the caustic through the
    point: the string sweeps a confocal ellipse."""
    chart = CausticChart(family, lam_c)
    P = [float(v) for v in point]
    if abs(P[0] ** 2 / chart.A + P[1] ** 2 / chart.B - 1.0) < 1e-12:
        return chart.perimeter()
    # the string wraps the arc the point does not see
    t1, t2 = chart.tangency_points_from(P)
    return (math.dist(P, t1) + math.dist(P, t2)
            + chart.perimeter() - chart.arc_length(*chart.tangency_angles(P)))
