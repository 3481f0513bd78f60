"""Planar billiards in confocal conics.

A phase point is an oriented line (alpha, p): direction angle alpha and
signed distance p to the origin, with unit normal nu = (-sin a, cos a) so
the line is {x : <x, nu> = p}.  Reflection in any member of a confocal
family preserves the tangent confocal conic (the caustic); on a fixed
caustic there is a canonical coordinate x, normalized to total measure 1,
in which reflections in confocal ellipses are shifts x -> x + c and
reflections in confocal hyperbolas are reversals x -> c - x.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy

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
from .quadrics import ConfocalFamily, confocal_parameters, point_from_parameters

# ---------------------------------------------------------------------------
# oriented lines


@dataclass(frozen=True)
class OrientedLine:
    """Ray coordinates (alpha, p): alpha in [0, 2pi), p signed."""

    alpha: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha) % (2.0 * np.pi))
        object.__setattr__(self, "p", float(self.p))

    @property
    def direction(self) -> np.ndarray:
        return np.array([np.cos(self.alpha), np.sin(self.alpha)])

    @property
    def normal(self) -> np.ndarray:
        return np.array([-np.sin(self.alpha), np.cos(self.alpha)])

    @property
    def foot(self) -> np.ndarray:
        return self.p * self.normal

    def point_at(self, t: float) -> np.ndarray:
        return self.foot + t * self.direction

    def reversed(self) -> "OrientedLine":
        return OrientedLine(self.alpha + np.pi, -self.p)

    @staticmethod
    def from_point_direction(point, direction) -> "OrientedLine":
        d = np.asarray(direction, dtype=float)
        alpha = np.arctan2(d[1], d[0])
        nu = np.array([-np.sin(alpha), np.cos(alpha)])
        return OrientedLine(alpha, float(nu @ np.asarray(point, dtype=float)))


class CausticKind(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    FOCAL = "focal"


@dataclass(frozen=True)
class CausticTag:
    lam: float
    kind: CausticKind


FOCAL_TOL = 1e-9


def _check_planar(family: ConfocalFamily):
    if family.geometry.kind is not Kind.EUCLIDEAN or family.n != 2:
        raise InvalidParameters("billiards are implemented in the Euclidean plane")


def caustic_of_line(family: ConfocalFamily, line: OrientedLine) -> CausticTag:
    """Parameter of the confocal conic tangent to the line, with its class."""
    _check_planar(family)
    a1, a2 = family.a
    nu = line.normal
    lam = a1 * nu[0] ** 2 + a2 * nu[1] ** 2 - line.p ** 2
    if family.is_circular:
        return CausticTag(lam, CausticKind.ELLIPSE)
    if abs(lam - a2) < FOCAL_TOL:
        return CausticTag(lam, CausticKind.FOCAL)
    if lam < a2:
        return CausticTag(lam, CausticKind.ELLIPSE)
    return CausticTag(lam, CausticKind.HYPERBOLA)


# ---------------------------------------------------------------------------
# reflection


def _semiaxes_sq(family: ConfocalFamily, lam: float):
    a1, a2 = family.a
    return a1 - lam, a2 - lam


def line_conic_intersections(family: ConfocalFamily, lam: float, line: OrientedLine,
                             tangent_tol: float = 1e-12):
    """Intersection parameters t (points line.point_at(t)) with the
    lam-member, sorted ascending.  Raises NoIntersection; a double root
    raises TangentHit."""
    A, B = _semiaxes_sq(family, lam)
    u = line.foot
    d = line.direction
    c2 = d[0] ** 2 / A + d[1] ** 2 / B
    c1 = 2.0 * (u[0] * d[0] / A + u[1] * d[1] / B)
    c0 = u[0] ** 2 / A + u[1] ** 2 / B - 1.0
    disc = c1 * c1 - 4.0 * c2 * c0
    scale = max(abs(c1 * c1), abs(4.0 * c2 * c0), 1e-300)
    if disc < -tangent_tol * scale:
        raise NoIntersection("line misses the mirror conic")
    if disc < tangent_tol * scale:
        raise TangentHit("line is tangent to the mirror conic")
    r = np.sqrt(disc)
    ts = sorted([(-c1 - r) / (2.0 * c2), (-c1 + r) / (2.0 * c2)])
    return ts


def conic_normal(family: ConfocalFamily, lam: float, point) -> np.ndarray:
    A, B = _semiaxes_sq(family, lam)
    x = np.asarray(point, dtype=float)
    g = np.array([2.0 * x[0] / A, 2.0 * x[1] / B])
    return g / np.linalg.norm(g)


def reflect_direction(family: ConfocalFamily, lam: float, point, direction) -> np.ndarray:
    n = conic_normal(family, lam, point)
    d = np.asarray(direction, dtype=float)
    return d - 2.0 * (d @ n) * n


def reflect(family: ConfocalFamily, lam: float, line: OrientedLine,
            branch: str = "forward"):
    """Billiard reflection of an oriented line in the lam-member.

    branch: 'forward' picks the nearest intersection at nonnegative ray
    parameter (falling back to the earliest), 'exit' the latest, 'entry'
    the earliest; a callable receives each candidate point and keeps those
    where it is true.  Returns (reflected line, incidence point).
    """
    _check_planar(family)
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
    elif branch == "exit":
        t = ts[-1]
    elif branch == "entry":
        t = ts[0]
    else:
        pos = [tv for tv in ts if tv >= 0.0]
        t = pos[0] if pos else ts[0]
    q = line.point_at(t)
    d2 = reflect_direction(family, lam, q, line.direction)
    return OrientedLine.from_point_direction(q, d2), q


# ---------------------------------------------------------------------------
# canonical coordinate on a caustic


class CausticChart:
    """Canonical (unit total measure) coordinate on a fixed caustic.

    Ellipse caustics carry the separated measure dmu / (2 sqrt((a1-mu)
    (mu-a2)(mu-lam))) in the conjugate elliptic coordinate mu, which in the
    standard angle parametrization T = (sqrt(A) cos th, sqrt(B) sin th)
    becomes an incomplete elliptic integral.  Hyperbola caustics use one
    branch with its own normalized measure.
    """

    def __init__(self, family: ConfocalFamily, lam_c: float):
        _check_planar(family)
        self.family = family
        self.lam_c = float(lam_c)
        a1, a2 = family.a
        if family.is_circular:
            if not lam_c < a1:
                raise InvalidParameters("caustic parameter outside the family")
            self.kind = CausticKind.ELLIPSE
            self.radius = np.sqrt(a1 - lam_c)
            return
        if lam_c < a2:
            self.kind = CausticKind.ELLIPSE
            self.A = a1 - lam_c
            self.B = a2 - lam_c
            self.mpar = -(a1 - a2) / (a2 - lam_c)
            self.scale = 1.0 / np.sqrt(a2 - lam_c)
            self.total = self.scale * float(
                scipy.special.ellipkinc(2.0 * np.pi, self.mpar))
        elif a2 < lam_c < a1:
            self.kind = CausticKind.HYPERBOLA
            self.A = a1 - lam_c      # > 0
            self.B = a2 - lam_c      # < 0
            c1 = a1 - a2
            c2 = lam_c - a2

            def dens(s):
                return 1.0 / np.sqrt((c1 + s * s) * (c2 + s * s))

            self._dens = dens
            half, _ = scipy.integrate.quad(dens, 0.0, np.inf, limit=200)
            self.total = 2.0 * half
        else:
            raise InvalidParameters("caustic parameter collides with a focal value")

    # -- ellipse chart -----------------------------------------------------
    def _measure_theta(self, theta: float) -> float:
        return self.scale * float(scipy.special.ellipkinc(theta, self.mpar))

    def coordinate_of_point(self, point, branch_sign: int = 1) -> float:
        """Canonical coordinate of a point on the caustic."""
        x, y = np.asarray(point, dtype=float)
        if self.family.is_circular:
            return (np.arctan2(y, x) / (2.0 * np.pi)) % 1.0
        if self.kind is CausticKind.ELLIPSE:
            theta = np.arctan2(y / np.sqrt(self.B), x / np.sqrt(self.A)) % (2.0 * np.pi)
            return (self._measure_theta(theta) / self.total) % 1.0
        # hyperbola branch: t^2 = a2 - mu, measured from the vertex
        a1, a2 = self.family.a
        mu = a1 + a2 - self.lam_c - x * x - y * y  # trace identity: mu + lam = a1 + a2 - x^2 - y^2
        t = np.sqrt(max(a2 - mu, 0.0))
        cum, _ = scipy.integrate.quad(self._dens, 0.0, t, limit=200)
        s = 1.0 if y >= 0.0 else -1.0
        return (s * cum / self.total) % 1.0

    def tangency_of_line(self, line: OrientedLine, tol: float = 1e-8) -> np.ndarray:
        tag = caustic_of_line(self.family, line)
        if abs(tag.lam - self.lam_c) > tol:
            raise NotTangent(f"line is tangent to lam={tag.lam}, not {self.lam_c}")
        if self.family.is_circular:
            return line.p * line.normal
        nu = line.normal
        if line.p == 0.0:
            raise NotTangent("a line through the center cannot touch the caustic")
        return np.array([self.A * nu[0] / line.p, self.B * nu[1] / line.p])

    def coordinate_of_line(self, line: OrientedLine, tol: float = 1e-8) -> float:
        return self.coordinate_of_point(self.tangency_of_line(line, tol))

    def _theta_at(self, x: float) -> float:
        target = (x % 1.0) * self.total
        return scipy.optimize.brentq(lambda th: self._measure_theta(th) - target,
                                     0.0, 2.0 * np.pi, xtol=1e-14)

    def _branch_t_at(self, x: float):
        """Hyperbola branch: (t, half-sign) at canonical coordinate x."""
        frac = x % 1.0
        frac = frac if frac <= 0.5 else frac - 1.0
        target = abs(frac) * self.total
        if target >= self.total / 2.0:
            raise InvalidParameters("coordinate beyond the branch end")
        hi = 1.0
        while scipy.integrate.quad(self._dens, 0.0, hi, limit=200)[0] < target:
            hi *= 2.0
        t = scipy.optimize.brentq(
            lambda tv: scipy.integrate.quad(self._dens, 0.0, tv, limit=200)[0] - target,
            0.0, hi, xtol=1e-14)
        return t, (1.0 if frac >= 0.0 else -1.0)

    def point_at(self, x: float) -> np.ndarray:
        """Caustic point at canonical coordinate x (mod 1)."""
        if self.family.is_circular:
            th = 2.0 * np.pi * (x % 1.0)
            return self.radius * np.array([np.cos(th), np.sin(th)])
        if self.kind is CausticKind.ELLIPSE:
            th = self._theta_at(x)
            return np.array([np.sqrt(self.A) * np.cos(th), np.sqrt(self.B) * np.sin(th)])
        # hyperbola: right branch by convention
        t, half = self._branch_t_at(x)
        a1, a2 = self.family.a
        X = np.sqrt(self.A * (a1 - a2 + t * t) / (a1 - a2))
        Y = half * t * np.sqrt(-self.B / (a1 - a2))
        return np.array([X, Y])

    def tangent_line_at(self, x: float) -> OrientedLine:
        """Tangent line at canonical coordinate x, oriented along
        increasing x."""
        if self.family.is_circular:
            th = 2.0 * np.pi * (x % 1.0)
            pt = self.radius * np.array([np.cos(th), np.sin(th)])
            return OrientedLine.from_point_direction(pt, [-np.sin(th), np.cos(th)])
        if self.kind is CausticKind.ELLIPSE:
            th = self._theta_at(x)
            pt = np.array([np.sqrt(self.A) * np.cos(th), np.sqrt(self.B) * np.sin(th)])
            d = np.array([-np.sqrt(self.A) * np.sin(th), np.sqrt(self.B) * np.cos(th)])
            return OrientedLine.from_point_direction(pt, d)
        t, half = self._branch_t_at(x)
        a1, a2 = self.family.a
        pt = self.point_at(x)
        dX = np.sqrt(self.A / (a1 - a2)) * t / np.sqrt(a1 - a2 + t * t)
        dY = half * np.sqrt(-self.B / (a1 - a2))
        # increasing coordinate runs with increasing t on the upper half
        d = half * np.array([dX, dY])
        if t == 0.0:
            d = np.array([0.0, 1.0])
        return OrientedLine.from_point_direction(pt, d)

    # -- exterior geometry (ellipse caustics only) -------------------------
    def contains(self, point) -> bool:
        x, y = np.asarray(point, dtype=float)
        if self.family.is_circular:
            return np.hypot(x, y) < self.radius
        return x * x / self.A + y * y / self.B < 1.0

    def tangency_points_from(self, point) -> list:
        """The two points where tangent lines from an exterior point touch
        the caustic ellipse."""
        P = np.asarray(point, dtype=float)
        if self.family.is_circular:
            r, d = self.radius, np.hypot(*P)
            if d <= r:
                raise InsideCaustic("point inside the caustic circle")
            phi = np.arctan2(P[1], P[0])
            dth = np.arccos(r / d)
            return [r * np.array([np.cos(phi + s * dth), np.sin(phi + s * dth)])
                    for s in (-1.0, 1.0)]
        if self.kind is not CausticKind.ELLIPSE:
            raise InvalidParameters("exterior tangency implemented for ellipse caustics")
        cx, cy = P[0] / np.sqrt(self.A), P[1] / np.sqrt(self.B)
        R = np.hypot(cx, cy)
        if R <= 1.0:
            raise InsideCaustic("point inside the caustic ellipse")
        phi = np.arctan2(cy, cx)
        dth = np.arccos(1.0 / R)
        out = []
        for s in (-1.0, 1.0):
            th = phi + s * dth
            out.append(np.array([np.sqrt(self.A) * np.cos(th),
                                 np.sqrt(self.B) * np.sin(th)]))
        return out

    def perimeter(self) -> float:
        if self.family.is_circular:
            return 2.0 * np.pi * self.radius
        sa, sb = np.sqrt(self.A), np.sqrt(self.B)
        val, _ = scipy.integrate.quad(
            lambda th: np.hypot(sa * np.sin(th), sb * np.cos(th)),
            0.0, 2.0 * np.pi, limit=200)
        return val

    def arc_length(self, th0: float, th1: float) -> float:
        sa, sb = np.sqrt(self.A), np.sqrt(self.B)
        val, _ = scipy.integrate.quad(
            lambda th: np.hypot(sa * np.sin(th), sb * np.cos(th)),
            th0, th1, limit=200)
        return val


def canonical_coordinate(family: ConfocalFamily, lam_c: float,
                         line: OrientedLine, tol: float = 1e-8) -> float:
    """Canonical coordinate of the tangency point of a line on its caustic."""
    return CausticChart(family, lam_c).coordinate_of_line(line, tol)


def circ_diff(x: float, y: float) -> float:
    """Representative of x - y modulo 1 in (-1/2, 1/2]."""
    d = (x - y) % 1.0
    return d if d <= 0.5 else d - 1.0


def exterior_coordinates(family: ConfocalFamily, lam_c: float, point):
    """Canonical coordinates (x1, x2) of the two tangency points seen from
    an exterior point, ordered so that the increasing-coordinate arc from
    x1 to x2 is the one facing the point."""
    chart = CausticChart(family, lam_c)
    P = np.asarray(point, dtype=float)
    t1, t2 = chart.tangency_points_from(P)
    x1 = chart.coordinate_of_point(t1)
    x2 = chart.coordinate_of_point(t2)
    for xa, xb in ((x1, x2), (x2, x1)):
        mid = chart.point_at(xa + ((xb - xa) % 1.0) / 2.0)
        if chart.family.is_circular:
            nrm = mid
        else:
            nrm = np.array([mid[0] / chart.A, mid[1] / chart.B])
        if (P - mid) @ nrm > 0.0:
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
    for lv in (lam_e1, lam_e2):
        if not lv < a2:
            raise InvalidParameters("ellipse parameters must lie below a2")
    for lv in (lam_h1, lam_h2):
        if not a2 < lv < a1:
            raise InvalidParameters("hyperbola parameters must lie in (a2, a1)")
    corners = {
        "A": point_from_parameters(family, (lam_h1, lam_e1), signs=(1, 1)),
        "B": point_from_parameters(family, (lam_h1, lam_e2), signs=(1, 1)),
        "C": point_from_parameters(family, (lam_h2, lam_e2), signs=(1, 1)),
        "D": point_from_parameters(family, (lam_h2, lam_e1), signs=(1, 1)),
    }
    A, B, C, D = (corners[k] for k in "ABCD")
    line_ac = OrientedLine.from_point_direction(A, C - A)
    line_bd = OrientedLine.from_point_direction(B, D - B)
    tag_ac = caustic_of_line(family, line_ac)
    tag_bd = caustic_of_line(family, line_bd)
    return {
        "A": A, "B": B, "C": C, "D": D,
        "lam_e": (lam_e1, lam_e2), "lam_h": (lam_h1, lam_h2),
        "AC": float(np.linalg.norm(C - A)),
        "BD": float(np.linalg.norm(D - B)),
        "lam_AC": tag_ac.lam, "lam_BD": tag_bd.lam,
        "line_AC": line_ac, "line_BD": line_bd,
    }


def _on_arc(family: ConfocalFamily, point, mirror_lam: float,
            conj_range, tol: float = 1e-6) -> bool:
    x, y = point
    if x < -1e-7 or y < -1e-7:
        return False
    lam = confocal_parameters(family, np.abs(point)).lam
    lo, hi = min(conj_range), max(conj_range)
    conj = [lv for lv in lam if abs(lv - mirror_lam) > tol]
    if len(conj) != 1:
        # both roots near the mirror parameter: corner point
        conj = [lam[0] if abs(lam[1] - mirror_lam) < abs(lam[0] - mirror_lam)
                else lam[1]]
    return lo - tol <= conj[0] <= hi + tol


def _ray_hit_arc(family: ConfocalFamily, point, direction, mirror_lam: float,
                 conj_range, tmin: float = 1e-9):
    line = OrientedLine.from_point_direction(point, direction)
    # ray parameter offset between the line's foot and our base point
    t0 = float((np.asarray(point) - line.foot) @ line.direction)
    ts = line_conic_intersections(family, mirror_lam, line)
    hits = []
    for t in ts:
        s = t - t0
        if s <= tmin:
            continue
        q = line.point_at(t)
        if _on_arc(family, q, mirror_lam, conj_range):
            hits.append((s, q))
    if not hits:
        raise OrbitEscapesTable("reflection misses the bounding arcs")
    return min(hits, key=lambda h: h[0])[1]


def four_periodic_family(family: ConfocalFamily, quad: dict, t: float) -> dict:
    """Member of the 4-periodic billiard family interpolating between the
    two diagonals of an Ivory quadrilateral (t=0: diagonal BD, t=1: AC)."""
    lam_e1, lam_e2 = quad["lam_e"]
    lam_h1, lam_h2 = quad["lam_h"]
    if t < 1e-12:
        return {"P": quad["D"], "Q": quad["B"], "R": quad["B"], "S": quad["D"],
                "perimeter": 2.0 * quad["BD"], "closure_gap": 0.0}
    if t > 1.0 - 1e-12:
        return {"P": quad["A"], "Q": quad["A"], "R": quad["C"], "S": quad["C"],
                "perimeter": 2.0 * quad["AC"], "closure_gap": 0.0}
    lam_g = 0.5 * (quad["lam_AC"] + quad["lam_BD"])
    chart = CausticChart(family, lam_g)
    e_range = (lam_e1, lam_e2)
    h_range = (lam_h1, lam_h2)
    # the starting vertex slides along the E1 side from D (t=0) to A (t=1)
    lam_h = lam_h2 + t * (lam_h1 - lam_h2)
    P = point_from_parameters(family, (lam_h, lam_e1), signs=(1, 1))

    # launch along the tangent ray from P to the caustic that meets the H1 side
    Q = None
    for tp in chart.tangency_points_from(P):
        for d0 in (tp - P, P - tp):
            try:
                cand = _ray_hit_arc(family, P, d0, lam_h1, e_range)
            except OrbitEscapesTable:
                continue
            # the tangency must lie ahead of the start point
            if (tp - P) @ d0 > 0.0:
                Q = cand
                break
        if Q is not None:
            break
    if Q is None:
        raise OrbitEscapesTable("no tangent ray from the start point meets the H1 side")

    pts = [P, Q]
    mirrors = [(lam_h1, e_range), (lam_e2, h_range), (lam_h2, e_range),
               (lam_e1, h_range)]
    d = Q - P
    cur = Q
    for k in range(1, 3):
        mirror_lam = mirrors[k - 1][0]
        d = reflect_direction(family, mirror_lam, cur, d)
        nxt = _ray_hit_arc(family, cur, d, *mirrors[k])
        pts.append(nxt)
        cur = nxt
    # final leg: reflect at S on H2, land back on the E1 side
    d = reflect_direction(family, lam_h2, cur, d)
    P2 = _ray_hit_arc(family, cur, d, *mirrors[3])
    gap = float(np.linalg.norm(P2 - P))
    per = sum(float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(3))
    per += float(np.linalg.norm(P2 - pts[3]))
    return {"P": pts[0], "Q": pts[1], "R": pts[2], "S": pts[3],
            "perimeter": per, "closure_gap": gap}


# ---------------------------------------------------------------------------
# circumscribed quadrilaterals


def _line_intersection(l1: OrientedLine, l2: OrientedLine) -> np.ndarray:
    M = np.vstack([l1.normal, l2.normal])
    rhs = np.array([l1.p, l2.p])
    det = np.linalg.det(M)
    if abs(det) < 1e-12:
        raise DegenerateConfiguration("tangent lines are parallel")
    return np.linalg.solve(M, rhs)


def _hyperbola_root(family: ConfocalFamily, point) -> float:
    return _hyperbola_class(
        family, confocal_parameters(family, np.abs(np.asarray(point, dtype=float))).lam)


def _hyperbola_class(family: ConfocalFamily, lam) -> float:
    """The coordinate of the confocal hyperbola among a point's coordinates."""
    a1, a2 = family.a
    for lv in lam:
        if a2 - 1e-12 <= lv <= a1 + 1e-12:
            return lv
    raise DegenerateConfiguration("no hyperbola-class coordinate at the point")


def circumscribed_check(family: ConfocalFamily, A, B, lam_c: float) -> dict:
    """Tangent lines from two points of a confocal ellipse to a caustic:
    the other two intersection points lie on one confocal hyperbola and
    the four lines are circumscribed about a circle."""
    _check_planar(family)
    chart = CausticChart(family, lam_c)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    la = [OrientedLine.from_point_direction(A, tp - A)
          for tp in chart.tangency_points_from(A)]
    lb = [OrientedLine.from_point_direction(B, tp - B)
          for tp in chart.tangency_points_from(B)]

    # pair the non-(A,B) intersections so that C, D share a hyperbola root
    best = None
    for (i, j), (k, m) in [(((0, 0), (1, 1))), (((0, 1), (1, 0)))]:
        try:
            Cc = _line_intersection(la[i], lb[j])
            Dc = _line_intersection(la[k], lb[m])
            mism = abs(_hyperbola_root(family, Cc) - _hyperbola_root(family, Dc))
        except DegenerateConfiguration:
            continue
        if best is None or mism < best[0]:
            best = (mism, Cc, Dc)
    if best is None:
        raise DegenerateConfiguration("all tangent-line pairings degenerate")
    _, C, D = best

    lines = la + lb
    centroid = (A + B + C + D) / 4.0
    rows, rhs = [], []
    for ln in lines:
        s = np.sign(ln.normal @ centroid - ln.p) or 1.0
        rows.append([ln.normal[0], ln.normal[1], -s])
        rhs.append(ln.p)
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    center, radius = sol[:2], abs(sol[2])
    tangency_residual = max(abs(abs(ln.normal @ center - ln.p) - radius)
                            for ln in lines)
    perimeter_residual = abs(np.linalg.norm(D - A) - np.linalg.norm(C - A)
                             + np.linalg.norm(C - B) - np.linalg.norm(D - B))
    return {
        "A": A, "B": B, "C": C, "D": D,
        "lam_hyp": (_hyperbola_root(family, C) + _hyperbola_root(family, D)) / 2.0,
        "hyperbola_mismatch": best[0],
        "incircle_center": center, "incircle_radius": radius,
        "tangency_residual": float(tangency_residual),
        "perimeter_residual": float(perimeter_residual),
        "lines": lines,
    }


# ---------------------------------------------------------------------------
# Poncelet


def reflection_shift(family: ConfocalFamily, outer_lam: float, lam_c: float,
                     x0: float = 0.13) -> float:
    """Canonical-coordinate shift of the reflection in the outer ellipse
    acting on lines tangent to the lam_c caustic, as a value in (0, 1/2)."""
    chart = CausticChart(family, lam_c)
    line = chart.tangent_line_at(x0)
    out, _ = reflect(family, outer_lam, line, branch="exit")
    c = abs(circ_diff(chart.coordinate_of_line(out, tol=1e-6), x0))
    return c


def poncelet_caustic_for_rotation(family: ConfocalFamily, outer_lam: float,
                                  p: int, q: int) -> float:
    """Caustic parameter whose billiard in the outer ellipse has rotation
    number p/q; all trajectories tangent to it close after q bounces."""
    _check_planar(family)
    rho = p / q
    if not 0.0 < rho < 0.5:
        raise NotBracketed("rotation number must lie in (0, 1/2)")
    a1, a2 = family.a
    if family.is_circular:
        R = np.sqrt(a1 - outer_lam)
        return a1 - (R * np.cos(np.pi * rho)) ** 2
    lo = outer_lam + 1e-9 * (a2 - outer_lam)
    hi = a2 - 1e-9 * (a2 - outer_lam)
    f = lambda lv: reflection_shift(family, outer_lam, lv) - rho
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise NotBracketed("rotation number outside the achievable range")
    return scipy.optimize.brentq(f, lo, hi, xtol=1e-13)


def poncelet_polygon(family: ConfocalFamily, outer_lam: float, lam_c: float,
                     q: int, start_x: float = 0.0):
    """q successive billiard vertices on the outer ellipse for a
    trajectory tangent to the lam_c caustic, plus the closure gap."""
    chart = CausticChart(family, lam_c)
    line = chart.tangent_line_at(start_x)
    ts = line_conic_intersections(family, outer_lam, line)
    v0 = line.point_at(ts[0])
    verts = [v0]
    cur = line
    # orient so the first bounce moves forward from v0
    for _ in range(q):
        cur, pt = reflect(family, outer_lam, cur, branch="exit")
        verts.append(pt)
    gap = float(np.linalg.norm(verts[q] - verts[0]))
    return verts[:q], gap


def poncelet_grid(family: ConfocalFamily, outer_lam: float, q: int, p: int,
                  start_x: float = 0.0) -> dict:
    """Intersections of the extended sides of a Poncelet q-gon, organized
    into concentric (confocal-ellipse) and radial (confocal-hyperbola)
    sets, with the circumscribed-quadrilateral residuals of the grid."""
    lam_c = poncelet_caustic_for_rotation(family, outer_lam, p, q)
    verts, gap = poncelet_polygon(family, outer_lam, lam_c, q, start_x)
    sides = [OrientedLine.from_point_direction(verts[i], verts[(i + 1) % q] - verts[i])
             for i in range(q)]
    points = {}
    for i in range(q):
        for j in range(i + 1, q):
            try:
                points[(i, j)] = _line_intersection(sides[i], sides[j])
            except DegenerateConfiguration:
                continue

    def sep(i, j):
        d = abs(i - j) % q
        return min(d, q - d)

    # the elliptic coordinates of each point, computed once: the smaller
    # is its confocal ellipse, the hyperbola-class one its confocal hyperbola
    concentric = {}
    radial = {}
    for (i, j), pt in points.items():
        lam = confocal_parameters(family, np.abs(pt)).lam
        concentric.setdefault(sep(i, j), []).append(lam)
        radial.setdefault((i + j) % q, []).append(lam)

    conc_spread = {}
    for d, lams in concentric.items():
        roots = [min(lam) for lam in lams]
        conc_spread[d] = float(np.max(roots) - np.min(roots))
    rad_spread = {}
    for s, lams in radial.items():
        if len(lams) < 2:
            rad_spread[s] = 0.0
            continue
        roots = [_hyperbola_class(family, lam) for lam in lams]
        rad_spread[s] = float(np.max(roots) - np.min(roots))

    # each grid cell is bounded by lines i, i+1, j, j+1 and is circumscribed
    # about a circle; measure the best tangent-circle residual per cell
    from itertools import product as _product

    def _tangent_circle_residual(lines):
        best = np.inf
        for signs in _product([1.0, -1.0], repeat=3):
            sv = (1.0,) + signs
            rows = [[ln.normal[0], ln.normal[1], -s] for ln, s in zip(lines, sv)]
            rhs = [ln.p for ln in lines]
            sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
            c = sol[:2]
            resid = max(abs((ln.normal @ c - ln.p) - s * sol[2])
                        for ln, s in zip(lines, sv))
            best = min(best, resid)
        return float(best)

    quad_residuals = []
    for i in range(q):
        for j in range(i + 1, q):
            idx = {i, (i + 1) % q, j, (j + 1) % q}
            if len(idx) < 4:
                continue
            quad_lines = [sides[i], sides[(i + 1) % q], sides[j], sides[(j + 1) % q]]
            quad_residuals.append(_tangent_circle_residual(quad_lines))

    return {"lam_c": lam_c, "vertices": verts, "closure_gap": gap,
            "points": points, "concentric_spread": conc_spread,
            "radial_spread": rad_spread, "quad_residuals": quad_residuals}


# ---------------------------------------------------------------------------
# string construction


def string_length(family: ConfocalFamily, lam_c: float, point) -> float:
    """Length of a closed string wrapped around the caustic through the
    point: the string sweeps a confocal ellipse."""
    chart = CausticChart(family, lam_c)
    P = np.asarray(point, dtype=float)
    if family.is_circular:
        r = chart.radius
        d = np.hypot(*P)
        if abs(d - r) < 1e-12:
            return 2.0 * np.pi * r
        if d < r:
            raise InsideCaustic("point inside the caustic circle")
        return 2.0 * np.sqrt(d * d - r * r) + r * (2.0 * np.pi - 2.0 * np.arccos(r / d))
    on_level = P[0] ** 2 / chart.A + P[1] ** 2 / chart.B - 1.0
    if abs(on_level) < 1e-12:
        return chart.perimeter()
    t1, t2 = chart.tangency_points_from(P)
    th = sorted(np.arctan2(tp[1] / np.sqrt(chart.B), tp[0] / np.sqrt(chart.A)) % (2 * np.pi)
                for tp in (t1, t2))
    # the arc not wrapped by the string is the one facing the point
    arcs = [(th[0], th[1]), (th[1], th[0] + 2.0 * np.pi)]
    best = None
    for lo, hi in arcs:
        mid = (lo + hi) / 2.0
        M = np.array([np.sqrt(chart.A) * np.cos(mid), np.sqrt(chart.B) * np.sin(mid)])
        nrm = np.array([M[0] / chart.A, M[1] / chart.B])
        score = (P - M) @ nrm
        if best is None or score > best[0]:
            best = (score, lo, hi)
    _, lo, hi = best
    visible = chart.arc_length(lo, hi)
    return (float(np.linalg.norm(P - t1)) + float(np.linalg.norm(P - t2))
            + chart.perimeter() - visible)
