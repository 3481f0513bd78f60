"""Potential theory on spheres and hyperbolic spaces.

The point-mass potential in S^n / H^n is the rotationally symmetric harmonic
function u(r) = int_r^{pi/2} dx/sin^{n-1}x, respectively
u(r) = int_r^inf dx/sinh^{n-1}x.  Curved ellipsoids (intersections of an
elliptic cone with the model surface) charged with the homeoidal density
1/||grad q|| create no field inside themselves and have the confocal
ellipsoids as equipotential surfaces; the proof mechanism is the diagonal
confocal map f_lambda.  The same cancellation generalizes to hyperbolic
algebraic surfaces of degree d charged as standard layers (Arnold's theorem),
which reduces to root-sum identities via Vieta's formula.

Every integral is a deterministic rule: over the direction sphere for a
charged surface, over a sweep of equally spaced lines through the point for
a layer.  The integrands are analytic there while the point keeps clear of
the charge, so the rules converge exponentially, and each result carries
the estimate |F_m - F_2m| of its error in place of a standard error.

A charged surface, a CurvedEllipsoid or a round GeodesicSphere, gives the
cubature its own nodes(ws), points and weights over unit directions, and
its own clearance(x) from a point; the cubature names no surface type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import (
    ComplexRoots,
    ConeConditionViolated,
    DegenerateConfiguration,
    DomainError,
    InvalidParameters,
    NotInHyperbolicityDomain,
    NotOnSurface,
    OddDegreeHyperbolic,
    TooCloseToSurface,
    WrongComponentCount,
)
from .geometry import Geometry, Kind, geodesic_distance

# ---------------------------------------------------------------------------
# fundamental solutions

# nodes and weights of the fixed rule for the radial potential
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _radii(geometry: Geometry, r) -> np.ndarray:
    """r as a float array, refusing a radius outside 0 < r < pi on S^n, or
    r > 0 in H^n, NaN included."""
    r = np.asarray(r, dtype=float)
    spherical = geometry.kind is Kind.SPHERICAL
    ok = (r > 0.0) & (r < np.pi) if spherical else r > 0.0
    if not np.all(ok):
        raise DomainError(f"need {'0 < r < pi' if spherical else 'r > 0'}, got {r[~ok]}")
    return r


def point_potential(geometry: Geometry, r):
    """Potential of a unit point mass at geodesic distance r (a float, or
    an array giving an array).

    Spherical: int_r^{pi/2} dx/sin^{n-1}x.  Hyperbolic:
    int_r^inf dx/sinh^{n-1}x.  The substitutions sinh(theta) = cot x and
    sinh(theta) = 1/sinh x turn both into u = int_0^T c^{n-2}(theta) dtheta,
    with c = cosh and T = asinh(cot r) on S^n, c = sinh and
    T = asinh(1/sinh r) in H^n: a smooth integrand on a finite interval,
    summed by a fixed Gauss-Legendre rule.  At n = 3 this is cot r and
    coth r - 1 = 2/expm1(2r); at n = 2, log cot(r/2) and log coth(r/2).
    """
    if geometry.kind is Kind.EUCLIDEAN:
        raise InvalidParameters("point potential defined on curved geometries")
    if geometry.kind is Kind.HYPERBOLIC and geometry.n < 2:
        raise DomainError("the radial potential diverges in H^1")
    r = _radii(geometry, r)
    if geometry.kind is Kind.SPHERICAL:
        T, c = np.arcsinh(1.0 / np.tan(r)), np.cosh
    else:
        # 1/sinh r = 2 e^-r / (1 - e^-2r), free of overflow and cancellation
        T, c = np.arcsinh(2.0 * np.exp(-r) / -np.expm1(-2.0 * r)), np.sinh
    theta = 0.5 * T[..., None] * (1.0 + _GL_NODES)
    u = 0.5 * T * (c(theta) ** (geometry.n - 2) @ _GL_WEIGHTS)
    return float(u) if u.ndim == 0 else u


def point_potential_derivative(geometry: Geometry, r):
    """u'(r) = -1/phi^{n-1}(r): the flux through the geodesic sphere of
    radius r is independent of r.  Takes a float or an array, like
    point_potential."""
    du = -geometry.trig[0](_radii(geometry, r)) ** (1 - geometry.n)
    return float(du) if np.ndim(du) == 0 else du


def antisymmetry_check(geometry: Geometry, r):
    """|u(pi - r) + u(r)| on the sphere (a negative charge at the antipode
    acts like a positive charge at the point)."""
    if geometry.kind is not Kind.SPHERICAL:
        raise InvalidParameters("antisymmetry is a spherical property")
    return abs(point_potential(geometry, np.pi - r) + point_potential(geometry, r))


# ---------------------------------------------------------------------------
# quadratic forms and curved ellipsoids


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric quadratic form on the ambient linear space."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameters("quadratic form needs a square matrix")
        if np.max(np.abs(m - m.T)) > 0.0:
            raise InvalidParameters("matrix must be exactly symmetric")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class CurvedEllipsoid:
    """Component of an elliptic cone cut by the model surface.

    The cone is x_1^2/a_1 + ... + x_n^2/a_n - x_0^2/b = 0 with x_0 stored
    first; the component is the upper hemisphere / upper sheet.  In the
    hyperbolic case a_i < b keeps the cone inside the light cone.
    """

    geometry: Geometry
    a: Tuple[float, ...]
    b: float

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if self.geometry.kind is Kind.EUCLIDEAN:
            raise InvalidParameters("curved ellipsoids live on S^n or H^n")
        if len(a) != self.geometry.n:
            raise InvalidParameters("need one semiaxis parameter per dimension")
        if not np.all(np.isfinite(a + (self.b,))):
            raise InvalidParameters(f"parameters must be finite, got a = {a}, b = {self.b}")
        # ties are allowed (round degenerations); confocal coordinates are
        # never computed here
        if any(x < y for x, y in zip(a, a[1:])):
            raise InvalidParameters("parameters must be non-increasing")
        if a[-1] <= 0 or self.b <= 0:
            raise InvalidParameters("parameters must be positive")
        if self.geometry.kind is Kind.HYPERBOLIC and a[0] >= self.b:
            raise InvalidParameters("hyperbolic case needs a_i < b")

    @property
    def n(self) -> int:
        return self.geometry.n

    def _coeffs(self, lam: float) -> np.ndarray:
        """Diagonal of q_lambda: -1/(b + kappa lam) for x_0, then 1/(a_i - lam)."""
        s = self.b + self.geometry.kappa * lam
        return np.concatenate([[-1.0 / s], 1.0 / (np.asarray(self.a) - lam)])

    def q(self, x, lam: float = 0.0):
        """Confocal form q_lambda at x, or at each point of a stack x; lam = 0
        gives the defining form."""
        x = np.asarray(x, dtype=float)
        return (x * x) @ self._coeffs(lam)

    def grad_q(self, x, lam: float = 0.0) -> np.ndarray:
        """Gradient of q_lambda; in the hyperbolic case the Minkowski
        gradient (first component negated)."""
        return 2.0 * np.asarray(x, dtype=float) * self._coeffs(lam) * self.geometry.eta

    def grad_norm(self, x, lam: float = 0.0):
        g = self.grad_q(x, lam)
        return np.sqrt(self.geometry.dot(g, g))

    def point_from_direction(self, w) -> np.ndarray:
        """Point of the ellipsoid over the direction w in (x_1..x_n), or one
        point per direction of a stack w: (sqrt(bm) rho, rho w) for unit w,
        with m = sum w_i^2/a_i and rho = (kappa + bm)^(-1/2)."""
        w = np.asarray(w, dtype=float)
        w = w / np.linalg.norm(w, axis=-1, keepdims=True)
        bm = self.b * np.sum(w * w / np.asarray(self.a), axis=-1)
        rho = 1.0 / np.sqrt(self.geometry.kappa + bm)
        return np.concatenate([(np.sqrt(bm) * rho)[..., None], rho[..., None] * w],
                              axis=-1)

    def nodes(self, ws):
        """The points over the unit directions ws (rows of R^n), and their
        weights per unit solid angle of w, the area element times the
        homeoidal density: b rho^(n-1) / (2 sqrt(bm)) with m = sum w_i^2/a_i
        and rho = (kappa + bm)^(-1/2).

        In geodesic polar coordinates (r, w) about the pole, dvol =
        sin^(n-1) r dr dw and q = m sin^2 r - cos^2 r / b (sinh and cosh in
        H^n); the point over w has sin r = rho and cos r = sqrt(bm) rho.  By
        the coarea formula the measure dA/||grad q|| on q = 0 is
        sin^(n-1) r / |dq/dr| dw, which is the weight above."""
        ws = np.asarray(ws, dtype=float)
        ws = ws / np.linalg.norm(ws, axis=1, keepdims=True)
        bm = self.b * np.sum(ws * ws / np.asarray(self.a), axis=1)
        rho = 1.0 / np.sqrt(self.geometry.kappa + bm)
        return self.point_from_direction(ws), self.b * rho ** (self.n - 1) / (2.0 * np.sqrt(bm))

    def clearance(self, x) -> float:
        """First-order estimate of the geodesic distance from x to the
        ellipsoid: |q| over the norm of q's gradient along the model, which
        is spacelike also where the ambient gradient of H^n is not."""
        x = np.asarray(x, dtype=float)
        g = _project(self.geometry, self.grad_q(x), x)
        g = np.sqrt(max(self.geometry.dot(g, g), 0.0))
        return abs(self.q(x)) / g if g > 0 else np.inf


def f_lambda(ellipsoid: CurvedEllipsoid, lam: float) -> np.ndarray:
    """Diagonal of the confocal map carrying E onto E_lambda."""
    a = np.asarray(ellipsoid.a)
    b = ellipsoid.b
    s = b + ellipsoid.geometry.kappa * lam
    if not (lam < a[-1] and s > 0.0):
        raise DomainError(f"need lambda < a_n and b + kappa lambda > 0, got {lam}")
    return np.concatenate([[np.sqrt(s / b)], np.sqrt((a - lam) / a)])


def homeoidal_density(ellipsoid: CurvedEllipsoid, x, lam: float = 0.0) -> float:
    """Density of the infinitely thin homeoid: 1/||grad q|| with the
    geometry-appropriate norm."""
    if abs(ellipsoid.q(x, lam)) > 1e-10:
        raise NotOnSurface(f"point is not on the ellipsoid: q = {ellipsoid.q(x, lam)}")
    return 1.0 / ellipsoid.grad_norm(x, lam)


# ---------------------------------------------------------------------------
# homeoids and chord segments


@dataclass(frozen=True)
class Homeoid:
    """Shell eps1 <= q <= eps2 around (or beside) a curved ellipsoid."""

    ellipsoid: CurvedEllipsoid
    eps1: float
    eps2: float

    def __post_init__(self):
        if self.eps1 >= self.eps2:
            raise InvalidParameters("need eps1 < eps2")


def _project(geometry: Geometry, v, x):
    """v - kappa <v, x> x: the part of v, or of each row of a stack v,
    tangent to the model at its point x."""
    return v - geometry.kappa * geometry.dot(v, x)[..., None] * x


def _geodesic_basis(geometry: Geometry, x, v):
    """Orthonormal (in the model metric) basis of the 2-plane spanning the
    geodesic through x with initial direction v: <e1, e1> = kappa,
    <e2, e2> = 1."""
    x = np.asarray(x, dtype=float)
    e1 = x / np.sqrt(geometry.kappa * geometry.dot(x, x))
    t = _project(geometry, np.asarray(v, dtype=float), e1)
    return e1, t / np.sqrt(geometry.dot(t, t))


def chord_segments(geometry: Geometry, x, v, homeoid: Homeoid):
    """Arc lengths of the components of a geodesic's intersection with a
    homeoid; by the equal-heights lemma two components have equal lengths.

    Along the geodesic c(t) e1 + s(t) e2 the form q is quadratic in (c, s),
    so q = mid + P cos 2t + Q sin 2t on S^n (period pi: the shell is
    antipodally symmetric, and components are counted per half circle) and
    q = mid + P cosh 2t + Q sinh 2t in H^n.  Each level of the shell is
    crossed where an arccos, respectively an arccosh, puts it.
    """
    e1, e2 = _geodesic_basis(geometry, x, v)
    E = np.stack([e1, e2])
    (A, B), (_, C) = (E * homeoid.ellipsoid._coeffs(0.0)) @ E.T
    levels = np.array([homeoid.eps1, homeoid.eps2])
    if geometry.kind is Kind.SPHERICAL:
        # q = mid + R cos(2t - t0): two components when both levels lie
        # strictly between the extremes mid -+ R
        mid, R = 0.5 * (A + C), np.hypot(0.5 * (A - C), B)
        crossed = np.abs(levels - mid) < R
        if np.all(crossed):
            half = float(0.5 * np.diff(np.arccos((levels[::-1] - mid) / R))[0])
            return half, half
        if mid - R >= levels[0] and mid + R <= levels[1]:
            raise WrongComponentCount("geodesic lies entirely inside the shell")
        raise WrongComponentCount(
            f"geodesic meets the shell in {int(np.sum(crossed))} components")
    mid, P, Q = 0.5 * (A - C), 0.5 * (A + C), B
    if abs(P) <= abs(Q):
        # q = mid + P e^{+-2t}, or mid + S sinh(2t - t0): monotone
        raise WrongComponentCount("geodesic meets the shell in at most 1 component")
    # q = mid + S cosh(2t - t0), S = +-sqrt(P^2 - Q^2) with the sign of P:
    # two components when both levels lie strictly beyond the extreme mid + S
    beta = (levels - mid) / (np.sign(P) * np.sqrt((P - Q) * (P + Q)))
    crossed = beta > 1.0
    if np.all(crossed):
        half = float(0.5 * abs(np.diff(np.arccosh(beta))[0]))
        return half, half
    raise WrongComponentCount(
        f"geodesic meets the shell in {int(np.sum(crossed))} components")


# ---------------------------------------------------------------------------
# direction rules and potentials by cubature


def direction_rule(n: int, m: int):
    """Nodes (unit rows) and weights of a rule of about m nodes on S^{n-1}:
    the trapezoid rule on S^1; on S^2 Gauss-Legendre in w_3 times the
    trapezoid rule in the angle of (w_1, w_2).  Both converge exponentially
    for an integrand analytic on the sphere."""
    if n == 2:
        phi = 2.0 * np.pi * np.arange(m) / m
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(m, 2.0 * np.pi / m)
    if n == 3:
        k = max(1, int(np.ceil(np.sqrt(m / 2.0))))
        z, wz = np.polynomial.legendre.leggauss(k)
        z, phi = np.meshgrid(z, np.pi * np.arange(2 * k) / k, indexing="ij")
        s = np.sqrt(1.0 - z * z)
        ws = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
        return ws.reshape(-1, 3), np.repeat(wz * (np.pi / k), 2 * k)
    raise InvalidParameters("direction rules implemented for n = 2, 3")


@dataclass(frozen=True)
class GeodesicSphere:
    """Round shell: points at a fixed geodesic distance from a center."""

    geometry: Geometry
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.radius):
            raise InvalidParameters(f"the radius must be finite, got {self.radius}")

    def nodes(self, ws):
        """The shell's points in the unit directions ws (rows of R^n, taken
        in the tangent frame at the center), with equal weights."""
        geo, c = self.geometry, np.asarray(self.center, dtype=float)
        ws = np.asarray(ws, dtype=float) @ _tangent_basis(geo, c)
        sin, cos = geo.trig
        return cos(self.radius) * c + sin(self.radius) * ws, np.ones(len(ws))

    def clearance(self, x) -> float:
        """Geodesic distance from x to the shell."""
        return abs(geodesic_distance(self.geometry, x, self.center) - self.radius)


def _unit_tangent_toward(geometry: Geometry, x, ys, rs):
    """Unit tangents t at x of the geodesics to each row y of ys, at
    distances rs: y = cos(r) x + sin(r) t."""
    sin, cos = geometry.trig
    return (ys - cos(rs)[:, None] * x) / sin(rs)[:, None]


def _tangent_basis(geometry: Geometry, x) -> np.ndarray:
    """Orthonormal basis (rows) of the tangent space at x in the model
    metric (Minkowski-orthonormal in the hyperbolic case)."""
    x = np.asarray(x, dtype=float)
    xn = x / np.sqrt(geometry.kappa * geometry.dot(x, x))
    basis = []
    for v in _project(geometry, np.eye(x.size), xn):
        for b in basis:
            v = v - geometry.dot(v, b) * b
        nrm2 = geometry.dot(v, v)
        if nrm2 > 1e-12:
            basis.append(v / np.sqrt(nrm2))
        if len(basis) == x.size - 1:
            break
    return np.array(basis)


def _cubature(surface, x, m: int, integrand) -> dict:
    """Mean of integrand(points, distances) over the surface's unit charge
    by the direction rule of size m, the mean of its norm, and the error
    estimate |F_m - F_2m|, refusing an x within 1e-3 of the surface or of a
    node.  The surface gives its nodes over unit directions (points and
    weights: area element times density) and its clearance from x.

    The fine rule has size 2m + 1 on S^1: at odd m the 2m trapezoid nodes
    are the m nodes and their antipodes, which a point on an axis of the
    charge sees alike, and the estimate would read 0.  On S^2 it has size
    2m, raised where that adds no node: there the rules of m and 2m share
    k = ceil(sqrt(m/2)) at m = 1, 3, 4 and 9."""
    if surface.clearance(x) < 1e-3:
        raise TooCloseToSurface("evaluation point within 1e-3 of the surface")
    n, means = surface.geometry.n, []
    coarse = direction_rule(n, m)
    fine = 2 * m + 1 if n == 2 else max(2 * m, len(coarse[1]) + 1)
    for ws, rule in (coarse, direction_rule(n, fine)):
        pts, weights = surface.nodes(ws)
        rs = geodesic_distance(surface.geometry, x, pts)
        if np.min(rs) < 1e-3:
            raise TooCloseToSurface(f"min distance {np.min(rs)}")
        weights = rule * weights
        f, w = integrand(pts, rs), weights / np.sum(weights)
        means.append((w @ f, w @ np.linalg.norm(f.reshape(len(f), -1), axis=1)))
    (value, abs_integral), (fine, _) = means
    return {"value": value, "abs_integral": float(abs_integral),
            "error": float(np.linalg.norm(value - fine)), "N": m}


def surface_potential(surface, x, m: int) -> dict:
    """Potential at x of a unit charge spread over the surface (curved
    ellipsoid with homeoidal density, or a round geodesic sphere with
    uniform density), by the direction rule of size m, with the integral of
    |integrand| and the error estimate |F_m - F_2m|."""
    out = _cubature(surface, x, m, lambda pts, rs: point_potential(surface.geometry, rs))
    return dict(out, value=float(out["value"]))


def field_at(surface, x, m: int) -> dict:
    """Force field of the charged surface at x (differentiated integrand)
    by the direction rule of size m, in an orthonormal tangent frame at x,
    with the integral of |integrand| and the error estimate
    |F_m - F_2m|."""
    geometry, x = surface.geometry, np.asarray(x, dtype=float)
    basis = _tangent_basis(geometry, x)

    def integrand(pts, rs):
        T = _unit_tangent_toward(geometry, x, pts, rs)
        return -point_potential_derivative(geometry, rs)[:, None] * (T * geometry.eta) @ basis.T

    out = _cubature(surface, x, m, integrand)
    fld = out.pop("value")
    return dict(out, field=fld, frame=basis, norm=float(np.linalg.norm(fld)))


# ---------------------------------------------------------------------------
# simultaneous diagonalization


def simultaneous_diagonalize(p: QuadraticForm, q: QuadraticForm):
    """Common diagonalizing basis of two index-1 forms whose light cones
    are nested; columns of the returned basis diagonalize both."""
    A, B = q.matrix, p.matrix
    try:
        vals, vecs = np.linalg.eig(np.linalg.solve(B, A))
    except np.linalg.LinAlgError:
        raise ConeConditionViolated("the form p is degenerate")
    if np.max(np.abs(vals.imag)) > 1e-10 * max(1.0, np.max(np.abs(vals))):
        raise ConeConditionViolated("generalized eigenvalues are not real")
    vals = vals.real
    vecs = vecs.real
    order = np.argsort(vals)
    vecs = vecs[:, order]
    dp = vecs.T @ B @ vecs
    dq = vecs.T @ A @ vecs
    off = max(np.max(np.abs(dp - np.diag(np.diag(dp)))),
              np.max(np.abs(dq - np.diag(np.diag(dq)))))
    scale = max(np.max(np.abs(dp)), np.max(np.abs(dq)))
    if off > 1e-10 * scale:
        raise ConeConditionViolated("no common orthogonal basis found")
    return vecs, np.diag(dp).copy(), np.diag(dq).copy()


# ---------------------------------------------------------------------------
# hyperbolic surfaces and Arnold root sums


@dataclass(frozen=True)
class HyperbolicSurface:
    """Algebraic surface: zero set of a polynomial of total degree d >= 2.

    Euclidean: dense coefficient array c[i, j] for x^i y^j in the plane.
    Curved: homogeneous coefficients c[i, j, k] for x0^i x1^j x2^k.
    """

    coeffs: np.ndarray
    geometry: Geometry

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if self.degree < 2:
            raise InvalidParameters("need total degree >= 2")
        if self.geometry.kind is not Kind.EUCLIDEAN and np.ptp(np.sum(np.nonzero(c), axis=0)):
            raise InvalidParameters("curved surfaces need a homogeneous polynomial")

    @property
    def degree(self) -> int:
        return int(max(np.sum(np.nonzero(self.coeffs), axis=0), default=0))

    def __call__(self, x):
        """p at the point x, or at each point (last axis) of a stack."""
        x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        P = np.polynomial.polynomial
        v = (P.polyval2d if self.coeffs.ndim == 2 else P.polyval3d)(*x, self.coeffs)
        return float(v) if v.ndim == 0 else v


def _sweep(surface: HyperbolicSurface, x, theta) -> tuple:
    """The lines (geodesics) through x at the angles theta from the first
    axis (of the tangent frame at x), and the coefficients, low to high, of
    p restricted to each: in t on x + t u in E^2, and in the chart
    tan or tanh of the arc length on cos e1 + sin u, or cosh e1 + sinh u,
    in S^2 and H^2.  All lines are fitted by one stacked solve at d + 1
    nodes; the constant coefficient is p at x on every line."""
    d, geo, x = surface.degree, surface.geometry, np.asarray(x, dtype=float)
    if geo.kind is Kind.EUCLIDEAN:
        base, frame = x, np.eye(2)
        c, s = np.ones(d + 1), np.cos(np.pi * (np.arange(d + 1) + 0.5) / (d + 1))
    else:
        base, frame = x / np.sqrt(geo.kappa * geo.dot(x, x)), _tangent_basis(geo, x)
        th = np.pi * (np.arange(d + 1) + 0.5) / (2.0 * (d + 1))
        c, s = np.cos(th), np.sin(th)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1) @ frame
    vals = surface(c[:, None, None] * base + s[:, None, None] * dirs)
    k = np.arange(d + 1)
    return dirs, np.linalg.solve(c[:, None] ** (d - k) * s[:, None] ** k, vals).T


def _companion_roots(high) -> np.ndarray:
    """Roots of each polynomial of a stack (coefficients high to low, the
    leading one nonzero): the eigenvalues of the companion matrices that
    np.roots builds, in one stacked call."""
    high = np.asarray(high, dtype=float)
    d = high.shape[-1] - 1
    comp = np.zeros(high.shape[:-1] + (d, d))
    comp[..., 1:, :-1] = np.eye(d - 1)
    comp[..., 0, :] = -high[..., 1:] / high[..., :1]
    return np.linalg.eigvals(comp)


def _real_mask(roots, tol: float) -> np.ndarray:
    """Roots whose imaginary part is below tol times their row's scale
    max(1, |root|)."""
    scale = np.maximum(1.0, np.max(np.abs(roots), axis=-1, keepdims=True))
    return np.abs(roots.imag) < tol * scale


def _distinct_real_count(roots, tol: float) -> np.ndarray:
    """Per row of a stack of roots, the real ones (_real_mask), counted once
    per run closer than tol times the row's scale max(1, |root|)."""
    real = _real_mask(roots, tol)
    scale = np.maximum(1.0, np.max(np.abs(roots), axis=-1))
    # non-real roots sort last as nan, and nan gaps compare False
    xs = np.sort(np.where(real, roots.real, np.nan), axis=-1)
    close = np.diff(xs, axis=-1) <= tol * scale[..., None]
    return np.sum(real, axis=-1) - np.sum(close, axis=-1)


def _line_roots(surface: HyperbolicSurface, dirs, coeffs, strict: bool = True):
    """Roots r = 1/t of swept lines, sorted, the direction of the first
    line that fails or None, and the margin.  In r the leading coefficient
    is p(x) on every line, and a root at infinity is r = 0.  A line passes
    with d real roots, distinct ones when strict (else a double root may
    split by ~sqrt(machine eps): the cut is 1e-7), and in H^2 on the
    geodesic, |tanh t| < 1.  The margin is the least |g| / (eps sum |g_k|
    |r|^k), g = r^d p(1/r), at midpoints of adjacent roots: near 1 or
    below, rounding of the coefficients alone can change the verdict."""
    roots = _companion_roots(coeffs)
    d = coeffs.shape[-1] - 1
    ok = (_distinct_real_count(roots, 1e-8) == d if strict
          else np.all(_real_mask(roots, 1e-7), axis=-1))
    roots = np.sort(roots.real, axis=-1)
    if surface.geometry.kind is Kind.HYPERBOLIC:
        ok &= np.all(np.abs(roots) > 1.0, axis=-1)
    mids = 0.5 * (roots[..., 1:] + roots[..., :-1])
    terms = coeffs[..., None, :] * mids[..., None] ** np.arange(d, -1, -1)
    margin = float(np.min(np.abs(np.sum(terms, axis=-1))
                          / (np.finfo(float).eps * np.sum(np.abs(terms), axis=-1))))
    bad = np.flatnonzero(~ok.reshape(-1))
    witness = None if bad.size == 0 else dirs[bad[0] % len(dirs)]
    return roots, witness, margin


def is_hyperbolic_at(surface: HyperbolicSurface, x, m: int = 64,
                     strict: bool = True):
    """Hyperbolicity verdict by a sweep: each of m equally spaced lines
    (geodesics) through x, offset by half a step, must meet the projective
    closure of the surface in d real points, distinct ones when strict.
    Returns (verdict, witness direction or None, margin; see _line_roots)."""
    if not np.all(np.isfinite(x)):
        raise InvalidParameters(f"the base point must be finite, got {x}")
    if abs(surface(x)) < 1e-12:
        raise InvalidParameters("base point lies on the surface")
    dirs, coeffs = _sweep(surface, x, np.pi * (np.arange(m) + 0.5) / m)
    _, witness, margin = _line_roots(surface, dirs, coeffs, strict)
    return witness is None, witness, margin


def vieta_segment_sum(coeffs_low_high, eps: float):
    """Sum of root displacements between p and p - eps; zero by Vieta
    (both polynomials share all coefficients except the constant).  Takes
    one polynomial, giving a float, or a stack, giving an array, with one
    eps or one per polynomial."""
    c = np.array(coeffs_low_high, dtype=float)
    ce = c.copy()
    ce[..., 0] -= eps
    roots = _companion_roots(np.stack([c, ce])[..., ::-1])
    if not np.all(_real_mask(roots, 1e-8)):
        raise ComplexRoots("polynomial has non-real roots")
    total = np.sum(np.sort(roots.real, axis=-1), axis=-1)
    return float(total[0] - total[1]) if total.ndim == 1 else total[0] - total[1]


@lru_cache(maxsize=None)
def _half_angle_basis(d: int) -> np.ndarray:
    """Read-only rows k = 0..d: the coefficients, low to high and padded to
    2d + 1, of (1 - u^2)^(d-k) (2u)^k; row d + 1: those of (1 + u^2)^d."""
    P = np.polynomial.polynomial
    basis = np.zeros((d + 2, 2 * d + 1))
    for k in range(d + 1):
        term = P.polymul(P.polypow([1.0, 0.0, -1.0], d - k), P.polypow([0.0, 2.0], k))
        basis[k, :len(term)] = term
    basis[d + 1] = P.polypow([1.0, 0.0, 1.0], d)
    basis.flags.writeable = False
    return basis


def _geodesic_roots(binary_coeffs, shift: float, geometry: Geometry) -> np.ndarray:
    """Arc-length parameters t of the d points where the binary form p of
    degree d (or each form of a stack) equals shift on a curved line:
    p(cos t, sin t) on the open half circle t in (0, pi) of S^1, or
    p(e^t, e^-t) on the branch xy = 1 of H^1.

    Both are the positive roots of one polynomial: on S^1 in u = tan(t/2),
    (1 + u^2)^d (p - shift) = sum_k b_k (1 - u^2)^(d-k) (2u)^k
    - shift (1 + u^2)^d; on H^1 in X = e^t, X^d (p - shift), which has only
    even powers but the shift's X^d.
    """
    b = np.asarray(binary_coeffs, dtype=float)
    d = b.shape[-1] - 1
    form = np.zeros(b.shape[:-1] + (2 * d + 1,))
    if geometry.kind is Kind.SPHERICAL:
        basis = _half_angle_basis(d)
        for k in range(d + 1):
            form += b[..., k, None] * basis[k]
        level, to_t = basis[d + 1], lambda u: 2.0 * np.arctan(u)
    elif geometry.kind is Kind.HYPERBOLIC:
        form[..., ::2] = b[..., ::-1]
        level, to_t = np.eye(2 * d + 1)[d], np.log
    else:
        raise InvalidParameters("curved segment sums need S^1 or H^1")
    roots = _companion_roots((form - shift * level)[..., ::-1])
    positive = _real_mask(roots, 1e-8) & (roots.real > 0)
    counts = np.sum(positive, axis=-1)
    if np.any(counts != d):
        raise ComplexRoots(f"expected {d} roots on the line, got {np.min(counts)}")
    return to_t(np.sort(np.where(positive, roots.real, np.inf), axis=-1)[..., :d])


def curved_segment_sum(binary_coeffs, eps: float, geometry: Geometry):
    """Root-displacement sum for a degree-d binary form restricted to a
    curved geodesic (upper half-circle of S^1, or a branch of H^1 in the
    chart xy = 1 with arc length t = log x).  Takes one form, giving a
    float, or a stack, giving an array.

    Even d: sum(t_i - t_i^eps).  Odd d (spherical only): the symmetrized
    sum(t_i - (t_i^eps + t_i^{-eps})/2).
    """
    d = np.shape(binary_coeffs)[-1] - 1
    if geometry.kind is Kind.HYPERBOLIC and d % 2 == 1:
        raise OddDegreeHyperbolic("no hyperbolic surfaces of odd degree")

    def total(shift):
        return np.sum(_geodesic_roots(binary_coeffs, shift, geometry), axis=-1)

    if d % 2 == 0:
        out = total(0.0) - total(eps)
    else:
        out = total(0.0) - 0.5 * (total(eps) + total(-eps))
    return float(out) if out.ndim == 0 else out


def arnold_field_check(surface: HyperbolicSurface, eps: float, x, m: int) -> dict:
    """Field at x of the standard layer 0 <= p <= eps of a planar surface,
    with unit density; zero by Arnold's theorem in the hyperbolicity domain.

    In polar form around x, F = int_0^pi u(theta) sum_i (t_i^eps - t_i)
    dtheta over the roots of p and p - eps on the line x + t u(theta): the
    layer's chords, signed by the side they are crossed from.  The
    trapezoid rule on the m swept lines sums it, and the sweep checks
    hyperbolicity on each.  Paired in the order of 1/t, which a root
    through infinity keeps, the chords also give the integral of
    |integrand|, of 1/|y - x| over the layer.  Returns the field, its norm,
    that integral, the error estimate |F_m - F_2m| and the margin."""
    if surface.geometry.kind is not Kind.EUCLIDEAN:
        raise InvalidParameters("layer fields implemented in the plane")
    if not np.all(np.isfinite(np.append(x, eps))):
        raise InvalidParameters(f"the point and eps must be finite, got {x} and {eps}")
    for level in (0.0, eps):
        if abs(surface(x) - level) < 1e-12:
            raise InvalidParameters("base point lies on the layer's boundary")
    # both rules in one sweep: m lines, then 2m, each offset by half a step
    theta = np.concatenate([np.pi * (np.arange(k) + 0.5) / k for k in (m, 2 * m)])
    dirs, coeffs = _sweep(surface, x, theta)
    shifted = coeffs.copy()
    shifted[:, 0] -= eps
    roots, witness, margin = _line_roots(surface, dirs, np.stack([coeffs, shifted]))
    if witness is not None:
        raise NotInHyperbolicityDomain(f"a line through x misses the layer: {witness}",
                                       witness)
    if np.any(roots == 0.0):
        raise DegenerateConfiguration("a swept line runs along an asymptote of the layer")
    chords = 1.0 / roots[1] - 1.0 / roots[0]
    per_line = np.sum(chords, axis=1) * np.pi / np.repeat([m, 2 * m], [m, 2 * m])
    field, fine = per_line[:m] @ dirs[:m], per_line[m:] @ dirs[m:]
    return {"field": field, "norm": float(np.linalg.norm(field)),
            "abs_integral": float(np.sum(np.abs(chords[:m])) * np.pi / m),
            "error": float(np.linalg.norm(field - fine)), "margin": margin, "N": m}
