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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy

from .errors import (
    ComplexRoots,
    ConeConditionViolated,
    DomainError,
    InvalidParameters,
    NotInHyperbolicityDomain,
    NotOnSurface,
    OddDegreeHyperbolic,
    TooCloseToSurface,
    WrongComponentCount,
)
from .geometry import Geometry, Kind, geodesic_distance, minkowski_dot

# ---------------------------------------------------------------------------
# fundamental solutions


def _phi(kind: Kind, x):
    return np.sin(x) if kind is Kind.SPHERICAL else np.sinh(x)


def point_potential(geometry: Geometry, r: float) -> float:
    """Potential of a unit point mass at geodesic distance r.

    Spherical: int_r^{pi/2} dx/sin^{n-1}x.  Hyperbolic:
    int_r^inf dx/sinh^{n-1}x (which for n = 3 equals coth r - 1: the
    antiderivative -coth x evaluates to -1 at infinity).
    """
    n = geometry.n
    if geometry.kind is Kind.SPHERICAL:
        if not 0.0 < r < np.pi:
            raise DomainError(f"need 0 < r < pi, got {r}")
        if n == 3:
            return float(1.0 / np.tan(r))
        val, _ = scipy.integrate.quad(lambda x: np.sin(x) ** (1 - n), r,
                                      np.pi / 2, epsabs=1e-13, epsrel=1e-13)
        return float(val)
    if geometry.kind is Kind.HYPERBOLIC:
        if r <= 0.0:
            raise DomainError(f"need r > 0, got {r}")
        if n == 3:
            return float(1.0 / np.tanh(r) - 1.0)
        def integrand(x):
            # exp((1-n) log sinh x), stable for large x
            return np.exp((1 - n) * (x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)))

        val, _ = scipy.integrate.quad(integrand, r, np.inf,
                                      epsabs=1e-13, epsrel=1e-13)
        return float(val)
    raise InvalidParameters("point potential defined on curved geometries")


def point_potential_derivative(geometry: Geometry, r: float) -> float:
    """u'(r) = -1/phi^{n-1}(r): the flux through the geodesic sphere of
    radius r is independent of r."""
    return float(-_phi(geometry.kind, r) ** (1 - geometry.n))


def antisymmetry_check(geometry: Geometry, r: float) -> float:
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

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.matrix @ x)

    def signature(self) -> Tuple[int, int]:
        ev = np.linalg.eigvalsh(self.matrix)
        return int(np.sum(ev < 0)), int(np.sum(ev > 0))


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

    def q(self, x, lam: float = 0.0) -> float:
        """Confocal form q_lambda; lam = 0 gives the defining form."""
        x = np.asarray(x, dtype=float)
        s = self.b + lam if self.geometry.kind is Kind.SPHERICAL else self.b - lam
        val = -x[0] ** 2 / s
        for i, ai in enumerate(self.a):
            val += x[1 + i] ** 2 / (ai - lam)
        return float(val)

    def form(self, lam: float = 0.0) -> QuadraticForm:
        s = self.b + lam if self.geometry.kind is Kind.SPHERICAL else self.b - lam
        d = np.concatenate([[-1.0 / s], 1.0 / (np.asarray(self.a) - lam)])
        return QuadraticForm(np.diag(d))

    def grad_q(self, x, lam: float = 0.0) -> np.ndarray:
        """Gradient of q_lambda; in the hyperbolic case the Minkowski
        gradient (first component negated)."""
        x = np.asarray(x, dtype=float)
        s = self.b + lam if self.geometry.kind is Kind.SPHERICAL else self.b - lam
        g = np.empty_like(x)
        g[0] = -2.0 * x[0] / s
        g[1:] = 2.0 * x[1:] / (np.asarray(self.a) - lam)
        if self.geometry.kind is Kind.HYPERBOLIC:
            g[0] = -g[0]
        return g

    def grad_norm(self, x, lam: float = 0.0) -> float:
        g = self.grad_q(x, lam)
        if self.geometry.kind is Kind.SPHERICAL:
            return float(np.linalg.norm(g))
        return float(np.sqrt(minkowski_dot(g, g)))

    def point_from_direction(self, w) -> np.ndarray:
        """Point of the ellipsoid over the unit direction w in (x_1..x_n)."""
        w = np.asarray(w, dtype=float)
        w = w / np.linalg.norm(w)
        m = float(np.sum(w * w / np.asarray(self.a)))
        if self.geometry.kind is Kind.SPHERICAL:
            rho = 1.0 / np.sqrt(1.0 + self.b * m)
        else:
            rho = 1.0 / np.sqrt(self.b * m - 1.0)
        x0 = np.sqrt(self.b * m) * rho
        return np.concatenate([[x0], rho * w])

    def contains_on_surface(self, x, tol: float = 1e-8) -> bool:
        return abs(self.q(x)) < tol and x[0] > 0


def f_lambda(ellipsoid: CurvedEllipsoid, lam: float) -> np.ndarray:
    """Diagonal of the confocal map carrying E onto E_lambda."""
    a = np.asarray(ellipsoid.a)
    b = ellipsoid.b
    if ellipsoid.geometry.kind is Kind.SPHERICAL:
        if not -b < lam < a[-1]:
            raise DomainError(f"need lambda in (-b, a_n), got {lam}")
        d0 = np.sqrt((b + lam) / b)
    else:
        if not lam < a[-1]:
            raise DomainError(f"need lambda < a_n, got {lam}")
        d0 = np.sqrt((b - lam) / b)
    return np.concatenate([[d0], np.sqrt((a - lam) / a)])


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


def _geodesic_basis(geometry: Geometry, x, v):
    """Orthonormal (in the model metric) basis of the 2-plane spanning the
    geodesic through x with initial direction v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if geometry.kind is Kind.SPHERICAL:
        e1 = x / np.linalg.norm(x)
        t = v - (v @ e1) * e1
        return e1, t / np.linalg.norm(t)
    e1 = x / np.sqrt(-minkowski_dot(x, x))
    t = v + minkowski_dot(v, e1) * e1
    return e1, t / np.sqrt(minkowski_dot(t, t))


def chord_segments(geometry: Geometry, x, v, homeoid: Homeoid,
                   t_max: float = 12.0, samples: int = 4000):
    """Arc lengths of the components of a geodesic's intersection with a
    homeoid; by the equal-heights lemma two components have equal lengths."""
    e1, e2 = _geodesic_basis(geometry, x, v)
    ell = homeoid.ellipsoid

    if geometry.kind is Kind.SPHERICAL:
        # q restricted to a great circle has period pi (the shell is
        # antipodally symmetric), so segments are counted per half-circle
        ts = np.linspace(0.0, np.pi, samples, endpoint=False)

        def gamma(t):
            return np.cos(t)[..., None] * e1 + np.sin(t)[..., None] * e2

        period = np.pi
    else:
        ts = np.linspace(-t_max, t_max, samples)

        def gamma(t):
            return np.cosh(t)[..., None] * e1 + np.sinh(t)[..., None] * e2

        period = None

    def qval(t):
        return ell.q(gamma(np.atleast_1d(np.asarray(t, dtype=float)))[0])

    if period is not None:
        # rotate the grid so that it starts outside the shell, making the
        # periodic walk equivalent to the open-interval walk
        qv0 = np.array([ell.q(p) for p in gamma(ts)])
        out_idx = np.nonzero((qv0 < homeoid.eps1) | (qv0 > homeoid.eps2))[0]
        if len(out_idx) == 0:
            raise WrongComponentCount("geodesic lies entirely inside the shell")
        ts = np.concatenate([ts[out_idx[0]:], ts[:out_idx[0]] + period])
    qv = np.array([ell.q(p) for p in gamma(ts)])
    inside = (qv >= homeoid.eps1) & (qv <= homeoid.eps2)

    def refine(t_lo, t_hi, q_out):
        lev = homeoid.eps1 if q_out < homeoid.eps1 else homeoid.eps2
        return scipy.optimize.brentq(lambda t: qval(t) - lev, t_lo, t_hi,
                                     xtol=1e-14)

    segments = []
    start_t = None
    for k in range(1, len(ts)):
        if inside[k] and not inside[k - 1]:
            start_t = refine(ts[k - 1], ts[k], qv[k - 1])
        if inside[k - 1] and not inside[k] and start_t is not None:
            end_t = refine(ts[k - 1], ts[k], qv[k])
            segments.append(end_t - start_t)
            start_t = None
    if len(segments) != 2:
        raise WrongComponentCount(
            f"geodesic meets the shell in {len(segments)} components")
    return tuple(segments)


# ---------------------------------------------------------------------------
# surface samplers and Monte-Carlo potentials


def _tangent_frame(ws: np.ndarray) -> list:
    """Orthonormal tangent bases of the direction sphere at each row of ws."""
    N, n = ws.shape
    if n == 2:
        return np.stack([-ws[:, 1], ws[:, 0]], axis=1)[:, None, :]
    if n == 3:
        ref = np.zeros_like(ws)
        ref[:, 0] = 1.0
        bad = np.abs(ws[:, 0]) > 0.9
        ref[bad] = 0.0
        ref[bad, 1] = 1.0
        e1 = np.cross(ws, ref)
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(ws, e1)
        return np.stack([e1, e2], axis=1)
    raise InvalidParameters("samplers implemented for n = 2, 3")


def sample_ellipsoid(ellipsoid: CurvedEllipsoid, N: int, rng,
                     density: str = "homeoidal"):
    """Radial-projection sampler: uniform directions on S^{n-1}, points of
    the ellipsoid above them, and weights combining the exact area element
    of the parametrization with the requested density."""
    n = ellipsoid.n
    geometry = ellipsoid.geometry
    ws = rng.normal(size=(N, n))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    pts = np.array([ellipsoid.point_from_direction(w) for w in ws])
    frames = _tangent_frame(ws)
    h = 1e-6
    grams = np.empty((N, n - 1, n - 1))
    tangents = np.empty((N, n - 1, n + 1))
    for k in range(n - 1):
        wp = ws + h * frames[:, k]
        wm = ws - h * frames[:, k]
        dp = np.array([ellipsoid.point_from_direction(w) for w in wp])
        dm = np.array([ellipsoid.point_from_direction(w) for w in wm])
        tangents[:, k] = (dp - dm) / (2.0 * h)
    sign = np.ones(n + 1)
    if geometry.kind is Kind.HYPERBOLIC:
        sign[0] = -1.0
    for j in range(n - 1):
        for k in range(j, n - 1):
            g = np.sum(tangents[:, j] * tangents[:, k] * sign, axis=1)
            grams[:, j, k] = g
            grams[:, k, j] = g
    areas = np.sqrt(np.maximum(np.linalg.det(grams), 0.0))
    if density == "homeoidal":
        dens = np.array([1.0 / ellipsoid.grad_norm(p) for p in pts])
    elif density == "uniform":
        dens = np.ones(N)
    else:
        raise InvalidParameters(f"unknown density rule {density!r}")
    return pts, areas * dens


@dataclass(frozen=True)
class GeodesicSphere:
    """Round shell: points at a fixed geodesic distance from a center."""

    geometry: Geometry
    center: np.ndarray
    radius: float

    def sample(self, N: int, rng):
        c = np.asarray(self.center, dtype=float)
        dim = self.geometry.n + 1
        ws = rng.normal(size=(N, dim))
        if self.geometry.kind is Kind.SPHERICAL:
            ws -= (ws @ c)[:, None] * c
            ws /= np.linalg.norm(ws, axis=1, keepdims=True)
            pts = np.cos(self.radius) * c + np.sin(self.radius) * ws
        else:
            eta = np.ones(dim)
            eta[0] = -1.0
            ws += (ws @ (eta * c))[:, None] * c
            ws /= np.sqrt(np.sum(ws * ws * eta, axis=1))[:, None]
            pts = np.cosh(self.radius) * c + np.sinh(self.radius) * ws
        return pts, np.ones(N)


def _unit_tangent_toward(geometry: Geometry, x, ys, rs):
    if geometry.kind is Kind.SPHERICAL:
        t = ys - np.cos(rs)[:, None] * x
        return t / np.sin(rs)[:, None]
    t = ys - np.cosh(rs)[:, None] * x
    return t / np.sinh(rs)[:, None]


def _distances(geometry: Geometry, x, ys):
    return np.array([geodesic_distance(geometry, x, y) for y in ys])


def surface_potential(surface, x, N: int, rng) -> dict:
    """Monte-Carlo potential of a unit charge spread over the surface
    (curved ellipsoid with homeoidal density, or a round geodesic sphere
    with uniform density).  Returns the estimate with its standard error."""
    if _surface_clearance(surface, x) < 1e-3:
        raise TooCloseToSurface("evaluation point within 1e-3 of the surface")
    geometry, pts, weights = _sample_surface(surface, N, rng)
    x = np.asarray(x, dtype=float)
    rs = _distances(geometry, x, pts)
    if np.min(rs) < 1e-3:
        raise TooCloseToSurface(f"min distance {np.min(rs)}")
    us = np.array([point_potential(geometry, r) for r in rs])
    wbar = np.mean(weights)
    value = float(np.mean(us * weights) / wbar)
    resid = (us - value) * weights / wbar
    stderr = float(np.std(resid) / np.sqrt(N))
    return {"value": value, "stderr": stderr, "N": N}


def _tangent_basis(geometry: Geometry, x) -> np.ndarray:
    """Orthonormal basis (rows) of the tangent space at x in the model
    metric (Minkowski-orthonormal in the hyperbolic case)."""
    x = np.asarray(x, dtype=float)
    dim = x.size
    eta = np.ones(dim)
    if geometry.kind is Kind.HYPERBOLIC:
        eta[0] = -1.0
        xn = x / np.sqrt(-minkowski_dot(x, x))
    else:
        xn = x / np.linalg.norm(x)
    basis = []
    for k in range(dim):
        v = np.zeros(dim)
        v[k] = 1.0
        v = v + minkowski_dot(v, xn) * xn if geometry.kind is Kind.HYPERBOLIC \
            else v - (v @ xn) * xn
        for b in basis:
            v = v - float(np.sum(v * b * eta)) * b
        nrm2 = float(np.sum(v * v * eta))
        if nrm2 > 1e-12:
            basis.append(v / np.sqrt(nrm2))
        if len(basis) == dim - 1:
            break
    return np.array(basis)


def field_at(surface, x, N: int, rng) -> dict:
    """Monte-Carlo force field of the charged surface at x (differentiated
    integrand), expressed in an orthonormal tangent frame at x, with
    per-component standard errors."""
    if _surface_clearance(surface, x) < 1e-3:
        raise TooCloseToSurface("evaluation point within 1e-3 of the surface")
    geometry, pts, weights = _sample_surface(surface, N, rng)
    x = np.asarray(x, dtype=float)
    rs = _distances(geometry, x, pts)
    if np.min(rs) < 1e-3:
        raise TooCloseToSurface(f"min distance {np.min(rs)}")
    du = np.array([point_potential_derivative(geometry, r) for r in rs])
    T = _unit_tangent_toward(geometry, x, pts, rs)
    basis = _tangent_basis(geometry, x)
    eta = np.ones(x.size)
    if geometry.kind is Kind.HYPERBOLIC:
        eta[0] = -1.0
    coords = (T * eta) @ basis.T
    wbar = np.mean(weights)
    contrib = -du[:, None] * coords * weights[:, None] / wbar
    fld = np.mean(contrib, axis=0)
    stderr = np.std(contrib, axis=0) / np.sqrt(N)
    return {"field": fld, "stderr": stderr, "frame": basis,
            "norm": float(np.linalg.norm(fld)),
            "norm_stderr": float(np.linalg.norm(stderr)), "N": N}


def _surface_clearance(surface, x) -> float:
    """Deterministic first-order estimate of the geodesic distance from x
    to the surface."""
    x = np.asarray(x, dtype=float)
    if isinstance(surface, CurvedEllipsoid):
        g = surface.grad_norm(x)
        return abs(surface.q(x)) / g if g > 0 else np.inf
    if isinstance(surface, GeodesicSphere):
        return abs(geodesic_distance(surface.geometry, x, surface.center)
                   - surface.radius)
    return np.inf


def _sample_surface(surface, N, rng):
    if isinstance(surface, CurvedEllipsoid):
        pts, weights = sample_ellipsoid(surface, N, rng)
        return surface.geometry, pts, weights
    if isinstance(surface, GeodesicSphere):
        pts, weights = surface.sample(N, rng)
        return surface.geometry, pts, weights
    raise InvalidParameters(f"cannot sample surface of type {type(surface)!r}")


# ---------------------------------------------------------------------------
# simultaneous diagonalization


def simultaneous_diagonalize(p: QuadraticForm, q: QuadraticForm):
    """Common diagonalizing basis of two index-1 forms whose light cones
    are nested; columns of the returned basis diagonalize both."""
    A, B = q.matrix, p.matrix
    vals, vecs = scipy.linalg.eig(A, B)
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
        if self.geometry.kind is not Kind.EUCLIDEAN:
            for idx in zip(*np.nonzero(c)):
                if sum(idx) != self.degree:
                    raise InvalidParameters(
                        "curved surfaces need a homogeneous polynomial")

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)
        if len(nz[0]) == 0:
            return 0
        return int(max(sum(idx) for idx in zip(*nz)))

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        c = self.coeffs
        if c.ndim == 2:
            return float(np.polynomial.polynomial.polyval2d(x[0], x[1], c))
        return float(np.polynomial.polynomial.polyval3d(x[0], x[1], x[2], c))

    def gradient(self, x) -> np.ndarray:
        c = self.coeffs
        P = np.polynomial.polynomial
        x = np.asarray(x, dtype=float)
        if c.ndim == 2:
            return np.array([
                float(P.polyval2d(x[0], x[1], P.polyder(c, axis=0))),
                float(P.polyval2d(x[0], x[1], P.polyder(c, axis=1)))])
        return np.array([
            float(P.polyval3d(*x, P.polyder(c, axis=k))) for k in range(3)])

    def shifted(self, eps: float) -> "HyperbolicSurface":
        """p - eps (Euclidean only: the constant breaks homogeneity)."""
        c = self.coeffs.copy()
        c[(0,) * c.ndim] -= eps
        return HyperbolicSurface(c, self.geometry)


def _line_restriction(surface: HyperbolicSurface, x, v) -> np.ndarray:
    """Coefficients (low -> high) of t |-> p(x + t v), exactly degree d."""
    d = surface.degree
    ts = np.cos(np.pi * (np.arange(d + 1) + 0.5) / (d + 1))
    vals = [surface(np.asarray(x) + t * np.asarray(v)) for t in ts]
    V = np.vander(ts, d + 1, increasing=True)
    return np.linalg.solve(V, np.array(vals))


def _plane_restriction(surface: HyperbolicSurface, e1, e2) -> np.ndarray:
    """Binary-form coefficients b_k of p(c e1 + s e2) = sum b_k c^{d-k} s^k."""
    d = surface.degree
    th = np.pi * (np.arange(d + 1) + 0.5) / (2.0 * (d + 1))
    A = np.array([[np.cos(t) ** (d - k) * np.sin(t) ** k for k in range(d + 1)]
                  for t in th])
    vals = [surface(np.cos(t) * np.asarray(e1) + np.sin(t) * np.asarray(e2))
            for t in th]
    return np.linalg.solve(A, np.array(vals))


def _sturm_count(coeffs_low_high: np.ndarray) -> int:
    """Number of distinct real roots via a Sturm chain."""
    p = np.poly1d(np.trim_zeros(coeffs_low_high[::-1], "f"))
    if p.order == 0:
        return 0
    chain = [p, p.deriv()]
    while chain[-1].order > 0:
        rem = -np.polydiv(chain[-2].coeffs, chain[-1].coeffs)[1]
        rem = np.trim_zeros(rem, "f")
        if rem.size == 0:
            # repeated roots: divide out the gcd and restart
            g = chain[-1]
            red, _ = np.polydiv(p.coeffs, g.coeffs)
            return _sturm_count(np.poly1d(red).coeffs[::-1])
        chain.append(np.poly1d(rem))

    def changes(at_inf_sign):
        signs = []
        for c in chain:
            lead = c.coeffs[0]
            s = np.sign(lead) * (at_inf_sign ** c.order)
            if s != 0:
                signs.append(s)
        return int(np.sum(np.diff(signs) != 0))

    return changes(-1) - changes(1)


def count_projective_real_roots(coeffs_low_high: np.ndarray, d: int,
                                tol: float = 1e-8):
    """Real roots of a degree-d binary form given in an affine chart:
    returns (number of distinct real projective roots, multiplicity at
    infinity, finite roots).  Companion-matrix roots cross-checked against
    a Sturm count."""
    c = np.asarray(coeffs_low_high, dtype=float)
    if len(c) < d + 1:
        c = np.concatenate([c, np.zeros(d + 1 - len(c))])
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise InvalidParameters("zero polynomial")
    high = c[::-1]
    k_inf = 0
    while k_inf <= d and abs(high[k_inf]) < tol * scale:
        k_inf += 1
    finite = high[k_inf:]
    if len(finite) <= 1:
        return (1 if k_inf else 0), k_inf, np.array([])
    roots = np.roots(finite)
    rscale = max(1.0, np.max(np.abs(roots)))
    real = roots[np.abs(roots.imag) < tol * rscale].real
    n_real_companion = len(np.unique(np.round(real / (tol * rscale)))) \
        if len(real) else 0
    n_real_sturm = _sturm_count(finite[::-1])
    n_real = n_real_sturm if n_real_companion != n_real_sturm else n_real_companion
    return n_real + (1 if k_inf else 0), k_inf, np.sort(real)


def is_hyperbolic_at(surface: HyperbolicSurface, x, probes: int = 64,
                     rng=None, strict: bool = True):
    """Probabilistic hyperbolicity verdict: every probed line (geodesic)
    through x must meet the projective closure of the surface in d real
    points — distinct ones when strict.  Returns (verdict, witness
    direction or None)."""
    if rng is None:
        rng = np.random.default_rng(0)
    d = surface.degree
    x = np.asarray(x, dtype=float)
    if abs(surface(x)) < 1e-12:
        raise InvalidParameters("base point lies on the surface")
    for _ in range(probes):
        if surface.geometry.kind is Kind.EUCLIDEAN:
            v = rng.normal(size=x.size)
            v /= np.linalg.norm(v)
            coeffs = _line_restriction(surface, x, v)
            n_proj, k_inf, roots = count_projective_real_roots(coeffs, d)
            if strict:
                ok = (n_proj == d) and k_inf <= 1
            else:
                scale = np.max(np.abs(coeffs))
                high = coeffs[::-1]
                k = 0
                while k <= d and abs(high[k]) < 1e-8 * scale:
                    k += 1
                rts = np.roots(high[k:]) if len(high[k:]) > 1 else np.array([])
                rs = max(1.0, np.max(np.abs(rts))) if len(rts) else 1.0
                ok = np.all(np.abs(rts.imag) < 1e-7 * rs) if len(rts) else True
            if not ok:
                return False, v
        else:
            if surface.geometry.kind is Kind.SPHERICAL:
                e1 = x / np.linalg.norm(x)
                v = rng.normal(size=x.size)
                v -= (v @ e1) * e1
                v /= np.linalg.norm(v)
            else:
                e1 = x / np.sqrt(-minkowski_dot(x, x))
                v = rng.normal(size=x.size)
                v += minkowski_dot(v, e1) * e1
                v /= np.sqrt(minkowski_dot(v, v))
            b = _plane_restriction(surface, e1, v)
            n_proj, k_inf, roots = count_projective_real_roots(b, d)
            ok = (n_proj == d) and k_inf <= 1
            if ok and surface.geometry.kind is Kind.HYPERBOLIC:
                # geodesic points are cosh(t) e1 + sinh(t) v: the chart
                # coordinate s/c = tanh(t) must satisfy |s/c| < 1
                ok = k_inf == 0 and np.all(np.abs(roots) < 1.0)
            if not ok:
                return False, v
    return True, None


def vieta_segment_sum(coeffs_low_high, eps: float) -> float:
    """Sum of root displacements between p and p - eps; zero by Vieta
    (both polynomials share all coefficients except the constant)."""
    c = np.asarray(coeffs_low_high, dtype=float)

    def real_roots(cc):
        r = np.roots(cc[::-1])
        scale = max(1.0, np.max(np.abs(r))) if len(r) else 1.0
        if len(r) and np.max(np.abs(r.imag)) > 1e-8 * scale:
            raise ComplexRoots("polynomial has non-real roots")
        return np.sort(r.real)

    t0 = real_roots(c)
    ce = c.copy()
    ce[0] -= eps
    t1 = real_roots(ce)
    return float(np.sum(t0) - np.sum(t1))


def _positive_roots(coeffs_low_high) -> np.ndarray:
    r = np.roots(np.trim_zeros(np.asarray(coeffs_low_high)[::-1], "f"))
    scale = max(1.0, np.max(np.abs(r))) if len(r) else 1.0
    real = r[np.abs(r.imag) < 1e-8 * scale].real
    if len(real) < len(r):
        raise ComplexRoots("restriction has non-real roots")
    return np.sort(real[real > 0])


def curved_segment_sum(binary_coeffs, eps: float, geometry: Geometry) -> float:
    """Root-displacement sum for a degree-d binary form restricted to a
    curved geodesic (upper half-circle of S^1, or a branch of H^1 in the
    chart xy = 1 with arc length t = log x).

    Even d: sum(t_i - t_i^eps).  Odd d (spherical only): the symmetrized
    sum(t_i - (t_i^eps + t_i^{-eps})/2).
    """
    b = np.asarray(binary_coeffs, dtype=float)
    d = len(b) - 1
    if geometry.kind is Kind.HYPERBOLIC:
        if d % 2 == 1:
            raise OddDegreeHyperbolic("no hyperbolic surfaces of odd degree")
        # P(X) = X^d p(X, 1/X): only even monomials X^{2(d-k)}
        def roots_t(shift):
            P = np.zeros(2 * d + 1)
            for k in range(d + 1):
                P[2 * (d - k)] += b[k]
            P[d] -= shift
            xs = _positive_roots(P)
            if len(xs) != d:
                raise ComplexRoots(f"expected {d} positive roots, got {len(xs)}")
            return np.log(xs)

        return float(np.sum(roots_t(0.0)) - np.sum(roots_t(eps)))

    if geometry.kind is Kind.SPHERICAL:
        def angles(shift):
            # on the circle: p(cos t, sin t) - shift = 0; substitute
            # u = tan(t/2) to cover the open half circle t in (0, pi)
            M = 400
            ts = np.linspace(1e-9, np.pi - 1e-9, M)
            vals = np.array([sum(b[k] * np.cos(t) ** (d - k) * np.sin(t) ** k
                                 for k in range(d + 1)) - shift for t in ts])
            out = []
            for j in range(M - 1):
                if vals[j] == 0.0:
                    out.append(ts[j])
                elif vals[j] * vals[j + 1] < 0:
                    f = lambda t: sum(b[k] * np.cos(t) ** (d - k)
                                      * np.sin(t) ** k
                                      for k in range(d + 1)) - shift
                    out.append(scipy.optimize.brentq(f, ts[j], ts[j + 1],
                                                     xtol=1e-14))
            if len(out) != d:
                raise ComplexRoots(f"expected {d} circle roots, got {len(out)}")
            return np.array(out)

        t0 = angles(0.0)
        if d % 2 == 0:
            return float(np.sum(t0) - np.sum(angles(eps)))
        return float(np.sum(t0) - 0.5 * (np.sum(angles(eps))
                                         + np.sum(angles(-eps))))
    raise InvalidParameters("curved segment sums need S^1 or H^1")


def arnold_field_check(surface: HyperbolicSurface, eps: float, x,
                       N: int, rng, box=None) -> dict:
    """Monte-Carlo field of the charged standard layer 0 <= p <= eps of a
    planar hyperbolic surface at a point of the layer's hyperbolicity
    domain.  Components are signed positively when the p = 0 boundary
    faces x, negatively otherwise; the field is statistically zero."""
    if surface.geometry.kind is not Kind.EUCLIDEAN:
        raise InvalidParameters("layer sampling implemented in the plane")
    x = np.asarray(x, dtype=float)
    ok0, w0 = is_hyperbolic_at(surface, x, rng=rng)
    if not ok0:
        raise NotInHyperbolicityDomain(w0)
    ok1, w1 = is_hyperbolic_at(surface.shifted(eps), x, rng=rng)
    if not ok1:
        raise NotInHyperbolicityDomain(w1)
    if box is None:
        box = (-2.0, 2.0, -2.0, 2.0)
    P = np.polynomial.polynomial
    c = surface.coeffs
    cx, cy = P.polyder(c, axis=0), P.polyder(c, axis=1)
    chunks = []
    got = 0
    batches = 0
    while got < N and batches < 400:
        ys = np.stack([rng.uniform(box[0], box[1], size=4 * N),
                       rng.uniform(box[2], box[3], size=4 * N)], axis=1)
        pv = P.polyval2d(ys[:, 0], ys[:, 1], c)
        keep = (pv >= 0.0) & (pv <= eps)
        ys = ys[keep]
        d = ys - x
        r2 = np.sum(d * d, axis=1)
        ok = r2 > 1e-6
        ys, d, r2 = ys[ok], d[ok], r2[ok]
        grad = np.stack([P.polyval2d(ys[:, 0], ys[:, 1], cx),
                         P.polyval2d(ys[:, 0], ys[:, 1], cy)], axis=1)
        s = np.sign(np.sum(grad * d, axis=1))
        chunks.append(s[:, None] * d / r2[:, None])
        got += len(ys)
        batches += 1
    if got < max(100, N // 10):
        raise InvalidParameters("layer sampling box too small or layer empty")
    contrib = np.concatenate(chunks)[:N] if got > N else np.concatenate(chunks)
    got = len(contrib)
    fld = np.mean(contrib, axis=0)
    stderr = np.std(contrib, axis=0) / np.sqrt(got)
    return {"field": fld, "stderr": stderr,
            "norm": float(np.linalg.norm(fld)),
            "norm_stderr": float(np.linalg.norm(stderr)), "N": got}
