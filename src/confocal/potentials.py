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
from functools import lru_cache
from typing import Tuple

import numpy as np

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
from .geometry import Geometry, Kind, geodesic_distance

# ---------------------------------------------------------------------------
# fundamental solutions

# nodes and weights of the fixed rule for the radial potential
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


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
    r = np.asarray(r, dtype=float)
    if geometry.kind is Kind.SPHERICAL:
        bad = (r <= 0.0) | (r >= np.pi)
        if np.any(bad):
            raise DomainError(f"need 0 < r < pi, got {r[bad]}")
        T, c = np.arcsinh(1.0 / np.tan(r)), np.cosh
    elif geometry.kind is Kind.HYPERBOLIC:
        if geometry.n < 2:
            raise DomainError("the radial potential diverges in H^1")
        if np.any(r <= 0.0):
            raise DomainError(f"need r > 0, got {r[r <= 0.0]}")
        # 1/sinh r = 2 e^-r / (1 - e^-2r), free of overflow and cancellation
        T, c = np.arcsinh(2.0 * np.exp(-r) / -np.expm1(-2.0 * r)), np.sinh
    else:
        raise InvalidParameters("point potential defined on curved geometries")
    theta = 0.5 * T[..., None] * (1.0 + _GL_NODES)
    u = 0.5 * T * (c(theta) ** (geometry.n - 2) @ _GL_WEIGHTS)
    return float(u) if u.ndim == 0 else u


def point_potential_derivative(geometry: Geometry, r):
    """u'(r) = -1/phi^{n-1}(r): the flux through the geodesic sphere of
    radius r is independent of r.  Takes a float or an array, like
    point_potential."""
    du = -geometry.trig[0](np.asarray(r, dtype=float)) ** (1 - geometry.n)
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

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.matrix @ x)


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

    def _coeffs(self, lam: float) -> np.ndarray:
        """Diagonal of q_lambda: -1/(b + kappa lam) for x_0, then 1/(a_i - lam)."""
        s = self.b + self.geometry.kappa * lam
        return np.concatenate([[-1.0 / s], 1.0 / (np.asarray(self.a) - lam)])

    def q(self, x, lam: float = 0.0):
        """Confocal form q_lambda at x, or at each point of a stack x; lam = 0
        gives the defining form."""
        x = np.asarray(x, dtype=float)
        return (x * x) @ self._coeffs(lam)

    def form(self, lam: float = 0.0) -> QuadraticForm:
        return QuadraticForm(np.diag(self._coeffs(lam)))

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
    (A, B), (_, C) = E @ homeoid.ellipsoid.form().matrix @ E.T
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


def sample_ellipsoid(ellipsoid: CurvedEllipsoid, N: int, rng):
    """Radial-projection sampler: uniform directions on S^{n-1}, points of
    the ellipsoid above them, and weights combining the exact area element
    of the parametrization with the homeoidal density."""
    a, b, kappa = np.asarray(ellipsoid.a), ellipsoid.b, ellipsoid.geometry.kappa
    ws = rng.normal(size=(N, ellipsoid.n))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    pts = ellipsoid.point_from_direction(ws)
    # tangents of x(w) = (sqrt(bm) rho, rho w) along each frame vector e:
    # dm = 2 sum w_i e_i / a_i, and rho^-2 = kappa + bm gives
    # d rho = -b dm rho^3 / 2 and d x_0 = -kappa d rho / sqrt(bm)
    frames = _tangent_frame(ws)
    bm = b * np.sum(ws * ws / a, axis=1)
    rho = 1.0 / np.sqrt(kappa + bm)
    drho = -b * np.einsum("ni,nki->nk", ws / a, frames) * rho[:, None] ** 3
    tangents = np.concatenate(
        [(-kappa * drho / np.sqrt(bm)[:, None])[..., None],
         drho[..., None] * ws[:, None, :] + rho[:, None, None] * frames], axis=2)
    grams = np.einsum("nki,nli->nkl", tangents * ellipsoid.geometry.eta, tangents)
    areas = np.sqrt(np.maximum(np.linalg.det(grams), 0.0))
    return pts, areas / ellipsoid.grad_norm(pts)


@dataclass(frozen=True)
class GeodesicSphere:
    """Round shell: points at a fixed geodesic distance from a center."""

    geometry: Geometry
    center: np.ndarray
    radius: float

    def sample(self, N: int, rng):
        geo, c = self.geometry, np.asarray(self.center, dtype=float)
        ws = _project(geo, rng.normal(size=(N, geo.ambient_dim)), c)
        ws /= np.sqrt(geo.dot(ws, ws))[:, None]
        sin, cos = geo.trig
        return cos(self.radius) * c + sin(self.radius) * ws, np.ones(N)


def _unit_tangent_toward(geometry: Geometry, x, ys, rs):
    """Unit tangents t at x of the geodesics to each row y of ys, at
    distances rs: y = cos(r) x + sin(r) t."""
    sin, cos = geometry.trig
    return (ys - cos(rs)[:, None] * x) / sin(rs)[:, None]


def surface_potential(surface, x, N: int, rng) -> dict:
    """Monte-Carlo potential of a unit charge spread over the surface
    (curved ellipsoid with homeoidal density, or a round geodesic sphere
    with uniform density).  Returns the estimate with its standard error."""
    geometry, pts, weights, rs = _sample_surface(surface, x, N, rng)
    us = point_potential(geometry, rs)
    wbar = np.mean(weights)
    value = float(np.mean(us * weights) / wbar)
    resid = (us - value) * weights / wbar
    stderr = float(np.std(resid) / np.sqrt(N))
    return {"value": value, "stderr": stderr, "N": N}


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


def field_at(surface, x, N: int, rng) -> dict:
    """Monte-Carlo force field of the charged surface at x (differentiated
    integrand), expressed in an orthonormal tangent frame at x, with
    per-component standard errors."""
    geometry, pts, weights, rs = _sample_surface(surface, x, N, rng)
    x = np.asarray(x, dtype=float)
    du = point_potential_derivative(geometry, rs)
    T = _unit_tangent_toward(geometry, x, pts, rs)
    basis = _tangent_basis(geometry, x)
    coords = (T * geometry.eta) @ basis.T
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


def _sample_surface(surface, x, N, rng):
    """Samples of the surface, their weights and their geodesic distances
    from x, refusing an x within 1e-3 of the surface or of a sample."""
    if _surface_clearance(surface, x) < 1e-3:
        raise TooCloseToSurface("evaluation point within 1e-3 of the surface")
    if isinstance(surface, CurvedEllipsoid):
        pts, weights = sample_ellipsoid(surface, N, rng)
    elif isinstance(surface, GeodesicSphere):
        pts, weights = surface.sample(N, rng)
    else:
        raise InvalidParameters(f"cannot sample surface of type {type(surface)!r}")
    rs = geodesic_distance(surface.geometry, x, pts)
    if np.min(rs) < 1e-3:
        raise TooCloseToSurface(f"min distance {np.min(rs)}")
    return surface.geometry, pts, weights, rs


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


def count_projective_real_roots(coeffs_low_high: np.ndarray, d: int,
                                tol: float = 1e-8):
    """Real roots of a degree-d binary form given in an affine chart:
    returns (number of distinct real projective roots, multiplicity at
    infinity, finite real roots with multiplicity, sorted).  Leading
    coefficients below tol times the largest are roots at infinity; a
    companion-matrix root is real when its imaginary part is below tol
    times the root scale, and two real roots are distinct when they differ
    by more than that."""
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
    n_real = len(np.unique(np.round(real / (tol * rscale)))) if len(real) else 0
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
            # non-strict: real roots may coincide, and a double root splits
            # by ~sqrt(machine eps) under rounding, so its cut is looser
            n_proj, k_inf, roots = count_projective_real_roots(
                coeffs, d, tol=1e-8 if strict else 1e-7)
            if strict:
                ok = (n_proj == d) and k_inf <= 1
            else:
                ok = len(roots) + k_inf == d
            if not ok:
                return False, v
        else:
            e1, v = _geodesic_basis(surface.geometry, x, rng.normal(size=x.size))
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


def _real_roots(coeffs_low_high) -> np.ndarray:
    """Roots of a polynomial that must have only real ones, sorted."""
    c = np.asarray(coeffs_low_high, dtype=float)
    _, k_inf, real = count_projective_real_roots(c, len(c) - 1)
    if len(real) + k_inf < len(c) - 1:
        raise ComplexRoots("polynomial has non-real roots")
    return real


def vieta_segment_sum(coeffs_low_high, eps: float) -> float:
    """Sum of root displacements between p and p - eps; zero by Vieta
    (both polynomials share all coefficients except the constant)."""
    c = np.asarray(coeffs_low_high, dtype=float)
    ce = c.copy()
    ce[0] -= eps
    return float(np.sum(_real_roots(c)) - np.sum(_real_roots(ce)))


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
    degree d equals shift on a curved line: p(cos t, sin t) on the open half
    circle t in (0, pi) of S^1, or p(e^t, e^-t) on the branch xy = 1 of H^1.

    Both are the positive roots of one polynomial: on S^1 in u = tan(t/2),
    (1 + u^2)^d (p - shift) = sum_k b_k (1 - u^2)^(d-k) (2u)^k
    - shift (1 + u^2)^d; on H^1 in X = e^t, X^d (p - shift), which has only
    even powers but the shift's X^d.
    """
    b = np.asarray(binary_coeffs, dtype=float)
    d = len(b) - 1
    form = np.zeros(2 * d + 1)
    if geometry.kind is Kind.SPHERICAL:
        basis = _half_angle_basis(d)
        for k in range(d + 1):
            form += b[k] * basis[k]
        level, to_t = basis[d + 1], lambda u: 2.0 * np.arctan(u)
    elif geometry.kind is Kind.HYPERBOLIC:
        form[::2] = b[::-1]
        level, to_t = np.eye(2 * d + 1)[d], np.log
    else:
        raise InvalidParameters("curved segment sums need S^1 or H^1")
    _, _, roots = count_projective_real_roots(form - shift * level, 2 * d)
    roots = roots[roots > 0]
    if len(roots) != d:
        raise ComplexRoots(f"expected {d} roots on the line, got {len(roots)}")
    return to_t(roots)


def curved_segment_sum(binary_coeffs, eps: float, geometry: Geometry) -> float:
    """Root-displacement sum for a degree-d binary form restricted to a
    curved geodesic (upper half-circle of S^1, or a branch of H^1 in the
    chart xy = 1 with arc length t = log x).

    Even d: sum(t_i - t_i^eps).  Odd d (spherical only): the symmetrized
    sum(t_i - (t_i^eps + t_i^{-eps})/2).
    """
    d = len(binary_coeffs) - 1
    if geometry.kind is Kind.HYPERBOLIC and d % 2 == 1:
        raise OddDegreeHyperbolic("no hyperbolic surfaces of odd degree")

    def total(shift):
        return np.sum(_geodesic_roots(binary_coeffs, shift, geometry))

    if d % 2 == 0:
        return float(total(0.0) - total(eps))
    return float(total(0.0) - 0.5 * (total(eps) + total(-eps)))


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
