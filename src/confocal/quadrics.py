"""Confocal families of quadrics in E^n, S^n and H^n.

Euclidean families are pencils  sum_i x_i^2 / (a_i - lam) = 1  with
a_1 > ... > a_n > 0.  Spherical and hyperbolic families are the traces on
the model surface of the pencils of cones

    sum_i x_i^2 / (a_i - lam) - x_0^2 / (b + lam) = 0      (spherical)
    sum_i x_i^2 / (a_i - lam) - x_0^2 / (b - lam) = 0      (hyperbolic, a_i < b)

With poles D = a (E^n), (-b, a) (S^n) or (b, a) (H^n), and signature J
all ones except J_0 = -1 in H^n, each is the secular equation

    sum_j J_j x_j^2 / (D_j - lam) = c,   c = 1 in E^n and 0 in S^n, H^n.

Through a generic model point pass n members of the family, one per class
interval; their parameters are the elliptic coordinates of the point.
Both directions of the coordinate map are exact identities, with no root
search: the coordinates are the eigenvalues of D compressed to x^perp
(Moser's spectral view of confocal quadrics), and the point comes back
from its coordinates by Jacobi's product formula for x_j^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint, InvalidParameters, NoRealPoint
from .geometry import Geometry, Kind, check_on_model, geodesic_distance

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ConfocalFamily:
    geometry: Geometry
    a: tuple
    b: float | None = None

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if len(a) != self.geometry.n:
            raise InvalidParameters("need one semiaxis parameter per dimension")
        if any(v <= 0 for v in a):
            raise InvalidParameters("semiaxis parameters must be positive")
        strict = all(a[i] > a[i + 1] for i in range(len(a) - 1))
        if not strict:
            # the concentric-circle degeneration (all a_i equal) is allowed
            if not (self.geometry.kind is Kind.EUCLIDEAN and len(set(a)) == 1):
                raise InvalidParameters("semiaxis parameters must be strictly decreasing")
        if self.geometry.kind is Kind.EUCLIDEAN:
            if self.b is not None:
                raise InvalidParameters("b is only meaningful for curved families")
        else:
            if self.b is None or self.b <= 0:
                raise InvalidParameters("curved families need b > 0")
            if self.geometry.kind is Kind.HYPERBOLIC and max(a) >= self.b:
                raise InvalidParameters("hyperbolic families require a_i < b "
                                        "(light-cone containment)")

    @property
    def n(self) -> int:
        return self.geometry.n

    @property
    def is_circular(self) -> bool:
        return self.geometry.kind is Kind.EUCLIDEAN and len(set(self.a)) == 1


@dataclass(frozen=True)
class EllipticCoords:
    """Confocal parameters through a point, sorted descending, plus the
    orthant sign bits (the x0 sign leads for curved geometries)."""

    lam: tuple
    signs: tuple
    degenerate: tuple = field(default=())


def _poles(family: ConfocalFamily):
    """Poles D and signature J of the secular equation of the family, one
    entry per ambient coordinate (x0 first in the curved models)."""
    a = np.asarray(family.a)
    kind = family.geometry.kind
    if kind is Kind.EUCLIDEAN:
        return a, np.ones_like(a)
    d = np.concatenate(([-family.b if kind is Kind.SPHERICAL else family.b], a))
    sig = np.ones_like(d)
    if kind is Kind.HYPERBOLIC:
        sig[0] = -1.0
    return d, sig


def _model_point(family: ConfocalFamily, point) -> np.ndarray:
    x = np.asarray(point, dtype=float)
    if family.geometry.kind is Kind.EUCLIDEAN:
        return x
    return check_on_model(family.geometry, x)


def confocal_equation(family: ConfocalFamily, lam, point):
    """Left side minus right side of the secular equation; zero when the
    lam-member passes through the point."""
    x = _model_point(family, point)
    d, sig = _poles(family)
    rhs = 1.0 if family.geometry.kind is Kind.EUCLIDEAN else 0.0
    return np.sum(sig * x * x / (d - lam)) - rhs


def confocal_parameters(family: ConfocalFamily, point, strict: bool = False) -> EllipticCoords:
    """Elliptic coordinates of a point: the n confocal parameters through it.

    They are the roots of the secular equation, computed as eigenvalues:
    of diag(a) - x x^T in E^n, and of the pencil (B^T J D B, B^T J B) in
    S^n and H^n, with B an orthonormal basis of the Euclidean x^perp.
    B^T J B is the identity on S^n and positive definite on H^n (x is
    timelike), so its Cholesky factor makes the pencil symmetric.

    A zero coordinate x_j pins one parameter to its pole D_j (a_i, or -b
    for x0 = 0 on S^n).  Such coordinates are dropped before the
    eigenproblem, and their poles are returned exactly and listed in
    `degenerate`; with strict=True they raise DegeneratePoint instead.
    """
    if family.is_circular:
        raise InvalidParameters("elliptic coordinates degenerate for circular families")
    x = _model_point(family, point)
    d, sig = _poles(family)
    zero = x * x <= DEGENERATE_TOL ** 2
    if strict and zero.any():
        raise DegeneratePoint("point has a vanishing coordinate")
    keep = ~zero
    dk, sk, xk = d[keep], sig[keep], x[keep]
    if family.geometry.kind is Kind.EUCLIDEAN:
        roots = np.linalg.eigvalsh(np.diag(dk) - np.outer(xk, xk))
    else:
        basis = np.linalg.qr(xk[:, None], mode="complete")[0][:, 1:]
        jb = sk[:, None] * basis
        chol = np.linalg.cholesky(basis.T @ jb)
        # eigenvalues of L^-1 (B^T J D B) L^-T, with B^T J B = L L^T
        half = np.linalg.solve(chol, jb.T @ (dk[:, None] * basis))
        roots = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
    known = sorted(d[zero].tolist(), reverse=True)
    lam = tuple(sorted(roots.tolist() + known, reverse=True))
    signs = tuple(-1 if v < 0 else 1 for v in x)
    return EllipticCoords(lam=lam, signs=signs, degenerate=tuple(known))


def point_from_parameters(family: ConfocalFamily, coords: EllipticCoords | tuple,
                          signs=None) -> np.ndarray:
    """Invert the elliptic coordinates by Jacobi's product formula

        J_j x_j^2 = c prod_k (D_j - lam_k) / prod_{l != j} (D_j - D_l),

    c = 1 in E^n and S^n, c = -1 in H^n; signs pick the orthant.  A
    negative square raises NoRealPoint.
    """
    if isinstance(coords, EllipticCoords):
        lam = np.asarray(coords.lam, dtype=float)
        if signs is None:
            signs = coords.signs
    else:
        lam = np.asarray(coords, dtype=float)
    if family.is_circular:
        raise InvalidParameters("elliptic coordinates degenerate for circular families")
    if lam.shape != (family.n,):
        raise InvalidParameters("need one parameter per class")
    hyperbolic = family.geometry.kind is Kind.HYPERBOLIC
    d, sig = _poles(family)
    gaps = d[:, None] - d[None, :]
    np.fill_diagonal(gaps, 1.0)
    squares = ((-1.0 if hyperbolic else 1.0) * sig
               * np.prod(d[:, None] - lam[None, :], axis=1) / np.prod(gaps, axis=1))
    if np.min(squares) < -1e-10:
        raise NoRealPoint(f"negative squared coordinate: {squares}")
    if signs is None:
        signs = (1,) * len(d)
    x = np.asarray(signs, dtype=float) * np.sqrt(np.clip(squares, 0.0, None))
    if hyperbolic:
        x[0] = abs(x[0])  # upper sheet
    return x


def confocal_gradient(family: ConfocalFamily, lam: float, point) -> np.ndarray:
    """Ambient gradient of the confocal defining function at a point."""
    x = np.asarray(point, dtype=float)
    a = np.asarray(family.a)
    if family.geometry.kind is Kind.EUCLIDEAN:
        return 2.0 * x / (a - lam)
    g = np.empty_like(x)
    g[1:] = 2.0 * x[1:] / (a - lam)
    denom = (family.b + lam) if family.geometry.kind is Kind.SPHERICAL else (family.b - lam)
    g[0] = -2.0 * x[0] / denom
    return g


def tangent_parameters_of_line(family: ConfocalFamily, base_point, direction):
    """Parameters of the n-1 confocal quadrics tangent to a Euclidean line.

    By Chasles' theorem the line {P + t d} touches n-1 members of the
    family.  In Moser's spectral view their parameters are the eigenvalues
    of diag(a) - P P^T compressed to d^perp: of B^T (diag(a) - P P^T) B,
    with B an orthonormal basis of d^perp.  For n = 2 this is the closed
    form (a1-lam) nu1^2 + (a2-lam) nu2^2 = (nu . P)^2, nu the unit normal.

    Returns exactly n-1 floats, sorted ascending and counted with
    multiplicity.  A value equal to some a_i (a degenerate member, as for
    a line through a focus) is returned like any other; the caller flags
    it by closeness.  A zero direction raises InvalidParameters.
    """
    if family.geometry.kind is not Kind.EUCLIDEAN:
        raise InvalidParameters("line tangency is implemented for Euclidean families")
    p = np.asarray(base_point, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not np.any(d):
        raise InvalidParameters("line direction must be nonzero")
    basis = np.linalg.qr(d[:, None], mode="complete")[0][:, 1:]
    bp = basis.T @ p
    m = basis.T @ (np.asarray(family.a)[:, None] * basis) - np.outer(bp, bp)
    return np.linalg.eigvalsh(m).tolist()


def ivory_parallelepiped_check(family: ConfocalFamily, intervals, signs=None,
                               tol: float = 1e-8) -> dict:
    """Great-diagonal lengths of a confocal coordinate parallelepiped.

    intervals: one (lo, hi) pair per class, ordered by descending lambda
    (matching the ordering of EllipticCoords.lam).  For circular families
    the second 'interval' is an angle range and the first a radius-class
    range, reflecting the polar degeneration.
    """
    geo = family.geometry
    n = family.n

    if family.is_circular:
        a0 = family.a[0]
        (l0, l1), (t0, t1) = intervals
        rs = [np.sqrt(a0 - l0), np.sqrt(a0 - l1)]
        corners = {}
        for i in range(2):
            for j in range(2):
                th = (t0, t1)[j]
                corners[(i, j)] = np.array([rs[i] * np.cos(th), rs[i] * np.sin(th)])
        d1 = geodesic_distance(geo, corners[(0, 0)], corners[(1, 1)])
        d2 = geodesic_distance(geo, corners[(0, 1)], corners[(1, 0)])
        spread = abs(d1 - d2)
        return {"vertices": corners, "diagonals": [d1, d2], "spread": spread,
                "passed": spread < tol}

    if len(intervals) != n:
        raise InvalidParameters("need one lambda interval per class")
    corners = {}
    for bits in np.ndindex(*(2,) * n):
        lam = tuple(intervals[k][bits[k]] for k in range(n))
        corners[bits] = point_from_parameters(family, lam, signs=signs)
    diagonals = []
    for bits in sorted(corners):
        if bits[0] == 1:
            continue
        opp = tuple(1 - bv for bv in bits)
        diagonals.append(geodesic_distance(geo, corners[bits], corners[opp]))
    spread = float(np.max(diagonals) - np.min(diagonals))
    return {"vertices": corners, "diagonals": diagonals, "spread": spread,
            "passed": spread < tol}


def random_interior_point(family: ConfocalFamily, rng) -> np.ndarray:
    """A generic model point with all coordinates bounded away from zero."""
    geo = family.geometry
    if geo.kind is Kind.EUCLIDEAN:
        while True:
            x = rng.uniform(0.15, 1.0, size=family.n) * rng.choice([-1.0, 1.0], size=family.n)
            x *= np.sqrt(np.asarray(family.a)) * rng.uniform(0.3, 0.95)
            if np.min(np.abs(x)) > 1e-3:
                return x
    while True:
        v = rng.normal(size=geo.ambient_dim)
        if geo.kind is Kind.SPHERICAL:
            x = v / np.linalg.norm(v)
            x[0] = abs(x[0])
        else:
            v[0] = 0.0
            v = 0.7 * v / max(1.0, np.linalg.norm(v))
            x = np.empty(geo.ambient_dim)
            x[1:] = v[1:]
            x[0] = np.sqrt(1.0 + v[1:] @ v[1:])
        if np.min(np.abs(x)) > 5e-2:
            return x
