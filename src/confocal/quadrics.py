"""Confocal families of quadrics in E^n, S^n and H^n.

Euclidean families are pencils  sum_i x_i^2 / (a_i - lam) = 1  with
a_1 > ... > a_n > 0.  Spherical and hyperbolic families are the traces on
the model surface of the pencils of cones

    sum_i x_i^2 / (a_i - lam) - x_0^2 / (b + kappa lam) = 0    (a_i < b on H^n)

With poles D = a on E^n and (-kappa b, a) on S^n and H^n, and signature
J = eta (see confocal.geometry), each is the secular equation

    sum_j J_j x_j^2 / (D_j - lam) = c,   c = 1 in E^n and 0 in S^n, H^n.

Through a generic model point pass n members of the family, one per class
interval; their parameters are the elliptic coordinates of the point.
Both directions of the coordinate map are exact identities, with no root
search.  The curved equation times (lam - D_0), with <x, x> = kappa, is

    sum_{i>=1} x_i^2 (b + kappa a_i) / (a_i - lam) = 1,

the Euclidean form in w_i = x_i sqrt(b + kappa a_i) (b + kappa a_i > 0:
on H^n by light-cone containment).  So on every model the coordinates
are the eigenvalues of diag(a) - w w^T, w = x on E^n (Moser's spectral
view of confocal quadrics), in closed form when 2 x 2 and by eigvalsh
when larger, and the point comes back from them by Jacobi's product
formula for x_j^2.  One point runs on Python floats, and its coordinates
and point are bitwise its row of a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneratePoint, InvalidParameters, NoRealPoint
from .geometry import (Geometry, Kind, check_on_model, geodesic_distance, jacobi_denominators,
                       jacobi_squares)

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
        # the concentric-circle degeneration (all a_i equal) is allowed
        if not all(a[i] > a[i + 1] for i in range(len(a) - 1)) and not self.is_circular:
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

    @cached_property
    def is_circular(self) -> bool:
        return self.geometry.kind is Kind.EUCLIDEAN and len(set(self.a)) == 1

    # computed once per family, as tuples of floats; the signature J is geometry.eta

    @cached_property
    def poles(self) -> tuple:
        """Poles D of the secular equation: a, after D_0 = -kappa b on S^n and H^n."""
        kappa = self.geometry.kappa
        return (-kappa * float(self.b), *self.a) if kappa else self.a

    @cached_property
    def denominators(self) -> tuple:
        """Jacobi's denominators prod_{l != j} (D_j - D_l), one per pole."""
        return tuple(jacobi_denominators(self.poles))

    @cached_property
    def weights(self) -> tuple:
        """w_i / x_i, i >= 1: sqrt(b + kappa a_i) on S^n and H^n, 1 on E^n."""
        kappa = self.geometry.kappa
        return tuple(math.sqrt(self.b + kappa * v) for v in self.a) if kappa else (1.0,) * self.n


@dataclass(frozen=True)
class EllipticCoords:
    """Confocal parameters through a point, sorted descending, plus the
    orthant sign bits (the x0 sign leads for curved geometries)."""

    lam: tuple
    signs: tuple
    degenerate: tuple = field(default=())


def confocal_parameters(family: ConfocalFamily, point, strict: bool = False) -> EllipticCoords:
    """Elliptic coordinates of a point: the n confocal parameters through it.

    They are the roots of the secular equation, the eigenvalues of
    diag(a) - w w^T, with w = x on E^n and w_i = x_i sqrt(b + kappa a_i)
    on S^n and H^n.  The curved secular equation times (lam - D_0), with
    <x, x> = kappa, is sum_{i>=1} w_i^2 / (a_i - lam) = 1: the x0 term
    drops out, and the roots are those of the Euclidean form in w: by
    planar_coordinates when 2 x 2 (E^2, S^2, H^2, or n = 3 with one zero x_i).

    A zero coordinate x_j pins one parameter to its pole D_j (a_i, or -b
    for x0 = 0 on S^n).  A zero x_i is dropped before the eigenproblem; a
    zero x0 makes -b the smallest eigenvalue, which is dropped.  Such
    poles are returned exactly and listed in `degenerate`; with
    strict=True they raise DegeneratePoint instead.
    """
    if family.is_circular:
        raise InvalidParameters("elliptic coordinates degenerate for circular families")
    x = check_on_model(family.geometry, point).tolist()
    zero = [v * v <= DEGENERATE_TOL ** 2 for v in x]
    if strict and any(zero):
        raise DegeneratePoint("point has a vanishing coordinate")
    i0 = len(x) - family.n   # x_i0 is x_1
    keep = [j for j in range(i0, len(x)) if not zero[j]]
    d, w = [family.poles[j] for j in keep], [family.weights[j - i0] * x[j] for j in keep]
    roots = (list(planar_coordinates(*d, *w))[::-1] if len(w) == 2
             else np.linalg.eigvalsh(np.diag(d) - np.outer(w, w)).tolist())
    if family.geometry.kappa and zero[0]:
        roots = roots[1:]   # ascending: -b, the pinned pole, comes first
    known = sorted((p for p, z in zip(family.poles, zero) if z), reverse=True)
    lam = tuple(sorted(roots + known, reverse=True))
    signs = tuple(-1 if v < 0 else 1 for v in x)
    return EllipticCoords(lam=lam, signs=signs, degenerate=tuple(known))


def planar_coordinates(a1, a2, x, y):
    """(hyperbola, ellipse) coordinates of the point (x, y) of E^2, a1 > a2:
    the eigenvalues of diag(a1, a2) - w w^T, w = (x, y).  Less a2 it has
    trace 2h = c - |w|^2, c = a1 - a2, and determinant -c y^2; with
    g = sign(h) (|h| + sqrt(h^2 + c y^2)) the roots are a2 + g and
    a2 - c y^2 / g, on either side of a2 (the larger first when g > 0), and
    neither cancels; g = 0 only at a focus, where the divisor is made 1 and
    both are a2.  Python floats (one point, floats out) or arrays (a stack),
    with the same IEEE steps."""
    c = a1 - a2
    h, cy2 = 0.5 * (c - x * x - y * y), c * y * y
    xp = math if isinstance(h, float) else np
    g = xp.copysign(abs(h) + xp.sqrt(h * h + cy2), h)
    near, far = a2 + g, a2 - cy2 / (g + (g == 0.0))
    if xp is math:
        return (far, near) if g < 0.0 else (near, far)
    return np.where(g < 0.0, far, near), np.where(g < 0.0, near, far)


def point_from_parameters(family: ConfocalFamily, coords: EllipticCoords | tuple,
                          signs=None) -> np.ndarray:
    """Invert the elliptic coordinates by Jacobi's product formula

        J_j x_j^2 = c prod_k (D_j - lam_k) / prod_{l != j} (D_j - D_l),

    c = J_0 (-1 in H^n, else 1); signs pick the orthant, one per coordinate
    (or per row of a stack).  coords may also be a stack of parameter
    sets, one per row, for a stack of points.  A negative square raises
    NoRealPoint, non-finite parameters or misshapen signs InvalidParameters.
    """
    if isinstance(coords, EllipticCoords):
        coords, signs = coords.lam, coords.signs if signs is None else signs
    lam = np.asarray(coords, dtype=float)
    if family.is_circular:
        raise InvalidParameters("elliptic coordinates degenerate for circular families")
    if lam.ndim not in (1, 2) or lam.shape[-1] != family.n:
        raise InvalidParameters("need one parameter per class")
    sig = family.geometry.eta
    signs = np.ones(sig.size) if signs is None else np.asarray(signs, dtype=float)
    if signs.shape not in (sig.shape, lam.shape[:-1] + sig.shape):
        raise InvalidParameters(f"need one sign per coordinate, got shape {signs.shape}")
    one = lam.ndim == 1
    lam = lam.tolist() if one else lam
    if not (all(map(math.isfinite, lam)) if one else np.isfinite(lam).all()):
        raise InvalidParameters(f"confocal parameters must be finite, got {coords}")
    squares = jacobi_squares(family.poles, lam, family.denominators)
    if family.geometry.kappa < 0:   # J_0 J_j: -J_j on H^n, 1 on E^n and S^n
        squares = [-e * q for e, q in zip(sig.tolist(), squares)] if one else -sig * squares
    if one:   # on Python floats, clipped at +0.0 as by np.clip
        low = min(squares)
        x = np.array([s * math.sqrt(0.0 if q <= 0.0 else q)
                      for s, q in zip(signs.tolist(), squares)])
    else:
        low, x = squares.min(), signs * np.sqrt(np.clip(squares, 0.0, None))
    if low < -1e-10:
        raise NoRealPoint(f"negative squared coordinate: {squares}")
    if family.geometry.kappa < 0:
        x[..., 0] = abs(x[..., 0])  # upper sheet
    return x


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
    it by closeness.  A zero direction, or a base point or direction that
    is not finite (an inf or nan coordinate, or squares that overflow),
    raises InvalidParameters.
    """
    if family.geometry.kind is not Kind.EUCLIDEAN:
        raise InvalidParameters("line tangency is implemented for Euclidean families")
    p = np.asarray(base_point, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not sum(v * v for v in p.tolist() + d.tolist()) < math.inf:
        raise InvalidParameters(f"a line needs a finite base point and direction, got {p}, {d}")
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
    n = family.n
    # corner bits[k] takes end bits[k] of interval k; all corners in one
    # stack, in np.ndindex order, so that corner c is opposite 2^n - 1 - c
    bits = list(np.ndindex(*(2,) * n))
    ends = np.asarray(intervals, dtype=float)
    if ends.shape != (n, 2):
        raise InvalidParameters("need one lambda interval per class")
    if family.is_circular:
        r, th = np.sqrt(family.a[0] - ends[0]).repeat(2), np.tile(ends[1], 2)
        points = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    else:
        points = point_from_parameters(family, ends[np.arange(n), bits], signs=signs)
    half = len(bits) // 2
    diagonals = geodesic_distance(family.geometry, points[:half], points[:half - 1:-1]).tolist()
    spread = float(np.max(diagonals) - np.min(diagonals))
    return {"vertices": dict(zip(bits, points)), "diagonals": diagonals, "spread": spread,
            "passed": spread < tol}

