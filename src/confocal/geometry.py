"""Constant-curvature ambient geometries and geodesic distance.

Euclidean points are plain vectors in R^n.  Spherical points live on the
unit sphere in R^(n+1); hyperbolic points on the upper sheet (x0 > 0) of
the two-sheeted hyperboloid <x, x> = -1.  In both curved models arrays
have length n+1 with the distinguished coordinate x0 stored FIRST.

- kappa, the curvature sign: 0 on E^n, +1 on S^n, -1 on H^n.
- eta, the signature of the ambient product <x, y> = sum_j eta_j x_j y_j:
  -1 first on H^n, +1 elsewhere, so that <x, x> = kappa on a curved model.

A point is on its model when x . x is finite and, on S^n and H^n,
|<x, x> - kappa| is at most MODEL_TOL x . x.  One point's model test and
Jacobi's product run on its Python floats, a stack's on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidParameters, NotOnModel

MODEL_TOL = 1e-10  # largest residual of the model equation in a point, per unit of x . x


class Kind(Enum):
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"


_KAPPA = {Kind.EUCLIDEAN: 0, Kind.SPHERICAL: 1, Kind.HYPERBOLIC: -1}


@dataclass(frozen=True)
class Geometry:
    """Ambient geometry: kind plus intrinsic dimension n >= 1, with its
    curvature sign kappa and signature eta (see the module docstring)."""

    kind: Kind
    n: int
    kappa: int = field(init=False, repr=False, compare=False)
    eta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameters("dimension must be >= 1")
        kappa = _KAPPA[self.kind]
        eta = np.ones(self.n if kappa == 0 else self.n + 1)
        eta[0] = -1.0 if kappa < 0 else 1.0
        eta.flags.writeable = False
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "eta", eta)

    @property
    def ambient_dim(self) -> int:
        return self.eta.size

    @property
    def trig(self):
        """(sin, cos) on S^n, (sinh, cosh) on H^n: the unit-speed geodesic
        from x with unit tangent t is cos(r) x + sin(r) t.  InvalidParameters
        on E^n, which has no such pair."""
        if not self.kappa:
            raise InvalidParameters("sin/cos pair defined on curved geometries")
        return (np.sin, np.cos) if self.kappa > 0 else (np.sinh, np.cosh)

    def dot(self, x, y):
        """<x, y> over the last axis: of two points, of each row of a stack x
        with a point y, or row by row of two stacks of one shape."""
        x = np.asarray(x, dtype=float)
        if self.kappa < 0:
            x = x * self.eta
        y = np.asarray(y, dtype=float)
        # a point y takes BLAS dot: on S^n and E^n the same sum, to the bit,
        # as np.dot(x, y)
        if y.ndim == 1:
            return x.dot(y)
        return np.sum(x * y, axis=-1)


def euclidean(n: int) -> Geometry:
    return Geometry(Kind.EUCLIDEAN, n)


def spherical(n: int) -> Geometry:
    return Geometry(Kind.SPHERICAL, n)


def hyperbolic(n: int) -> Geometry:
    return Geometry(Kind.HYPERBOLIC, n)


def check_on_model(geometry: Geometry, x):
    """x as a float array, or NotOnModel unless it is one model point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise NotOnModel(f"expected one point of length {geometry.ambient_dim}, got {x.shape}")
    return _check_points(geometry, x)


def _check_points(geometry: Geometry, x):
    """x as a float array, or NotOnModel unless it is a model point or a
    stack of them, one per row.  A float point is off its model by about
    eps x . x: 1 on S^n, but cosh 2r at distance r from the origin of H^n.
    One point is tested on its Python floats, a stack on arrays over its
    rows."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != geometry.eta.shape:
        raise NotOnModel(f"expected points of length {geometry.ambient_dim}, got {x.shape}")
    if x.ndim == 1:
        x0, *rest = x.tolist()
        rest = sum(v * v for v in rest)
    else:
        x0, rest = x[..., 0], (x[..., 1:] * x[..., 1:]).sum(axis=-1)
    kappa, x0sq = geometry.kappa, x0 * x0
    ok = x0sq + rest < math.inf
    if kappa:   # |<x, x> - kappa| <= MODEL_TOL x . x, and x0 > 0 on H^n
        ok = ok & (abs(kappa * x0sq + rest - kappa) <= MODEL_TOL * (x0sq + rest)) \
            & ((kappa > 0) | (x0 > 0.0))
    if not (ok if x.ndim == 1 else ok.all()):
        raise NotOnModel(f"a point is not finite, or its x . x overflows, or it is off the "
                         f"{geometry.kind.value} model by more than {MODEL_TOL} x . x")
    return x


def jacobi_denominators(poles) -> list:
    """prod_{l != j} (D_j - D_l), one float per pole D_j: the denominators
    of Jacobi's product formula (jacobi_squares)."""
    return [math.prod(dj - dl for l, dl in enumerate(poles) if l != j)
            for j, dj in enumerate(poles)]


def jacobi_squares(poles, lam, denominators):
    """Jacobi's product formula prod_k (D_j - lam_k) / denominators_j, one
    entry per pole D_j: the squared coordinates, up to the signature
    (confocal.quadrics), of the point with confocal parameters lam: a list
    of one point's Python floats (a list out), or an array of a point or a
    stack, one per row (an array out).  Either way the product over k runs
    left to right, as np.prod's, to the bit."""
    def square(d, den, columns):
        return math.prod(d - v for v in columns) / den
    if isinstance(lam, np.ndarray):
        return square(np.asarray(poles), np.asarray(denominators), lam.T[..., None])
    return [square(d, den, lam) for d, den in zip(poles, denominators)]


def geodesic_distance(geometry: Geometry, x, y):
    """Length of the geodesic between the model points x and y, or between
    the rows of stacks of them (a point against a stack, say).

    Each form is accurate at every distance: |x - y| on E^n,
    2 atan2(|x - y|, |x + y|) on S^n, and 2 asinh(|x - y| / 2) on H^n,
    with the Minkowski length |x - y|^2 = <x - y, x - y> = 2 (cosh d - 1).
    """
    x = _check_points(geometry, x)
    y = _check_points(geometry, y)
    diff = y - x
    chord2 = geometry.dot(diff, diff)
    if geometry.kappa > 0:
        tot = y + x
        r = 2.0 * np.arctan2(np.sqrt(chord2), np.sqrt(geometry.dot(tot, tot)))
    elif geometry.kappa < 0:
        r = 2.0 * np.arcsinh(np.sqrt(np.maximum(chord2, 0.0)) / 2.0)
    else:
        r = np.sqrt(chord2)
    return float(r) if r.ndim == 0 else r
