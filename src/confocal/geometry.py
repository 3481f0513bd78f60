"""Constant-curvature ambient geometries and geodesic distance.

Euclidean points are plain vectors in R^n.  Spherical points live on the
unit sphere in R^(n+1); hyperbolic points on the upper sheet (x0 > 0) of
the two-sheeted hyperboloid <x, x>_{n,1} = -1, where the Minkowski product
is -x0*y0 + sum_i xi*yi.  In both curved models arrays have length n+1
with the distinguished coordinate x0 stored FIRST.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotOnModel

MODEL_TOL = 1e-10  # largest residual of the model equation accepted in a point


class Kind(Enum):
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Geometry:
    """Ambient geometry: kind plus intrinsic dimension n >= 1."""

    kind: Kind
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.n if self.kind is Kind.EUCLIDEAN else self.n + 1


def euclidean(n: int) -> Geometry:
    return Geometry(Kind.EUCLIDEAN, n)


def spherical(n: int) -> Geometry:
    return Geometry(Kind.SPHERICAL, n)


def hyperbolic(n: int) -> Geometry:
    return Geometry(Kind.HYPERBOLIC, n)


def minkowski_dot(x, y):
    """Signature (n, 1) product with the timelike coordinate first."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def model_residual(geometry: Geometry, x) -> float:
    x = np.asarray(x, dtype=float)
    if geometry.kind is Kind.EUCLIDEAN:
        return 0.0
    if geometry.kind is Kind.SPHERICAL:
        return abs(float(np.dot(x, x)) - 1.0)
    res = abs(float(minkowski_dot(x, x)) + 1.0)
    if x[0] <= 0.0:
        return np.inf
    return res


def check_on_model(geometry: Geometry, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (geometry.ambient_dim,):
        raise NotOnModel(f"expected shape ({geometry.ambient_dim},), got {x.shape}")
    if model_residual(geometry, x) > MODEL_TOL:
        raise NotOnModel(f"point {x} violates the {geometry.kind.value} model constraint")
    return x


def geodesic_distance(geometry: Geometry, x, y) -> float:
    """Length of the geodesic between two model points."""
    x = check_on_model(geometry, x)
    y = check_on_model(geometry, y)
    if geometry.kind is Kind.EUCLIDEAN:
        return float(np.linalg.norm(np.asarray(y) - np.asarray(x)))
    if geometry.kind is Kind.SPHERICAL:
        c = float(np.dot(x, y))
        if c > 0.0:
            # half-chord form, accurate for nearby points
            return float(2.0 * np.arcsin(min(np.linalg.norm(x - y) / 2.0, 1.0)))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))
    # cosh d - 1 = <x-y, x-y>_M / 2, accurate for nearby points
    delta = max(float(minkowski_dot(x - y, x - y)) / 2.0, 0.0)
    return float(np.log1p(delta + np.sqrt(delta * (delta + 2.0))))
