"""Monte-Carlo estimators of the Part III potentials: the independent oracle
of the deterministic rules in confocal.potentials.

Each estimator draws its own random points (directions uniform on the
direction sphere, or points uniform in a box) and returns a sample mean
with its standard error, so that a deterministic value can be held to the
estimator's own 3 sigma.  A surface's points come from its own
parametrisation, and their weights from that map's area element and the
charge's density, not from the surface's `nodes`, which the deterministic
rules use.
"""

import numpy as np

from confocal.potentials import (
    _tangent_basis,
    _unit_tangent_toward,
    point_potential,
    point_potential_derivative,
)
from confocal.geometry import geodesic_distance


def _parametrisation(surface):
    """The surface's map from unit directions w of R^n (rows), and the
    density of its unit charge per unit area at a stack of points: an
    ellipsoid's point_from_direction with the homeoidal density
    1/||grad q||, or a shell's geodesics of length radius from its center,
    w taken in the center's tangent frame, with a uniform one."""
    if hasattr(surface, "point_from_direction"):
        return surface.point_from_direction, lambda pts: 1.0 / surface.grad_norm(pts)
    geometry, c, r = surface.geometry, np.asarray(surface.center, dtype=float), surface.radius
    sin, cos = geometry.trig
    frame = _tangent_basis(geometry, c)

    def shell(w):
        return cos(r) * c + sin(r) * (w / np.linalg.norm(w, axis=-1, keepdims=True)) @ frame

    return shell, lambda pts: np.ones(len(pts))


def _random_nodes(surface, N, rng, h=1e-6):
    """Surface points over N uniform random directions w, and their weights
    per unit solid angle of w: the map's area element times the density.
    The map is homogeneous of degree 0, so its Jacobian J (central
    differences along the axes of R^n) sends w to 0, and det(J^T eta J +
    w w^T) is the Gram determinant of the surface's tangent plane."""
    n = surface.geometry.n
    ws = rng.normal(size=(N, n))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    point, density = _parametrisation(surface)
    pts = point(ws)
    J = np.stack([(point(ws + h * e) - point(ws - h * e)) / (2.0 * h) for e in np.eye(n)],
                 axis=-1)
    gram = np.einsum("nik,i,nil->nkl", J, surface.geometry.eta, J) + ws[:, :, None] * ws[:, None, :]
    return pts, np.sqrt(np.linalg.det(gram)) * density(pts)


def mc_surface_potential(surface, x, N, rng):
    """Potential of the unit charge on the surface at x: the weighted mean
    over N random directions, with its standard error."""
    pts, weights = _random_nodes(surface, N, rng)
    us = point_potential(surface.geometry, geodesic_distance(surface.geometry, x, pts))
    wbar = np.mean(weights)
    value = float(np.mean(us * weights) / wbar)
    stderr = float(np.std((us - value) * weights / wbar) / np.sqrt(N))
    return {"value": value, "stderr": stderr}


def mc_field_at(surface, x, N, rng):
    """Field of the unit charge on the surface at x, in the tangent frame of
    _tangent_basis, with per-component standard errors."""
    geometry = surface.geometry
    x = np.asarray(x, dtype=float)
    pts, weights = _random_nodes(surface, N, rng)
    rs = geodesic_distance(geometry, x, pts)
    T = _unit_tangent_toward(geometry, x, pts, rs)
    coords = (T * geometry.eta) @ _tangent_basis(geometry, x).T
    contrib = (-point_potential_derivative(geometry, rs)[:, None] * coords
               * weights[:, None] / np.mean(weights))
    fld = np.mean(contrib, axis=0)
    stderr = np.std(contrib, axis=0) / np.sqrt(N)
    return {"field": fld, "stderr": stderr, "norm": float(np.linalg.norm(fld)),
            "norm_stderr": float(np.linalg.norm(stderr))}


def mc_layer_field(surface, eps, x, N, rng, box=(-2.0, 2.0, -2.0, 2.0)):
    """Field at x of the standard layer 0 <= p <= eps of a planar surface
    with unit density, int s (y - x)/|y - x|^2 dy with s the sign of
    grad p . (y - x), and the integral of 1/|y - x| over the layer: box
    area times the mean over N uniform points of the box, which must hold
    the layer.  Returns both with their standard errors."""
    P = np.polynomial.polynomial
    c = surface.coeffs
    x = np.asarray(x, dtype=float)
    ys = np.stack([rng.uniform(box[0], box[1], size=N),
                   rng.uniform(box[2], box[3], size=N)], axis=1)
    pv = P.polyval2d(ys[:, 0], ys[:, 1], c)
    inside = (pv >= 0.0) & (pv <= eps)
    d = ys - x
    r2 = np.sum(d * d, axis=1)
    grad = np.stack([P.polyval2d(ys[:, 0], ys[:, 1], P.polyder(c, axis=0)),
                     P.polyval2d(ys[:, 0], ys[:, 1], P.polyder(c, axis=1))], axis=1)
    s = np.where(inside, np.sign(np.sum(grad * d, axis=1)), 0.0)
    area = (box[1] - box[0]) * (box[3] - box[2])
    contrib = area * s[:, None] * d / r2[:, None]
    absval = area * inside / np.sqrt(r2)
    return {"field": np.mean(contrib, axis=0),
            "stderr": np.std(contrib, axis=0) / np.sqrt(N),
            "abs_integral": float(np.mean(absval)),
            "abs_stderr": float(np.std(absval) / np.sqrt(N))}
