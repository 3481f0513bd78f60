"""Confocal-quadric billiards, Stackel geodesics, and potential theory in
constant-curvature spaces.

The names below are loaded from their layer on first access (PEP 562), so
importing the package, or one layer of it, does not load the others.
"""

from importlib import import_module

_LAYER = {
    "geometry": ["Geometry", "Kind", "euclidean", "geodesic_distance",
                 "hyperbolic", "spherical"],
    "potentials": ["CurvedEllipsoid", "GeodesicSphere", "HyperbolicSurface",
                   "f_lambda", "field_at", "point_potential",
                   "surface_potential"],
    "quadrics": ["ConfocalFamily", "EllipticCoords", "confocal_parameters",
                 "ivory_parallelepiped_check", "point_from_parameters",
                 "tangent_parameters_of_line"],
    "staeckel": ["LiouvilleMetric", "StaeckelMetric", "builtin_metric",
                 "geodesic_between", "ivory_check",
                 "staeckel_billiard_trajectory"],
}
_HOME = {name: layer for layer, names in _LAYER.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
