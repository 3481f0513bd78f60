"""Command-line front end: declarative JSON experiment configs,
deterministic runs, CSV/JSON tables, SVG figures, and a machine-readable
report per run.

Every run reads one JSON config, executes one subcommand, writes its
artifacts into the output directory, and exits 0 iff every check passed.
Outputs are deterministic for a fixed config; wall-clock timings go to a
separate ``timings.json`` so the primary artifacts stay byte-identical
across runs.

A run loads numpy and the one layer its subcommand needs: the layer is
imported when the subcommand runs, and configs are validated here without
a JSON Schema library.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConfocalError, RuleUnresolved
from .geometry import euclidean, hyperbolic, spherical

# ---------------------------------------------------------------------------
# config schemas

_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}
_VEC = {"type": "array", "items": _NUM, "minItems": 1}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_METRIC = {
    "type": "object",
    "properties": {
        "name": {"enum": ["elliptic_R2", "ellipsoidal_R3", "spheroconical_R3",
                          "ellipsoid_intrinsic", "sphere_conical"]},
        "params": _VEC,
    },
    "required": ["name", "params"],
    "additionalProperties": False,
}


def _schema(props, required):
    base = dict(props)
    base["seed"] = {"type": "integer", "minimum": 0}
    base["tolerance"] = {"type": "number", "exclusiveMinimum": 0.0}
    base["format"] = {"enum": ["csv", "json"]}
    return {"type": "object", "properties": base, "required": required,
            "additionalProperties": False}


SCHEMAS = {
    "ivory-check": _schema(
        {"a": _PAIR, "lam_e": _PAIR, "lam_h": _PAIR},
        ["a", "lam_e", "lam_h"]),
    "billiard-orbit": _schema(
        {"a": _PAIR, "outer_lam": _NUM, "lam_c": _NUM, "start_x": _NUM,
         "bounces": _POSINT},
        ["a", "outer_lam", "lam_c", "bounces"]),
    "poncelet-grid": _schema(
        {"a": _PAIR, "outer_lam": _NUM, "q": _POSINT, "p": _POSINT,
         "start_x": _NUM},
        ["a", "outer_lam", "q", "p"]),
    "inscribed-circles": _schema(
        {"a": _PAIR, "outer_lam": _NUM, "lam_c": _NUM, "theta_a": _NUM,
         "theta_b": _NUM},
        ["a", "outer_lam", "lam_c", "theta_a", "theta_b"]),
    "geodesic": _schema(
        {"metric": _METRIC, "corner0": _VEC, "corner1": _VEC},
        ["metric", "corner0", "corner1"]),
    "staeckel-ivory": _schema(
        {"metric": _METRIC, "box": {"type": "array", "items": _PAIR,
                                    "minItems": 1}},
        ["metric", "box"]),
    "staeckel-billiard": _schema(
        {"metric": _METRIC, "walls": {"type": "array", "items": _PAIR,
                                      "minItems": 1},
         "q0": _VEC, "p0": _VEC, "bounces": _POSINT},
        ["metric", "walls", "q0", "p0", "bounces"]),
    "potential-scan": _schema(
        {"geometry": {"enum": ["spherical", "hyperbolic"]}, "dim": _POSINT,
         "radii": {"type": "object",
                   "properties": {"start": _NUM, "stop": _NUM,
                                  "count": _POSINT},
                   "required": ["start", "stop", "count"],
                   "additionalProperties": False}},
        ["geometry", "dim", "radii"]),
    "newton-check": _schema(
        {"surface": {"type": "object",
                     "properties": {
                         "kind": {"enum": ["sphere", "ellipsoid"]},
                         "geometry": {"enum": ["spherical", "hyperbolic"]},
                         "dim": _POSINT, "radius": _NUM,
                         "a": _VEC, "b": _NUM},
                     "required": ["kind", "geometry"],
                     "additionalProperties": False},
         "point": _VEC, "expect": {"enum": ["zero", "point_mass"]},
         "N": _POSINT},
        ["surface", "point", "expect", "N"]),
    "arnold-check": _schema(
        {"coeffs": {"type": "array", "items": _VEC, "minItems": 1},
         "eps": {"type": "number", "exclusiveMinimum": 0.0},
         "point": _PAIR, "N": _POSINT},
        ["coeffs", "eps", "point", "N"]),
}

STOCHASTIC = frozenset()  # no subcommand draws random numbers; kept for importers
_DEFAULT_TOL = {
    "ivory-check": 1e-9, "billiard-orbit": 1e-8, "poncelet-grid": 1e-8,
    "inscribed-circles": 1e-9, "geodesic": 1e-9, "staeckel-ivory": 1e-8,
    "staeckel-billiard": 1e-9, "potential-scan": 1e-8,
    "newton-check": 1e-10, "arnold-check": 1e-10,
}


# JSON Schema (draft 2020-12) validation of the keywords SCHEMAS uses.  The
# messages, and the choice of one error among several, are those of the
# Python reference validator 4.26, which the tests use as the oracle
_IS = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}
# the instance type each keyword applies to; others pass it unchecked
_APPLIES_TO = {"minimum": "number", "exclusiveMinimum": "number",
               "minItems": "array", "maxItems": "array", "items": "array",
               "properties": "object", "required": "object",
               "additionalProperties": "object"}


def _violations(schema, x, path=()):
    """(path, message) of every violation, in the reference validator's
    order: keyword by keyword as the schema lists them, depth first."""
    for key, rule in schema.items():
        if key in _APPLIES_TO and not _IS[_APPLIES_TO[key]](x):
            continue
        if key == "type" and not _IS[rule](x):
            yield path, f"{x!r} is not of type {rule!r}"
        elif key == "enum" and x not in rule:
            yield path, f"{x!r} is not one of {rule!r}"
        elif key == "minimum" and x < rule:
            yield path, f"{x!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum" and x <= rule:
            yield path, f"{x!r} is less than or equal to the minimum of {rule!r}"
        elif key == "minItems" and len(x) < rule:
            yield path, f"{x!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key == "maxItems" and len(x) > rule:
            yield path, f"{x!r} {'is expected to be empty' if rule == 0 else 'is too long'}"
        elif key == "items":
            for k, item in enumerate(x):
                yield from _violations(rule, item, path + (k,))
        elif key == "properties":
            for name, sub in rule.items():
                if name in x:
                    yield from _violations(sub, x[name], path + (name,))
        elif key == "required":
            yield from ((path, f"{name!r} is a required property")
                        for name in rule if name not in x)
        elif key == "additionalProperties" and rule is False:
            extra = sorted({k for k in x if k not in schema.get("properties", {})}, key=str)
            if extra:
                yield path, ("Additional properties are not allowed (%s %s unexpected)"
                             % (", ".join(map(repr, extra)),
                                "was" if len(extra) == 1 else "were"))


def _first_violation(schema, cfg):
    """The message of the error the reference validator's best_match picks,
    or None: the shallowest path, then the greatest, then the first found
    (errors at one path share their schema, so its other keys tie)."""
    best = max(_violations(schema, cfg), key=lambda v: (-len(v[0]), v[0]), default=None)
    return None if best is None else best[1]


def _finite(literal: str) -> float:
    """A JSON number, or NaN and +-Infinity, which json accepts: refused
    unless finite, since NaN passes every bound of the schemas."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config rejected: non-finite number {literal}")
    return value


def _integer(literal: str) -> int:
    """A JSON integer, refused unless a float holds it: the layers compute
    with floats, and a larger one reaches them as a Python int."""
    if not math.isfinite(float(literal)):
        raise ConfigError(f"config rejected: an integer of {len(literal.lstrip('-'))} digits "
                          "overflows a float")
    return int(literal)


def load_config(command: str, path, tolerance=None) -> dict:
    """Read, schema-validate, and normalize a run config."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    if tolerance is not None:
        cfg["tolerance"] = _finite(tolerance)
    # the schemas are fixed, so they are checked against the metaschema by
    # the tests rather than on every run
    message = _first_violation(SCHEMAS[command], cfg)
    if message is not None:
        raise ConfigError(f"config rejected: {message}")
    # a seed, in the config or by --seed, is still accepted; no run draws
    # random numbers, so it is dropped and leaves no trace in the outputs
    cfg.pop("seed", None)
    cfg.setdefault("tolerance", _DEFAULT_TOL[command])
    return cfg


# ---------------------------------------------------------------------------
# artifact writers


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_g17(v) if isinstance(v, (int, float, np.floating))
                        and not isinstance(v, bool) else str(v) for v in row])


def _ellipse_outline(family, lam: float):
    a1, a2 = family.a
    return np.array([a1 - lam, a2 - lam]) ** 0.5


def _add_caustic(scene, chart, outer_lam: float, color: str):
    """The caustic inside the table: an ellipse whole; a hyperbola as its two
    branches, the right one a polyline of `point_at` samples between its two
    crossings of the table, the left one that polyline's mirror image."""
    from .billiards import CausticKind
    from .quadrics import point_from_parameters

    if chart.kind is CausticKind.ELLIPSE:
        scene.add_ellipse((0.0, 0.0), *_ellipse_outline(chart.family, chart.lam_c), color=color)
        return
    end = chart.coordinate_of_point(point_from_parameters(chart.family, (outer_lam, chart.lam_c)))
    branch = np.array([chart.point_at(x) for x in np.linspace(-end, end, 65)])
    scene.add_polyline(branch, color=color)
    scene.add_polyline(branch * (-1.0, 1.0), color=color)


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "passed": bool(value < tol)}


def _relative_norm(out: dict, tol: float) -> float:
    """The field norm relative to the integral of |integrand|; RuleUnresolved
    if the error estimate |F_m - F_2m|, relative alike, exceeds tol."""
    err = out["error"] / out["abs_integral"]
    if not err <= tol:
        raise RuleUnresolved(f"error estimate {err:.3e} exceeds the tolerance "
                             f"{tol:.3e}; raise N (now {out['N']})")
    return out["norm"] / out["abs_integral"]


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (checks, tables, scenes)


def _run_ivory_check(cfg):
    from .billiards import ivory_quadrilateral
    from .quadrics import ConfocalFamily
    from .svgout import Scene, palette

    fam = ConfocalFamily(euclidean(2), cfg["a"])
    tol = cfg["tolerance"]
    quad = ivory_quadrilateral(fam, cfg["lam_e"][0], cfg["lam_e"][1],
                               cfg["lam_h"][0], cfg["lam_h"][1])
    checks = [
        _check("diagonal_length_spread", abs(quad["AC"] - quad["BD"]), tol),
        _check("diagonal_caustic_agreement",
               abs(quad["lam_AC"] - quad["lam_BD"]), tol),
    ]
    rows = [[quad["AC"], quad["BD"], abs(quad["AC"] - quad["BD"]),
             quad["lam_AC"], quad["lam_BD"]]]
    tables = {"diagonals": (["AC", "BD", "spread", "lam_AC", "lam_BD"], rows)}
    scene = Scene()
    for k, lam in enumerate(cfg["lam_e"]):
        rx, ry = _ellipse_outline(fam, lam)
        scene.add_ellipse((0.0, 0.0), rx, ry, color=palette(k))
    corners = np.array([quad[k] for k in "ABCD"])
    scene.add_polyline(corners, closed=True, color=palette(2))
    scene.add_polyline([quad["A"], quad["C"]], color=palette(3))
    scene.add_polyline([quad["B"], quad["D"]], color=palette(3))
    scene.add_points(corners)
    return checks, tables, {"quadrilateral": scene}


def _run_billiard_orbit(cfg):
    from .billiards import CausticChart, caustic_of_line, reflect
    from .quadrics import ConfocalFamily
    from .svgout import Scene, palette

    fam = ConfocalFamily(euclidean(2), cfg["a"])
    tol = cfg["tolerance"]
    chart = CausticChart(fam, cfg["lam_c"])
    line = chart.tangent_line_at(cfg.get("start_x", 0.0))
    verts = []
    lam_dev = 0.0
    cur = line
    for _ in range(cfg["bounces"]):
        lam_dev = max(lam_dev, abs(caustic_of_line(fam, cur).lam - cfg["lam_c"]))
        cur, pt = reflect(fam, cfg["outer_lam"], cur, branch="exit")
        verts.append(pt)
    verts = np.array(verts)
    checks = [_check("caustic_conservation", lam_dev, tol)]
    rows = [[i, v[0], v[1]] for i, v in enumerate(verts)]
    tables = {"orbit": (["bounce", "x", "y"], rows)}
    scene = Scene()
    rx, ry = _ellipse_outline(fam, cfg["outer_lam"])
    scene.add_ellipse((0.0, 0.0), rx, ry)
    _add_caustic(scene, chart, cfg["outer_lam"], palette(1))
    scene.add_polyline(verts, color=palette(2), width=0.7)
    return checks, tables, {"orbit": scene}


def _run_poncelet_grid(cfg):
    from .billiards import poncelet_grid
    from .quadrics import ConfocalFamily
    from .svgout import Scene, palette

    fam = ConfocalFamily(euclidean(2), cfg["a"])
    tol = cfg["tolerance"]
    grid = poncelet_grid(fam, cfg["outer_lam"], cfg["q"], cfg["p"],
                         cfg.get("start_x", 0.0))
    # lambda grows like |p|^2 on the outer rings, so each ring's spread of
    # lambda is taken per unit of its largest |p|^2, floored at 1
    scale = {}
    for (i, j), pt in grid["points"].items():
        d = min((j - i) % cfg["q"], (i - j) % cfg["q"])
        scale[d] = max(scale.get(d, 1.0), float(pt @ pt))
    conc = max(spread / scale[d] for d, spread in grid["concentric_spread"].items())
    rad = max(grid["radial_spread"].values())
    checks = [
        _check("closure_gap", grid["closure_gap"], tol),
        _check("concentric_spread", conc, tol),
        _check("radial_spread", rad, tol),
        _check("cell_circumscribed_residual", max(grid["quad_residuals"]), tol),
    ]
    rows = [[i, j, pt[0], pt[1]] for (i, j), pt in sorted(grid["points"].items())]
    tables = {"grid_points": (["side_i", "side_j", "x", "y"], rows)}
    scene = Scene()
    rx, ry = _ellipse_outline(fam, cfg["outer_lam"])
    scene.add_ellipse((0.0, 0.0), rx, ry)
    scene.add_polyline(np.array(grid["vertices"]), closed=True, color=palette(1))
    scene.add_points(np.array([pt for pt in grid["points"].values()]))
    return checks, tables, {"grid": scene}


def _run_inscribed_circles(cfg):
    from .billiards import circumscribed_check
    from .quadrics import ConfocalFamily
    from .svgout import Scene, palette

    fam = ConfocalFamily(euclidean(2), cfg["a"])
    tol = cfg["tolerance"]
    rx, ry = _ellipse_outline(fam, cfg["outer_lam"])
    A = np.array([rx * np.cos(cfg["theta_a"]), ry * np.sin(cfg["theta_a"])])
    B = np.array([rx * np.cos(cfg["theta_b"]), ry * np.sin(cfg["theta_b"])])
    res = circumscribed_check(fam, A, B, cfg["lam_c"])
    checks = [
        _check("perimeter_residual", res["perimeter_residual"], tol),
        _check("incircle_tangency_residual", res["tangency_residual"], tol),
        _check("hyperbola_agreement", res["hyperbola_mismatch"], 1e-6),
    ]
    rows = [[res["perimeter_residual"], res["tangency_residual"],
             res["incircle_center"][0], res["incircle_center"][1],
             res["incircle_radius"], res["lam_hyp"]]]
    tables = {"incircle": (["perimeter_residual", "tangency_residual",
                            "center_x", "center_y", "radius", "lam_hyp"], rows)}
    scene = Scene()
    scene.add_ellipse((0.0, 0.0), rx, ry)
    cx, cy = _ellipse_outline(fam, cfg["lam_c"])
    scene.add_ellipse((0.0, 0.0), cx, cy, color=palette(1))
    corners = np.array([res["A"], res["C"], res["B"], res["D"]])
    scene.add_polyline(corners, closed=True, color=palette(2))
    scene.add_circle(res["incircle_center"], res["incircle_radius"],
                     color=palette(3))
    scene.add_points(corners)
    return checks, tables, {"incircle": scene}


def _run_geodesic(cfg):
    from .staeckel import builtin_metric, geodesic_between

    metric = builtin_metric(cfg["metric"]["name"], cfg["metric"]["params"])
    tol = cfg["tolerance"]
    if len(cfg["corner0"]) != metric.n or len(cfg["corner1"]) != metric.n:
        raise ConfigError(f"corner0, corner1 must have length {metric.n}")
    sol = geodesic_between(metric, cfg["corner0"], cfg["corner1"])
    checks = [_check("separation_residual", sol["residual"], tol)]
    alpha = sol["alpha"] if sol["alpha"] is not None else []
    rows = [[sol["length"], sol["residual"]] + [a for a in alpha]]
    header = ["length", "residual"] + [f"alpha_{k}" for k in range(len(alpha))]
    return checks, {"geodesic": (header, rows)}, {}


def _run_staeckel_ivory(cfg):
    from .staeckel import builtin_metric, ivory_check

    metric = builtin_metric(cfg["metric"]["name"], cfg["metric"]["params"])
    tol = cfg["tolerance"]
    box = [tuple(b) for b in cfg["box"]]
    if len(box) != metric.n:
        raise ConfigError(f"box must have {metric.n} coordinate intervals")
    res = ivory_check(metric, box)
    checks = [_check("diagonal_spread", res["spread"], tol)]
    rows = [[k, length] for k, length in enumerate(res["lengths"])]
    return checks, {"diagonals": (["diagonal", "length"], rows)}, {}


def _run_staeckel_billiard(cfg):
    from .staeckel import builtin_metric, staeckel_billiard_trajectory
    from .svgout import Scene, palette

    metric = builtin_metric(cfg["metric"]["name"], cfg["metric"]["params"])
    tol = cfg["tolerance"]
    walls = [tuple(w) for w in cfg["walls"]]
    if len(walls) != metric.n or len(cfg["q0"]) != metric.n \
            or len(cfg["p0"]) != metric.n:
        raise ConfigError(f"walls, q0, p0 must all have length {metric.n}")
    res = staeckel_billiard_trajectory(metric, walls, cfg["q0"], cfg["p0"],
                                       cfg["bounces"])
    checks = [_check("alpha_drift", res["alpha_drift"], tol)]
    rows = [[t] + list(q) + list(p) for t, q, p in res["states"]]
    header = (["t"] + [f"q_{k}" for k in range(metric.n)]
              + [f"p_{k}" for k in range(metric.n)])
    tables = {"bounces": (header, rows)}
    scenes = {}
    if metric.n == 2:
        scene = Scene()
        pts = np.array([q for _, q, _ in res["states"]])
        scene.add_polyline(np.array([[walls[0][0], walls[1][0]],
                                     [walls[0][1], walls[1][0]],
                                     [walls[0][1], walls[1][1]],
                                     [walls[0][0], walls[1][1]]]), closed=True)
        scene.add_polyline(pts, color=palette(1))
        scenes["box_orbit"] = scene
    return checks, tables, scenes


def _run_potential_scan(cfg):
    from .potentials import antisymmetry_check, point_potential, point_potential_derivative

    geom = (spherical if cfg["geometry"] == "spherical" else hyperbolic)(cfg["dim"])
    tol = cfg["tolerance"]
    r = cfg["radii"]
    radii = np.linspace(r["start"], r["stop"], r["count"])
    is_sph = geom.kappa > 0
    u = point_potential(geom, radii)
    du = point_potential_derivative(geom, radii)
    flux_dev = np.max(np.abs(du * geom.trig[0](radii) ** (geom.n - 1) + 1.0))
    checks = [_check("flux_constancy", flux_dev, tol)]
    if geom.n == 3:
        # coth r - 1 written without cancellation at large r
        oracle = 1.0 / np.tan(radii) if is_sph else 2.0 / np.expm1(2.0 * radii)
        checks.append(_check("closed_form_agreement", np.max(np.abs(u - oracle)), tol))
    if is_sph:
        checks.append(_check("antisymmetry",
                             np.max(antisymmetry_check(geom, radii)), tol))
    rows = np.column_stack([radii, u, du]).tolist()
    return checks, {"scan": (["r", "u", "du"], rows)}, {}


def _build_surface(scfg):
    from .potentials import CurvedEllipsoid, GeodesicSphere

    geom_fn = spherical if scfg["geometry"] == "spherical" else hyperbolic
    if scfg["kind"] == "sphere":
        if "dim" not in scfg or "radius" not in scfg:
            raise ConfigError("sphere surfaces need dim and radius")
        geom = geom_fn(scfg["dim"])
        return GeodesicSphere(geom, np.eye(geom.n + 1)[0], scfg["radius"])
    if "a" not in scfg or "b" not in scfg:
        raise ConfigError("ellipsoid surfaces need a and b")
    return CurvedEllipsoid(geom_fn(len(scfg["a"])), tuple(scfg["a"]),
                           scfg["b"])


def _run_newton_check(cfg):
    from .potentials import field_at

    surface = _build_surface(cfg["surface"])
    tol = cfg["tolerance"]
    x = np.asarray(cfg["point"], dtype=float)
    zero = cfg["expect"] == "zero"
    if not (zero or cfg["surface"]["kind"] == "sphere" and surface.geometry == hyperbolic(3)):
        raise ConfigError("point_mass oracle requires a hyperbolic sphere in "
                          "three dimensions")
    out = field_at(surface, x, cfg["N"])
    rel_norm = _relative_norm(out, tol)
    tables = {"field": (["field_norm", "error_estimate", "N"],
                        [[out["norm"], out["error"], out["N"]]])}
    if zero:
        return [_check("field_norm_zero", rel_norm, tol)], tables, {}
    # distance to the center (the pole): cosh D = -<x, c>_M = x0
    D = float(np.arccosh(max(x[0], 1.0)))
    oracle = 1.0 / np.sinh(D) ** 2
    return [_check("point_mass_relative_error", abs(out["norm"] - oracle) / oracle,
                   tol)], tables, {}


def _run_arnold_check(cfg):
    from .potentials import HyperbolicSurface, arnold_field_check

    surf = HyperbolicSurface(np.array(cfg["coeffs"], dtype=float), euclidean(2))
    tol = cfg["tolerance"]
    out = arnold_field_check(surf, cfg["eps"], tuple(cfg["point"]), cfg["N"])
    checks = [_check("layer_field_zero", _relative_norm(out, tol), tol)]
    rows = [[out["norm"], out["error"], out["N"], out["margin"]]]
    return checks, {"field": (["field_norm", "error_estimate", "N",
                               "hyperbolicity_margin"], rows)}, {}


# each subcommand's runner, and the layers it runs on; run() imports them
# before it starts the clock, so that compute_s times the computation alone
_PLANAR = ("billiards", "svgout")
_RUNNERS = {
    "ivory-check": (_run_ivory_check, _PLANAR),
    "billiard-orbit": (_run_billiard_orbit, _PLANAR),
    "poncelet-grid": (_run_poncelet_grid, _PLANAR),
    "inscribed-circles": (_run_inscribed_circles, _PLANAR),
    "geodesic": (_run_geodesic, ("staeckel",)),
    "staeckel-ivory": (_run_staeckel_ivory, ("staeckel",)),
    "staeckel-billiard": (_run_staeckel_billiard, ("staeckel", "svgout")),
    "potential-scan": (_run_potential_scan, ("potentials",)),
    "newton-check": (_run_newton_check, ("potentials",)),
    "arnold-check": (_run_arnold_check, ("potentials",)),
}


# ---------------------------------------------------------------------------
# orchestration


def run(command: str, cfg: dict, outdir) -> dict:
    """Execute one subcommand and write all artifacts; returns the report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    timings = {}
    runner, layers = _RUNNERS[command]
    for layer in layers:
        import_module(f".{layer}", __package__)
    t0 = time.perf_counter()
    checks, tables, scenes = runner(cfg)
    timings["compute_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    artifacts = []
    fmt = cfg.get("format", "csv")
    for name, (header, rows) in sorted(tables.items()):
        if fmt == "json":
            path = outdir / f"{name}.json"
            payload = [dict(zip(header, [float(v) if isinstance(
                v, (int, float, np.floating)) and not isinstance(v, bool)
                else v for v in row])) for row in rows]
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            path = outdir / f"{name}.csv"
            _write_csv(path, header, rows)
        artifacts.append(path.name)
    if scenes:
        from .svgout import render_svg
    for name, scene in sorted(scenes.items()):
        path = outdir / f"{name}.svg"
        path.write_text(render_svg(scene))
        artifacts.append(path.name)

    report = {
        "command": command,
        "config": cfg,
        "checks": checks,
        "artifacts": artifacts,
        "passed": all(c["passed"] for c in checks),
    }
    (outdir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    timings["write_s"] = time.perf_counter() - t0
    (outdir / "timings.json").write_text(
        json.dumps(timings, sort_keys=True, indent=2) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confocal",
        description="Confocal-quadric billiards, Staeckel geodesics, and "
                    "potential-theory experiments.")
    parser.add_argument("command", choices=sorted(SCHEMAS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, help="accepted; no run draws random numbers")
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.command, args.config, tolerance=args.tolerance)
        if args.format is not None:
            cfg["format"] = args.format
        report = run(args.command, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfocalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: {c['value']:.3e} "
              f"(tolerance {c['tolerance']:.3e})")
    if not report["passed"]:
        print("some checks failed; see report.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
