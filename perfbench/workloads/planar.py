"""planar: seeded checks in confocal.quadrics and confocal.billiards.

Each check uses the tolerance of its counterpart in tests/ and draws its
inputs by that test's admissibility rule.  Two known defects of the
program show up as failed checks (not as wrong output), but only on
inputs inside the defect's region:

- NearPole: tangent_parameters_of_line in E^3 loses precision when a
  tangency parameter lies near a semi-axis parameter a_i, where its
  degree-5 discriminant has a spurious root.  It then drops the root
  (tests/test_quadrics.py::test_tangent_count_in_space fails on it), or
  returns it with a residual over the test's 1e-8.  In 20000 lines drawn
  as below, 3.2% missed, all with a tangency parameter within 0.11 of
  some a_i by the independent oracle `tangency_roots`; the region is
  taken as within 0.15.
- FarCorners: circumscribed_check returns residuals of 0.05-2 for about
  2% of the corner pairs the test's rule admits (angles in [0.15, 2.9],
  0.3 apart).  In 6000 draws all had one corner below 0.45 rad and the
  other above pi - 0.6 rad: near the major axis, on opposite sides.

Outside its region a miss is wrong output, and inside it a defect may
miss at most its measured rate plus five standard deviations
(harness.known_ceiling).
"""

import numpy as np

from confocal.billiards import (
    CausticChart,
    OrientedLine,
    caustic_of_line,
    circ_diff,
    circumscribed_check,
    four_periodic_family,
    ivory_quadrilateral,
    poncelet_grid,
    reflect,
)
from confocal.geometry import euclidean, hyperbolic, spherical
from confocal.quadrics import (
    ConfocalFamily,
    confocal_parameters,
    ivory_parallelepiped_check,
    point_from_parameters,
    tangent_parameters_of_line,
)

from harness import Check, Miss, expect_below

CP = "quadrics.confocal_parameters"
PFP = "quadrics.point_from_parameters"
TPL = "quadrics.tangent_parameters_of_line"
IPC = "quadrics.ivory_parallelepiped_check"
REFLECT = "billiards.reflect"
CAUSTIC = "billiards.caustic_of_line"
CHART_E = "billiards.caustic_chart_ellipse"
CHART_H = "billiards.caustic_chart_hyperbola"
IQ = "billiards.ivory_quadrilateral"
FPF = "billiards.four_periodic_family"
CC = "billiards.circumscribed_check"
PG = "billiards.poncelet_grid"

FAM2 = ConfocalFamily(euclidean(2), (4.0, 1.0))
FAM3 = ConfocalFamily(euclidean(3), (4.0, 2.0, 1.0))
FAMS2 = ConfocalFamily(spherical(2), (3.0, 2.0), b=1.0)
FAMH2 = ConfocalFamily(hyperbolic(2), (1.0, 0.5), b=2.0)

# checks per pass: (full, small).  Full sizes are the loop sizes of the
# test each kind mirrors, except tangency: at the defect rate of about 7
# lines in 200, a pass of 200 lines shows NearPole on nearly every seed
# where the test's 30 would miss it on one seed in three.
COUNTS = {
    "coords": (100, 1),         # per family; test_roundtrip_all_geometries
    "tangency": (200, 1),
    "parallelepiped": (25, 1),  # per family; test_ivory_boxes_all_geometries
    "ivory_quad": (100, 1),     # test_ivory_quadrilateral_random
    "reflect": (100, 1),        # test_reflect_preserves_caustic
    "chart_ellipse": (50, 1),   # pairs; test_ellipse_reflection_is_shift: 100 points
    "chart_hyperbola": (5, 1),  # test_hyperbola_caustic_chart_roundtrip
    "four_periodic": (20, 1),   # test_four_periodic_family
    "circumscribed": (50, 1),   # test_circumscribed_random
    "grid_q9": (1, 1),          # test_poncelet_grid
    "grid_q41": (1, 0),         # no test; one call of the ~1 s shape
}
FAMILIES = (FAM2, FAM3, FAMS2, FAMH2)
POLE_REGION = 0.15
# defect -> (check kind carrying it, measured share of that kind's checks)
KNOWN_DEFECTS = {"NearPole": ("tangency", 0.032), "FarCorners": ("circumscribed", 0.02)}


def interior_point(fam, rng):
    """A generic model point with all coordinates bounded away from zero:
    the rule of confocal.quadrics.random_interior_point, which the tests use."""
    geo = fam.geometry
    if geo.kind.name == "EUCLIDEAN":
        while True:
            x = rng.uniform(0.15, 1.0, size=fam.n) * rng.choice([-1.0, 1.0], size=fam.n)
            x *= np.sqrt(np.asarray(fam.a)) * rng.uniform(0.3, 0.95)
            if np.min(np.abs(x)) > 1e-3:
                return x
    while True:
        v = rng.normal(size=geo.ambient_dim)
        if geo.kind.name == "SPHERICAL":
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


def interior_line(rng, scale=0.7):
    """tests/test_billiards.py: a chord through the base ellipse."""
    x0 = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8)])
    x0 *= scale / max(1.0, np.sqrt(x0[0] ** 2 / 4.0 + x0[1] ** 2))
    return OrientedLine.from_point_direction(x0, rng.normal(size=2))


def ellipse_parameters(rng):
    """test_ivory_quadrilateral_random: two ellipse and two hyperbola parameters."""
    return (tuple(np.sort(rng.uniform(-1.0, 0.95, size=2))),
            tuple(np.sort(rng.uniform(1.05, 3.95, size=2))))


def corner_angles(rng):
    """test_circumscribed_random: angles of two corners on the lam=0.05
    ellipse, at least 0.3 apart."""
    while True:
        th1, th2 = rng.uniform(0.15, 2.9, size=2)
        if abs(th1 - th2) >= 0.3:
            return th1, th2


def tangency_roots(fam, p, d):
    """Oracle: the tangency parameters of the line p + t d, as the real
    roots of sum_i d_i^2 P_i - sum_{i<j} (p_i d_j - p_j d_i)^2 P_ij, where
    P_i and P_ij are prod_k (a_k - lam) without the factors i, or i and j.
    That is the line's discriminant qpd^2 - qdd qpp with its denominators
    cleared and the common factor prod_k (a_k - lam) divided out."""
    a = np.asarray(fam.a)
    n = len(a)

    def prod_without(*skip):
        out = np.poly1d([1.0])
        for k in range(n):
            if k not in skip:
                out *= np.poly1d([-1.0, a[k]])
        return out

    r = np.poly1d([0.0])
    for i in range(n):
        r += d[i] ** 2 * prod_without(i)
        for j in range(i + 1, n):
            r -= (p[i] * d[j] - p[j] * d[i]) ** 2 * prod_without(i, j)
    roots = np.roots(r.coeffs)
    return roots[np.abs(roots.imag) < 1e-9].real


def near_pole(fam, p, d):
    """The NearPole defect region: a tangency parameter within POLE_REGION of some a_i."""
    roots = tangency_roots(fam, p, d)
    return bool(len(roots)) and float(np.min(np.abs(roots[:, None] - np.asarray(fam.a)))) < POLE_REGION


def far_corners(th1, th2):
    """The FarCorners defect region (see the module docstring)."""
    lo, hi = sorted((th1, th2))
    return lo < 0.45 and hi > np.pi - 0.6


# ---------------------------------------------------------------------------
# checks


def coords_roundtrip(tr, fam, x):
    coords = tr.call(CP, confocal_parameters, fam, x)
    y = tr.call(PFP, point_from_parameters, fam, coords)
    expect_below(PFP, np.max(np.abs(x - y)), 1e-9)


def line_tangency(tr, p, d, pole):
    """`pole`: the oracle puts the line in the NearPole region."""
    known = "NearPole" if pole else None
    lams = tr.call(TPL, tangent_parameters_of_line, FAM3, p, d)
    tr.count(TPL + ".lines")
    if len(lams) != FAM3.n - 1:
        raise Miss(TPL, known or "DroppedRoot", "known" if pole else "wrong")
    tr.count(TPL + ".full")
    a = np.asarray(FAM3.a)
    for lv in lams:
        qdd = np.sum(d * d / (a - lv))
        qpd = np.sum(p * d / (a - lv))
        qpp = np.sum(p * p / (a - lv)) - 1.0
        expect_below(TPL, abs(qpd * qpd - qdd * qpp), 1e-8, known)


def parallelepiped(tr, fam, x1, x2):
    l1 = tr.call(CP, confocal_parameters, fam, x1).lam
    l2 = tr.call(CP, confocal_parameters, fam, x2).lam
    intervals = [tuple(sorted((l1[k], l2[k]), reverse=True)) for k in range(fam.n)]
    rep = tr.call(IPC, ivory_parallelepiped_check, fam, intervals)
    expect_below(IPC, rep["spread"], 1e-8)


def ivory_quad(tr, le, lh):
    q = tr.call(IQ, ivory_quadrilateral, FAM2, le[0], le[1], lh[0], lh[1])
    expect_below(IQ, abs(q["AC"] - q["BD"]), 1e-9)
    expect_below(IQ, abs(q["lam_AC"] - q["lam_BD"]), 1e-9)


def reflection(tr, line):
    """Reflection in the base ellipse keeps the caustic of the line."""
    lam0 = tr.call(CAUSTIC, caustic_of_line, FAM2, line).lam
    out, _ = tr.call(REFLECT, reflect, FAM2, 0.0, line, branch="exit")
    lam = tr.call(CAUSTIC, caustic_of_line, FAM2, out).lam
    expect_below(REFLECT, abs(lam - lam0), 1e-9)


def chart_ellipse_shift(tr, x1, x2):
    """Reflection in the base ellipse is one shift in the chart of the 0.5 caustic."""
    chart = tr.call(CHART_E, CausticChart, FAM2, 0.5)
    shifts = []
    for x in (x1, x2):
        line = tr.call(CHART_E, chart.tangent_line_at, x)
        out, _ = tr.call(REFLECT, reflect, FAM2, 0.0, line, branch="exit")
        y = tr.call(CHART_E, chart.coordinate_of_line, out, tol=1e-6)
        shifts.append(circ_diff(y, x))
    expect_below(CHART_E, abs(shifts[0] - shifts[1]), 1e-8)


def chart_hyperbola_roundtrip(tr, x):
    chart = tr.call(CHART_H, CausticChart, FAM2, 2.0)
    line = tr.call(CHART_H, chart.tangent_line_at, x)
    y = tr.call(CHART_H, chart.coordinate_of_line, line, tol=1e-6)
    expect_below(CHART_H, abs(circ_diff(y, x)), 1e-9)


def four_periodic(tr, t):
    q = tr.call(IQ, ivory_quadrilateral, FAM2, 0.0, 0.6, 1.4, 3.0)
    r = tr.call(FPF, four_periodic_family, FAM2, q, t)
    expect_below(FPF, r["closure_gap"], 1e-8)
    expect_below(FPF, abs(r["perimeter"] - 2.0 * q["BD"]), 1e-8)


def circumscribed(tr, th1, th2):
    A, B = (np.array([np.sqrt(3.95) * np.cos(t), np.sqrt(0.95) * np.sin(t)])
            for t in (th1, th2))
    rep = tr.call(CC, circumscribed_check, FAM2, A, B, 0.5)
    known = "FarCorners" if far_corners(th1, th2) else None
    for key in ("perimeter_residual", "tangency_residual", "hyperbola_mismatch"):
        expect_below(CC, rep[key], 1e-9, known)


def grid(tr, q, start_x):
    """test_poncelet_grid tolerances.  For q=41 (no test) the concentric
    spread is in units of lambda, which grows like |p|^2 on the outer
    rings (|lambda| ~ 1.6e3 there), so its 1e-8 is taken per unit of the
    ring's largest |p|^2."""
    g = tr.call(PG, poncelet_grid, FAM2, -0.2, q, 2, start_x)
    expect_below(PG, g["closure_gap"], 1e-7)
    expect_below(PG, max(g["radial_spread"].values()), 1e-8)
    expect_below(PG, max(g["quad_residuals"]), 1e-8)
    scale = {}
    if q > 9:
        for (i, j), pt in g["points"].items():
            d = abs(i - j) % q
            d = min(d, q - d)
            scale[d] = max(scale.get(d, 1.0), float(pt @ pt))
    for d, spread in g["concentric_spread"].items():
        expect_below(PG, spread, 1e-8 * scale.get(d, 1.0))


def build(seed: int, size: str):
    col = 0 if size == "full" else 1
    n = {kind: c[col] for kind, c in COUNTS.items()}
    rngs = {kind: np.random.default_rng([seed, k]) for k, kind in enumerate(COUNTS)}
    checks = []
    for fam in FAMILIES:
        r = rngs["coords"]
        checks += [Check("coords", coords_roundtrip, (fam, interior_point(fam, r)))
                   for _ in range(n["coords"])]
    r = rngs["tangency"]
    for _ in range(n["tangency"]):
        p, d = interior_point(FAM3, r), r.normal(size=3)
        checks.append(Check("tangency", line_tangency, (p, d, near_pole(FAM3, p, d))))
    for fam in FAMILIES:
        r = rngs["parallelepiped"]
        checks += [Check("parallelepiped", parallelepiped,
                         (fam, interior_point(fam, r), interior_point(fam, r)))
                   for _ in range(n["parallelepiped"])]
    r = rngs["ivory_quad"]
    checks += [Check("ivory_quad", ivory_quad, ellipse_parameters(r))
               for _ in range(n["ivory_quad"])]
    r = rngs["reflect"]
    checks += [Check("reflect", reflection, (interior_line(r),))
               for _ in range(n["reflect"])]
    r = rngs["chart_ellipse"]
    checks += [Check("chart_ellipse", chart_ellipse_shift, tuple(r.uniform(0.0, 1.0, 2)))
               for _ in range(n["chart_ellipse"])]
    r = rngs["chart_hyperbola"]
    checks += [Check("chart_hyperbola", chart_hyperbola_roundtrip,
                     (r.uniform(0.02, 0.98),))
               for _ in range(n["chart_hyperbola"])]
    r = rngs["four_periodic"]
    checks += [Check("four_periodic", four_periodic, (r.uniform(0.0, 1.0),))
               for _ in range(n["four_periodic"])]
    r = rngs["circumscribed"]
    checks += [Check("circumscribed", circumscribed, corner_angles(r))
               for _ in range(n["circumscribed"])]
    for kind, q in (("grid_q9", 9), ("grid_q41", 41)):
        r = rngs[kind]
        checks += [Check(kind, grid, (q, r.uniform(0.0, 1.0))) for _ in range(n[kind])]
    return checks
