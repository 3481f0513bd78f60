"""Acceptance suite: one test per top-level acceptance criterion.

Each test prints a single pass/fail line naming the criterion; assertion
failures mark the criterion failed.
"""

import json

import numpy as np
from scipy.integrate import quad

from confocal.billiards import (
    CausticChart,
    circ_diff,
    circumscribed_check,
    four_periodic_family,
    ivory_quadrilateral,
    poncelet_caustic_for_rotation,
    poncelet_grid,
    poncelet_polygon,
    reflect,
)
from confocal.cli import main
from confocal.errors import NoIntersection
from confocal.geometry import euclidean, geodesic_distance, hyperbolic, spherical
from confocal.potentials import (
    CurvedEllipsoid,
    GeodesicSphere,
    HyperbolicSurface,
    antisymmetry_check,
    arnold_field_check,
    curved_segment_sum,
    f_lambda,
    field_at,
    is_hyperbolic_at,
    point_potential,
    point_potential_derivative,
    surface_potential,
    vieta_segment_sum,
)
from confocal.quadrics import ConfocalFamily
from confocal.staeckel import (
    builtin_metric,
    hamiltonian,
    ivory_check,
    metric_coeffs,
    staeckel_billiard_trajectory,
)
from helpers import poisson_brackets, solved_random_box

FAM = ConfocalFamily(euclidean(2), (4.0, 1.0))
ALL_METRICS = {
    "elliptic_R2": builtin_metric("elliptic_R2", (4.0, 1.0)),
    "ellipsoidal_R3": builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0)),
    "spheroconical_R3": builtin_metric("spheroconical_R3", (4.0, 2.0, 1.0)),
    "ellipsoid_intrinsic": builtin_metric("ellipsoid_intrinsic", (4.0, 2.0, 1.0)),
    "sphere_conical": builtin_metric("sphere_conical", (0.8, 0.5, 0.2)),
}


def _verdict(num: int, label: str, ok: bool):
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_planar_ivory():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        le = np.sort(rng.uniform(-1.0, 0.95, size=2))
        lh = np.sort(rng.uniform(1.05, 3.95, size=2))
        q = ivory_quadrilateral(FAM, le[0], le[1], lh[0], lh[1])
        ok &= abs(q["AC"] - q["BD"]) < 1e-9
        ok &= abs(q["lam_AC"] - q["lam_BD"]) < 1e-9
    _verdict(1, "planar Ivory", ok)


def test_criterion_02_four_periodic_family():
    q = ivory_quadrilateral(FAM, 0.0, 0.6, 1.4, 3.0)
    pers = []
    ok = True
    for t in np.linspace(0.0, 1.0, 20):
        r = four_periodic_family(FAM, q, t)
        ok &= r["closure_gap"] < 1e-8
        pers.append(r["perimeter"])
    ok &= max(pers) - min(pers) < 1e-8
    _verdict(2, "four-periodic family", ok)


def test_criterion_03_conjugacy():
    chart = CausticChart(FAM, 0.5)
    rng = np.random.default_rng(103)
    shifts = []
    for _ in range(100):
        x = rng.uniform(0.0, 1.0)
        out, _ = reflect(FAM, 0.0, chart.tangent_line_at(x), branch="exit")
        shifts.append(circ_diff(chart.coordinate_of_line(out, tol=1e-6), x))
    ok = max(shifts) - min(shifts) < 1e-8
    first_quadrant = lambda pt: pt[0] > 0.0 and pt[1] > 0.0
    sums = []
    tries = 0
    while len(sums) < 100 and tries < 400:
        tries += 1
        x = rng.uniform(0.0, 1.0)
        try:
            out, _ = reflect(FAM, 2.0, chart.tangent_line_at(x),
                             branch=first_quadrant)
        except NoIntersection:
            continue
        sums.append((x + chart.coordinate_of_line(out, tol=1e-6)) % 1.0)
    s0 = np.median(sums)
    ok &= len(sums) >= 100
    ok &= max(abs(circ_diff(s, s0)) for s in sums) < 1e-8
    _verdict(3, "reflection conjugacy", ok)


def test_criterion_04_poncelet():
    lam_c = poncelet_caustic_for_rotation(FAM, 0.0, 2, 9)
    ok = True
    for x0 in np.linspace(0.0, 1.0, 20, endpoint=False):
        _, gap = poncelet_polygon(FAM, 0.0, lam_c, 9, start_x=x0)
        ok &= gap < 1e-7
    circ = ConfocalFamily(euclidean(2), (2.0, 2.0))
    R = np.sqrt(2.0)
    lam3 = poncelet_caustic_for_rotation(circ, 0.0, 1, 3)
    lam4 = poncelet_caustic_for_rotation(circ, 0.0, 1, 4)
    ok &= abs(np.sqrt(2.0 - lam3) - R / 2.0) < 1e-9
    ok &= abs(np.sqrt(2.0 - lam4) - R / np.sqrt(2.0)) < 1e-9
    _verdict(4, "Poncelet closure", ok)


def test_criterion_05_inscribed_circles():
    rng = np.random.default_rng(105)
    ok = True
    count = 0
    while count < 50:
        th1, th2 = rng.uniform(0.15, 2.9, size=2)
        if abs(th1 - th2) < 0.3:
            continue
        A = np.array([np.sqrt(3.95) * np.cos(th1), np.sqrt(0.95) * np.sin(th1)])
        B = np.array([np.sqrt(3.95) * np.cos(th2), np.sqrt(0.95) * np.sin(th2)])
        rep = circumscribed_check(FAM, A, B, 0.5)
        ok &= rep["perimeter_residual"] < 1e-9
        ok &= rep["tangency_residual"] < 1e-9
        count += 1
    grid = poncelet_grid(FAM, -0.2, 9, 2)
    ok &= max(grid["quad_residuals"]) < 1e-8
    _verdict(5, "inscribed circles", ok)


def test_criterion_06_staeckel_geodesic_oracles():
    rng = np.random.default_rng(106)
    ok = True
    m = ALL_METRICS["elliptic_R2"]
    for _ in range(100):
        _, c0, c1, sol = solved_random_box(m, rng)
        d = np.linalg.norm(m.ambient(c1) - m.ambient(c0))
        ok &= abs(sol["length"] - d) < 1e-8
    m = ALL_METRICS["sphere_conical"]
    for _ in range(100):
        _, c0, c1, sol = solved_random_box(m, rng, max_span=0.3)
        d = geodesic_distance(m.ambient_geometry, m.ambient(c0), m.ambient(c1))
        ok &= abs(sol["length"] - d) < 1e-8
    _verdict(6, "Staeckel geodesic oracles", ok)


def test_criterion_07_staeckel_ivory():
    rng = np.random.default_rng(107)
    ok = True
    for name, m in ALL_METRICS.items():
        max_span = 0.3 if m.n == 3 else 0.4
        for _ in range(50):
            box, _, _, _ = solved_random_box(m, rng, max_span=max_span)
            res = ivory_check(m, box)
            ok &= res["spread"] < 1e-8
            ok &= len(res["lengths"]) == 2 ** (m.n - 1)
    _verdict(7, "Staeckel Ivory", ok)


def test_criterion_08_first_integrals():
    rng = np.random.default_rng(108)
    ok = True
    for name, m in ALL_METRICS.items():
        draws = [(np.array([rng.uniform(lo, hi) for lo, hi in m.box]), rng.normal(size=m.n))
                 for _ in range(1000)]
        q, p = (np.array(v) for v in zip(*draws))
        ok &= bool(np.all(np.abs(poisson_brackets(m, q, p, 1e-5)) < 1e-6))
    m = ALL_METRICS["elliptic_R2"]
    q0 = np.array([2.3, 0.5])
    g = metric_coeffs(m, q0)
    p0 = g * np.array([0.7, 0.4])
    p0 /= np.sqrt(2.0 * hamiltonian(m, q0, p0))
    out = staeckel_billiard_trajectory(m, [(2.0, 3.0), (0.2, 0.8)], q0, p0, 100)
    ok &= out["alpha_drift"] < 1e-9
    _verdict(8, "first integrals", ok)


def test_criterion_09_potentials_quadrature():
    ok = True
    for r in np.linspace(0.05, np.pi / 2 - 0.05, 100):
        oracle, _ = quad(lambda x: 1.0 / np.sin(x) ** 2, r, np.pi / 2,
                         epsabs=1e-13, epsrel=1e-13)
        ok &= abs(point_potential(spherical(3), r) - oracle) < 1e-10
        ok &= abs(oracle - 1.0 / np.tan(r)) < 1e-10
    for r in np.linspace(0.1, 3.0, 100):
        # 1/sinh^2 x written overflow-free for large x
        oracle, _ = quad(lambda x: 4.0 * np.exp(-2.0 * x)
                         / (1.0 - np.exp(-2.0 * x)) ** 2, r, np.inf,
                         epsabs=1e-13, epsrel=1e-13)
        ok &= abs(point_potential(hyperbolic(3), r) - oracle) < 1e-10
        # the improper integral evaluates to coth r - 1
        ok &= abs(oracle - (1.0 / np.tanh(r) - 1.0)) < 1e-10
    for r in (0.3, 0.8, 1.3):
        ok &= antisymmetry_check(spherical(3), r) < 1e-10
        ok &= antisymmetry_check(spherical(2), r) < 1e-10
    for geom in (spherical(2), spherical(3), hyperbolic(2), hyperbolic(3)):
        phi = np.sin if geom.kind.name == "SPHERICAL" else np.sinh
        dphi = np.cos if geom.kind.name == "SPHERICAL" else np.cosh
        for r in (0.4, 0.8, 1.2):
            hstep = 5e-4
            vals = [point_potential_derivative(geom, r + k * hstep)
                    for k in (-2, -1, 1, 2)]
            u2 = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * hstep)
            u1 = point_potential_derivative(geom, r)
            ok &= abs(u2 + (geom.n - 1) * dphi(r) / phi(r) * u1) < 1e-8
    _verdict(9, "radial potentials", ok)


def test_criterion_10_newton_curved_shells():
    # the direction rule of 2048 nodes resolves each field to rounding: the
    # gates are relative to the integral of |integrand|
    c = np.array([1.0, 0.0, 0.0, 0.0])
    shell = GeodesicSphere(spherical(3), c, 0.6)
    x_in = np.cos(0.2) * c + np.sin(0.2) * np.array([0.0, 1.0, 0.0, 0.0])
    x_anti = -(np.cos(0.25) * c + np.sin(0.25) * np.array([0.0, 0.0, 1.0, 0.0]))
    ok = True
    for x in (x_in, x_anti):
        out = field_at(shell, x, 2048)
        ok &= out["norm"] < 1e-13 * out["abs_integral"]
        ok &= out["error"] < 1e-13 * out["abs_integral"]
    shell_h = GeodesicSphere(hyperbolic(3), c, 0.5)
    for D in (1.2, 1.8):
        x = np.cosh(D) * c + np.sinh(D) * np.array([0.0, 1.0, 0.0, 0.0])
        out = field_at(shell_h, x, 2048)
        oracle = 1.0 / np.sinh(D) ** 2
        ok &= abs(out["norm"] - oracle) / oracle < 1e-13
        ok &= out["error"] < 1e-13 * out["abs_integral"]
    _verdict(10, "Newton on curved shells", ok)


def test_criterion_11_ivory_equipotential():
    rng = np.random.default_rng(111)
    ell = CurvedEllipsoid(spherical(3), (3.0, 2.0, 1.5), 1.0)
    lam = -0.4
    f = f_lambda(ell, lam)
    pts = [f * ell.point_from_direction(rng.normal(size=3)) for _ in range(10)]
    # at 8192 nodes the potentials on E_lambda agree to ~1.4e-11 of the
    # integral of |integrand| (1.1e-14 at 16384, at twice the cost); a point
    # 1e-6 off E_lambda moves its potential by ~1.7e-6
    vals = [surface_potential(ell, x, 8192) for x in pts]
    scale = max(v["abs_integral"] for v in vals)
    ok = np.ptp([v["value"] for v in vals]) < 1e-10 * scale
    ok &= max(v["error"] for v in vals) < 1e-10 * scale
    pole = np.array([1.0, 0.0, 0.0, 0.0])
    x_int = np.cos(0.15) * pole + np.sin(0.15) * np.array([0.0, 1.0, 0.0, 0.0])
    fld = field_at(ell, x_int, 512)
    ok &= fld["norm"] < 1e-13 * fld["abs_integral"]
    ok &= fld["error"] < 1e-13 * fld["abs_integral"]

    # deterministic f_lambda identities
    mu = -0.9
    for _ in range(20):
        x = ell.point_from_direction(rng.normal(size=3))
        y = f * x
        ok &= abs(ell.q(y, lam)) < 1e-8
        z = rng.normal(size=4)
        ok &= abs(lam / mu * ell.q(z) + (1.0 - lam / mu) * ell.q(z, mu)
                  - ell.q(f * z, mu)) < 1e-8
        v = rng.normal(size=4)
        ok &= abs(x @ v - y @ (v / f)) < 1e-8

    # exact pullback-ratio constancy via the linear tangent map of f
    def tangent_frame(x, grad):
        basis = []
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1.0
            e -= (e @ x) * x / (x @ x)
            e -= (e @ grad) * grad / (grad @ grad)
            for b in basis:
                e -= (e @ b) * b
            if np.linalg.norm(e) > 1e-6:
                basis.append(e / np.linalg.norm(e))
            if len(basis) == 2:
                break
        return basis

    ratios = []
    for _ in range(10):
        x = ell.point_from_direction(rng.normal(size=3))
        t1, t2 = tangent_frame(x, ell.grad_q(x))
        cols = np.array([f * t1, f * t2])
        G = cols @ cols.T
        area_scale = np.sqrt(np.linalg.det(G))
        ratios.append(area_scale * ell.grad_norm(x)
                      / ell.grad_norm(f * x, lam))
    ok &= max(ratios) - min(ratios) < 1e-8
    _verdict(11, "Ivory equipotential", ok)


def test_criterion_12_arnold():
    rng = np.random.default_rng(112)

    def separated(draw, gap, key=lambda rows: rows, count=1000):
        """The first count of 4 * count sorted draws whose neighbours lie at
        least gap apart (after key)"""
        rows = np.sort(draw(4 * count), axis=1)
        rows = rows[np.min(np.diff(key(rows), axis=1), axis=1) >= gap][:count]
        assert len(rows) == count
        return rows

    def products(first, second):
        """Coefficients, high to low, of prod_k (first_k X - second_k Y),
        one row per row of the factor arrays"""
        b = np.ones((len(first), 1))
        zero = np.zeros((len(first), 1))
        for f, g in zip(first.T, second.T):
            b = f[:, None] * np.hstack([b, zero]) - g[:, None] * np.hstack([zero, b])
        return b

    # Euclidean line: Vieta root sums over 1000 random real-rooted cubics,
    # summed in one stacked call
    roots = separated(lambda k: rng.normal(size=(k, 3)) * 2.0, 0.2)
    cubics = products(np.ones_like(roots), roots)[:, ::-1]
    ok = bool(np.all(np.abs(vieta_segment_sum(cubics, 1e-3 * rng.uniform(size=1000))) < 1e-9))

    # hyperbolic line: quartic products of separated linear forms
    cs = separated(lambda k: rng.uniform(0.2, 5.0, size=(k, 4)), 0.15, key=np.sqrt)
    ok &= bool(np.all(np.abs(curved_segment_sum(products(np.ones_like(cs), cs), 1e-3,
                                                hyperbolic(1))) < 1e-9))

    # spherical line: forms with separated angular roots
    angles = separated(lambda k: rng.uniform(0.1, np.pi - 0.1, size=(k, 4)), 0.15)
    ok &= bool(np.all(np.abs(curved_segment_sum(products(np.sin(angles), np.cos(angles)),
                                                1e-4, spherical(1))) < 1e-9))

    # quartic two-ellipse layer
    def mul2d(c1, c2):
        out = np.zeros((c1.shape[0] + c2.shape[0] - 1,
                        c1.shape[1] + c2.shape[1] - 1))
        for (i, j), v in np.ndenumerate(c1):
            if v:
                out[i:i + c2.shape[0], j:j + c2.shape[1]] += v * c2
        return out

    def ellipse(a2, b2):
        c = np.zeros((3, 3))
        c[2, 0] = 1.0 / a2
        c[0, 2] = 1.0 / b2
        c[0, 0] = -1.0
        return c

    quartic = HyperbolicSurface(mul2d(ellipse(0.25, 0.16), ellipse(1.0, 0.64)),
                                euclidean(2))
    # the sweep of 256 lines sums the layer's field to rounding, relative to
    # the integral of |integrand|, after checking hyperbolicity on each line
    out = arnold_field_check(quartic, 0.05, (0.1, 0.05), 256)
    ok &= out["norm"] < 1e-13 * out["abs_integral"]
    ok &= out["error"] < 1e-13 * out["abs_integral"]

    fermat = np.zeros((5, 5))
    fermat[4, 0] = 1.0
    fermat[0, 4] = 1.0
    fermat[0, 0] = -1.0
    verdict, _, _ = is_hyperbolic_at(HyperbolicSurface(fermat, euclidean(2)), (0.0, 0.0))
    ok &= not verdict
    verdict, _, _ = is_hyperbolic_at(HyperbolicSurface(ellipse(4.0, 1.0), euclidean(2)),
                                     (0.5, 0.3))
    ok &= verdict
    _verdict(12, "Arnold root sums and layers", ok)


def test_criterion_13_cli_determinism(tmp_path):
    grid_cfg = {"a": [4.0, 1.0], "outer_lam": -0.2, "q": 9, "p": 2}
    arnold_cfg = {"coeffs": [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                             [1.0, 0.0, 0.0]],
                  "eps": 0.05, "point": [0.1, 0.0], "N": 2000, "seed": 11}
    ok = True
    for name, command, cfg, files in (
            ("grid", "poncelet-grid", grid_cfg,
             ("grid_points.csv", "grid.svg", "report.json")),
            ("arnold", "arnold-check", arnold_cfg,
             ("field.csv", "report.json"))):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        for run_dir in ("r1", "r2"):
            code = main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / name / run_dir)])
            ok &= code == 0
        for fname in files:
            b1 = (tmp_path / name / "r1" / fname).read_bytes()
            b2 = (tmp_path / name / "r2" / fname).read_bytes()
            ok &= b1 == b2
    _verdict(13, "CLI determinism", ok)
