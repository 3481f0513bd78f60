"""Tests for separable metrics: coefficients, geodesics, Ivory, billiards."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

import confocal.staeckel as staeckel

from confocal.errors import (
    InvalidParameters,
    NoMonotoneDiagonal,
    SingularStaeckelMatrix,
    SolverDiverged,
)
from confocal.geometry import euclidean, geodesic_distance, jacobi_denominators, jacobi_squares
from confocal.quadrics import ConfocalFamily, confocal_parameters
from confocal.staeckel import (
    LiouvilleMetric,
    StaeckelMetric,
    _inverse,
    _turning_points,
    builtin_metric,
    geodesic_between,
    hamiltonian,
    induced_metric_on_face,
    integrals_alpha,
    ivory_check,
    metric_coeffs,
    momentum,
    staeckel_billiard_trajectory,
)

ALL_NAMES = ["elliptic_R2", "ellipsoidal_R3", "spheroconical_R3",
             "ellipsoid_intrinsic", "sphere_conical"]


def _metric(name):
    if name == "sphere_conical":
        return builtin_metric(name, (0.8, 0.5, 0.2))
    if name == "elliptic_R2":
        return builtin_metric(name, (4.0, 1.0))
    return builtin_metric(name, (4.0, 2.0, 1.0))


def _hamilton_field(metric, q, p):
    """(dq/dt, dp/dt) = (dH/dp, -dH/dq), both through one M^{-1}: the
    field the box billiard integrated with DOP853 before it flew on the
    separated quadratures, kept here as the oracle."""
    M, dM = metric._entries(q[:, None]), metric._entries(q[:, None], deriv=True)
    Minv = _inverse(M, q)
    alpha = 0.5 * (Minv @ (p * p))
    return Minv[0] * p, Minv[0] * (dM @ alpha)


def _random_q(metric, rng):
    return np.array([rng.uniform(lo, hi) for lo, hi in metric.box])


def _solved_random_box(metric, rng, max_span=0.4, max_tries=50):
    """A random sub-box whose main diagonal admits a monotone geodesic,
    together with the solved diagonal (boxes violating the monotonicity
    precondition are rejected)."""
    for _ in range(max_tries):
        box = metric.random_box(rng, max_span=max_span)
        c0 = np.array([b[0] for b in box])
        c1 = np.array([b[1] for b in box])
        try:
            return box, c0, c1, geodesic_between(metric, c0, c1)
        except (NoMonotoneDiagonal, SolverDiverged):
            continue
    raise AssertionError("no admissible random box found")


# each closed-form test runs at three scales s, with the parameters and
# the point multiplied by s: the coefficients scale, the singularity test
# must not
SCALES = (1.0, 1e3, 1e5)


def test_metric_coeffs_elliptic_closed_form():
    for s in SCALES:
        a, b = 4.0 * s, 1.0 * s
        m = builtin_metric("elliptic_R2", (a, b))
        lam, mu = 2.5 * s, 0.3 * s
        g = metric_coeffs(m, (lam, mu))
        expect = [(lam - mu) / (4.0 * (a - lam) * (lam - b)),
                  (lam - mu) / (4.0 * (a - mu) * (b - mu))]
        for gi, ei in zip(g, expect):
            assert abs(gi - ei) < 1e-13 * abs(ei), s


def test_metric_coeffs_ellipsoidal_closed_form():
    for s in SCALES:
        a, b, c = 4.0 * s, 2.0 * s, 1.0 * s
        m = builtin_metric("ellipsoidal_R3", (a, b, c))
        lam, mu, nu = 3.1 * s, 1.4 * s, 0.6 * s

        def h(t):
            return 4.0 * (a - t) * (b - t) * (c - t)

        g = metric_coeffs(m, (lam, mu, nu))
        expect = [(lam - mu) * (lam - nu) / h(lam), -(lam - mu) * (mu - nu) / h(mu),
                  (lam - nu) * (mu - nu) / h(nu)]
        for gi, ei in zip(g, expect):
            assert abs(gi - ei) < 1e-12 * abs(ei), s


def test_liouville_unit_v():
    one = ([1.0], [1.0])
    u1 = ([1.0, 0.0, 0.0], [1.0])
    u2 = ([-1.0, 0.0, 0.0], [1.0])
    m = LiouvilleMetric(u1, u2, one, one, [(1.0, 2.0), (0.1, 0.9)]).to_staeckel()
    q = (1.5, 0.4)
    uu = q[0] ** 2 + q[1] ** 2
    g = metric_coeffs(m, q)
    assert np.allclose(g, uu)
    p = (0.3, -0.7)
    assert abs(hamiltonian(m, q, p) - 0.5 * (p[0] ** 2 + p[1] ** 2) / uu) < 1e-14
    al = integrals_alpha(m, q, p)
    # the classical Liouville integral (u2 p1^2 + u1 p2^2)/(2(u1 - u2));
    # alpha_2 = (1/2) M^{-1} p^2 recovers it with the opposite sign
    expect = 0.5 * (-q[1] ** 2 * p[0] ** 2 + q[0] ** 2 * p[1] ** 2) / uu
    assert abs(al[1] + expect) < 1e-14


def test_hamiltonian_two_formulas():
    rng = np.random.default_rng(2)
    for name in ALL_NAMES:
        m = _metric(name)
        for _ in range(20):
            q = _random_q(m, rng)
            p = rng.normal(size=m.n)
            assert hamiltonian(m, q, np.zeros(m.n)) == 0.0
            g = metric_coeffs(m, q)
            assert np.all(g > 0)
            assert abs(hamiltonian(m, q, p) - 0.5 * np.sum(p * p / g)) < 1e-12
            al = integrals_alpha(m, q, p)
            assert abs(al[0] - hamiltonian(m, q, p)) < 1e-10


def test_ambient_first_fundamental_form():
    rng = np.random.default_rng(5)
    h = 1e-6
    for name in ALL_NAMES:
        m = _metric(name)
        for _ in range(10):
            q = _random_q(m, rng)
            g = metric_coeffs(m, q)
            for i in range(m.n):
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                dx = (m.ambient(qp) - m.ambient(qm)) / (2.0 * h)
                assert abs(g[i] - dx @ dx) / g[i] < 1e-7


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ambient_solves_the_secular_equation(name):
    """Each ambient point lies on the confocal members its coordinates name.
    elliptic_R2 and ellipsoidal_R3: the elliptic coordinates of ambient(q)
    are q.  The others: sum_j x_j^2 / (D_j - lam) vanishes at each of the
    cones' lam, and is 1 at 0, lam and mu for the ellipsoid (member 0) of
    ellipsoid_intrinsic, whose points are points of E^3."""
    m = _metric(name)
    poles = np.array({"elliptic_R2": (4.0, 1.0),
                      "sphere_conical": (0.8, 0.5, 0.2)}.get(name, (4.0, 2.0, 1.0)))
    rng = np.random.default_rng(23)
    for _ in range(200):
        q = _random_q(m, rng)
        x = m.ambient(q)
        if name in ("elliptic_R2", "ellipsoidal_R3"):
            lam = confocal_parameters(ConfocalFamily(euclidean(m.n), poles), x).lam
            assert np.max(np.abs(np.array(lam) - q)) <= 1e-13 * np.max(np.abs(q))
            continue
        lams, rhs = {"sphere_conical": (q, 0.0), "spheroconical_R3": (q[1:], 0.0),
                     "ellipsoid_intrinsic": (np.r_[0.0, q], 1.0)}[name]
        for lam in lams:
            terms = x * x / (poles - lam)
            assert abs(terms.sum() - rhs) <= 1e-13 * np.abs(terms).sum()
        if name == "sphere_conical":
            assert abs(x @ x - 1.0) <= 1e-13


def test_geodesic_matches_euclidean_oracle():
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    rng = np.random.default_rng(11)
    for _ in range(25):
        _, c0, c1, sol = _solved_random_box(m, rng)
        d = geodesic_distance(m.ambient_geometry, m.ambient(c0), m.ambient(c1))
        assert abs(sol["length"] - d) < 1e-13 * d


def test_geodesic_matches_great_circle_oracle():
    m = builtin_metric("sphere_conical", (0.8, 0.5, 0.2))
    rng = np.random.default_rng(13)
    for _ in range(25):
        _, c0, c1, sol = _solved_random_box(m, rng)
        d = geodesic_distance(m.ambient_geometry, m.ambient(c0), m.ambient(c1))
        assert abs(sol["length"] - d) < 1e-13 * d


def test_geodesic_ellipsoidal_oracle():
    m = builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0))
    rng = np.random.default_rng(17)
    for _ in range(8):
        _, c0, c1, sol = _solved_random_box(m, rng, max_span=0.3)
        d = np.linalg.norm(m.ambient(c0) - m.ambient(c1))
        assert abs(sol["length"] - d) < 1e-13 * d


def test_geodesic_no_monotone_diagonal():
    # the straight chord between the ambient corners, the only geodesic
    # between them, overshoots mu = 0.5 (it reaches 0.507), so no geodesic
    # of the box runs monotonically in both coordinates
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    c0, c1 = np.array([2.0, 0.1]), np.array([3.9, 0.5])
    x0, x1 = m.ambient(c0), m.ambient(c1)
    fam = ConfocalFamily(euclidean(2), (4.0, 1.0))
    mu = [confocal_parameters(fam, x0 + t * (x1 - x0)).lam[1] for t in np.linspace(0, 1, 101)]
    assert max(mu) > 0.505
    with pytest.raises(NoMonotoneDiagonal):
        geodesic_between(m, c0, c1)


def test_geodesic_refuses_a_chord_of_nonpositive_energy():
    # M = [[0, 1], [-1, -1]]: the metric is -(dq_1^2 + dq_2^2), so the
    # chord's momenta at the box midpoint have energy H < 0
    m = LiouvilleMetric(([0.0], [1.0]), ([1.0], [1.0]), ([1.0], [1.0]), ([1.0], [1.0]),
                        [(0.0, 1.0), (0.0, 1.0)]).to_staeckel()
    with pytest.raises(SolverDiverged, match="chord guess has nonpositive energy"):
        geodesic_between(m, [0.2, 0.3], [0.7, 0.9])


def test_geodesic_rejection_costs_one_full_step(monkeypatch):
    """A box whose first guess already has h_i < 0 inside a leg is rejected
    as soon as the full Newton step fails to lower the residual, not after
    the line search has halved it 30 times: a rejection costs the leg
    quadratures of the first guess and of at most one full step, each one
    call for every leg at once."""
    calls = [0]
    leg = staeckel._leg_integrals

    def counted(*args):
        calls[0] += 1
        return leg(*args)

    monkeypatch.setattr(staeckel, "_leg_integrals", counted)
    rng = np.random.default_rng(29)
    rejected = 0
    for name in ALL_NAMES:
        m = _metric(name)
        for _ in range(40):
            box = m.random_box(rng, 0.9)
            calls[0] = 0
            try:
                geodesic_between(m, [b[0] for b in box], [b[1] for b in box])
            except NoMonotoneDiagonal:
                rejected += 1
                assert calls[0] <= 2, (name, box, calls[0])
    assert rejected >= 40


# oracle: the leg rule one leg at a time, as the module had it before every
# leg's nodes went into one stack of M


def _leg_integrals_per_leg(metric, i, a, b, alpha):
    smax = np.sqrt(0.5 * (b - a))
    s = 0.5 * smax * (staeckel._GL_NODES + 1.0)
    w = np.tile(smax * s * staeckel._GL_WEIGHTS, 2)
    U = metric.row(i, np.concatenate([a + s * s, b - s * s]))
    h = np.maximum(2.0 * (U @ alpha), staeckel._H_FLOOR)
    f = w / np.sqrt(h)
    return f @ U, -(U.T * (f / h)) @ U


def _per_leg_quadratures(metric, lo, hi, alpha):
    legs = [_leg_integrals_per_leg(metric, i, lo[i], hi[i], alpha) for i in range(metric.n)]
    return sum(Q for Q, _ in legs), sum(J for _, J in legs)


# a turning point of h_i (leg, at its upper end?, outside?, log10 of the
# distance from the end per unit of the leg)
_TURN = st.tuples(st.integers(0, 2), st.booleans(), st.booleans(), st.floats(-9.0, -6.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(k=st.integers(0, len(ALL_NAMES) - 1),
       start=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       span=st.lists(st.floats(0.02, 1.0), min_size=3, max_size=3),
       free=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
       turn=st.none() | _TURN)
def test_stacked_leg_rule_matches_per_leg(k, start, span, free, turn):
    """Q and J on every leg's nodes at once against the per-leg rule, on
    random sub-boxes, with alpha free or with a turning point of some h_i
    within 1e-6 of a leg's end, inside or outside the leg."""
    m = _metric(ALL_NAMES[k])
    width = np.array([f * (hi - lo) for f, (lo, hi) in zip(span, m.box)])
    lo = np.array([lo + f * (hi - lo - d) for f, (lo, hi), d in zip(start, m.box, width)])
    hi = lo + width
    alpha = np.array([0.5] + free)[:m.n]
    if turn is not None:
        i, upper, outside, log_d = turn
        i %= m.n
        d = 10.0 ** log_d * width[i]
        t = hi[i] + (d if outside else -d) if upper else lo[i] + (-d if outside else d)
        u = m.row(i, t)
        j = 1 + int(np.argmax(np.abs(u[1:])))
        size = np.abs(u) @ np.abs(alpha)
        alpha[j] -= (u @ alpha) / u[j]
        assert abs(u @ alpha) <= 1e-12 * size
    w, q = staeckel._leg_rule(lo, hi)
    Q, J = staeckel._leg_integrals(w, m.matrix(q), alpha)
    Q_ref, J_ref = _per_leg_quadratures(m, lo, hi, alpha)
    assert np.max(np.abs(Q - Q_ref)) <= 1e-13 * np.max(np.abs(Q_ref))
    assert np.max(np.abs(J - J_ref)) <= 1e-13 * np.max(np.abs(J_ref))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_geodesic_matches_a_solve_on_the_per_leg_rule(name, monkeypatch):
    """The same Newton solve, run once on every leg's nodes at once and once
    on the per-leg rule, gives the same length and alpha to 1e-13."""
    m = _metric(name)
    rng = np.random.default_rng(31)
    solved = [_solved_random_box(m, rng, max_span=0.45)[1:] for _ in range(12)]
    for c0, c1, sol in solved:
        lo, hi = np.minimum(c0, c1), np.maximum(c0, c1)
        monkeypatch.setattr(staeckel, "_leg_integrals", lambda w, M, alpha, lo=lo, hi=hi:
                            _per_leg_quadratures(m, lo, hi, alpha))
        ref = geodesic_between(m, c0, c1)
        assert abs(sol["length"] - ref["length"]) <= 1e-13 * ref["length"]
        assert np.max(np.abs(sol["alpha"] - ref["alpha"])) <= 1e-13 * np.max(np.abs(ref["alpha"]))


# ---------------------------------------------------------------------------
# the separation solver's Newton loop on Python floats, against the numpy loop
# it replaced, kept here as the oracle


def _numpy_geodesic(metric, c0, c1):
    """geodesic_between with its Newton loop on numpy arrays (one numpy call
    per operation, M evaluated at the nodes and at the scan separately),
    for corners that differ in every coordinate; returns alpha and the
    length, or raises as it did."""
    n = metric.n
    c0, c1 = np.asarray(c0, dtype=float), np.asarray(c1, dtype=float)
    lo, hi = np.minimum(c0, c1), np.maximum(c0, c1)
    qm = 0.5 * (c0 + c1)
    Minv = _inverse(metric.matrix(qm), qm)
    alpha = 0.5 * Minv.dot((1.0 / Minv[0] * (c1 - c0)) ** 2)
    if alpha[0] <= 0:
        raise SolverDiverged("chord guess has nonpositive energy")
    alpha = np.concatenate([[0.5], alpha[1:] * (0.5 / alpha[0])])
    smax = np.sqrt(0.5 * (hi - lo))
    s = 0.5 * smax * (staeckel._GL_NODES[:, None] + 1.0)
    w = np.tile(smax * s * staeckel._GL_WEIGHTS[:, None], (2, 1)).ravel()
    U = metric.matrix(np.concatenate([lo + s * s, hi - s * s])).reshape(-1, n)
    M_scan = metric.matrix(np.linspace(lo, hi, 64))

    def leg_integrals(alpha):
        h = np.maximum(2.0 * (U @ alpha), staeckel._H_FLOOR)
        f = w / np.sqrt(h)
        return f @ U, -(U.T * (f / h)) @ U

    def fail(why=None):
        if np.min(M_scan @ alpha) < 0.0:
            raise NoMonotoneDiagonal("no monotone diagonal: h_i turns negative inside a leg")
        if why:
            raise SolverDiverged(why)

    Q, J = leg_integrals(alpha)
    step = np.zeros(n)
    for _ in range(60):
        try:
            step[1:] = np.dot(staeckel._cofactor_inverse(J[1:, 1:].tolist()), -Q[1:])
        except ZeroDivisionError as exc:
            raise SolverDiverged("singular quadrature Jacobian") from exc
        if not np.all(np.isfinite(step)):
            break
        for lam in 0.5 ** np.arange(30):
            an = alpha + lam * step
            if np.array_equal(an, alpha):
                break
            Qn, Jn = leg_integrals(an)
            if np.linalg.norm(Qn[1:]) < np.linalg.norm(Q[1:]):
                break
            if lam == 1.0:
                fail()
        else:
            fail("line search failed in separation solver")
        if np.array_equal(an, alpha):
            break
        alpha, Q, J = an, Qn, Jn
    resid = float(np.max(np.abs(Q[1:]), initial=0.0))
    if resid > 1e-9:
        fail(f"separation residual {resid} > 1e-09")
    h = 2.0 * (M_scan @ alpha)
    if np.min(h) < -1e-12:
        raise NoMonotoneDiagonal(f"h_{np.argmin(np.min(h, axis=0))} vanishes inside the leg")
    for k, i in np.argwhere(np.abs(h[[0, -1]]) < 1e-12):
        end = (lo, hi)[k][i]
        if abs(2.0 * (metric.row_deriv(i, end) @ alpha)) < 1e-10:
            raise NoMonotoneDiagonal(f"h_{i} has a double root at the endpoint {end}")
    return alpha, float(abs(Q[0]))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_float_newton_matches_the_numpy_newton(name):
    """800 random boxes per builtin, 200 at each max_span: each is solved or
    refused as by the numpy loop, with the same exception type; the length
    and alpha agree to 1e-13 relative."""
    m = _metric(name)
    rng = np.random.default_rng([50, ALL_NAMES.index(name)])
    solved = 0
    for span in (0.1, 0.3, 0.6, 0.9):
        for _ in range(200):
            box = m.random_box(rng, span)
            c0, c1 = [b[0] for b in box], [b[1] for b in box]
            try:
                ref = _numpy_geodesic(m, c0, c1)
            except (NoMonotoneDiagonal, SolverDiverged) as exc:
                with pytest.raises(type(exc)):
                    geodesic_between(m, c0, c1)
                continue
            sol = geodesic_between(m, c0, c1)
            solved += 1
            assert abs(sol["length"] - ref[1]) <= 1e-13 * ref[1], box
            assert np.max(np.abs(sol["alpha"] - ref[0])) <= 1e-13 * np.max(np.abs(ref[0])), box
    assert solved >= 200


# a Stackel metric of dimension 4, rows (t^3, t^2, t, 1) / 4 prod(a - t):
# its inverse takes the LAPACK path
_POLES4 = (5.0, 4.0, 2.0, 1.0)
METRIC4 = StaeckelMetric(4, [(np.eye(4), -4.0 * np.poly(_POLES4))] * 4,
                         [(4.1, 4.9), (2.1, 3.9), (1.1, 1.9), (0.1, 0.9)], name="vandermonde4")


@pytest.mark.parametrize("m", [_metric(name) for name in ALL_NAMES] + [
    induced_metric_on_face(builtin_metric("elliptic_R2", (4.0, 1.0)), 0, 2.5), METRIC4],
    ids=ALL_NAMES + ["face_n1", "vandermonde_n4"])
def test_single_point_alpha_matches_the_array_formula(m):
    """One point's alpha and H, float sums over the kept M^{-1}, against
    (1/2) M^{-1} p^2 by numpy on the same M^{-1}: within 4 eps of the sum
    of the terms' magnitudes; g is bitwise 1 / (M^{-1})_0i."""
    rng = np.random.default_rng(51)
    eps = np.finfo(float).eps
    for _ in range(2000):
        q, p = _random_q(m, rng), rng.normal(size=m.n)
        Minv = _inverse(m.matrix(q), q)
        ref, size = 0.5 * Minv.dot(p * p), 0.5 * np.abs(Minv).dot(p * p)
        alpha = integrals_alpha(m, q, p)
        assert np.all(np.abs(alpha - ref) <= 4.0 * eps * size)
        assert abs(hamiltonian(m, q, p) - ref[0]) <= 4.0 * eps * size[0]
        assert np.array_equal(metric_coeffs(m, q), 1.0 / Minv[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_geodesic_refuses_a_non_finite_corner(bad):
    # refused as the corner it is, before any M is evaluated (once blamed
    # on a singular M at the midpoint)
    m = _metric("elliptic_R2")
    for c0, c1, which in (([2.2, bad], [2.9, 0.8], "corner0"),
                          ([2.2, 0.4], [bad, 0.8], "corner1"),
                          ([bad, 0.4], [bad, 0.4], "corner0")):
        with pytest.raises(InvalidParameters, match=f"{which} has a non-finite coordinate"):
            geodesic_between(m, c0, c1)
    with pytest.raises(InvalidParameters, match="corner1 has a non-finite coordinate"):
        ivory_check(m, [(2.2, 2.9), (0.4, bad)])


@pytest.mark.parametrize("box", [[[2.2, 2.9, 3.0], (0.4, 0.8)], [(2.2, 2.9)],
                                 [(2.2, 2.9), (0.4, 0.8), (0.1, 0.2)], [(2.2,), (0.4, 0.8)],
                                 [2.2, (0.4, 0.8)]])
def test_ivory_check_refuses_a_malformed_box(box):
    with pytest.raises(InvalidParameters, match=r"box needs 2 pairs \(lo, hi\)"):
        ivory_check(_metric("elliptic_R2"), box)


# refusals of the separation solver that no real box reaches in the tests:
# _leg_integrals is replaced by Q and J given as functions of alpha


def _patched_legs(monkeypatch, Q, J):
    calls = []

    def legs(w, M, alpha):
        calls.append(1)
        return np.array(Q(alpha), dtype=float), np.array(J(alpha), dtype=float)

    monkeypatch.setattr(staeckel, "_leg_integrals", legs)
    return calls


SOLVED_BOXES = [("elliptic_R2", [2.2, 0.4], [2.9, 0.8]),
                ("ellipsoidal_R3", [2.5, 1.3, 0.2], [2.9, 1.6, 0.5])]


@pytest.mark.parametrize("name, c0, c1", SOLVED_BOXES, ids=["n2", "n3"])
def test_geodesic_refuses_a_singular_quadrature_jacobian(name, c0, c1, monkeypatch):
    m = _metric(name)
    _patched_legs(monkeypatch, lambda a: np.ones(m.n), lambda a: np.zeros((m.n, m.n)))
    with pytest.raises(SolverDiverged, match="^singular quadrature Jacobian$"):
        geodesic_between(m, c0, c1)


def test_geodesic_stops_at_a_non_finite_step(monkeypatch):
    # J_11 = 1e-310 makes the step -inf: the loop stops before a line search
    # and the residual, still 1, fails the gate
    m = _metric("elliptic_R2")
    calls = _patched_legs(monkeypatch, lambda a: [1.0, 1.0], lambda a: [[1.0, 0.0], [0.0, 1e-310]])
    with pytest.raises(SolverDiverged, match=r"^separation residual 1\.0 > 1e-09$"):
        geodesic_between(m, [2.2, 0.4], [2.9, 0.8])
    assert len(calls) == 1


def test_geodesic_refuses_when_the_line_search_fails(monkeypatch):
    # a residual that no step lowers: the full step and 29 halvings
    m = _metric("elliptic_R2")
    calls = _patched_legs(monkeypatch, lambda a: [1.0, 1.0], lambda a: np.eye(2))
    with pytest.raises(SolverDiverged, match="^line search failed in separation solver$"):
        geodesic_between(m, [2.2, 0.4], [2.9, 0.8])
    assert len(calls) == 31


def test_geodesic_residual_gate(monkeypatch):
    m = _metric("elliptic_R2")
    c0, c1 = [2.2, 0.4], [2.9, 0.8]
    # a step too small to move alpha, the residual left at 1e-6
    _patched_legs(monkeypatch, lambda a: [1.0, 1e-6], lambda a: [[1.0, 0.0], [0.0, 1e30]])
    with pytest.raises(SolverDiverged, match=r"^separation residual 1e-06 > 1e-09$"):
        geodesic_between(m, c0, c1)
    # steps of a thousandth of Newton's, each taken in full: after the 60
    # allowed the residual is still 0.999^60 of the first
    resid = []
    calls = _patched_legs(monkeypatch, lambda a: resid.append(a[1] - 1.0) or [1.0, resid[-1]],
                          lambda a: [[1.0, 0.0], [0.0, 1e3]])
    with pytest.raises(SolverDiverged, match=r"^separation residual [0-9.]+ > 1e-09$") as err:
        geodesic_between(m, c0, c1)
    assert len(calls) == 61 and str(err.value).split()[2] == str(abs(resid[-1]))
    assert abs(resid[-1]) == pytest.approx(0.999 ** 60 * abs(resid[0]), rel=1e-12)


# M = [[1, -1], [2 t^2 - 1/2, 1]]: at alpha = (1/2, a), h_0 = 1 - 2a and
# h_1(t) = 2 t^2 - 1/2 + 2a, whose double root at t = 0 is the corner q_1 = 0
# when a = 1/4; a Newton that converges to a = alpha_1 in two steps
_DOUBLE_ROOT = StaeckelMetric(2, [([[1.0], [-1.0]], [1.0]), ([[2.0, 0.0, -0.5], [1.0]], [1.0])],
                              [(0.0, 1.0), (0.0, 1.0)])


@pytest.mark.parametrize("a, message", [
    (0.2, "^h_1 vanishes inside the leg$"),
    (0.25, r"^h_1 has a double root at the endpoint 0\.0$"),
])
def test_geodesic_refuses_h_negative_or_a_double_root(a, message, monkeypatch):
    _patched_legs(monkeypatch, lambda al: [1.0, al[1] - a], lambda al: np.eye(2))
    with pytest.raises(NoMonotoneDiagonal, match=message):
        geodesic_between(_DOUBLE_ROOT, [0.2, 0.0], [0.8, 0.5])


def test_geodesic_degenerate():
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    sol = geodesic_between(m, (2.5, 0.4), (2.5, 0.4))
    assert sol["length"] == 0.0
    with pytest.raises(InvalidParameters):
        geodesic_between(m, (2.5, 0.4), (2.5, 0.6))


@pytest.mark.parametrize("name, corner, size", [
    ("spheroconical_R3", (1.7, 3.0, 1.5), (1.5e-5, 2e-5, 1e-5)),
    ("elliptic_R2", (2.5, 0.5), (4e-6, 4e-6)),
], ids=["spheroconical_R3", "elliptic_R2"])
def test_tiny_boxes_have_their_length(name, corner, size):
    # corners that np.allclose takes as equal (rtol 1e-5) but that differ:
    # the diagonal is solved and its length is the chord; only equal
    # corners give length 0
    m = _metric(name)
    c0 = np.array(corner)
    c1 = c0 + size
    chord = geodesic_distance(m.ambient_geometry, m.ambient(c0), m.ambient(c1))
    sol = geodesic_between(m, c0, c1)
    assert sol["alpha"] is not None
    assert abs(sol["length"] - chord) < 1e-9 * chord
    assert ivory_check(m, list(zip(c0, c1)))["lengths"] == [sol["length"]] * 2 ** (m.n - 1)
    assert geodesic_between(m, c0, c0.copy())["length"] == 0.0


def test_ivory_all_builtins():
    for name in ALL_NAMES:
        m = _metric(name)
        rng = np.random.default_rng(23)
        for _ in range(5):
            box, _, _, _ = _solved_random_box(m, rng, max_span=0.35)
            rep = ivory_check(m, box)
            assert rep["spread"] < 1e-8, name
            assert len(rep["lengths"]) == 2 ** (m.n - 1)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_billiard_from_corner_hits_the_far_corner(name):
    """The solved alpha is the diagonal's to rounding: a billiard flown from
    c0 with the solved momentum meets c1 exactly, as one corner, at t =
    length."""
    m = _metric(name)
    rng = np.random.default_rng(29)
    flown = 0
    for _ in range(40):
        box = m.random_box(rng, max_span=0.35)
        c0 = np.array([lo for lo, _ in box])
        c1 = np.array([hi for _, hi in box])
        try:
            sol = geodesic_between(m, c0, c1)
        except (NoMonotoneDiagonal, SolverDiverged):
            continue
        out = staeckel_billiard_trajectory(m, box, c0, momentum(m, sol["alpha"], sol["signs"], c0), 1)
        t, q, _ = out["states"][1]
        assert out["corner_hits"] == 1, (name, box)
        assert np.array_equal(q, c1), (name, q - c1)
        assert abs(t - sol["length"]) < 1e-10
        flown += 1
    assert flown >= 20


def _flown_diagonals(m, rep, box):
    """Each great diagonal of the box flown from its first corner with the
    reported alpha for the reported length: (end point, far corner) pairs.
    alpha_0 = 1/2 is H, so the geodesic has unit speed and time = length."""
    n = m.n

    def rhs(t, y):
        return np.concatenate(_hamilton_field(m, y[:n], y[n:]))

    out = []
    for k, bits in enumerate(np.ndindex(*(2,) * (n - 1))):
        eps = (0,) + bits
        c0 = np.array([box[i][eps[i]] for i in range(n)])
        c1 = np.array([box[i][1 - eps[i]] for i in range(n)])
        p0 = momentum(m, rep["alphas"][k], np.sign(c1 - c0), c0)
        sol = solve_ivp(rhs, (0.0, rep["lengths"][k]), np.concatenate([c0, p0]),
                        method="DOP853", rtol=1e-12, atol=1e-12)
        out.append((sol.y[:n, -1], c1))
    return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ivory_diagonals_by_integration(name):
    # independent of the separated quadratures: every great diagonal, with
    # its own sign pattern, reaches its far corner after the common length
    m = _metric(name)
    rng = np.random.default_rng(29)
    for _ in range(2):
        box, _, _, _ = _solved_random_box(m, rng, max_span=0.35)
        rep = ivory_check(m, box)
        span = np.array([hi - lo for lo, hi in box])
        for end, c1 in _flown_diagonals(m, rep, box):
            assert np.all(np.abs(end - c1) <= 1e-9 * span), (name, end - c1)


def test_surface_of_revolution_symmetry():
    # u2 constant: the metric is invariant under q2 translation, so the two
    # diagonals of any box are congruent.  The surface (cosh t + 1)(dt^2 +
    # dq2^2) is written in s = e^t: u1 = (s^2 + 1)/(2 s), v1 = 1/s^2
    one = ([1.0], [1.0])
    u1 = ([1.0, 0.0, 1.0], [2.0, 0.0])
    v1 = ([1.0], [1.0, 0.0, 0.0])
    u2 = ([-1.0], [1.0])
    m = LiouvilleMetric(u1, u2, v1, one, [(1.0, np.exp(2.0)), (-1.0, 1.0)]).to_staeckel()
    rep = ivory_check(m, [(np.exp(0.3), np.exp(1.1)), (-0.5, 0.4)])
    assert rep["spread"] < 1e-10
    # the diagonal length in the coordinate t, with u1 = cosh t
    for length in rep["lengths"]:
        assert abs(length - 1.8186786765705738) < 1e-10


def poisson_brackets(m, q, p, h):
    """{H, alpha_k} for k = 1..n-1 at each row of the stacks q, p[N, n], by
    central differences of step h in every q_i and p_i: the 4n shifted
    points of every row go through one stacked call of hamiltonian and one
    of integrals_alpha.  Returns an (N, n-1) array."""
    n = m.n
    shift = h * np.eye(n)
    q, p = q[:, None, :], p[:, None, :]
    still_q, still_p = np.repeat(q, 2 * n, axis=1), np.repeat(p, 2 * n, axis=1)
    qs = np.concatenate([q + shift, q - shift, still_q], axis=1)
    ps = np.concatenate([still_p, p + shift, p - shift], axis=1)

    def grad(f):
        return ((f[:, :n] - f[:, n:2 * n]) / (2.0 * h),
                (f[:, 2 * n:3 * n] - f[:, 3 * n:]) / (2.0 * h))

    Hq, Hp = grad(hamiltonian(m, qs, ps))
    alpha = integrals_alpha(m, qs, ps)
    brackets = []
    for k in range(1, n):
        Aq, Ap = grad(alpha[..., k])
        brackets.append(np.sum(Hq * Ap - Hp * Aq, axis=1))
    return np.stack(brackets, axis=1)


def test_poisson_bracket_fd():
    rng = np.random.default_rng(29)
    for name in ALL_NAMES:
        m = _metric(name)
        draws = [(_random_q(m, rng), rng.normal(size=m.n)) for _ in range(30)]
        q, p = (np.array(v) for v in zip(*draws))
        assert np.all(np.abs(poisson_brackets(m, q, p, 1e-5)) < 1e-6)


def test_stacked_calls_match_single_points():
    """matrix, _inverse, metric_coeffs, row and row_deriv at one point are
    bitwise the stacked calls (one point takes the stacked steps on Python
    floats); integrals_alpha, hamiltonian and the momentum agree with them."""
    rng = np.random.default_rng(30)
    for m in ORACLE_METRICS:
        q = np.array([_random_q(m, rng) for _ in range(40)]).reshape(4, 10, m.n)
        p = rng.normal(size=q.shape)
        alpha, signs = integrals_alpha(m, q[0, 0], p[0, 0]), np.sign(p[0, 0])
        M = m.matrix(q)
        for fn, stacked in ((m.matrix, M),
                            (lambda x: _inverse(m.matrix(x), x), _inverse(M, q)),
                            (lambda x: metric_coeffs(m, x), metric_coeffs(m, q))):
            single = np.array([fn(x) for x in q.reshape(-1, m.n)])
            assert np.array_equal(stacked.reshape(single.shape), single)
        # p_i^2 = h_i sums terms that cancel: compare the squares, absolutely
        single = np.array([momentum(m, alpha, signs, x) for x in q.reshape(-1, m.n)])
        assert np.allclose(momentum(m, alpha, signs, q).reshape(single.shape) ** 2, single ** 2,
                           rtol=0.0, atol=1e-12)
        single = np.array([integrals_alpha(m, x, y)
                           for x, y in zip(q.reshape(-1, m.n), p.reshape(-1, m.n))])
        stacked = integrals_alpha(m, q, p)
        assert np.allclose(stacked.reshape(single.shape), single, rtol=1e-13, atol=1e-15)
        assert np.array_equal(hamiltonian(m, q, p), stacked[..., 0])
        assert isinstance(hamiltonian(m, q[0, 0], p[0, 0]), float)
        # one row at one q_i, a Python float or a numpy scalar, and its
        # derivative are bitwise the rows over an array
        for i in range(m.n):
            t = q[..., i].ravel()
            for fn in (m.row, m.row_deriv):
                assert np.array_equal(np.array([fn(i, x) for x in t.tolist()]), fn(i, t))
                assert np.array_equal(np.array([fn(i, x) for x in t]), fn(i, t))
    # M = [[q_0, 1], [q_1, 1]] is singular on the diagonal q_0 = q_1 only
    row = ([[1.0, 0.0], [1.0]], [1.0])
    m = StaeckelMetric(2, [row, row], [(0.0, 1.0), (0.0, 1.0)])
    q = np.array([[0.2, 0.7], [0.5, 0.5], [0.9, 0.1]])
    with pytest.raises(SingularStaeckelMatrix, match=r"\[0\.5 0\.5\]"):
        integrals_alpha(m, q, np.ones_like(q))
    with pytest.raises(SingularStaeckelMatrix, match=r"\[0\.5 0\.5\]"):
        integrals_alpha(m, q[1], np.ones(2))


@pytest.mark.parametrize("gap, refused", [(0.0, True), (2.2e-16, True), (1e-15, False)])
def test_point_and_stack_refuse_alike(gap, refused):
    # near q_0 = q_1 = 0.5 the scaled 1-norm condition number is about
    # 2 / (q_1 - q_0) on M = [[q_0, 1], [q_1, 1]], 9e15 then 2e15, and
    # 3 / (q_1 - q_0) on the 3 x 3 Vandermonde M, rows (q_i^2, q_i, 1), at
    # q_2 = 0, 1.4e16 then 3e15: either side of 1/eps = 4.5e15
    two = ([[1.0, 0.0], [1.0]], [1.0])
    three = ([[1.0, 0.0, 0.0], [1.0, 0.0], [1.0]], [1.0])
    for row, q in ((two, np.array([0.5, 0.5 + gap])), (three, np.array([0.5, 0.5 + gap, 0.0]))):
        n = len(q)
        m = StaeckelMetric(n, [row] * n, [(0.0, 1.0)] * n)
        for x in (q, q[None], np.array([[0.2, 0.7, 0.4][:n], q])):
            if refused:
                with pytest.raises(SingularStaeckelMatrix, match=r"\[0\.5 0\.5"):
                    metric_coeffs(m, x)
            else:
                assert np.array_equal(metric_coeffs(m, x).reshape(-1, n)[-1], metric_coeffs(m, q))


def test_point_at_a_pole_takes_the_stacked_code():
    # den_0 vanishes at q_0 = a: the point's entries are the stacked +/-inf
    # (numpy warns of the division by zero on both paths, as before)
    m = _metric("elliptic_R2")
    q = np.array([4.0, 0.5])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        single, stacked = m.matrix(q), m.matrix(q[None])[0]
    assert np.isinf(single[0]).all() and np.array_equal(single, stacked)
    with pytest.raises(SingularStaeckelMatrix), pytest.warns(RuntimeWarning):
        metric_coeffs(m, q)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coordinates_are_refused(bad):
    # refused with the typed error on both paths, with no RuntimeWarning
    # (warnings are errors in this suite)
    m = _metric("ellipsoidal_R3")
    q = np.array([2.5, bad, 0.5])
    for x in (q, np.array([[2.5, 1.5, 0.5], q])):
        with pytest.raises(SingularStaeckelMatrix):
            metric_coeffs(m, x)
        with pytest.raises(SingularStaeckelMatrix):
            integrals_alpha(m, x, np.ones_like(x))


# ---------------------------------------------------------------------------
# the single-point memo of M^{-1}: exact, bounded, and never fed a refused q

# each builtin and a face, built anew on every call, so with an empty memo
FRESH = [lambda name=name: _metric(name) for name in ALL_NAMES] + [
    lambda: induced_metric_on_face(builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0)), 2, 0.0)]


def _point_calls(m, q, p):
    return (metric_coeffs(m, q), integrals_alpha(m, q, p), hamiltonian(m, q, p))


def _stencil(m, q, p, h=1e-5):
    """The benchmark's single-point Poisson check: grad H, then grad alpha_k
    for k >= 1, by central differences in every q_i and p_i."""
    def grad(f):
        out = []
        for i in range(m.n):
            d = h * np.eye(m.n)[i]
            out += [f(q + d, p) - f(q - d, p), f(q, p + d) - f(q, p - d)]
        return out
    grad(lambda x, y: hamiltonian(m, x, y))
    for k in range(1, m.n):
        grad(lambda x, y: integrals_alpha(m, x, y)[k])


@pytest.mark.parametrize("fresh", FRESH)
def test_kept_inverse_is_bitwise_a_fresh_one(fresh):
    # a warm metric against one built anew per call, on seeded points, each
    # point visited three times with a new p each time
    rng = np.random.default_rng(47)
    m = fresh()
    qs = [_random_q(m, rng) for _ in range(20)]
    for q in qs * 3:
        p = rng.normal(size=m.n)
        for warm, cold in zip(_point_calls(m, q, p), _point_calls(fresh(), q, p)):
            assert np.array_equal(warm, cold) and type(warm) is type(cold)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stencil_takes_one_inverse_per_position(name, monkeypatch):
    calls = []
    inverse = staeckel._inverse_rows
    monkeypatch.setattr(staeckel, "_inverse_rows", lambda M, q: calls.append(1) or inverse(M, q))
    rng = np.random.default_rng(48)
    m = _metric(name)
    for _ in range(3):
        calls.clear()
        _stencil(m, _random_q(m, rng), rng.normal(size=m.n))
        assert len(calls) == 2 * m.n + 1


def test_refused_points_are_refused_again_and_never_kept():
    row = ([[1.0, 0.0], [1.0]], [1.0])
    singular = StaeckelMetric(2, [row, row], [(0.0, 1.0), (0.0, 1.0)])
    elliptic, ellipsoidal = _metric("elliptic_R2"), _metric("ellipsoidal_R3")
    # each refused q, beside a point the metric keeps
    cases = [(singular, [0.5, 0.5], [0.2, 0.7], None),
             (elliptic, [4.0, 0.5], [2.5, 0.5], RuntimeWarning)]
    cases += [(ellipsoidal, [2.5, bad, 0.5], [2.5, 1.5, 0.5], None)
              for bad in (np.nan, np.inf, -np.inf)]
    for m, q, good, warning in cases:
        q = np.array(q)
        metric_coeffs(m, good)
        kept = dict(m._memo)
        assert len(kept) == 1
        messages = set()
        for fn in (lambda: metric_coeffs(m, q), lambda: integrals_alpha(m, q, np.ones(m.n)),
                   lambda: hamiltonian(m, q, np.ones(m.n))) * 2:
            with pytest.raises(SingularStaeckelMatrix) as err:
                if warning is None:
                    fn()
                else:
                    with pytest.warns(warning):
                        fn()
            messages.add(str(err.value))
        assert len(messages) == 1 and m._memo == kept


def test_memo_is_bounded_first_in_first_out():
    m = _metric("ellipsoidal_R3")
    rng = np.random.default_rng(49)
    qs = [_random_q(m, rng) for _ in range(100)]
    for k, q in enumerate(qs):
        metric_coeffs(m, q)
        assert len(m._memo) == min(k + 1, staeckel._MEMO_SIZE)
    assert staeckel._MEMO_SIZE >= 2 * 3 + 1
    assert list(m._memo) == [q.tobytes() for q in qs[-staeckel._MEMO_SIZE:]]
    # -0.0 and 0.0 are two keys
    m = _metric("elliptic_R2")
    for x in (0.0, -0.0):
        metric_coeffs(m, [2.5, x])
    assert len(m._memo) == 2


def test_returned_arrays_are_new():
    m = _metric("sphere_conical")
    q, p = np.array([0.6, 0.35]), np.array([0.4, -0.9])
    first = _point_calls(m, q, p)
    for out in first[:2]:
        out[:] = 7.0
    # the kept inverses are tuples of row tuples, which nothing can change
    for Minv in m._memo.values():
        assert type(Minv) is tuple and all(type(row) is tuple for row in Minv)
        with pytest.raises(TypeError):
            Minv[0][0] = 7.0
    again, fresh = _point_calls(m, q, p), _point_calls(_metric("sphere_conical"), q, p)
    assert all(np.array_equal(a, b) for a, b in zip(again, fresh))


def test_memo_is_no_field():
    m = _metric("elliptic_R2")
    metric_coeffs(m, [2.5, 0.5])
    assert "_memo" not in {f.name for f in dataclasses.fields(m)} and "_memo" not in repr(m)
    assert dataclasses.replace(m)._memo == {}


@pytest.mark.parametrize("fn", [lambda m, q: m.matrix(q), metric_coeffs,
                                lambda m, q: integrals_alpha(m, q, np.ones(np.shape(q))),
                                lambda m, q: hamiltonian(m, q, np.ones(np.shape(q)))])
@pytest.mark.parametrize("q", [[2.5, 0.5, 0.1], [2.5], 2.5, [[2.5, 0.5, 0.1]] * 2])
def test_wrong_number_of_coordinates_is_refused(fn, q):
    m = _metric("elliptic_R2")
    with pytest.raises(InvalidParameters, match="q needs 2 coordinates"):
        fn(m, q)
    assert m._memo == {}


def test_momenta_of_another_shape_are_refused():
    m = _metric("ellipsoidal_R3")
    q = np.array([2.5, 1.5, 0.5])
    for x, y in ((q, np.ones(2)), (q, np.ones((2, 3))), (np.stack([q, q]), np.ones(3))):
        for fn in (integrals_alpha, hamiltonian):
            with pytest.raises(InvalidParameters, match="p has shape"):
                fn(m, x, y)
    with pytest.raises(InvalidParameters, match="corners need 3 coordinates"):
        geodesic_between(m, [2.2, 1.4], [2.8, 1.6])
    with pytest.raises(InvalidParameters, match="corners need 3 coordinates"):
        geodesic_between(m, [2.2, 1.4, 0.5, 0.1], [2.2, 1.4, 0.5, 0.1])


def test_billiard_alpha_conservation():
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    q0 = np.array([2.3, 0.5])
    g = metric_coeffs(m, q0)
    p0 = g * np.array([0.7, 0.4])
    p0 /= np.sqrt(2.0 * hamiltonian(m, q0, p0))
    out = staeckel_billiard_trajectory(m, [(2.0, 3.0), (0.2, 0.8)], q0, p0, 25)
    assert out["alpha_drift"] < 1e-10
    # separation consistency p_i^2 = h_i(q_i, alpha) at the final state
    al = out["alpha_end"]
    for i in range(2):
        assert abs(out["p"][i] ** 2 - 2.0 * (m.row(i, out["q"][i]) @ al)) < 1e-10
    assert np.all(np.diff(out["bounce_times"]) > 1e-4)


def test_billiard_diagonal_family_period():
    # any orbit sharing the separation constants of a box diagonal is
    # periodic with period twice the diagonal length
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    walls = [(2.2, 2.9), (0.3, 0.7)]
    c0 = np.array([2.2, 0.3])
    c1 = np.array([2.9, 0.7])
    sol = geodesic_between(m, c0, c1)
    for frac in (0.37, 0.61):
        q0 = np.array([lo + frac * (hi - lo) for lo, hi in walls])
        p0 = momentum(m, sol["alpha"], sol["signs"], q0)
        out = staeckel_billiard_trajectory(m, walls, q0, p0, 8)
        # the orbit repeats with period 2 x diagonal length: each bounce
        # recurs one period later at the same phase-space point
        for i in range(4):
            t_a, q_a, p_a = out["states"][1 + i]
            t_b, q_b, p_b = out["states"][5 + i]
            assert abs((t_b - t_a) - 2.0 * sol["length"]) < 1e-7
            assert np.max(np.abs(q_b - q_a)) < 1e-7
            assert np.max(np.abs(p_b - p_a)) < 1e-7


# ---------------------------------------------------------------------------
# box billiard: the separated flow against DOP853 and 30-digit quadrature


def _ode_next_bounce(m, walls, q, p):
    """The next wall hit from (q, p) by DOP853 on Hamilton's equations: the
    time taken and the state there, with the hit momentum flipped.  A wall's
    event fires only on an outward crossing, so a start on a wall moving
    inwards does not trigger it."""
    n = m.n

    def rhs(t, y):
        return np.concatenate(_hamilton_field(m, y[:n], y[n:]))

    events = []
    for i in range(n):
        for side, direction in ((0, -1.0), (1, 1.0)):
            def ev(t, y, i=i, side=side):
                return y[i] - walls[i][side]
            ev.terminal, ev.direction = True, direction
            events.append(ev)
    sol = solve_ivp(rhs, (0.0, 1e3), np.concatenate([q, p]), method="DOP853",
                    events=events, rtol=1e-13, atol=1e-15)
    assert sol.status == 1
    q1, p1 = sol.y[:n, -1], sol.y[n:, -1].copy()
    for k, te in enumerate(sol.t_events):
        if len(te):
            p1[k // 2] = -p1[k // 2]
    return sol.t[-1], q1, p1


def _assert_matches_ode(m, walls, out):
    """Restart DOP853 from each bounce of the flow: the next bounce time and
    state agree to 1e-10 (positions per unit of the box span)."""
    span = np.array([hi - lo for lo, hi in walls])
    for (t0, q0, p0), (t1, q1, p1) in zip(out["states"], out["states"][1:]):
        dt, q, p = _ode_next_bounce(m, walls, q0, p0)
        assert abs(t1 - t0 - dt) < 1e-10, (t1 - t0, dt)
        assert np.all(np.abs(q1 - q) <= 1e-10 * span), (q1, q)
        assert np.all(np.abs(p1 - p) <= 1e-10 * np.max(np.abs(p))), (p1, p)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_billiard_matches_ode_piece_by_piece(name):
    m = _metric(name)
    rng = np.random.default_rng(43)
    for _ in range(2):
        walls = m.random_box(rng, max_span=0.6)
        q0 = np.array([lo + rng.uniform(0.1, 0.9) * (hi - lo) for lo, hi in walls])
        out = staeckel_billiard_trajectory(m, walls, q0, rng.normal(size=m.n), 4)
        assert out["alpha_drift"] < 1e-12
        _assert_matches_ode(m, walls, out)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(k=st.integers(0, len(ALL_NAMES) - 1),
       near=st.sampled_from(["wall", "corner", "turning point"]),
       frac=st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3),
       p=st.lists(st.floats(0.1, 2.0) | st.floats(-2.0, -0.1), min_size=3, max_size=3),
       gap=st.floats(-12.0, -9.0).map(lambda e: 10.0 ** e),
       j=st.integers(0, 2), upper=st.booleans())
def test_billiard_starts_near_walls_corners_and_turning_points(k, near, frac, p, gap,
                                                                j, upper):
    """Starts within 1e-12..1e-9 of the span from a wall or a corner, or
    about 1e-9 of it from a turning point of one coordinate.  Nearer to a
    turning point the first turn is ill-conditioned: a change of alpha by
    one ulp moves the root by ~1e-16, and the time to reach it by about
    1e-16 / sqrt(distance), which DOP853 and the flow each see differently."""
    m = _metric(ALL_NAMES[k])
    n, j = m.n, j % m.n
    walls = [(lo + 0.1 * (hi - lo), hi - 0.2 * (hi - lo)) for lo, hi in m.box]
    span = np.array([hi - lo for lo, hi in walls])
    frac, p = np.array(frac[:n]), np.array(p[:n])
    if near == "wall":
        frac[j] = 1.0 - gap if upper else gap
    if near == "corner":
        frac = np.where(np.arange(n) % 2 == upper, gap, 1.0 - gap)
    q0 = np.array([lo for lo, _ in walls]) + frac * span
    if near == "turning point":
        # p_j^2 = |h_j'| 1e-9 span puts the turning point about 1e-9 span away
        p[j] = 0.0
        dh = 2.0 * m.row_deriv(j, q0[j]) @ integrals_alpha(m, q0, p)
        p[j] = np.sqrt(abs(dh) * 1e-9 * span[j]) * (1.0 if upper else -1.0)
    out = staeckel_billiard_trajectory(m, walls, q0, p, 3)
    assert out["alpha_drift"] < 1e-12
    _assert_matches_ode(m, walls, out)


def _flown_pieces(monkeypatch, m, walls, q0, p0, bounces):
    """Every piece of flight between two events: (alpha, start, end, time)."""
    pieces = []
    flight = staeckel._flight

    def record(metric, alpha, turns, q, s, e):
        x, dt = flight(metric, alpha, turns, q, s, e)
        pieces.append((alpha, q.copy(), x.copy(), dt))
        return x, dt

    monkeypatch.setattr(staeckel, "_flight", record)
    staeckel_billiard_trajectory(m, walls, q0, p0, bounces)
    return pieces


def _mp_abel(m, i, alpha, a, b):
    """Abel integrals of coordinate i between a and b in 30 digits.  An end
    at a turning point is moved to the exact root, and each half of the path
    is substituted, t = c -/+ x^2, about the nearest root at or beyond its
    end (else the end), so that the integrand is smooth in x."""
    with mpmath.workdps(30):
        al = [mpmath.mpf(v) for v in alpha]

        def poly(c, t):
            y = mpmath.mpf(0)
            for ck in c:
                y = y * t + mpmath.mpf(ck)
            return y

        def N(t):
            return sum(al[j] * poly(m.num[i, j], t) for j in range(m.n))

        def f(t, j):
            u = [poly(m.num[i, c], t) / poly(m.den[i, 0], t) for c in range(m.n)]
            return u[j] / mpmath.sqrt(2 * sum(uc * ac for uc, ac in zip(u, al)))

        float_roots = _turning_points(m, i, alpha)[0]
        roots = [mpmath.findroot(N, mpmath.mpf(v)) for v in float_roots]
        lo, hi = (roots[list(float_roots).index(v)] if v in float_roots else mpmath.mpf(v)
                  for v in sorted((a, b)))
        mid = (lo + hi) / 2
        c_lo = max([r for r in roots if r <= lo], default=lo)
        c_hi = min([r for r in roots if r >= hi], default=hi)
        out = []
        for j in range(m.n):
            below = mpmath.quad(lambda x: 2 * x * f(c_lo + x * x, j),
                                [mpmath.sqrt(lo - c_lo), mpmath.sqrt(mid - c_lo)],
                                method="gauss-legendre")
            above = mpmath.quad(lambda x: 2 * x * f(c_hi - x * x, j),
                                [mpmath.sqrt(c_hi - hi), mpmath.sqrt(c_hi - mid)],
                                method="gauss-legendre")
            out.append(below + above)
        return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_billiard_pieces_keep_the_abel_sums(name, monkeypatch):
    """Jacobi: on every piece, sum_i int u_ij / sqrt(h_i) |dq_i| is the time
    for j = 0 and 0 for j >= 1, against 30-digit quadrature."""
    m = _metric(name)
    rng = np.random.default_rng(47)
    walls = m.random_box(rng, max_span=0.6)
    q0 = np.array([lo + rng.uniform(0.1, 0.9) * (hi - lo) for lo, hi in walls])
    pieces = _flown_pieces(monkeypatch, m, walls, q0, rng.normal(size=m.n), 3)
    for alpha, q, x, dt in pieces:
        sums = np.zeros(m.n)
        for i in range(m.n):
            if x[i] != q[i]:
                sums += np.array([float(v) for v in _mp_abel(m, i, alpha, q[i], x[i])])
        sums[0] -= dt
        assert np.max(np.abs(sums)) < 1e-13, (name, sums)


@pytest.mark.parametrize("name, box", [
    ("elliptic_R2", [(2.0, 3.0), (0.2, 0.8)]),
    ("ellipsoidal_R3", [(2.2, 2.6), (1.6, 1.8), (0.6, 0.8)]),
])
def test_billiard_along_ivory_diagonal(name, box):
    """Ivory's diagonal as a billiard orbit: from corner c0 with the solved
    diagonal's momentum the flight reaches the far corner c1 at t = length,
    flips every momentum there, and comes back along the diagonal."""
    m = _metric(name)
    c0 = np.array([lo for lo, _ in box])
    c1 = np.array([hi for _, hi in box])
    sol = geodesic_between(m, c0, c1)
    assert sol["residual"] <= 1e-15
    out = staeckel_billiard_trajectory(m, box, c0, momentum(m, sol["alpha"], sol["signs"], c0), 2)
    assert out["corner_hits"] == 2
    (t1, q1, p1), (t2, q2, p2) = out["states"][1:]
    assert abs(t1 - sol["length"]) < 1e-10 and abs(t2 - 2.0 * sol["length"]) < 1e-10
    assert np.array_equal(q1, c1) and np.array_equal(q2, c0)
    assert np.max(np.abs(p1 - momentum(m, sol["alpha"], -sol["signs"], c1))) < 1e-12
    assert np.max(np.abs(p2 - momentum(m, sol["alpha"], sol["signs"], c0))) < 1e-12


def test_billiard_rejects_bad_starts():
    m = _metric("elliptic_R2")
    walls = [(2.0, 3.0), (0.2, 0.8)]
    with pytest.raises(InvalidParameters):
        staeckel_billiard_trajectory(m, walls, [1.9, 0.5], [0.3, 0.4], 3)
    with pytest.raises(InvalidParameters):
        staeckel_billiard_trajectory(m, walls, [2.5, 0.5], [0.0, 0.0], 3)
    # (2 - x^2 - y^2)(dx^2 + dy^2): from the origin with p = (0.6, 0.8), x
    # turns at +-0.85 and y at +-1.13, both inside walls at +-1.2, so the
    # orbit never meets a wall
    u1 = ([-1.0, 0.0, 1.0], [1.0])
    u2 = ([1.0, 0.0, -1.0], [1.0])
    one = ([1.0], [1.0])
    box = [(-1.2, 1.2), (-1.2, 1.2)]
    conf = LiouvilleMetric(u1, u2, one, one, box).to_staeckel()
    with pytest.raises(InvalidParameters):
        staeckel_billiard_trajectory(conf, box, [0.0, 0.0], [0.6, 0.8], 1)


def test_billiard_refuses_wrong_shapes():
    """Walls, q0 and p0 of the wrong length are named as such, not met by
    numpy's broadcast error or reported as a start outside the walls."""
    m = _metric("elliptic_R2")
    walls, q0, p0 = [(2.0, 3.0), (0.2, 0.8)], [2.5, 0.5], [0.3, 0.4]
    for args in ((walls[:1], q0, p0), (walls + [(0.0, 1.0)], q0, p0), (walls, q0[:1], p0),
                 (walls, q0 + [0.1], p0), (walls, q0, p0[:1]), ([2.0, 3.0], q0, p0)):
        with pytest.raises(InvalidParameters, match="need 2 walls"):
            staeckel_billiard_trajectory(m, *args, 3)


def _partner_oracle(metric, k, a, e, alpha, turns, target, full):
    """The two-coordinate partner solve the flight used before one Newton
    served every n: safeguarded Newton on |x - a| for |Abel integral of
    column 1| = target, narrowing a bisection bracket at every step."""
    lo, hi = 0.0, abs(e - a)
    s = np.sign(e - a)
    d = hi * target / full
    while True:
        x = a + s * d
        A = staeckel._abel(metric, k, a, x, alpha, turns)
        g = abs(A[1]) - target
        if abs(g) <= staeckel._SUM_ROUNDING * full:
            return x, A
        if g > 0:
            hi = d
        else:
            lo = d
        u = metric.row(k, x)
        dn = d - g * np.sqrt(max(2.0 * (u @ alpha), 0.0)) / abs(u[1])
        if dn == d:
            return x, A
        if not lo < dn < hi:
            dn = 0.5 * (lo + hi)
            if not lo < dn < hi:
                return x, A
        d = dn


def _flight_oracle(metric, alpha, turns, q, s, e):
    """The n = 2 flight before one Newton served every n: the coordinate
    with the smaller |F[i, 1]| reaches its endpoint first, both do within
    the rounding of the Abel sums (a corner), and `_partner_oracle` places
    the other."""
    if np.any(q == e):
        return q.copy(), 0.0
    F = np.array([staeckel._abel(metric, i, q[i], e[i], alpha, turns[i]) for i in range(2)])
    i = int(np.argmin(np.abs(F[:, 1])))
    k = 1 - i
    target, full = abs(F[i, 1]), abs(F[k, 1])
    x = e.copy()
    if full - target > staeckel._SUM_ROUNDING * full:
        x[k], F[k] = _partner_oracle(metric, k, q[k], e[k], alpha, turns[k], target, full)
    return x, float(F[:, 0].sum())


def _two_coordinate_metrics():
    """The n = 2 metrics: three builtins and (q1^2 + q2^2)(dq1^2 + dq2^2)."""
    one = ([1.0], [1.0])
    liouville = LiouvilleMetric(([1.0, 0.0, 0.0], [1.0]), ([-1.0, 0.0, 0.0], [1.0]), one, one,
                                [(1.0, 2.0), (0.1, 0.9)]).to_staeckel()
    return [_metric("elliptic_R2"), _metric("sphere_conical"), _metric("ellipsoid_intrinsic"),
            liouville]


def _start_near(m, rng):
    """A start drawn as in test_billiard_starts_near_walls_corners_and_turning_points:
    within 1e-12..1e-9 of the span from a wall or a corner, or about 1e-9 of
    it from a turning point of one coordinate; and its walls."""
    walls = [(lo + 0.1 * (hi - lo), hi - 0.2 * (hi - lo)) for lo, hi in m.box]
    span = np.array([hi - lo for lo, hi in walls])
    near = rng.choice(["wall", "corner", "turning point"])
    frac, p = rng.uniform(0.05, 0.95, 2), rng.uniform(0.1, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
    gap, j, upper = 10.0 ** rng.uniform(-12.0, -9.0), rng.integers(2), rng.integers(2)
    if near == "wall":
        frac[j] = 1.0 - gap if upper else gap
    if near == "corner":
        frac = np.where(np.arange(2) % 2 == upper, gap, 1.0 - gap)
    q0 = np.array([lo for lo, _ in walls]) + frac * span
    if near == "turning point":
        p[j] = 0.0
        dh = 2.0 * m.row_deriv(j, q0[j]) @ integrals_alpha(m, q0, p)
        p[j] = np.sqrt(abs(dh) * 1e-9 * span[j]) * (1.0 if upper else -1.0)
    return walls, q0, p


def test_flight_newton_matches_the_partner_solve(monkeypatch):
    """The one Newton of `_pinned` against the n = 2 partner solve it
    replaced, kept above as the oracle, piece by piece on the same inputs.
    Both stop once the Abel sums agree to their rounding bound
    (_SUM_ROUNDING, 320 eps): every end position agrees to twice that per
    unit of the span (at most 320 ulps of it were seen), and, as both
    converge quadratically, at least 95% of them to 4 ulps (98% do; with
    the Newton step scaled by 1 + 1e-6, 73%).  Whole flights from the same
    starts meet the same corners, and their piece and bounce times agree
    to 1e-12 of the flight's time (at most 8e-14 was seen)."""
    rng = np.random.default_rng(59)
    tol = 2.0 * staeckel._SUM_ROUNDING
    flight, ulps = staeckel._flight, []
    for m in _two_coordinate_metrics():
        for _ in range(30):
            walls, q0, p0 = _start_near(m, rng)
            span = np.array([hi - lo for lo, hi in walls])
            pieces = []

            def both(metric, alpha, turns, q, s, e):
                x, dt = flight(metric, alpha, turns, q, s, e)
                pieces.append((x, dt) + _flight_oracle(metric, alpha, turns, q, s, e))
                return x, dt

            monkeypatch.setattr(staeckel, "_flight", both)
            out = staeckel_billiard_trajectory(m, walls, q0, p0, 3)
            monkeypatch.setattr(staeckel, "_flight", _flight_oracle)
            ref = staeckel_billiard_trajectory(m, walls, q0, p0, 3)
            assert out["corner_hits"] == ref["corner_hits"]
            t_tol = 1e-12 * out["time"]
            assert np.allclose(out["bounce_times"], ref["bounce_times"], rtol=0.0, atol=t_tol)
            for x, dt, x_ref, dt_ref in pieces:
                assert np.all(np.abs(x - x_ref) <= tol * span), (x, x_ref)
                assert abs(dt - dt_ref) <= t_tol, (dt, dt_ref)
                ulps.append(np.max(np.abs(x - x_ref) / np.spacing(span)))
    monkeypatch.setattr(staeckel, "_flight", flight)
    assert np.mean(np.array(ulps) <= 4.0) >= 0.95, np.percentile(ulps, [50, 90, 99, 100])


def test_billiard_on_a_segment():
    """n = 1, the face q_1 = 0.5 of elliptic_R2: at unit speed the flight
    bounces between the walls, each crossing taking the segment's length."""
    face = induced_metric_on_face(_metric("elliptic_R2"), 1, 0.5)
    length = geodesic_between(face, (2.2,), (2.9,))["length"]
    p0 = -np.sqrt(metric_coeffs(face, [2.9]))
    out = staeckel_billiard_trajectory(face, [(2.2, 2.9)], [2.9], p0, 4)
    assert np.allclose(out["bounce_times"], length * np.arange(1, 5), rtol=1e-13)


def test_face_restriction_matches_named_metrics():
    m3 = builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0))
    mi = builtin_metric("ellipsoid_intrinsic", (4.0, 2.0, 1.0))
    face = induced_metric_on_face(m3, 2, 0.0)
    msc = builtin_metric("spheroconical_R3", (4.0, 2.0, 1.0))
    msph = builtin_metric("sphere_conical", (4.0, 2.0, 1.0))
    face2 = induced_metric_on_face(msc, 0, 1.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = _random_q(mi, rng)
        assert np.max(np.abs(metric_coeffs(face, q) - metric_coeffs(mi, q))) < 1e-12
        assert np.max(np.abs(metric_coeffs(face2, q) - metric_coeffs(msph, q))) < 1e-12


def test_face_restriction_against_ambient():
    # interior face nu = c of ellipsoidal coordinates: restricted coefficients
    # equal the ambient first fundamental form on the face
    m3 = builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0))
    c = 0.4
    face = induced_metric_on_face(m3, 2, c)
    rng = np.random.default_rng(37)
    h = 1e-6
    for _ in range(10):
        q = _random_q(face, rng)
        g = metric_coeffs(face, q)
        for i in range(2):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            dx = (face.ambient(qp) - face.ambient(qm)) / (2.0 * h)
            assert abs(g[i] - dx @ dx) / g[i] < 1e-7
    # intrinsic Ivory on the face
    rep = ivory_check(face, face.random_box(rng, max_span=0.3))
    assert rep["spread"] < 1e-8
    # extrinsic Ivory: ambient chord lengths of the two diagonals agree
    box = face.random_box(rng, max_span=0.3)
    corners = {(e1, e2): face.ambient(np.array([box[0][e1], box[1][e2]]))
               for e1 in (0, 1) for e2 in (0, 1)}
    d1 = np.linalg.norm(corners[(0, 0)] - corners[(1, 1)])
    d2 = np.linalg.norm(corners[(0, 1)] - corners[(1, 0)])
    assert abs(d1 - d2) < 1e-10


def test_face_of_elliptic_is_segment_length():
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    face = induced_metric_on_face(m, 1, 0.5)
    assert face.n == 1
    sol = geodesic_between(face, (2.2,), (2.8,))
    arc, _ = quad(lambda t: np.sqrt(metric_coeffs(face, [t])[0]), 2.2, 2.8,
                  epsabs=1e-12)
    assert abs(sol["length"] - arc) < 1e-9


def test_singular_matrix_raises():
    row = ([[1.0], [2.0]], [1.0])
    m = StaeckelMetric(2, [row, row], [(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(SingularStaeckelMatrix):
        metric_coeffs(m, (0.5, 0.5))


def test_builtin_validation():
    with pytest.raises(InvalidParameters):
        builtin_metric("no_such_metric", (1.0,))
    with pytest.raises(InvalidParameters):
        builtin_metric("elliptic_R2", (1.0, 4.0))
    with pytest.raises(InvalidParameters):
        builtin_metric("ellipsoidal_R3", (4.0, 1.0, 2.0))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtin_wrong_number_of_params(name):
    params, k = ((4.0, 2.0, 1.0), 2) if name == "elliptic_R2" else ((4.0, 2.0), 3)
    with pytest.raises(InvalidParameters, match=f"{name} takes {k} params, got {len(params)}"):
        builtin_metric(name, params)


# ---------------------------------------------------------------------------
# oracle: the cofactor formulas, g_i = (-1)^i det M / det M_i0 and dH/dq from
# the derivative of det M row by row, which the module used before it went
# through M^{-1}


def _minor_det(M, i, j):
    sub = np.delete(np.delete(M, i, axis=0), j, axis=1)
    if sub.size == 0:
        return 1.0
    return float(np.linalg.det(sub))


def _cofactor_metric_coeffs(metric, q):
    M = metric.matrix(q)
    det = float(np.linalg.det(M))
    return np.array([(-1.0) ** i * det / _minor_det(M, i, 0)
                     for i in range(metric.n)])


def _cofactor_dH_dq(metric, q, p):
    n = metric.n
    M = metric.matrix(q)
    det = float(np.linalg.det(M))
    minors = np.array([_minor_det(M, k, 0) for k in range(n)])
    p2 = np.asarray(p) ** 2
    grad = np.empty(n)
    for i in range(n):
        Mi = M.copy()
        Mi[i] = metric.row_deriv(i, q[i])
        ddet = float(np.linalg.det(Mi))
        for_i = np.empty(n)
        for k in range(n):
            if k == i:
                for_i[k] = 0.0
            else:
                sub = np.delete(np.delete(Mi, k, axis=0), 0, axis=1)
                for_i[k] = float(np.linalg.det(sub))
        grad[i] = 0.5 * sum((-1.0) ** k * p2[k]
                            * (for_i[k] * det - minors[k] * ddet) / det ** 2
                            for k in range(n))
    return grad


# the five builtins and the two faces of test_face_restriction_matches_named_metrics
ORACLE_METRICS = [_metric(name) for name in ALL_NAMES] + [
    induced_metric_on_face(builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0)), 2, 0.0),
    induced_metric_on_face(builtin_metric("spheroconical_R3", (4.0, 2.0, 1.0)), 0, 1.0),
]


def _assert_matches_cofactors(m, q, p):
    g = metric_coeffs(m, q)
    g_ref = _cofactor_metric_coeffs(m, q)
    assert np.max(np.abs(g - g_ref) / np.abs(g_ref)) < 1e-12
    dq, dp = _hamilton_field(m, q, p)
    assert np.max(np.abs(dq * g_ref - p)) < 1e-12 * np.max(np.abs(p))
    # dH/dq_i = -(M^-1)_0i u_i' . alpha is a sum whose terms cancel near the
    # walls (both formulas then miss a 40-digit value by up to ~3e-12 of
    # max |dH/dq|), so the force is compared relative to its terms' size
    Minv = np.abs(np.linalg.inv(m.matrix(q)))
    dM = np.array([m.row_deriv(i, q[i]) for i in range(m.n)])
    terms = Minv[0] * (np.abs(dM) @ (0.5 * Minv @ (p * p)))
    assert np.max(np.abs(-dp - _cofactor_dH_dq(m, q, p))) < 1e-12 * np.max(terms)


@pytest.mark.parametrize("m", ORACLE_METRICS, ids=lambda m: m.name)
def test_inverse_identities_match_cofactors(m):
    rng = np.random.default_rng(41)
    for _ in range(100):
        _assert_matches_cofactors(m, _random_q(m, rng), rng.normal(size=m.n))


# a point of the box as fractions of each interval: anywhere, or within
# 1e-6..1e-1 of either wall
_fraction = st.one_of(st.floats(0.0, 1.0),
                      st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e),
                      st.floats(-6.0, -1.0).map(lambda e: 1.0 - 10.0 ** e))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(k=st.integers(0, len(ORACLE_METRICS) - 1),
       frac=st.lists(_fraction, min_size=3, max_size=3),
       p=st.lists(st.floats(0.1, 2.0) | st.floats(-2.0, -0.1), min_size=3, max_size=3))
def test_inverse_identities_near_walls(k, frac, p):
    m = ORACLE_METRICS[k]
    q = np.array([lo + f * (hi - lo) for (lo, hi), f in zip(m.box, frac)])
    _assert_matches_cofactors(m, q, np.array(p[:m.n]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(k=st.integers(0, len(ORACLE_METRICS) - 1),
       frac=st.lists(_fraction, min_size=3, max_size=3))
def test_point_path_is_bitwise_the_stacked_one_near_walls(k, frac):
    m = ORACLE_METRICS[k]
    q = np.array([lo + f * (hi - lo) for (lo, hi), f in zip(m.box, frac)])
    M = m.matrix(q)
    assert np.array_equal(M, m.matrix(q[None])[0])
    assert np.array_equal(_inverse(M, q), _inverse(M[None], q[None])[0])
    assert np.array_equal(metric_coeffs(m, q), metric_coeffs(m, q[None])[0])
    for i in range(m.n):
        for fn in (m.row, m.row_deriv):
            assert np.array_equal(fn(i, q[i]), fn(i, q[i:i + 1])[0])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(k=st.integers(0, len(ORACLE_METRICS) - 1),
       frac=st.lists(_fraction, min_size=3, max_size=3))
def test_inverse_matches_mpmath_near_walls(k, frac):
    # the cofactor M^-1 against a 50-digit inverse X of the same float M,
    # gated at n eps kappa max|X|, kappa the column-scaled 1-norm condition
    # number: the first-order bound of an inverse's rounding, scaled by the
    # problem.  The worst seen over 300 points of each metric is 0.32 eps
    # kappa max|X| (elliptic_R2), and kappa reaches 1.2e3 (ellipsoidal_R3)
    m = ORACLE_METRICS[k]
    q = np.array([lo + f * (hi - lo) for (lo, hi), f in zip(m.box, frac)])
    M = m.matrix(q)
    with mpmath.workdps(50):
        X = np.array((mpmath.matrix(M.tolist()) ** -1).tolist(), dtype=float)
    s = np.abs(M).max(axis=0)
    kappa = np.abs(M / s).sum(axis=0).max() * np.abs(X * s[:, None]).sum(axis=0).max()
    err = np.max(np.abs(_inverse(M, q) - X))
    assert err <= m.n * np.finfo(float).eps * kappa * np.max(np.abs(X))


def test_four_coordinates_take_lapack():
    # ellipsoidal coordinates of E^4, rows (t^3, t^2, t, 1) / -4 prod(t - D)
    # over the poles D: M^-1 has no cofactor formula at n = 4 and takes
    # LAPACK, with a point still bitwise the stack; the Newton step is
    # 3 x 3.  A diagonal's length is the Euclidean chord
    poles = (4.0, 3.0, 2.0, 1.0)
    box = [(3.1, 3.9), (2.1, 2.9), (1.1, 1.9), (0.0, 0.9)]
    m = StaeckelMetric(4, [(np.eye(4), -4.0 * np.poly(poles))] * 4, box)
    rng = np.random.default_rng(43)
    q = np.array([_random_q(m, rng) for _ in range(20)])
    M = m.matrix(q)
    assert np.array_equal(_inverse(M, q), np.array([_inverse(x, y) for x, y in zip(M, q)]))
    assert np.array_equal(metric_coeffs(m, q), np.array([metric_coeffs(m, x) for x in q]))
    assert np.all(metric_coeffs(m, q) > 0.0)
    # two equal coordinates make two equal rows
    for x in ([3.5, 3.5, 1.5, 0.5], [q[0], [3.5, 3.5, 1.5, 0.5]]):
        with pytest.raises(SingularStaeckelMatrix):
            metric_coeffs(m, np.array(x))
    den = jacobi_denominators(poles)
    ambient = lambda x: np.sqrt(jacobi_squares(np.asarray(poles), x, den))
    c0, c1 = np.array([3.3, 2.4, 1.3, 0.3]), np.array([3.5, 2.6, 1.5, 0.5])
    sol = geodesic_between(m, c0, c1)
    assert abs(sol["length"] - np.linalg.norm(ambient(c1) - ambient(c0))) < 1e-9
