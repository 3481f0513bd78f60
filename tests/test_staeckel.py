"""Tests for separable metrics: coefficients, geodesics, Ivory, billiards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from confocal.errors import (
    InvalidParameters,
    NoMonotoneDiagonal,
    SingularStaeckelMatrix,
    SolverDiverged,
)
from confocal.geometry import geodesic_distance
from confocal.staeckel import (
    LiouvilleMetric,
    StaeckelMetric,
    _hamilton_field,
    builtin_metric,
    geodesic_between,
    hamiltonian,
    induced_metric_on_face,
    integrals_alpha,
    ivory_check,
    metric_coeffs,
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


def test_geodesic_matches_euclidean_oracle():
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    rng = np.random.default_rng(11)
    for _ in range(25):
        _, c0, c1, sol = _solved_random_box(m, rng)
        d = geodesic_distance(m.ambient_geometry, m.ambient(c0), m.ambient(c1))
        assert abs(sol["length"] - d) < 1e-9


def test_geodesic_matches_great_circle_oracle():
    m = builtin_metric("sphere_conical", (0.8, 0.5, 0.2))
    rng = np.random.default_rng(13)
    for _ in range(25):
        _, c0, c1, sol = _solved_random_box(m, rng)
        d = geodesic_distance(m.ambient_geometry, m.ambient(c0), m.ambient(c1))
        assert abs(sol["length"] - d) < 1e-9


def test_geodesic_ellipsoidal_oracle():
    m = builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0))
    rng = np.random.default_rng(17)
    for _ in range(8):
        _, c0, c1, sol = _solved_random_box(m, rng, max_span=0.3)
        d = np.linalg.norm(m.ambient(c0) - m.ambient(c1))
        assert abs(sol["length"] - d) < 1e-9


def test_geodesic_degenerate():
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    sol = geodesic_between(m, (2.5, 0.4), (2.5, 0.4))
    assert sol["length"] == 0.0
    with pytest.raises(InvalidParameters):
        geodesic_between(m, (2.5, 0.4), (2.5, 0.6))


def test_ivory_all_builtins():
    for name in ALL_NAMES:
        m = _metric(name)
        rng = np.random.default_rng(23)
        for _ in range(5):
            box, _, _, _ = _solved_random_box(m, rng, max_span=0.35)
            rep = ivory_check(m, box)
            assert rep["spread"] < 1e-8, name
            assert len(rep["lengths"]) == 2 ** (m.n - 1)


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


def test_poisson_bracket_fd():
    rng = np.random.default_rng(29)
    h = 1e-5
    for name in ALL_NAMES:
        m = _metric(name)
        for _ in range(30):
            q = _random_q(m, rng)
            p = rng.normal(size=m.n)

            def grad(f):
                gq = np.empty(m.n)
                gp = np.empty(m.n)
                for i in range(m.n):
                    qp, qm = q.copy(), q.copy()
                    qp[i] += h
                    qm[i] -= h
                    gq[i] = (f(qp, p) - f(qm, p)) / (2.0 * h)
                    pp, pm = p.copy(), p.copy()
                    pp[i] += h
                    pm[i] -= h
                    gp[i] = (f(q, pp) - f(q, pm)) / (2.0 * h)
                return gq, gp

            Hq, Hp = grad(lambda qq, pq: hamiltonian(m, qq, pq))
            for k in range(1, m.n):
                Aq, Ap = grad(lambda qq, pq, k=k: integrals_alpha(m, qq, pq)[k])
                assert abs(Hq @ Ap - Hp @ Aq) < 1e-6


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
        assert abs(out["p"][i] ** 2 - m.h(i, out["q"][i], al)) < 1e-10
    assert np.all(np.diff(out["bounce_times"]) > 1e-4)


def test_billiard_diagonal_family_period():
    # any orbit sharing the separation constants of a box diagonal is
    # periodic with period twice the diagonal length
    m = builtin_metric("elliptic_R2", (4.0, 1.0))
    walls = [(2.2, 2.9), (0.3, 0.7)]
    c0 = np.array([2.2, 0.3])
    c1 = np.array([2.9, 0.7])
    sol = geodesic_between(m, c0, c1)
    sep = sol["separation"]
    for frac in (0.37, 0.61):
        q0 = np.array([lo + frac * (hi - lo) for lo, hi in walls])
        p0 = sep.momentum(q0)
        out = staeckel_billiard_trajectory(m, walls, q0, p0, 8)
        # the orbit repeats with period 2 x diagonal length: each bounce
        # recurs one period later at the same phase-space point
        for i in range(4):
            t_a, q_a, p_a = out["states"][1 + i]
            t_b, q_b, p_b = out["states"][5 + i]
            assert abs((t_b - t_a) - 2.0 * sol["length"]) < 1e-7
            assert np.max(np.abs(q_b - q_a)) < 1e-7
            assert np.max(np.abs(p_b - p_a)) < 1e-7


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
