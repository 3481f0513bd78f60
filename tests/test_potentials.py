"""Tests for potential theory on curved spaces and Arnold root sums."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from confocal.errors import (
    ComplexRoots,
    ConeConditionViolated,
    DomainError,
    InvalidParameters,
    NotInHyperbolicityDomain,
    NotOnModel,
    NotOnSurface,
    OddDegreeHyperbolic,
    TooCloseToSurface,
    WrongComponentCount,
)
from confocal.geometry import (
    euclidean,
    geodesic_distance,
    hyperbolic,
    spherical,
)
from confocal.potentials import (
    _companion_roots,
    _distinct_real_count,
    _geodesic_basis,
    _geodesic_roots,
    _half_angle_basis,
    _line_roots,
    _sweep,
    _tangent_basis,
    CurvedEllipsoid,
    GeodesicSphere,
    Homeoid,
    HyperbolicSurface,
    QuadraticForm,
    antisymmetry_check,
    arnold_field_check,
    chord_segments,
    curved_segment_sum,
    direction_rule,
    f_lambda,
    field_at,
    homeoidal_density,
    is_hyperbolic_at,
    point_potential,
    point_potential_derivative,
    simultaneous_diagonalize,
    surface_potential,
    vieta_segment_sum,
)
from montecarlo import mc_field_at, mc_layer_field, mc_surface_potential
from test_geometry import mp_distance

S2, S3, H2, H3 = spherical(2), spherical(3), hyperbolic(2), hyperbolic(3)


def _mul2d(c1, c2):
    out = np.zeros((c1.shape[0] + c2.shape[0] - 1, c1.shape[1] + c2.shape[1] - 1))
    for (i, j), v in np.ndenumerate(c1):
        if v:
            out[i:i + c2.shape[0], j:j + c2.shape[1]] += v * c2
    return out


def _ellipse_coeffs(a2, b2):
    c = np.zeros((3, 3))
    c[2, 0] = 1.0 / a2
    c[0, 2] = 1.0 / b2
    c[0, 0] = -1.0
    return c


NESTED_QUARTIC = HyperbolicSurface(
    _mul2d(_ellipse_coeffs(0.25, 0.16), _ellipse_coeffs(1.0, 0.64)), euclidean(2))


# ---------------------------------------------------------------------------
# fundamental solutions


def test_point_potential_closed_forms():
    for r in np.linspace(0.1, 3.0, 30):
        assert abs(point_potential(S3, r) - 1.0 / np.tan(r)) < 1e-12
        assert abs(point_potential(H3, r) - (1.0 / np.tanh(r) - 1.0)) < 1e-12
    # n = 2 quadrature vs closed-form antiderivatives
    for r in (0.2, 0.7, 1.5):
        assert abs(point_potential(S2, r) - np.log(1.0 / np.tan(r / 2.0))) < 1e-10
        assert abs(point_potential(H2, r) - np.log(1.0 / np.tanh(r / 2.0))) < 1e-10
    assert abs(point_potential(S3, np.pi / 2)) < 1e-14
    with pytest.raises(DomainError):
        point_potential(S3, 3.5)
    with pytest.raises(DomainError):
        point_potential(H3, -0.1)


def test_antisymmetry():
    assert antisymmetry_check(S3, np.pi / 4) < 1e-14
    assert antisymmetry_check(S2, 0.3) < 1e-10
    assert antisymmetry_check(spherical(5), 1.0) < 1e-10


def _fd5(f, r, h):
    vals = np.array([f(r + k * h) for k in (-2, -1, 0, 1, 2)])
    d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    return d1, d2


def test_radial_harmonicity_and_flux():
    for geom in (S2, S3, H2, H3):
        phi = np.sin if geom.kind.name == "SPHERICAL" else np.sinh
        dphi = np.cos if geom.kind.name == "SPHERICAL" else np.cosh
        for r in (0.4, 0.8, 1.2):
            u1 = point_potential_derivative(geom, r)
            # FD of the smooth closed-form derivative, not of the
            # quadrature-valued potential (whose noise would dominate)
            u2, _ = _fd5(lambda t: point_potential_derivative(geom, t), r, 5e-4)
            # u'' + (n-1)(phi'/phi) u' = 0
            resid = u2 + (geom.n - 1) * dphi(r) / phi(r) * u1
            assert abs(resid) < 1e-8
            # flux through the geodesic sphere is r-independent
            assert abs(u1 * phi(r) ** (geom.n - 1) + 1.0) < 1e-8
            # quadrature potential differentiates to the analytic derivative
            du_fd, _ = _fd5(lambda t: point_potential(geom, t), r, 1e-2)
            assert abs(du_fd - u1) < 1e-4
    # like point_potential, defined on curved geometries only
    with pytest.raises(InvalidParameters):
        point_potential_derivative(euclidean(3), 0.5)


def _quad_potential(geometry, r):
    """Oracle: the quadrature potential, int_r^{pi/2} dx/sin^{n-1}x or
    int_r^inf dx/sinh^{n-1}x by scipy's adaptive quad."""
    n = geometry.n
    if geometry.kind.name == "SPHERICAL":
        return quad(lambda x: np.sin(x) ** (1 - n), r, np.pi / 2,
                    epsabs=1e-13, epsrel=1e-13)[0]

    def integrand(x):
        # exp((1-n) log sinh x), stable for large x
        return np.exp((1 - n) * (x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)))

    return quad(integrand, r, np.inf, epsabs=1e-13, epsrel=1e-13)[0]


def _mp_potential(geometry, r):
    """Oracle: the potential to 50 digits.  S^n: quadrature of csc^{n-1}.
    H^n: csch^{n-1}x = 2^{n-1} sum_k C(n-2+k, k) e^{-(n-1+2k)x} integrates
    term by term to the hypergeometric series
    2^{n-1} e^{-(n-1)r}/(n-1) 2F1(n-1, (n-1)/2; (n+1)/2; e^{-2r})."""
    n = geometry.n
    with mpmath.workdps(50):
        r = mpmath.mpf(float(r))
        if geometry.kind.name == "SPHERICAL":
            val = mpmath.quad(lambda x: mpmath.csc(x) ** (n - 1), [r, mpmath.pi / 2])
        else:
            val = (2 ** (n - 1) * mpmath.exp(-(n - 1) * r) / (n - 1)
                   * mpmath.hyp2f1(n - 1, mpmath.mpf(n - 1) / 2,
                                   mpmath.mpf(n + 1) / 2, mpmath.exp(-2 * r)))
        return float(val)


def test_point_potential_matches_mpmath():
    """n = 2..8, one batched call per geometry and dimension; in H^3 the
    old coth r - 1 lost all digits by r = 19."""
    for n in range(2, 9):
        for geom, radii in (
                (spherical(n), [0.01, 0.3, 1.0, 1.4, 2.0, 2.8, np.pi - 0.01]),
                (hyperbolic(n), [1e-5, 0.01, 0.3, 1.0, 3.0, 10.0, 20.0, 30.0])):
            u = point_potential(geom, np.array(radii))
            oracle = np.array([_mp_potential(geom, r) for r in radii])
            assert np.max(np.abs(u - oracle) / np.abs(oracle)) < 1e-12, geom
    assert point_potential(H3, 20.0) > 0.0


def test_point_potential_matches_quad_oracle():
    radii = np.linspace(0.1, 3.0, 12)
    for geom in (S2, spherical(4), spherical(5), H2, hyperbolic(4), hyperbolic(5)):
        u = point_potential(geom, radii)
        oracle = np.array([_quad_potential(geom, r) for r in radii])
        assert np.max(np.abs(u - oracle) / np.abs(oracle)) < 1e-10, geom
        # a scalar call returns a float agreeing with the batched call
        u3 = point_potential(geom, radii[3])
        assert isinstance(u3, float) and abs(u3 - u[3]) < 1e-14 * abs(u[3])


def test_point_potential_domain_batched():
    with pytest.raises(DomainError):
        point_potential(S3, np.array([0.5, 3.5]))
    with pytest.raises(DomainError):
        point_potential(H3, np.array([0.5, 0.0]))
    with pytest.raises(DomainError):
        point_potential(hyperbolic(1), 0.5)
    # NaN fails every comparison, so a test written as r <= 0 let it through
    for geometry in (S2, S3, H2, H3):
        for r in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(DomainError):
                point_potential(geometry, r)


@pytest.mark.parametrize("geometry", [S2, S3, H2, H3], ids=["S2", "S3", "H2", "H3"])
def test_point_potential_derivative_refuses_its_domain(geometry):
    """u'(0) is -inf; the derivative refuses r = 0, NaN and (on S^n) r >= pi
    as point_potential does."""
    for r in (0.0, -0.5, np.nan, np.array([0.5, 0.0])):
        with pytest.raises(DomainError):
            point_potential_derivative(geometry, r)
    if geometry.kappa > 0:
        with pytest.raises(DomainError):
            point_potential_derivative(geometry, np.pi)


# ---------------------------------------------------------------------------
# curved ellipsoids and the confocal map


ELL_S2 = CurvedEllipsoid(S2, (3.0, 2.0), 1.0)
ELL_H2 = CurvedEllipsoid(H2, (1.0, 0.5), 2.0)
ELL_S3 = CurvedEllipsoid(S3, (3.0, 2.0, 1.5), 1.0)
ELL_H3 = CurvedEllipsoid(H3, (1.2, 0.8, 0.5), 2.0)
ELL_S4 = CurvedEllipsoid(spherical(4), (4.0, 3.0, 2.0, 1.5), 1.0)
ELL_H4 = CurvedEllipsoid(hyperbolic(4), (1.2, 0.9, 0.7, 0.5), 2.0)


def test_surfaces_refuse_non_finite_parameters():
    """A NaN semiaxis, b or radius passes every ordering test; it is refused
    where it enters, not blamed later on the evaluation point."""
    for a, b in (((np.nan, 1.0), 1.0), ((3.0, np.nan), 1.0), ((3.0, 2.0), np.nan),
                 ((np.inf, 1.0), 1.0)):
        with pytest.raises(InvalidParameters, match="finite"):
            CurvedEllipsoid(S2, a, b)
    for radius in (np.nan, np.inf):
        with pytest.raises(InvalidParameters, match="finite"):
            GeodesicSphere(H3, np.array([1.0, 0.0, 0.0, 0.0]), radius)


def test_ellipsoid_points_on_model():
    rng = np.random.default_rng(2)
    for ell in (ELL_S2, ELL_H2, ELL_S3, ELL_H3):
        for _ in range(50):
            w = rng.normal(size=ell.n)
            x = ell.point_from_direction(w)
            assert abs(ell.q(x)) < 1e-12
            if ell.geometry.kind.name == "SPHERICAL":
                assert abs(np.linalg.norm(x) - 1.0) < 1e-12
            else:
                assert abs(ell.geometry.dot(x, x) + 1.0) < 1e-12
            assert x[0] > 0


def test_f_lambda_identities():
    rng = np.random.default_rng(3)
    for ell, lams in ((ELL_S2, (0.7, -0.4)), (ELL_H2, (0.3, -1.0)),
                      (ELL_S3, (0.9, -0.5)), (ELL_H3, (0.2, -0.7))):
        assert np.allclose(f_lambda(ell, 0.0), 1.0)
        for lam in lams:
            f = f_lambda(ell, lam)
            mu = lam / 2.0 - 0.3
            for _ in range(20):
                x = ell.point_from_direction(rng.normal(size=ell.n))
                y = f * x
                # maps E onto E_lambda, staying on the model surface
                assert abs(ell.q(y, lam)) < 1e-10
                if ell.geometry.kind.name == "SPHERICAL":
                    assert abs(np.linalg.norm(y) - 1.0) < 1e-10
                else:
                    assert abs(ell.geometry.dot(y, y) + 1.0) < 1e-10
                # linear relation between the confocal forms
                z = rng.normal(size=ell.n + 1)
                lin = (lam / mu * ell.q(z) + (1.0 - lam / mu) * ell.q(z, mu)
                       - ell.q(f * z, mu))
                assert abs(lin) < 1e-10
                # self-adjointness: <x, y> = <f x, f^{-1} y>
                v = rng.normal(size=ell.n + 1)
                assert abs(x @ v - (f * x) @ (v / f)) < 1e-10


def test_f_lambda_domain():
    with pytest.raises(DomainError):
        f_lambda(ELL_S2, 2.5)
    with pytest.raises(DomainError):
        f_lambda(ELL_H2, 0.9)


def test_homeoidal_density_round_case():
    ell = CurvedEllipsoid(S2, (2.0, 2.0), 1.0)
    rng = np.random.default_rng(5)
    vals = [homeoidal_density(ell, ell.point_from_direction(rng.normal(size=2)))
            for _ in range(20)]
    assert np.max(vals) - np.min(vals) < 1e-12
    with pytest.raises(NotOnSurface):
        homeoidal_density(ELL_S2, np.array([1.0, 0.0, 0.0]))


def test_density_matches_level_spacing():
    # thin-shell thickness between q = 0 and q = delta along the surface
    # normal is delta * density, to first order
    rng = np.random.default_rng(7)
    delta = 1e-5
    for ell in (ELL_S2, ELL_H2):
        for _ in range(10):
            x = ell.point_from_direction(rng.normal(size=2))
            g = ell.grad_q(x)
            if ell.geometry.kind.name == "SPHERICAL":
                t = g - (g @ x) * x
                t /= np.linalg.norm(t)
                gam = lambda s: np.cos(s) * x + np.sin(s) * t
            else:
                t = g + ell.geometry.dot(g, x) * x
                t /= np.sqrt(ell.geometry.dot(t, t))
                gam = lambda s: np.cosh(s) * x + np.sinh(s) * t
            s_cross = brentq(lambda s: ell.q(gam(s)) - delta, 0.0, 1e-2,
                             xtol=1e-16)
            dens = homeoidal_density(ell, x)
            assert abs(s_cross - delta * dens) / (delta * dens) < 1e-4


def _direction_frame(w):
    """Orthonormal tangent frame of the direction sphere at the unit w, by
    Gram-Schmidt on the coordinate vectors."""
    basis = []
    for k in range(len(w)):
        e = np.zeros(len(w))
        e[k] = 1.0
        e -= (e @ w) * w
        for b in basis:
            e -= (e @ b) * b
        if np.linalg.norm(e) > 1e-6:
            basis.append(e / np.linalg.norm(e))
        if len(basis) == len(w) - 1:
            break
    return basis


def _fd_sample_oracle(ell, ws, h=1e-6):
    """Oracle: the finite-difference sampler.  Points over the directions
    ws one at a time, and weights from central differences of
    point_from_direction along a Gram-Schmidt frame (independent of the
    sampler's own frame), times the homeoidal density."""
    sign = np.ones(ell.n + 1)
    if ell.geometry.kind.name == "HYPERBOLIC":
        sign[0] = -1.0
    pts, weights = [], []
    for w in np.asarray(ws, dtype=float):
        w = w / np.linalg.norm(w)
        T = np.array([(ell.point_from_direction(w + h * e)
                       - ell.point_from_direction(w - h * e)) / (2.0 * h)
                      for e in _direction_frame(w)])
        x = ell.point_from_direction(w)
        pts.append(x)
        weights.append(np.sqrt(np.linalg.det((T * sign) @ T.T)) / ell.grad_norm(x))
    return np.array(pts), np.array(weights)


@pytest.mark.parametrize("ell", [ELL_S2, ELL_H2, ELL_S3, ELL_H3, ELL_S4, ELL_H4],
                         ids=["S2", "H2", "S3", "H3", "S4", "H4"])
def test_sampler_matches_fd_oracle(ell):
    ws = np.random.default_rng(37).normal(size=(400, ell.n))
    pts, weights = ell.nodes(ws)
    o_pts, o_weights = _fd_sample_oracle(ell, ws)
    assert np.max(np.abs(pts - o_pts)) < 1e-14
    # the oracle's central differences are good to ~1e-10
    assert np.max(np.abs(weights - o_weights) / o_weights) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=100)
@given(ell=st.sampled_from([ELL_S3, ELL_H3]),
       w0=st.one_of(st.just(0.9), st.floats(0.9 - 1e-9, 0.9 + 1e-9),
                    st.floats(0.85, 0.95)),
       sign=st.sampled_from((-1.0, 1.0)), phi=st.floats(0.0, 2.0 * np.pi))
def test_sampler_near_frame_switch(ell, w0, sign, phi):
    """Directions near |w_0| = 0.9, where a tangent frame built on a fixed
    reference axis would switch axes; the closed-form weight has no frame
    and must agree with the oracle's Gram-Schmidt frame there too."""
    s = np.sqrt(1.0 - w0 * w0)
    w = [sign * w0, s * np.cos(phi), s * np.sin(phi)]
    pts, weights = ell.nodes([w])
    o_pts, o_weights = _fd_sample_oracle(ell, [w])
    assert np.max(np.abs(pts - o_pts)) < 1e-14
    assert abs(weights[0] - o_weights[0]) < 1e-8 * o_weights[0]


def test_homeoidal_pullback_ratio_constant():
    # the confocal map carries the homeoidal measure of E_lambda back to a
    # constant multiple of the homeoidal measure of E
    rng = np.random.default_rng(9)
    h = 1e-6
    for ell, lam in ((ELL_S2, 0.6), (ELL_H2, 0.2), (ELL_S3, 0.8)):
        f = f_lambda(ell, lam)
        ratios = []
        for _ in range(25):
            w = rng.normal(size=ell.n)
            w /= np.linalg.norm(w)
            basis = _direction_frame(w)
            sign = np.ones(ell.n + 1)
            if ell.geometry.kind.name == "HYPERBOLIC":
                sign[0] = -1.0

            def gram_area(mapper):
                cols = []
                for e in basis:
                    d = (mapper(w + h * e) - mapper(w - h * e)) / (2.0 * h)
                    cols.append(d)
                G = np.array([[np.sum(u * v * sign) for u in cols] for v in cols])
                return np.sqrt(np.linalg.det(G))

            x = ell.point_from_direction(w)
            m_e = gram_area(ell.point_from_direction) / ell.grad_norm(x)
            m_lam = (gram_area(lambda v: f * ell.point_from_direction(v))
                     / ell.grad_norm(f * x, lam))
            ratios.append(m_lam / m_e)
        ratios = np.array(ratios)
        assert (np.max(ratios) - np.min(ratios)) / np.mean(ratios) < 1e-6


# ---------------------------------------------------------------------------
# chords and Monte-Carlo fields


def _scan_chord_segments(geometry, x, v, homeoid, t_max=12.0, samples=4000):
    """Oracle: the sampled chord scan.  q on a grid of the geodesic (one
    half circle of S^n, |t| <= t_max in H^n), crossings refined by brentq.
    On S^n the grid is rotated to start outside the shell but the walk is
    not closed, so a component through the grid's end is lost: the scan
    misses one whenever x lies inside the shell."""
    e1, e2 = _geodesic_basis(geometry, x, v)
    ell = homeoid.ellipsoid
    if geometry.kind.name == "SPHERICAL":
        ts = np.linspace(0.0, np.pi, samples, endpoint=False)
        c, s = np.cos, np.sin
    else:
        ts = np.linspace(-t_max, t_max, samples)
        c, s = np.cosh, np.sinh

    def qval(t):
        return ell.q(c(t)[..., None] * e1 + s(t)[..., None] * e2)

    if geometry.kind.name == "SPHERICAL":
        qv0 = qval(ts)
        out_idx = np.nonzero((qv0 < homeoid.eps1) | (qv0 > homeoid.eps2))[0]
        if len(out_idx) == 0:
            raise WrongComponentCount("geodesic lies entirely inside the shell")
        ts = np.concatenate([ts[out_idx[0]:], ts[:out_idx[0]] + np.pi])
    qv = qval(ts)
    inside = (qv >= homeoid.eps1) & (qv <= homeoid.eps2)

    def refine(t_lo, t_hi, q_out):
        lev = homeoid.eps1 if q_out < homeoid.eps1 else homeoid.eps2
        return brentq(lambda t: qval(t) - lev, t_lo, t_hi, xtol=1e-14)

    segments = []
    start_t = None
    for k in range(1, len(ts)):
        if inside[k] and not inside[k - 1]:
            start_t = refine(ts[k - 1], ts[k], qv[k - 1])
        if inside[k - 1] and not inside[k] and start_t is not None:
            segments.append(refine(ts[k - 1], ts[k], qv[k]) - start_t)
            start_t = None
    if len(segments) != 2:
        raise WrongComponentCount(
            f"geodesic meets the shell in {len(segments)} components")
    return tuple(segments)


def _chord_against_scan(geometry, p, v, hom):
    """chord_segments at one draw, checked against the scan; returns whether
    the draw met the shell in two components."""
    try:
        s = chord_segments(geometry, p, v, hom)
    except WrongComponentCount:
        with pytest.raises(WrongComponentCount):
            _scan_chord_segments(geometry, p, v, hom)
        return False
    assert abs(s[0] - s[1]) < 1e-9
    try:
        oracle = _scan_chord_segments(geometry, p, v, hom)
    except WrongComponentCount:
        # the scan's blind spot, nothing else
        assert geometry.kind.name == "SPHERICAL"
        assert hom.eps1 <= hom.ellipsoid.q(p) <= hom.eps2
        return True
    assert np.max(np.abs(np.subtract(s, oracle))) < 1e-12
    return True


def test_chord_segments_equal():
    rng = np.random.default_rng(11)
    hom_s = Homeoid(ELL_S2, -0.05, 0.05)
    hom_h = Homeoid(ELL_H2, -0.03, 0.03)
    count = 0
    for _ in range(300):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        count += _chord_against_scan(S2, p, rng.normal(size=3), hom_s)
    assert count > 100
    count = 0
    for _ in range(300):
        y = rng.normal(size=2) * 0.5
        p = np.array([np.sqrt(1.0 + y @ y), y[0], y[1]])
        count += _chord_against_scan(H2, p, rng.normal(size=3), hom_h)
    assert count > 100


def test_chord_segments_from_the_ellipsoid():
    """Base point on the ellipsoid, hence inside the shell: two equal
    segments, as the scan finds them from a base point outside it."""
    hom = Homeoid(ELL_S2, -0.05, 0.05)
    x = ELL_S2.point_from_direction(np.array([0.6, 0.8]))
    v = np.array([0.3, -1.0, 0.5])
    s = chord_segments(S2, x, v, hom)
    assert s[0] > 0.0 and abs(s[0] - s[1]) < 1e-12
    e1, e2 = _geodesic_basis(S2, x, v)
    t0 = np.pi / 2
    y, w = np.cos(t0) * e1 + np.sin(t0) * e2, -np.sin(t0) * e1 + np.cos(t0) * e2
    assert not hom.eps1 <= ELL_S2.q(y) <= hom.eps2
    assert np.max(np.abs(np.subtract(s, _scan_chord_segments(S2, y, w, hom)))) < 1e-12


def test_chord_segments_round_center():
    ell = CurvedEllipsoid(S2, (2.0, 2.0), 1.0)
    hom = Homeoid(ell, -0.02, 0.02)
    pole = np.array([1.0, 0.0, 0.0])
    s = chord_segments(S2, pole, np.array([0.0, 1.0, 0.3]), hom)
    assert abs(s[0] - s[1]) < 1e-12


def test_distances_match_geodesic_distance():
    """The stacked distances from a point to surface nodes, as the
    cubature takes them, against the 50-digit oracle."""
    for surface, x in (
            (GeodesicSphere(S3, np.array([1.0, 0.0, 0.0, 0.0]), 2.5),
             np.array([np.cos(0.4), np.sin(0.4), 0.0, 0.0])),
            (GeodesicSphere(H3, np.array([1.0, 0.0, 0.0, 0.0]), 0.8),
             np.array([np.cosh(0.4), 0.0, np.sinh(0.4), 0.0])),
            (ELL_H2, np.array([1.0, 0.0, 0.0]))):
        ws, _ = direction_rule(surface.geometry.n, 500)
        pts = surface.nodes(ws)[0]
        rs = geodesic_distance(surface.geometry, x, pts)
        oracle = [mp_distance(surface.geometry, x, y) for y in pts]
        assert np.max(np.abs(rs - oracle)) < 1e-14
    pts[7, 0] *= 1.0 + 1e-8
    with pytest.raises(NotOnModel):
        geodesic_distance(H2, np.array([1.0, 0.0, 0.0]), pts)
    with pytest.raises(NotOnModel):
        geodesic_distance(H2, np.array([1.0, 0.0, 0.0]), -ELL_H2.nodes(ws[:5])[0])


def _model_point(geometry, v):
    """The model point over v in R^n: on S^n the unit vector along (1, v),
    on H^n the point with spatial part v."""
    v = np.asarray(v, dtype=float)
    if geometry.kappa > 0:
        x = np.concatenate([[1.0], v])
        return x / np.linalg.norm(x)
    return np.concatenate([[np.sqrt(1.0 + v @ v)], v])


_SPATIAL = st.floats(-3.0, 3.0, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from((S2, H2, S3, H3)), st.lists(_SPATIAL, min_size=3, max_size=3),
       st.lists(_SPATIAL, min_size=4, max_size=4))
def test_frames_are_eta_orthonormal(geometry, v, w):
    """_geodesic_basis: <e1, e1> = kappa with e1 along x, <e2, e2> = 1 and
    <e1, e2> = 0; _tangent_basis: n rows, orthonormal and orthogonal to x.
    Entries grow like |x| on H^n, so the gate is relative to |x|^2."""
    n = geometry.n
    x = _model_point(geometry, v[:n])
    direction = np.asarray(w[:n + 1])
    assume(np.linalg.norm(direction - (direction @ x) / (x @ x) * x) > 1e-3)
    tol = 1e-12 * (x @ x)
    e1, e2 = _geodesic_basis(geometry, x, direction)
    dot = geometry.dot
    assert abs(dot(e1, e1) - geometry.kappa) < tol and abs(dot(e2, e2) - 1.0) < tol
    assert abs(dot(e1, e2)) < tol and np.allclose(e1, x, rtol=0.0, atol=tol)
    basis = _tangent_basis(geometry, x)
    assert basis.shape == (n, n + 1)
    assert np.allclose(dot(basis[:, None, :], basis[None, :, :]), np.eye(n),
                       rtol=0.0, atol=tol)
    assert np.allclose(dot(basis, x), 0.0, rtol=0.0, atol=tol)


def test_direction_rules_integrate_polynomials():
    """Each rule sums the sphere's area, and a polynomial of low degree in
    the direction exactly: the trapezoid rule of m nodes on S^1 up to degree
    m - 1, Gauss-Legendre times trapezoid on S^2 to degree 2k - 1."""
    ws, wt = direction_rule(2, 16)
    assert len(ws) == 16 and np.allclose(np.linalg.norm(ws, axis=1), 1.0, rtol=0, atol=1e-15)
    assert abs(wt @ ws[:, 0] ** 8 - 2 * np.pi * 35 / 128) < 1e-14
    ws, wt = direction_rule(3, 128)
    assert len(ws) == 128 and np.allclose(np.linalg.norm(ws, axis=1), 1.0, rtol=0, atol=1e-15)
    assert abs(np.sum(wt) - 4 * np.pi) < 1e-13
    # int w_i^2 = 4 pi / 3, int w_1^2 w_3^4 = 4 pi / 35, odd moments vanish
    assert np.allclose(wt @ ws ** 2, 4 * np.pi / 3, rtol=0, atol=1e-13)
    assert abs(wt @ (ws[:, 0] ** 2 * ws[:, 2] ** 4) - 4 * np.pi / 35) < 1e-14
    assert np.allclose(wt @ ws, 0.0, rtol=0, atol=1e-14)
    with pytest.raises(InvalidParameters):
        direction_rule(4, 64)


@pytest.mark.parametrize("surface, v", [
    (ELL_S2, (0.1, 0.07)), (ELL_H2, (0.1, 0.07)), (ELL_S3, (0.1, 0.07, -0.05)),
    (GeodesicSphere(S3, np.array([1.0, 0.0, 0.0, 0.0]), 0.6), (0.12, -0.08, 0.05))],
    ids=["S2", "H2", "S3", "S3-round"])
def test_fine_rule_differs_from_the_coarse_one(surface, v):
    """At every size m the error estimate compares two different rules.  On
    S^2 the rules of m and 2m share k = ceil(sqrt(m/2)) at m = 1, 3, 4 and
    9, and reported an error of 0; the point is off every symmetry plane,
    so no estimate vanishes by symmetry either."""
    x = _model_point(surface.geometry, v)
    for m in range(1, 17):
        assert surface_potential(surface, x, m)["error"] > 0.0, m
        assert field_at(surface, x, m)["error"] > 0.0, m


@pytest.mark.parametrize("surface", [ELL_S2, CurvedEllipsoid(H2, (1.2, 0.5), 2.0)],
                         ids=["S2", "H2"])
def test_error_estimate_reads_the_error_on_an_axis(surface):
    """At a point on an axis of an ellipse the trapezoid nodes w and their
    mirror images give the potential alike.  The 2m nodes at odd m were the
    m nodes and their antipodes, so the estimate read rounding noise where
    the error was up to 5e-3; the fine rule of 2m + 1 nodes is a different
    rule.  The estimate is held to half the error, against 4096 nodes."""
    sin, cos = surface.geometry.trig
    for r in (0.1, 0.3):
        for axis in (1, 2):
            x = cos(r) * np.eye(3)[0] + sin(r) * np.eye(3)[axis]
            exact = surface_potential(surface, x, 4096)["value"]
            for m in range(1, 33):
                out = surface_potential(surface, x, m)
                err = abs(out["value"] - exact)
                assert err <= 1e-13 or out["error"] >= 0.5 * err, (r, axis, m, out["error"], err)


def test_newton_sphere_shell_s3():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    shell = GeodesicSphere(S3, c, 0.6)
    x_in = np.cos(0.2) * c + np.sin(0.2) * np.array([0.0, 1.0, 0.0, 0.0])
    x_anti = -(np.cos(0.25) * c + np.sin(0.25) * np.array([0.0, 0.0, 1.0, 0.0]))
    for x in (x_in, x_anti):
        out = field_at(shell, x, 2000)
        assert out["norm"] < 1e-13 * out["abs_integral"]
        assert out["error"] < 1e-13 * out["abs_integral"]


def test_newton_exterior_h3_point_mass():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    shell = GeodesicSphere(H3, c, 0.5)
    for D in (1.2, 1.8):
        x = np.cosh(D) * c + np.sinh(D) * np.array([0.0, 1.0, 0.0, 0.0])
        out = field_at(shell, x, 2048)
        oracle = 1.0 / np.sinh(D) ** 2
        assert abs(out["norm"] - oracle) / oracle < 1e-13
        # the field lies along the geodesic to the center, the first frame
        # axis here
        assert np.max(np.abs(out["field"][1:])) < 1e-15 and out["error"] < 1e-14


def test_round_shell_potential_center_oracle():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    shell = GeodesicSphere(S3, c, 0.7)
    out = surface_potential(shell, c, 50)
    assert abs(out["value"] - point_potential(S3, 0.7)) < 1e-15 and out["error"] < 1e-15


def test_ellipsoid_interior_constant_potential():
    x1 = np.array([1.0, 0.0, 0.0, 0.0])
    x2 = np.cos(0.15) * x1 + np.sin(0.15) * np.array([0.0, 1.0, 0.0, 0.0])
    u1 = surface_potential(ELL_S3, x1, 512)
    u2 = surface_potential(ELL_S3, x2, 512)
    assert abs(u1["value"] - u2["value"]) < 1e-14 * u1["abs_integral"]
    f = field_at(ELL_S3, x2, 512)
    assert f["norm"] < 1e-14 * f["abs_integral"]


def test_ellipses_vanish_inside_by_the_trapezoid_rule():
    """n = 2: curved ellipses in S^2 and H^2 create no field inside, to
    rounding with 64 trapezoid nodes."""
    for ell, x in ((ELL_S2, np.array([np.cos(0.1), np.sin(0.1), 0.0])),
                   (ELL_H2, np.array([np.cosh(0.1), 0.0, np.sinh(0.1)]))):
        out = field_at(ell, x, 64)
        assert out["norm"] < 1e-14 * out["abs_integral"]
        assert out["error"] < 1e-14 * out["abs_integral"]


def test_cubature_agrees_with_monte_carlo():
    """The Monte-Carlo estimators (tests/montecarlo.py) are the independent
    oracle: on the configurations of acceptance criteria 10-12 every
    deterministic value lies within their own 3 sigma."""
    rng = np.random.default_rng(2024)
    c = np.array([1.0, 0.0, 0.0, 0.0])
    # criterion 10: the shells
    shell = GeodesicSphere(S3, c, 0.6)
    x_in = np.cos(0.2) * c + np.sin(0.2) * np.array([0.0, 1.0, 0.0, 0.0])
    shell_h = GeodesicSphere(H3, c, 0.5)
    x_out = np.cosh(1.2) * c + np.sinh(1.2) * np.array([0.0, 1.0, 0.0, 0.0])
    for surface, x in ((shell, x_in), (shell_h, x_out)):
        det, mc = field_at(surface, x, 2048), mc_field_at(surface, x, 40000, rng)
        assert np.all(np.abs(det["field"] - mc["field"]) < 3.0 * mc["stderr"])
        det, mc = surface_potential(surface, x, 2048), mc_surface_potential(surface, x, 40000, rng)
        assert abs(det["value"] - mc["value"]) < 3.0 * mc["stderr"]
    # criterion 11: a point of E_lambda and an interior point of the ellipsoid
    ell = CurvedEllipsoid(S3, (3.0, 2.0, 1.5), 1.0)
    y = f_lambda(ell, -0.4) * ell.point_from_direction(np.array([0.3, -0.5, 0.8]))
    x_int = np.cos(0.15) * c + np.sin(0.15) * np.array([0.0, 1.0, 0.0, 0.0])
    for x, m in ((y, 8192), (x_int, 512)):
        det, mc = surface_potential(ell, x, m), mc_surface_potential(ell, x, 40000, rng)
        assert abs(det["value"] - mc["value"]) < 3.0 * mc["stderr"]
    det, mc = field_at(ell, x_int, 512), mc_field_at(ell, x_int, 40000, rng)
    assert np.all(np.abs(det["field"] - mc["field"]) < 3.0 * mc["stderr"])
    # criterion 12: the quartic layer, its field and the integral of
    # 1/|y - x| that the sweep's chords give
    det = arnold_field_check(NESTED_QUARTIC, 0.05, (0.1, 0.05), 256)
    mc = mc_layer_field(NESTED_QUARTIC, 0.05, (0.1, 0.05), 200000, rng,
                        box=(-1.1, 1.1, -0.9, 0.9))
    assert np.all(np.abs(det["field"] - mc["field"]) < 3.0 * mc["stderr"])
    assert abs(det["abs_integral"] - mc["abs_integral"]) < 3.0 * mc["abs_stderr"]


def test_uniform_density_fails_newton(monkeypatch):
    """Mutation: with the density switched from homeoidal to uniform area,
    the interior field of acceptance 11's ellipsoid is ~7e-3 of the
    integral of |integrand|, fourteen orders above the homeoid's."""
    homeoidal = CurvedEllipsoid.nodes

    def uniform(ellipsoid, ws):
        pts, weights = homeoidal(ellipsoid, ws)
        return pts, weights * ellipsoid.grad_norm(pts)

    x_int = np.cos(0.15) * np.array([1.0, 0.0, 0.0, 0.0]) + np.sin(0.15) * np.eye(4)[1]
    monkeypatch.setattr(CurvedEllipsoid, "nodes", uniform)
    out = field_at(ELL_S3, x_int, 512)
    assert out["norm"] > 1e-3 * out["abs_integral"]
    assert out["error"] < 1e-13 * out["abs_integral"]


def test_point_off_the_confocal_ellipsoid_fails_ivory():
    """Mutation: a point moved 1e-6 off E_lambda (along the geodesic normal)
    changes its potential by ~1.7e-6 of the integral of |integrand|, far
    above the equipotential spread of points on E_lambda."""
    lam = -0.4
    f = f_lambda(ELL_S3, lam)
    pts = [f * ELL_S3.point_from_direction(w) for w in np.eye(3) + 0.3]
    y = pts[0]
    g = ELL_S3.grad_q(y, lam)
    g = g - S3.dot(g, y) * y
    moved = np.cos(1e-6) * y + np.sin(1e-6) * g / np.linalg.norm(g)
    on = [surface_potential(ELL_S3, x, 8192) for x in pts]
    off = surface_potential(ELL_S3, moved, 8192)
    scale = max(v["abs_integral"] for v in on)
    assert np.ptp([v["value"] for v in on]) < 1e-10 * scale
    assert abs(off["value"] - on[0]["value"]) > 1e-7 * scale


def test_too_close_to_surface():
    x = ELL_S3.point_from_direction(np.array([1.0, 0.2, 0.1]))
    with pytest.raises(TooCloseToSurface):
        field_at(ELL_S3, x, 1000)


# ---------------------------------------------------------------------------
# simultaneous diagonalization


def test_simultaneous_diagonalize():
    p = QuadraticForm(np.diag([-1.0, 1.0, 1.0]))
    q = QuadraticForm(np.diag([-2.0, 0.5, 3.0]))
    B, dp, dq = simultaneous_diagonalize(p, q)
    assert np.max(np.abs(B.T @ p.matrix @ B - np.diag(dp))) < 1e-12
    assert np.max(np.abs(B.T @ q.matrix @ B - np.diag(dq))) < 1e-12
    rng = np.random.default_rng(31)
    for _ in range(20):
        S = rng.normal(size=(3, 3))
        while abs(np.linalg.det(S)) < 0.1:
            S = rng.normal(size=(3, 3))
        P = S.T @ np.diag([-1.0, 1.0, 1.0]) @ S
        Q = S.T @ np.diag([-2.0, 0.5, 3.0]) @ S
        B, dp, dq = simultaneous_diagonalize(
            QuadraticForm((P + P.T) / 2), QuadraticForm((Q + Q.T) / 2))
        scale = max(np.max(np.abs(dp)), np.max(np.abs(dq)))
        assert np.max(np.abs(B.T @ (P + P.T) / 2 @ B
                             - np.diag(dp))) < 1e-10 * scale


def test_simultaneous_diagonalize_counterexample():
    with pytest.raises(ConeConditionViolated):
        simultaneous_diagonalize(
            QuadraticForm(np.array([[1.0, 0.0], [0.0, -1.0]])),
            QuadraticForm(np.array([[0.0, 0.5], [0.5, 0.0]])))


# ---------------------------------------------------------------------------
# hyperbolic surfaces


def test_quartic_fermat_not_hyperbolic():
    c = np.zeros((5, 5))
    c[4, 0] = 1.0
    c[0, 4] = 1.0
    c[0, 0] = -1.0
    surf = HyperbolicSurface(c, euclidean(2))
    ok, witness, _ = is_hyperbolic_at(surf, (0.0, 0.0))
    assert not ok and witness is not None
    # the witness line carries only two real points of x^4 + y^4 = 1
    t = np.roots([witness[0] ** 4 + witness[1] ** 4, 0.0, 0.0, 0.0, -1.0])
    assert np.sum(np.abs(t.imag) < 1e-12) == 2


def test_ellipse_hyperbolic_from_interior():
    surf = HyperbolicSurface(_ellipse_coeffs(4.0, 1.0), euclidean(2))
    ok, _, margin = is_hyperbolic_at(surf, (0.5, 0.3))
    assert ok and margin > 1e12
    ok, w, _ = is_hyperbolic_at(surf, (3.0, 0.0))
    assert not ok


def test_union_of_lines_hyperbolic_nonstrict():
    # x y (x + y - 1): three lines.  Odd sweeps hold the vertical line, and
    # m = 2 mod 4 the line along x + y = 1: each meets one of the lines at
    # infinity, the root r = 0 in the sweep's chart
    c = np.zeros((3, 3))
    c[2, 1] = 1.0
    c[1, 2] = 1.0
    c[1, 1] = -1.0
    surf = HyperbolicSurface(c, euclidean(2))
    for m in (63, 64, 66):
        ok, _, _ = is_hyperbolic_at(surf, (0.2, 0.3), m=m, strict=False)
        assert ok


def test_spherical_hyperbolicity_of_cone():
    # the elliptic cone of ELL_S2 is hyperbolic as seen from the pole, and
    # the cone of ELL_H2 as seen from the origin of H^2
    for ell, x in ((ELL_S2, (1.0, 0.0, 0.0)), (ELL_H2, (1.0, 0.0, 0.0))):
        c = np.zeros((3, 3, 3))
        c[2, 0, 0] = -1.0 / ell.b
        c[0, 2, 0] = 1.0 / ell.a[0]
        c[0, 0, 2] = 1.0 / ell.a[1]
        ok, _, _ = is_hyperbolic_at(HyperbolicSurface(c, ell.geometry), x)
        assert ok


def test_sweep_matches_line_probes():
    """The stacked sweep against the probe it replaces: per line, the
    restriction fitted alone and its roots counted by np.roots."""
    surf = NESTED_QUARTIC
    for x in ((0.1, 0.05), (0.7, 0.0), (0.0, 0.3)):
        theta = np.pi * (np.arange(40) + 0.5) / 40
        dirs, coeffs = _sweep(surf, np.array(x), theta)
        ts = np.cos(np.pi * (np.arange(5) + 0.5) / 5)
        for u, c in zip(dirs, coeffs):
            vals = [surf(np.array(x) + t * u) for t in ts]
            assert np.allclose(np.linalg.solve(np.vander(ts, 5, increasing=True), vals), c,
                               rtol=0.0, atol=1e-13)
        roots, witness, _ = _line_roots(surf, dirs, coeffs)
        probes = [np.sum(np.abs(np.roots(c[::-1]).imag) < 1e-8) == 4 for c in coeffs]
        assert (witness is None) == all(probes)
        assert np.allclose(np.sort(1.0 / roots, axis=1)[np.array(probes)],
                           [np.sort(np.roots(c[::-1]).real) for c, p in zip(coeffs, probes) if p],
                           rtol=1e-12, atol=0.0)


def test_vieta_segment_sum():
    assert vieta_segment_sum([-1.0, 0.0, 1.0], 0.1) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        roots = np.sort(rng.normal(size=3) * 2.0)
        while np.min(np.diff(roots)) < 0.2:
            roots = np.sort(rng.normal(size=3) * 2.0)
        coeffs = np.poly(roots)[::-1]
        assert abs(vieta_segment_sum(coeffs, 1e-3 * rng.uniform())) < 1e-10
    with pytest.raises(ComplexRoots):
        vieta_segment_sum([1.0, 0.0, 1.0], 0.1)


def _binary_from_factors_h1(cs):
    b = np.array([1.0])
    for c in cs:
        b = np.concatenate([b, [0.0]]) + np.concatenate([[0.0], -c * b])
    return b


def _binary_from_angles_s1(angles):
    b = np.array([1.0])
    for t in angles:
        b = (np.sin(t) * np.concatenate([b, [0.0]])
             + np.concatenate([[0.0], -np.cos(t) * b]))
    return b


def test_curved_segment_sum_h1():
    rng = np.random.default_rng(7)
    # d = 2: x^2 - s x y + y^2 on the branch x y = 1
    assert abs(curved_segment_sum([1.0, -3.0, 1.0], 0.01, hyperbolic(1))) < 1e-12
    for _ in range(200):
        cs = np.sort(rng.uniform(0.2, 5.0, size=4))
        while np.min(np.diff(np.sqrt(cs))) < 0.15:
            cs = np.sort(rng.uniform(0.2, 5.0, size=4))
        assert abs(curved_segment_sum(_binary_from_factors_h1(cs), 1e-3,
                                      hyperbolic(1))) < 1e-9
    with pytest.raises(OddDegreeHyperbolic):
        curved_segment_sum([1.0, 0.0, 0.0, -2.0], 1e-3, hyperbolic(1))


def test_curved_segment_sum_s1():
    rng = np.random.default_rng(9)
    for d in (3, 4):
        for _ in range(100):
            angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=d))
            while np.min(np.diff(angles)) < 0.15:
                angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=d))
            s = curved_segment_sum(_binary_from_angles_s1(angles), 1e-4,
                                   spherical(1))
            assert abs(s) < 1e-9


def _scan_circle_angles(b, shift):
    """Oracle: the angle scan.  Sign changes of p(cos t, sin t) - shift on
    400 points of (0, pi), refined by brentq."""
    d = len(b) - 1

    def f(t):
        return sum(b[k] * np.cos(t) ** (d - k) * np.sin(t) ** k
                   for k in range(d + 1)) - shift

    ts = np.linspace(1e-9, np.pi - 1e-9, 400)
    vals = f(ts)
    out = [ts[j] if vals[j] == 0.0 else brentq(f, ts[j], ts[j + 1], xtol=1e-14)
           for j in range(len(ts) - 1)
           if vals[j] == 0.0 or vals[j] * vals[j + 1] < 0]
    return np.array(out)


def test_circle_roots_match_scan_oracle():
    rng = np.random.default_rng(19)
    for d in (3, 4):
        for _ in range(30):
            angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=d))
            while np.min(np.diff(angles)) < 0.15:
                angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=d))
            b = _binary_from_angles_s1(angles)
            assert np.max(np.abs(_geodesic_roots(b, 0.0, spherical(1)) - angles)) < 1e-12
            for shift in (1e-4, -1e-4, 1e-3):
                roots = _geodesic_roots(b, shift, spherical(1))
                assert np.max(np.abs(roots - _scan_circle_angles(b, shift))) < 1e-12


def test_half_angle_basis_keeps_roots_bit_identical():
    """The cached basis against the products it replaces: the roots from
    the per-call polypow/polymul construction are the same doubles."""
    P = np.polynomial.polynomial
    rng = np.random.default_rng(23)
    for d in (3, 4):
        assert not _half_angle_basis(d).flags.writeable
        for _ in range(20):
            angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=d))
            while np.min(np.diff(angles)) < 0.15:
                angles = np.sort(rng.uniform(0.1, np.pi - 0.1, size=d))
            b = _binary_from_angles_s1(angles)
            form = np.zeros(2 * d + 1)
            for k in range(d + 1):
                term = P.polymul(P.polypow([1.0, 0.0, -1.0], d - k), P.polypow([0.0, 2.0], k))
                form[:len(term)] += b[k] * term
            for shift in (0.0, 1e-3):
                level = P.polypow([1.0, 0.0, 1.0], d)
                roots = np.roots((form - shift * level)[::-1])
                roots = roots[np.abs(roots.imag) < 1e-8 * max(1.0, np.max(np.abs(roots)))].real
                expect = 2.0 * np.arctan(np.sort(roots[roots > 0]))
                assert np.array_equal(_geodesic_roots(b, shift, spherical(1)), expect)


def _mp_real_root_count(coeffs_high_low):
    """Oracle: distinct real roots of the float polynomial, to 50 digits."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpf(float(c)) for c in coeffs_high_low],
                                 maxsteps=200, extraprec=200)
        return sum(1 for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30)


def _well_posed(roots, coeffs_high_low):
    """Whether rounding the coefficients to doubles can change the count: at
    each midpoint of adjacent real roots and at each complex pair's real
    part, |p| must exceed 1e3 times that rounding, eps sum |c_k| |x|^k.
    Below it no method working in doubles from the coefficients can tell a
    near-double real root from a near-real complex pair."""
    real = np.sort([r.real for r in roots if np.imag(r) == 0])
    xs = list((real[1:] + real[:-1]) / 2) + [r.real for r in roots if np.imag(r) > 0]
    eps = np.finfo(float).eps
    return all(abs(np.prod([x - r for r in roots]))
               > 1e3 * eps * np.polyval(np.abs(coeffs_high_low), abs(x)) for x in xs)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(real=st.lists(st.floats(-3.0, 3.0), max_size=5),
       gap=st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e),
       pairs=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)),
                      max_size=2))
def test_real_root_count_matches_mpmath(real, gap, pairs):
    """Chosen real roots, the first one doubled at a distance down to 1e-6
    (the hyperbolicity boundary), and complex pairs down to 1e-6 off the
    axis, wherever doubles can still resolve them."""
    roots = real + [real[0] + gap] if real else []
    # closer real roots count as one: the counter's cut is 1e-8 of the scale
    assume(len(roots) < 2 or np.min(np.diff(np.sort(roots))) >= 1e-6)
    roots += [complex(a, s * b) for a, b in pairs for s in (1, -1)]
    assume(len(roots) >= 1)
    coeffs = np.real(np.poly(roots))
    assume(_well_posed(roots, coeffs))
    assert _distinct_real_count(_companion_roots(coeffs), 1e-8) == _mp_real_root_count(coeffs)


def test_arnold_quartic_layer():
    out = arnold_field_check(NESTED_QUARTIC, 0.05, (0.1, 0.05), 64)
    assert out["norm"] < 1e-13 * out["abs_integral"]
    assert out["error"] < 1e-13 * out["abs_integral"]
    assert out["N"] == 64 and out["margin"] > 1e10


@pytest.mark.parametrize("eps, x", [(np.nan, (0.1, 0.05)), (np.inf, (0.1, 0.05)),
                                    (0.05, (np.nan, 0.05)), (0.05, (0.1, -np.inf))])
def test_layer_checks_refuse_non_finite_input(eps, x):
    """A NaN or inf point or eps is refused before the sweep, whose
    eigenvalue solver raised numpy's LinAlgError on it."""
    with pytest.raises(InvalidParameters, match="finite"):
        arnold_field_check(NESTED_QUARTIC, eps, x, 64)
    if np.isfinite(eps):
        with pytest.raises(InvalidParameters, match="finite"):
            is_hyperbolic_at(NESTED_QUARTIC, x)


def test_arnold_outside_hyperbolicity_domain():
    with pytest.raises(NotInHyperbolicityDomain):
        arnold_field_check(NESTED_QUARTIC, 0.05, (0.7, 0.0), 200)


@pytest.mark.parametrize("x", [(1.001, 0.0), (0.3, 1.0), (0.0, -1.01)])
def test_arnold_point_outside_the_circle_fails(x):
    """Mutation: a point of the unit circle's layer, or just outside it,
    leaves the hyperbolicity domain; the sweep must find a line that misses
    the layer."""
    circle = HyperbolicSurface(_ellipse_coeffs(1.0, 1.0), euclidean(2))
    with pytest.raises(NotInHyperbolicityDomain) as info:
        arnold_field_check(circle, 0.05, x, 2000)
    assert info.value.witness is not None


def test_arnold_ellipse_layer_reduces_to_homeoid():
    surf = HyperbolicSurface(_ellipse_coeffs(1.0, 0.5), euclidean(2))
    out = arnold_field_check(surf, 0.05, (0.2, -0.1), 200)
    assert out["norm"] < 1e-13 * out["abs_integral"]
    assert out["error"] < 1e-13 * out["abs_integral"]
