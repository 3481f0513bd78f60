"""Tests for confocal families and elliptic coordinates."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confocal import (
    ConfocalFamily,
    Kind,
    confocal_parameters,
    euclidean,
    geodesic_distance,
    hyperbolic,
    ivory_parallelepiped_check,
    point_from_parameters,
    spherical,
    tangent_parameters_of_line,
)
from confocal.errors import DegeneratePoint, InvalidParameters, NoRealPoint, NotOnModel
from confocal.geometry import jacobi_squares
from confocal.quadrics import (
    confocal_equation,
    confocal_gradient,
    planar_coordinates,
    random_interior_point,
)

_EPS = np.finfo(float).eps
FAM2 = ConfocalFamily(euclidean(2), (4.0, 1.0))
FAM3 = ConfocalFamily(euclidean(3), (4.0, 2.0, 1.0))
FAM4 = ConfocalFamily(euclidean(4), (5.0, 3.0, 2.0, 1.0))
FAMS2 = ConfocalFamily(spherical(2), (3.0, 2.0), b=1.0)
FAMH2 = ConfocalFamily(hyperbolic(2), (1.0, 0.5), b=2.0)
FAMS3 = ConfocalFamily(spherical(3), (3.0, 2.0, 1.5), b=1.0)
FAMH3 = ConfocalFamily(hyperbolic(3), (1.0, 0.6, 0.3), b=2.0)
ALL_FAMS = [FAM2, FAM3, FAMS2, FAMH2]
CURVED_FAMS = [FAMS2, FAMS3, FAMH2, FAMH3]


def _onto_model(fam, x):
    """Put x back on the model: normalise on S^n, recompute x0 on H^n."""
    x = np.array(x, dtype=float)
    if fam.geometry.kind is Kind.SPHERICAL:
        return x / np.linalg.norm(x)
    if fam.geometry.kind is Kind.HYPERBOLIC:
        x[0] = np.sqrt(1.0 + x[1:] @ x[1:])
    return x


def _near_pole_points(fam, rng):
    """Random model points with one spatial coordinate set to +-1e-4 or
    +-1e-5, so that one parameter lies within ~1e-8 to 1e-10 of its pole."""
    m = fam.geometry.ambient_dim
    for i in range(m - fam.n, m):
        for v in (1e-4, -1e-4, 1e-5, -1e-5):
            x = random_interior_point(fam, rng)
            x[i] = v
            yield _onto_model(fam, x)


def test_family_validation():
    with pytest.raises(InvalidParameters):
        ConfocalFamily(euclidean(2), (1.0, 4.0))
    with pytest.raises(InvalidParameters):
        ConfocalFamily(hyperbolic(2), (3.0, 1.0), b=2.0)
    with pytest.raises(InvalidParameters):
        ConfocalFamily(spherical(2), (3.0, 2.0))
    # circle degeneration is allowed in the plane
    assert ConfocalFamily(euclidean(2), (2.0, 2.0)).is_circular


def test_degenerate_axis_points():
    assert np.allclose(confocal_parameters(FAM2, (2.0, 0.0)).lam, (1.0, 0.0))
    assert np.allclose(confocal_parameters(FAM2, (0.0, 1.0)).lam, (4.0, 0.0))
    with pytest.raises(DegeneratePoint):
        confocal_parameters(FAM2, (2.0, 0.0), strict=True)
    # E^3 with one zero coordinate leaves a 2 x 2 problem, in closed form
    for x, pole in (((1.0, 0.0, 0.5), 2.0), ((0.0, 1.2, -0.3), 4.0), ((1.5, 0.7, 0.0), 1.0)):
        coords = confocal_parameters(FAM3, x)
        assert coords.degenerate == (pole,) and pole in coords.lam
        for lv in set(coords.lam) - {pole}:
            assert abs(confocal_equation(FAM3, lv, x)) < 1e-14
        assert np.max(np.abs(point_from_parameters(FAM3, coords) - x)) < 1e-15


@pytest.mark.parametrize("fam, x, poles", [
    (FAMS2, (0.0, 0.6, 0.8), (-1.0,)),
    (FAMS2, (0.6, 0.0, 0.8), (3.0,)),
    (FAMS2, (0.6, 0.8, 0.0), (2.0,)),
    (FAMH2, (np.sqrt(1.25), 0.0, 0.5), (1.0,)),
    (FAMH2, (np.sqrt(1.25), 0.5, 0.0), (0.5,)),
    (FAMS3, (0.0, 0.6, 0.48, 0.64), (-1.0,)),
    (FAMS3, (0.6, 0.48, 0.0, 0.64), (2.0,)),
    (FAMS3, (0.0, 0.6, 0.8, 0.0), (1.5, -1.0)),
    (FAMH3, (np.sqrt(1.34), 0.0, 0.5, 0.3), (1.0,)),
    (FAMH3, (np.sqrt(1.34), 0.5, 0.3, 0.0), (0.3,)),
    (FAMH3, (np.sqrt(1.25), 0.0, 0.5, 0.0), (1.0, 0.3)),
], ids=["S2-x0", "S2-x1", "S2-x2", "H2-x1", "H2-x2",
        "S3-x0", "S3-x2", "S3-x0x3", "H3-x1", "H3-x3", "H3-x1x3"])
def test_degenerate_curved_points(fam, x, poles):
    """A zero coordinate gives its pole exactly (a_i, or -b for x0 = 0 on
    S^n), flagged; the other parameters still solve the secular equation."""
    coords = confocal_parameters(fam, x)
    assert coords.degenerate == poles
    assert len(coords.lam) == fam.n
    assert all(pole in coords.lam for pole in poles)
    for lv in coords.lam:
        if lv not in poles:
            assert abs(confocal_equation(fam, lv, x)) < 1e-12
    assert np.max(np.abs(point_from_parameters(fam, coords) - x)) < 1e-12
    with pytest.raises(DegeneratePoint):
        confocal_parameters(fam, x, strict=True)


def test_roundtrip_axis_points():
    assert np.allclose(point_from_parameters(FAM2, (0.0, 1.0), signs=(1, 1)), (2.0, 0.0))
    assert np.allclose(point_from_parameters(FAM2, (4.0, 0.0), signs=(1, 1)), (0.0, 1.0))


def test_interlacing_and_residual():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = random_interior_point(FAM3, rng)
        lam = confocal_parameters(FAM3, x).lam
        assert 4.0 > lam[0] > 2.0 > lam[1] > 1.0 > lam[2]
        for lv in lam:
            assert abs(confocal_equation(FAM3, lv, x)) < 1e-10


def test_roundtrip_all_geometries():
    rng = np.random.default_rng(7)
    for fam in ALL_FAMS:
        points = [random_interior_point(fam, rng) for _ in range(100)]
        points += _near_pole_points(fam, np.random.default_rng(29))
        for x in points:
            coords = confocal_parameters(fam, x)
            y = point_from_parameters(fam, coords)
            assert np.max(np.abs(np.asarray(x) - y)) < 1e-9


def test_gradient_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_interior_point(FAM3, rng)
        lam = confocal_parameters(FAM3, x).lam
        grads = [confocal_gradient(FAM3, lv, x) for lv in lam]
        for i in range(3):
            for j in range(i + 1, 3):
                gi = grads[i] / np.linalg.norm(grads[i])
                gj = grads[j] / np.linalg.norm(grads[j])
                assert abs(gi @ gj) < 1e-9


def test_noreal_point():
    with pytest.raises(NoRealPoint):
        # two parameters in the same class interval
        point_from_parameters(FAM2, (0.5, 0.2))


def test_point_from_parameters_bad_input():
    with pytest.raises(InvalidParameters):
        point_from_parameters(FAM2, (0.5,))
    with pytest.raises(InvalidParameters):
        point_from_parameters(ConfocalFamily(euclidean(2), (2.0, 2.0)), (1.0, 0.5))


def test_secular_equation_takes_one_point():
    # a stack of points is refused, not summed into one scalar
    for fam, x in ((FAM2, [1.0, 0.5]), (FAMS2, [0.8, 0.36, 0.48])):
        with pytest.raises(NotOnModel):
            confocal_equation(fam, 0.1, np.stack([x, x]))
        with pytest.raises(NotOnModel):
            confocal_parameters(fam, np.stack([x, x]))
        with pytest.raises(NotOnModel):
            confocal_equation(fam, 0.1, x[:-1])


def test_focus_from_parameters():
    # both degenerate members lam = a_2 pass through the focus (sqrt 3, 0)
    focus = (np.sqrt(3.0), 0.0)
    assert np.allclose(point_from_parameters(FAM2, (1.0, 1.0)), focus)
    assert np.allclose(confocal_parameters(FAM2, focus).lam, (1.0, 1.0))


def _secular_oracle(fam, x):
    """Elliptic coordinates of x to 50 digits, descending: the roots of
    sum_j J_j x_j^2 prod_{l != j} (D_j - lam) - c prod_j (D_j - lam), the
    secular equation with denominators cleared."""
    if fam.geometry.kind is Kind.EUCLIDEAN:
        d, sig, c = list(fam.a), [1] * fam.n, 1
    elif fam.geometry.kind is Kind.SPHERICAL:
        d, sig, c = [-fam.b, *fam.a], [1] * (fam.n + 1), 0
    else:
        d, sig, c = [fam.b, *fam.a], [-1] + [1] * fam.n, 0
    with mpmath.workdps(50):
        d, x = ([mpmath.mpf(float(v)) for v in w] for w in (d, x))

        def prod_without(skip):
            p = [mpmath.mpf(1)]  # highest degree first, padded to degree m
            for k, dk in enumerate(d):
                if k != skip:
                    p = [dk * v - u for u, v in zip(p + [0], [0] + p)]
            return [0] * (len(d) + 1 - len(p)) + p

        q = [-c * v for v in prod_without(None)]
        for j in range(len(d)):
            q = [s + sig[j] * x[j] ** 2 * t for s, t in zip(q, prod_without(j))]
        while q[0] == 0:
            q = q[1:]
        roots = mpmath.polyroots(q, maxsteps=200, extraprec=200)
        return sorted((float(mpmath.re(r)) for r in roots), reverse=True)


_coordinate = st.builds(
    lambda sign, size: sign * size,
    st.sampled_from((-1.0, 1.0)),
    st.one_of(st.floats(0.05, 1.5), st.floats(-11.0, -2.0).map(lambda e: 10.0 ** e)),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fam=st.sampled_from([FAM3, FAMS2, FAMH2]),
       raw=st.lists(_coordinate, min_size=3, max_size=3))
def test_parameters_match_secular_oracle(fam, raw):
    """Coordinates near a hyperplane (|x_i| down to 1e-11) put a parameter
    within ~1e-22 of its pole; it must still match the 50-digit root."""
    x = _onto_model(fam, raw)
    lam = np.asarray(confocal_parameters(fam, x).lam)
    oracle = np.asarray(_secular_oracle(fam, x))
    assert len(oracle) == fam.n
    assert np.all(np.abs(lam - oracle) <= 1e-13 * np.maximum(1.0, np.abs(oracle)))


def _pencil_parameters(fam, x):
    """Curved elliptic coordinates by the generalized eigenproblem that
    computed them before the rank-one identity, kept as an oracle: the
    pencil (B^T J D B, B^T J B) over the nonzero coordinates, B an
    orthonormal basis of their Euclidean x^perp, made symmetric by the
    Cholesky factor of B^T J B; each zero coordinate adds its pole."""
    x = np.asarray(x, dtype=float)
    d = np.array([-fam.geometry.kappa * fam.b, *fam.a])
    sig = np.array([-1.0 if fam.geometry.kind is Kind.HYPERBOLIC else 1.0] + [1.0] * fam.n)
    zero = x * x <= 1e-24
    dk, sk, xk = d[~zero], sig[~zero], x[~zero]
    basis = np.linalg.qr(xk[:, None], mode="complete")[0][:, 1:]
    jb = sk[:, None] * basis
    chol = np.linalg.cholesky(basis.T @ jb)
    half = np.linalg.solve(chol, jb.T @ (dk[:, None] * basis))
    roots = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
    return sorted(roots.tolist() + d[zero].tolist(), reverse=True)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(fam=st.sampled_from(CURVED_FAMS),
       raw=st.lists(_coordinate, min_size=4, max_size=4), x0_zero=st.booleans())
def test_rank_one_matches_pencil(fam, raw, x0_zero):
    """The rank-one eigenproblem against the pencil on S^2, S^3, H^2 and
    H^3, with coordinates down to 1e-11 and x0 = 0 on S^n, where -b is
    pinned and flagged."""
    raw = raw[:fam.geometry.ambient_dim]
    pinned = x0_zero and fam.geometry.kind is Kind.SPHERICAL
    if pinned:
        raw[0] = 0.0
    x = _onto_model(fam, raw)
    coords = confocal_parameters(fam, x)
    lam, oracle = np.asarray(coords.lam), np.asarray(_pencil_parameters(fam, x))
    assert lam.shape == oracle.shape == (fam.n,)
    assert np.all(np.abs(lam - oracle) <= 1e-13 * np.maximum(1.0, np.abs(oracle)))
    assert coords.degenerate == ((-fam.b,) if pinned else ())
    assert lam[-1] == -fam.b or not pinned


@pytest.mark.parametrize("fam", [FAMH2, FAMH3], ids=["H2", "H3"])
def test_far_hyperbolic_points_match_secular_oracle(fam):
    """Points at distance r = 2 ... 8 from the origin of H^n.  diag(a) - w w^T
    has norm about x . x there, so a backward-stable eigensolver is off by
    a few eps x . x; the gate is 2 eps x . x relative."""
    rng = np.random.default_rng(37)
    for r in (2.0, 4.0, 6.0, 8.0):
        for _ in range(10):
            u = rng.normal(size=fam.n)
            x = np.concatenate(([np.cosh(r)], np.sinh(r) * u / np.linalg.norm(u)))
            lam = np.asarray(confocal_parameters(fam, x).lam)
            oracle = np.asarray(_secular_oracle(fam, x))
            gate = 2.0 * np.finfo(float).eps * (x @ x)
            assert np.all(np.abs(lam - oracle) <= gate * np.maximum(1.0, np.abs(oracle)))


def test_euclidean_coordinates_and_points_bitwise():
    """E^3 and E^4 coordinates are eigvalsh(diag(a) - x x^T) to the bit.
    E^2 ones come in closed form, and are held to 50 digits instead, more
    tightly than eigvalsh's eps |x|^2: the hyperbola within 4 ulp of
    a1 + a2, the ellipse within 4 ulp of max(a1 + a2, |lam|).  Every
    point_from_parameters output is Jacobi's product with its denominators
    built anew per call, to the bit, on every model."""
    rng = np.random.default_rng(31)
    for fam in (FAM3, FAM4):
        for _ in range(200):
            x = random_interior_point(fam, rng)
            roots = np.linalg.eigvalsh(np.diag(fam.a) - np.outer(x, x))
            assert confocal_parameters(fam, x).lam == tuple(sorted(roots.tolist(), reverse=True))
    scale = sum(FAM2.a)
    for size in (1.0, 1e2, 1e5, 1e11):
        for _ in range(50):
            x = size * random_interior_point(FAM2, rng)
            hyp, ell = confocal_parameters(FAM2, x).lam
            with mpmath.workdps(50):
                u, v = (mpmath.mpf(t) for t in x)
                tr = scale - u * u - v * v
                root = mpmath.sqrt(tr * tr / 4 - (4 - u * u) * (1 - v * v) + u * u * v * v)
                assert abs(hyp - (tr / 2 + root)) <= 4 * _EPS * scale
                assert abs(ell - (tr / 2 - root)) <= 4 * _EPS * max(scale, abs(ell))
    for fam in (FAM2, FAM3, FAM4, FAMS2, FAMS3, FAMH2, FAMH3):
        d = np.array([-fam.geometry.kappa * fam.b, *fam.a] if fam.b else fam.a)
        sig = fam.geometry.eta
        lams, signs, points = [], [], []
        for _ in range(200):
            coords = confocal_parameters(fam, random_interior_point(fam, rng))
            gaps = d[:, None] - d
            np.fill_diagonal(gaps, 1.0)
            squares = sig[0] * sig * (np.prod(d[:, None] - np.asarray(coords.lam), axis=1)
                                      / np.prod(gaps, axis=1))
            x = np.asarray(coords.signs, dtype=float) * np.sqrt(np.clip(squares, 0.0, None))
            x[0] = abs(x[0]) if fam.geometry.kappa < 0 else x[0]
            assert np.array_equal(point_from_parameters(fam, coords), x)
            lams.append(coords.lam), signs.append(coords.signs), points.append(x)
        # the same outputs stacked, one row of signs per point
        assert np.array_equal(point_from_parameters(fam, lams, signs=signs), points)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_planar_coordinates_on_floats_match_a_stack():
    """One point's Python floats give its row of the stacked call, to the
    bit, and both give the roots in the order of the formulas they replaced:
    the larger and the smaller of a2 + g and a2 - c y^2 / g, by np.maximum
    and np.minimum.  Rows at a focus (g = 0: (5, 0) for c = 25), with h = 0
    ((3, 4) and (4, -3)), on either axis, and from 1e-3 to 1e5 out."""
    rng = np.random.default_rng(59)
    for a1, a2 in ((4.0, 1.0), (26.0, 1.0), (3.0, 2.0)):
        c = a1 - a2
        pts = rng.normal(size=(400, 2)) * 10.0 ** rng.uniform(-3.0, 5.0, size=(400, 1))
        pts[::5, 1] = 0.0
        pts[1::7, 0] = 0.0
        pts[2::9] = (np.sqrt(c), 0.0)
        pts[3::9] = (-np.sqrt(c), -0.0)
        pts[4::11] = (3.0, 4.0)
        pts[5::11] = (4.0, -3.0)
        x, y = pts.T
        h, cy2 = 0.5 * (c - x * x - y * y), c * y * y
        g = np.copysign(abs(h) + np.sqrt(h * h + cy2), h)
        near, far = a2 + g, a2 - cy2 / (g + (g == 0.0))
        assert (g < 0.0).any() and (g > 0.0).any() and (y == 0.0).any()
        assert c != 25.0 or ((g == 0.0).any() and (h == 0.0).any())
        hyp, ell = planar_coordinates(a1, a2, x, y)
        assert _bits(hyp) == _bits(np.maximum(near, far))
        assert _bits(ell) == _bits(np.minimum(near, far))
        for k, (u, v) in enumerate(pts.tolist()):
            one = planar_coordinates(a1, a2, u, v)
            assert [type(r) for r in one] == [float, float]
            assert _bits(one) == _bits((hyp[k], ell[k]))


@pytest.mark.parametrize("fam", [FAM2, FAM3, FAM4, FAMS2, FAMS3, FAMH2, FAMH3],
                         ids=["E2", "E3", "E4", "S2", "S3", "H2", "H3"])
def test_one_parameter_set_is_its_stack_row(fam):
    """point_from_parameters and jacobi_squares on one parameter set (Python
    floats) give that row of a stacked call, to the bit, with one sign per
    coordinate for every row or one row of signs per point.  Parameters of
    points with one zero coordinate put a factor D_j - lam_k at 0."""
    rng = np.random.default_rng(67)
    m = fam.geometry.ambient_dim
    pts = [random_interior_point(fam, rng) for _ in range(40)]
    for k, x in enumerate(pts[:m]):
        x[k] = 0.0
        pts[k] = _onto_model(fam, x)
    lams = np.array([confocal_parameters(fam, x).lam for x in pts])
    rows = rng.choice([-1, 1], size=(len(pts), m))
    stacked = jacobi_squares(fam.poles, lams, fam.denominators)
    for signs in (rows[0], rows):
        stack = point_from_parameters(fam, lams, signs=signs)
        for k, lam in enumerate(lams.tolist()):
            one = point_from_parameters(fam, lam, signs=rows[k] if signs is rows else signs)
            assert _bits(one) == _bits(stack[k])
    for k, lam in enumerate(lams.tolist()):
        squares = jacobi_squares(fam.poles, lam, fam.denominators)
        assert {type(v) for v in squares} == {float}
        assert _bits(squares) == _bits(stacked[k])


@pytest.mark.parametrize("fam, x", [
    (FAM2, [np.nan, 1.0]), (FAM2, [np.inf, 1.0]), (FAM2, [1.0, -np.inf]), (FAM2, [1e200, 1.0]),
    (FAM3, [0.5, np.nan, 0.2]), (FAM3, [1e200, 1e200, 0.0]), (FAMS2, [np.nan, 0.6, 0.8]),
    (FAMH2, [np.inf, 1.0, 0.0]), (FAMH2, [1e200, 1e200, 0.0])],
    ids=["E2-nan", "E2-inf", "E2-neg-inf", "E2-1e200", "E3-nan", "E3-1e200", "S2-nan",
         "H2-inf", "H2-1e200"])
def test_non_finite_points_are_refused_on_every_model(fam, x):
    """nan, +-inf and an x . x that overflows are on no model: NotOnModel,
    with no warning, where E^n returned (nan, nan) or (1.0, -inf)."""
    with pytest.raises(NotOnModel):
        confocal_parameters(fam, x)


def test_non_finite_parameters_are_refused():
    """A nan or +-inf parameter raises InvalidParameters, alone or in a
    stack; nan slipped past the negative-square test to [nan, nan]."""
    for lam in ((2.0, np.nan), (np.inf, 0.5), (2.0, -np.inf), (np.nan, np.nan)):
        with pytest.raises(InvalidParameters):
            point_from_parameters(FAM2, lam)
        with pytest.raises(InvalidParameters):
            point_from_parameters(FAM2, [(2.0, 0.5), lam])
    with pytest.raises(InvalidParameters):
        point_from_parameters(FAMS3, (2.5, 1.7, np.nan))


def test_signs_of_another_shape_are_refused():
    """Signs take one point's shape, or the stack's: (-1,) negated every
    coordinate, and three signs on E^2 raised numpy's ValueError."""
    lam = (2.0, 0.5)
    for signs in ((-1,), (-1, 1, 1), [(1, 1), (1, 1)], ()):
        with pytest.raises(InvalidParameters):
            point_from_parameters(FAM2, lam, signs=signs)
    stack = [lam, (2.5, 0.2), (3.0, -1.0)]
    for signs in ((-1,), [(1, 1), (1, -1)], [(1, 1, 1)] * 3):
        with pytest.raises(InvalidParameters):
            point_from_parameters(FAM2, stack, signs=signs)
    with pytest.raises(InvalidParameters):
        point_from_parameters(FAMH2, (0.7, 0.2), signs=(1, -1))
    assert np.array_equal(point_from_parameters(FAM2, stack, signs=[(1, 1), (1, -1), (-1, 1)]),
                          point_from_parameters(FAM2, stack) * [(1, 1), (1, -1), (-1, 1)])


@pytest.mark.parametrize("fam", [FAM2, FAMH2], ids=["E2", "H2"])
@pytest.mark.parametrize("size", [1e3, 1e4, 1e5])
def test_far_planar_round_trip(fam, size):
    """point_from_parameters(confocal_parameters(x)) at |x| = 1e3 ... 1e5 on
    E^2 and H^2 (|x| of the spatial part), in directions of
    random_interior_point, away from the axes, within 64 eps |x|.  The
    closed-form ellipse coordinate keeps the a_i - lam that Jacobi's
    product needs; eigvalsh's, off by eps |x|^2, missed by 2.2e-2 (E^2)
    and 0.19 (H^2) at 1e5.  Near an axis the coordinate next to its pole
    holds only eps (a1 + a2) of it, on both."""
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(300):
        u = random_interior_point(FAM2, rng)
        u *= size / np.linalg.norm(u)
        x = u if fam is FAM2 else np.array([np.sqrt(1.0 + u @ u), *u])
        back = point_from_parameters(fam, confocal_parameters(fam, x))
        worst = max(worst, np.max(np.abs(back - x)))
    assert worst <= 64 * _EPS * size


def test_tangent_line_vertex():
    # vertical line x = 2 touches the base ellipse at its vertex
    lam = tangent_parameters_of_line(FAM2, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(lam[0] - 0.0) < 1e-10


def test_tangent_line_through_focus():
    f = np.sqrt(3.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.normal(size=2)
        lam = tangent_parameters_of_line(FAM2, np.array([f, 0.0]), d)
        assert abs(lam[0] - 1.0) < 1e-9


def test_tangent_random_chords():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = random_interior_point(FAM2, rng)
        # scale inside the base ellipse
        x = x * 0.8 / np.sqrt(x[0] ** 2 / 4.0 + x[1] ** 2)
        d = rng.normal(size=2)
        lam = tangent_parameters_of_line(FAM2, x, d)[0]
        assert (0.0 < lam < 1.0) or (1.0 < lam < 4.0)
        # tangency: restricted quadratic has vanishing discriminant
        nu = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        c = nu @ x
        assert abs((4.0 - lam) * nu[0] ** 2 + (1.0 - lam) * nu[1] ** 2 - c * c) < 1e-10


def test_tangent_count_in_space():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = random_interior_point(FAM3, rng)
        d = rng.normal(size=3)
        lams = tangent_parameters_of_line(FAM3, p, d)
        assert len(lams) == 2
        for lv in lams:
            a = np.asarray(FAM3.a)
            qdd = np.sum(d * d / (a - lv))
            qpd = np.sum(p * d / (a - lv))
            qpp = np.sum(p * p / (a - lv)) - 1.0
            assert abs(qpd * qpd - qdd * qpp) < 1e-8


def test_tangent_count_in_four_space():
    rng = np.random.default_rng(19)
    for _ in range(50):
        p = random_interior_point(FAM4, rng)
        lams = tangent_parameters_of_line(FAM4, p, rng.normal(size=4))
        assert len(lams) == 3
        assert lams == sorted(lams)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_tangent_near_pole(side):
    """Lines tangent to the lam-member for lam = a_3 - delta (ellipsoid) and
    a_3 + delta (one-sheeted hyperboloid), delta down to 1e-8, give back lam."""
    a = np.asarray(FAM3.a)
    rng = np.random.default_rng(17)
    for k in range(1, 9):
        lam = a[2] + side * 10.0 ** -k
        for _ in range(5):
            # x_i = sqrt|a_i - lam| u_i lies on the member iff
            # u_1^2 + u_2^2 -+ u_3^2 = 1
            u = rng.normal(size=3)
            if side > 0:
                u[:2] *= np.sqrt(1.0 + u[2] ** 2) / np.linalg.norm(u[:2])
            else:
                u /= np.linalg.norm(u)
            x = np.sqrt(np.abs(a - lam)) * u
            g = x / (a - lam)
            d = rng.normal(size=3)
            d -= (d @ g) / (g @ g) * g
            lams = tangent_parameters_of_line(FAM3, x, d)
            assert len(lams) == 2
            assert np.min(np.abs(np.asarray(lams) - lam)) < 1e-12


def _tangency_oracle(a, p, d):
    """Tangency parameters of the line p + t d to 50 digits: the roots of
    its discriminant with denominators cleared and prod_k (a_k - lam)
    divided out, sum_i d_i^2 P_i - sum_{i<j} (p_i d_j - p_j d_i)^2 P_ij,
    where P_S is prod_k (a_k - lam) over k not in S."""
    n = len(a)
    with mpmath.workdps(50):
        a, p, d = ([mpmath.mpf(float(v)) for v in w] for w in (a, p, d))

        def prod_without(*skip):
            c = [mpmath.mpf(1)]  # highest degree first, padded to degree n-1
            for k in range(n):
                if k not in skip:
                    c = [a[k] * y - x for x, y in zip(c + [0], [0] + c)]
            return [0] * (n - len(c)) + c

        q = [mpmath.mpf(0)] * n
        for i in range(n):
            q = [s + d[i] ** 2 * t for s, t in zip(q, prod_without(i))]
            for j in range(i + 1, n):
                w = (p[i] * d[j] - p[j] * d[i]) ** 2
                q = [s - w * t for s, t in zip(q, prod_without(i, j))]
        roots = mpmath.polyroots(q, maxsteps=200, extraprec=200)
        return sorted(float(mpmath.re(r)) for r in roots)


@pytest.mark.parametrize("fam", [FAM3, FAM4], ids=["n3", "n4"])
def test_tangent_parameters_match_oracle(fam):
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_interior_point(fam, rng)
        d = rng.normal(size=fam.n)
        lams = tangent_parameters_of_line(fam, p, d)
        oracle = _tangency_oracle(fam.a, p, d)
        assert len(lams) == len(oracle) == fam.n - 1
        assert np.max(np.abs(np.asarray(lams) - oracle)) < 1e-12


def test_tangent_zero_direction():
    with pytest.raises(InvalidParameters):
        tangent_parameters_of_line(FAM3, np.ones(3), np.zeros(3))


@pytest.mark.parametrize("p, d", [([np.nan, 1.0, 0.0], [1.0, 0.0, 0.0]),
                                  ([1.0, 1.0, 0.0], [np.nan, 0.0, 0.0]),
                                  ([1.0, -np.inf, 0.0], [1.0, 0.0, 0.0]),
                                  ([1e200, 0.0, 0.0], [0.0, 1.0, 0.0])])
def test_tangent_refuses_non_finite_lines(p, d):
    """A NaN base point gave NaN parameters, a NaN direction a finite but
    meaningless one; both, and a point whose p . p overflows, are refused."""
    with pytest.raises(InvalidParameters, match="finite"):
        tangent_parameters_of_line(FAM3, p, d)


def test_geodesic_distance_basics():
    assert geodesic_distance(euclidean(2), (0.0, 0.0), (3.0, 4.0)) == 5.0
    assert abs(geodesic_distance(spherical(2), (1, 0, 0), (0, 1, 0)) - np.pi / 2) < 1e-14
    x = np.array([np.sqrt(2.0), 0.0, 1.0])
    assert geodesic_distance(hyperbolic(2), x, x) == 0.0


def test_ivory_boxes_all_geometries():
    for fam in ALL_FAMS:
        rng = np.random.default_rng(17)
        for _ in range(25):
            x1 = random_interior_point(fam, rng)
            x2 = random_interior_point(fam, rng)
            l1 = confocal_parameters(fam, x1).lam
            l2 = confocal_parameters(fam, x2).lam
            intervals = [tuple(sorted((l1[k], l2[k]), reverse=True))
                         for k in range(fam.n)]
            rep = ivory_parallelepiped_check(fam, intervals)
            assert rep["spread"] < 1e-8
            assert rep["passed"]


def test_parallelepiped_vertices_are_corner_points():
    """The stacked corners are point_from_parameters of each corner to the
    bit, in np.ndindex order, and each diagonal joins corner bits to its
    opposite, as before the corners were stacked."""
    rng = np.random.default_rng(41)
    for fam in ALL_FAMS + [FAM4, FAMS3, FAMH3]:
        for _ in range(10):
            l1, l2 = (confocal_parameters(fam, random_interior_point(fam, rng)).lam
                      for _ in range(2))
            intervals = [tuple(sorted(pair, reverse=True)) for pair in zip(l1, l2)]
            signs = tuple(rng.choice([-1, 1], size=fam.geometry.ambient_dim))
            rep = ivory_parallelepiped_check(fam, intervals, signs=signs)
            assert list(rep["vertices"]) == list(np.ndindex(*(2,) * fam.n))
            for bits, v in rep["vertices"].items():
                lam = tuple(intervals[k][bits[k]] for k in range(fam.n))
                assert np.array_equal(v, point_from_parameters(fam, lam, signs=signs))
            expect = [geodesic_distance(fam.geometry, v, rep["vertices"][tuple(1 - b for b in bits)])
                      for bits, v in rep["vertices"].items() if bits[0] == 0]
            # one ulp apart at most: a stack sums by rows where a pair takes BLAS dot
            assert np.allclose(rep["diagonals"], expect, rtol=1e-15, atol=0.0)
            assert rep["spread"] == max(rep["diagonals"]) - min(rep["diagonals"])


def test_ivory_named_example():
    rep = ivory_parallelepiped_check(FAM2, [(2.5, 1.5), (0.5, 0.2)])
    assert rep["spread"] < 1e-9


def test_ivory_circle_family():
    fam = ConfocalFamily(euclidean(2), (2.0, 2.0))
    rep = ivory_parallelepiped_check(fam, [(-2.0, 0.5), (0.3, 1.2)])
    assert rep["spread"] < 1e-12
