"""Liouville and Stackel metrics: separable geodesics and the Ivory property.

A Stackel metric on a coordinate box is given by an n x n matrix M(q) whose
row i depends only on q_i.  Each row is stored as data: u_i(t) =
num_i(t) / den_i(t), a table of n numerator polynomials (one per column)
over one denominator polynomial, all coefficients from high to low degree
as in np.polyval.  The derivative tables are taken once, at construction.

Everything follows from M^{-1} (indices from 0):

    ds^2 = sum_i g_i dq_i^2,          g_i = 1 / (M^{-1})_0i,
    alpha = (1/2) M^{-1} (p_0^2, ..., p_{n-1}^2),   alpha_0 = H,
    dH/dq_i = -(M^{-1})_0i u_i'(q_i) . alpha,

the last because only row i of M depends on q_i.  The Hamilton-Jacobi
equation separates: p_i^2 = h_i(q_i, alpha) = 2 u_i(q_i) . alpha.  Geodesics
between opposite corners of a coordinate box are found by solving the n-1
quadrature constraints for alpha_1..alpha_{n-1} (alpha_0 = 1/2 for unit
speed); the quadrature of column 0 is the length.  All 2^(n-1) great
diagonals of a box share the same alpha and have equal lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy

from .errors import (
    InvalidParameters,
    NoMonotoneDiagonal,
    SingularStaeckelMatrix,
    SolverDiverged,
)
from .geometry import Geometry, euclidean, spherical

# M is refused as singular when its condition number, after scaling each
# column to unit max-norm, reaches 1/eps: a test that does not depend on
# the scale of the metric's parameters or coordinates, as |det M| does
_COND_MAX = 1.0 / np.finfo(float).eps


def _table(polys) -> np.ndarray:
    """Coefficient sequences (high to low) left-padded with zeros to one
    length, one per row of the result."""
    polys = [np.atleast_1d(np.asarray(p, dtype=float)) for p in polys]
    k = max(len(p) for p in polys)
    return np.array([np.pad(p, (k - len(p), 0)) for p in polys])


def _polyval(c: np.ndarray, t):
    """Every polynomial of a table at t, by Horner's rule over the last axis."""
    y = 0.0
    for k in range(c.shape[-1]):
        y = y * t + c[..., k]
    return y


def _polyder(c: np.ndarray) -> np.ndarray:
    """Derivative of every polynomial of a table (np.polyder on the last axis)."""
    return c[..., :-1] * np.arange(c.shape[-1] - 1, 0, -1)


@dataclass
class StaeckelMetric:
    """Stackel matrix with rows num_i(q_i) / den_i(q_i), plus a coordinate box.

    `rows` holds one (num, den) pair per row: num is a sequence of n
    coefficient sequences, one per column, den a single one.
    """

    n: int
    rows: Sequence[tuple]
    box: Sequence[tuple]
    name: str = ""
    ambient: Optional[Callable] = None
    ambient_geometry: Optional[Geometry] = None

    def __post_init__(self):
        n = self.n
        if len(self.rows) != n or any(len(num) != n for num, _ in self.rows):
            raise InvalidParameters("Stackel matrix must be n x n")
        if len(self.box) != n:
            raise InvalidParameters("need one box interval per coordinate")
        # num[i, j, :] and den[i, 0, :]: the singleton axis lets a row's
        # denominator broadcast over its columns
        self.num = _table([col for num, _ in self.rows for col in num]).reshape(n, n, -1)
        self.den = _table([den for _, den in self.rows])[:, None, :]
        self.dnum, self.dden = _polyder(self.num), _polyder(self.den)

    def _entries(self, t, i=slice(None), deriv=False):
        """Entries of row(s) i at t (columns on the last axis) and, with
        deriv, their t-derivatives by the quotient rule."""
        d = _polyval(self.den[i], t)
        u = _polyval(self.num[i], t) / d
        if not deriv:
            return u
        return u, (_polyval(self.dnum[i], t) - u * _polyval(self.dden[i], t)) / d

    def matrix(self, q) -> np.ndarray:
        return self._entries(np.asarray(q, dtype=float)[:, None])

    def row(self, i: int, qi) -> np.ndarray:
        """Row i at q_i; for an array of q_i the columns go last."""
        return self._entries(np.asarray(qi, dtype=float)[..., None], i)

    def row_deriv(self, i: int, qi) -> np.ndarray:
        return self._entries(np.asarray(qi, dtype=float)[..., None], i, deriv=True)[1]

    def h(self, i: int, qi, alpha):
        return 2.0 * (self.row(i, qi) @ alpha)

    def random_box(self, rng, max_span: float = 0.4):
        """A random coordinate sub-box of the metric's box (moderate spans,
        so that chord initial guesses stay in the convergence basin)."""
        out = []
        for lo, hi in self.box:
            span = rng.uniform(0.1, max_span) * (hi - lo)
            a = rng.uniform(lo, hi - span)
            out.append((a, a + span))
        return out


@dataclass(frozen=True)
class LiouvilleMetric:
    """Planar metric (u1 - u2)(v1 dq1^2 + v2 dq2^2); each of u1, u2, v1, v2
    is a (num, den) pair of coefficient sequences."""

    u1: tuple
    u2: tuple
    v1: tuple
    v2: tuple
    box: Sequence[tuple]

    def to_staeckel(self) -> StaeckelMetric:
        (n1, d1), (n2, d2) = self.u1, self.u2
        (m1, e1), (m2, e2) = self.v1, self.v2
        # rows (u1 v1, v1) and -(u2 v2, v2), each over its own denominator
        rows = [([np.convolve(n1, m1), np.convolve(d1, m1)], np.convolve(d1, e1)),
                ([-np.convolve(n2, m2), -np.convolve(d2, m2)], np.convolve(d2, e2))]
        return StaeckelMetric(2, rows, self.box, name="liouville")


@dataclass
class SeparationData:
    """Separation constants and sign pattern of a monotone geodesic leg."""

    metric: StaeckelMetric
    alpha: np.ndarray
    signs: np.ndarray

    def h(self, i: int, qi: float) -> float:
        return self.metric.h(i, qi, self.alpha)

    def momentum(self, q) -> np.ndarray:
        return np.array([self.signs[i] * np.sqrt(max(self.h(i, q[i]), 0.0))
                         for i in range(self.metric.n)])


def _inverse(M: np.ndarray, q) -> np.ndarray:
    """M^{-1}, or SingularStaeckelMatrix (1-norm condition number)."""
    scale = np.max(np.abs(M), axis=0)
    Ms = M / np.where(scale > 0.0, scale, 1.0)
    try:
        Minv = np.linalg.inv(Ms)
        cond = np.abs(Ms).sum(axis=0).max() * np.abs(Minv).sum(axis=0).max()
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond < _COND_MAX:
        raise SingularStaeckelMatrix(f"singular Stackel matrix at q = {q}")
    return Minv / scale[:, None]


def metric_coeffs(metric: StaeckelMetric, q) -> np.ndarray:
    return 1.0 / _inverse(metric.matrix(q), q)[0]


def integrals_alpha(metric: StaeckelMetric, q, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return 0.5 * (_inverse(metric.matrix(q), q) @ (p * p))


def hamiltonian(metric: StaeckelMetric, q, p) -> float:
    return float(integrals_alpha(metric, q, p)[0])


def _hamilton_field(metric: StaeckelMetric, q, p):
    """(dq/dt, dp/dt) = (dH/dp, -dH/dq), both through one M^{-1}."""
    M, dM = metric._entries(q[:, None], deriv=True)
    Minv = _inverse(M, q)
    alpha = 0.5 * (Minv @ (p * p))
    return Minv[0] * p, Minv[0] * (dM @ alpha)


# ---------------------------------------------------------------------------
# separable quadratures


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _leg_integrals(metric: StaeckelMetric, i: int, a: float, b: float,
                   alpha) -> np.ndarray:
    """Integrals of u_ij / sqrt(h_i) over [a, b], for every column j at
    once, robust to square-root vanishing of h_i at either endpoint (the
    substitution q = end +/- s^2 on each half turns the inverse-square-root
    singularity into a smooth integrand, then fixed-order Gauss-Legendre;
    both halves share the nodes s)."""
    smax = np.sqrt(0.5 * (b - a))
    s = 0.5 * smax * (_GL_NODES + 1.0)
    w = np.tile(smax * s * _GL_WEIGHTS, 2)
    U = metric.row(i, np.concatenate([a + s * s, b - s * s]))
    return (w / np.sqrt(np.maximum(2.0 * (U @ alpha), 1e-300))) @ U


def _min_h_inside(metric: StaeckelMetric, i: int, a: float, b: float, alpha) -> float:
    return float(np.min(metric.h(i, np.linspace(a, b, 64), alpha)))


def _chord_alpha(metric: StaeckelMetric, c0, c1) -> np.ndarray:
    """Initial guess: momenta of the straight coordinate chord at the box
    midpoint, rescaled to energy 1/2."""
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    qm = 0.5 * (c0 + c1)
    g = metric_coeffs(metric, qm)
    v = c1 - c0
    p = g * v
    alpha = integrals_alpha(metric, qm, p)
    if alpha[0] <= 0:
        raise SolverDiverged("chord guess has nonpositive energy")
    return alpha * (0.5 / alpha[0])


def geodesic_between(metric: StaeckelMetric, corner0, corner1,
                     residual_tol: float = 1e-9, max_iter: int = 60) -> dict:
    """Geodesic joining opposite corners of a coordinate box, monotone in
    every coordinate, via the separation constants."""
    c0 = np.asarray(corner0, dtype=float)
    c1 = np.asarray(corner1, dtype=float)
    n = metric.n
    if np.allclose(c0, c1):
        return {"alpha": None, "signs": np.ones(n), "length": 0.0,
                "residual": 0.0, "separation": None}
    if np.any(c0 == c1):
        raise InvalidParameters("corners must differ in every coordinate")
    lo = np.minimum(c0, c1)
    hi = np.maximum(c0, c1)
    signs = np.sign(c1 - c0)

    def quadratures(bv):
        # column 0 is the length, columns 1.. are the residuals
        al = np.concatenate([[0.5], bv])
        return sum(_leg_integrals(metric, i, lo[i], hi[i], al) for i in range(n))

    beta = _chord_alpha(metric, c0, c1)[1:]
    Q = quadratures(beta)
    for _ in range(max_iter):
        F = Q[1:]
        if np.max(np.abs(F), initial=0.0) < residual_tol * 1e-2:
            break
        J = np.empty((n - 1, n - 1))
        for k in range(n - 1):
            hstep = 1e-7 * max(1.0, abs(beta[k]))
            bp = beta.copy(); bp[k] += hstep
            J[:, k] = (quadratures(bp)[1:] - F) / hstep
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise SolverDiverged("singular quadrature Jacobian") from exc
        lam = 1.0
        for _ in range(30):
            bn = beta + lam * step
            Qn = quadratures(bn)
            if np.linalg.norm(Qn[1:]) < np.linalg.norm(F):
                beta, Q = bn, Qn
                break
            lam *= 0.5
        else:
            alpha_cur = np.concatenate([[0.5], beta])
            if any(_min_h_inside(metric, i, lo[i], hi[i], alpha_cur) < 0.0
                   for i in range(n)):
                raise NoMonotoneDiagonal(
                    "no monotone diagonal: h_i turns negative inside a leg")
            raise SolverDiverged("line search failed in separation solver")
    resid = float(np.max(np.abs(Q[1:]), initial=0.0))
    if resid > residual_tol:
        raise SolverDiverged(f"separation residual {resid} > {residual_tol}")
    alpha = np.concatenate([[0.5], beta])
    for i in range(n):
        inner = _min_h_inside(metric, i, lo[i], hi[i], alpha)
        if inner < -1e-12:
            raise NoMonotoneDiagonal(f"h_{i} vanishes inside the leg")
        # a double root of h_i at an endpoint makes the approach asymptotic
        # (logarithmically divergent time); refuse to integrate through it
        for end in (lo[i], hi[i]):
            if abs(metric.h(i, end, alpha)) < 1e-12:
                dh = 2.0 * float(metric.row_deriv(i, end) @ alpha)
                if abs(dh) < 1e-10:
                    raise NoMonotoneDiagonal(
                        f"h_{i} has a double root at the endpoint {end}")
    return {"alpha": alpha, "signs": signs, "length": float(abs(Q[0])),
            "residual": resid,
            "separation": SeparationData(metric, alpha, signs)}


def ivory_check(metric: StaeckelMetric, box, tol: float = 1e-8) -> dict:
    """Separation constants and lengths of the 2^(n-1) great diagonals of
    the box, and the spread of the lengths.

    One boundary-value problem serves every diagonal.  The separated
    quadratures see a diagonal only through the intervals [lo_i, hi_i],
    not through the corner it starts from, so all great diagonals share
    alpha and the length: Ivory's lemma in Stackel form.  Each diagonal
    still gets its own entry in `lengths` and `alphas`.
    """
    sol = geodesic_between(metric, [b[0] for b in box], [b[1] for b in box])
    k = 2 ** (metric.n - 1)
    spread = 0.0    # the lengths are one number
    return {"lengths": [sol["length"]] * k, "alphas": [sol["alpha"]] * k,
            "spread": spread, "passed": spread < tol}


# ---------------------------------------------------------------------------
# billiards in coordinate boxes


def staeckel_billiard_trajectory(metric: StaeckelMetric, walls, q0, p0,
                                 bounces: int, rtol: float = 1e-12) -> dict:
    """Billiard in the coordinate box `walls`: free geodesic motion with
    sign flips of p_i at the walls q_i = const.  Simultaneous wall hits
    (corners) are resolved by composing the reflections."""
    n = metric.n
    q = np.asarray(q0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    alpha0 = integrals_alpha(metric, q, p)

    def rhs(t, y):
        return np.concatenate(_hamilton_field(metric, y[:n], y[n:]))

    events = []
    for i in range(n):
        for side in range(2):
            def ev(t, y, i=i, side=side):
                return y[i] - walls[i][side]
            ev.terminal = True
            events.append(ev)

    t_total = 0.0
    bounce_times = []
    states = [(0.0, q.copy(), p.copy())]
    corner_hits = 0
    done = 0
    t_eps = 1e-7
    while done < bounces:
        y0 = np.concatenate([q, p])
        if done > 0:
            # leave the wall before re-arming the terminal events, so the
            # just-resolved reflection does not retrigger at time zero
            burn = scipy.integrate.solve_ivp(rhs, (0.0, t_eps), y0,
                                             method="DOP853", rtol=rtol, atol=1e-14)
            y0 = burn.y[:, -1]
            t_total += t_eps
        sol = scipy.integrate.solve_ivp(rhs, (0.0, 1e6), y0, method="DOP853",
                                        events=events, rtol=rtol, atol=1e-14,
                                        dense_output=False)
        hit_times = [ev[0] for ev in sol.t_events if len(ev)]
        if not hit_times:
            raise SolverDiverged("no wall hit found")
        t_hit = min(hit_times)
        y = sol.y[:, -1]
        q, p = y[:n].copy(), y[n:].copy()
        flipped = []
        for i in range(n):
            for side in range(2):
                ev_t = sol.t_events[2 * i + side]
                if len(ev_t) and abs(ev_t[0] - t_hit) < 1e-9:
                    if i not in flipped:
                        flipped.append(i)
                    q[i] = walls[i][side]
        for i in flipped:
            p[i] = -p[i]
        if len(flipped) > 1:
            corner_hits += 1
        t_total += t_hit
        bounce_times.append(t_total)
        states.append((t_total, q.copy(), p.copy()))
        done += 1
    alpha1 = integrals_alpha(metric, q, p)
    return {"q": q, "p": p, "time": t_total, "bounce_times": bounce_times,
            "states": states, "alpha_start": alpha0, "alpha_end": alpha1,
            "alpha_drift": float(np.max(np.abs(alpha1 - alpha0))),
            "corner_hits": corner_hits}


# ---------------------------------------------------------------------------
# builtin metrics


def builtin_metric(name: str, params) -> StaeckelMetric:
    """Named Stackel metrics with analytic entries and ambient models.

    names: elliptic_R2(a, b); ellipsoidal_R3(a, b, c);
    spheroconical_R3(a, b, c); ellipsoid_intrinsic(a, b, c);
    sphere_conical(a, b, c).
    """
    if name == "elliptic_R2":
        a, b = map(float, params)
        if not a > b > 0:
            raise InvalidParameters("need a > b > 0")
        # both rows (t, 1) / 4(a-t)(t-b)
        rows = [(np.eye(2), -4.0 * np.poly([a, b]))] * 2
        m = 0.02 * (a - b)
        box = [(b + m, a - m), (b - (a - b), b - m)]

        def ambient(q):
            lam, mu = q
            x = np.sqrt((a - lam) * (a - mu) / (a - b))
            y = np.sqrt((lam - b) * (b - mu) / (a - b))
            return np.array([x, y])

        return StaeckelMetric(2, rows, box, name=name, ambient=ambient,
                              ambient_geometry=euclidean(2))

    if name in ("ellipsoidal_R3", "spheroconical_R3", "ellipsoid_intrinsic",
                "sphere_conical"):
        a, b, c = map(float, params)
        if not a > b > c > 0:
            raise InvalidParameters("need a > b > c > 0")
        hpoly = -4.0 * np.poly([a, b, c])   # 4(a-t)(b-t)(c-t)
        m1 = 0.02 * (a - b)
        m2 = 0.02 * (b - c)

        if name == "ellipsoidal_R3":
            # every row (t^2, t, 1) / h
            rows = [(np.eye(3), hpoly)] * 3
            box = [(b + m1, a - m1), (c + m2, b - m2), (c - (b - c), c - m2)]

            def ambient(q):
                lam, mu, nu = q
                x2 = (a - lam) * (a - mu) * (a - nu) / ((a - b) * (a - c))
                y2 = (b - lam) * (b - mu) * (b - nu) / ((b - a) * (b - c))
                z2 = (c - lam) * (c - mu) * (c - nu) / ((c - a) * (c - b))
                return np.sqrt(np.array([x2, y2, z2]))

            return StaeckelMetric(3, rows, box, name=name, ambient=ambient,
                                  ambient_geometry=euclidean(3))

        if name == "spheroconical_R3":
            # rows (1, -1/r^2, 0) and (0, t, 1) / h, twice
            rows = [([[1.0, 0.0, 0.0], [-1.0], [0.0]], [1.0, 0.0, 0.0])] \
                + [([[0.0], [1.0, 0.0], [1.0]], hpoly)] * 2
            box = [(0.6, 1.8), (b + m1, a - m1), (c + m2, b - m2)]

            def ambient(q):
                r, lam, mu = q
                x2 = (a - lam) * (a - mu) / ((a - b) * (a - c))
                y2 = (b - lam) * (b - mu) / ((b - a) * (b - c))
                z2 = (c - lam) * (c - mu) / ((c - a) * (c - b))
                return r * np.sqrt(np.array([x2, y2, z2]))

            return StaeckelMetric(3, rows, box, name=name, ambient=ambient,
                                  ambient_geometry=euclidean(3))

        box = [(b + m1, a - m1), (c + m2, b - m2)]
        if name == "ellipsoid_intrinsic":
            # both rows (t^2, t) / h
            rows = [(np.eye(3)[:2], hpoly)] * 2

            def ambient(q):
                lam, mu = q
                x2 = a * (a - lam) * (a - mu) / ((a - b) * (a - c))
                y2 = b * (b - lam) * (b - mu) / ((b - a) * (b - c))
                z2 = c * (c - lam) * (c - mu) / ((c - a) * (c - b))
                return np.sqrt(np.array([x2, y2, z2]))

            return StaeckelMetric(2, rows, box, name=name, ambient=ambient,
                                  ambient_geometry=euclidean(3))

        # sphere_conical: both rows (t, 1) / h
        rows = [(np.eye(2), hpoly)] * 2

        def ambient(q):
            lam, mu = q
            x2 = (a - lam) * (a - mu) / ((a - b) * (a - c))
            y2 = (b - lam) * (b - mu) / ((b - a) * (b - c))
            z2 = (c - lam) * (c - mu) / ((c - a) * (c - b))
            return np.sqrt(np.array([x2, y2, z2]))

        return StaeckelMetric(2, rows, box, name=name, ambient=ambient,
                              ambient_geometry=spherical(2))

    raise InvalidParameters(f"unknown builtin metric {name!r}")


def induced_metric_on_face(metric: StaeckelMetric, i: int, c: float) -> StaeckelMetric:
    """Restriction of a Stackel metric to the coordinate hypersurface
    q_i = c, again in Stackel form.

    Setting p_i = 0 constrains sum_k u_ik(c) alpha_k = 0; eliminating one
    alpha_k (k >= 1 with u_ik(c) != 0) from the remaining rows produces an
    (n-1) x (n-1) Stackel matrix whose coefficients reproduce the ambient
    g_jj restricted to the face.  Each new entry is a numerator
    combination over its row's own denominator.
    """
    n = metric.n
    if not 0 <= i < n:
        raise InvalidParameters("row index out of range")
    lo, hi = metric.box[i]
    if not lo <= c <= hi:
        raise InvalidParameters("face value outside the box")
    row_c = metric.row(i, c)
    nonzero = np.flatnonzero(np.abs(row_c[1:]) > 1e-12)
    if not nonzero.size:
        raise InvalidParameters("frozen row vanishes in all columns but the first")
    k = nonzero[-1] + 1
    keep = [j for j in range(n) if j != i]
    cols = [j for j in range(n) if j != k]
    num = metric.num[keep]
    num = (num - num[:, [k]] * (row_c / row_c[k])[:, None])[:, cols]
    rows = list(zip(num, metric.den[keep, 0]))
    amb = None
    if metric.ambient is not None:
        def amb(qface, _i=i, _c=c):
            qfull = list(qface)
            qfull.insert(_i, _c)
            return metric.ambient(np.asarray(qfull))
    return StaeckelMetric(n - 1, rows, [metric.box[j] for j in keep],
                          name=f"{metric.name}|q{i}={c}",
                          ambient=amb, ambient_geometry=metric.ambient_geometry)
