"""Liouville and Stackel metrics: separable geodesics and the Ivory property.

A Stackel metric on a coordinate box is given by an n x n matrix M(q) whose
row i depends only on q_i.  Each row is stored as data, u_i(t) = num_i(t)
/ den_i(t): its n numerators (one per column) and its denominator, high to
low degree as in np.polyval, in one table (and one of derivatives) for one
Horner pass.  M^{-1} is the adjugate over the determinant for n <= 3 (LAPACK
beyond), on Python floats, one point at a time: a stack's point by point.
A metric keeps its last few single-point inverses as tuples of rows, keyed
by q's float64 bytes, for a finite-difference stencil (2n+1 positions in
4n^2 calls); one point's alpha and H are float sums over a kept M^{-1}.

Everything follows from M^{-1} (indices from 0):

    ds^2 = sum_i g_i dq_i^2,          g_i = 1 / (M^{-1})_0i,
    alpha = (1/2) M^{-1} (p_0^2, ..., p_{n-1}^2),   alpha_0 = H,
    dH/dq_i = -(M^{-1})_0i u_i'(q_i) . alpha,

the last because only row i of M depends on q_i.  The Hamilton-Jacobi
equation separates: p_i^2 = h_i(q_i, alpha) = 2 u_i(q_i) . alpha.  Geodesics
between opposite corners of a coordinate box are found by solving the n-1
quadrature constraints for alpha_1..alpha_{n-1} (alpha_0 = 1/2 for unit
speed); the quadrature of column 0 is the length.  Its nodes are fixed by
the box: M is evaluated once per solve, at the nodes and scan points as one
stack, and each Newton step, on Python floats, only recombines its rows.
All 2^(n-1) great diagonals of a box share alpha and the length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import eq, le, mul, truediv
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameters,
    NoMonotoneDiagonal,
    SingularStaeckelMatrix,
    SolverDiverged,
)
from .geometry import Geometry, euclidean, jacobi_denominators, jacobi_squares, spherical

# M is refused as singular when its condition number, after scaling each
# column to unit max-norm, reaches 1/eps: a test that does not depend on
# the scale of the metric's parameters or coordinates, as |det M| does
_COND_MAX = 1.0 / np.finfo(float).eps
# single-point inverses a metric keeps, first in first out: at least the
# 2n+1 positions of a central-difference stencil
_MEMO_SIZE = 16


def _polyval(c, t):
    """Every polynomial of a table at t, by Horner's rule over the last axis;
    one list of coefficients takes the same steps on Python floats."""
    y = 0.0
    for ck in c if isinstance(c, list) else (c[..., k] for k in range(c.shape[-1])):
        y = y * t + ck
    return y


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
        # table[i]: row i's n numerators and denominator, left-padded to one
        # length for one Horner pass, with views num and den; dtable holds
        # their derivatives, and _lists both as float lists, row by row
        coeffs = [[np.atleast_1d(np.asarray(p, dtype=float)).tolist() for p in (*num, den)]
                  for num, den in self.rows]
        k = max(len(p) for row in coeffs for p in row)
        self.table = np.array([[[0.0] * (k - len(p)) + p for p in row] for row in coeffs])
        self.num, self.den = self.table[:, :n], self.table[:, n:]
        self.dtable = self.table[..., :-1] * np.arange(k - 1, 0, -1)   # np.polyder
        self._lists = list(zip(self.table.tolist(), self.dtable.tolist()))
        self._memo = {}   # q.tobytes() -> M^{-1}(q) as row tuples, see _inverse_at

    def _coords(self, q) -> np.ndarray:
        """q as float64, refused unless its last axis holds n coordinates."""
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != (self.n,):
            raise InvalidParameters(f"q needs {self.n} coordinates, got shape {q.shape}")
        return q

    def _entries(self, t, i=slice(None), deriv=False):
        """Entries of row(s) i at t (columns on the last axis) or, with
        deriv, their t-derivatives by the quotient rule."""
        with np.errstate(invalid="ignore"):   # t = +/-inf: NaN, refused by _inverse
            P = _polyval(self.table[i], t)
        u = P[..., :-1] / P[..., -1:]
        if not deriv:
            return u
        dP = _polyval(self.dtable[i], t)
        return (dP[..., :-1] - u * dP[..., -1:]) / P[..., -1:]

    def _row(self, i: int, t, deriv=False):
        """`_entries` of row i; at one t, the same steps on Python floats,
        as a list; where den_i(t) = 0, the stacked +/-inf or NaN as a list."""
        if not isinstance(t, float):
            return self._entries(np.asarray(t, dtype=float)[..., None], i, deriv)
        t = float(t)   # np.float64 too
        P = [_polyval(c, t) for c in self._lists[i][0]]
        if P[-1] == 0.0:
            return self._entries(np.array([t]), i, deriv).tolist()
        u = [x / P[-1] for x in P[:-1]]
        if deriv:
            dP = [_polyval(c, t) for c in self._lists[i][1]]
            u = [(x - y * dP[-1]) / P[-1] for x, y in zip(dP[:-1], u)]
        return u

    def matrix(self, q) -> np.ndarray:
        """M(q), or one M per point of a stack q[..., n]; a point is bitwise the same, on floats."""
        q = self._coords(q)
        if q.ndim == 1:
            return np.array([self._row(i, t) for i, t in enumerate(q.tolist())])
        return self._entries(q[..., None])

    def row(self, i: int, qi) -> np.ndarray:
        """Row i at q_i; for an array of q_i the columns go last."""
        return np.asarray(self._row(i, qi))

    def row_deriv(self, i: int, qi) -> np.ndarray:
        return np.asarray(self._row(i, qi, deriv=True))

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


def momentum(metric: StaeckelMetric, alpha, signs, q) -> np.ndarray:
    """p_i = s_i sqrt(h_i(q_i, alpha)), h floored at 0; q may be a stack."""
    return signs * np.sqrt(np.maximum(2.0 * metric.matrix(q).dot(alpha), 0.0))


def _cofactor_inverse(rows):
    """Adjugate over determinant of a matrix of size 3 or less, as lists of
    Python floats by rows; 3 x 3 cofactors taken cyclically.  A zero
    determinant raises ZeroDivisionError."""
    if len(rows) < 2:
        return [[1.0 / a] for (a,) in rows]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        return [[d / det, -b / det], [-c / det, a / det]]
    (a, b, c), (d, e, f), (g, h, k) = rows
    C = [[e * k - f * h, f * g - d * k, d * h - e * g],
         [h * c - k * b, k * a - g * c, g * b - h * a],
         [b * f - c * e, c * d - a * f, a * e - b * d]]
    det = a * C[0][0] + b * C[0][1] + c * C[0][2]
    return [[x / det for x in col] for col in zip(*C)]


def _solve(A: list, b: list) -> list:
    """A^{-1} b on Python floats, by cofactors up to 3 x 3 (1 x 1 by one
    division); ZeroDivisionError or LinAlgError if singular."""
    if len(b) == 1:
        return [b[0] / A[0][0]]
    return [sum(map(mul, r, b)) for r in _cofactor_inverse(A)] if len(b) <= 3 else \
        np.linalg.solve(A, b).tolist()


def _inverse_rows(M: list, q) -> tuple:
    """M^{-1} of M as lists of Python floats by rows, as row tuples, by
    cofactors for n <= 3 (LAPACK beyond); SingularStaeckelMatrix if M is
    singular, not finite, or its column-scaled 1-norm condition is >= 1/eps."""
    scale = [max(map(abs, col)) or 1.0 for col in zip(*M)]
    Ms = [list(map(truediv, row, scale)) for row in M]
    norm = [sum(map(abs, col)) for col in zip(*Ms)]
    try:
        Minv = _cofactor_inverse(Ms) if len(Ms) <= 3 else np.linalg.inv(Ms).tolist()
        norm_inv = [sum(map(abs, col)) for col in zip(*Minv)]
    except (ZeroDivisionError, np.linalg.LinAlgError):
        norm_inv = [np.inf]
    # Python's max skips a NaN, which the sums keep
    if not (max(norm) * max(norm_inv) < _COND_MAX and sum(norm) + sum(norm_inv) < np.inf):
        raise SingularStaeckelMatrix(f"singular Stackel matrix at q = {np.asarray(q)}")
    return tuple([tuple([x / s for x in row]) for row, s in zip(Minv, scale)])


def _inverse(M: np.ndarray, q) -> np.ndarray:
    """`_inverse_rows` of M, or of each matrix of a stack M[..., n, n] in C
    order, refused at the first that is singular."""
    n = M.shape[-1]
    return np.array([_inverse_rows(Mk, qk) for Mk, qk in
                     zip(M.reshape(-1, n, n).tolist(), np.reshape(q, (-1, n)))]).reshape(M.shape)


def _inverse_at(metric: StaeckelMetric, q: np.ndarray) -> tuple:
    """`_inverse_rows` at one point q, kept in the metric's memo unless refused."""
    memo, key = metric._memo, q.tobytes()
    Minv = memo.get(key)
    if Minv is None:
        Minv = _inverse_rows([metric._row(i, t) for i, t in enumerate(q.tolist())], q)
        if len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = Minv
    return Minv


def metric_coeffs(metric: StaeckelMetric, q) -> np.ndarray:
    """g_i(q), or one row per point of a stack q[..., n]."""
    q = metric._coords(q)
    Minv = _inverse(metric.matrix(q), q) if q.ndim > 1 else np.array(_inverse_at(metric, q))
    return 1.0 / Minv[..., 0, :]


def _alpha(metric: StaeckelMetric, q, p, rows=slice(None)):
    """alpha(q, p), one row per point of stacks q, p[..., n]; at one point
    a list of its `rows`, on Python floats from the kept M^{-1}(q)."""
    q, p = metric._coords(q), np.asarray(p, dtype=float)
    if p.shape != q.shape:
        raise InvalidParameters(f"p has shape {p.shape}, q has shape {q.shape}")
    if q.ndim > 1:
        return 0.5 * (_inverse(metric.matrix(q), q) @ (p * p)[..., None])[..., 0]
    p2 = [x * x for x in p.tolist()]
    return [0.5 * sum(map(mul, row, p2)) for row in _inverse_at(metric, q)[rows]]


def integrals_alpha(metric: StaeckelMetric, q, p) -> np.ndarray:
    """alpha(q, p), or one row per point of stacks q, p[..., n]."""
    return np.asarray(_alpha(metric, q, p))


def hamiltonian(metric: StaeckelMetric, q, p):
    """H(q, p) = alpha_0, a float, or an array for stacks q, p[..., n]."""
    alpha = _alpha(metric, q, p, slice(1))
    return alpha[0] if isinstance(alpha, list) else alpha[..., 0]


# ---------------------------------------------------------------------------
# separable quadratures


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)
_GL_FRAC = 0.5 * (_GL_NODES + 1.0)   # the Gauss-Legendre nodes mapped to [0, 1]

# h_i is floored where it is <= 0 (alpha outside the admissible set), high
# enough that h_i^(-3/2) stays finite
_H_FLOOR = 1e-100
# acceptance gate of the separation residual, and the cap on Newton steps
_RESIDUAL_GATE, _MAX_NEWTON = 1e-9, 60
# the line search's step factors 1, 1/2, ..., 2^-29, and the points of the
# box's diagonal where each h_i is scanned for its sign
_HALVINGS, _SCAN = tuple(0.5 ** k for k in range(30)), 64


def _leg_rule(lo, hi) -> tuple:
    """Weights w[m, i] and points q[m] of the leg rule: q = end +/- s^2 about
    either end of each leg [lo_i, hi_i] makes 1/sqrt(h_i) smooth in s, then
    Gauss-Legendre in s on both halves; row i of M(q_m) is u_i at node m."""
    smax = np.sqrt(0.5 * (hi - lo))
    s = smax * _GL_FRAC[:, None]
    w = smax * s * _GL_WEIGHTS[:, None]
    return np.concatenate([w, w]), np.concatenate([lo + s * s, hi - s * s])


def _leg_integrals(w, M, alpha) -> tuple:
    """Q_j = sum_i int u_ij / sqrt(h_i) over the legs, for every column j,
    from the rows of M(q) at the points q of `_leg_rule`, in order, and its
    exact Jacobian: entry (j, k) is -sum_i int u_ij u_ik / h_i^(3/2)."""
    U = M.reshape(-1, M.shape[-1])
    h = np.maximum(2.0 * (U @ alpha), _H_FLOOR)
    f = w.ravel() / np.sqrt(h)
    return f @ U, -(U.T * (f / h)) @ U


def geodesic_between(metric: StaeckelMetric, corner0, corner1) -> dict:
    """Geodesic joining opposite corners of a coordinate box, monotone in
    every coordinate, via the separation constants: Newton on the n-1
    quadrature constraints with their exact Jacobian and a halving line
    search, until a step no longer moves alpha (the residual is then at
    rounding).  M is evaluated once; the Newton loop runs on Python floats."""
    n = metric.n
    c0, c1 = np.asarray(corner0, dtype=float), np.asarray(corner1, dtype=float)
    if c0.shape != (n,) or c1.shape != (n,):
        raise InvalidParameters(f"corners need {n} coordinates each")
    a, b = c0.tolist(), c1.tolist()
    for name, c in (("corner0", a), ("corner1", b)):
        if not all(map(math.isfinite, c)):
            raise InvalidParameters(f"{name} has a non-finite coordinate: {c}")
    if a == b:
        return {"alpha": None, "signs": np.ones(n), "length": 0.0, "residual": 0.0}
    if any(map(eq, a, b)):
        raise InvalidParameters("corners must differ in every coordinate")
    lo, hi = np.minimum(c0, c1), np.maximum(c0, c1)

    # first guess: the momenta of the straight coordinate chord at the box
    # midpoint, rescaled to energy 1/2
    qm = [0.5 * (x + y) for x, y in zip(a, b)]
    Minv = _inverse_rows([metric._row(i, t) for i, t in enumerate(qm)], qm)
    p2 = [v * v for v in [1.0 / m0 * (y - x) for m0, x, y in zip(Minv[0], a, b)]]
    alpha = [0.5 * sum(map(mul, row, p2)) for row in Minv]
    if alpha[0] <= 0:
        raise SolverDiverged("chord guess has nonpositive energy")
    alpha = [0.5] + [x * (0.5 / alpha[0]) for x in alpha[1:]]

    # M at every leg's nodes and at the scan points, from one evaluation,
    # as rows u_i
    w, q = _leg_rule(lo, hi)
    U = metric.matrix(np.concatenate([q, np.linspace(lo, hi, _SCAN)])).reshape(-1, n)
    U, U_scan = U[:-_SCAN * n], U[-_SCAN * n:]

    def integrals(x):
        Q, J = _leg_integrals(w, U, np.array(x))
        return Q.tolist(), J.tolist()

    def fail(why=None):
        """NoMonotoneDiagonal if some h_i < 0 on the scan, else SolverDiverged(why)."""
        if (U_scan @ np.array(alpha)).min() < 0.0:
            raise NoMonotoneDiagonal("no monotone diagonal: h_i turns negative inside a leg")
        if why:
            raise SolverDiverged(why)

    # column 0 of Q is the length, columns 1.. the residuals, which a step
    # must lower in the sum of their squares
    Q, J = integrals(alpha)
    for _ in range(_MAX_NEWTON):
        try:
            step = [0.0, *_solve([r[1:] for r in J[1:]], [-x for x in Q[1:]])]   # alpha_0 stays
        except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
            raise SolverDiverged("singular quadrature Jacobian") from exc
        if not all(map(math.isfinite, step)):
            break
        r2 = sum(x * x for x in Q[1:])
        for lam in _HALVINGS:
            an = [x + lam * dx for x, dx in zip(alpha, step)]
            if an == alpha:
                break
            Qn, Jn = integrals(an)
            if sum(x * x for x in Qn[1:]) < r2:
                break
            if lam == 1.0:
                # the nodes where h_i <= 0 and is floored rule the residual;
                # such a box is rejected now, not after every halving
                fail()
        else:
            fail("line search failed in separation solver")
        if an == alpha:
            break
        alpha, Q, J = an, Qn, Jn
    resid = max(map(abs, Q[1:]), default=0.0)
    if resid > _RESIDUAL_GATE:
        fail(f"separation residual {resid} > {_RESIDUAL_GATE}")
    alpha = np.array(alpha)
    h = 2.0 * (U_scan @ alpha)
    if h.min() < -1e-12:
        i = np.argmin(h.reshape(-1, n).min(axis=0))
        raise NoMonotoneDiagonal(f"h_{i} vanishes inside the leg")
    # a double root of h_i at an endpoint makes the approach asymptotic
    # (logarithmically divergent time); refuse to integrate through it
    for ends, h_ends in ((lo, h[:n].tolist()), (hi, h[-n:].tolist())):
        for i, (end, h_end) in enumerate(zip(ends, h_ends)):
            if abs(h_end) < 1e-12 and abs(2.0 * (metric.row_deriv(i, end) @ alpha)) < 1e-10:
                raise NoMonotoneDiagonal(f"h_{i} has a double root at the endpoint {end}")
    return {"alpha": alpha, "signs": np.sign(c1 - c0), "length": abs(Q[0]), "residual": resid}


def ivory_check(metric: StaeckelMetric, box) -> dict:
    """Separation constants and lengths of the 2^(n-1) great diagonals of
    the box, and the spread of the lengths.

    One boundary-value problem serves every diagonal.  The separated
    quadratures see a diagonal only through the intervals [lo_i, hi_i],
    not through the corner it starts from, so all great diagonals share
    alpha and the length: Ivory's lemma in Stackel form.  Each diagonal
    still gets its own entry in `lengths` and `alphas`.
    """
    if len(box) != metric.n or any(np.shape(b) != (2,) for b in box):
        raise InvalidParameters(f"box needs {metric.n} pairs (lo, hi), got {box}")
    sol = geodesic_between(metric, [b[0] for b in box], [b[1] for b in box])
    k = 2 ** (metric.n - 1)
    return {"lengths": [sol["length"]] * k, "alphas": [sol["alpha"]] * k,
            "spread": 0.0}    # the lengths are one number


# ---------------------------------------------------------------------------
# billiards in coordinate boxes, by the separated flow
#
# Write p_i = s_i sqrt(h_i(q_i, alpha)).  Between two events each q_i runs
# monotonically over a segment from q_i to its endpoint e_i ahead: a wall,
# or a turning point where h_i = 0.  There s_i flips.  Along the flight
# dq_i / p_i = |dq_i| / sqrt(h_i), so the Abel integrals of a path are
# those of the leg rule (`_abel`), and by Jacobi's theorem their sums
# over the coordinates move linearly: phi_0 = t, phi_j constant for j >= 1.
# A piece of flight ends when the first coordinate reaches its endpoint; one
# Newton on the other coordinates' distances (`_pinned`), for every n, finds
# where they stand then.

# relative rounding bound of a sum of the 2 x 80 positive terms of an Abel
# integral (gamma_N); Abel sums that agree to it are one value
_SUM_ROUNDING = 2 * _GL_NODES.size * np.finfo(float).eps


def _abel(metric: StaeckelMetric, i: int, a: float, x: float, alpha, turns) -> np.ndarray:
    """Abel integrals of coordinate i over its path from a to x: the leg rule
    (`_leg_rule`), with two changes that keep its digits next to a turning
    point.  h_i is taken as prod(t - r) quot(t) / den(t) over the real roots
    r of its numerator (`turns`), each factor as (c - r) +/- s^2, where
    sum_j alpha_j u_ij(t) has lost its relative digits to cancellation.  And
    each half of the path is substituted, t = c +/- s^2, about the root
    beyond its end when one lies within half the path (else about the end),
    so that a turning point just outside the path leaves it smooth in s.
    Its nodes follow alpha's turning points, so it keeps its own rule."""
    lo, hi = min(a, x), max(a, x)
    if lo == hi:
        return np.zeros(metric.n)
    r, _, quot = turns
    half = 0.5 * (hi - lo)
    ca = max([v for v in r if lo - half < v <= lo], default=lo)
    cb = min([v for v in r if hi <= v < hi + half], default=hi)
    sa0, sb0 = math.sqrt(lo - ca), math.sqrt(cb - hi)
    # s1 - s0 = half / (s1 + s0), without the cancellation
    da = half / (math.sqrt(lo - ca + half) + sa0)
    db = half / (math.sqrt(cb - hi + half) + sb0)
    sa, sb = sa0 + da * _GL_FRAC, sb0 + db * _GL_FRAC
    sa2, sb2 = sa * sa, sb * sb
    w = np.concatenate([da * sa * _GL_WEIGHTS, db * sb * _GL_WEIGHTS])
    t = np.concatenate([ca + sa2, cb - sb2])
    P = _polyval(metric.table[i], t[:, None])
    U = P[:, :-1] / P[:, -1:]
    h = 2.0 * _polyval(quot, t) / P[:, -1]
    for v in r:
        h = h * np.concatenate([(ca - v) + sa2, (cb - v) - sb2])
    return (w / np.sqrt(np.maximum(h, 1e-300))) @ U


def _turning_points(metric: StaeckelMetric, i: int, alpha):
    """Real roots r of h_i(., alpha), which are those of its numerator
    N = sum_j alpha_j num_ij, the sign of h_i' at each, and the quotient of
    N by prod(t - r)."""
    N = (alpha @ metric.num[i]).tolist()
    N = N[next((k for k, c in enumerate(N) if c != 0.0), len(N)):]   # leading zeros off
    r = tuple(v.real for v in np.roots(N).tolist() if v.imag == 0.0)
    dN, den = [c * k for c, k in zip(N, range(len(N) - 1, 0, -1))], metric._lists[i][0][-1]
    slope = [float(np.sign(_polyval(dN, v) * _polyval(den, v))) for v in r]
    quot = list(N)
    for v in r:   # synthetic division by t - v, dropping the remainder
        for k in range(1, len(quot) - 1):
            quot[k] += v * quot[k - 1]
        quot.pop()
    return r, slope, quot


def _next_end(qi: float, si: float, wall, turns):
    """Endpoint ahead of q_i moving in direction s_i, and whether it is a
    wall: the nearest root strictly before the wall where h_i turns
    negative, else the wall."""
    end = wall[1] if si > 0 else wall[0]
    ahead = [v for v, sl in zip(*turns[:2])
             if si * (v - qi) > 0 and si * (end - v) > 0 and si * sl < 0]
    if ahead:
        return min(ahead, key=lambda v: abs(v - qi)), False
    return end, True


def _pinned(metric: StaeckelMetric, alpha, turns, q, s, e, F, i: int, theta):
    """Positions when coordinate i reaches e_i with phi_1.. unchanged, the
    flight time, and whether that was solved.

    Newton on the partners' distances sigma_k = |x_k - q_k|, on Python
    floats.  As d phi_j / d sigma_k = u_kj(x_k) / sqrt(h_k), a step is
    dsigma = -sqrt(h) U^-T r, U the partners' rows of M without column 0,
    which never divides by sqrt(h_k) = 0 at a turning point.  A step that
    would leave a segment goes halfway to its end instead; one that does
    not lower the residual (per unit of its Abel sums) is halved.  The loop
    stops once each column of the residual is within the rounding of its
    Abel sums; if a step stops moving sigma first, the residual may exceed
    that by what one ulp of each partner moves."""
    partners = [k for k in range(len(q)) if k != i]
    D = [abs(e[k] - q[k]) for k in partners]
    sig = [t * d if 0.0 < t <= 1.0 else 0.5 * d for t, d in zip(theta, D)]
    al, best, lam, base, step = alpha.tolist(), math.inf, 1.0, sig, [0.0] * len(D)
    xb, Ab, rb = [q[k] for k in partners], [F[k] for k in partners], [math.inf] * len(D)
    while True:
        x = [q[k] + s[k] * d for k, d in zip(partners, sig)]
        A = [_abel(metric, k, q[k], xk, alpha, turns[k]).tolist() for k, xk in zip(partners, x)]
        cols = list(zip(F[i], *A))[1:]
        r = list(map(sum, cols))
        rho = max(map(truediv, map(abs, r), [sum(map(abs, c)) or 1.0 for c in cols]), default=0.0)
        if rho <= _SUM_ROUNDING:
            base, xb, Ab, solved = sig, x, A, True
            break
        if rho < best:
            best, lam, base, xb, Ab, rb = rho, 1.0, sig, x, A, r
            U = [metric._row(k, xk) for k, xk in zip(partners, x)]
            try:
                y = _solve(list(zip(*U))[1:], r)
            except (ZeroDivisionError, np.linalg.LinAlgError):
                y = [0.0] * len(D)   # no step: the ulp test below decides
            step = [-math.sqrt(max(2.0 * sum(map(mul, u, al)), 0.0)) * yk for u, yk in zip(U, y)]
        else:
            lam *= 0.5
        new = [b + lam * st for b, st in zip(base, step)]
        new = [0.5 * (b + d) if v >= d else 0.5 * b if v <= 0.0 else v
               for v, b, d in zip(new, base, D)]
        if new == base:
            # solved: no larger residual than the rounding of the sums, plus
            # what moving each partner by one ulp changes
            floor = [_SUM_ROUNDING * sum(map(abs, c)) for c in list(zip(F[i], *Ab))[1:]]
            for k, xk, Ak in zip(partners, xb, Ab):
                prev = _abel(metric, k, q[k], math.nextafter(xk, q[k]), alpha, turns[k])
                floor = [f + abs(u - v) for f, u, v in zip(floor, Ak[1:], prev[1:])]
            solved = all(map(le, map(abs, rb), floor))
            break
        sig = new
    x = list(e)   # i reaches e_i, and so does a partner that stops within rounding of e_k
    for k, xk, b, d in zip(partners, xb, base, D):
        x[k] = xk if d - b > _SUM_ROUNDING * d else x[k]
    return np.array(x), F[i][0] + sum(a[0] for a in Ab), solved


def _flight(metric: StaeckelMetric, alpha, turns, q, s, e):
    """One piece of flight from q to the first endpoint: the positions at
    its end, where every coordinate that reached its endpoint equals it
    exactly, and the time taken."""
    q, s, e = q.tolist(), s.tolist(), e.tolist()
    if any(map(eq, q, e)):
        return np.array(q), 0.0
    F = [_abel(metric, i, q[i], e[i], alpha, turns[i]).tolist() for i in range(len(q))]
    # the linearised partner fractions theta (A_k ~ theta_k F_k) order the
    # candidates: the one whose partners all stay in their segments first
    cands = []
    for i, Fi in enumerate(F):
        try:
            th = [-t for t in _solve(list(zip(*F[:i], *F[i + 1:]))[1:], Fi[1:])]
        except (ZeroDivisionError, np.linalg.LinAlgError):
            th = [math.inf] * (len(F) - 1)
        cands.append((max((t if t >= 0.0 else math.inf for t in th), default=0.0), i, th))
    # a candidate solved to rounding keeps every partner inside its segment
    # up to t, and each sigma_k grows with t, so it is the earliest event
    for _, i, theta in sorted(cands, key=lambda c: c[0]):
        x, dt, solved = _pinned(metric, alpha, turns, q, s, e, F, i, theta)
        if solved:
            return x, dt
    raise SolverDiverged("no coordinate reaches its endpoint first")


def staeckel_billiard_trajectory(metric: StaeckelMetric, walls, q0, p0,
                                 bounces: int) -> dict:
    """Billiard in the coordinate box `walls`: free geodesic motion with
    sign flips of p_i at the walls q_i = const, flown event by event on the
    separated quadratures with alpha fixed by the start.  Turning points
    flip s_i too but are not bounces; a corner flips every coordinate that
    reaches its wall and counts once, in `corner_hits`."""
    n = metric.n
    walls = np.asarray(walls, dtype=float)
    q = np.asarray(q0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    if walls.shape != (n, 2) or q.shape != (n,) or p.shape != (n,):
        raise InvalidParameters(f"need {n} walls (lo, hi) and q0, p0 of {n} coordinates, "
                                f"got shapes {walls.shape}, {q.shape}, {p.shape}")
    if np.any(q < walls[:, 0]) or np.any(q > walls[:, 1]):
        raise InvalidParameters("the start lies outside the walls")
    alpha0 = integrals_alpha(metric, q, p)
    if not alpha0[0] > 0.0:
        raise InvalidParameters("the start has no kinetic energy")
    turns = [_turning_points(metric, i, alpha0) for i in range(n)]
    # where p_i = 0 the coordinate leaves towards growing h_i
    dh = np.array([metric.row_deriv(i, q[i]) @ alpha0 for i in range(n)])
    s = np.where(p != 0.0, np.sign(p), np.where(dh >= 0.0, 1.0, -1.0))
    if not any(_next_end(q[i], si, walls[i], turns[i])[1]
               for i in range(n) for si in (1.0, -1.0)):
        raise InvalidParameters("every coordinate turns inside the walls")

    t_total, bounce_times, corner_hits = 0.0, [], 0
    states = [(0.0, q.copy(), p.copy())]
    while len(bounce_times) < bounces:
        e, at_wall = map(np.array, zip(*map(_next_end, q, s, walls, turns)))
        q, dt = _flight(metric, alpha0, turns, q, s, e)
        t_total += dt
        hit = q == e
        s[hit] = -s[hit]
        wall_hits = int(np.sum(hit & at_wall))
        if wall_hits:
            p = momentum(metric, alpha0, s, q)
            corner_hits += wall_hits > 1
            bounce_times.append(t_total)
            states.append((t_total, q.copy(), p))
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

    Each ambient map is Jacobi's product formula (`jacobi_squares`) over
    the poles D = params: at q for elliptic_R2, ellipsoidal_R3 and
    sphere_conical (whose squares sum to 1); at (0, lam, mu) for
    ellipsoid_intrinsic, the ellipsoid being the member 0; and r times its
    root at (lam, mu) for spheroconical_R3.
    """
    if name not in ("elliptic_R2", "ellipsoidal_R3", "spheroconical_R3",
                    "ellipsoid_intrinsic", "sphere_conical"):
        raise InvalidParameters(f"unknown builtin metric {name!r}")
    poles = tuple(map(float, params))
    k = 2 if name == "elliptic_R2" else 3
    if len(poles) != k:
        raise InvalidParameters(f"{name} takes {k} params, got {len(poles)}")
    if not all(x > y for x, y in zip(poles, poles[1:] + (0.0,))):
        raise InvalidParameters(f"need {' > '.join('abc'[:k])} > 0")
    if name == "elliptic_R2":
        a, b = poles
        # both rows (t, 1) / 4(a-t)(t-b)
        rows = [(np.eye(2), -4.0 * np.poly([a, b]))] * 2
        m = 0.02 * (a - b)
        box = [(b + m, a - m), (b - (a - b), b - m)]
    else:
        a, b, c = poles
        hpoly = -4.0 * np.poly([a, b, c])   # 4(a-t)(b-t)(c-t)
        m1, m2 = 0.02 * (a - b), 0.02 * (b - c)
        box = [(b + m1, a - m1), (c + m2, b - m2)]
        if name == "ellipsoidal_R3":
            # every row (t^2, t, 1) / h
            rows = [(np.eye(3), hpoly)] * 3
            box.append((c - (b - c), c - m2))
        elif name == "spheroconical_R3":
            # rows (1, -1/r^2, 0) and (0, t, 1) / h, twice
            rows = [([[1.0, 0.0, 0.0], [-1.0], [0.0]], [1.0, 0.0, 0.0])] \
                + [([[0.0], [1.0, 0.0], [1.0]], hpoly)] * 2
            box.insert(0, (0.6, 1.8))
        elif name == "ellipsoid_intrinsic":
            # both rows (t^2, t) / h
            rows = [(np.eye(3)[:2], hpoly)] * 2
        else:
            # sphere_conical: both rows (t, 1) / h
            rows = [(np.eye(2), hpoly)] * 2

    def root(q, _den=jacobi_denominators(poles)):
        return np.sqrt(jacobi_squares(poles, list(map(float, q)), _den))

    ambient = {"spheroconical_R3": lambda q: q[0] * root(q[1:]),
               "ellipsoid_intrinsic": lambda q: root((0.0, *q))}.get(name, root)
    space = spherical(2) if name == "sphere_conical" else euclidean(len(poles))
    return StaeckelMetric(len(rows), rows, box, name=name, ambient=ambient,
                          ambient_geometry=space)


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
    amb = None if metric.ambient is None else \
        (lambda qface: metric.ambient(np.insert(np.asarray(qface, dtype=float), i, c)))
    return StaeckelMetric(n - 1, rows, [metric.box[j] for j in keep],
                          name=f"{metric.name}|q{i}={c}",
                          ambient=amb, ambient_geometry=metric.ambient_geometry)
