"""Seeded samplers and a finite-difference oracle that several test modules
share.  The package itself never draws random points."""

import numpy as np

from confocal.errors import NoMonotoneDiagonal, SolverDiverged
from confocal.geometry import Kind
from confocal.staeckel import geodesic_between, hamiltonian, integrals_alpha


def random_interior_point(family, rng) -> np.ndarray:
    """A generic model point of the family's geometry with all coordinates
    bounded away from zero."""
    geo = family.geometry
    if geo.kind is Kind.EUCLIDEAN:
        while True:
            x = rng.uniform(0.15, 1.0, size=family.n) * rng.choice([-1.0, 1.0], size=family.n)
            x *= np.sqrt(np.asarray(family.a)) * rng.uniform(0.3, 0.95)
            if np.min(np.abs(x)) > 1e-3:
                return x
    while True:
        v = rng.normal(size=geo.ambient_dim)
        if geo.kind is Kind.SPHERICAL:
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


def random_box(metric, rng, max_span=0.4):
    """A random coordinate sub-box of the metric's box (moderate spans,
    so that chord initial guesses stay in the convergence basin)."""
    out = []
    for lo, hi in metric.box:
        span = rng.uniform(0.1, max_span) * (hi - lo)
        a = rng.uniform(lo, hi - span)
        out.append((a, a + span))
    return out


def solved_random_box(metric, rng, max_span=0.4, max_tries=50):
    """A random sub-box whose main diagonal admits a monotone geodesic,
    together with its corners and the solved diagonal (boxes violating the
    monotonicity precondition are rejected)."""
    for _ in range(max_tries):
        box = random_box(metric, rng, max_span=max_span)
        c0 = np.array([b[0] for b in box])
        c1 = np.array([b[1] for b in box])
        try:
            return box, c0, c1, geodesic_between(metric, c0, c1)
        except (NoMonotoneDiagonal, SolverDiverged):
            continue
    raise AssertionError("no admissible random box found")


def poisson_brackets(m, q, p, h):
    """{H, alpha_k} for k = 1..n-1 at each row of q, p[N, n], by central
    differences of step h in every q_i and p_i: H and alpha at each of a
    row's 4n shifted points, one point at a time.  Returns an (N, n-1)
    array."""
    n = m.n
    shift = h * np.eye(n)

    def grad(f):
        return (f[:n] - f[n:2 * n]) / (2.0 * h), (f[2 * n:3 * n] - f[3 * n:]) / (2.0 * h)

    out = []
    for x, y in zip(q, p):
        qs = [*(x + shift), *(x - shift), *[x] * (2 * n)]
        ps = [*[y] * (2 * n), *(y + shift), *(y - shift)]
        Hq, Hp = grad(np.array([hamiltonian(m, a, b) for a, b in zip(qs, ps)]))
        alpha = np.array([integrals_alpha(m, a, b) for a, b in zip(qs, ps)])
        out.append([np.sum(Hq * Ap - Hp * Aq) for Aq, Ap in map(grad, alpha.T[1:])])
    return np.array(out)
