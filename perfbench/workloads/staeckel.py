"""staeckel: seeded checks in confocal.staeckel on all five builtin metrics.

Tolerances, admissibility rules and the number of checks of each kind
are those of tests/test_staeckel.py (the billiard's tolerance is that of
acceptance criterion 8).  A random box whose diagonal has no monotone
geodesic is rejected, as in the tests' `_solved_random_box`; every
rejection shows as a failed geodesic_between call in the trace.
"""

import numpy as np

from confocal.errors import NoMonotoneDiagonal, SolverDiverged
from confocal.geometry import geodesic_distance
from confocal.staeckel import (
    builtin_metric,
    geodesic_between,
    hamiltonian,
    integrals_alpha,
    ivory_check,
    metric_coeffs,
    staeckel_billiard_trajectory,
)

from harness import Check, Miss, expect_below

GB = "staeckel.geodesic_between"
IC = "staeckel.ivory_check"
HAM = "staeckel.hamiltonian"
ALPHA = "staeckel.integrals_alpha"
SB = "staeckel.staeckel_billiard_trajectory"
MC = "staeckel.metric_coeffs"

METRICS = {
    "elliptic_R2": builtin_metric("elliptic_R2", (4.0, 1.0)),
    "ellipsoidal_R3": builtin_metric("ellipsoidal_R3", (4.0, 2.0, 1.0)),
    "spheroconical_R3": builtin_metric("spheroconical_R3", (4.0, 2.0, 1.0)),
    "ellipsoid_intrinsic": builtin_metric("ellipsoid_intrinsic", (4.0, 2.0, 1.0)),
    "sphere_conical": builtin_metric("sphere_conical", (0.8, 0.5, 0.2)),
}
MAX_TRIES = 50
WALLS = [(2.0, 3.0), (0.2, 0.8)]

# geodesic checks per pass, each with its test's max_span:
# test_geodesic_matches_{euclidean,great_circle}_oracle, test_geodesic_ellipsoidal_oracle
GEODESICS = {"elliptic_R2": (25, 0.4), "sphere_conical": (25, 0.4), "ellipsoidal_R3": (8, 0.3)}
IVORY_SPAN = 0.35   # test_ivory_all_builtins
# checks per pass: (full, small); per metric where marked
COUNTS = {
    "ivory": (5, 1),          # per metric; test_ivory_all_builtins
    "integrals": (20, 1),     # per metric; test_hamiltonian_two_formulas
    "poisson": (30, 1),       # per metric; test_poisson_bracket_fd
    "billiard": (8, 1),
}
# test_billiard_alpha_conservation flies 25 bounces; here 24, split over
# eight seeded starts, so that the flight length, and with it the ODE work,
# varies less from seed to seed than one flight's would
BOUNCES = (3, 1)
KNOWN_DEFECTS = {}


def random_box(metric, rng, max_span):
    """StaeckelMetric.random_box: a random sub-box of moderate span."""
    out = []
    for lo, hi in metric.box:
        span = rng.uniform(0.1, max_span) * (hi - lo)
        a = rng.uniform(lo, hi - span)
        out.append((a, a + span))
    return out


def corners(box):
    return np.array([b[0] for b in box]), np.array([b[1] for b in box])


def solved_box(tr, metric, boxes):
    """The first candidate box whose main diagonal is solved."""
    for box in boxes:
        c0, c1 = corners(box)
        try:
            sol = tr.call(GB, geodesic_between, metric, c0, c1)
        except (NoMonotoneDiagonal, SolverDiverged):
            continue
        tr.count(GB + ".solved")
        return box, c0, c1, sol
    raise Miss(GB, "NoAdmissibleBox", "chance")


def geodesic(tr, name, boxes):
    """The length oracles of the tests: chord length in the flat ambient
    space, or great-circle distance on the sphere."""
    metric = METRICS[name]
    _, c0, c1, sol = solved_box(tr, metric, boxes)
    d = geodesic_distance(metric.ambient_geometry, metric.ambient(c0), metric.ambient(c1))
    expect_below(GB, abs(sol["length"] - d), 1e-9)


def ivory(tr, name, boxes):
    metric = METRICS[name]
    box = solved_box(tr, metric, boxes)[0]
    res = tr.call(IC, ivory_check, metric, box)
    expect_below(IC, res["spread"], 1e-8)
    if len(res["lengths"]) != 2 ** (metric.n - 1):
        raise Miss(IC, "DiagonalCount")


def integrals(tr, name, q, p):
    """H equals the first separation constant."""
    metric = METRICS[name]
    h = tr.call(HAM, hamiltonian, metric, q, p)
    al = tr.call(ALPHA, integrals_alpha, metric, q, p)
    expect_below(ALPHA, abs(al[0] - h), 1e-10)


def poisson(tr, name, q, p):
    """{H, alpha_k} = 0 by central differences (acceptance criterion 8)."""
    metric = METRICS[name]
    n, h = metric.n, 1e-5

    def grad(f):
        gq, gp = np.empty(n), np.empty(n)
        for i in range(n):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            gq[i] = (f(qp, p) - f(qm, p)) / (2.0 * h)
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            gp[i] = (f(q, pp) - f(q, pm)) / (2.0 * h)
        return gq, gp

    Hq, Hp = grad(lambda qq, pq: tr.call(HAM, hamiltonian, metric, qq, pq))
    for k in range(1, n):
        Aq, Ap = grad(lambda qq, pq: tr.call(ALPHA, integrals_alpha, metric, qq, pq)[k])
        expect_below(ALPHA, abs(Hq @ Ap - Hp @ Aq), 1e-6)


def billiard(tr, q0, direction, bounces):
    """Acceptance criterion 8: unit-speed billiard in the elliptic_R2 box."""
    metric = METRICS["elliptic_R2"]
    p0 = tr.call(MC, metric_coeffs, metric, q0) * direction
    p0 = p0 / np.sqrt(2.0 * tr.call(HAM, hamiltonian, metric, q0, p0))
    out = tr.call(SB, staeckel_billiard_trajectory, metric, WALLS, q0, p0, bounces)
    tr.count(SB + ".bounces", bounces)
    expect_below(SB, out["alpha_drift"], 1e-9)


def build(seed: int, size: str):
    col = 0 if size == "full" else 1
    n = {kind: c[col] for kind, c in COUNTS.items()}
    rngs = {kind: np.random.default_rng([seed, k])
            for k, kind in enumerate(("geodesic", *COUNTS))}
    checks = []
    r = rngs["geodesic"]
    for name, (count, span) in GEODESICS.items():
        checks += [Check("geodesic", geodesic,
                         (name, [random_box(METRICS[name], r, span) for _ in range(MAX_TRIES)]))
                   for _ in range(count if size == "full" else 1)]
    r = rngs["ivory"]
    for name, metric in METRICS.items():
        checks += [Check("ivory", ivory,
                         (name, [random_box(metric, r, IVORY_SPAN) for _ in range(MAX_TRIES)]))
                   for _ in range(n["ivory"])]
    for kind, fn in (("integrals", integrals), ("poisson", poisson)):
        r = rngs[kind]
        for name, metric in METRICS.items():
            checks += [Check(kind, fn, (name,
                                        np.array([r.uniform(lo, hi) for lo, hi in metric.box]),
                                        r.normal(size=metric.n)))
                       for _ in range(n[kind])]
    # stratified starts (one seeded offset per stratum, strata in seeded
    # order), so that the total flight length, and with it the ODE work,
    # varies little from seed to seed
    r = rngs["billiard"]
    k = n["billiard"]
    strata = [(np.arange(k) + r.uniform(size=k)) / k for _ in range(3)]
    for frac in strata:
        r.shuffle(frac)
    for s1, s2, s3 in zip(*strata):
        q0 = np.array([lo + (0.1 + 0.8 * f) * (hi - lo) for (lo, hi), f in zip(WALLS, (s1, s2))])
        th = 2.0 * np.pi * s3
        checks.append(Check("billiard", billiard,
                            (q0, np.array([np.cos(th), np.sin(th)]), BOUNCES[col])))
    return checks
