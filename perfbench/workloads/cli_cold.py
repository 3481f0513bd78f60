"""cli-cold: each pass runs the ten subcommands once, one after another,
each as `confocal <subcommand>` in a fresh interpreter.

Configs are at README or test scale and drawn from the seed; the boxes of
`geodesic` and `staeckel-ivory` are admissible boxes found as in
acceptance criterion 7.  An invocation passes when it exits 0 and its
report.json says every check passed.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from confocal.cli import STOCHASTIC, load_config
from confocal.staeckel import builtin_metric

from confocal.errors import NoMonotoneDiagonal, SolverDiverged
from confocal.staeckel import geodesic_between

from harness import Check, Miss
from workloads.planar import corner_angles, far_corners
from workloads.staeckel import MAX_TRIES, corners, random_box

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / "perfbench" / "out" / "cli"
# the console script `confocal` is confocal.cli:main
ENTRY = "import sys; from confocal.cli import main; sys.exit(main())"
TIMEOUT_S = 120
# every candidate box of this many is solved, so that set-up does the same
# number of solves on every seed; one of them fails to solve about one
# time in six, so all of them fail about once in 10^6 seeds
BOX_CANDIDATES = 8
KNOWN_DEFECTS = {"FarCorners": ("inscribed-circles", 0.02)}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def admissible_box(metric, rng):
    """Acceptance criterion 7: the first of the random boxes whose diagonal
    is solved.  The first BOX_CANDIDATES are all solved; further ones, up
    to the tests' MAX_TRIES, only if none of those was."""
    solved = []
    for k in range(MAX_TRIES):
        if solved and k >= BOX_CANDIDATES:
            break
        box = random_box(metric, rng, 0.4)
        try:
            geodesic_between(metric, *corners(box))
        except (NoMonotoneDiagonal, SolverDiverged):
            continue
        solved.append(box)
    if not solved:
        raise SystemExit("no admissible box for the geodesic configs")
    return [list(b) for b in solved[0]]


def configs(seed: int):
    r = np.random.default_rng([seed, 0])

    def u(lo, hi):
        return float(r.uniform(lo, hi))

    th_a, th_b = (float(t) for t in corner_angles(r))
    d = r.normal(size=3)
    d /= np.linalg.norm(d)
    s = 0.2
    point = [float(np.cos(s))] + [float(np.sin(s) * v) for v in d]
    elliptic = builtin_metric("elliptic_R2", (4.0, 1.0))
    conical = builtin_metric("sphere_conical", (0.8, 0.5, 0.2))
    geo_box = admissible_box(elliptic, r)
    return {
        "ivory-check": {"a": [4.0, 1.0],
                        "lam_e": sorted([u(-1.0, 0.95), u(-1.0, 0.95)]),
                        "lam_h": sorted([u(1.05, 3.95), u(1.05, 3.95)])},
        "billiard-orbit": {"a": [4.0, 1.0], "outer_lam": 0.0, "lam_c": u(0.1, 0.9),
                           "start_x": u(0.0, 1.0), "bounces": 20},
        "poncelet-grid": {"a": [4.0, 1.0], "outer_lam": -0.2, "q": 9, "p": 2,
                          "start_x": u(0.0, 1.0)},
        "inscribed-circles": {"a": [4.0, 1.0], "outer_lam": 0.05, "lam_c": 0.5,
                              "theta_a": th_a, "theta_b": th_b},
        "geodesic": {"metric": {"name": "elliptic_R2", "params": [4.0, 1.0]},
                     "corner0": [b[0] for b in geo_box],
                     "corner1": [b[1] for b in geo_box]},
        "staeckel-ivory": {"metric": {"name": "sphere_conical", "params": [0.8, 0.5, 0.2]},
                           "box": admissible_box(conical, r)},
        "staeckel-billiard": {"metric": {"name": "elliptic_R2", "params": [4.0, 1.0]},
                              "walls": [[2.2, 2.9], [0.3, 0.7]],
                              "q0": [u(2.3, 2.8), u(0.35, 0.65)],
                              "p0": [u(0.3, 1.0), u(0.3, 1.0)], "bounces": 4,
                              "tolerance": 1e-8},
        "potential-scan": {"geometry": "spherical", "dim": 3,
                           "radii": {"start": u(0.2, 0.4), "stop": u(1.0, 1.3),
                                     "count": 10}},
        "newton-check": {"surface": {"kind": "sphere", "geometry": "spherical",
                                     "dim": 3, "radius": 0.6},
                         "point": point, "expect": "zero", "N": 2000,
                         "seed": int(r.integers(2**31))},
        "arnold-check": {"coeffs": [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                         "eps": 0.05, "point": [u(-0.3, 0.3), u(-0.3, 0.3)], "N": 2000,
                         "seed": int(r.integers(2**31))},
    }


def invoke(tr, sub, cfg_path, out, known=None):
    """One `confocal <sub>` run in a fresh interpreter, then its report.
    `known` names the documented defect a failed check belongs to."""
    fn = f"cli.{sub}"
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-c", ENTRY, sub, "--config", str(cfg_path), "--out", str(out)]
    with tr.span(fn) as span:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=TIMEOUT_S)
        wall = time.perf_counter() - t0
        if span is not None and (out / "timings.json").exists():
            t = json.loads((out / "timings.json").read_text())
            span.inner_s = t["compute_s"] + t["write_s"]
            tr.sample("cli.compute_s", t["compute_s"])
            tr.sample("cli.write_s", t["write_s"])
            tr.sample("cli.startup_s", wall - span.inner_s)
            tr.sample(f"cli.{sub}.wall_s", wall)
    report = out / "report.json"
    if proc.returncode not in (0, 1) or not report.exists():
        # 2 and 3 are ConfigError and ConfocalError, on an admissible config
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        raise Miss(fn, f"Exit{proc.returncode}")
    rep = json.loads(report.read_text())
    if not all((out / name).exists() for name in rep["artifacts"]):
        raise Miss(fn, "MissingArtifact")
    if proc.returncode == 1 or not rep["passed"]:
        # the stochastic subcommands gate at 3 sigma
        if sub in STOCHASTIC:
            raise Miss(fn, "StatGate", "chance")
        raise Miss(fn, known or "OverTolerance", "known" if known else "wrong")


def build(seed: int, size: str):
    cfg_dir = WORK / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    checks = []
    for sub, cfg in configs(seed).items():
        path = cfg_dir / f"{sub}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        load_config(sub, path)      # fails the set-up on an invalid config
        known = None
        if sub == "inscribed-circles" and far_corners(cfg["theta_a"], cfg["theta_b"]):
            known = "FarCorners"
        checks.append(Check(sub, invoke, (sub, path, WORK / "runs" / sub, known)))
    return checks


def import_time():
    """Seconds to `import confocal.cli`, measured inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import confocal.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    return float(proc.stdout.strip())
