"""confocal benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload planar --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is the
checkout's own src/confocal.  The workloads, why each exists, and the
metrics with their units are those of BENCHMARK.json at the root.  Load
is one closed-loop caller: one check, or one CLI invocation, at a time.

--trace 0 prints the end-to-end metrics.  Times are scaled to a nominal
host speed (see "host speed" in harness.py); set-up time is the median
over five fresh interpreters, the measuring one and two that only set up
before it and two after it, scaled by the run's median reference time.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics from the spans of the traced ones.  Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it give every metric by name with its unit, and the whole
result, with the environment, goes to perfbench/out/results/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# set-up-only interpreters before and after the measuring one, so that
# the five set-up samples span the run rather than one stretch of it
SETUPS_AROUND = 2
# each worker's own limit; together under the 180 s a run may take
SETUP_TIMEOUT_S = 15      # a set-up-only worker takes about 2 s
WORKER_TIMEOUT_S = 100    # the measuring one: --seconds plus one pass, ~40 s
BLAS_THREADS = "1"   # one closed-loop caller; at most nproc


def worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0")   # same dict layout in every run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, setup_only):
    """Start worker.py in a fresh interpreter; returns (set-up seconds, result)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        argv.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S
    t_start = time.perf_counter()
    # its own session, so that a timeout also stops the CLI runs it started
    proc = subprocess.Popen(argv, env=worker_env(), stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {timeout} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result["ready"] - t_start, result


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:   # stop at the checkout: never report an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS), "seed": seed, "git_commit": commit,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: one check per kind, for smoke.py")
    args = ap.parse_args()
    # a terminated run still stops its worker (see run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "confocal" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'confocal'} is missing",
              file=sys.stderr)
        return 2

    around = 0 if args.trace else SETUPS_AROUND
    setups = [run_worker(args, True)[0] for _ in range(around)]
    setup_s, res = run_worker(args, False)
    setups.append(setup_s)
    setups += [run_worker(args, True)[0] for _ in range(around)]

    lat = res["latency"]
    if args.trace:
        values = res["per_layer"]
        listed = SPEC["per_layer"]
    else:
        # the median set-up is scaled by the run's median reference time
        values = {"setup_s": statistics.median(setups) * lat["median_scale"],
                  "peak_rss_mb": res["peak_rss_mb"], **lat}
        listed = SPEC["end_to_end"]
    # a layer function the workload never reaches reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in listed}
    fail_ratio = res["failed"] / res["attempted"]
    env = environment(args.seed)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {fail_ratio:.6g} 1 ({res['failed']} of {res['attempted']} "
          f"checks; outcomes {res['outcomes']}; known defects {res['known']})")
    if not args.trace:
        print(f"as measured, unscaled ({lat['long_checks']} long checks at their "
              f"fastest; set-up x {lat['median_scale']:.4g}): "
              + ", ".join(f"{name} = {v:.6g}" for name, v in lat["raw"].items())
              + f", setup_s = {statistics.median(setups):.6g}")
    if args.workload == "cli-cold" and not args.trace:
        print(f"invocation_p50_s = {lat['check_p50_ms'] / 1e3:.6g} s")
        print(f"invocation_tail_s = {lat['check_tail_ms'] / 1e3:.6g} s")
    print(f"check tail = p{lat['tail_percentile']:.4g} of the {lat['tail_samples']} checks "
          f"of a pass, from {lat['repeats'][0]} to {lat['repeats'][1]} untraced "
          f"repeats of each check")
    if args.trace:
        print(f"tracing overhead = {values['trace.overhead_s']:.6g} s per pass")
    for kind, msg in res["last_failure"].items():
        print(f"failure in {kind}: {msg}")
    print("env: " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    spans = res.pop("spans", None)
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == args.workload)
    record = {"workload": args.workload, "why": why, "env": env,
              "seconds": args.seconds, "metrics": metrics, "fail_ratio": fail_ratio,
              "setup_samples_s": setups, "worker": res}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / "spans").mkdir(exist_ok=True)
        (OUT / "spans" / f"{tag}.json").write_text(json.dumps(spans))

    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
