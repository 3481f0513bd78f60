"""One workload in one fresh interpreter: set up, then measure.

Started by run.py, which reads the single JSON line this prints.  Set-up is
importing the program, generating the inputs from the seed and one
warm-up pass at the smallest size on fixed inputs (seed 0), so that it
does the same work whatever the seed; `ready` is the clock reading when
it is done, on the monotonic clock run.py reads too.
"""

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import (  # noqa: E402
    Tracer, check_latency, layer_stats, ratio, run_pass, run_passes, worst_outcomes)

WARMUP_SEED = 0


def per_layer(tracer, traced, untraced, module, cli):
    passes = len(traced)
    out, breakdown = layer_stats(tracer.spans, tracer.misses, passes)
    c = tracer.counts

    def busy(fn):
        return out.get(f"{fn}.busy_s", 0.0) * passes

    out["quadrics.tangent_parameters_of_line.full_count_ratio"] = ratio(
        c["quadrics.tangent_parameters_of_line.full"],
        c["quadrics.tangent_parameters_of_line.lines"])
    out["staeckel.geodesic_between.solved_ratio"] = ratio(
        c["staeckel.geodesic_between.solved"],
        out.get("staeckel.geodesic_between.calls", 0) * passes)
    sb = "staeckel.staeckel_billiard_trajectory"
    out[f"{sb}.bounces_per_s"] = ratio(c[f"{sb}.bounces"], busy(sb))
    for key, values in tracer.samples.items():
        out[key] = statistics.median(values)
    if cli:
        out["cli.import_s"] = statistics.median(module.import_time() for _ in range(3))
    # pass_s of the traced minus that of the untraced passes
    out["trace.overhead_s"] = check_latency(traced)["pass_s"] - check_latency(untraced)["pass_s"]
    return out, breakdown


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    module = importlib.import_module("workloads." + args.workload.replace("-", "_"))
    checks = module.build(args.seed, args.size)
    # kinds interleaved in one seeded order, the same in every pass, so that
    # each group of checks is sampled across the whole pass rather than in
    # one short stretch of it
    random.Random(args.seed).shuffle(checks)
    tracer = Tracer()
    cli = module.__name__ == "workloads.cli_cold"
    if not cli:
        run_pass(tracer, module.build(WARMUP_SEED, "small"), traced=False)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer.last_failure.clear()
    records = run_passes(tracer, checks, args.seconds, bool(args.trace))
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        **worst_outcomes(records, checks, module.KNOWN_DEFECTS),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "latency": check_latency(untraced),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "last_failure": tracer.last_failure,
    }
    if args.trace:
        result["per_layer"], result["fail_breakdown"] = per_layer(
            tracer, traced, untraced, module, cli)
        result["spans"] = [vars(s) for s in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
