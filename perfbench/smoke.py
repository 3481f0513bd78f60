"""Smoke test of the benchmark itself, at the smallest size.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, one untraced and one traced run of
run.py with one check of each kind.  Asserts that the last line is the
result object, that every metric BENCHMARK.json names is printed with its
unit, that each per-layer metric is measured on some workload, that
fail_ratio is failed over attempted checks, and that without a program to
measure the benchmark exits non-zero without a result.  Takes about a
minute; exits non-zero on the first failed assertion.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(workload, trace, expected):
    """One run at the smallest size; returns the worker's per-layer values."""
    proc = run("--workload", workload, "--seed", "7", "--seconds", "0",
               "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == dict(expected), f"{workload}: metrics differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        assert f"{name} = " in proc.stdout, f"{name} not printed by name"
    fr = [ln for ln in lines if ln.startswith("fail_ratio = ")]
    assert len(fr) == 1, "fail_ratio not printed"
    value, failed, attempted = re.match(r"fail_ratio = (\S+) 1 \((\d+) of (\d+) checks",
                                        fr[0]).groups()
    assert (int(failed), int(attempted)) == (result["failed"], result["attempted"])
    assert abs(float(value) - result["failed"] / result["attempted"]) < 1e-5
    print(f"ok {workload} trace={trace}: {result['attempted']} checks, "
          f"{result['failed']} failed, {len(got)} metrics")
    record = HERE / "out" / "results" / f"{workload}-seed7-trace{trace}-small.json"
    return json.loads(record.read_text())["worker"].get("per_layer", {})


def check_without_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "planar", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
    print("ok without a program: exit code", proc.returncode)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    check_without_program()
    measured = set()
    for workload in (w["name"] for w in bench["workloads"]):
        check_run(workload, 0, e2e)
        measured |= set(check_run(workload, 1, layer))
    missing = [name for name, _ in layer if name not in measured]
    assert not missing, f"per-layer metrics no workload measures: {missing}"
    return 0


if __name__ == "__main__":
    sys.exit(main())
