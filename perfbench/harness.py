"""Checks, spans and statistics shared by the workloads.

A check verifies one identity on one generated input.  Its outcome is one
of OUTCOMES:
- "pass";
- "known": a miss of a documented program defect on an input inside the
  defect's region, which the benchmark decides itself (see planar.py);
- "chance": a Monte-Carlo estimate outside the tests' 3-sigma gate, or a
  seeded search that found no admissible input; a correct program gets
  one now and then;
- "wrong": any other value outside its tolerance, and any exception,
  typed ConfocalError included, on an input the tests' rules admit.
Every pass repeats the same inputs (and Monte-Carlo seeds), so each
check's outcome is its worst over the passes.  A run is correct when no
check is wrong, at most MAX_CHANCE_MISSES are chance misses, and no
known defect misses more often than its measured rate allows
(`known_ceiling`).
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

perf_counter = time.perf_counter

OUTCOMES = ("pass", "known", "chance", "wrong")   # from best to worst
# With at most a handful of 3-sigma gates in a pass (p ~ 0.003 each), two
# chance misses in one run happen less than once in 10^4 runs.
MAX_CHANCE_MISSES = 1


class Miss(Exception):
    """A check's verdict: the output missed its tolerance or was incomplete."""

    def __init__(self, function: str, reason: str, outcome: str = "wrong"):
        super().__init__(f"{function}: {reason}")
        self.function = function
        self.reason = reason
        self.outcome = outcome


def expect_below(function: str, value: float, tol: float, known: str | None = None):
    """Deterministic tolerance (NaN misses).  A miss is wrong output, unless
    `known` names the documented defect whose region holds the input."""
    if not value < tol:
        raise Miss(function, known or "OverTolerance", "known" if known else "wrong")


@dataclass
class Check:
    kind: str
    fn: object
    args: tuple


@dataclass
class Span:
    sid: int
    parent: int | None
    check: int | None
    name: str
    start: float
    end: float
    error: str | None = None
    inner_s: float = 0.0   # time reported by the callee itself (cli only)


class Tracer:
    """Spans around the benchmark's calls into the program, kept in memory.

    Disabled, `call` is a plain call, so untraced passes pay one extra
    Python frame per layer call.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples = defaultdict(list)     # key -> per-call values
        self.misses: Counter = Counter()     # (function, reason) -> n
        self.last_failure: dict = {}         # check kind -> message
        self._stack: list[int] = []
        self._check = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    @contextmanager
    def span(self, name):
        """A span whose holder may set `inner_s`; yields None when disabled."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def count(self, key: str, n: float = 1):
        if self.enabled:
            self.counts[key] += n

    def sample(self, key: str, value: float):
        if self.enabled:
            self.samples[key].append(value)

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self._check, name, 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = perf_counter()
        return span

    def _close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    def run_check(self, check_id: int, check: Check) -> tuple:
        """Run one check under its own span; returns (outcome, reason)."""
        if not self.enabled:
            return self._outcome(check)
        self._check = check_id
        span = self._open(f"check.{check.kind}")
        try:
            outcome = self._outcome(check)
        finally:
            self._close(span)
            self._check = None
        if outcome[0] != "pass":
            span.error = outcome[0]
        return outcome

    def _outcome(self, check: Check) -> tuple:
        try:
            check.fn(self, *check.args)
        except Miss as miss:
            if self.enabled:
                self.misses[(miss.function, miss.reason)] += 1
            self.last_failure[check.kind] = f"{miss.function}: {miss.reason}"
            return miss.outcome, miss.reason
        except Exception as exc:  # a broken program or check: report, keep running
            self.last_failure[check.kind] = f"{type(exc).__name__}: {exc}"
            return "wrong", type(exc).__name__
        return "pass", None


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host the same work can run 1.5-2x slower for a second to
# several minutes at a time, whatever the program does.  The benchmark
# times a fixed reference unit, which does not call the program, every
# REF_EVERY_S between checks, and scales check times to a host on which
# that unit takes REF_NOMINAL_S:
# - a short check's time is its fastest of its n repeats in the run; it
#   is scaled by the reference time that n repeats reach as fast, the
#   1/(n+1) quantile of the run's reference units, so that a run that
#   stays slow, or fast, throughout reads the same;
# - a check that took over LONG_CHECK_S in the first pass is repeated only
#   a few times, and each call averages the host's speed over its length;
#   each call is bracketed by REF_BURST_S of reference units, and scaled
#   by their mean.

REF_NOMINAL_S = 0.53e-3   # its fastest on a 2-core Xeon, Python 3.11, numpy 2.4
REF_EVERY_S = 0.05
REF_BURST_S = 0.1
_REF_MATRIX = np.random.default_rng(0).normal(size=(24, 24))


def reference_unit() -> float:
    """Seconds taken by the reference unit: a Python loop and small numpy
    solves, the mix the checks spend their time in."""
    t0 = perf_counter()
    s = 0.0
    for i in range(4000):
        s += (i % 7) * 0.5
    for _ in range(20):
        np.linalg.solve(_REF_MATRIX, _REF_MATRIX[0])
    return perf_counter() - t0


def reference_burst() -> list:
    """Reference unit times over REF_BURST_S."""
    out = []
    t0 = perf_counter()
    while perf_counter() - t0 < REF_BURST_S:
        out.append(reference_unit())
    return out


# ---------------------------------------------------------------------------
# passes

# An untraced run repeats a check that took over LONG_CHECK_S in the first
# pass only in every LONG_EVERY-th pass, so that the short checks get
# several times the repeats in the same run length.
LONG_CHECK_S = 0.5
LONG_EVERY = 5


@dataclass
class PassRecord:
    traced: bool
    wall_s: float
    # in check order; None for a check the pass skipped
    check_s: list = field(default_factory=list)    # seconds
    outcomes: list = field(default_factory=list)   # (outcome, reason)
    # seconds scaled to the nominal host speed; long checks only, else None
    scaled_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)      # every reference unit time


def run_pass(tracer: Tracer, checks, traced: bool, first_id: int = 0,
             skip=frozenset(), long=None) -> PassRecord:
    """One pass over `checks`.  `long`: the checks to bracket with
    reference bursts; None in the first pass, where a check is long when
    it took over LONG_CHECK_S (and is then bracketed after it only)."""
    tracer.enabled = traced
    rec = PassRecord(traced, 0.0)
    t_pass = last_ref = perf_counter()
    for i, check in enumerate(checks):
        if i in skip:
            rec.check_s.append(None)
            rec.outcomes.append(None)
            rec.scaled_s.append(None)
            continue
        if long is not None and i in long:
            refs = reference_burst()
        elif perf_counter() - last_ref >= REF_EVERY_S:
            refs = [reference_unit()]
        else:
            refs = []
        if refs:
            rec.ref_s += refs
            last_ref = perf_counter()
        t0 = perf_counter()
        outcome = tracer.run_check(first_id + i, check)
        raw = perf_counter() - t0
        scaled = None
        if raw > LONG_CHECK_S if long is None else i in long:
            after = reference_burst()
            rec.ref_s += after
            last_ref = perf_counter()
            scaled = raw * REF_NOMINAL_S / statistics.fmean(refs + after)
        rec.check_s.append(raw)
        rec.outcomes.append(outcome)
        rec.scaled_s.append(scaled)
    rec.wall_s = perf_counter() - t_pass
    tracer.enabled = False
    return rec


def run_passes(tracer: Tracer, checks, seconds: float,
               trace: bool) -> list[PassRecord]:
    """Passes until `seconds` have gone by.  Untraced, long checks skip
    most passes (LONG_EVERY).  Traced, every pass is whole and untraced
    and traced passes alternate, so that the tracing overhead is measured
    in the same process."""
    records = []
    long = None
    t0 = perf_counter()
    while True:
        k = len(records)
        traced = trace and k % 2 == 1
        skip = long if long and not trace and k % LONG_EVERY else frozenset()
        records.append(run_pass(tracer, checks, traced, k * len(checks), skip, long))
        if long is None:
            long = frozenset(i for i, t in enumerate(records[0].scaled_s) if t is not None)
        have_both = not trace or len(records) >= 2
        if have_both and perf_counter() - t0 >= seconds:
            return records


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns (value, percentile).  Below 20 samples that percentile would
    lie under the median, so the median is returned with percentile 50.
    """
    v = sorted(values)
    k = len(v) - 10
    if k < 1 or k / len(v) < 0.5:
        return statistics.median(v), 50.0
    return v[k - 1], 100.0 * k / len(v)


def check_latency(records):
    """A short check's time is its fastest over the passes that ran it: a
    shared host can switch between two speeds some 1.6x apart within a
    second, and the fastest of several repeats is steady where a mean or a
    median follows the mix of the two; it is then scaled as described
    under "host speed".  A long check's time is the median of its scaled
    times (see "host speed").  check_p50_ms and
    check_tail_ms are the median and the tail over the checks of a pass,
    pass_s their sum; under "raw", the same with every check at its
    fastest, unscaled."""
    def summary(times):
        value, percentile = tail(times)
        return ({"pass_s": sum(times), "check_p50_ms": 1e3 * statistics.median(times),
                 "check_tail_ms": 1e3 * value}, percentile)

    runs = [[t for t in times if t is not None]
            for times in zip(*(r.check_s for r in records))]
    scaled = [[t for t in times if t is not None]
              for times in zip(*(r.scaled_s for r in records))]
    refs = sorted(t for r in records for t in r.ref_s)

    def scale(q):
        return REF_NOMINAL_S / refs[min(len(refs) - 1, int(q * len(refs)))]

    best = [statistics.median(s) if s else min(t) * scale(1.0 / (len(t) + 1))
            for t, s in zip(runs, scaled)]
    metrics, percentile = summary(best)
    return {
        **metrics,
        "raw": summary([min(t) for t in runs])[0],   # every check at its fastest, unscaled
        "median_scale": scale(0.5),
        "long_checks": sum(map(bool, scaled)),
        "tail_percentile": percentile,
        "tail_samples": len(best),
        "repeats": [min(map(len, runs)), max(map(len, runs))],
        "pass_walls_s": [r.wall_s for r in records],
    }


def known_ceiling(n: int, rate: float) -> int:
    """Most misses of a known defect that n checks of the kind carrying
    it may show: its measured rate plus five standard deviations."""
    mean = n * rate
    return math.ceil(mean + 5.0 * math.sqrt(mean * (1.0 - rate)) + 1.0)


def worst_outcomes(records, checks, known_defects):
    """Each check's worst outcome over the passes, and the verdict.
    `known_defects`: defect name -> (check kind carrying it, measured rate)."""
    rank = OUTCOMES.index
    worst = [max(filter(None, o), key=lambda x: rank(x[0]))
             for o in zip(*(r.outcomes for r in records))]
    by_kind = defaultdict(Counter)
    for check, (outcome, _) in zip(checks, worst):
        by_kind[check.kind][outcome] += 1
    n = Counter(outcome for outcome, _ in worst)
    known = Counter(reason for outcome, reason in worst if outcome == "known")
    ceilings = {name: known_ceiling(sum(c.kind == kind for c in checks), rate)
                for name, (kind, rate) in known_defects.items()}
    return {
        "attempted": len(worst),
        "failed": len(worst) - n["pass"],
        "correct": (n["wrong"] == 0 and n["chance"] <= MAX_CHANCE_MISSES
                    and all(known[name] <= ceilings.get(name, 0) for name in known)),
        "outcomes": {o: n[o] for o in OUTCOMES},
        "known": {name: {"misses": known[name], "ceiling": ceilings[name]}
                  for name in ceilings},
        "outcomes_by_kind": {k: dict(c) for k, c in by_kind.items()},
    }


# ---------------------------------------------------------------------------
# per-layer aggregation from spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover, minus time the callee reported for itself."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.end - s.start - s.inner_s
            - _covered((max(a, s.start), min(b, s.end))
                       for a, b in children.get(s.sid, ()))
            for s in spans}


def layer_stats(spans, misses, passes: int):
    """calls, busy_s, self_s and fail of every spanned function, per traced
    pass, plus layer totals and the failures broken down by type."""
    selfs = self_times(spans)
    per_fn = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                  "fail": 0})
    fail_types = defaultdict(Counter)
    layer_intervals = defaultdict(list)
    layer_self = Counter()
    for s in spans:
        if s.name.startswith("check."):
            continue
        st = per_fn[s.name]
        st["calls"] += 1
        st["busy_s"] += s.end - s.start
        st["self_s"] += selfs[s.sid]
        if s.error:
            st["fail"] += 1
            fail_types[s.name][s.error] += 1
        layer = s.name.split(".")[0]
        layer_intervals[layer].append((s.start, s.end))
        layer_self[layer] += selfs[s.sid]
    for (fn, reason), n in misses.items():
        per_fn[fn]["fail"] += n
        fail_types[fn][reason] += n
    out = {}
    for name, st in per_fn.items():
        for stat, v in st.items():
            out[f"{name}.{stat}"] = v / passes
    for layer, ivs in layer_intervals.items():
        out[f"{layer}.busy_s"] = _covered(ivs) / passes
        out[f"{layer}.self_s"] = layer_self[layer] / passes
    breakdown = {fn: dict(c) for fn, c in fail_types.items()}
    return out, breakdown


def ratio(num, den):
    """num / den, and 0 where the workload never reaches the layer."""
    return num / den if den else 0.0
