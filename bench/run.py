"""Benchmark of the mvmt package: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (interpreter
start, ``import mvmt``, instance generation and parsing, taken as the median
of separate set-up processes), then a closed loop, one item at a time, for
``--seconds`` seconds of item time (longer if fewer than ``MIN_ITEMS`` items
are done by then, up to ``LIMIT_S``).  Every output is checked against an
oracle outside the timed region.  The item still running when the time is
up is interrupted and neither counted nor timed.

``--trace 1`` builds a fixed number of items with the layer wrappers of
``spans.py`` installed, runs each item once untraced and once traced, and
reports the per-layer metrics; the fixed item count makes every count repeat
exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, metrics
and the recorded baseline are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Items generated during set-up; the loop cycles through them if a run gets
# through all of them.  Sized to outlast a 30-second run at the first baseline.
ITEMS = {"check-product": 6000, "check-hom-ep": 30000, "hom-search": 600, "solve": 600}
# Items of a traced run: fixed, so its counts repeat exactly for a seed.
TRACE_ITEMS = {"check-product": 500, "check-hom-ep": 2000, "hom-search": 100, "solve": 150}
# A run goes on past --seconds until this many items are done, so that at
# least ten latency samples lie above the 95th percentile, but never past
# LIMIT_S seconds of item time.
MIN_ITEMS = 200
LIMIT_S = 120.0
SETUP_REPEATS = 5
# The speed of a shared machine drifts by up to 40% over minutes.  Every
# CALIBRATION_EVERY_S seconds of item time the loop times a fixed reference
# computation (``reference``), and item latencies are scaled by
# CALIBRATION_NOMINAL_S / (its mean time in the run): they read as at the
# machine speed at which the reference takes CALIBRATION_NOMINAL_S.
CALIBRATION_EVERY_S = 0.5
CALIBRATION_NOMINAL_S = 0.0125


class Deadline(BaseException):
    """Raised in the item in flight when the measuring time is up; a
    BaseException so that no handler in the package swallows it."""


def _expire(signum, frame):
    raise Deadline


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_paths() -> None:
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "mvmt" / "__init__.py").is_file() or not (tests / "support.py").is_file():
        sys.exit(f"bench: {src}/mvmt or {tests}/support.py is missing; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(tests)]


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start until the
    workload's items are built.  Both ends read the system-wide monotonic
    clock, so interpreter shutdown is not counted."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=150,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def reference() -> int:
    """Fixed pure-Python work shaped like the package's hot paths: a
    recursive formula evaluator with dict copies per quantifier step and
    tuple keys.  It shares no code with the package or the workloads."""
    table = {(a, b): (a * 7 + b * 3) % 5 for a in range(6) for b in range(6)}
    formula = ("ex", "x", ("ex", "y", ("ex", "z", ("and", ("or", ("atom", "x", "y"), ("atom", "y", "z")), ("atom", "z", "x")))))

    def value(node, env):
        kind = node[0]
        if kind == "atom":
            return table[(env[node[1]], env[node[2]])]
        if kind == "and":
            return min(value(node[1], env), value(node[2], env))
        if kind == "or":
            return max(value(node[1], env), value(node[2], env))
        return max(value(node[2], {**env, node[1]: e}) for e in range(6))

    return sum(value(formula, {}) for _ in range(20))


def timed_loop(workloads, items, seconds: float):
    """Run items in order until ``seconds`` of item time are spent and at
    least ``MIN_ITEMS`` items are done; return per-item latencies, the number
    of failed items and the reference timings.  Only the time limit
    interrupts an item."""
    latencies: list[float] = []
    references: list[float] = []
    failed = 0
    spent = 0.0
    clock = time.perf_counter
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        while True:
            limit = min(seconds, LIMIT_S) if len(latencies) >= MIN_ITEMS else LIMIT_S
            if spent >= limit:
                break
            if spent >= len(references) * CALIBRATION_EVERY_S:
                start = clock()
                reference()
                references.append(clock() - start)
            item = items[len(latencies) % len(items)]
            ok = True
            try:
                signal.setitimer(signal.ITIMER_REAL, limit - spent)
                start = clock()
                try:
                    out = workloads.run_item(item)
                except Exception:
                    ok = False
                end = clock()
                signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                break
            latencies.append(end - start)
            spent += end - start
            if not ok or not workloads.check_item(item, out):
                failed += 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return latencies, failed, references


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload, seed)
    import workloads

    items = workloads.build_items(workload, seed, ITEMS[workload])
    raw, failed, references = timed_loop(workloads, items, seconds)
    if len(raw) < MIN_ITEMS:
        sys.exit(f"bench: only {len(raw)} items completed in {LIMIT_S} s")
    scale = CALIBRATION_NOMINAL_S / statistics.fmean(references)
    latencies = [t * scale for t in raw]
    percentiles = statistics.quantiles(latencies, n=100)
    raw_percentiles = statistics.quantiles(raw, n=100)
    print(
        f"{workload} seed={seed}: {len(raw)} items, {int(len(raw) * 0.05)} samples above p95, "
        f"{sum(raw) / len(raw) * 1e3:.3f} ms mean item time; "
        f"speed scale {scale:.4f} from {len(references)} reference timings; unscaled: "
        f"items_per_s {1 / statistics.geometric_mean(raw):.6f}, item_ms_p50 {statistics.median(raw) * 1e3:.6f}, "
        f"item_ms_p95 {raw_percentiles[94] * 1e3:.6f}",
        file=sys.stderr,
    )
    return {
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            # The reciprocal of the geometric-mean latency: items whose costs
            # span three orders of magnitude each count once, so the few
            # heaviest items a seed draws do not swing it (see README).
            "items_per_s": (1 / statistics.geometric_mean(latencies), "items/s"),
            "item_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "item_ms_p95": (percentiles[94] * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "failed_ratio": (failed / len(latencies), "ratio"),
        },
    }


def traced(workload: str, seed: int) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    try:
        items = workloads.build_items(workload, seed, TRACE_ITEMS[workload])
    finally:
        tracer.restore()
    # Each item runs untraced, then traced, so that both sides of
    # trace.overhead_ratio see the same machine conditions.
    clock = time.perf_counter
    untraced_s = traced_s = 0.0
    failed = 0
    for item in items:
        start = clock()
        workloads.run_item(item)
        untraced_s += clock() - start
        tracer.item = item.index
        tracer.install()
        try:
            start = clock()
            out = workloads.run_item(item)
            traced_s += clock() - start
        finally:
            tracer.restore()
            tracer.item = None
        if not workloads.check_item(item, out):
            failed += 1
    return {
        "attempted": len(items),
        "failed": failed,
        "metrics": layer_metrics(tracer, traced_s / untraced_s - 1),
    }


def layer_metrics(tracer, overhead: float) -> dict:
    layers = tracer.layers()

    def get(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0, "results": []})

    def ratio(part, whole):
        return part / whole if whole else 0.0

    find = get("morphisms.find")
    solve_pp = get("solver.solve_pp")
    suites = get("harness.suite")["results"]
    disjuncts = get("syntax.ep_to_pp_disjunction")["results"]
    pp_in_ep = sum(
        1 for s in tracer.spans
        if s.name == "solver.solve_pp" and s.parent is not None and s.parent.name == "solver.solve_ep"
    )
    return {
        "structures.evaluate.calls": (get("structures.evaluate")["calls"], "count"),
        "structures.evaluate.self_s": (get("structures.evaluate")["self_s"], "s"),
        "products.build.calls": (get("products.build")["calls"], "count"),
        "products.build.self_s": (get("products.build")["self_s"], "s"),
        "products.elements": (sum(get("products.build")["results"]), "count"),
        "morphisms.find.calls": (find["calls"], "count"),
        "morphisms.find.self_s": (find["self_s"], "s"),
        "morphisms.maps_found": (sum(find["results"]), "count"),
        "morphisms.refuted_ratio": (ratio(sum(1 for n in find["results"] if n == 0), find["calls"]), "ratio"),
        "solver.solve_pp.calls": (solve_pp["calls"], "count"),
        "solver.solve_pp.self_s": (solve_pp["self_s"], "s"),
        "solver.decide_pp_top.self_s": (get("solver.decide_pp_top")["self_s"], "s"),
        "solver.solve_ep.self_s": (get("solver.solve_ep")["self_s"], "s"),
        "solver.top_ratio": (ratio(sum(solve_pp["results"]), solve_pp["calls"]), "ratio"),
        "solver.ep_disjuncts_solved_ratio": (ratio(pp_in_ep, sum(disjuncts)), "ratio"),
        "syntax.ep_to_pp_disjunction.self_s": (get("syntax.ep_to_pp_disjunction")["self_s"], "s"),
        "syntax.ep_disjuncts": (sum(disjuncts), "count"),
        "syntax.classify.calls": (get("syntax.classify")["calls"], "count"),
        "syntax.parse.self_s": (get("syntax.parse")["self_s"], "s"),
        "harness.gen.self_s": (get("harness.gen")["self_s"], "s"),
        "harness.suite.self_s": (get("harness.suite")["self_s"], "s"),
        "harness.effective_ratio": (ratio(sum(e for e, _ in suites), sum(t for _, t in suites)), "ratio"),
        "algebra.chain.calls": (get("algebra.chain")["calls"], "count"),
        "algebra.chain.self_s": (get("algebra.chain")["self_s"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_paths()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.build_items(args.workload, args.seed, ITEMS[args.workload])
        print(time.monotonic())
        return 0
    problems = workloads.self_check()
    if problems:
        sys.exit("bench: oracle self-check failed: " + "; ".join(problems))
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:36} {value:>16.6f} {unit}")
    reported = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name != "failed_ratio"
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
