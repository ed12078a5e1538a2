#!/usr/bin/env python3
"""Benchmark of valwb, built from the checkout's own ``src``.

    python3 perfbench/run.py --workload suite|exact-eval|completion|all \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client in one process and one
thread.  With ``--trace 0`` the run measures end-to-end metrics untraced;
end-to-end times are scaled to a reference host speed
(perfbench/hostspeed.py), so a slow stretch of a shared machine does not
read as a slower program.  With ``--trace 1`` it times the same work once
untraced and once under the span tracer (perfbench/tracer.py) and reports
the per-layer metrics, in wall time.  Every
answer is checked against an oracle that does not come from valwb
(perfbench/inputs.py).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 1 on any wrong answer, failing suite
verdict or non-deterministic suite report, and 2 when valwb's sources are
missing.  ``--workload all`` runs the three workloads in turn and prints
each one's lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402  (the benchmark's own modules, next to this file)
import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("suite", "exact-eval", "completion")
SETUP_REPEATS = 5         # set-up is timed this often; setup_s is the median
SUITE_MIN_CALLS = 2       # the report bytes must match across repeats
WARMUP_REQUESTS = 12
# Copies of each stream workload's sweep.  The timed loop cycles through the
# resulting requests in whole passes, so every input is judged in every run.
BLOCKS = {"exact-eval": 2, "completion": 10}


def load_valwb():
    """A fresh import of valwb from the checkout, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "valwb" or n.startswith("valwb.")]:
        del sys.modules[name]
    vw = importlib.import_module("valwb")
    if Path(vw.__file__).resolve().parent != SRC / "valwb":
        raise SystemExit(f"error: imported valwb from {vw.__file__}, not from {SRC}")
    return vw


def build_requests(vw, workload, seed):
    """The seeded request pool, warmed up on its first (cheapest) strata and
    then shuffled by the seed."""
    make = inputs.exact_eval_requests if workload == "exact-eval" else inputs.completion_requests
    requests = make(vw, seed, BLOCKS[workload])
    for req in requests[:WARMUP_REQUESTS]:
        inputs.call(vw, req)
    random.Random(seed).shuffle(requests)
    return requests


def set_up(workload, seed):
    """Import, generate the seeded inputs and warm up, SETUP_REPEATS times:
    (valwb, requests, median scaled seconds, median wall seconds)."""
    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        with hostspeed.Sampler() as sampler:
            vw = load_valwb()
            if workload == "suite":
                requests = None
                vw.run_example("6.2")
            else:
                requests = build_requests(vw, workload, seed)
        scaled.append(sampler.scaled_s)
        walls.append(sampler.wall_s)
    return vw, requests, statistics.median(scaled), statistics.median(walls)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def suite_call(vw, seed):
    report = vw.run_selftest(seed)
    return report, hashlib.sha256(report.to_structured().encode()).hexdigest()


def run_suite(vw, seed, seconds, trace):
    """Calls of run_selftest(seed), each one pass of a single request: at
    least SUITE_MIN_CALLS untraced calls, whose median scaled time is the
    latency, or one untraced and one traced call, in wall time (a traced
    call is not sampled: the probes would land inside the tracer's spans)."""
    walls, scaled, digests, reports = [], [], [], []

    def record(call):
        report, digest = call
        reports.append(report)
        digests.append(digest)

    tr = None
    if trace:
        for tr in (None, tracer.Tracer()):
            start = time.perf_counter()
            with tr or contextlib.nullcontext():
                record(suite_call(vw, seed))
            walls.append(time.perf_counter() - start)
    else:
        deadline = time.perf_counter() + seconds
        while len(walls) < SUITE_MIN_CALLS or time.perf_counter() < deadline:
            with hostspeed.Sampler() as sampler:
                record(suite_call(vw, seed))
            walls.append(sampler.wall_s)
            scaled.append(sampler.scaled_s)
    suite_s = statistics.median(scaled or walls)
    report = reports[0]     # the first report is the one judged
    failing = [v for v in report.verdicts if v.is_failure()]
    deterministic = len(set(digests)) == 1
    for v in failing:
        print(f"FAIL verdict: {v.operation}: {v.outcome}")
    if not deterministic:
        print(f"FAIL: structured report differs across calls: {sorted(set(digests))}")
    result = {
        "correct": not failing and deterministic,
        "attempted": len(report.verdicts),
        "failed": len(failing),
        "latencies": [suite_s],
        "info": {
            "calls_wall_s": [round(w, 4) for w in walls],
            "suite_s": suite_s,
            "verdicts": len(report.verdicts),
            "failed_ratio": len(failing) / len(report.verdicts),
            "sha256": digests[0],
            "deterministic": deterministic,
        },
    }
    if trace:
        result["untraced_s"], result["traced_s"] = walls
        result["tracer"] = tr
    return result


def run_pass(vw, requests):
    """Each request once, in order, right after a host-speed probe:
    (wall latencies, scaled latencies, answers)."""
    walls, scaled, answers = [], [], []
    for req in requests:
        answer, wall, ref = hostspeed.timed(inputs.call, vw, req)
        answers.append(answer)
        walls.append(wall)
        scaled.append(hostspeed.scale(wall, ref))
    return walls, scaled, answers


def judge(req, result, exc):
    try:
        return req.judge(result, exc)
    except Exception as err:  # the oracle's own re-check must not end the run
        return inputs.WRONG, f"oracle re-check raised {type(err).__name__}: {err}"


def run_stream(vw, requests, seconds, trace):
    """Closed loop over the request pool: whole passes, at least two, until
    ``seconds``; or one untraced and one traced pass.  A request's latency is
    the median of its scaled passes."""
    start = time.perf_counter()
    samples = [[] for _ in requests]
    first, walls, passes, stable = None, [], 0, True
    while passes < 2 or not trace and time.perf_counter() - start < seconds:
        # the second pass of a traced run is the traced one; answers are
        # judged outside the tracer, since oracles may call valwb too
        tr = tracer.Tracer() if trace and passes else None
        with tr or contextlib.nullcontext():
            wall, scaled, answers = run_pass(vw, requests)
        verdicts = [judge(req, *answer) for req, answer in zip(requests, answers)]
        if first is None:
            first = verdicts
        else:
            stable = stable and [o[0] for o in verdicts] == [o[0] for o in first]
        for sample, latency in zip(samples, scaled):
            sample.append(latency)
        walls.append(sum(wall))
        passes += 1
    latencies = [statistics.median(sample) for sample in samples]
    tally = Counter(o[0] for o in first)
    by_kind = Counter((req.kind, o[0]) for req, o in zip(requests, first))
    for req, (outcome, detail) in zip(requests, first):
        if outcome in (inputs.WRONG, inputs.FAILED):
            print(f"{outcome.upper()} {req.kind}: {detail}")
    if not stable:
        print("WRONG: a later pass reached a different verdict than the first")
    n = len(requests)
    failed = tally[inputs.WRONG] + tally[inputs.FAILED]
    kinds = {}
    for req, lat in zip(requests, latencies):
        kinds.setdefault(req.kind, []).append(lat)
    result = {
        "correct": tally[inputs.WRONG] == 0 and stable,
        "attempted": n,
        "failed": failed,
        "latencies": latencies,
        "info": {
            "passes": passes,
            "outcomes": dict(sorted(tally.items())),
            "outcomes_by_kind": {f"{k}:{o}": c for (k, o), c in sorted(by_kind.items())},
            "mean_scaled_ms_by_kind": {k: round(1e3 * statistics.mean(v), 3)
                                       for k, v in sorted(kinds.items())},
            "failed_ratio": failed / n,
            "undecidable_ratio": tally[inputs.UNDECIDABLE] / n,
        },
    }
    if trace:
        result["untraced_s"], result["traced_s"] = walls
        result["tracer"] = tr
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res, setup_s):
    """Over each distinct request's latency at reference host speed."""
    lat = res["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(res):
    tr = res["tracer"]
    metrics = tr.metrics()
    untraced, traced = res["untraced_s"], res["traced_s"]
    # refusals the caps honestly force; a change that gives up earlier
    # raises this while `failed` stays put
    metrics["undecidable_ratio"] = (res["info"].get("undecidable_ratio", 0.0), "ratio")
    metrics["trace_overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.unattributed_s"] = (traced - tr.attributed_s(), "s")
    return metrics


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def run_one(args):
    if not (SRC / "valwb" / "__init__.py").is_file():
        print(f"error: valwb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    vw, requests, setup_s, setup_wall_s = set_up(args.workload, args.seed)
    if args.workload == "suite":
        try:
            res = run_suite(vw, args.seed, args.seconds, args.trace)
        except vw.WorkbenchError as exc:
            # the selftest itself gave up: no report, so nothing to time
            print(f"FAIL: run_selftest({args.seed}) raised {type(exc).__name__}: {exc}")
            return 1
    else:
        res = run_stream(vw, requests, args.seconds, args.trace)
    metrics = per_layer(res) if args.trace else end_to_end(res, setup_s)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"setup_s {setup_s:.4f} setup_wall_s {setup_wall_s:.4f} env {json.dumps(environment())}")
    info = res["info"]
    if not args.trace:
        lat = res["latencies"]
        info["latency_samples"] = len(lat)
        info["samples_beyond_p90"] = sum(1 for x in lat if x * 1e3 > metrics["latency_p90_ms"][0])
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if res["correct"] else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
