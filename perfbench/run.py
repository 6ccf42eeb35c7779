"""mixregime benchmark: one workload per run, metrics as JSON on the last line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc-msar|mc-hmm|oracle [--seed N]
                             [--seconds S] [--trace 0|1]

The run imports mixregime from ./src, times whole rounds of the workload
until S seconds have passed, checks the outputs against independent
computations (perfbench/checks.py), and prints one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 one untraced round is followed by
traced rounds, and the metrics are the per-layer ones plus the tracing
overhead.  Lines before the last are information: failed operations, wrong
outputs, the content hash of the rows.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def setup_seconds(workload: str) -> list:
    """Set-up times of fresh processes: interpreter start to configs loaded."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(bootstrap.ROOT / "perfbench" / "probe.py"),
             workload], cwd=bootstrap.ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(done.stdout.split()[-1]) - t0)
    return out


def timed_rounds(wl, seconds: float, tracer=None) -> list:
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        if tracer is None:
            rounds.append(wl.run_round())
        else:
            with tracer:
                rounds.append(wl.run_round())
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bootstrap.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        loaded = bootstrap.load(args.workload)
        setups = [] if args.trace else setup_seconds(args.workload)
    except (bootstrap.SetupError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or ""
        print(f"set-up failed: {exc}\n{detail}", file=sys.stderr)
        return 2
    import mixregime as mr
    import spans
    import workloads

    workloads.RESULTS.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](mr, loaded, args.seed)
    modules = {"harness": mr.harness, "estimator": mr.estimator,
               "inference": mr.inference, "oracle": mr.oracle}
    tracer = spans.Tracer(modules) if args.trace else None

    baseline = [wl.run_round()] if args.trace else []
    rounds = timed_rounds(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # everything below is outside the timed section
    every = baseline + rounds
    digests = [wl.digest(r.output) for r in every]
    verdict = wl.check(every[0].output)
    if len(set(digests)) > 1:
        verdict.problems.append("rounds of identical inputs gave different "
                                f"outputs: {sorted(set(digests))}")
    for line in verdict.notes + [f"WRONG: {p}" for p in verdict.problems]:
        print(line)
    print(f"{wl.name} seed {args.seed}: {len(every)} round(s) of {wl.ops} "
          f"operation(s); output sha256 {digests[0]}")

    wall_s = statistics.median(r.wall_s for r in rounds)
    if args.trace:
        metrics = {k: {"value": v, "unit": spans.UNITS[k]} for k, v in
                   spans.layer_metrics(tracer.spans, len(rounds)).items()}
        metrics["trace.overhead_s"] = {
            "value": wall_s - baseline[0].wall_s, "unit": "s"}
        for name in tracer.missing:
            print(f"trace: binding {name} not found; its metrics read 0")
        tracer.write(workloads.RESULTS / f"trace-{wl.name}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "reps_per_s": {"value": wl.ops / wall_s, "unit": "1/s"},
            "oracle_s": {"value": statistics.median(r.solve_s for r in rounds),
                         "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": verdict.correct, "attempted": wl.ops * len(every),
              "failed": verdict.failed * len(every), "metrics": metrics}
    with open(workloads.RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**result, "seed": args.seed, "digest": digests[0],
                   "round_wall_s": [r.wall_s for r in every],
                   "setup_s": setups, "notes": verdict.notes,
                   "problems": verdict.problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
