"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet_storm --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the host's environment block.  The
full record of a run goes to ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import sys
import time
from pathlib import Path

# Load hygiene before numpy is imported anywhere: one BLAS thread here and
# in every process this one starts, and no REPRO_* knob from the caller's
# shell, so every run measures the program's defaults.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The baseline scripts: the reference fleet shape, the serve stream's
#: query grid and the environment block come from there.
BENCHMARKS = ROOT / "benchmarks"
WORKLOADS = ("fleet_storm", "fleet_sharded", "placement_tcp", "model_fit")

END_TO_END = {"throughput_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p99_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "session.fast_forward.calls": "count",
    "session.fast_forward.steps_per_call": "steps/call",
    "session.fast_forward.self_s": "s",
    "engine.events": "count",
    "engine.events_per_step": "events/step",
    "fleet.driver_self_s": "s",
    "pool.calls": "count",
    "pool.self_s": "s",
    "pool.grant_ratio": "ratio",
    "pool.denied": "count",
    "controller.request_replacement.self_s": "s",
    "telemetry.record.self_s": "s",
    "telemetry.rows": "count",
    "telemetry.write_npz_s": "s",
    "telemetry.artifact_bytes": "bytes",
    "shard.speedup_vs_single": "ratio",
    "shard.parent_cpu_share": "ratio",
    "shard.children_cpu_s": "s",
    "shard.revocation_draws": "count",
    "transport.roundtrip_us": "us",
    "codec.us": "us",
    "service.answer_now_us": "us",
    "transport.overhead_us": "us",
    "advisor.answer_us": "us",
    "service.cache_hit_ratio": "ratio",
    "server.cpu_us_per_query": "us",
    "client.cpu_us_per_query": "us",
    "transport.errors": "count",
    "svr.fit.calls": "count",
    "svr.fit_small.mean_ms": "ms",
    "svr.fit_large.mean_ms": "ms",
    "svr.fit.self_share": "ratio",
    "svr.predict.self_s": "s",
    "model_selection.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready', tear down and exit")
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, size: str):
    if name == "fleet_storm":
        from fleet import FleetStorm
        return FleetStorm(seed, size)
    if name == "fleet_sharded":
        from fleet import FleetSharded
        return FleetSharded(seed, size)
    if name == "placement_tcp":
        from placement import PlacementTcp
        return PlacementTcp(seed, size)
    from modelfit import ModelFit
    return ModelFit(seed, size)


def measure(args: argparse.Namespace, workload, tally) -> dict:
    """Untimed warm-up, then either the timed repetitions (``--trace 0``)
    or the traced run (``--trace 1``), then the out-of-repetition checks."""
    import harness

    warm = workload.rep()
    tally.add_rep(warm)
    tally.counts = warm.counts
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size]
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        try:
            layers = workload.traced(recorder, args.seconds, tally)
        finally:
            recorder.uninstall()
        tally.add(*workload.checks())
        harness.RUNS_DIR.mkdir(exist_ok=True)
        recorder.write(harness.RUNS_DIR / f"spans-{args.workload}.npz")
        layers["trace.spans"] = len(recorder)
        # A renamed entry point or a layer the workload no longer reaches
        # would otherwise read 0 and pass.
        tally.add(len(recorder.missing),
                  [f"layer entry point {entry} not found"
                   for entry in recorder.missing])
        needed = (*workload.layers, "trace.spans")
        tally.add(len(needed),
                  [f"layer metric {name} reads {layers.get(name, 0)}, "
                   "not above 0" for name in needed
                   if not layers.get(name, 0) > 0])
        return {"metrics": {name: harness.metric(layers.get(name, 0), unit)
                            for name, unit in PER_LAYER.items()},
                "untraced_layers": recorder.missing}
    reps, peak_rss = harness.run_reps(workload.rep, args.seconds, tally,
                                      workload.peak_rss_mb)
    # Checks outside the repetitions run after the peak memory reading:
    # fleet_sharded's is a whole single-process fleet run in this process.
    tally.add(*workload.checks())
    p50, p99, samples = harness.latency_metrics(reps)
    workload.close()
    # Set-up probes run last: their processes must not count towards the
    # peak memory of the shards (RUSAGE_CHILDREN).
    setups = harness.probe_setup(argv, tally)
    metrics = {
        "throughput_per_s": harness.throughput(reps),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "peak_rss_mb": peak_rss,
        "setup_s": (statistics.median(raw * scale for raw, scale in setups)
                    if setups else 0.0),
    }
    return {
        "metrics": {name: harness.metric(metrics[name], unit)
                    for name, unit in END_TO_END.items()},
        "work_unit": workload.unit,
        "repetitions": len(reps),
        "rep_seconds_raw": [rep.seconds for rep in reps],
        "rep_scale": [rep.scale for rep in reps],
        "raw_throughput_per_s": statistics.median(
            rep.work / rep.seconds for rep in reps),
        "latency_samples": samples,
        "setup_samples_s_raw": [raw for raw, _ in setups],
        "setup_scale": [scale for _, scale in setups],
    }


def stop_on_sigterm(main_pid: int) -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks stop the server
    and remove scratch files; forked shard processes keep the default."""
    def handler(signum, _frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv=None) -> int:
    args = parse_args(argv)
    stop_on_sigterm(os.getpid())
    for needed in (SRC / "repro", BENCHMARKS / "_common.py"):
        if not needed.exists():
            print(f"perfbench: no program to measure: {needed} is missing "
                  "(run from the root of a full checkout)", file=sys.stderr)
            return 2
    sys.path[1:1] = [str(SRC), str(BENCHMARKS)]
    load = os.getloadavg()
    import harness

    workload = make_workload(args.workload, args.seed, args.size)
    if args.setup_probe:
        print("ready", flush=True)
        workload.close()
        return 0
    kernel = harness.host_time()
    tally = harness.Tally()
    started = time.perf_counter()
    try:
        result = measure(args, workload, tally)
    finally:
        workload.close()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size,
              "environment": harness.environment(load, kernel),
              "run_wall_s": time.perf_counter() - started}
    record.update({key: value for key, value in result.items()
                   if key != "metrics"})
    return harness.emit(record, tally, result["metrics"],
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")


#: String-hash seed of the benchmark and every process it starts.  With
#: random seeds, the same storm run's host-rescaled speed moved by up to
#: 18% from one process to the next; with this one fixed, by about 4%.
HASH_SEED = "0"

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
