"""The two fleet workloads: ``fleet_storm`` and ``fleet_sharded``.

``fleet_storm`` is the ``BENCH_fleet`` reference shape — 3xK80 jobs in
europe-west1, queued replacements, epoch 8.5 h UTC, one shared pool cell
with 4 slots per job — run through the public telemetry export, so every
repetition also writes the npz artifact.  One connected component with
maximal interleaving: the engine heap, session fast-forward and the
telemetry spool carry the load.

``fleet_sharded`` spreads the same job shape over four independent K80
pool cells (one per region) with no spare capacity, half the jobs queueing
replacements and half having them denied, and runs it through
``ShardedFleetRun(shards=2)`` with telemetry off: the shard draw service,
process fan-out and merge, and the pool's denial path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from harness import (RUNS_DIR, HostClock, Rep, alternate, medians, overhead_pct,
                     pin_to_one_cpu)

JOBS = 100
#: Steps per job.  A fleet run is one request of these workloads, so their
#: p99 latency is close to the slowest repetition of a run.  A sharded run
#: takes about two seconds here: at one second its p99 was the noisiest
#: figure (spread 0.17 over ten seeds; 0.07 over five at two seconds).  A
#: storm run stays at about one second: at two, the host-speed readings
#: around it tracked it worse (throughput spread 0.14 and 0.16 in two sets
#: of five seeds, against 0.06 over ten at one second).
STORM_STEPS = {"full": 5000, "tiny": 200}
SHARDED_STEPS = {"full": 24000, "tiny": 400}
SHARDS = 2
K80_REGIONS = ("us-east1", "us-central1", "us-west1", "europe-west1")
#: Per-layer metrics both fleets' traced runs must see above 0.  Not
#: ``pool.denied`` or ``pool.grant_ratio``: a seed may bring no denial.
FLEET_LAYERS = (
    "session.fast_forward.calls", "session.fast_forward.steps_per_call",
    "session.fast_forward.self_s", "engine.events", "engine.events_per_step",
    "fleet.driver_self_s", "pool.calls", "pool.self_s",
    "controller.request_replacement.self_s")


def storm_scenario(steps: int):
    """``BENCH_fleet``'s reference shape at :data:`JOBS` jobs."""
    from fleet_baseline import scaled_storm

    return scaled_storm(JOBS, steps)


def sharded_scenario(steps: int):
    """The storm's job shape over four tight, independent K80 cells."""
    import dataclasses

    storm = storm_scenario(steps)
    jobs = tuple(
        dataclasses.replace(
            job, name=f"spread-{index}",
            workers=((("k80", K80_REGIONS[index % 4]),) * len(job.workers)),
            queue_replacements=(index // 4) % 2 == 0)
        for index, job in enumerate(storm.jobs))
    per_cell = sum(len(job.workers) for job in jobs) // len(K80_REGIONS)
    return dataclasses.replace(
        storm, name=f"perfbench_spread_x{JOBS}",
        description="storm jobs over four tight K80 cells", jobs=jobs,
        pool_capacity={("k80", region): per_cell for region in K80_REGIONS})


def payload_digest(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def steps_done(payload: Dict[str, Any]) -> int:
    return sum(int(job["steps_done"]) for job in payload["jobs"])


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def fleet_layers(summary: Dict[str, Dict[str, float]],
                 payload: Dict[str, Any]) -> Dict[str, float]:
    """Session, engine, driver, pool and controller metrics of one rep."""
    def get(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    steps = steps_done(payload)
    calls = get("session.fast_forward", "calls")
    events = get("fleet.run", "tag")
    pool = payload["pool"]
    pool_spans = [name for name in summary if name.startswith("pool.")]
    return {
        "session.fast_forward.calls": calls,
        "session.fast_forward.steps_per_call": steps / calls if calls else 0,
        "session.fast_forward.self_s": get("session.fast_forward", "self_s"),
        "engine.events": events,
        "engine.events_per_step": events / steps if steps else 0,
        "fleet.driver_self_s": get("fleet.run", "self_s"),
        "pool.calls": sum(summary[name]["calls"] for name in pool_spans),
        "pool.self_s": sum(summary[name]["self_s"] for name in pool_spans),
        "pool.grant_ratio": (pool["replacements_granted"]
                             / pool["replacement_requests"]
                             if pool["replacement_requests"] else 0),
        "pool.denied": pool["replacements_denied"],
        "controller.request_replacement.self_s":
            get("controller.request_replacement", "self_s"),
    }


class FleetStorm:
    """100-job storm through ``export_fleet_telemetry(..., shards=1)``."""

    unit = "steps"
    layers = FLEET_LAYERS + (
        "telemetry.record.self_s", "telemetry.rows", "telemetry.write_npz_s",
        "telemetry.artifact_bytes")

    def __init__(self, seed: int, size: str):
        from repro.telemetry import export

        self._export = export
        self.seed = seed
        self.scenario = storm_scenario(STORM_STEPS[size])
        self.affinity = pin_to_one_cpu()
        self.workdir = RUNS_DIR / f"storm-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.artifact = str(self.workdir / "fleet.npz")
        self.reference: Tuple[str, str] = ("", "")
        self.payload: Dict[str, Any] = {}

    def export(self) -> Dict[str, Any]:
        return self._export.export_fleet_telemetry(
            self.scenario, self.artifact, seed=self.seed, shards=1)

    def read_back(self) -> Tuple[int, int]:
        """``(step rows, steps)`` in the artifact; each row is one chunk
        event and carries its step count in the ``steps`` column."""
        from repro.telemetry.reader import TelemetryReader
        from repro.telemetry.writer import STEP_COLUMNS

        column = STEP_COLUMNS.index("steps")
        rows = steps = 0
        with TelemetryReader(self.artifact) as reader:
            for rank in reader.ranks:
                for chunk in reader.step_chunks(rank):
                    rows += chunk.shape[0]
                    steps += int(chunk[:, column].sum())
        return rows, steps

    def rep(self, clock: Optional[HostClock] = None) -> Rep:
        clock = clock or HostClock(rescale=False)
        clock.start()
        payload = self.export()
        clock.split()
        self.payload = payload
        steps = steps_done(payload)
        with open(self.artifact, "rb") as handle:
            artifact = hashlib.sha256(handle.read()).hexdigest()
        rows, rows_steps = self.read_back()
        failures = []
        outputs = (payload_digest(payload), artifact)
        if not self.reference[0]:
            self.reference = outputs
        elif outputs[0] != self.reference[0]:
            failures.append("fleet payload differs between repetitions")
        elif outputs[1] != self.reference[1]:
            failures.append("telemetry artifact sha256 differs between "
                            "repetitions")
        if rows_steps != steps:
            failures.append(f"artifact rows carry {rows_steps} steps for "
                            f"{steps} steps done")
        return Rep(clock.raw, steps, {"steps": steps, "rows": rows,
                                      "jobs": len(payload["jobs"])},
                   failures=failures, scale=clock.scale)

    def checks(self) -> Tuple[int, List[str]]:
        return 0, []

    def peak_rss_mb(self) -> float:
        return rss_mb(resource.RUSAGE_SELF)

    def traced(self, recorder, seconds: float, tally) -> Dict[str, float]:
        plain: List[Rep] = []
        traced: List[Rep] = []

        def traced_rep() -> None:
            recorder.begin(len(traced))
            try:
                traced.append(self.rep())
            finally:
                recorder.stop()

        alternate(seconds, [lambda: plain.append(self.rep()), traced_rep])
        for rep in plain + traced:
            tally.add_rep(rep)
        summaries = recorder.summaries()
        rows = []
        for rep_id, rep in enumerate(traced):
            summary = summaries.get(rep_id, {})
            layers = fleet_layers(summary, self.payload)
            layers.update({
                "telemetry.record.self_s":
                    summary.get("telemetry.record", {}).get("self_s", 0),
                "telemetry.rows": rep.counts["rows"],
                "telemetry.write_npz_s":
                    summary.get("telemetry.write_npz", {}).get("total_s", 0),
                "telemetry.artifact_bytes": os.path.getsize(self.artifact),
            })
            rows.append(layers)
        out = medians(rows)
        out["trace.overhead_pct"] = overhead_pct(plain, traced)
        return out

    def close(self) -> None:
        os.sched_setaffinity(0, self.affinity)
        shutil.rmtree(self.workdir, ignore_errors=True)


class FleetSharded:
    """The spread fleet through ``ShardedFleetRun(shards=2)``."""

    unit = "steps"
    layers = FLEET_LAYERS + (
        "shard.speedup_vs_single", "shard.parent_cpu_share",
        "shard.children_cpu_s", "shard.revocation_draws")

    def __init__(self, seed: int, size: str):
        from repro.scenarios.shard import ShardedFleetRun
        from repro.simulation.rng import RandomStreams

        self._runner = ShardedFleetRun
        self._streams = RandomStreams
        self.seed = seed
        self.scenario = sharded_scenario(SHARDED_STEPS[size])
        self.reference = ""
        self.payload: Dict[str, Any] = {}

    def run(self, shards: int) -> Dict[str, Any]:
        return self._runner(self.scenario, self._streams(self.seed),
                            shards=shards).run()

    def rep(self, clock: Optional[HostClock] = None) -> Rep:
        clock = clock or HostClock(rescale=False)
        clock.start()
        payload = self.run(SHARDS)
        clock.split()
        self.payload = payload
        digest = payload_digest(payload)
        failures = []
        if not self.reference:
            self.reference = digest
        elif digest != self.reference:
            failures.append("sharded payload differs between repetitions")
        steps = steps_done(payload)
        return Rep(clock.raw, steps, {"steps": steps,
                                      "revocations": payload["revocations"]},
                   failures=failures, scale=clock.scale)

    def checks(self) -> Tuple[int, List[str]]:
        """The 2-shard payload must equal the single-process payload."""
        if payload_digest(self.run(1)) != self.reference:
            return 1, [f"{SHARDS}-shard payload differs from the "
                       "single-process payload"]
        return 1, []

    def peak_rss_mb(self) -> float:
        return max(rss_mb(resource.RUSAGE_SELF),
                   rss_mb(resource.RUSAGE_CHILDREN))

    def traced(self, recorder, seconds: float, tally) -> Dict[str, float]:
        plain: List[Rep] = []
        traced: List[Rep] = []
        single_seconds: List[float] = []
        single_payloads: List[Dict[str, Any]] = []
        cpu: List[Tuple[float, float]] = []

        def cpu_seconds(who: int) -> float:
            usage = resource.getrusage(who)
            return usage.ru_utime + usage.ru_stime

        def untraced_sharded() -> None:
            parent = cpu_seconds(resource.RUSAGE_SELF)
            children = cpu_seconds(resource.RUSAGE_CHILDREN)
            plain.append(self.rep())
            cpu.append((cpu_seconds(resource.RUSAGE_SELF) - parent,
                        cpu_seconds(resource.RUSAGE_CHILDREN) - children))

        def traced_sharded() -> None:
            # Spans recorded inside the forked shards are not collected.
            recorder.begin(-1)
            try:
                traced.append(self.rep())
            finally:
                recorder.stop()

        def traced_single() -> None:
            recorder.begin(len(single_payloads))
            try:
                single_payloads.append(self.run(1))
            finally:
                recorder.stop()

        def untraced_single() -> None:
            started = time.perf_counter()
            self.run(1)
            single_seconds.append(time.perf_counter() - started)

        alternate(seconds, [untraced_sharded, traced_sharded,
                            untraced_single, traced_single])
        for rep in plain + traced:
            tally.add_rep(rep)
        for payload in single_payloads:
            tally.add(1, [] if payload_digest(payload) == self.reference
                      else ["traced single-process payload differs"])
        summaries = recorder.summaries()
        out = medians([fleet_layers(summaries.get(rep_id, {}), payload)
                       for rep_id, payload in enumerate(single_payloads)])
        out.update({
            "shard.speedup_vs_single": statistics.median(single_seconds)
            / statistics.median(r.seconds for r in plain),
            "shard.parent_cpu_share": statistics.median(
                p / (p + c) for p, c in cpu),
            "shard.children_cpu_s": statistics.median(c for _, c in cpu),
            "shard.revocation_draws": self.payload["revocations"],
            "trace.overhead_pct": overhead_pct(plain, traced),
        })
        return out

    def close(self) -> None:
        pass
