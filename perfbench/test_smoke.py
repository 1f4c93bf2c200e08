"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that each workload prints every metric ``BENCHMARK.json`` names,
with its unit, in both modes, and in the traced run a value above 0 for
each layer the workload drives; that a deliberately corrupted output or
an entry point the tracer cannot find counts as a failed operation; and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "benchmarks")]

import run  # noqa: E402  (needs the paths above)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

FLEET = ("session.fast_forward.calls", "session.fast_forward.steps_per_call",
         "session.fast_forward.self_s", "engine.events",
         "engine.events_per_step", "fleet.driver_self_s", "pool.calls",
         "pool.self_s", "controller.request_replacement.self_s")
#: The per-layer metrics each workload should move (README's table); its
#: traced run must measure every one of them.
LAYERS = {
    "fleet_storm": FLEET + ("telemetry.record.self_s", "telemetry.rows",
                            "telemetry.write_npz_s",
                            "telemetry.artifact_bytes"),
    "fleet_sharded": FLEET + ("shard.speedup_vs_single",
                              "shard.parent_cpu_share",
                              "shard.children_cpu_s",
                              "shard.revocation_draws"),
    "placement_tcp": ("transport.roundtrip_us", "codec.us",
                      "service.answer_now_us", "transport.overhead_us",
                      "advisor.answer_us", "service.cache_hit_ratio",
                      "server.cpu_us_per_query", "client.cpu_us_per_query"),
    "model_fit": ("svr.fit.calls", "svr.fit_small.mean_ms",
                  "svr.fit_large.mean_ms", "svr.fit.self_share",
                  "svr.predict.self_s", "model_selection.overhead_s"),
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert ({name: entry["unit"] for name, entry in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in declared})
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        for name in (*LAYERS[workload], "trace.spans"):
            assert result["metrics"][name]["value"] > 0, name


def corrupt_storm(workload):
    export = workload.export

    def corrupted():
        payload = export()
        payload["jobs"][0]["steps_done"] += 1
        return payload

    workload.export = corrupted


def corrupt_sharded(workload):
    run_fleet = workload.run

    def corrupted(shards):
        payload = run_fleet(shards)
        payload["makespan_seconds"] += 1.0
        return payload

    workload.run = corrupted


def corrupt_placement(workload):
    expect = workload.expect

    def corrupted(query):
        return dict(expect(query), options=[])

    workload.expect = corrupted


def corrupt_model_fit(workload):
    protocol = workload.protocol

    def corrupted(clock):
        outcomes = protocol(clock)
        outcomes[-1] = tuple(mae + 1e-12 for mae in outcomes[-1])
        return outcomes

    workload.protocol = corrupted


CORRUPTORS = {"fleet_storm": corrupt_storm, "fleet_sharded": corrupt_sharded,
              "placement_tcp": corrupt_placement,
              "model_fit": corrupt_model_fit}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    import harness

    bench_workload = run.make_workload(workload, 3, "tiny")
    try:
        tally = harness.Tally()
        tally.add_rep(bench_workload.rep())
        tally.add(*bench_workload.checks())
        assert not tally.failures
        CORRUPTORS[workload](bench_workload)
        tally.add_rep(bench_workload.rep())
        tally.add(*bench_workload.checks())
    finally:
        bench_workload.close()
    assert tally.failures


def test_untraceable_layer_counts_as_failure(monkeypatch):
    import harness
    import spans

    monkeypatch.setattr(spans, "LAYER_ENTRY_POINTS", spans.LAYER_ENTRY_POINTS
                        + (("repro.scenarios.fleet", "FleetRun",
                            "renamed_away", "fleet.renamed"),))
    args = run.parse_args(["--workload", "fleet_storm", "--seed", "3",
                           "--seconds", "0.1", "--trace", "1",
                           "--size", "tiny"])
    workload = run.make_workload("fleet_storm", 3, "tiny")
    tally = harness.Tally()
    try:
        run.measure(args, workload, tally)
    finally:
        workload.close()
    assert tally.failures == ["layer entry point "
                              "repro.scenarios.fleet.FleetRun.renamed_away "
                              "not found"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
