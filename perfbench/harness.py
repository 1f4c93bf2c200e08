"""Timing harness shared by every workload.

A workload object exposes:

* ``rep(clock) -> Rep`` — one repetition over identical, seeded inputs;
  it times only the work, through ``clock`` (:class:`HostClock`), and
  checks its outputs afterwards, untimed;
* ``checks() -> (attempted, failures)`` — output checks that run outside
  the timed repetitions;
* ``peak_rss_mb() -> float`` — peak resident memory of the process that
  does the work;
* ``traced(recorder, seconds, tally) -> dict`` — the per-layer metrics;
* ``layers`` — the per-layer metrics the traced run must see above 0;
* ``close()`` — stop every process the workload started.

``run.py`` runs one untimed warm-up repetition, then timed ones
(:func:`run_reps`) for about ``seconds``, then ``checks()``, and reports
medians over the repetitions.

Host-speed normalization
------------------------
The host shares its CPUs with other machines.  Identical CPU work takes
up to twice as long from one second to the next, and a 100-job fleet run
went from 390k to 830k steps/s within one hour with no code change.  A
median inside a 15-second run cannot absorb drift that slow, so the timed
work is cut into segments of at most a second or two, and each segment is
bracketed by host-speed readings: a fixed reference kernel
(:func:`host_time`) that belongs to the benchmark, not to the program,
run untimed right before and right after it.  Each segment's time is
rescaled to a host on which the kernel takes :data:`REFERENCE_KERNEL_S`:
``seconds * REFERENCE_KERNEL_S / kernel``.  A change to the program moves
the rescaled numbers exactly as it moves the raw ones; drift of the host
moves both the kernel and the work, and cancels.  Short segments matter:
with 0.3 to 0.8 s segments, the rescaled medians of 15-second windows
stayed within +-5% while the raw ones moved +-25%.  The raw numbers stay
in the run record.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

BENCH_DIR = Path(__file__).resolve().parent
#: Run records, span files and scratch artifacts (git-ignored).
RUNS_DIR = BENCH_DIR / ".runs"

#: Fewest timed repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 2

#: Fresh-process set-ups whose median is ``setup_s``.
SETUP_PROBES = 3

#: Reference-kernel time the reported times are rescaled to; about what
#: the kernel takes on a quiet 2-vCPU Xeon host.
REFERENCE_KERNEL_S = 0.010

#: Fewest reference-kernel calls in one host-speed reading.
KERNEL_CALLS = 3

#: Host-speed reading after a segment, as a share of the segment's time:
#: a short reading samples too little of the host's jitter to rescale a
#: long segment.
KERNEL_SHARE = 0.15


@dataclass
class Rep:
    """One repetition.

    ``counts`` are the repetition's work counts (steps, queries, fits...);
    they must repeat exactly, so a mismatch with the warm-up is a failure.
    ``attempted`` operations were checked and ``failures`` describe the
    ones whose output was wrong.  ``seconds`` is the raw time of the work
    and ``scale`` rescales it, and the latencies, to the reference host
    speed (1.0 leaves them raw).
    """

    seconds: float
    work: float
    counts: Dict[str, int]
    attempted: int = 1
    failures: List[str] = field(default_factory=list)
    latencies_ms: Sequence[float] = ()
    scale: float = 1.0


@dataclass
class Tally:
    """Checked operations and the failures among them."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: The warm-up's work counts, which every later repetition must repeat.
    counts: Optional[Dict[str, int]] = None

    def add(self, attempted: int, failures: Sequence[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def add_rep(self, rep: Rep) -> None:
        if self.counts is not None and rep.counts != self.counts:
            rep.failures.append(f"work counts {rep.counts} differ from the "
                                f"warm-up's {self.counts}")
        self.add(rep.attempted, rep.failures)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _kernel(rounds: int = 30000) -> None:
    """Fixed reference work: interpreter loops, JSON and a small matmul."""
    import numpy

    matrix = numpy.arange(1024, dtype=float).reshape(32, 32) / 1024.0
    table: Dict[int, float] = {}
    for index in range(rounds):
        table[index & 255] = index * 0.5
        if index % 50 == 0:
            json.loads(json.dumps({"k": list(table.values())[:16]}))
            matrix = matrix @ matrix
            matrix /= matrix.max()


def host_time(seconds: float = 0.0) -> float:
    """Mean wall time of one reference-kernel call, over calls made for
    about ``seconds`` (at least :data:`KERNEL_CALLS`, and one per CPU).

    The calls take turns on every CPU this process may use, because the
    work being rescaled runs on any of them (or, for the fleet shards, on
    all of them at once).  The mean, not the median: a segment's time is
    an average over its slow and fast moments, so the kernel's must be too.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times: List[float] = []
    spent = 0.0
    try:
        while (len(times) < max(KERNEL_CALLS, len(cpus))
               or spent < seconds):
            os.sched_setaffinity(0, {cpus[len(times) % len(cpus)]})
            started = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - started)
            spent += times[-1]
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def pin_to_one_cpu() -> Set[int]:
    """Pin this process to one CPU, the last it may use, and return the
    CPUs it could use before.

    For workloads that run in this process alone: :func:`host_time` takes
    turns on every CPU this process may use, so once pinned it reads
    exactly the CPU that does the work.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    return before


class HostClock:
    """Times a repetition's work in segments.

    ``start()`` begins the first segment and each ``split()`` ends one.
    With ``rescale`` on, ``split()`` then reads the host speed (untimed),
    and the segment is rescaled by the readings right before and right
    after it.  Off (warm-up and traced repetitions), times stay raw.
    """

    def __init__(self, rescale: bool = True) -> None:
        self.rescale = rescale
        self.reading = host_time() if rescale else REFERENCE_KERNEL_S
        self.start()

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._since = time.perf_counter()

    def split(self) -> None:
        seconds = time.perf_counter() - self._since
        self.raw += seconds
        if self.rescale:
            after = host_time(KERNEL_SHARE * seconds)
            self.scaled += (seconds * REFERENCE_KERNEL_S
                            / (0.5 * (self.reading + after)))
            self.reading = after
        else:
            self.scaled += seconds
        self._since = time.perf_counter()

    @property
    def scale(self) -> float:
        """Rescaled over raw time of the segments since ``start()``."""
        return self.scaled / self.raw if self.raw else 1.0


def environment(load_at_start: Tuple[float, float, float],
                kernel_at_start: float) -> Dict[str, object]:
    """Host facts that explain a noisy record: the baseline scripts'
    block (``cpu_count`` is ``nproc``) plus what this benchmark adds."""
    import scipy
    from _common import environment_block

    block = environment_block()
    block.update({
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_at_start": list(load_at_start),
        "reference_kernel_ms_at_start": kernel_at_start * 1e3,
    })
    return block


def more_time(started: float, seconds: float, rounds: int) -> bool:
    """Whether another round fits: one that would end more than half a
    round past the ``seconds`` budget is not started."""
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_reps(rep: Callable[[HostClock], Rep], seconds: float, tally: Tally,
             on_min_reps: Callable[[], float]) -> Tuple[List[Rep], float]:
    """Timed repetitions for about ``seconds``, rescaled by one
    :class:`HostClock` whose readings carry over from one to the next.

    Returns the repetitions and what ``on_min_reps`` returned after the
    first :data:`MIN_REPS` of them (a reading that must not depend on how
    many repetitions the run had time for).
    """
    reps: List[Rep] = []
    reading = 0.0
    started = time.perf_counter()
    clock = HostClock()
    while len(reps) < MIN_REPS or more_time(started, seconds, len(reps)):
        result = rep(clock)
        tally.add_rep(result)
        reps.append(result)
        if len(reps) == MIN_REPS:
            reading = on_min_reps()
    return reps, reading


def alternate(seconds: float, steps: Sequence[Callable[[], None]],
              rounds: int = 2) -> None:
    """Run the ``steps`` in turn for about ``seconds`` (at least ``rounds``
    rounds), so traced and untraced repetitions share the host's state."""
    started = time.perf_counter()
    done = 0
    while done < rounds or more_time(started, seconds, done):
        for step in steps:
            step()
        done += 1


def throughput(reps: Sequence[Rep]) -> float:
    """Median over repetitions of work per (rescaled) second."""
    return statistics.median(r.work / (r.seconds * r.scale) for r in reps)


def overhead_pct(plain: Sequence[Rep], traced: Sequence[Rep]) -> float:
    """Drop in throughput from untraced to traced repetitions, in %."""
    return 100.0 * (1.0 - throughput(traced) / throughput(plain))


def medians(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over per-repetition metric rows."""
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def latency_metrics(reps: Sequence[Rep]) -> Tuple[float, float, int]:
    """``(p50, p99, samples per repetition)`` of request latency in ms.

    A workload with requests of its own (``placement_tcp``) has each
    percentile taken inside every repetition and reports the median over
    repetitions, so one slow repetition cannot move the tail.  Workloads
    without requests (fleets, model fits) count one request per
    repetition: the wall time a caller waits for one fleet run or one pass
    of the modeling protocol.
    """
    if reps[0].latencies_ms:
        return (statistics.median(percentile(r.latencies_ms, 50.0) * r.scale
                                  for r in reps),
                statistics.median(percentile(r.latencies_ms, 99.0) * r.scale
                                  for r in reps),
                len(reps[0].latencies_ms))
    samples = [r.seconds * 1e3 * r.scale for r in reps]
    return percentile(samples, 50.0), percentile(samples, 99.0), len(samples)


def probe_setup(argv: Sequence[str], tally: Tally) -> List[Tuple[float, float]]:
    """``(seconds, scale)`` per fresh-process set-up: the wall time from
    spawning ``run.py --setup-probe`` until it reports ``ready`` (imports,
    inputs, server spawn and warm), and its host-speed rescaling."""
    samples: List[Tuple[float, float]] = []
    command = [sys.executable, str(BENCH_DIR / "run.py"), *argv,
               "--setup-probe"]
    before = host_time()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait(timeout=120)
        # Read the host speed only once the probe has exited: its teardown
        # (stopping the placement server) would compete with the kernel.
        after = host_time(KERNEL_SHARE * elapsed)
        ok = line == "ready" and code == 0
        tally.add(1, [] if ok else
                  [f"set-up probe failed (said {line!r}, exit {code})"])
        if ok:
            samples.append((elapsed,
                            REFERENCE_KERNEL_S / (0.5 * (before + after))))
        before = after
    return samples


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(record: Dict[str, object], tally: Tally,
         metrics: Dict[str, Dict[str, object]], name: str) -> int:
    """Write the full record, print the environment and the result line."""
    RUNS_DIR.mkdir(exist_ok=True)
    record = dict(record, attempted=tally.attempted,
                  failures=tally.failures[:50], metrics=metrics)
    (RUNS_DIR / f"{name}.json").write_text(json.dumps(record, indent=2))
    for failure in tally.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": not tally.failures,
                      "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": metrics}))
    return 0
