"""The ``placement_tcp`` workload: answer queries over the public server.

``python -m repro.serve serve --port 0`` runs in a subprocess.  This
process opens one connection and drives a closed loop of pipelined
windows of ``answer`` requests: it writes a window, reads every response
line, then writes the next window.  A request's latency runs from the
write of its window to the read of its response line.

The traffic follows the repo's recorded serve stream, the
``BENCH_serve`` reference replay (``benchmarks/serve_baseline.py``):

* query kind: live queries only, on its (GPU, whole-hour duration,
  half-hour UTC) grid, with the default worker count;
* cache hits: 97.2% of its queries hit the decision cache.  Here one
  request per window of :data:`WINDOW` is a never-seen query that reaches
  ``LaunchAdvisor.answer`` (35 of 36 hit, 97.2%).  The rest cycle through
  seeded shuffles of the whole grid, which the warm-up repetition has
  cached.

Assumptions of this workload, not of the record: the window size (the
pipelining depth of one client), the miss's position in its window
(seeded, every position equally often, so seeded clusters of misses
cannot move the p99), and an equal share of misses per GPU (a decision's
size follows how many regions offer the GPU, so the seed must not pick
the GPUs).  Repetitions send the same stream; only the never-seen
queries' durations move by a tiny per-repetition offset, so they stay
never-seen without changing the work.
"""

from __future__ import annotations

import json
import os
import random
import resource
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import HostClock, Rep, alternate, medians, overhead_pct, throughput
from serve_baseline import DURATIONS, GPUS, UTC_HOURS

WINDOW = 36
WINDOWS = {"full": 200, "tiny": 4}
#: One position in this many has its decision checked in process.
SAMPLE_EVERY = 50
#: Never-seen durations move by this many hours per repetition slot.
MISS_OFFSET_HOURS = 1e-5
SRC = Path(__file__).resolve().parent.parent / "src"
OK_PREFIX = b'{"ok": true'
NOT_OK = "response missing or not ok"


def grid_query(gpu: str, duration: float, hour: float):
    """A live query of the ``BENCH_serve`` grid."""
    from repro.modeling.placement import PlacementQuery

    return PlacementQuery(gpu_name=gpu, duration_hours=duration,
                          hour_of_day_utc=hour)


def balanced(rng: random.Random, items: list, count: int) -> list:
    """``count`` items cycling through seeded shuffles of ``items``."""
    out: list = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def encode(query) -> bytes:
    return (json.dumps({"op": "answer", "query": query.to_params()})
            + "\n").encode("utf-8")


def cpu_seconds_of(pid: int) -> float:
    """utime + stime of a process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class PlacementTcp:
    """Closed-loop pipelined ``answer`` requests on one connection."""

    unit = "queries"
    #: Per-layer metrics the traced run must see above 0.
    layers = ("transport.roundtrip_us", "codec.us", "service.answer_now_us",
              "transport.overhead_us", "advisor.answer_us",
              "service.cache_hit_ratio", "server.cpu_us_per_query",
              "client.cpu_us_per_query")

    def __init__(self, seed: int, size: str):
        # The server warms its score table while this process builds the
        # request stream; a failed set-up must not leave it running.
        self._spawn_server()
        try:
            self._build(seed, size)
            self._connect()
        except BaseException:
            self.close()
            raise

    def _build(self, seed: int, size: str) -> None:
        import dataclasses

        from repro.modeling.launch_advisor import LaunchAdvisor
        from repro.serve.service import PlacementService

        self._replace = dataclasses.replace
        rng = random.Random(seed)
        grid = [grid_query(gpu, duration, hour) for gpu in GPUS
                for duration in DURATIONS for hour in UTC_HOURS]
        self.count = WINDOW * WINDOWS[size]
        misses = [window * WINDOW + offset for window, offset in enumerate(
            balanced(rng, list(range(WINDOW)), self.count // WINDOW))]
        self.miss_templates = {
            position: grid_query(gpu, rng.choice(DURATIONS),
                                 rng.choice(UTC_HOURS))
            for position, gpu in zip(misses, balanced(rng, list(GPUS),
                                                      len(misses)))}
        hit_positions = [position for position in range(self.count)
                         if position not in self.miss_templates]
        self.hit_at = dict(zip(hit_positions,
                               balanced(rng, grid, len(hit_positions))))
        self.hit_lines = {position: encode(query)
                          for position, query in self.hit_at.items()}
        self.samples = sorted(rng.sample(range(self.count),
                                         self.count // SAMPLE_EVERY))
        self.stream_index = 0
        # The server's defaults: advisor seed 0, 400 samples per option.
        self.local = PlacementService(advisor=LaunchAdvisor(
            samples_per_option=400, seed=0))
        self.expected: Dict[object, object] = {}

    # -- server lifecycle ------------------------------------------------
    def _spawn_server(self) -> None:
        self.sock: Optional[socket.socket] = None
        self.reader = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve", "serve",
             "--host", "127.0.0.1", "--port", "0", "--drain-seconds", "1"],
            stdout=subprocess.PIPE, text=True, env=env)

    def _connect(self) -> None:
        port = None
        for line in self.server.stdout:
            if line.startswith("serving placement queries on "):
                port = int(line.split()[4].rsplit(":", 1)[1])
                break
        if port is None:
            raise RuntimeError("placement server exited before serving")
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    # -- the request stream ------------------------------------------------
    def stream(self) -> Tuple[List[bytes], Dict[int, object]]:
        """The next repetition's request lines and its queries by position
        (never-seen queries get a duration offset no earlier stream used)."""
        queries = dict(self.hit_at)
        lines = [b""] * self.count
        for position, line in self.hit_lines.items():
            lines[position] = line
        for slot, (position, template) in enumerate(
                sorted(self.miss_templates.items())):
            offset = (self.stream_index * len(self.miss_templates) + slot + 1)
            query = self._replace(
                template, duration_hours=template.duration_hours
                + offset * MISS_OFFSET_HOURS)
            queries[position] = query
            lines[position] = encode(query)
        self.stream_index += 1
        return lines, queries

    def request(self, document: dict) -> dict:
        """One out-of-band request on the benchmark connection."""
        self.sock.sendall((json.dumps(document) + "\n").encode("utf-8"))
        return json.loads(self.reader.readline())

    # -- repetitions ---------------------------------------------------------
    def rep(self, clock: Optional[HostClock] = None) -> Rep:
        clock = clock or HostClock(rescale=False)
        lines, queries = self.stream()
        sample_set = set(self.samples)
        sampled: Dict[int, bytes] = {}
        latencies: List[float] = []
        errors = 0
        sendall = self.sock.sendall
        readline = self.reader.readline
        now = time.perf_counter
        clock.start()
        for first in range(0, self.count, WINDOW):
            written = now()
            sendall(b"".join(lines[first:first + WINDOW]))
            for position in range(first, first + WINDOW):
                line = readline()
                latencies.append((now() - written) * 1e3)
                if not line.startswith(OK_PREFIX):
                    errors += 1
                elif position in sample_set:
                    sampled[position] = line
        clock.split()
        failures = [NOT_OK] * errors
        for position, line in sampled.items():
            got = json.loads(line)["result"]
            if got != self.expect(queries[position]):
                failures.append(f"decision at position {position} differs "
                                "from PlacementService.answer_now")
        return Rep(clock.raw, self.count, {"queries": self.count},
                   attempted=self.count, failures=failures,
                   latencies_ms=latencies, scale=clock.scale)

    def expect(self, query) -> dict:
        if query not in self.expected:
            self.expected[query] = json.loads(json.dumps(
                self.local.answer_now(query).to_params()))
        return self.expected[query]

    def checks(self) -> Tuple[int, List[str]]:
        return 0, []

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server process."""
        with open(f"/proc/{self.server.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    # -- traced run ----------------------------------------------------------
    def replay(self, recorder, rep_id: int) -> Tuple[float, int]:
        """The same kind of stream answered in process: decode, answer,
        encode.  Returns the wall time and the query count."""
        from repro.modeling.placement import PlacementQuery

        lines, _ = self.stream()
        answer_now = self.local.answer_now
        recorder.begin(rep_id)
        started = time.perf_counter()
        try:
            for line in lines:
                request = json.loads(line)
                decision = answer_now(PlacementQuery.from_params(
                    request["query"]))
                json.dumps({"ok": True, "result": decision.to_params()})
        finally:
            seconds = time.perf_counter() - started
            recorder.stop()
        return seconds, len(lines)

    def traced(self, recorder, seconds: float, tally) -> Dict[str, float]:
        self.local.warm()
        # The hit ratio covers the traced run's repetitions, not the
        # warm-up's first sight of the grid.
        before = self.request({"op": "stats"})["result"]
        plain: List[Rep] = []
        wired: List[Rep] = []
        cpu: List[Tuple[float, float]] = []
        replays: List[Tuple[float, int]] = []

        def tcp_rep(into: List[Rep]) -> None:
            server, client = cpu_seconds_of(self.server.pid), own_cpu_seconds()
            rep = self.rep()
            cpu.append((cpu_seconds_of(self.server.pid) - server,
                        own_cpu_seconds() - client))
            into.append(rep)

        def traced_tcp() -> None:
            recorder.begin(-1)
            try:
                tcp_rep(wired)
            finally:
                recorder.stop()

        self.replay(recorder, -2)  # fills the local cache, untimed
        alternate(seconds, [lambda: tcp_rep(plain), traced_tcp,
                            lambda: replays.append(
                                self.replay(recorder, len(replays)))])
        tcp = plain + wired
        for rep in tcp:
            tally.add_rep(rep)
        queries = sum(rep.work for rep in tcp)
        summaries = recorder.summaries()
        rows = []
        for rep_id, (wall, count) in enumerate(replays):
            summary = summaries.get(rep_id, {})
            service = summary.get("service.answer_now", {}).get("total_s", 0)
            advisor = summary.get("advisor.answer", {"calls": 0,
                                                     "total_s": 0.0})
            rows.append({
                "codec.us": (wall - service) / count * 1e6,
                "service.answer_now_us": service / count * 1e6,
                "advisor.answer_us": (advisor["total_s"] / advisor["calls"]
                                      * 1e6 if advisor["calls"] else 0),
            })
        out = medians(rows)
        roundtrip = 1e6 / throughput(plain)
        stats = self.request({"op": "stats"})["result"]
        out.update({
            "transport.roundtrip_us": roundtrip,
            "transport.overhead_us": (roundtrip - out["codec.us"]
                                      - out["service.answer_now_us"]),
            "service.cache_hit_ratio": (
                (stats["cache_hits"] - before["cache_hits"])
                / (stats["queries_answered"] - before["queries_answered"])),
            "server.cpu_us_per_query": sum(s for s, _ in cpu) / queries * 1e6,
            "client.cpu_us_per_query": sum(c for _, c in cpu) / queries * 1e6,
            "transport.errors": sum(rep.failures.count(NOT_OK)
                                    for rep in tcp),
            "trace.overhead_pct": overhead_pct(plain, wired),
        })
        return out
