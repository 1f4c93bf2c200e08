"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of the program's layers from the
outside (class or module attributes are swapped for timing wrappers) and
keeps one record per call: name, start, end, parent span and repetition
id.  Records live in flat ``array`` columns, so a million spans cost about
30 MB, and are written once, as a compressed ``.npz``, when the run ends.

Self time is a span's duration minus the time covered by its child spans.
Calls are single-threaded and strictly nested, so the children of one span
never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, owner attribute or None, function attribute, span name)``.
#: ``owner`` is a class inside ``module``; ``None`` wraps a module-level
#: function, which must be patched where callers look it up.
#:
#: The fleet's wake-set scheduler calls ``TrainingSession._fast_forward``
#: directly (``fast_forward`` is a thin public alias of it), so the session
#: span sits on the method the driver actually calls.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.training.session", "TrainingSession", "_fast_forward",
     "session.fast_forward"),
    ("repro.scenarios.fleet", "FleetRun", "run", "fleet.run"),
    ("repro.scenarios.fleet", "FleetJobController", "request_replacement",
     "controller.request_replacement"),
    ("repro.scenarios.pool", "TransientPool", "acquire", "pool.acquire"),
    ("repro.scenarios.pool", "TransientPool", "release", "pool.release"),
    ("repro.scenarios.pool", "TransientPool", "revoke", "pool.revoke"),
    ("repro.scenarios.pool", "TransientPool", "request_replacement",
     "pool.request_replacement"),
    ("repro.telemetry.writer", "JobStepSink", "append_row",
     "telemetry.record"),
    ("repro.telemetry.writer", "JobStepSink", "extend_rows",
     "telemetry.record"),
    ("repro.telemetry.writer", "JobTelemetry", "record_draw",
     "telemetry.record"),
    ("repro.telemetry.export", None, "write_npz", "telemetry.write_npz"),
    ("repro.modeling.svr", "SVR", "fit", "svr.fit"),
    ("repro.modeling.svr", "SVR", "predict", "svr.predict"),
    ("repro.modeling.model_selection", None, "grid_search_svr",
     "model_selection.grid_search_svr"),
    ("repro.modeling.model_selection", None, "cross_validate_mae",
     "model_selection.cross_validate_mae"),
    ("repro.modeling.launch_advisor", "LaunchAdvisor", "answer",
     "advisor.answer"),
    ("repro.serve.service", "PlacementService", "answer_now",
     "service.answer_now"),
)


def _training_rows(args: tuple, _result) -> int:
    """Rows in an ``SVR.fit(features, targets)`` call."""
    return len(args[2]) if len(args) > 2 else 0


def _events_processed(args: tuple, _result) -> int:
    """Simulator events a finished ``FleetRun.run`` processed."""
    return int(getattr(args[0], "events_processed", 0))


#: Optional per-span integer tags, computed when the call returns.
TAGGERS: Dict[str, Callable[[tuple, object], int]] = {
    "svr.fit": _training_rows, "fleet.run": _events_processed}


class SpanRecorder:
    """Records nested spans around wrapped layer entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rep = array("i")
        self.tag = array("i")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.active = False
        self.rep_id = -1
        self.missing: List[str] = []

    # -- wrapping ------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, function: Callable, name: str) -> Callable:
        name_id = self._intern(name)
        tagger = TAGGERS.get(name)
        recorder = self
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            index = len(recorder.start)
            recorder.name_id.append(name_id)
            recorder.parent.append(stack[-1] if stack else -1)
            recorder.rep.append(recorder.rep_id)
            recorder.tag.append(0)
            recorder.end.append(0.0)
            stack.append(index)
            recorder.start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end[index] = clock()
                stack.pop()
            if tagger is not None:
                recorder.tag[index] = tagger(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point (missing ones are noted, skipped)."""
        for module_name, owner_name, attribute, span in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = (owner.__dict__.get(attribute)
                        if owner_name else getattr(owner, attribute, None))
            if original is None:
                self.missing.append(f"{module_name}.{owner_name or ''}"
                                    f".{attribute}")
                print(f"perfbench: cannot trace {self.missing[-1]}: "
                      "not found", file=sys.stderr)
                continue
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, span))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- recording -----------------------------------------------------
    def begin(self, rep_id: int) -> None:
        self.rep_id = rep_id
        self.active = True

    def stop(self) -> None:
        self.active = False

    def __len__(self) -> int:
        return len(self.start)

    # -- analysis ------------------------------------------------------
    def summaries(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Per rep, per span name: ``calls``, ``total_s``, ``self_s`` and
        ``tag`` (the sum of the spans' tags)."""
        start, end, parent = self.start, self.end, self.parent
        child_time = [0.0] * len(start)
        for i in range(len(start)):
            if parent[i] >= 0:
                child_time[parent[i]] += end[i] - start[i]
        out: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(dict)
        for i in range(len(start)):
            entry = out[self.rep[i]].setdefault(
                self.names[self.name_id[i]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tag": 0})
            duration = end[i] - start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
            entry["tag"] += self.tag[i]
        return dict(out)

    def tagged_durations(self, name: str) -> Dict[int, List[Tuple[int, float]]]:
        """Per rep, ``(tag, duration)`` of every ``name`` span."""
        name_id = self._name_ids.get(name)
        out: Dict[int, List[Tuple[int, float]]] = defaultdict(list)
        for i in range(len(self.start)):
            if self.name_id[i] == name_id:
                out[self.rep[i]].append((self.tag[i],
                                         self.end[i] - self.start[i]))
        return dict(out)

    def write(self, path) -> None:
        """Write every span once, as a compressed ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            rep=np.frombuffer(self.rep, dtype=np.int32),
            tag=np.frombuffer(self.tag, dtype=np.int32))
