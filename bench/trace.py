"""The traced run's instruments: in-memory spans and cProfile attribution.

End-to-end numbers are taken with both off.  Spans are recorded by the
benchmark's own files around the calls they make into a layer (import,
``run_cell``, ``run_campaign``, each store call, each CLI child); nothing
under ``src/`` is edited or patched.  The profile is folded by the
``repro`` package that defines each function, which attributes host time
and call counts to layers without any hook inside the program.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: Attribution layers: packages under ``src/repro/`` on the per-event and
#: per-cell paths, plus everything else (stdlib, builtins, the remaining
#: ``repro`` packages and the benchmark itself).
LAYERS = (
    "sim", "net", "tcp", "mptcp", "core", "apps", "netem", "workloads",
    "sweep", "store", "other",
)


class Tracer:
    """Records ``(name, start, end, parent, workload)`` spans in memory."""

    def __init__(self, workload: str = "", enabled: bool = False) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one call into a layer; a no-op when tracing is off."""
        if not self.enabled:
            yield
            return
        index = self._begin(name, time.perf_counter())
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one.

        Used for calls the benchmark cannot wrap (cells run inside
        ``run_campaign``) but whose duration the program reports.
        """
        if self.enabled:
            self.spans[self._begin(name, start)]["end"] = end

    def _begin(self, name: str, start: float) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": start,
                "parent": self._open[-1] if self._open else None,
                "workload": self.workload,
            }
        )
        return len(self.spans) - 1


def span_table(spans: list[dict]) -> list[dict]:
    """Per span name: count, total seconds, and self seconds.

    Self time is a span's duration minus the part its child spans cover.
    """
    child_time: dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["workload"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    rows: dict[tuple, dict] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = rows.setdefault(
            (span["workload"], span["name"]),
            {"workload": span["workload"], "name": span["name"],
             "count": 0, "total_s": 0.0, "self_s": 0.0},
        )
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get((span["workload"], span["id"]), 0.0)
    return list(rows.values())


def write_spans(path: str, spans: list[dict]) -> None:
    """Write every recorded span as one JSON file."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "table": span_table(spans)}, handle, indent=1)
        handle.write("\n")


def layer_of(filename: str) -> str:
    """The attribution layer of a profiled function's defining file."""
    marker = f"{os.sep}repro{os.sep}"
    position = filename.rfind(marker)
    if position >= 0:
        package = filename[position + len(marker):].split(os.sep, 1)[0]
        if package in LAYERS:
            return package
    return "other"


def profile_call(work: Callable[[], object]) -> tuple[object, dict, float]:
    """Run ``work`` under cProfile; returns (its result, raw stats, wall s)."""
    profile = cProfile.Profile()
    started = time.perf_counter()
    result = profile.runcall(work)
    wall = time.perf_counter() - started
    profile.create_stats()
    return result, profile.stats, wall


def fold_profile(stats: dict, events: int) -> dict[str, float]:
    """``<layer>.self_share`` and ``<layer>.calls_per_event`` from raw stats.

    ``self_share`` is the layer's summed ``tottime`` over the profile's
    total; ``calls_per_event`` its primitive calls per simulated event.
    Call counts are exact and repeat run to run on the in-process
    workloads, so they are the figure a later "collapse the forwarding
    frames" change may cite; shares carry cProfile's per-call distortion.
    """
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (primitive, _total, tottime, _cum, _callers) in stats.items():
        layer = layer_of(filename)
        self_time[layer] += tottime
        calls[layer] += primitive
    total = sum(self_time.values()) or 1.0
    folded: dict[str, float] = {}
    for layer in LAYERS:
        folded[f"{layer}.self_share"] = self_time[layer] / total
        folded[f"{layer}.calls_per_event"] = calls[layer] / max(events, 1)
    return folded


def count_calls(stats: dict, file_suffix: str, names: tuple[str, ...]) -> int:
    """Primitive calls of the named functions defined in one source file."""
    return sum(
        primitive
        for (filename, _line, name), (primitive, *_rest) in stats.items()
        if name in names and filename.endswith(file_suffix)
    )
