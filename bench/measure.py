"""The parent side of a measurement: start the children, reduce their samples.

:func:`measure` produces one workload's result in the shape the benchmark
contract asks for (``correct``, ``attempted``, ``failed``, ``metrics``)
plus a ``detail`` block with what a person wants to see next to a median:
sample count, min/max, quartile spread, the problems found.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import tempfile
import time
from typing import Optional

from bench import ROOT, declaration, python_child
from bench.calibrate import REFERENCE_S, Stopwatch, normalised

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.  Half
#: run before the timed child and half after it.
SETUP_REPEATS = 8

#: Scratch space inside the checkout (listed in ``.gitignore``): the
#: benchmark reads and writes nowhere else.
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")


def is_tmpfs(path: str) -> bool:
    """Whether ``path`` lives on a memory filesystem, where fsync is free."""
    best, kind = "", ""
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        return False
    return kind in ("tmpfs", "ramfs")


def _child(mode: str, workload: str, seed: int, tmp: str, scale: float, seconds: float = 0.0) -> dict:
    done = python_child([
        "-m", "bench.child", "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale),
        "--tmp", tmp,
    ])
    if done.returncode != 0:
        raise RuntimeError(
            f"bench.child --mode {mode} --workload {workload} exited "
            f"{done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below two samples)."""
    if len(values) < 2:
        return 0.0
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def reduce_samples(samples: list) -> dict:
    """Reduce ``(wall_s, reference_s)`` samples of the same work to one time.

    ``value`` is the median of the samples' speed-normalised times
    (``bench.calibrate``); the raw host seconds are summarised next to it.
    """
    walls = [wall for wall, _reference in samples]
    scaled = [normalised(wall, reference) for wall, reference in samples]
    return {
        "value": statistics.median(scaled), "n": len(samples),
        "iqr_share": spread(scaled),
        "raw_median": statistics.median(walls), "raw_min": min(walls), "raw_max": max(walls),
        # The reference loop's time over its nominal time: 1.3 = a machine 30 % slow.
        "slowdown": statistics.median(reference for _wall, reference in samples) / REFERENCE_S,
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Measure one workload; see the module docstring for the result shape."""
    units = {
        metric["name"]: metric["unit"]
        for kind in ("end_to_end", "per_layer")
        for metric in declaration()[kind]
    }
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_PARENT)
    detail: dict = {"workload": workload, "seed": seed, "tmpfs": is_tmpfs(tmp)}
    try:
        if trace:
            payload = _child("trace", workload, seed, tmp, scale)
            values = payload["metrics"]
            detail["spans"] = payload["spans"]
            attempted, failed = 1, int(bool(payload["problems"]))
        else:
            setups: list[tuple[float, float]] = []

            stopwatch = Stopwatch()

            def time_setups(count: int) -> None:
                stopwatch.restart()
                for _ in range(count):
                    _payload, wall, reference = stopwatch.timed(
                        lambda: _child("setup", workload, seed, tmp, scale)
                    )
                    setups.append((wall, reference))

            time_setups(setup_repeats - setup_repeats // 2)
            payload = _child("timed", workload, seed, tmp, scale, seconds)
            time_setups(setup_repeats // 2)
            # One entry per separately timed part of a repeat; the workload's
            # time is their sum (a single part for the in-process workloads).
            parts = {name: reduce_samples(part) for name, part in payload["samples"].items()}
            detail["parts"] = parts
            detail["samples"] = payload["samples"]
            detail["setup_s"] = reduce_samples(setups)
            detail["events"] = payload["events"]
            values = {
                "wall_s": sum(part["value"] for part in parts.values()),
                "setup_s": detail["setup_s"]["value"],
                "peak_rss_mb": payload["peak_rss_kb"] / 1024.0,
            }
            attempted, failed = payload["attempted"], payload["failed"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail["problems"] = payload["problems"]
    return {
        "correct": failed == 0 and not payload["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
        "detail": detail,
    }


def contract_line(result: dict) -> str:
    """The last line the driver reads: exactly the four contract keys."""
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def source_lines() -> int:
    """Lines of Python under ``src/`` — the number ROADMAP item 3 drives down."""
    total = 0
    for directory, _subdirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def commit_id() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=ROOT,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None
