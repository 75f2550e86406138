"""Helpers shared by the workloads: the scratch area inside the checkout,
worker launches with timed set-up, statistics and the host noise record."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
#: Everything a run writes lives here, under the checkout root.
WORK = Path(".perfbench")
#: State reused across runs of the same source tree (the recorded work
#: counts), keyed by :func:`source_digest`.
STATE = WORK / "state"


def source_digest() -> str:
    """Digest of the program (``src/``) and the benchmark itself: runs of
    the same code share it."""
    h = hashlib.sha256()
    files = [*Path("src").rglob("*"), *HERE.glob("*.py"), *HERE.glob("*.json")]
    for path in sorted(files):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fresh_dir(name: str) -> Path:
    path = WORK / "runs" / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def peak_rss_mb() -> float:
    """This process's VmHWM, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def die_with_parent() -> None:
    """``preexec_fn`` of every child: the kernel sends it SIGKILL when the
    benchmark process dies, so no child outlives an interrupted run."""
    import ctypes
    import signal

    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Worker:
    """A child process with a ``ready`` handshake: set-up is the time from
    launch to ``ready``; the timed phase starts when we send ``go``."""

    def __init__(self, argv: list[str]):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=die_with_parent,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.start
        if line.strip() != "ready":
            self.kill()
            raise RuntimeError(f"worker {argv[0]} failed to start: {line!r}")

    def go(self, timeout: float) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        self.proc.stdin.close()
        if self.proc.wait(timeout=timeout) != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")

    def stop(self) -> None:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# -- host noise record -------------------------------------------------------------
def _cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def calibration_ms() -> float:
    """Median of three runs of one fixed pure-Python loop: a host-speed
    probe that involves none of the program's code."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


class NoiseRecord:
    """Host steal share and load over a run, plus the calibration loop."""

    def __init__(self) -> None:
        self.ticks = _cpu_ticks()
        self.loadavg = os.getloadavg()[0]
        self.calib_ms = calibration_ms()

    def finish(self) -> dict[str, float]:
        delta = [b - a for a, b in zip(self.ticks, _cpu_ticks())]
        total = sum(delta)
        steal = delta[7] / total if total and len(delta) > 7 else 0.0
        return {
            "host.steal_frac": steal,
            "host.loadavg_1m": self.loadavg,
            "host.calib_ms": self.calib_ms,
        }


def log_record(record: dict[str, Any]) -> None:
    """Append one run's record (noise, input shares, work counts) to the
    run log and echo it on stdout (never the last line)."""
    WORK.mkdir(exist_ok=True)
    with open(WORK / "runs.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("record " + json.dumps(record, sort_keys=True), flush=True)
