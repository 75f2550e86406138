"""One battery pass in a fresh process: ``repro experiments`` (every
registry experiment, default flags) over a given simulation-cache
directory.

The parent times set-up from launch to the ``ready`` line this process
prints once ``repro`` is imported, then answers ``go`` (run the pass) or
``stop`` (exit: a set-up-only launch).  The pass result — wall and CPU
seconds of the timed phase, peak RSS, simulation-cache counters, the
reference re-simulation of sampled points and, with ``--trace``, the
span totals — is written as JSON to ``--out``.

    python3 perfbench/worker.py --cache-dir D --results-dir R --out F [--check 3,17] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import repro  # noqa: E402,F401  (set-up includes importing the program)
from repro.experiments import runner  # noqa: E402

import checks  # noqa: E402
from common import peak_rss_mb  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--check", default="", help="pool indices to re-simulate")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    argv = ["--sim-cache-dir", args.cache_dir, "--results-dir", args.results_dir]
    log = Path(args.results_dir) / "battery.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    tracer.active = args.trace
    cpu0 = os.times()
    with open(log, "w") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        with tracer.span("battery"):
            status = runner.main(argv)
        wall = time.perf_counter() - start
    cpu1 = os.times()
    tracer.active = False

    from repro.machine.engine.simcache import get_sim_cache

    counters = get_sim_cache().counters
    record = {
        "status": status,
        "wall_s": wall,
        "cpu_s": (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
        "peak_rss_mb": peak_rss_mb(),
        "simcache": vars(counters.snapshot()),
        "manifest": str(next(Path(args.results_dir).glob("run-*.json"))),
        "spans": tracer.snapshot() if args.trace else None,
    }
    indices = [int(i) for i in args.check.split(",") if i]
    record["points"] = checks.check_points(indices)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
