"""The ``serve_mix`` workload: two closed-loop clients against one
``repro serve`` daemon subprocess on a unix socket.

Each client sends a seeded stream of small requests, drawn Zipf-skewed
from a fixed universe of sweep points so that about half the points
repeat:

* ``simulate_batch`` sweeps of 1-4 points: the twelve Figure 3 kernels
  at three sizes plus convolution and dmxpy, on the set-associative
  Origin2000 and the direct-mapped Exemplar at five scales;
* about 25% are capacity-ladder sweeps: three consecutive
  fully-associative rungs of one program (the planner's capacity rule);
* about 15% are ``predict`` batches of 2-4 points (the analytic path).

Closed loop: a client sends its next request only when the previous
one has been answered, so latency is timed from send to rebuilt result.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from common import HERE, die_with_parent, median, percentile, process_cpu_s

KERNEL_SIZES = (4096, 8192, 16384)
LADDER_SIZES = (2048, 4096, 8192)
SCALES = (32, 64, 128, 256, 512)
CLIENTS = 2
#: Requests per client per second of ``--seconds``.
REQUESTS_PER_SECOND = 12
#: Set-up-only daemon launches before the timed round and again after it.
SETUP_PROBES = 2
LADDER_SHARE = 0.25
PREDICT_SHARE = 0.15
ZIPF_S = 0.7


#: Popularity ranks come from this fixed shuffle, so every seed draws
#: from the same Zipf distribution (the seed picks the request sequence).
RANK_SEED = 2000


def _zipf(rng: random.Random, items: list):
    """A seeded sampler over ``items``, Zipf-skewed by a fixed rank order."""
    order = items[:]
    random.Random(RANK_SEED).shuffle(order)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))]
    return lambda k: rng.choices(order, weights=weights, k=k)


def build_streams(seed: int, per_client: int) -> list[list[tuple[str, list]]]:
    """Each client's request stream: ``(op, [SimRequest, ...])`` tuples."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.ladder_capacity import LADDER_LAYOUT, ladder_machine, ladder_sizes
    from repro.experiments.plan import SimRequest
    from repro.machine.presets import exemplar, origin2000
    from repro.programs import convolution, dmxpy
    from repro.programs.kernels import KERNEL_NAMES, make_kernel

    config = ExperimentConfig()
    programs = [make_kernel(k, n) for k in KERNEL_NAMES for n in KERNEL_SIZES]
    programs += [convolution(n) for n in KERNEL_SIZES] + [dmxpy(n, 16) for n in KERNEL_SIZES]
    machines = [origin2000(s) for s in SCALES] + [exemplar(s) for s in SCALES]
    points = [SimRequest(p, m) for p in programs for m in machines]
    rungs = [ladder_machine(size, config) for size in ladder_sizes(config)]
    ladders = [
        [SimRequest(p, m, layout_policy=LADDER_LAYOUT) for m in rungs[i : i + 3]]
        for p in [convolution(n) for n in LADDER_SIZES] + [dmxpy(n, 16) for n in LADDER_SIZES]
        for i in range(len(rungs) - 2)
    ]
    rng = random.Random(seed)
    point = _zipf(rng, points)
    ladder = _zipf(rng, ladders)
    streams = []
    for _ in range(CLIENTS):
        stream = []
        for _ in range(per_client):
            u = rng.random()
            if u < LADDER_SHARE:
                stream.append(("simulate", ladder(1)[0]))
            elif u < LADDER_SHARE + PREDICT_SHARE:
                stream.append(("predict", point(rng.randint(2, 4))))
            else:
                stream.append(("simulate", point(rng.randint(1, 4))))
        streams.append(stream)
    return streams


def input_shares(streams) -> dict[str, float]:
    """The stream properties the service's optimizations depend on."""
    from repro.experiments.plan import request_key

    keys, traces, fa, predicted = [], set(), 0, 0
    for stream in streams:
        for op, requests in stream:
            for r in requests:
                keys.append((op, request_key(r)))
                if op == "predict":
                    predicted += 1
                else:
                    traces.add((r.program.name, repr(sorted(r.program.params.items())),
                                repr(r.layout_policy or r.machine.default_layout)))
                if any(level.geometry.n_sets == 1 for level in r.machine.cache_levels):
                    fa += 1
    n = len(keys)
    return {
        "input.repeat_frac": 1.0 - len(set(keys)) / n,
        "input.points_per_trace": (n - predicted) / len(traces) if traces else 0.0,
        "input.fa_level_frac": fa / n,
        "input.predict_frac": predicted / n,
        "input.requests": sum(len(s) for s in streams),
        "input.points": n,
        "input.distinct_points": len(set(keys)),
    }


class Daemon:
    """A ``repro serve`` subprocess; set-up is launch to first ``ping``."""

    def __init__(self, run_dir: Path, tag: str, trace: bool = False):
        from repro.service.client import ServiceClient

        self.out = run_dir / f"daemon-{tag}.json"
        sock = run_dir / f"{tag}.sock"
        self.address = f"unix:{sock}"
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "daemon.py"), "--out", str(self.out),
             *(["--trace"] if trace else []), "--", "--unix", str(sock)],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=die_with_parent,
        )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            self.kill()
            raise RuntimeError(f"daemon failed to start: {banner!r}")
        with ServiceClient(self.address) as client:
            client.ping()
        self.setup_s = time.perf_counter() - start

    def shutdown(self) -> dict[str, Any]:
        from repro.service.client import ServiceClient

        with ServiceClient(self.address) as client:
            client.shutdown()
        self.proc.stdout.read()
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"daemon exited with {self.proc.returncode}")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _client(address: str, tenant: str, stream, answers: list, latencies: list) -> None:
    from repro.service.client import ServiceClient

    with ServiceClient(address, tenant=tenant) as client:
        for op, requests in stream:
            start = time.perf_counter()
            try:
                if op == "predict":
                    answer = client.predict_batch(requests)
                else:
                    answer = client.simulate_batch(requests)
            except Exception:  # noqa: BLE001 — a reject or a broken reply fails the request
                answer = None
            latencies.append((time.perf_counter() - start) * 1e3)
            answers.append((op, requests, answer))


def drive(daemon: Daemon, streams) -> dict[str, Any]:
    """The timed phase: all clients run their streams to completion."""
    from repro.service.client import ServiceClient

    answers = [[] for _ in streams]
    latencies = [[] for _ in streams]
    threads = [
        threading.Thread(target=_client, args=(daemon.address, f"client{i}", s, answers[i],
                                               latencies[i]))
        for i, s in enumerate(streams)
    ]
    cpu0 = process_cpu_s(daemon.proc.pid)
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    cpu = process_cpu_s(daemon.proc.pid) - cpu0
    with ServiceClient(daemon.address) as client:
        stats = client.stats()
    lat = [x for part in latencies for x in part]
    return {
        "wall_s": wall,
        "daemon_cpu_s": cpu,
        "latency_p50_ms": median(lat),
        "latency_p95_ms": percentile(lat, 95),
        "answers": [a for part in answers for a in part],
        "stats": stats,
    }


def setup_samples(run_dir: Path, n: int, tag: str) -> list[float]:
    """Launch-to-ready times of ``n`` daemons that are shut down unused."""
    samples = []
    for i in range(n):
        daemon = Daemon(run_dir, f"probe-{tag}{i}")
        try:
            daemon.shutdown()
        finally:
            daemon.kill()
        samples.append(daemon.setup_s)
    return samples


def run_round(run_dir: Path, tag: str, streams, trace: bool) -> dict[str, Any]:
    """One daemon, one pass of every client stream, one clean drain."""
    daemon = Daemon(run_dir, tag, trace=trace)
    try:
        result = drive(daemon, streams)
        result["daemon"] = daemon.shutdown()
    finally:
        daemon.kill()
    result["setup_s"] = daemon.setup_s
    return result


def service_metrics(result: dict[str, Any]) -> dict[str, float]:
    stats = result["stats"]
    waits = result["daemon"].get("queue_wait_ms") or [0.0]
    points = result["input_points"]
    jobs = result["daemon"]["spans"]["root_s"].get("service.job", 0.0)
    return {
        "service.executor_busy_frac": jobs / result["wall_s"],
        "service.queue_wait_p50_ms": median(waits),
        "service.batches": stats["batches"],
        "service.batch_mean": stats["batch_mean"] or 0.0,
        "service.dedup_frac": stats["dedup_hits"] / points,
        "service.rejects": sum(stats["rejected"].values()),
    }


# Plan counts the daemon merges per batch; they depend on batch shape.
def plan_counts(stats: dict[str, Any]) -> dict[str, float]:
    plan = stats.get("plan") or {}
    return {
        "plan.points": plan.get("points", 0),
        "plan.accesses_requested": plan.get("accesses_requested", 0),
        "plan.accesses_simulated": plan.get("accesses_simulated", 0),
        "plan.fallbacks": len(plan.get("fallbacks", ())),
    }
