"""Output checks: every number the benchmark records comes from a run
whose outputs were verified first.

* Battery tables: each experiment's ``comparable_json`` (timings, cache
  activity and volatile wall-clock cells already masked by the program),
  with its ``config`` masked too, must hash to the digest recorded in
  ``golden.json``.
* Battery points: a seeded sample of points the battery simulated is
  re-simulated with the reference engine and no simulation cache; the
  counters and simulated times must be identical.
* Served answers: every point must be bit-identical to a local
  ``repro.api.simulate_batch`` or ``repro.api.predict``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

GOLDEN = Path(__file__).resolve().parent / "golden.json"


# -- battery tables -------------------------------------------------------------
def result_digest(entry: Mapping[str, Any]) -> str:
    """Digest of one manifest result: rows, headers, notes and
    ``paper_deltas`` — everything deterministic, ``config`` masked."""
    from repro.experiments.result import ExperimentResult

    data = ExperimentResult.from_json(entry).comparable_json()
    data["config"] = None
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def manifest_digests(manifest: Mapping[str, Any]) -> dict[str, str]:
    return {entry["experiment"]: result_digest(entry) for entry in manifest["results"]}


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["battery"]


def table_mismatches(
    digests: Mapping[str, str], golden: Mapping[str, str]
) -> list[str]:
    """Experiment names whose table is missing, extra or different."""
    names = sorted(set(digests) | set(golden))
    return [n for n in names if digests.get(n) != golden.get(n)]


# -- battery points ---------------------------------------------------------------
def point_pool() -> list[tuple[str, Any]]:
    """Sweep points the default battery is known to simulate (the Figure 3
    suites and the capacity ladder), as ``(label, SimRequest)``."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.ladder_capacity import ladder_requests
    from repro.experiments.plan import SimRequest
    from repro.machine.layout import LayoutPolicy
    from repro.programs.kernels import KERNEL_NAMES, make_kernel

    config = ExperimentConfig()
    n_ex = config.exemplar_kernel_elements()
    padded = LayoutPolicy(alignment=32, pad_bytes=32)
    pool: list[tuple[str, Any]] = []
    for name in KERNEL_NAMES:
        pool.append((f"fig3/origin/{name}", SimRequest(
            make_kernel(name, config.stream_elements()), config.origin)))
        pool.append((f"fig3/exemplar/{name}", SimRequest(
            make_kernel(name, n_ex), config.exemplar)))
        pool.append((f"fig3/exemplar+pad/{name}", SimRequest(
            make_kernel(name, n_ex), config.exemplar, layout_policy=padded)))
    for request in ladder_requests(config):
        label = f"ladder/{request.program.name}/{request.machine.name}"
        pool.append((label, request))
    return pool


def sample_points(seed: int, k: int) -> list[int]:
    """The seeded sample of pool indices a run re-simulates."""
    return sorted(random.Random(seed).sample(range(len(point_pool())), k))


def _run_fields(run) -> tuple:
    """Everything a MachineRun's counters and simulated times consist of."""
    return (run.counters, run.time, run.latency_time, run.overlap4_time, run.contended)


def check_points(indices: Sequence[int]) -> list[dict[str, Any]]:
    """Re-simulate sampled battery points with the reference engine.

    Must run in the process that ran the battery, after it: the first
    ``execute`` of each point is answered from the battery's simulation
    cache (a miss means the battery never simulated the point, which
    fails the check), the second simulates from scratch.
    """
    from repro.interp.executor import execute
    from repro.machine.engine.simcache import get_sim_cache

    pool = point_pool()
    cache = get_sim_cache()
    out = []
    for i in indices:
        label, r = pool[i]
        kwargs = dict(params=r.params, layout_policy=r.layout_policy)
        before = cache.counters.hits if cache is not None else 0
        recorded = execute(r.program, r.machine, **kwargs)
        cached = cache is not None and cache.counters.hits == before + 1
        fresh = execute(r.program, r.machine, engine="reference", sim_cache=False, **kwargs)
        out.append({
            "point": label,
            "cached": cached,
            "ok": cached and _run_fields(recorded) == _run_fields(fresh),
        })
    return out


# -- served answers ------------------------------------------------------------------
def served_mismatches(
    served: Iterable[tuple[str, Sequence[Any], Sequence[Any]]],
) -> list[int]:
    """Indices of requests whose served answer differs from local.

    ``served`` yields ``(op, requests, answers)`` per request, where
    answers are the client's ``SimulationResult`` summaries (``None`` for
    a request that failed).  Local answers come from one planned
    ``repro.api.simulate_batch`` over the distinct simulate points and
    ``repro.api.predict`` per distinct predict point.
    """
    import repro
    from repro.experiments.plan import request_key

    served = list(served)
    simulate: dict[str, Any] = {}
    predict: dict[str, Any] = {}
    keyed = []
    for op, requests, answers in served:
        keys = [request_key(r) for r in requests]
        table = predict if op == "predict" else simulate
        for key, r in zip(keys, requests):
            table.setdefault(key, r)
        keyed.append((op, keys, answers))
    local_sim = dict(zip(simulate, repro.simulate_batch(list(simulate.values()))))
    local_pred = {
        key: repro.predict(r.program, r.machine, params=r.params, passes=r.passes)
        for key, r in predict.items()
    }
    bad = []
    for i, (op, keys, answers) in enumerate(keyed):
        local = local_pred if op == "predict" else local_sim
        if answers is None or len(answers) != len(keys) or any(
            _run_fields(a.run) != _run_fields(local[k].run) for k, a in zip(keys, answers)
        ):
            bad.append(i)
    return bad
