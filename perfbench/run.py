"""The repro benchmark: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload battery_cold --seed 1 --seconds 55 --trace 0

Run from the root of a checkout (it imports the program from ``src/``).
``--trace 0`` prints the end-to-end metrics, measured with no spans
installed; ``--trace 1`` repeats the workload with the benchmark's spans
wrapped around every layer and prints the per-layer metrics.  Outputs
are checked before any number is recorded; the last stdout line is the
JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("battery_cold", "serve_mix")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
}

#: Counts recorded at span boundaries (name -> unit).
SPAN_COUNTS = (
    "engine.distinct_calls",
    "engine.distinct_n",
    "engine.stack_accesses",
    "engine.setassoc_accesses",
    "engine.setassoc.L1_accesses",
    "engine.setassoc.L2_accesses",
    "engine.setassoc.other_accesses",
    "engine.direct_accesses",
    "engine.reference_accesses",
    "trace.accesses",
    "trace.traces",
    "timing.runs",
    "analytic.points",
    "lang.parse_calls",
    "wire.parse_calls",
    "manifest.bytes",
)

#: Values each workload supplies itself (name -> unit).  The tail
#: latency is measured untraced, like the end-to-end metrics, but its
#: spread across seeds exceeds a tenth, so it is reported here.
WORKLOAD_VALUES = {
    "latency_p95_ms": "ms",
    "engine.setassoc_s": "s",
    "trace.distinct_traces": "count",
    "trace.redundant_frac": "ratio",
    "plan.points": "count",
    "plan.accesses_requested": "count",
    "plan.accesses_simulated": "count",
    "plan.fallbacks": "count",
    "simcache.hits": "count",
    "simcache.misses": "count",
    "simcache.puts": "count",
    "simcache.hit_ratio": "ratio",
    "simcache.claim_waits": "count",
    "orchestrator.retries": "count",
    "service.executor_busy_frac": "ratio",
    "service.queue_wait_p50_ms": "ms",
    "service.batches": "count",
    "service.batch_mean": "count",
    "service.dedup_frac": "ratio",
    "service.rejects": "count",
    "unattributed_s": "s",
    "traced.wall_s": "s",
    "tracing.overhead_s": "s",
    "host.cpu_s": "s",
}


def experiment_names() -> list[str]:
    import checks

    return list(checks.load_golden())


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    import layers

    units = {f"{name}_s": "s" for name in layers.span_names(experiment_names())}
    units.update({name: "count" for name in SPAN_COUNTS})
    units.update(WORKLOAD_VALUES)
    return units


# -- assembling per-layer numbers from span snapshots ------------------------------
def attribution_problems(snapshot: dict[str, Any], roots: set[str] | None) -> list[str]:
    """Self times must add up to the root spans' clock on every thread,
    and (for a battery) the only root is the battery itself."""
    import math

    problems = []
    total_self = math.fsum(snapshot["self_s"].values())
    total_root = math.fsum(snapshot["root_s"].values())
    if abs(total_self - total_root) > 1e-6 * max(1.0, total_root):
        problems.append(f"self times sum to {total_self:.6f}s, roots to {total_root:.6f}s")
    if roots is not None and set(snapshot["root_s"]) != roots:
        problems.append(f"spans outside the root: {sorted(set(snapshot['root_s']) - roots)}")
    return problems


def layer_metrics(snapshots: list[dict[str, Any]], values: dict[str, float]) -> dict[str, float]:
    import layers

    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    distinct = 0
    for snap in snapshots:
        for k, v in snap["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in snap["counts"].items():
            counts[k] = counts.get(k, 0) + v
        distinct += snap["distinct"].get("trace.distinct_traces", 0)
    m: dict[str, float] = {}
    for name in layers.span_names(experiment_names()):
        m[f"{name}_s"] = self_s.get(name, 0.0)
    unknown = set(self_s) - set(layers.span_names(experiment_names())) - set(layers.ROOTS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    m["engine.setassoc_s"] = sum(m[f"engine.setassoc.{lv}_s"] for lv in ("L1", "L2", "other"))
    m["unattributed_s"] = sum(self_s.get(root, 0.0) for root in layers.ROOTS)
    for name in SPAN_COUNTS:
        m[name] = counts.get(name, 0)
    traces = counts.get("trace.traces", 0)
    m["trace.distinct_traces"] = distinct
    m["trace.redundant_frac"] = 1.0 - distinct / traces if traces else 0.0
    m.update(values)
    return m


def battery_input_shares(snapshot: dict[str, Any], simcache: dict[str, int]) -> dict[str, float]:
    """The input shares optimizations depend on, as one traced battery
    pass measured them (run record only, not metrics)."""
    counts = snapshot["counts"]
    runs, predicted = counts.get("timing.runs", 0), counts.get("analytic.points", 0)
    distinct = snapshot["distinct"].get("trace.distinct_traces", 0)
    points = runs + predicted
    return {
        "input.repeat_frac": simcache_values(simcache)["simcache.hit_ratio"],
        "input.points_per_trace": runs / distinct if distinct else 0.0,
        "input.fa_level_frac": counts.get("input.fa_points", 0) / points if points else 0.0,
        "input.predict_frac": predicted / points if points else 0.0,
    }


def simcache_values(c: dict[str, int]) -> dict[str, float]:
    hits, misses = c.get("hits", 0), c.get("misses", 0)
    return {
        "simcache.hits": hits,
        "simcache.misses": misses,
        "simcache.puts": c.get("puts", 0),
        "simcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "simcache.claim_waits": c.get("claim_waits", 0),
    }


NO_SERVICE = {
    "service.executor_busy_frac": 0.0,
    "service.queue_wait_p50_ms": 0.0,
    "service.batches": 0,
    "service.batch_mean": 0.0,
    "service.dedup_frac": 0.0,
    "service.rejects": 0,
}


# -- the batteries -----------------------------------------------------------------
#: Upper bound on battery passes in one run, whatever ``--seconds`` says.
MAX_PASSES = 12


def _passes(seconds: float, make: Callable[[int], dict]) -> list[dict]:
    """Passes while another one should end nearer ``seconds`` of timed
    phase than stopping now does (always at least one)."""
    out = [make(0)]
    while len(out) < MAX_PASSES:
        measured = sum(p["wall_s"] for p in out)
        if measured + measured / len(out) / 2 >= seconds:
            break
        out.append(make(len(out)))
    return out


def battery_counts(record: dict[str, Any]) -> dict[str, Any]:
    """Deterministic work counts of one pass (must repeat exactly)."""
    counts = {f"simcache.{k}": v for k, v in record["simcache"].items()}
    counts.update(record["plan"])
    counts["orchestrator.retries"] = record["retries"]
    if record.get("spans"):
        snap = record["spans"]
        counts.update({k: snap["counts"][k] for k in snap["counts"] if k != "manifest.bytes"})
        counts["trace.distinct_traces"] = snap["distinct"].get("trace.distinct_traces", 0)
    return counts


def run_battery(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import battery
    import checks
    from common import median, percentile

    expected, problems = checks.load_golden(), []
    check = checks.sample_points(seed, battery.CHECK_POINTS)
    # Set-up-only launches go before every pass and after the last one,
    # so the set-up samples span the run (traced runs report no set-up).
    probes = 0 if trace else battery.SETUP_PROBES
    setup: list[float] = []

    def make(i: int) -> dict[str, Any]:
        setup.extend(battery.setup_samples(probes))
        return battery.run_pass("cold", check=() if i else check)

    passes = _passes(seconds, make)
    setup.extend(battery.setup_samples(probes))
    traced = battery.run_pass("cold-traced", trace=True) if trace else None
    attempted = failed = 0
    for record in passes + ([traced] if traced else []):
        a, f, p = battery.grade(record, expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    counts = [battery_counts(p) for p in passes]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between passes")
    latencies = [t * 1e3 for p in passes for t in p["experiment_s"]]
    metrics = {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median(setup + [p["setup_s"] for p in passes]),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "latency_p50_ms": median(latencies),
    }
    p95 = percentile(latencies, 95)
    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "metrics": metrics, "counts": battery_counts(traced or passes[0]),
           "record": {"passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
                      "latency_p95_ms": p95}}
    if traced:
        problems += attribution_problems(traced["spans"], {"battery"})
        values = {
            **simcache_values(traced["simcache"]),
            **{k: v for k, v in traced["plan"].items() if k in WORKLOAD_VALUES},
            **NO_SERVICE,
            "orchestrator.retries": traced["retries"],
            "latency_p95_ms": p95,
            "traced.wall_s": traced["wall_s"],
            "tracing.overhead_s": traced["wall_s"] - metrics["wall_s"],
            "host.cpu_s": traced["cpu_s"],
        }
        out["layers"] = layer_metrics([traced["spans"]], values)
        out["record"].update(battery_input_shares(traced["spans"], traced["simcache"]))
    return out


# -- the served mix ----------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    start = time.perf_counter()
    import shutil

    import battery
    import checks
    import serve
    from common import fresh_dir, median
    from repro.experiments.plan import collect_plan_telemetry, summarize_plan

    streams = serve.build_streams(seed, max(1, round(serve.REQUESTS_PER_SECOND * seconds)))
    build_s = time.perf_counter() - start
    shares = serve.input_shares(streams)
    run_dir = fresh_dir("serve")
    # Set-up-only daemons before and after the timed round, so the set-up
    # samples span the run (traced runs report no set-up).
    probes = 0 if trace else serve.SETUP_PROBES
    setup = serve.setup_samples(run_dir, probes, "before")
    rounds = [serve.run_round(run_dir, "main", streams, trace=False)]
    setup += serve.setup_samples(run_dir, probes, "after")
    tracer = None
    if trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer, client=True)
        tracer.active = True
        cpu0 = os.times()
        rounds.append(serve.run_round(run_dir, "traced", streams, trace=True))
        cpu1 = os.times()
        tracer.active = False
    shutil.rmtree(run_dir, ignore_errors=True)
    attempted = failed = 0
    problems: list[str] = []
    local_plan: dict[str, Any] = {}
    for r in rounds:
        # The first check is the first simulation in this process (an empty
        # in-memory sim cache), so its planner counts are deterministic.
        with collect_plan_telemetry() as session:
            bad = checks.served_mismatches(r["answers"])
        local_plan = local_plan or summarize_plan(session)
        attempted += len(r["answers"])
        failed += len(bad)
        problems += [f"request {i} answered differently from local execution" for i in bad]
    main = rounds[0]
    metrics = {
        "wall_s": main["wall_s"],
        "setup_s": build_s + median(setup + [main["setup_s"]]),
        "peak_rss_mb": main["daemon"]["peak_rss_mb"],
        "latency_p50_ms": main["latency_p50_ms"],
    }
    counts = {k: v for k, v in shares.items() if not k.endswith("_frac")}
    counts.update(battery.plan_totals([local_plan], prefix="check.plan"))
    counts["check.plan.traces_generated"] = local_plan.get("traces_generated", 0)
    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "metrics": metrics, "counts": counts,
           "record": {**shares, "latency_p95_ms": main["latency_p95_ms"], "exempt": {
               "service.dedup_hits": main["stats"]["dedup_hits"],
               "service.batches": main["stats"]["batches"],
               "service.batch_mean": main["stats"]["batch_mean"],
               **{f"simcache.{k}": v for k, v in main["stats"]["sim_cache"].items()},
               **serve.plan_counts(main["stats"])}}}
    if trace:
        traced = rounds[1]
        traced["input_points"] = shares["input.points"]
        client = tracer.snapshot()
        for snap in (traced["daemon"]["spans"], client):
            problems += attribution_problems(snap, None)
        stats = traced["stats"]
        values = {
            **simcache_values(stats.get("sim_cache", {})),
            **serve.plan_counts(stats),
            **serve.service_metrics(traced),
            "orchestrator.retries": 0,
            "latency_p95_ms": main["latency_p95_ms"],
            "traced.wall_s": traced["wall_s"],
            "tracing.overhead_s": traced["wall_s"] - main["wall_s"],
            "host.cpu_s": traced["daemon_cpu_s"] + (cpu1.user + cpu1.system)
            - (cpu0.user + cpu0.system),
        }
        out["layers"] = layer_metrics([traced["daemon"]["spans"], client], values)
        out["counts"].update({"client.rebuilds": client["calls"].get("client.rebuild", 0)})
    return out


# -- work-count record ------------------------------------------------------------
def count_problems(workload: str, seed: int, seconds: float, trace: bool,
                   counts: dict[str, Any]) -> list[str]:
    """The deterministic counts must repeat exactly across runs of the
    same source tree: the first run records them, later runs compare.
    A battery pass does the same work whatever the seed and duration;
    the served stream is drawn from the seed and sized by ``seconds``."""
    from common import STATE, source_digest

    key = f"{workload}-{'traced' if trace else 'plain'}"
    if workload == "serve_mix":
        key += f"-seed{seed}-{seconds:g}s"
    path = STATE / source_digest() / "counts" / f"{key}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        differ = sorted(k for k in set(recorded) | set(counts) if recorded.get(k) != counts.get(k))
        return [f"work count {k} changed from {recorded.get(k)} to {counts.get(k)}"
                for k in differ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a repro checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    from common import NoiseRecord, log_record

    noise = NoiseRecord()
    trace = bool(args.trace)
    if args.workload == "serve_mix":
        out = run_serve(args.seed, args.seconds, trace)
    else:
        out = run_battery(args.seed, args.seconds, trace)
    problems = out["problems"] + count_problems(args.workload, args.seed, args.seconds, trace,
                                                out["counts"])
    host = noise.finish()
    log_record({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "metrics": out["metrics"], "counts": out["counts"], "problems": problems,
                **host, **out["record"]})
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    if trace:
        values, units = out["layers"], per_layer_units()
    else:
        values, units = out["metrics"], END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
