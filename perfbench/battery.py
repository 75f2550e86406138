"""The ``battery_cold`` workload: every registry experiment through
``repro experiments`` (default flags, scale 128) in a fresh process,
over an empty simulation-cache directory."""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any

import checks
from common import HERE, Worker, fresh_dir

#: Reference re-simulations per run (the seeded sample of battery points).
CHECK_POINTS = 6
#: Set-up-only launches before every pass and after the last one: the
#: set-up samples of a run are spread over its whole length.
SETUP_PROBES = 2
#: A pass must finish within this many seconds.
PASS_TIMEOUT_S = 170


def _worker_argv(run_dir: Path, cache_dir: Path, check=(), trace=False) -> list[str]:
    return [
        str(HERE / "worker.py"),
        "--cache-dir", str(cache_dir),
        "--results-dir", str(run_dir / "results"),
        "--out", str(run_dir / "pass.json"),
        "--check", ",".join(str(i) for i in check),
        *(["--trace"] if trace else []),
    ]


def run_pass(name: str, check=(), trace=False) -> dict[str, Any]:
    """One battery pass in a fresh worker over an empty cache directory."""
    run_dir = fresh_dir(name)
    worker = Worker(_worker_argv(run_dir, run_dir / "cache", check, trace))
    try:
        worker.go(PASS_TIMEOUT_S)
    finally:
        worker.kill()
    record = json.loads((run_dir / "pass.json").read_text())
    record["setup_s"] = worker.setup_s
    manifest = json.loads(Path(record["manifest"]).read_text())
    record["digests"] = checks.manifest_digests(manifest)
    record["retries"] = sum(r.get("attempts", 1) - 1 for r in manifest["results"])
    record["plan"] = _plan_totals(manifest)
    record["experiment_s"] = [r["timings"].get("total", 0.0) for r in manifest["results"]]
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def _plan_totals(manifest: dict[str, Any]) -> dict[str, int]:
    """Planner counts summed over the manifest's experiments."""
    return plan_totals(result.get("plan") or {} for result in manifest["results"])


def plan_totals(plans, prefix: str = "plan") -> dict[str, int]:
    """Planner counts summed over ``plan`` blocks (manifest or
    ``summarize_plan`` shape), with the points each collapse rule
    answered as ``<prefix>.rule.<rule>``."""
    totals = {f"{prefix}.points": 0, f"{prefix}.accesses_requested": 0,
              f"{prefix}.accesses_simulated": 0, f"{prefix}.fallbacks": 0}
    for plan in plans:
        totals[f"{prefix}.points"] += plan.get("points", 0)
        totals[f"{prefix}.accesses_requested"] += plan.get("accesses_requested", 0)
        totals[f"{prefix}.accesses_simulated"] += plan.get("accesses_simulated", 0)
        totals[f"{prefix}.fallbacks"] += len(plan.get("fallbacks", ()))
        for rule, n in plan.get("by_rule", {}).items():
            key = f"{prefix}.rule.{rule}"
            totals[key] = totals.get(key, 0) + n
    return totals


def setup_samples(n: int) -> list[float]:
    """Set-up of ``n`` launches that stop at ``ready``."""
    samples = []
    for i in range(n):
        run_dir = fresh_dir(f"probe{i}")
        worker = Worker(_worker_argv(run_dir, run_dir / "cache"))
        try:
            worker.stop()
        finally:
            worker.kill()
        samples.append(worker.setup_s)
        shutil.rmtree(run_dir, ignore_errors=True)
    return samples


def grade(record: dict[str, Any], expected: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass: one operation per
    experiment table and per re-simulated point."""
    problems = [f"table {name} differs from the recorded digest"
                for name in checks.table_mismatches(record["digests"], expected)]
    for point in record["points"]:
        if not point["ok"]:
            why = "differs from the reference engine" if point["cached"] else \
                "was not simulated by the battery"
            problems.append(f"point {point['point']} {why}")
    return len(expected) + len(record["points"]), len(problems), problems
