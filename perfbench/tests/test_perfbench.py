"""The benchmark's own tests: its checks reject wrong outputs, its spans
add up, and its metric lists match BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, wrap_call, wrap_generator  # noqa: E402


# -- output checks ------------------------------------------------------------------
def test_digest_matches_golden_and_rejects_a_perturbed_cell():
    import repro

    entry = repro.run_experiment("fig4").to_json()
    golden = checks.load_golden()
    assert checks.result_digest(entry) == golden["fig4"]
    # config carries run-local paths and flags: it is masked.
    entry["config"]["sim_cache_dir"] = "/elsewhere"
    assert checks.result_digest(entry) == golden["fig4"]
    bad = copy.deepcopy(entry)
    row = next(i for i, cell in enumerate(bad["rows"][0]) if isinstance(cell, (int, float)))
    bad["rows"][0][row] += 1
    digests = {"fig4": checks.result_digest(bad)}
    assert checks.table_mismatches(digests, {"fig4": golden["fig4"]}) == ["fig4"]


def test_served_check_rejects_a_perturbed_counter():
    import repro
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.ladder_capacity import ladder_requests

    requests = ladder_requests(ExperimentConfig(scale=512))[:3]
    answers = repro.simulate_batch(requests)
    assert checks.served_mismatches([("simulate", requests, answers)]) == []
    bad = copy.deepcopy(answers)
    bad[1].run.counters.level_stats[0].misses += 1
    served = [("simulate", requests, answers), ("simulate", requests, bad)]
    assert checks.served_mismatches(served) == [1]
    assert checks.served_mismatches([("simulate", requests, None)]) == [0]


def test_reference_check_rejects_a_perturbed_cached_counter():
    from repro.interp.executor import execute
    from repro.machine.engine.simcache import get_sim_cache

    cache = get_sim_cache()
    cache.clear()
    index = 0  # fig3/origin/1w1r: a small point
    label, r = checks.point_pool()[index]
    execute(r.program, r.machine)
    assert checks.check_points([index]) == [{"point": label, "cached": True, "ok": True}]
    (key, entry), = cache._memory.items()
    entry.result.level_stats[0].misses += 1
    assert checks.check_points([index])[0]["ok"] is False
    cache.clear()
    assert checks.check_points([index])[0] == {"point": label, "cached": False, "ok": False}


def test_work_counts_must_repeat(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.count_problems("battery_cold", 1, 10, False, {"trace.accesses": 10}) == []
    assert run.count_problems("battery_cold", 2, 30, False, {"trace.accesses": 10}) == []
    problems = run.count_problems("battery_cold", 3, 10, False, {"trace.accesses": 11})
    assert problems == ["work count trace.accesses changed from 10 to 11"]
    # A served stream is sized by --seconds: each duration has its own record.
    assert run.count_problems("serve_mix", 1, 10, False, {"input.points": 400}) == []
    assert run.count_problems("serve_mix", 1, 30, False, {"input.points": 1200}) == []
    problems = run.count_problems("serve_mix", 1, 10, False, {"input.points": 401})
    assert problems == ["work count input.points changed from 400 to 401"]


# -- spans ------------------------------------------------------------------------------
def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_the_root_per_thread():
    tracer = Tracer()
    tracer.active = True
    inner = wrap_call(tracer, lambda: _busy(0.02), "inner")
    outer = wrap_call(tracer, lambda: (_busy(0.01), inner(), inner()), "outer")

    def other_thread():
        with tracer.span("service.job"):
            _busy(0.05)

    with tracer.span("battery"):
        worker = threading.Thread(target=other_thread)
        worker.start()
        outer()
        worker.join()
    snap = tracer.snapshot()
    assert run.attribution_problems(snap, None) == []
    assert snap["calls"] == {"inner": 2, "outer": 1, "battery": 1, "service.job": 1}
    assert snap["self_s"]["inner"] >= 0.04
    assert 0.01 <= snap["self_s"]["outer"] < 0.03
    # The other thread's span is its own root, never a child of "battery".
    assert snap["root_s"]["service.job"] >= 0.05
    assert snap["self_s"]["battery"] + snap["self_s"]["outer"] + snap["self_s"]["inner"] \
        == pytest.approx(snap["root_s"]["battery"])
    assert run.attribution_problems(snap, {"battery"}) != []


def test_generator_spans_time_each_next_only():
    tracer = Tracer()
    tracer.active = True

    def produce():
        for i in range(3):
            _busy(0.01)
            yield [0] * (i + 1)

    chunks = wrap_generator(tracer, produce, "trace.gen",
                            lambda t, item: t.count("trace.accesses", len(item)))
    with tracer.span("battery"):
        for _ in chunks():
            _busy(0.02)  # consumer work: not the producer's
    snap = tracer.snapshot()
    assert snap["counts"] == {"trace.accesses": 6}
    assert 0.03 <= snap["self_s"]["trace.gen"] < 0.05
    assert snap["self_s"]["battery"] >= 0.06


def test_install_rebinds_names_imported_by_value():
    import repro.experiments.plan as plan
    import repro.machine.engine.stack as stack
    import repro.service.client as client
    from repro.interp import executor

    tracer = Tracer()
    original = plan.stack_profile
    inst = layers.install(tracer, client=True)
    try:
        assert plan.stack_profile is stack.stack_profile is not original
        assert plan.assemble_run is client.assemble_run is executor.assemble_run
        assert plan.assemble_run.__perfbench_original__ is not None
    finally:
        inst.undo()
    assert plan.stack_profile is original
    assert not hasattr(plan.assemble_run, "__perfbench_original__")


def test_traced_simulation_counts_work_at_each_layer():
    import repro
    from repro.machine.engine.simcache import get_sim_cache
    from repro.machine.presets import origin2000
    from repro.programs.kernels import make_kernel

    get_sim_cache().clear()
    tracer = Tracer()
    inst = layers.install(tracer)
    try:
        tracer.active = True
        with tracer.span("battery"):
            repro.simulate(make_kernel("1w2r", 4096), origin2000(128))
        tracer.active = False
    finally:
        inst.undo()
    snap = tracer.snapshot()
    assert run.attribution_problems(snap, {"battery"}) == []
    m = run.layer_metrics([snap], {})
    assert m["trace.accesses"] == 3 * 4096
    assert m["engine.setassoc.L1_accesses"] == 3 * 4096
    assert m["engine.setassoc.L2_accesses"] > 0
    assert m["trace.traces"] == m["trace.distinct_traces"] == 1
    assert m["timing.runs"] == 1
    assert m["trace.gen_s"] > 0 and m["engine.setassoc_s"] > 0


# -- the metric contract -----------------------------------------------------------------
def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.per_layer_units().items())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert checks.load_golden().keys() == __import__(
        "repro.experiments.registry", fromlist=["EXPERIMENTS"]).EXPERIMENTS.keys()
