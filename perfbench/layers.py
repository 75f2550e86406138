"""Where the benchmark puts its spans: one wrapper per public entry point
of each ``repro`` layer, and the counts each boundary records.

Span names are the per-layer metric stems: span ``engine.stack`` reports
``engine.stack_s`` (self seconds) and its count ``engine.stack_accesses``.
"""

from __future__ import annotations

import importlib
from typing import Any

from spans import Installation, Tracer, wrap_call, wrap_generator

#: Modules whose by-value imports must be rebound; importing them all
#: before installing makes every ``from x import f`` visible to the scan.
MODULES = (
    "repro",
    "repro.api",
    "repro.balance.analytic",
    "repro.experiments.orchestrator",
    "repro.experiments.plan",
    "repro.experiments.predict",
    "repro.experiments.registry",
    "repro.experiments.runner",
    "repro.fusion.edge_weighted",
    "repro.fusion.kwaycut",
    "repro.fusion.maxflow",
    "repro.fusion.mincut",
    "repro.fusion.multi_partition",
    "repro.fusion.two_partition",
    "repro.fusion.typed",
    "repro.interp.evaluator",
    "repro.interp.executor",
    "repro.lang.parser",
    "repro.machine.cache",
    "repro.machine.engine.direct",
    "repro.machine.engine.distinct",
    "repro.machine.engine.setassoc",
    "repro.machine.engine.simcache",
    "repro.machine.engine.stack",
    "repro.machine.hierarchy",
    "repro.machine.opt_cache",
    "repro.machine.three_c",
    "repro.service.client",
    "repro.service.executor",
    "repro.service.protocol",
    "repro.service.server",
    "repro.trace.generator",
    "repro.transforms.pipeline",
)

#: Fusion solvers the experiments and the transform pipeline call.
FUSION_SOLVERS = (
    ("repro.fusion.multi_partition", "optimal_partitioning"),
    ("repro.fusion.multi_partition", "greedy_partitioning"),
    ("repro.fusion.multi_partition", "program_order_fusion"),
    ("repro.fusion.two_partition", "two_partition"),
    ("repro.fusion.mincut", "minimal_hyperedge_cut"),
    ("repro.fusion.edge_weighted", "optimal_edge_weighted"),
    ("repro.fusion.edge_weighted", "greedy_edge_weighted"),
    ("repro.fusion.typed", "typed_fusion"),
    ("repro.fusion.typed", "optimal_weighted_partitioning"),
    ("repro.fusion.kwaycut", "brute_force_kway_cut"),
    ("repro.fusion.maxflow", "max_flow"),
)


def _accesses(metric: str, arg: int = 0):
    """Count ``len(args[arg])`` accesses under ``metric``."""

    def count(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(metric, len(args[arg]))

    return count


def _calls(metric: str):
    def count(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(metric)

    return count


def _trace_identity(gen) -> tuple:
    from repro.lang.printer import render

    return (
        render(gen.program),
        tuple(sorted(gen.params.items())),
        repr(sorted(gen.layout.placements.items())),
    )


def _trace_started(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("trace.traces")
    tracer.see("trace.distinct_traces", _trace_identity(args[0]))


def _trace_generated(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    _trace_started(tracer, args, kwargs, result)
    tracer.count("trace.accesses", len(result))


def _chunk(tracer: Tracer, chunk: Any) -> None:
    tracer.count("trace.accesses", len(chunk))


def _assembled(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """One point's run: counts the point and whether its machine has a
    fully-associative level."""
    tracer.count("timing.runs")
    if any(level.geometry.n_sets == 1 for level in args[1].cache_levels):
        tracer.count("input.fa_points")


def _manifest_written(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("manifest.bytes", result.stat().st_size)


def _distinct(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("engine.distinct_calls")
    tracer.count("engine.distinct_n", len(args[0]))


#: Set-associative levels reported on their own; any other level name
#: (a custom machine's) is reported as ``engine.setassoc.other``.
SETASSOC_LEVELS = ("L1", "L2")


def _setassoc_span(args: tuple) -> str:
    level = args[0].name
    return f"engine.setassoc.{level if level in SETASSOC_LEVELS else 'other'}"


def _setassoc_count(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    n = len(args[1])
    tracer.count("engine.setassoc_accesses", n)
    tracer.count(_setassoc_span(args) + "_accesses", n)


def install(tracer: Tracer, *, daemon: bool = False, client: bool = False) -> Installation:
    """Wrap every layer boundary; ``daemon`` adds the service job roots,
    ``client`` the client-side rebuild.  Returns the undo handle."""
    for name in MODULES:
        importlib.import_module(name)
    from repro.experiments.registry import EXPERIMENTS
    from repro.interp.evaluator import Evaluator
    from repro.machine.cache import Cache
    from repro.machine.engine.direct import DirectMappedEngine
    from repro.machine.engine.setassoc import SetAssociativeEngine
    from repro.machine.engine.simcache import SimulationCache
    from repro.machine.engine.stack import StackDistanceEngine
    from repro.machine.hierarchy import Hierarchy
    from repro.trace.generator import TraceGenerator

    inst = Installation()

    def fn(module: str, attr: str, span: str, count=None) -> None:
        inst.function(module, attr, lambda f: wrap_call(tracer, f, span, count))

    def meth(cls: type, attr: str, span, count=None) -> None:
        inst.method(cls, attr, lambda f: wrap_call(tracer, f, span, count))

    # experiments layer: one span per registry entry
    for exp_name, entry in list(EXPERIMENTS.items()):
        inst.mapping(EXPERIMENTS, exp_name, wrap_call(tracer, entry, f"experiment.{exp_name}"))
    inst.function(
        "repro.experiments.orchestrator",
        "run_tasks",
        lambda f: wrap_generator(tracer, f, "orchestrator.self"),
    )
    fn("repro.experiments.orchestrator", "write_manifest", "manifest.write", _manifest_written)

    # planner, executor, timing, predictor
    fn("repro.experiments.plan", "execute_plan", "plan.self")
    fn("repro.interp.executor", "execute", "interp.execute")
    fn("repro.interp.executor", "assemble_run", "timing.assemble", _assembled)
    fn("repro.balance.analytic", "analyze", "analytic.predict", _calls("analytic.points"))
    fn("repro.balance.analytic", "predict_run", "analytic.predict", _calls("analytic.points"))

    # trace generation: whole traces and streamed chunks (per next())
    meth(TraceGenerator, "generate", "trace.gen", _trace_generated)
    inst.method(
        TraceGenerator,
        "chunks",
        lambda f: wrap_generator(tracer, f, "trace.gen", _chunk, start=_trace_started),
    )

    # engines, per level where the engine is set-associative
    fn("repro.machine.engine.distinct", "count_prior_leq", "engine.distinct", _distinct)
    meth(StackDistanceEngine, "run", "engine.stack", _accesses("engine.stack_accesses", 1))
    fn("repro.machine.engine.stack", "stack_profile", "engine.stack",
       _accesses("engine.stack_accesses"))
    fn("repro.machine.engine.stack", "miss_curve", "engine.stack",
       _accesses("engine.stack_accesses"))
    meth(SetAssociativeEngine, "run", _setassoc_span, _setassoc_count)
    meth(DirectMappedEngine, "run", "engine.direct", _accesses("engine.direct_accesses", 1))
    meth(Cache, "run", "engine.reference", _accesses("engine.reference_accesses", 1))
    for attr in ("run_trace", "run_stream", "run_stream_multi"):
        meth(Hierarchy, attr, "hierarchy.self")
    fn("repro.machine.opt_cache", "simulate_opt", "replacement.opt")
    fn("repro.machine.three_c", "classify_misses", "three_c.classify")

    # simulation cache I/O
    meth(SimulationCache, "get", "simcache.get")
    meth(SimulationCache, "put", "simcache.put")

    # front end, transforms, fusion, reference interpreter
    fn("repro.lang.parser", "parse", "lang.parse", _calls("lang.parse_calls"))
    fn("repro.transforms.pipeline", "optimize", "transforms.optimize")
    for module, attr in FUSION_SOLVERS:
        fn(module, attr, "fusion.solve")
    meth(Evaluator, "run", "interp.evaluate")

    # service: wire decoding happens at admission and again in the job
    fn("repro.service.protocol", "sim_request_from_json", "wire.parse",
       _calls("wire.parse_calls"))
    fn("repro.experiments.plan", "request_key", "service.key")
    if daemon:
        for attr in ("run_simulate_job", "run_predict_job", "run_experiment_job"):
            fn("repro.service.executor", attr, "service.job")
    if client:
        fn("repro.service.client", "_rebuild", "client.rebuild")
    return inst


#: Root spans: their self time is the run's unattributed time.
ROOTS = ("battery", "service.job")


def span_names(experiments) -> list[str]:
    """Every non-root span a run can produce, in report order (each one is
    the per-layer metric ``<name>_s``)."""
    return [
        "engine.distinct",
        "engine.stack",
        "engine.setassoc.L1",
        "engine.setassoc.L2",
        "engine.setassoc.other",
        "engine.direct",
        "engine.reference",
        "replacement.opt",
        "three_c.classify",
        "hierarchy.self",
        "trace.gen",
        "plan.self",
        "interp.execute",
        "timing.assemble",
        "analytic.predict",
        "simcache.get",
        "simcache.put",
        "lang.parse",
        "wire.parse",
        "service.key",
        "transforms.optimize",
        "fusion.solve",
        "interp.evaluate",
        "orchestrator.self",
        "manifest.write",
        "client.rebuild",
        *(f"experiment.{name}" for name in experiments),
    ]
