"""The compiled Fenwick kernel of ``count_prior_leq`` against its NumPy oracle.

``count_prior_leq`` sends previous-occurrence links (every value in
``[-1, n)``) to a lazily built C kernel and everything else to the NumPy
merge count, which stays as the fallback and as the oracle checked here:
on random and edge-case inputs, on real paper traces, under a missing
compiler, a failing build and an unwritable cache, across two processes
racing to build, and in a forked service worker.
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.machine.engine import _kernels, distinct
from repro.machine.engine.distinct import (
    _count_prior_leq_numpy,
    count_prior_leq,
    kernel_info,
    previous_occurrences,
    reuse_distances,
)

SRC = str(Path(distinct.__file__).resolve().parents[3])


def compiled():
    """The compiled kernel, or a skip that says why there is none."""
    kernels, reason = _kernels.load()
    if kernels is None:
        pytest.skip(f"no compiled count_prior_leq kernel: {reason}")
    return kernels["count_prior_leq"]


@pytest.fixture
def kernel():
    return compiled()


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """Forget the process's loaded kernel and point the build cache at an
    empty directory; both are restored afterwards.  Tests that also need
    a compiler request ``kernel`` first, so it is checked before the reset."""
    monkeypatch.setattr(_kernels, "_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro" / "kernels"


@st.composite
def links(draw, max_n=300):
    """Arbitrary arrays of previous-occurrence-shaped values in [-1, n)."""
    n = draw(st.integers(0, max_n))
    return np.asarray(draw(st.lists(st.integers(-1, max(n - 1, -1)), min_size=n, max_size=n)),
                      dtype=np.int64)


def is_link_array(v: np.ndarray) -> bool:
    return v.size > 1 and v.min() >= -1 and v.max() < v.size


class TestDifferential:
    @given(st.lists(st.integers(0, 40), max_size=400))
    def test_links_of_random_streams(self, keys):
        kernel = compiled()
        prev = previous_occurrences(np.asarray(keys, dtype=np.int64))
        expected = _count_prior_leq_numpy(prev)
        np.testing.assert_array_equal(kernel(prev), expected)
        np.testing.assert_array_equal(count_prior_leq(prev), expected)

    @given(links())
    def test_arbitrary_link_shaped_arrays(self, values):
        kernel = compiled()
        np.testing.assert_array_equal(kernel(values), _count_prior_leq_numpy(values))

    @given(st.lists(st.integers(-(2**62), 2**62), max_size=200))
    @example([-2, 0, 1])  # one value below -1
    @example([0, 3, 1])  # one value at or past n
    @example([5, 5])
    @example([-1, 0, 1])  # the widest links
    def test_arbitrary_int64_takes_the_path_its_range_selects(self, values):
        values = np.asarray(values, dtype=np.int64)
        kernels, _ = _kernels.load()
        calls = []

        def spy(v):
            calls.append(v.size)
            return kernels["count_prior_leq"](v) if kernels else _count_prior_leq_numpy(v)

        with mock.patch.object(_kernels, "_state", ({"count_prior_leq": spy}, None)):
            out = count_prior_leq(values)
        np.testing.assert_array_equal(out, _count_prior_leq_numpy(values))
        assert calls == ([values.size] if is_link_array(values) else [])

    @pytest.mark.parametrize(
        "n",
        sorted({0, 1, 2, 31, 32, 33, *(2**k + d for k in range(5, 17, 3) for d in (-1, 0, 1))}),
    )
    def test_edge_sizes(self, kernel, n):
        rng = np.random.default_rng(n)
        streams = {
            "random": rng.integers(0, max(n // 3, 1), n),
            "all-cold": np.arange(n),
            "single-key": np.zeros(n, dtype=np.int64),
        }
        for name, keys in streams.items():
            prev = previous_occurrences(keys.astype(np.int64))
            expected = _count_prior_leq_numpy(prev)
            np.testing.assert_array_equal(kernel(prev), expected, err_msg=name)
            np.testing.assert_array_equal(count_prior_leq(prev), expected, err_msg=name)
        np.testing.assert_array_equal(
            count_prior_leq(previous_occurrences(np.arange(n))), np.arange(n)
        )


def _paper_traces():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig1_balance import _workloads
    from repro.experiments.ladder_capacity import LADDER_LAYOUT, LINE_SIZE
    from repro.machine.layout import build_layout
    from repro.programs.kernels import KERNEL_NAMES, make_kernel
    from repro.trace.generator import generate_trace

    # The fig1 workloads whose traces stay under 700k accesses at this scale.
    config = ExperimentConfig(scale=512)
    fig1 = ("convolution", "dmxpy", "mm(-O3)", "FFT", "Sweep3D")
    programs = [(f"fig1 {name}", p) for name, p in _workloads(config) if name in fig1]
    programs += [(f"fig3 {k}", make_kernel(k, 4096)) for k in KERNEL_NAMES[::3]]
    for name, program in programs:
        layout = build_layout(program, policy=LADDER_LAYOUT)
        yield name, generate_trace(program, layout=layout).addresses // LINE_SIZE


def test_reuse_distances_identical_on_paper_traces(kernel, monkeypatch):
    checked = 0
    for name, lines in _paper_traces():
        fast = reuse_distances(lines)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_state", (None, "oracle"))
            oracle = reuse_distances(lines)
        np.testing.assert_array_equal(fast, oracle, err_msg=name)
        checked += lines.size
    assert checked > 100_000


class TestFallback:
    def test_missing_compiler(self, fresh_kernel, monkeypatch, caplog):
        monkeypatch.setattr(_kernels, "CC", "repro-no-such-compiler")
        prev = previous_occurrences(np.arange(500) % 37)
        with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
            out = count_prior_leq(prev)
            info = kernel_info()
            count_prior_leq(prev)
        np.testing.assert_array_equal(out, _count_prior_leq_numpy(prev))
        assert info["kernel"] == "numpy"
        assert "repro-no-such-compiler" in info["reason"]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert info["reason"] in warnings[0].getMessage()
        assert not fresh_kernel.exists()

    def test_failing_build(self, kernel, fresh_kernel, monkeypatch, caplog):
        monkeypatch.setattr(_kernels, "SOURCE", "this is not C;\n")
        prev = previous_occurrences(np.arange(200) % 7)
        with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
            out = count_prior_leq(prev)
        np.testing.assert_array_equal(out, _count_prior_leq_numpy(prev))
        info = kernel_info()
        assert info["kernel"] == "numpy"
        assert "failed to build" in info["reason"]
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1
        assert list(fresh_kernel.iterdir()) == []  # the temporary output is gone

    def test_unwritable_cache_builds_privately(self, kernel, monkeypatch, tmp_path, caplog):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setattr(_kernels, "_state", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        prev = previous_occurrences(np.arange(300) % 11)
        with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
            out = count_prior_leq(prev)
        np.testing.assert_array_equal(out, _count_prior_leq_numpy(prev))
        info = kernel_info()
        assert info["kernel"] == "c"
        assert "unwritable" in info["reason"]
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1

    def test_cached_build_is_reused(self, kernel, fresh_kernel):
        assert kernel_info() == {"kernel": "c", "reason": None}
        (built,) = fresh_kernel.iterdir()
        assert built.suffix == ".so"
        mtime = built.stat().st_mtime_ns
        _kernels._state = None
        assert kernel_info() == {"kernel": "c", "reason": None}
        assert [p.stat().st_mtime_ns for p in fresh_kernel.iterdir()] == [mtime]


_CHILD = textwrap.dedent(
    """
    import json, os, sys, time
    from pathlib import Path
    import numpy as np
    import repro.experiments.runner  # importing the program builds nothing
    from repro.machine.engine import _kernels
    from repro.machine.engine.distinct import (
        _count_prior_leq_numpy, count_prior_leq, kernel_info, previous_occurrences)
    assert _kernels._state is None
    ready, go = sys.argv[1:]
    Path(ready).touch()
    while not os.path.exists(go):
        time.sleep(0.001)
    prev = previous_occurrences(np.arange(5000) % 97)
    same = bool(np.array_equal(count_prior_leq(prev), _count_prior_leq_numpy(prev)))
    print(json.dumps({"info": kernel_info(), "same": same}))
    """
)


def test_threads_build_once(kernel, fresh_kernel, monkeypatch):
    real_load = _kernels._load
    loads = []

    def counting_load():
        loads.append(threading.get_ident())
        return real_load()

    monkeypatch.setattr(_kernels, "_load", counting_load)
    barrier = threading.Barrier(8)
    infos = []

    def worker():
        barrier.wait(timeout=60)
        infos.append(kernel_info())

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert len(loads) == 1
    assert infos == [{"kernel": "c", "reason": None}] * 8
    assert [p.suffix for p in fresh_kernel.iterdir()] == [".so"]


def test_two_processes_race_to_build(kernel, tmp_path):
    xdg = tmp_path / "xdg"
    go = tmp_path / "go"
    env = {**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(xdg)}
    ready = [tmp_path / f"ready{i}" for i in range(2)]
    procs = [
        subprocess.Popen([sys.executable, "-c", _CHILD, str(r), str(go)], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for r in ready
    ]
    try:
        deadline = time.monotonic() + 120
        while not all(r.exists() for r in ready):  # both imported, neither built
            assert time.monotonic() < deadline and all(p.poll() is None for p in procs)
            time.sleep(0.01)
        assert not xdg.exists()
        go.touch()
        answers = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            answers.append(json.loads(out))
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
    assert answers == [{"info": {"kernel": "c", "reason": None}, "same": True}] * 2
    built = list((xdg / "repro" / "kernels").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"  # and no *.tmp left


def _forked_job(request):
    """Runs in a fork-pool worker, as ``repro serve --jobs N`` jobs do."""
    from repro.service.executor import run_simulate_job

    inherited = _kernels._state is not None and _kernels._state[0] is not None
    return inherited, run_simulate_job([request]), kernel_info()


def test_forked_service_worker_inherits_the_kernel(kernel):
    from repro.experiments.plan import SimRequest, run_batch
    from repro.machine.cache import CacheGeometry
    from repro.machine.spec import CacheLevelSpec, MachineSpec
    from repro.service.executor import wire_run
    from repro.service.protocol import sim_request_to_json
    from tests.helpers import simple_stream_program

    machine = MachineSpec(
        name="fa", peak_flops=100e6, register_bandwidth=400e6,
        cache_levels=(CacheLevelSpec("C", CacheGeometry(1024, 32, 32), 100e6, 100e-9),),
    )
    request = SimRequest(simple_stream_program(n=512), machine)
    expected = wire_run(run_batch([request])[0])
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
        inherited, answer, info = pool.submit(_forked_job, sim_request_to_json(request)).result(120)
    assert inherited
    assert info == {"kernel": "c", "reason": None}
    assert answer["results"] == [expected]


class TestManifest:
    def _validator(self):
        tools = Path(__file__).resolve().parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            import validate_manifest
        finally:
            sys.path.remove(str(tools))
        schema = json.loads((tools.parent / "docs" / "result.schema.json").read_text())
        return validate_manifest, schema

    def test_manifest_records_the_kernel(self):
        from repro.experiments.orchestrator import build_manifest, comparable_manifest
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.result import failed_result

        manifest = build_manifest([failed_result("fig1", ExperimentConfig(), "boom")], run_id="kernels")
        assert manifest["kernels"]["count_prior_leq"] == kernel_info()
        validator, schema = self._validator()
        validator.validate(manifest, schema)
        fortran = {"kernel": "fortran", "reason": None}
        bad = {**manifest, "kernels": {**manifest["kernels"], "count_prior_leq": fortran}}
        with pytest.raises(validator.ValidationError, match="fortran"):
            validator.validate(bad, schema)
        old = {k: v for k, v in manifest.items() if k != "kernels"}
        validator.validate(old, schema)  # the block is optional
        assert comparable_manifest(bad) == comparable_manifest(old) == comparable_manifest(manifest)
