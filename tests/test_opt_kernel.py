"""The compiled Belady kernel of ``simulate_opt`` against its Python oracle.

``simulate_opt`` replays a trace in the compiled ``belady_opt`` kernel
when the kernel library builds, and in the per-access Python loop
``_simulate_opt_python`` otherwise; that loop is the oracle checked here:
on random streams and geometries, on the insertion-order tie-break that
decides writebacks under ``flush=False``, on the real E13 traces, and
under a missing compiler or a failing build.  The LRU side of E13 and
E18 runs through the exact engines, so their tables must not depend on
the engine choice.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.machine import opt_cache
from repro.machine.cache import Cache, CacheGeometry, CacheStats
from repro.machine.engine import _kernels, get_default_engine, kernels_info, set_default_engine
from repro.machine.opt_cache import OptResult, _simulate_opt_python, lru_vs_opt, simulate_opt

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def compiled():
    """The compiled kernels, or a skip that says why there are none."""
    kernels, reason = _kernels.load()
    if kernels is None:
        pytest.skip(f"no compiled belady_opt kernel: {reason}")
    return kernels


def arrays(addrs, writes=None):
    a = np.asarray(addrs, dtype=np.int64)
    w = np.asarray(writes if writes is not None else [False] * len(a), dtype=bool)
    return a, w


def assert_matches_oracle(addrs, writes, geometry, flush):
    a, w = arrays(addrs, writes)
    expected = _simulate_opt_python(a, w, geometry, flush) if len(a) else OptResult(CacheStats(), 0)
    assert simulate_opt(a, w, geometry, flush=flush) == expected
    return expected


@st.composite
def geometries(draw):
    """Direct-mapped, set-associative (any set count, powers of two or
    not, such as the Exemplar's) and fully-associative geometries."""
    line = draw(st.sampled_from([8, 16, 32]))
    n_sets = draw(st.integers(1, 7))
    assoc = draw(st.integers(1, 6))
    return CacheGeometry(line * n_sets * assoc, line, assoc)


@st.composite
def streams(draw, max_lines=40, max_n=300, writes=st.booleans()):
    geometry = draw(geometries())
    n = draw(st.integers(0, max_n))
    lines = draw(st.lists(st.integers(0, max_lines), min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(0, geometry.line_size - 1), min_size=n, max_size=n))
    addrs = [line * geometry.line_size + off for line, off in zip(lines, offsets)]
    return addrs, draw(st.lists(writes, min_size=n, max_size=n)), geometry


class TestDifferential:
    @given(streams(), st.booleans())
    def test_random_streams(self, stream, flush):
        compiled()
        assert_matches_oracle(*stream, flush)

    @given(streams(writes=st.just(True)), st.booleans())
    def test_all_write_streams(self, stream, flush):
        compiled()
        assert_matches_oracle(*stream, flush)

    @given(streams(max_lines=400), st.booleans())
    def test_mostly_never_reused(self, stream, flush):
        """Many lines are never used again, so most evictions choose among
        equal (infinite) next uses and the tie-break sets the writebacks."""
        compiled()
        assert_matches_oracle(*stream, flush)

    @given(st.lists(st.integers(0, 63), max_size=200), st.integers(1, 8))
    @example([0, 1, 2, 3, 4, 0], 1)
    def test_fully_associative(self, lines, ways):
        compiled()
        geometry = CacheGeometry(16 * ways, 16, ways)
        assert geometry.n_sets == 1
        for flush in (False, True):
            assert_matches_oracle([x * 16 for x in lines], [x % 3 == 0 for x in lines],
                                  geometry, flush)

    @pytest.mark.parametrize("flush", [False, True])
    def test_dirty_never_reused_ties_follow_insertion_order(self, flush):
        compiled()
        geometry = CacheGeometry(32, 16, 2)  # one set, two ways
        # Lines 0 and 1 are never used again when line 2 misses: the victim
        # is the one that entered first.  Dirty first: one writeback.
        dirty_first = assert_matches_oracle([0, 16, 32], [True, False, False], geometry, flush)
        clean_first = assert_matches_oracle([0, 16, 32], [False, True, False], geometry, flush)
        assert dirty_first.stats.evictions == clean_first.stats.evictions == 1
        assert dirty_first.writebacks == 1
        assert clean_first.writebacks == (1 if flush else 0)

    def test_write_flags_are_truth_values(self):
        compiled()
        a, w = np.array([0, 16, 32, 0]), np.array([2, 0, 3, 255])
        geometry = CacheGeometry(32, 16, 1)
        for flush in (False, True):
            assert simulate_opt(a, w, geometry, flush) == _simulate_opt_python(a, w, geometry, flush)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("write", [False, True])
    def test_tiny_streams(self, n, write):
        compiled()
        for flush in (False, True):
            result = assert_matches_oracle([48] * n, [write] * n, CacheGeometry(64, 16, 2), flush)
            assert result.misses == n
            assert result.writebacks == (n if write and flush else 0)


def test_identical_on_the_e13_traces():
    """Every E13 workload trace at the battery's scale, flushed as E13 runs it."""
    compiled()
    from repro.experiments.config import ExperimentConfig
    from repro.machine.layout import build_layout
    from repro.programs import convolution, dmxpy, fig7_original, matmul
    from repro.trace.generator import generate_trace
    from repro.transforms.pipeline import optimize

    config = ExperimentConfig()
    machine = config.origin
    geometry = machine.cache_levels[-1].geometry
    n = config.stream_elements()
    programs = [fig7_original(n), convolution(n), dmxpy(n, 8),
                matmul(config.mm_side(), order="jki")]
    programs.append(optimize(programs[0]).final)
    checked = 0
    for program in programs:
        trace = generate_trace(program, layout=build_layout(program, None, machine.default_layout))
        a, w = trace.addresses, trace.is_write
        assert simulate_opt(a, w, geometry) == _simulate_opt_python(a, w, geometry, True), program.name
        checked += len(trace)
    assert checked > 500_000


class TestLruVsOpt:
    def test_opt_bytes_can_exceed_lru_bytes(self):
        """Belady minimises misses, not writebacks: a regression pin for
        the bytes bound ``lru_vs_opt`` does not promise."""
        geometry = CacheGeometry(32, 16, 2)  # one set, two ways
        a, w = arrays([16, 32, 32, 0, 32, 16], [False, True, True, False, True, False])
        assert lru_vs_opt(a, w, geometry, flush=False) == (64, 80)
        opt = simulate_opt(a, w, geometry, flush=False)
        lru = Cache("lru", geometry)
        lru.run(a, w)
        assert opt.misses == lru.stats.misses == 4
        assert opt.writebacks == 1 > lru.stats.writebacks == 0

    def test_opt_missing_more_than_lru_raises(self, monkeypatch):
        geometry = CacheGeometry(64, 16, 2)
        a, w = arrays([0, 16, 0, 16])
        worse = CacheStats(accesses=4, hits=0, misses=4, read_misses=4, events_out=4)
        monkeypatch.setattr(opt_cache, "simulate_opt", lambda *args, **kw: OptResult(worse, 64))
        with pytest.raises(MachineError, match="OPT missed more than LRU"):
            lru_vs_opt(a, w, geometry)

    def test_broken_conservation_raises(self, monkeypatch):
        geometry = CacheGeometry(64, 16, 2)
        a, w = arrays([0, 16, 0, 16])
        lost = CacheStats(accesses=4, hits=1, misses=2, read_misses=2, events_out=2)
        monkeypatch.setattr(opt_cache, "simulate_opt", lambda *args, **kw: OptResult(lost, 32))
        with pytest.raises(MachineError, match="hits \\+ misses == accesses"):
            lru_vs_opt(a, w, geometry)


@pytest.fixture
def kernels():
    return compiled()


@pytest.fixture
def fresh_kernels(monkeypatch, tmp_path):
    """Forget the process's loaded kernels and point the build cache at an
    empty directory; both are restored afterwards.  Tests that also need
    a compiler request ``kernels`` first, so it is checked before the reset."""
    monkeypatch.setattr(_kernels, "_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro" / "kernels"


class TestFallback:
    STREAM = arrays([x * 16 for x in (0, 5, 1, 0, 7, 5, 2, 9, 1, 0)],
                    [x % 2 == 0 for x in range(10)])
    GEOMETRY = CacheGeometry(64, 16, 2)

    def _check_fallback(self, caplog, expect_in_reason):
        with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
            result = simulate_opt(*self.STREAM, self.GEOMETRY, flush=False)
            info = kernels_info()
            simulate_opt(*self.STREAM, self.GEOMETRY)
        assert result == _simulate_opt_python(*self.STREAM, self.GEOMETRY, False)
        assert info["belady_opt"]["kernel"] == "python"
        assert info["count_prior_leq"]["kernel"] == "numpy"
        assert expect_in_reason in info["belady_opt"]["reason"]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert info["belady_opt"]["reason"] in warnings[0].getMessage()
        return info

    def test_missing_compiler(self, fresh_kernels, monkeypatch, caplog):
        monkeypatch.setattr(_kernels, "CC", "repro-no-such-compiler")
        self._check_fallback(caplog, "repro-no-such-compiler")
        assert not fresh_kernels.exists()

    def test_failing_build(self, kernels, fresh_kernels, monkeypatch, caplog):
        monkeypatch.setattr(_kernels, "SOURCE", "this is not C;\n")
        self._check_fallback(caplog, "failed to build")
        assert list(fresh_kernels.iterdir()) == []


@pytest.mark.parametrize("name", ["e13", "e18"])
def test_tables_equal_under_reference_and_auto(name):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.registry import EXPERIMENTS

    config = ExperimentConfig(scale=256, sim_cache=False)
    previous = get_default_engine()
    tables = {}
    try:
        for engine in ("reference", "auto"):
            set_default_engine(engine)
            tables[engine] = EXPERIMENTS[name](config).table().render()
    finally:
        set_default_engine(previous)
    assert tables["reference"] == tables["auto"]


class TestManifest:
    def _write(self, tmp_path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.orchestrator import build_manifest, write_manifest
        from repro.experiments.result import failed_result

        manifest = build_manifest([failed_result("e13", ExperimentConfig(), "boom")], run_id="opt")
        return write_manifest(manifest, tmp_path)

    def _validate(self, path):
        sys.path.insert(0, str(TOOLS))
        try:
            import validate_manifest
        finally:
            sys.path.remove(str(TOOLS))
        return validate_manifest.main([str(path)])

    def test_written_manifest_records_both_kernels(self, tmp_path):
        path = self._write(tmp_path)
        kernels = json.loads(path.read_text())["kernels"]
        assert kernels == kernels_info()
        assert set(kernels) == {"count_prior_leq", "belady_opt"}
        assert self._validate(path) == 0

    def test_written_fallback_manifest_validates(self, tmp_path, fresh_kernels, monkeypatch):
        monkeypatch.setattr(_kernels, "CC", "repro-no-such-compiler")
        path = self._write(tmp_path)
        kernels = json.loads(path.read_text())["kernels"]
        assert kernels["belady_opt"]["kernel"] == "python"
        assert kernels["count_prior_leq"]["kernel"] == "numpy"
        assert self._validate(path) == 0
