"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.lang import ProgramBuilder  # noqa: F401
from repro.machine import CacheGeometry, CacheLevelSpec, LayoutPolicy, MachineSpec

# Shared hypothesis profiles: property tests reference one of these
# instead of scattering ad-hoc @settings literals, and CI can dial the
# effort for the whole suite via HYPOTHESIS_PROFILE.
settings.register_profile("repro-fast", max_examples=15, deadline=None)
settings.register_profile("repro-default", max_examples=25, deadline=None)
settings.register_profile("repro-thorough", max_examples=40, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro-default"))


@pytest.fixture(scope="session", autouse=True)
def kernel_build_cache(tmp_path_factory):
    """Build compiled kernels into a per-session directory rather than the
    user's cache; subprocesses the tests start inherit it."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture
def tiny_machine() -> MachineSpec:
    """A two-level machine small enough that tiny arrays spill: L1 128 B
    (2-way, 32 B lines), L2 1 KiB (2-way, 64 B lines)."""
    return MachineSpec(
        name="Tiny",
        peak_flops=100e6,
        register_bandwidth=400e6,
        cache_levels=(
            CacheLevelSpec("L1", CacheGeometry(128, 32, 2), 400e6, 10e-9),
            CacheLevelSpec("L2", CacheGeometry(1024, 64, 2), 100e6, 100e-9),
        ),
        default_layout=LayoutPolicy(alignment=32, pad_bytes=0),
    )


@pytest.fixture
def one_level_machine() -> MachineSpec:
    """Single direct-mapped cache (Exemplar-like), 640 B (divisible by 5)."""
    return MachineSpec(
        name="TinyDM",
        peak_flops=100e6,
        register_bandwidth=400e6,
        cache_levels=(
            CacheLevelSpec("L1", CacheGeometry(640, 32, 1), 100e6, 100e-9),
        ),
        default_layout=LayoutPolicy(alignment=32, pad_bytes=0),
    )


