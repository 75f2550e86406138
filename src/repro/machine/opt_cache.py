"""Belady-optimal (OPT/MIN) cache replacement — offline simulation.

The paper's §4 discusses Burger et al.'s use of "the optimal Belady
cache-replacement policy" to bound what better cache management could buy,
and dismisses it as impractical ("requires hardware to have beforehand the
perfect knowledge of whole execution"). A *simulator* has exactly that
knowledge: this module replays a finished trace under OPT, so experiments
can report the gap between LRU traffic and the offline optimum — the
headroom hardware could never reach but compilers (which also see the
whole program) can go after.

OPT here is per-set: on a miss with a full set, evict the resident line
whose next use is farthest in the future (never-used-again first; among
equals, the line that entered the set first). For writeback accounting a
dirty victim costs one writeback, as in the LRU simulator, so traffic
numbers are directly comparable.

:func:`simulate_opt` runs in the compiled ``belady_opt`` kernel
(:mod:`repro.machine.engine._kernels`) with next-use links computed in
NumPy; the per-access Python loop (:func:`_simulate_opt_python`) stays as
the fallback when no compiler or build is available and as the oracle the
kernel is tested against. The LRU side runs through the exact engines
(:func:`repro.machine.engine.make_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MachineError
from .cache import CacheGeometry, CacheStats
from .engine import _kernels, make_cache
from .engine.distinct import previous_occurrences


@dataclass(frozen=True)
class OptResult:
    """Counters of one offline-optimal replay."""

    stats: CacheStats
    downstream_bytes: int

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def writebacks(self) -> int:
        return self.stats.writebacks


def simulate_opt(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
    flush: bool = True,
) -> OptResult:
    """Replay an access stream under Belady-optimal replacement.

    Returns counters plus the downstream traffic ((misses + writebacks) ×
    line size), the quantity to compare against an LRU run of the same
    trace and geometry.
    """
    if len(byte_addrs) != len(is_write):
        raise MachineError("address and write arrays must have equal length")
    n = len(byte_addrs)
    if n == 0:
        return OptResult(CacheStats(), 0)
    kernels, _ = _kernels.load()
    if kernels is None:
        return _simulate_opt_python(byte_addrs, is_write, geometry, flush)
    lines = np.asarray(byte_addrs, dtype=np.int64) >> (geometry.line_size.bit_length() - 1)
    # Next-use links: the previous occurrences of the reversed stream,
    # mirrored (a line never used again gets n).
    next_use = (n - 1) - previous_occurrences(lines[::-1])[::-1]
    hits, rmiss, wmiss, evict, wb, dirty = kernels["belady_opt"](
        lines,
        lines % geometry.n_sets,
        next_use,
        np.ascontiguousarray(is_write, dtype=bool).view(np.uint8),
        geometry.n_sets,
        geometry.associativity,
    )
    return _result(geometry, n, hits, rmiss, wmiss, evict, wb + dirty if flush else wb)


def _simulate_opt_python(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
    flush: bool,
) -> OptResult:
    """:func:`simulate_opt` as a per-access Python loop over a non-empty
    stream: the fallback without a compiled kernel, and its oracle."""
    n = len(byte_addrs)
    line_shift = geometry.line_size.bit_length() - 1
    lines = (np.asarray(byte_addrs, dtype=np.int64) >> line_shift).tolist()
    writes = np.asarray(is_write, dtype=bool).tolist()
    n_sets = geometry.n_sets
    assoc = geometry.associativity

    # next_use[k] = index of the next access to the same line after k
    # (n = infinity). Computed in one reverse sweep.
    INF = n
    next_use = [INF] * n
    last_seen: dict[int, int] = {}
    for k in range(n - 1, -1, -1):
        line = lines[k]
        next_use[k] = last_seen.get(line, INF)
        last_seen[line] = k

    # Per-set resident map: line -> [next_use_index, dirty]
    sets: list[dict[int, list]] = [dict() for _ in range(n_sets)]
    hits = rmiss = wmiss = evict = wb = 0

    for k in range(n):
        line = lines[k]
        w = writes[k]
        ways = sets[line % n_sets]
        entry = ways.get(line)
        if entry is not None:
            hits += 1
            entry[0] = next_use[k]
            entry[1] = entry[1] or w
            continue
        if w:
            wmiss += 1
        else:
            rmiss += 1
        if len(ways) >= assoc:
            # Belady: evict the line used farthest in the future.
            victim_line, victim = max(ways.items(), key=lambda kv: kv[1][0])
            del ways[victim_line]
            evict += 1
            if victim[1]:
                wb += 1
        ways[line] = [next_use[k], w]

    if flush:
        for ways in sets:
            for entry in ways.values():
                if entry[1]:
                    wb += 1
    return _result(geometry, n, hits, rmiss, wmiss, evict, wb)


def _result(
    geometry: CacheGeometry, n: int, hits: int, rmiss: int, wmiss: int, evict: int, wb: int
) -> OptResult:
    misses = rmiss + wmiss
    stats = CacheStats(
        accesses=n,
        hits=hits,
        misses=misses,
        read_misses=rmiss,
        write_misses=wmiss,
        evictions=evict,
        writebacks=wb,
        events_out=misses + wb,
    )
    return OptResult(stats, (misses + wb) * geometry.line_size)


def simulate_lru(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
    flush: bool = True,
) -> CacheStats:
    """Counters of an LRU replay of the same kind: one cache of
    ``geometry``, built by :func:`~repro.machine.engine.make_cache`, so the
    process's engine choice applies and every engine gives the same
    counters."""
    cache = make_cache("lru", geometry)
    cache.run(byte_addrs, is_write, collect_events=False)
    if flush:
        cache.flush()
    return cache.stats


def lru_vs_opt(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
    flush: bool = True,
) -> tuple[int, int]:
    """(LRU downstream bytes, OPT downstream bytes) for one trace.

    Used by the replacement-policy experiment.  OPT never misses more than
    LRU on the same trace and geometry (Belady's theorem); a replay that
    breaks that, or ``hits + misses == accesses`` on either side, raises
    :class:`MachineError`.  The bytes carry no such bound: OPT minimises
    misses, not writebacks, so it can move more bytes than LRU (16 B
    lines, 2 ways, 1 set, ``flush=False``: addresses
    ``[16, 32, 32, 0, 32, 16]`` with writes ``[F, T, T, F, T, F]`` give
    LRU 64 B and OPT 80 B).
    """
    lru = simulate_lru(byte_addrs, is_write, geometry, flush=flush)
    opt = simulate_opt(byte_addrs, is_write, geometry, flush=flush)
    for side, stats in (("LRU", lru), ("OPT", opt.stats)):
        if stats.hits + stats.misses != stats.accesses:
            raise MachineError(f"{side} replay broke hits + misses == accesses: {stats}")
    if opt.misses > lru.misses:
        raise MachineError(
            f"OPT missed more than LRU on the same trace ({opt.misses} > {lru.misses})"
        )
    return lru.events_out * geometry.line_size, opt.downstream_bytes
