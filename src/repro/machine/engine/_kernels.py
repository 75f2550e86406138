"""The compiled kernels: one C source, one lazy build, one loader.

Two kernels live in :data:`SOURCE`:

* ``count_prior_leq`` — one pass over previous-occurrence links with a
  Fenwick (binary indexed) tree of per-value counts, O(n log n); the
  exact reuse-distance count under the stack and set-associative engines
  (:mod:`repro.machine.engine.distinct`).
* ``belady_opt`` — Belady-optimal (OPT/MIN) replacement as a per-set scan
  over a fixed array of A ways in insertion order
  (:func:`repro.machine.opt_cache.simulate_opt`).

The source is built lazily, on the first call that needs either kernel,
with the local C compiler (``gcc -O2 -shared -fPIC``) and loaded through
:mod:`ctypes`, which releases the GIL for the duration of each call.
Nothing is compiled or loaded at import.

Builds are cached under ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/``,
keyed by the SHA-256 of the source, the compiler's ``--version`` output
and the platform.  A build writes a unique temporary file next to its
target and renames it into place, so concurrent processes never load a
half-written library; a lock makes threads of one process build once.
When the cache directory is unwritable the source is built in a private
temporary directory instead.  When there is no compiler, or the build or
load fails, :func:`load` reports why (one ``logging`` WARNING per
process) and callers keep their pure NumPy or Python paths
(:data:`FALLBACKS`).
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Compiler command and flags of the lazy build.
CC = "gcc"
CFLAGS = ("-O2", "-shared", "-fPIC")

SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* out[i] = #{ j < i : v[j] <= v[i] } for values in [-1, n).  tree holds
   n + 2 zeroed counters; value x lives at Fenwick index x + 2. */
void count_prior_leq(const int64_t *v, int64_t n, int32_t *tree, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t k = v[i] + 2, s = 0;
        for (int64_t j = k; j > 0; j -= j & -j)
            s += tree[j];
        out[i] = s;
        for (int64_t j = k; j <= n + 1; j += j & -j)
            tree[j]++;
    }
}

/* Belady OPT over n accesses: line[i] and set[i] locate access i, next[i]
   is the index of the line's next access (n when none), write[i] marks a
   store.  ways holds assoc zeroed (line, next use, dirty) triples per set,
   resident ways first in insertion order, and fill the zeroed per-set
   counts.  A miss on a full set evicts the first way whose next use is the
   largest and shifts the later ways down, so insertion order is kept.
   out receives hits, read misses, write misses, evictions and writebacks;
   ways and fill are left holding the final contents. */
void belady_opt(const int64_t *line, const int64_t *set, const int64_t *next,
                const uint8_t *write, int64_t n, int64_t assoc,
                int64_t *ways, int64_t *fill, int64_t *out)
{
    int64_t hits = 0, rmiss = 0, wmiss = 0, evict = 0, wb = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t *w = ways + 3 * assoc * set[i], f = fill[set[i]], j = 0;
        while (j < f && w[3 * j] != line[i])
            j++;
        if (j < f) {
            hits++;
            w[3 * j + 1] = next[i];
            w[3 * j + 2] |= write[i];
            continue;
        }
        if (write[i])
            wmiss++;
        else
            rmiss++;
        if (f == assoc) {
            int64_t v = 0;
            for (j = 1; j < f; j++)
                if (w[3 * j + 1] > w[3 * v + 1])
                    v = j;
            evict++;
            wb += w[3 * v + 2];
            f--;
            memmove(w + 3 * v, w + 3 * v + 3, 3 * (f - v) * sizeof *w);
        }
        w[3 * f] = line[i];
        w[3 * f + 1] = next[i];
        w[3 * f + 2] = write[i];
        fill[set[i]] = f + 1;
    }
    out[0] = hits;
    out[1] = rmiss;
    out[2] = wmiss;
    out[3] = evict;
    out[4] = wb;
}
"""

#: Each kernel's name and what its caller runs instead when the library
#: cannot be built or loaded.
FALLBACKS = {"count_prior_leq": "numpy", "belady_opt": "python"}

Kernels = dict[str, Callable[..., Any]]

_lock = threading.Lock()
#: ``(kernels or None, reason or None)`` once :func:`load` has run.
_state: tuple[Kernels | None, str | None] | None = None


def load() -> tuple[Kernels | None, str | None]:
    """The compiled kernels by name (building them on first use) and a note
    on how they were obtained; ``(None, reason)`` when only the fallbacks
    are left."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _load()
    return _state


def kernels_info() -> dict[str, dict[str, Any]]:
    """Which implementation each kernel runs as:
    ``{name: {"kernel": "c" | its fallback, "reason": str | None}}``.
    Builds or loads the kernels if no call has yet."""
    kernels, reason = load()
    return {
        name: {"kernel": fallback if kernels is None else "c", "reason": reason}
        for name, fallback in FALLBACKS.items()
    }


def _load() -> tuple[Kernels | None, str | None]:
    # Imported here, not at module import: only a process that needs the
    # kernels pays for them.
    import platform
    import subprocess

    try:
        version = subprocess.run(
            [CC, "--version"], capture_output=True, text=True, check=True, timeout=60
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return _fallback(f"no C compiler ({CC} --version: {exc})")
    key = hashlib.sha256(
        "\0".join((SOURCE, version, sys.platform, platform.machine())).encode()
    ).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    path = cache / "repro" / "kernels" / f"{key}.so"
    try:
        if path.exists():
            return _open(path), None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
            os.close(fd)
        except OSError as exc:
            reason = f"kernel cache {path.parent} unwritable ({exc}); built in a temporary directory"
            # The loaded library outlives its file, so the directory can go.
            with tempfile.TemporaryDirectory(prefix="repro-kernel-") as private:
                kernels = _open(_build(os.path.join(private, "kernel.tmp"), Path(private) / path.name))
            _warn(reason)
            return kernels, reason
        return _open(_build(tmp, path)), None
    except subprocess.CalledProcessError as exc:
        return _fallback(f"{CC} failed to build the kernels: {exc.stderr.strip() or exc}")
    except (OSError, subprocess.SubprocessError) as exc:
        return _fallback(f"could not build or load the kernels: {exc}")


def _fallback(reason: str) -> tuple[None, str]:
    _warn(f"{reason}; count_prior_leq uses the NumPy merge count, belady_opt the Python loop")
    return None, reason


def _warn(message: str) -> None:
    import logging  # only a process whose kernel build degraded pays for it

    logging.getLogger(__name__).warning("compiled kernels: %s", message)


def _build(tmp: str, path: Path) -> Path:
    """Compile :data:`SOURCE` into ``tmp``, then rename it to ``path``
    (atomic: a concurrent reader sees no file or a whole one)."""
    import subprocess

    try:
        subprocess.run(
            [CC, *CFLAGS, "-x", "c", "-", "-o", tmp],
            input=SOURCE, capture_output=True, text=True, check=True, timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _open(path: Path) -> Kernels:
    import ctypes

    from numpy.ctypeslib import ndpointer

    def c_array(dtype):
        return ndpointer(dtype, flags="C_CONTIGUOUS")

    lib = ctypes.CDLL(str(path))
    prior = lib.count_prior_leq
    prior.restype = None
    prior.argtypes = [c_array(np.int64), ctypes.c_int64, c_array(np.int32), c_array(np.int64)]
    opt = lib.belady_opt
    opt.restype = None
    opt.argtypes = [
        c_array(np.int64), c_array(np.int64), c_array(np.int64), c_array(np.uint8),
        ctypes.c_int64, ctypes.c_int64, c_array(np.int64), c_array(np.int64), c_array(np.int64),
    ]

    def count_prior_leq(v: np.ndarray) -> np.ndarray:
        out = np.empty(v.size, dtype=np.int64)
        prior(v, v.size, np.zeros(v.size + 2, dtype=np.int32), out)
        return out

    def belady_opt(
        lines: np.ndarray, sets: np.ndarray, next_use: np.ndarray, writes: np.ndarray,
        n_sets: int, assoc: int,
    ) -> tuple[int, ...]:
        """(hits, read misses, write misses, evictions, writebacks, dirty
        lines left resident); ``sets`` must lie in ``[0, n_sets)``."""
        ways = np.zeros((n_sets, assoc, 3), dtype=np.int64)
        fill = np.zeros(n_sets, dtype=np.int64)
        out = np.zeros(5, dtype=np.int64)
        opt(lines, sets, next_use, writes, lines.size, assoc, ways, fill, out)
        resident = np.arange(assoc) < fill[:, None]
        return (*out.tolist(), int(ways[..., 2][resident].sum()))

    return {"count_prior_leq": count_prior_leq, "belady_opt": belady_opt}
