"""Compiled Fenwick-tree kernel for ``count_prior_leq`` on previous-occurrence links.

The C source below is the whole kernel: one pass over the values with a
Fenwick (binary indexed) tree of per-value counts, O(n log n).  It is
built lazily, on the first call that needs it, with the local C compiler
(``gcc -O2 -shared -fPIC``) and loaded through :mod:`ctypes`, which
releases the GIL for the duration of the call.  Nothing is compiled or
loaded at import.

Builds are cached under ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/``,
keyed by the SHA-256 of the source, the compiler's ``--version`` output
and the platform.  A build writes a unique temporary file next to its
target and renames it into place, so concurrent processes never load a
half-written library; a lock makes threads of one process build once.
When the cache directory is unwritable the kernel is built in a private
temporary directory instead.  When there is no compiler, or the build or
load fails, :func:`load` reports why (one ``logging`` WARNING per
process) and callers keep the NumPy path.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable

import numpy as np

#: Compiler command and flags of the lazy build.
CC = "gcc"
CFLAGS = ("-O2", "-shared", "-fPIC")

SOURCE = r"""
#include <stdint.h>

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
"""

Kernel = Callable[[np.ndarray], np.ndarray]

_lock = threading.Lock()
#: ``(kernel or None, reason or None)`` once :func:`load` has run.
_state: tuple[Kernel | None, str | None] | None = None


def load() -> tuple[Kernel | None, str | None]:
    """The compiled kernel (building it on first use) and a note on how it
    was obtained; ``(None, reason)`` when only the NumPy path is left."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _load()
    return _state


def _load() -> tuple[Kernel | None, str | None]:
    # Imported here, not at module import: only a process that needs the
    # kernel pays for them.
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
                kernel = _open(_build(os.path.join(private, "kernel.tmp"), Path(private) / path.name))
            _warn(reason)
            return kernel, reason
        return _open(_build(tmp, path)), None
    except subprocess.CalledProcessError as exc:
        return _fallback(f"{CC} failed to build the kernel: {exc.stderr.strip() or exc}")
    except (OSError, subprocess.SubprocessError) as exc:
        return _fallback(f"could not build or load the kernel: {exc}")


def _fallback(reason: str) -> tuple[None, str]:
    _warn(f"{reason}; using the NumPy merge count")
    return None, reason


def _warn(message: str) -> None:
    import logging  # only a process whose kernel build degraded pays for it

    logging.getLogger(__name__).warning("count_prior_leq: %s", message)


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


def _open(path: Path) -> Kernel:
    import ctypes

    from numpy.ctypeslib import ndpointer

    fn = ctypes.CDLL(str(path)).count_prior_leq
    fn.restype = None
    fn.argtypes = [
        ndpointer(np.int64, flags="C_CONTIGUOUS"),
        ctypes.c_int64,
        ndpointer(np.int32, flags="C_CONTIGUOUS"),
        ndpointer(np.int64, flags="C_CONTIGUOUS"),
    ]

    def kernel(v: np.ndarray) -> np.ndarray:
        out = np.empty(v.size, dtype=np.int64)
        fn(v, v.size, np.zeros(v.size + 2, dtype=np.int32), out)
        return out

    return kernel
