"""``repro serve`` with the benchmark's spans optionally installed.

Runs the daemon exactly as ``repro serve`` does (same CLI, default
flags), so the ``listening on`` banner and the drain behave the same.
On exit it writes its peak RSS and — with ``--trace`` —
its span totals and per-point queue waits to ``--out``.  The executor's
job functions are the root spans of the daemon's worker thread.

    python3 perfbench/daemon.py --out F [--trace] -- --unix SOCK
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from repro import cli  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from common import peak_rss_mb  # noqa: E402


def watch_queue(waits_ms: list[float]) -> None:
    """Record each point's wait from admission to the start of its batch."""
    from repro.service.server import Server

    admitted: dict[int, float] = {}
    init, execute_batch = Server.__init__, Server._execute_batch

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        put = self._queue.put_nowait

        def stamped(item):
            if item is not None:
                admitted[id(item)] = time.perf_counter()
            put(item)

        self._queue.put_nowait = stamped

    async def _execute_batch(self, batch):
        now = time.perf_counter()
        for point in batch:
            since = admitted.pop(id(point), None)
            if since is not None:
                waits_ms.append((now - since) * 1e3)
        return await execute_batch(self, batch)

    Server.__init__ = __init__
    Server._execute_batch = _execute_batch


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    tracer = Tracer()
    waits_ms: list[float] = []
    if args.trace:
        layers.install(tracer, daemon=True)
        watch_queue(waits_ms)
        tracer.active = True
    status = cli.main(["serve", *serve_args])
    tracer.active = False
    Path(args.out).write_text(json.dumps({
        "status": status,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.snapshot() if args.trace else None,
        "queue_wait_ms": waits_ms,
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
