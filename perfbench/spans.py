"""A span tracer the benchmark installs on the program from outside.

Every layer boundary is a wrapper around a public entry point of a
``repro`` module; ``src/`` itself is never edited.  Spans nest on a
stack kept per thread, so time spent on a daemon's executor thread is
never charged to a client thread that waits for it.  A span's *self
time* is its duration minus the time its child spans cover, so per
thread the self times of all spans add up exactly to the duration of
that thread's root spans.

Counts (accesses simulated, traces generated, ...) are recorded at the
same boundaries, and only at the outermost span of a name, so a layer
that re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

_clock = time.perf_counter


class Tracer:
    """Per-thread span stacks feeding process-wide per-name totals."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Inclusive seconds of root spans (spans entered on an empty
        #: stack), per root name: the clock each thread's self times sum to.
        self.root_s: dict[str, float] = defaultdict(float)
        #: Distinct-identity sets for counts like ``trace.distinct_traces``.
        self.distinct: dict[str, set] = defaultdict(set)

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list[Any]:
        frame = [name, _clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list[Any]) -> None:
        end = _clock()
        stack = self._stack()
        popped = stack.pop()
        assert popped is frame, f"span {frame[0]!r} closed out of order"
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[frame[0]] += duration - frame[2]
            self.calls[frame[0]] += 1
            if not stack:
                self.root_s[frame[0]] += duration

    def outermost(self, name: str) -> bool:
        """True when no enclosing span on this thread has ``name``."""
        return all(f[0] != name for f in self._stack()[:-1])

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def see(self, name: str, identity: Any) -> None:
        with self._lock:
            self.distinct[name].add(identity)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready totals (what a traced worker or daemon reports)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "root_s": dict(self.root_s),
                "distinct": {k: len(v) for k, v in self.distinct.items()},
            }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.frame: list[Any] | None = None

    def __enter__(self) -> "_Span":
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.exit(self.frame)


#: ``count(tracer, args, kwargs, result)`` records work done by one call.
Counter = Callable[[Tracer, tuple, dict, Any], None]


def wrap_call(
    tracer: Tracer,
    fn: Callable,
    name: str | Callable[[tuple], str],
    count: Counter | None = None,
) -> Callable:
    """``fn`` timed as one span per call (``name`` may derive from args)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = name(args) if callable(name) else name
        frame = tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame)
            raise
        outermost = tracer.outermost(span)
        tracer.exit(frame)
        if count is not None and outermost:
            count(tracer, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def wrap_generator(
    tracer: Tracer,
    fn: Callable,
    name: str,
    count: Callable[[Tracer, Any], None] | None = None,
    start: Counter | None = None,
) -> Callable:
    """A generator function timed as one span per ``next()``: the
    consumer's work between items is not charged to the producer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not tracer.active:
            return gen
        if start is not None:
            start(tracer, args, kwargs, None)
        return _traced(tracer, gen, name, count)

    wrapper.__perfbench_original__ = fn
    return wrapper


def _traced(tracer: Tracer, gen: Iterator, name: str, count) -> Iterator:
    try:
        while True:
            frame = tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                tracer.exit(frame)
                return
            except BaseException:
                tracer.exit(frame)
                raise
            outermost = tracer.outermost(name)
            tracer.exit(frame)
            if count is not None and outermost:
                count(tracer, item)
            yield item
    finally:
        gen.close()


class Installation:
    """Wrappers bound into live modules and classes, undoable."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.attr`` and every by-value import of it in any
        loaded ``repro`` module (``from .x import f`` binds the original
        function object into the importer's namespace)."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def mapping(self, table: dict, key: str, value: Any) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = value

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
