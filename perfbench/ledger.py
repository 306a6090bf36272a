"""In-memory spans around the program's public entry points, and the ledger.

Tracing here lives entirely in the benchmark: :class:`Patch` replaces a
list of module or class attributes — the names callers actually look up,
such as ``repro.dynamic.engine.check_mis`` — with timing wrappers, and
puts the originals back on exit.  Nothing under ``src/`` is touched.

Each wrapper appends one :class:`Span` to its :class:`Recorder`.  A
synchronous wrapper also knows its own *self time*: a per-thread stack
accumulates the duration of nested wrapped calls, so ``self_ns`` is the
span's duration minus the time its wrapped callees took.  Summed over
every span inside an operation, self times add up to the wrapped part of
that operation; what is left is ``trace.unattributed_frac``.

Coroutine wrappers (``SolveServer.handle_doc``) record only their
interval: asyncio interleaves requests on one thread, so a call stack
cannot model them, and the ledger attributes their children by request
id instead.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "Recorder",
    "Span",
    "Patch",
    "Target",
    "dispatch_targets",
    "layer_self_ns",
    "spans_within",
    "median",
    "percentile",
    "tail_percentile",
]


@dataclass
class Span:
    """One wrapped call: name, interval on the monotonic clock, self time."""

    name: str
    t0: int
    t1: int
    self_ns: int
    thread: int
    attrs: dict[str, Any] | None = None

    @property
    def dur_ns(self) -> int:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``attrs`` maps ``(args, kwargs, result)`` to a dict stored on the
    span (request ids, content hashes, dispatch decisions).  It runs
    outside the timed interval.
    """

    owner: Any
    attr: str
    span: str
    attrs: Callable[[tuple, dict, Any], dict[str, Any]] | None = None


class Recorder:
    """Collects spans in memory; safe to call from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A timing wrapper around *fn* recording spans named ``target.span``."""
        name, attrs_fn = target.span, target.attrs
        spans = self.spans
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                t0 = time.perf_counter_ns()
                result = await fn(*args, **kwargs)
                t1 = time.perf_counter_ns()
                attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
                spans.append(Span(name, t0, t1, t1 - t0, threading.get_ident(), attrs))
                return result

            return async_wrapper

        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                children = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else None
            spans.append(
                Span(name, t0, t1, t1 - t0 - children, threading.get_ident(), attrs)
            )
            return result

        return wrapper

    def drain(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


class Patch:
    """Install timing wrappers on *targets*; restore the originals on exit.

    The original is read from the owner's own ``__dict__`` so a class
    attribute is restored as the very function object it was (not a bound
    method), and a target whose owner lacks the attribute fails loudly
    before anything is replaced.
    """

    def __init__(self, recorder: Recorder, targets: Sequence[Target]):
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patch":
        for t in self.targets:
            if t.attr not in vars(t.owner):
                raise AttributeError(f"{t.owner!r} has no attribute {t.attr!r} to wrap")
        try:
            for t in self.targets:
                original = vars(t.owner)[t.attr]
                setattr(t.owner, t.attr, self.recorder.wrap(original, t))
                self._saved.append((t.owner, t.attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()


def spans_within(ops: Sequence[tuple[int, int]], spans: Sequence[Span]) -> list[list[Span]]:
    """For each ``(t0, t1)`` operation, the spans lying inside it, by start time.

    Pass spans of the operation's own thread: containment in time is then
    containment in the call tree.
    """
    ordered = sorted(spans, key=lambda s: s.t0)
    starts = [s.t0 for s in ordered]
    out = []
    for t0, t1 in ops:
        i = bisect_left(starts, t0)
        inside = []
        while i < len(ordered) and ordered[i].t0 < t1:
            if ordered[i].t1 <= t1:
                inside.append(ordered[i])
            i += 1
        out.append(inside)
    return out


def layer_self_ns(groups: Sequence[Sequence[Span]]) -> dict[str, int]:
    """Self time summed per span name over every group."""
    totals: dict[str, int] = {}
    for group in groups:
        for s in group:
            totals[s.name] = totals.get(s.name, 0) + s.self_ns
    return totals


def dispatch_targets() -> list[Target]:
    """``select_backend`` where the solvers look it up; spans say whether it chose dense."""
    import importlib

    return [
        Target(
            importlib.import_module(module),
            "select_backend",
            "kernels.dispatch",
            lambda args, kwargs, result: {"dense": result.dense},
        )
        for module in ("repro.core.bl", "repro.core.kuw", "repro.core.greedy")
    ]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 1]; 0.0 for no samples."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


#: Fewest operations in one chunk of :func:`tail_percentile` (p99 is then
#: the fifth-slowest of the chunk).
TAIL_CHUNK = 500


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(q, value)``: p99, or the highest percentile with >= 10 samples beyond it.

    The samples are cut into consecutive chunks of at least
    ``TAIL_CHUNK``, in the order the operations ran, and the value is the median of the
    chunks' p99s: a host stall during part of the run then moves a few
    chunks, not the figure.
    """
    n = len(values)
    if not n:
        return 0.0, 0.0
    q = min(0.99, max(0.5, 1.0 - 10.0 / n))
    chunks = max(1, n // TAIL_CHUNK)
    size = n // chunks
    tails = [percentile(values[k * size : (k + 1) * size], q) for k in range(chunks)]
    return q, median(tails)
