"""In-memory span tracing installed from outside the program.

A :class:`Tracer` wraps a layer's public function at the name its caller
looks up (``repro.engine.engine.compile_plan``, a backend method on its
class, ...), records one span per call — name, start, end, parent span,
op id — and removes every wrapper again on :meth:`Tracer.uninstall`.
Spans stay in memory until the run ends.  Nothing under ``src/`` changes:
the wrappers are plain attribute patches made by the benchmark.

A generator function (``stream_plan``, ``result_to_lines``) records one
span per step instead, so lazy work is charged to the layer
that does it and not to whoever iterates.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Op id of the request or op the current task works for.
_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)

ArgsFn = Callable[[tuple, dict], Any]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Point:
    """One wrapped name: ``target`` is ``"module"`` or ``"module:Class"``.

    ``count`` maps the call's ``(args, kwargs, result)`` to work counts
    stored on the span; ``op`` maps ``(args, kwargs)`` to an explicit op
    id.  ``proxy`` records no span for the call itself and returns
    ``proxy(tracer, result)`` instead of the result.  ``context_op`` marks
    an ``async def`` whose calls only set the op id of what they await.
    """

    target: str
    attr: str
    name: str = ""
    count: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None
    op: Optional[ArgsFn] = None
    proxy: Optional[Callable[["Tracer", Any], Any]] = None
    context_op: bool = False


def resolve(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may nest or overlap (work fanned out to threads or another
    process); overlapping coverage counts once, and coverage outside the
    parent's interval does not count.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        result.append(span.duration - covered)
    return result


class Tracer:
    """Collects spans from wrappers installed at layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: Op id of spans begun with no parent and no op in their context
        #: (threads a layer starts do not inherit the caller's context).
        self.default_op: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = self.spans[parent].op if parent is not None else _OP.get()
        if op is None:
            op = self.default_op
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` block."""
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def _steps(self, generator, name: str):
        try:
            while True:
                index = self.begin(name)
                try:
                    item = next(generator)
                except StopIteration:
                    # The step that only finds the generator exhausted is
                    # not a call of the layer: keep it out of every op.
                    self.spans[index].op = None
                    return
                finally:
                    self.end(index)
                yield item
        finally:
            generator.close()

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _wrapper(self, point: Point, original: Callable) -> Callable:
        tracer = self
        if point.context_op:

            @functools.wraps(original)
            async def scoped(*args, **kwargs):
                token = _OP.set(point.op(args, kwargs))
                try:
                    return await original(*args, **kwargs)
                finally:
                    _OP.reset(token)

            return scoped

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def steps(*args, **kwargs):
                return tracer._steps(original(*args, **kwargs), point.name)

            return steps

        if point.proxy is not None:

            @functools.wraps(original)
            def proxied(*args, **kwargs):
                return point.proxy(tracer, original(*args, **kwargs))

            return proxied

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(point.name, point.op(args, kwargs) if point.op else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if point.count is not None:
                tracer.spans[index].counts.update(point.count(args, kwargs, result))
            return result

        return wrapper

    def install(self, points: Sequence[Point]) -> None:
        """Wrap every point; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for point in points:
                owner = resolve(point.target)
                # A class attribute is restored from the class's own dict (an
                # inherited one is deleted again), so descriptors survive.
                own = not isinstance(owner, type) or point.attr in owner.__dict__
                original = (
                    owner.__dict__[point.attr]
                    if isinstance(owner, type) and own
                    else getattr(owner, point.attr)
                )
                setattr(owner, point.attr, self._wrapper(point, original))
                self._patches.append((owner, point.attr, original, own))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> int:
        """Number of wrappers currently installed."""
        return len(self._patches)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_records(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]


def graft(spans: Sequence[Span], records: Iterable[Dict[str, Any]]) -> List[Span]:
    """Join spans recorded by another process into ``spans``.

    Both processes read the same monotonic clock.  A foreign root span
    becomes a child of the innermost local span of the same op that
    contains its start, so time another process spent for an op counts as
    covered in the op's local spans.
    """
    merged = list(spans)
    by_op: Dict[Any, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_op[span.op].append(index)
    offset = len(merged)
    for record in records:
        span = Span(**record)
        if span.parent is not None:
            span.parent += offset
        else:
            holders = [
                i for i in by_op.get(span.op, ()) if spans[i].start <= span.start <= spans[i].end
            ]
            if holders:
                span.parent = min(holders, key=lambda i: spans[i].duration)
        merged.append(span)
    return merged

