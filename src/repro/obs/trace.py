"""Hierarchical spans with wall/CPU timing.

A *span* measures one named region of work::

    with span("fault_sim", benchmark="c432"):
        ...

Spans nest: a span opened while another is active on the same thread becomes
its child, so a run produces a timing *tree* (rendered by
:mod:`repro.obs.report`).  The collector is thread-safe — each thread keeps
its own active-span stack, and finished root spans are appended to a shared
list under a lock.

By default no collector is installed and :func:`span` returns a shared no-op
context manager: the disabled path is a single attribute check plus a
dictionary-free return, so instrumented code costs nothing in production
runs.  Enable collection with :func:`repro.obs.enable` (the CLI does it for
``--profile``/``--trace``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "TraceCollector", "NULL_SPAN"]


@dataclass
class Span:
    """One finished (or in-flight) timing region."""

    name: str
    attributes: dict[str, object] = field(default_factory=dict)
    start_wall: float = 0.0
    start_cpu: float = 0.0
    end_wall: float | None = None
    end_cpu: float | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def wall_time(self) -> float:
        """Elapsed wall-clock seconds (0.0 while still open)."""
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    @property
    def cpu_time(self) -> float:
        """Elapsed thread-CPU seconds (0.0 while still open)."""
        if self.end_cpu is None:
            return 0.0
        return self.end_cpu - self.start_cpu

    @property
    def self_wall_time(self) -> float:
        """Wall time not accounted for by child spans."""
        return max(0.0, self.wall_time - sum(c.wall_time for c in self.children))

    def iter_tree(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def to_record(self) -> dict:
        """JSON-able representation (children recursively included).

        ``t0``/``t1`` are the raw ``time.perf_counter()`` endpoints, which
        the dashboard's pipeline waterfall lays out on a timeline.
        """
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "wall_s": round(self.wall_time, 6),
            "cpu_s": round(self.cpu_time, 6),
            "t0": self.start_wall,
            "t1": self.end_wall,
            "children": [c.to_record() for c in self.children],
        }


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attributes: object) -> "_NullSpan":
        return self


#: The singleton returned by ``obs.span(...)`` while collection is disabled.
NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager driving one live span inside a collector."""

    __slots__ = ("_collector", "span")

    def __init__(self, collector: "TraceCollector", span: Span):
        self._collector = collector
        self.span = span

    def set(self, **attributes: object) -> "_ActiveSpan":
        """Attach attributes to the live span; chainable."""
        self.span.attributes.update(attributes)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._collector._push(self.span)
        self.span.start_wall = time.perf_counter()
        self.span.start_cpu = _thread_cpu()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.span.end_wall = time.perf_counter()
        self.span.end_cpu = _thread_cpu()
        self._collector._pop(self.span)
        return False


def _thread_cpu() -> float:
    try:
        return time.thread_time()
    except (AttributeError, OSError):  # pragma: no cover - exotic platforms
        return time.process_time()


class TraceCollector:
    """Thread-safe in-process span collector.

    Per-thread active stacks provide nesting; completed top-level spans land
    in :attr:`roots` (shared, lock-protected).
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle -----------------------------------------------------
    def start(self, name: str, attributes: dict[str, object]) -> _ActiveSpan:
        """Create a span; entering the returned context manager starts it."""
        return _ActiveSpan(self, Span(name=name, attributes=attributes))

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit: drop through to it
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if not stack:
            with self._lock:
                self.roots.append(span)

    # -- queries ------------------------------------------------------------
    def all_spans(self) -> list[Span]:
        """Every finished span, depth-first across all roots."""
        with self._lock:
            roots = list(self.roots)
        out: list[Span] = []
        for root in roots:
            out.extend(root.iter_tree())
        return out

    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name."""
        return [s for s in self.all_spans() if s.name == name]

    def stage_timings(self) -> dict[str, float]:
        """name -> cumulative wall seconds over every span of that name."""
        timings: dict[str, float] = {}
        for s in self.all_spans():
            timings[s.name] = timings.get(s.name, 0.0) + s.wall_time
        return timings
