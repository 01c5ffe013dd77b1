"""Span-based tracer for the serving stack.

The paper's performance analysis (Sec. 4.3--4.5) argues from *per-stage*
numbers: the stage breakdown of Fig. 4, the compute-to-memory model of
Eqn. 11, and the static GCD schedule all assume you can see where cycles
go stage by stage and worker by worker.  This module provides the
measurement substrate: a lightweight tracer recording nested spans
(name, wall-clock interval, free-form attributes, parent linkage) with
thread-local nesting, bounded memory, and JSON export.

Design constraints:

* **cheap when off** -- ``Tracer(enabled=False)`` makes :meth:`span` a
  no-op context returning a shared dummy span, so instrumented hot paths
  pay one attribute check;
* **thread-safe** -- spans may be opened concurrently from the engine's
  caller threads; the record buffer is lock-protected and the nesting
  stack is thread-local, so parentage is per-thread;
* **bounded** -- at most ``max_spans`` finished spans are retained
  (oldest dropped first, with a drop counter), so a long-lived serving
  engine cannot leak memory into its own telemetry.

Timing uses ``time.perf_counter`` exclusively: monotonic, so span
intervals nest and order correctly even if the wall clock steps.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque


class Span:
    """One traced interval.  ``end`` is ``None`` while the span is open."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 start: float, attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms)"


class _NullSpan:
    """Shared sink for disabled tracers: a ``with`` block that yields
    itself and absorbs attribute writes."""

    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs: dict = {}

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _SpanContext:
    """The ``with`` block of one :meth:`Tracer.span`: opens the span on
    entry, closes and records it on exit.  A class rather than a
    generator-based context manager, because the request path opens
    several spans per convolution."""

    __slots__ = ("_tracer", "_name", "_attrs", "_stack", "_span")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = self._stack = tracer._stack()
        parent = stack[-1].span_id if stack else None
        sp = self._span = Span(
            self._name, next(tracer._ids), parent, time.perf_counter(), self._attrs
        )
        stack.append(sp)
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        sp = self._span
        if exc_type is not None:
            sp.attrs.setdefault("error", exc_type.__name__)
        sp.end = time.perf_counter()
        self._stack.pop()
        self._tracer._record(sp)
        return False


class Tracer:
    """Collects :class:`Span` records; safe for concurrent use.

    Parameters
    ----------
    enabled:
        When ``False`` every :meth:`span`/:meth:`event` is a no-op.
    max_spans:
        Retention bound on *finished* spans; exceeding it drops the
        oldest record and increments :attr:`dropped`.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 8192):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._records: deque[Span] = deque()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._null = _NullSpan()

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _SpanContext | _NullSpan:
        """Record a nested span around the ``with`` body.

        Yields the :class:`Span` so callers can attach attributes that
        are only known mid-flight (e.g. per-worker timings); the dummy
        span of a disabled tracer accepts the same writes.  A span whose
        body raises records the exception's type name as ``error``.
        """
        if not self.enabled:
            return self._null
        return _SpanContext(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a zero-duration marker (e.g. a fallback decision)."""
        if not self.enabled:
            return
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        now = time.perf_counter()
        sp = Span(name, next(self._ids), parent, now, dict(attrs, kind="event"))
        sp.end = now
        self._record(sp)

    def _record(self, sp: Span) -> None:
        with self._lock:
            self._records.append(sp)
            while len(self._records) > self.max_spans:
                self._records.popleft()
                self.dropped += 1

    # ------------------------------------------------------------------
    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans in completion order (optionally filtered)."""
        with self._lock:
            records = list(self._records)
        if name is not None:
            records = [s for s in records if s.name == name]
        return records

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0

    def as_dicts(self) -> list[dict]:
        return [s.as_dict() for s in self.spans()]

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the retained spans (schema version 1)."""
        return json.dumps(
            {"version": 1, "dropped": self.dropped, "spans": self.as_dicts()},
            indent=indent,
        )


#: Process-wide no-op tracer: instrumented code paths default to this so
#: a ``tracer=None`` parameter never needs an inline None-check.
NULL_TRACER = Tracer(enabled=False)
