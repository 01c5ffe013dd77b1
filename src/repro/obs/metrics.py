"""Counters, histograms and gauges for the serving stack.

A deliberately small metrics registry -- enough to answer the questions
the ROADMAP's serving story raises (plan-cache hit rates, arena reuse,
backend mix, fallbacks, request latency percentiles) without depending
on a metrics client library.

Semantics:

* :class:`Counter` -- monotonically increasing integer; ``inc`` is
  atomic under a lock, so concurrent increments from engine caller
  threads are exact (asserted by ``tests/test_obs.py``).
* :class:`Histogram` -- observation log with exact count/total/min/max
  and percentile queries over a bounded sample window (oldest samples
  beyond ``max_samples`` are discarded; the scalar aggregates remain
  exact over *all* observations).
* :class:`Gauge` -- a point-in-time reading: either ``set`` explicitly
  or backed by a zero-argument callable sampled at read time (used for
  the serving batcher's queue depth, which the batcher owns).

The registry itself is get-or-create by name so independent subsystems
(plan cache, arena, engine, executors) can share one instance without
coordinating construction order.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable


class Counter:
    """Monotonic counter; thread-safe."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: increment must be >= 0")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """Observation log with exact aggregates and windowed percentiles."""

    def __init__(self, name: str, max_samples: int = 4096):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._window: deque[float] = deque(maxlen=max_samples)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._window.append(value)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained window (0 if empty)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._window:
                return 0.0
            ordered = sorted(self._window)
        rank = min(len(ordered) - 1, max(0, round(p / 100 * len(ordered)) - 1))
        if p == 0:
            rank = 0
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class Gauge:
    """Point-in-time reading, set explicitly or sampled from a callable."""

    def __init__(self, name: str, fn: Callable[[], float] | None = None):
        self.name = name
        self._fn = fn
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Atomic relative update (queue depths, in-flight byte counts).

        Level-tracking gauges are written from many tasks at once;
        read-modify-write through :meth:`set` would race, so the delta
        is applied under the gauge's own lock.  Detaches a callable
        backing, like :meth:`set`.
        """
        with self._lock:
            if self._fn is not None:
                self._value = float(self._fn())
                self._fn = None
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())


def labeled(name: str, **labels: str) -> str:
    """Canonical name for a labeled instrument.

    The registry is flat, so labels are folded into the name with a
    stable (sorted-key) rendering: ``labeled("algo_selected_total",
    algo="fft")`` -> ``'algo_selected_total{algo="fft"}'``.  Tests and
    dashboards reconstruct the same string to read the instrument back.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named metric instruments, get-or-create, shared across subsystems."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, max_samples)
            return h

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, fn)
                return g
        if fn is not None:
            with g._lock:
                g._fn = fn
        return g

    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> int:
        """Read a counter without creating it (0 when absent)."""
        with self._lock:
            c = self._counters.get(name)
        return c.value if c is not None else 0

    def snapshot(self) -> dict[str, object]:
        """Point-in-time dump of every instrument, JSON-friendly."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "histograms": {n: h.summary() for n, h in sorted(histograms.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
        }


class InstrumentCache:
    """A registry's instruments as one hot path uses them: each fetched
    from the registry on first use and kept, so later updates take no
    registry lock.  Drop-in for the registry's ``counter``,
    ``histogram`` and (callable-less) ``gauge`` getters; an instrument
    first appears in the registry exactly when it would without the
    cache."""

    __slots__ = ("registry", "_kept")

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._kept: dict[tuple[str, str], Counter | Histogram | Gauge] = {}

    def counter(self, name: str) -> Counter:
        c = self._kept.get(("counter", name))
        if c is None:
            c = self._kept[("counter", name)] = self.registry.counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._kept.get(("histogram", name))
        if h is None:
            h = self._kept[("histogram", name)] = self.registry.histogram(name)
        return h

    def gauge(self, name: str) -> Gauge:
        g = self._kept.get(("gauge", name))
        if g is None:
            g = self._kept[("gauge", name)] = self.registry.gauge(name)
        return g
