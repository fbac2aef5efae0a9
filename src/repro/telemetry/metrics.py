"""Process-local metric primitives: counters, gauges, histograms.

The registry is deliberately tiny: three metric kinds, each a plain
mutable object, all guarded by one lock. Histograms use *fixed* bucket
boundaries chosen at creation, which makes their state mergeable — two
histograms with the same bounds combine bucket-by-bucket, so snapshots
taken in separate processes (or across benchmark repetitions) can be
folded into one without losing anything but per-event ordering.

Every recorder-object construction bumps a module-level allocation
counter (:func:`recorder_allocations`). The test suite uses it to prove
the zero-overhead claim: with telemetry disabled, instrumented code
paths construct *no* recorder objects at all.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError

#: Default bucket upper bounds for duration histograms (seconds): decade
#: buckets from 100 nanoseconds to 100 seconds.
DURATION_BOUNDS: tuple[float, ...] = tuple(10.0**e for e in range(-7, 3))

#: Default bucket upper bounds for size-ish histograms (streams per
#: chunk, DP cells per layer): powers of four from 1 to ~1M.
SIZE_BOUNDS: tuple[float, ...] = tuple(float(4**e) for e in range(0, 11))

_allocations = 0


def _note_allocation() -> None:
    global _allocations
    _allocations += 1


def recorder_allocations() -> int:
    """Total recorder objects (metrics, registries, spans) ever built.

    A monotone process-wide counter; tests diff it around an
    instrumented run to assert the disabled path allocates nothing.
    """
    return _allocations


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        _note_allocation()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins float."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        _note_allocation()
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram with mergeable state.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything beyond the last
    edge. Alongside the bucket counts it tracks count / total / min /
    max, so means and extremes survive the bucketing.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DURATION_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ReproError("histogram bounds must be a non-empty sorted tuple")
        _note_allocation()
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both operands' state.

        Requires identical bucket bounds — merging across bound schemes
        would silently re-bucket, so it is an error instead.
        """
        if self.bounds != other.bounds:
            raise ReproError("cannot merge histograms with different bounds")
        merged = Histogram(self.bounds)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        mins = [m for m in (self.min, other.min) if m is not None]
        maxes = [m for m in (self.max, other.max) if m is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxes) if maxes else None
        return merged

    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = cls(tuple(data["bounds"]))
        hist.counts = [int(c) for c in data["counts"]]
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.min = None if data.get("min") is None else float(data["min"])
        hist.max = None if data.get("max") is None else float(data["max"])
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, total={self.total:.6g})"


#: The snapshot schema marker (bumped on incompatible layout changes).
SNAPSHOT_SCHEMA = "repro-telemetry/1"


class Registry:
    """A thread-safe, process-local collection of named metrics.

    Metric names are dotted strings (``runtime.plan_cache.hits``); span
    paths are ``/``-joined span names (``verify/instance``). Creation is
    lazy — the first ``count``/``observe`` of a name allocates its
    metric — and everything is guarded by one lock, so instrumented code
    can record from serve's read threads or the event loop without
    coordination.
    """

    def __init__(self) -> None:
        _note_allocation()
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, Histogram] = {}
        self._local = threading.local()

    # -- recording -----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.inc(amount)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            gauge.set(value)

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] | None = None
    ) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(
                    bounds if bounds is not None else DURATION_BOUNDS
                )
            hist.observe(value)

    def observe_span(self, path: str, seconds: float) -> None:
        with self._lock:
            hist = self._spans.get(path)
            if hist is None:
                hist = self._spans[path] = Histogram(DURATION_BOUNDS)
            hist.observe(seconds)

    # -- span nesting (thread-local) -----------------------------------

    def span_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reading -------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict copy of every metric (JSON-serializable)."""
        with self._lock:
            return {
                "schema": SNAPSHOT_SCHEMA,
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.as_dict() for n, h in sorted(self._histograms.items())
                },
                "spans": {n: h.as_dict() for n, h in sorted(self._spans.items())},
            }

    def counter_value(self, name: str) -> int:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def event_count(self) -> int:
        """Total recorded events (counter bumps count as their amounts)."""
        snap = self.snapshot()
        return (
            sum(snap["counters"].values())
            + len(snap["gauges"])
            + sum(h["count"] for h in snap["histograms"].values())
            + sum(h["count"] for h in snap["spans"].values())
        )
