"""Standing queries and threshold-crossing alerts.

A *standing query* attaches a query to a stream once and is advanced on
every append instead of being re-planned and re-run. It watches the
confidence of one output of a
:class:`~repro.runtime.incremental.StreamingEvaluator` attached to the
stream, which the database append advances one DP layer:

* kind ``"answer"`` — one output of a transducer/s-projector query;
* kind ``"monitor"`` — the Lahar "event fires at time i" occurrence
  probability of a regular pattern: output ``()`` of the accept filter
  :func:`~repro.lahar.monitor.occurrence_query`.

Either way the watched value feeds a :class:`ThresholdWatch`, which
fires **exactly once per upward crossing** with hysteresis: after
firing, the watch is disarmed until the value falls below the re-arm
level (default: the threshold itself), so a value that jitters around
the threshold cannot ring the alert on every append.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from repro.errors import ReproError
from repro.lahar.monitor import occurrence_query
from repro.markov.sequence import Number


def _exact(level: Number) -> Number:
    """``level`` as the exact rational a ``Fraction`` comparison uses."""
    if isinstance(level, float) and math.isfinite(level):
        return Fraction.from_float(level)
    return level


class ThresholdWatch:
    """Fire-once-per-upward-crossing threshold detection with hysteresis.

    Parameters
    ----------
    threshold:
        The watched value firing level (``value >= threshold`` fires
        while armed).
    rearm:
        The re-arm level: after firing, the watch stays disarmed until
        ``value < rearm``. Defaults to ``threshold``; a lower value adds
        a hysteresis band. Must not exceed ``threshold``.
    initial:
        The value at registration time. A watch born at or above the
        threshold starts disarmed — registration alone never fires; only
        crossings *observed after* registration do.
    """

    __slots__ = ("threshold", "rearm", "armed", "value", "_exact_levels")

    def __init__(
        self,
        threshold: Number,
        rearm: Number | None = None,
        initial: Number | None = None,
    ) -> None:
        if rearm is not None and rearm > threshold:
            raise ReproError("re-arm level cannot exceed the threshold")
        self.threshold = threshold
        self.rearm = rearm if rearm is not None else threshold
        # What comparing an exact value with a float level would build
        # on every call (``Fraction.from_float``), built once.
        self._exact_levels = (_exact(self.threshold), _exact(self.rearm))
        self.value: Number | None = None
        self.armed = True
        if initial is not None:
            self.value = initial
            if initial >= threshold:
                self.armed = False

    def observe(self, value: Number) -> bool:
        """Feed one value; returns True when this observation fires."""
        self.value = value
        if isinstance(value, float):
            threshold, rearm = self.threshold, self.rearm
        else:
            threshold, rearm = self._exact_levels
        if self.armed:
            if value >= threshold:
                self.armed = False
                return True
        elif value < rearm:
            self.armed = True
        return False

    @classmethod
    def restore(
        cls,
        threshold: Number,
        rearm: Number | None,
        value: Number | None,
        armed: bool,
    ) -> "ThresholdWatch":
        """Rebuild a watch in an exact persisted state (store recovery).

        Unlike ``initial=``, this sets the armed flag verbatim — a watch
        inside its hysteresis band (fired, value back under the
        threshold but not yet under the re-arm level) is reproduced
        bit-identically, so a restart never re-fires or swallows a
        crossing.
        """
        watch = cls(threshold, rearm)
        watch.value = value
        watch.armed = armed
        return watch


def watched_query(kind: str, query):
    """The query whose attached evaluator backs a standing query of ``kind``
    registered on ``query``: the query itself for ``"answer"``, its
    :func:`~repro.lahar.monitor.occurrence_query` for ``"monitor"``."""
    return occurrence_query(query) if kind == "monitor" else query


@dataclass
class StandingQuery:
    """One registered standing query: source, watcher, and live state.

    ``evaluator`` is the incremental engine whose ``output`` confidence
    is watched; ``alerts_fired`` counts upward crossings so far.
    ``query`` retains the registered query object itself (for a monitor,
    the pattern query, not its occurrence transducer) so the store can
    journal and snapshot the standing query for crash recovery. ``approx`` is
    None for exact standing queries; an approximate one (FPRAS-backed
    evaluator) records its ``{"epsilon", "delta", "seed"}`` here so
    every report and alert can be marked as estimated.
    """

    name: str
    stream: str
    kind: str  # "answer" | "monitor"
    query_label: str
    watch: ThresholdWatch
    output: tuple = ()
    evaluator: object | None = None
    alerts_fired: int = 0
    query: object | None = None
    approx: dict | None = None

    def current_value(self) -> Number:
        """The watched value for the stream absorbed so far."""
        return self.evaluator.confidences().get(self.output, 0)

    def describe(self) -> dict:
        described = {
            "name": self.name,
            "stream": self.stream,
            "kind": self.kind,
            "query": self.query_label,
            "threshold": self.watch.threshold,
            "rearm": self.watch.rearm,
            "value": self.watch.value,
            "armed": self.watch.armed,
            "alerts_fired": self.alerts_fired,
            "approximate": self.approx is not None,
        }
        if self.approx is not None:
            described["epsilon"] = self.approx["epsilon"]
            described["delta"] = self.approx["delta"]
        return described


@dataclass(frozen=True)
class Alert:
    """One fired threshold crossing, ready to fan out to subscribers."""

    standing: str
    stream: str
    timestep: int
    value: Number
    threshold: Number


@dataclass
class AlertEngine:
    """The registry of standing queries, indexed by name and by stream."""

    _standing: dict[str, StandingQuery] = field(default_factory=dict)
    _by_stream: dict[str, set[str]] = field(default_factory=dict)

    def register_standing(
        self,
        db,
        name: str,
        stream: str,
        kind: str,
        label: str,
        query,
        output: tuple,
        threshold: Number,
        rearm: Number | None = None,
        restored=None,
        evaluator=None,
        approx: dict | None = None,
    ) -> StandingQuery:
        """Register a standing query on ``db`` (live, snapshot restore and
        log replay alike), journaled when ``db`` has a store attached.

        It watches the evaluator ``db`` attaches for ``watched_query(kind,
        query)`` unless given one (an approximate query brings its own).
        ``restored``, a snapshot's standing entry, sets the watch state
        verbatim in place of ``initial=`` the current value.
        """
        if not name:
            raise ReproError("standing query name must be non-empty")
        if name in self._standing:
            raise ReproError(f"standing query {name!r} already exists")
        if evaluator is None:
            evaluator = db.streaming_evaluator(stream, watched_query(kind, query))
        if restored is None:
            initial = evaluator.confidences().get(output, 0)
            watch = ThresholdWatch(threshold, rearm, initial=initial)
        else:
            watch = ThresholdWatch.restore(
                threshold, rearm, restored.value, restored.armed
            )
        if db.store is not None:
            db.store.log_standing_registered(
                name, stream, kind, label, query, output, threshold, rearm
            )
        standing = StandingQuery(
            name=name,
            stream=stream,
            kind=kind,
            query_label=label,
            watch=watch,
            output=output,
            evaluator=evaluator,
            alerts_fired=restored.alerts_fired if restored is not None else 0,
            query=query,
            approx=approx,
        )
        self._standing[name] = standing
        self._by_stream.setdefault(stream, set()).add(name)
        return standing

    def drop_standing(self, db, name: str) -> StandingQuery:
        """Drop a standing query, journaled when ``db`` has a store
        attached; its evaluator is detached from ``db`` unless another
        standing query on the stream still watches it."""
        standing = self.get(name)
        if db.store is not None:
            db.store.log_standing_dropped(name)
        del self._standing[name]
        names = self._by_stream[standing.stream]
        names.discard(name)
        if not names:
            del self._by_stream[standing.stream]
        if standing.approx is None and not any(
            other.evaluator is standing.evaluator
            for other in self.on_stream(standing.stream)
        ):
            db.detach_evaluator(standing.stream, standing.evaluator)
        return standing

    def drop_stream(self, stream: str) -> list[StandingQuery]:
        """Tear down every standing query watching ``stream``.

        The service-level counterpart of the database's
        ``_drop_evaluators``: dropping a stream must not leave alert
        state (or subscriptions) dangling on it.
        """
        dropped = [
            self._standing.pop(name)
            for name in sorted(self._by_stream.pop(stream, ()))
        ]
        return dropped

    def get(self, name: str) -> StandingQuery:
        try:
            return self._standing[name]
        except KeyError:
            raise ReproError(f"unknown standing query {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._standing)

    def on_stream(self, stream: str) -> list[StandingQuery]:
        """Standing queries watching ``stream``, in name order."""
        return [
            self._standing[name] for name in sorted(self._by_stream.get(stream, ()))
        ]

    def __len__(self) -> int:
        return len(self._standing)

    def observe_append(self, stream: str, timestep: int) -> list[Alert]:
        """Feed every standing query on ``stream`` its value after an append.

        The database append has already advanced every evaluator behind
        them. Returns the alerts fired by this append, in standing-query
        name order.
        """
        alerts: list[Alert] = []
        for standing in self.on_stream(stream):
            value = standing.current_value()
            if standing.watch.observe(value):
                standing.alerts_fired += 1
                alerts.append(
                    Alert(
                        standing=standing.name,
                        stream=stream,
                        timestep=timestep,
                        value=value,
                        threshold=standing.watch.threshold,
                    )
                )
        return alerts
