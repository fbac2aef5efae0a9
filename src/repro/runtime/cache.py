"""A bounded LRU cache of query plans, keyed by structural fingerprint.

Planning (classification, Hopcroft minimization, s-projector
compilation) depends only on the query, so a database serving the same
query shapes over and over should pay it once. The cache is keyed by the
plan's *structural fingerprint*, so separately constructed but
structurally identical query objects share one plan — and one set of
execution counters. The fingerprint is computed once per query object
and kept on it (:func:`~repro.runtime.plan.fingerprint`), so a hit on a
query object seen before costs a dict lookup, not a canonicalisation.

The cache is thread-safe: the ``OrderedDict`` and the hit/miss/eviction
counters are guarded by a :class:`threading.Lock`, so a cache survives
concurrent use (``repro serve`` reads one from its event loop and its
read threads at once). Plan *construction* also happens under
the lock — concurrent misses on the same shape serialize rather than
racing to build duplicate plans, which keeps the per-fingerprint
``PlanStats`` block unique.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import telemetry
from repro.errors import ReproError
from repro.runtime.plan import QueryPlan, fingerprint


class PlanCache:
    """A bounded LRU mapping query fingerprints to :class:`QueryPlan`.

    Parameters
    ----------
    capacity:
        Maximum number of cached plans; the least recently used plan is
        evicted beyond it. Must be positive.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ReproError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._plans: OrderedDict[str, QueryPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, query) -> QueryPlan:
        """The cached plan for ``query``'s shape, building it on a miss.

        Every lookup counts as a hit or a miss and refreshes LRU order;
        only the key itself is memoised, on the query object.
        """
        key = fingerprint(query)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                telemetry.count("runtime.plan_cache.hits")
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
            telemetry.count("runtime.plan_cache.misses")
            plan = QueryPlan.build(query)
            self._plans[key] = plan
            if len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
                telemetry.count("runtime.plan_cache.evictions")
            return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, query) -> bool:
        key = fingerprint(query)
        with self._lock:
            return key in self._plans

    def clear(self) -> None:
        """Drop all plans and reset the counters."""
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        """Counters plus the per-plan execution stats, for display."""
        with self._lock:
            return {
                "size": len(self._plans),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "plans": {
                    key[:16]: plan.stats.as_dict() for key, plan in self._plans.items()
                },
            }


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide cache used by :func:`repro.core.evaluate`."""
    return _DEFAULT_CACHE


def plan_for(query, cache: PlanCache | None = None) -> QueryPlan:
    """Plan ``query`` through ``cache`` (the default cache when None).

    Already-planned queries (a :class:`QueryPlan` passed where a query is
    expected) are returned unchanged, so plan-aware callers compose with
    plan-oblivious ones.
    """
    if isinstance(query, QueryPlan):
        return query
    return (cache if cache is not None else _DEFAULT_CACHE).get(query)
