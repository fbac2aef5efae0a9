"""Stream sharding: stable stream-id hashing over per-shard databases.

The service partitions its streams across ``shards`` independent
:class:`~repro.lahar.database.MarkovStreamDatabase` instances by a
*stable* content hash of the stream id (Python's builtin ``hash`` is
salted per process, which would reshuffle streams on every restart).
All shards share one :class:`~repro.runtime.cache.PlanCache`, so a
query shape is planned once for the whole service no matter how many
shards its streams land on.

Sharding buys **append independence**: appends to streams on
different shards never contend on the same database (the server holds
one lock per shard, not one global lock). Cross-stream reads snapshot
the corpus across every shard and run one plan over it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping

from repro.errors import ReproError
from repro.lahar.database import MarkovStreamDatabase, StreamAnswer, canonical_query
from repro.markov.sequence import MarkovSequence, Number
from repro.runtime.cache import PlanCache
from repro.runtime.executor import batch_confidence, batch_top_k
from repro.runtime.incremental import StreamingEvaluator


def shard_of(stream_id: str, shards: int) -> int:
    """The shard index of ``stream_id`` — stable across processes."""
    if shards < 1:
        raise ReproError("shard count must be at least 1")
    digest = hashlib.blake2b(str(stream_id).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % shards


class _Shard(MarkovStreamDatabase):
    """One shard: it plans the query objects it is handed as they are.

    :class:`ShardedDatabase` resolves and canonicalises every query
    before it delegates (``_planned``), so a second round trip here
    would only rebuild an equal object and pay its fingerprint again.
    """

    def _canonical_query(self, query):
        return query


class ShardedDatabase:
    """``shards`` Markov-stream databases behind one stream namespace.

    The catalog API mirrors :class:`MarkovStreamDatabase`; every call is
    routed to the owning shard by :func:`shard_of`. Queries are kept in
    a service-level catalog (they are not stream-local), resolved to
    their objects before delegation. With a store attached, every read
    plans a query in its serialized form: a registered query is put in
    that form once, at registration, and any other object on each call.
    """

    def __init__(self, shards: int = 1, plan_cache: PlanCache | None = None) -> None:
        if shards < 1:
            raise ReproError("shard count must be at least 1")
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._shards = [_Shard(plan_cache=self.plan_cache) for _ in range(shards)]
        self._queries: dict[str, object] = {}
        #: The registered query objects (queries hash by identity).
        self._registered: set = set()
        self._store = None

    def attach_store(self, store) -> None:
        """Journal every shard's mutations through one shared store.

        A stream lives on exactly one shard, so the shards interleave
        their records in one totally ordered log (the server's event
        loop is the single writer).
        """
        self._store = store
        for db in self._shards:
            db.attach_store(store)

    @property
    def store(self):
        """The attached journal, or None."""
        return self._store

    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_index(self, name: str) -> int:
        """The shard owning stream ``name``."""
        return shard_of(name, len(self._shards))

    def shard(self, index: int) -> MarkovStreamDatabase:
        """One shard's database (for introspection and tests)."""
        return self._shards[index]

    def shard_for(self, name: str) -> MarkovStreamDatabase:
        return self._shards[self.shard_index(name)]

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def register_stream(self, name: str, sequence: MarkovSequence) -> int:
        """Add (or replace) a stream; returns its shard index."""
        index = self.shard_index(name)
        self._shards[index].register_stream(name, sequence)
        return index

    def drop_stream(self, name: str) -> None:
        self.shard_for(name).drop_stream(name)

    def has_stream(self, name: str) -> bool:
        return name in self.shard_for(name).streams()

    def stream(self, name: str) -> MarkovSequence:
        return self.shard_for(name).stream(name)

    def streams(self) -> list[str]:
        """All registered stream names across shards, sorted."""
        return sorted(name for db in self._shards for name in db.streams())

    def register_query(self, name: str, query) -> None:
        """Store a named query, canonical and planned now through the
        shared cache.

        Planning keeps the fingerprint on the stored object, so every
        read by name is a plan-cache hit that serializes and hashes
        nothing. With a store attached, it is journaled once planned.
        """
        if not name:
            raise ReproError("query name must be non-empty")
        if self._store is not None:
            query = canonical_query(query)
        self.plan_cache.get(query)
        if self._store is not None:
            self._store.log_query_registered(name, query)
        self._queries[name] = query
        self._registered = set(self._queries.values())

    def queries(self) -> list[str]:
        return sorted(self._queries)

    def resolve_query(self, query):
        """A query object from a registered name (objects pass through)."""
        if isinstance(query, str):
            try:
                return self._queries[query]
            except KeyError:
                raise ReproError(f"unknown query {query!r}") from None
        return query

    def _planned(self, query):
        """The object the shards and the shared cache plan for ``query``
        (object or name).

        A registered query is used as stored. With a store attached, any
        other object is put in its serialized form, as
        ``MarkovStreamDatabase._canonical_query`` requires: the cache
        keeps the first plan built per fingerprint, so one read of the
        raw object would decide the frontier keys of every evaluator
        attached after it.
        """
        query = self.resolve_query(query)
        if self._store is None or query in self._registered:
            return query
        return canonical_query(query)

    # ------------------------------------------------------------------
    # Streaming writes and reads
    # ------------------------------------------------------------------

    def append(
        self, name: str, transition: Mapping
    ) -> MarkovSequence:
        """Append one timestep to ``name``'s stream on its owning shard."""
        return self.shard_for(name).append(name, transition)

    def streaming_evaluator(self, name: str, query) -> StreamingEvaluator:
        return self.shard_for(name).streaming_evaluator(name, self._planned(query))

    def install_evaluator(self, name: str, evaluator: StreamingEvaluator) -> None:
        """Adopt a recovered evaluator on the shard owning ``name``."""
        self.shard_for(name).install_evaluator(name, evaluator)

    def detach_evaluator(self, name: str, evaluator: StreamingEvaluator) -> None:
        self.shard_for(name).detach_evaluator(name, evaluator)

    def attached_evaluators(self) -> list[tuple[str, StreamingEvaluator]]:
        """Every live (stream, evaluator) pair across shards."""
        return [
            pair for db in self._shards for pair in db.attached_evaluators()
        ]

    def query_objects(self) -> dict[str, object]:
        """The service-level query catalog (what snapshots capture)."""
        return dict(self._queries)

    def query(self, stream: str, query, **options):
        return self.shard_for(stream).query(stream, self._planned(query), **options)

    def corpus(self, names: Iterable[str] | None = None) -> dict[str, MarkovSequence]:
        """A ``{name: sequence}`` snapshot of the (selected) streams."""
        selected = list(names) if names is not None else self.streams()
        return {name: self.stream(name) for name in selected}

    def top_k_across(
        self,
        query,
        k: int,
        streams: Iterable[str] | None = None,
        order=None,
        allow_exponential: bool = False,
    ) -> list[StreamAnswer]:
        """Globally best ``k`` answers across shards, merged by score."""
        plan = self.plan_cache.get(self._planned(query))
        merged = batch_top_k(
            plan,
            self.corpus(streams),
            k,
            order=order,
            allow_exponential=allow_exponential,
        )
        return [StreamAnswer(name, answer) for name, answer in merged]

    def batch_confidence(
        self,
        query,
        output,
        streams: Iterable[str] | None = None,
        allow_exponential: bool = True,
    ) -> dict[str, Number]:
        """One output's confidence on every (selected) stream."""
        plan = self.plan_cache.get(self._planned(query))
        return batch_confidence(
            plan, self.corpus(streams), output, allow_exponential=allow_exponential
        )

    def stats(self) -> dict:
        """Shard occupancy plus the shared plan-cache counters."""
        return {
            "shards": len(self._shards),
            "streams": len(self.streams()),
            "streams_per_shard": [len(db.streams()) for db in self._shards],
            "queries": len(self._queries),
            "plan_cache": {
                key: value
                for key, value in self.plan_cache.stats().items()
                if key != "plans"
            },
        }
