"""A Markov-stream database in the spirit of Lahar.

The paper is motivated by Lahar, "a Markov-sequence database that supports
query processing over a collection of Markov sequences", and its stated
goal is to bring transducer queries into such a system. This module is the
system shell: named streams (e.g. one per tracked RFID object), registered
queries, per-stream and cross-stream top-k evaluation — all routed through
the :mod:`repro.runtime` planner/executor, so each stream/query pair
automatically gets the best algorithm for its class and pays planning
(classification, minimization, s-projector compilation) once per query
shape.

Streams are *append-only live objects*: :meth:`MarkovStreamDatabase.append`
grows a stream by one timestep, and any
:class:`~repro.runtime.incremental.StreamingEvaluator` attached to it
absorbs the timestep as a single DP layer instead of a from-scratch
re-run. Plans whose compiled transducer is deterministic get such an
evaluator automatically on first read, so repeated and append-heavy read
workloads run off the cached frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Iterator, Mapping

from repro.errors import ReproError
from repro.markov.sequence import MarkovSequence, Number
from repro.core.results import Answer, Order
from repro.runtime.cache import PlanCache
from repro.runtime.executor import batch_confidence, batch_top_k, run_evaluate, run_top_k
from repro.runtime.incremental import StreamingEvaluator
from repro.runtime.plan import QueryPlan

Symbol = Hashable


@dataclass(frozen=True)
class StreamAnswer:
    """An answer tagged with the stream that produced it."""

    stream: str
    answer: Answer


def canonical_query(query):
    """``query`` round-tripped through the interchange format: the form
    a durable database plans (see ``MarkovStreamDatabase._canonical_query``)."""
    from repro.io.json_format import query_from_dict, query_to_dict

    return query_from_dict(query_to_dict(query))


class MarkovStreamDatabase:
    """A named collection of Markov sequences with a query interface.

    Parameters
    ----------
    plan_cache:
        The :class:`PlanCache` all reads go through; a private cache is
        created when None (pass a shared one to share plans across
        databases).
    store:
        An optional :class:`repro.store.Store` journal. When attached,
        every catalog mutation and append writes one WAL record *before*
        the in-memory commit, so anything this database acknowledged is
        recoverable from disk.
    """

    def __init__(
        self, plan_cache: PlanCache | None = None, store=None
    ) -> None:
        self._streams: dict[str, MarkovSequence] = {}
        self._queries: dict[str, object] = {}
        self._plans = plan_cache if plan_cache is not None else PlanCache()
        self._evaluators: dict[tuple[str, str], StreamingEvaluator] = {}
        self._store = store

    def attach_store(self, store) -> None:
        """Journal all future mutations through ``store`` (None detaches).

        Recovery seeds a database with the store detached (replayed
        records must not be re-journaled), then attaches it before the
        first live write.
        """
        self._store = store

    @property
    def store(self):
        """The attached journal, or None."""
        return self._store

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def register_stream(self, name: str, sequence: MarkovSequence) -> None:
        """Add (or replace) a stream under ``name``.

        With a store attached the creation is journaled first: a
        registration the caller saw succeed is on disk.
        """
        if not name:
            raise ReproError("stream name must be non-empty")
        if self._store is not None:
            self._store.log_stream_created(name, sequence)
        self._streams[name] = sequence
        self._drop_evaluators(name)

    def drop_stream(self, name: str) -> None:
        """Remove a stream; missing names raise."""
        if name not in self._streams:
            raise ReproError(f"unknown stream {name!r}")
        if self._store is not None:
            self._store.log_stream_dropped(name)
        del self._streams[name]
        self._drop_evaluators(name)

    def register_query(self, name: str, query) -> None:
        """Store a reusable named query (transducer or s-projector)."""
        if not name:
            raise ReproError("query name must be non-empty")
        query = self._canonical_query(query)
        if self._store is not None:
            self._store.log_query_registered(name, query)
        self._queries[name] = query

    def streams(self) -> list[str]:
        """Registered stream names, sorted."""
        return sorted(self._streams)

    def queries(self) -> list[str]:
        """Registered query names, sorted."""
        return sorted(self._queries)

    def stream(self, name: str) -> MarkovSequence:
        """Look up one stream."""
        try:
            return self._streams[name]
        except KeyError:
            raise ReproError(f"unknown stream {name!r}") from None

    def _resolve_query(self, query):
        if isinstance(query, str):
            try:
                return self._queries[query]
            except KeyError:
                raise ReproError(f"unknown query {query!r}") from None
        return self._canonical_query(query)

    def _canonical_query(self, query):
        """Round-trip a query through the interchange format when durable.

        Persisted frontier keys embed compiled automaton *state objects*,
        and recovery recompiles plans from the snapshot's query document
        — whose state names are the serialized form. A durable database
        therefore plans the serialized form from the start, so a live
        frontier and its recovered twin use identical keys. (Queries that
        arrive as JSON, e.g. over the serve wire, are already canonical
        and round-trip to themselves.)
        """
        if self._store is None:
            return query
        return canonical_query(query)

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache all of this database's reads share."""
        return self._plans

    def plan(self, query) -> QueryPlan:
        """The (cached) plan for a query object or registered name."""
        return self._plans.get(self._resolve_query(query))

    # ------------------------------------------------------------------
    # Streaming writes
    # ------------------------------------------------------------------

    def append(
        self, name: str, transition: Mapping[Symbol, Mapping[Symbol, Number]]
    ) -> MarkovSequence:
        """Append one timestep to a stream; returns the grown sequence.

        Every streaming evaluator attached to the stream absorbs the
        timestep incrementally (one DP layer each), so the next read is
        warm. The timestep is validated once, and every evaluator shares
        the grown sequence and so its one lift of the timestep to integer
        numerators (:meth:`MarkovSequence.scaled_rows`).

        The append is atomic with respect to the attached evaluators:
        the timestep is validated *before* the stream mutates, and if
        advancing any evaluator fails, every evaluator is rolled back to
        its pre-append frontier and the stream is left unchanged — a
        rejected append can never leave an evaluator out of sync with
        its stream.

        With a store attached, the journal record is the commit point:
        it is written (and fsync'd) after every evaluator advanced but
        before anything becomes visible, and a journal failure rolls the
        evaluators back. An append the caller saw succeed is therefore
        always on disk, and a journaled append is always one that would
        have succeeded in memory.
        """
        grown = self.stream(name).extended(transition)  # validates first
        attached = [
            evaluator
            for (stream_name, _fingerprint), evaluator in self._evaluators.items()
            if stream_name == name
        ]
        for evaluator in attached:
            evaluator.checkpoint()
        advanced = 0
        try:
            for evaluator in attached:
                evaluator.advance_to(grown)
                advanced += 1
            if self._store is not None:
                self._store.log_append(name, transition)
        except BaseException:
            # Evaluator appends are themselves atomic, so a failing
            # advance is already at its checkpoint state; restore the
            # ones that advanced and drop the unused snapshots.
            for i, evaluator in enumerate(attached):
                if i < advanced:
                    evaluator.rollback()
                else:
                    evaluator.discard_checkpoint()
            raise
        for evaluator in attached:
            evaluator.discard_checkpoint()
        self._streams[name] = grown
        return grown

    def streaming_evaluator(self, name: str, query) -> StreamingEvaluator:
        """The live evaluator for (stream, query), creating it if needed.

        Explicitly requesting an evaluator works for *any* query class;
        only plans with a deterministic compiled transducer (polynomial
        frontier) are attached automatically on reads.
        """
        plan = self._plans.get(self._resolve_query(query))
        return self._attach_evaluator(name, plan)

    def install_evaluator(self, name: str, evaluator: StreamingEvaluator) -> None:
        """Adopt an externally built evaluator for stream ``name``.

        The store's recovery path restores evaluators from persisted
        frontiers (no DP re-run) and installs them here, so the first
        post-restart read or append is already warm. The evaluator must
        be in sync with the stream it claims to cover.
        """
        stream = self.stream(name)
        if evaluator.length != stream.length:
            raise ReproError(
                f"evaluator for stream {name!r} covers {evaluator.length} "
                f"timesteps but the stream has {stream.length}"
            )
        self._evaluators[(name, evaluator.plan.fingerprint)] = evaluator

    def detach_evaluator(self, name: str, evaluator: StreamingEvaluator) -> None:
        """Stop advancing ``evaluator`` on appends to stream ``name``."""
        key = (name, evaluator.plan.fingerprint)
        if self._evaluators.get(key) is evaluator:
            del self._evaluators[key]

    def attached_evaluators(self) -> list[tuple[str, StreamingEvaluator]]:
        """Every live (stream, evaluator) pair — what snapshots capture."""
        return [
            (stream_name, evaluator)
            for (stream_name, _fingerprint), evaluator in sorted(
                self._evaluators.items()
            )
        ]

    def _attach_evaluator(self, name: str, plan: QueryPlan) -> StreamingEvaluator:
        key = (name, plan.fingerprint)
        evaluator = self._evaluators.get(key)
        if evaluator is None or evaluator.length != self.stream(name).length:
            evaluator = StreamingEvaluator(plan, self.stream(name))
            self._evaluators[key] = evaluator
        return evaluator

    def _drop_evaluators(self, name: str) -> None:
        for key in [key for key in self._evaluators if key[0] == name]:
            del self._evaluators[key]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def query(
        self,
        stream: str,
        query,
        order: Order | str = Order.UNRANKED,
        limit: int | None = None,
        with_confidence: bool = True,
        allow_exponential: bool = False,
        min_confidence: Number | None = None,
    ) -> Iterator[Answer]:
        """Evaluate a query (object or registered name) over one stream."""
        sequence = self.stream(stream)
        plan = self._plans.get(self._resolve_query(query))
        evaluator = None
        if Order(order) is Order.UNRANKED and plan.supports_streaming():
            evaluator = self._attach_evaluator(stream, plan)
        return run_evaluate(
            plan,
            sequence,
            order=order,
            with_confidence=with_confidence,
            limit=limit,
            allow_exponential=allow_exponential,
            min_confidence=min_confidence,
            evaluator=evaluator,
        )

    def top_k(
        self,
        stream: str,
        query,
        k: int,
        order: Order | str | None = None,
        allow_exponential: bool = False,
    ) -> list[Answer]:
        """Top-k answers of one stream under the class's best ranked order."""
        plan = self._plans.get(self._resolve_query(query))
        return run_top_k(
            plan,
            self.stream(stream),
            k,
            order=order,
            allow_exponential=allow_exponential,
        )

    def top_k_across(
        self,
        query,
        k: int,
        streams: Iterable[str] | None = None,
        order: Order | str | None = None,
        allow_exponential: bool = False,
    ) -> list[StreamAnswer]:
        """Globally best ``k`` answers across streams, merged by score.

        Runs the per-stream ranked enumeration lazily k answers deep on
        each stream (reusing one plan throughout), then merges — the
        standard top-k-over-partitions pattern of stream warehouses.
        Answers without a score sort after all ranked answers with a
        deterministic (stream, output) tiebreak.
        """
        names = list(streams) if streams is not None else self.streams()
        plan = self._plans.get(self._resolve_query(query))
        corpus = {name: self.stream(name) for name in names}
        merged = batch_top_k(
            plan,
            corpus,
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
        """One output's confidence on every (selected) stream.

        The bulk-read twin of per-stream ``confidence``: one shared plan,
        and — when the plan is dense-eligible and the streams form an
        equal-length float stack — a single vectorized numpy DP for the
        whole corpus (:func:`repro.runtime.executor.batch_confidence`).
        Otherwise the per-stream Table-2 dispatch runs serially.
        """
        names = list(streams) if streams is not None else self.streams()
        plan = self._plans.get(self._resolve_query(query))
        corpus = {name: self.stream(name) for name in names}
        return batch_confidence(
            plan, corpus, output, allow_exponential=allow_exponential
        )
