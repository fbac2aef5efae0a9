"""Worker-side chunk execution for the process pool.

A :class:`ChunkTask` is what actually crosses the process boundary: the
*query object* (not the plan — plans hold compiled automata, minimized
components and live counters, and are deliberately never pickled), its
structural fingerprint, a chunk of named streams, and the execution
options. Each worker process keeps a small process-local
:class:`~repro.runtime.cache.PlanCache`; the shipped fingerprint is
passed as a hint so the worker never re-canonicalizes the query — the
first chunk of a given shape pays one plan build, every later chunk is a
cache hit.

:func:`execute_chunk` is also what the parent runs in-process for the
serial fallback paths, so pool and fallback execution share one code
path (and therefore one set of semantics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ReproError
from repro.runtime.cache import PlanCache
from repro.runtime.executor import batch_top_k, plan_confidence, run_evaluate

#: Modes a chunk task can run in.
MODE_TOP_K = "top_k"
MODE_EVALUATE = "evaluate"
MODE_CONFIDENCE = "confidence"

#: The per-process plan cache (one per worker; also used by the parent's
#: serial fallback). Bounded so a long-lived pool serving many query
#: shapes cannot grow without limit.
_WORKER_CACHE = PlanCache(capacity=64)


def worker_plan_cache() -> PlanCache:
    """This process's worker-side plan cache (for tests and stats)."""
    return _WORKER_CACHE


@dataclass(frozen=True)
class ChunkTask:
    """One unit of pool work: a query shape applied to a chunk of streams.

    Attributes
    ----------
    mode:
        ``"top_k"`` (merged ranked answers), ``"evaluate"`` (full answer
        lists per stream) or ``"confidence"`` (one output's confidence
        per stream).
    query:
        The raw query object (transducer or s-projector). Never a plan.
    fingerprint:
        ``repro.runtime.plan.fingerprint(query)``, shipped so workers
        skip re-canonicalization.
    items:
        The ``(name, sequence)`` pairs of this chunk, in corpus order.
    options:
        Mode-specific keyword options (``k``, ``order``,
        ``allow_exponential``, ``with_confidence``, ``limit``,
        ``min_confidence``, ``output``).
    """

    mode: str
    query: object
    fingerprint: str
    items: tuple
    options: tuple

    def option_dict(self) -> dict:
        return dict(self.options)


@dataclass(frozen=True)
class ChunkResult:
    """What a worker sends back: the payload plus its compute time.

    ``cache_hits`` / ``cache_misses`` are the worker-local plan-cache
    deltas this chunk caused — shipped explicitly because a worker
    process's own telemetry registry (if any) is invisible to the
    parent; the parent folds them into its telemetry as
    ``parallel.worker_cache.*``.
    """

    payload: tuple
    seconds: float
    cache_hits: int = 0
    cache_misses: int = 0


def make_task(mode: str, plan, items, **options) -> ChunkTask:
    """Build a :class:`ChunkTask` from an already-built plan."""
    return ChunkTask(
        mode=mode,
        query=plan.query,
        fingerprint=plan.fingerprint,
        items=tuple(items),
        options=tuple(sorted(options.items())),
    )


def execute_chunk(task: ChunkTask) -> ChunkResult:
    """Run one chunk in this process; the pool's worker entry point."""
    start = time.perf_counter()
    hits_before = _WORKER_CACHE.hits
    misses_before = _WORKER_CACHE.misses
    plan = _WORKER_CACHE.get(task.query, fingerprint_hint=task.fingerprint)
    options = task.option_dict()
    if task.mode == MODE_TOP_K:
        payload = tuple(
            batch_top_k(
                plan,
                dict(task.items),
                options["k"],
                order=options.get("order"),
                allow_exponential=options.get("allow_exponential", False),
            )
        )
    elif task.mode == MODE_EVALUATE:
        payload = tuple(
            (
                name,
                tuple(
                    run_evaluate(
                        plan,
                        sequence,
                        order=options.get("order", "unranked"),
                        with_confidence=options.get("with_confidence", True),
                        limit=options.get("limit"),
                        allow_exponential=options.get("allow_exponential", False),
                        min_confidence=options.get("min_confidence"),
                    )
                ),
            )
            for name, sequence in task.items
        )
    elif task.mode == MODE_CONFIDENCE:
        output = options["output"]
        payload = tuple(
            (
                name,
                plan_confidence(
                    plan,
                    sequence,
                    output,
                    allow_exponential=options.get("allow_exponential", True),
                ),
            )
            for name, sequence in task.items
        )
    else:
        raise ReproError(f"unknown chunk mode {task.mode!r}")
    return ChunkResult(
        payload=payload,
        seconds=time.perf_counter() - start,
        cache_hits=_WORKER_CACHE.hits - hits_before,
        cache_misses=_WORKER_CACHE.misses - misses_before,
    )
