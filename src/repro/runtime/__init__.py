"""The query runtime: planning, plan caching, and incremental execution.

The paper's motivating system (Lahar) is a *database*: one transducer
query is evaluated again and again — over many streams, and over streams
that grow one timestep at a time. This package separates the work that
depends only on the query (*planning*: class detection, compilation,
minimization, the Table-2 dispatch decision) from the work that depends
on the data (*execution*), so the former is paid once per query shape:

* :mod:`repro.runtime.plan` — :class:`QueryPlan`: classify a query once,
  compile and minimize its automaton artifacts, record which algorithm
  each enumeration order and the confidence computation will use, and
  expose a structural fingerprint.
* :mod:`repro.runtime.cache` — :class:`PlanCache`: a bounded LRU of
  plans keyed by fingerprint, with hit/miss/eviction counters.
* :mod:`repro.runtime.incremental` — :class:`StreamingEvaluator`: keeps
  the forward-DP frontier for one (stream, plan) pair so appending a
  timestep costs one DP layer instead of a from-scratch re-run, with
  checkpoint/rollback for sliding windows.
* :mod:`repro.runtime.executor` — plan-based evaluation, including batch
  top-k and batch confidence, which reuse one plan across many streams.
* :mod:`repro.runtime.stats` — per-plan timing and DP-cell counters.

:func:`repro.core.evaluate` and the Lahar database are thin shells over
this package.
"""

from repro.runtime.cache import PlanCache, default_plan_cache, plan_for
from repro.runtime.executor import batch_confidence, batch_top_k, run_evaluate, run_top_k
from repro.runtime.incremental import StreamingEvaluator
from repro.runtime.plan import PlanKind, QueryPlan
from repro.runtime.stats import PlanStats

__all__ = [
    "PlanCache",
    "PlanKind",
    "PlanStats",
    "QueryPlan",
    "StreamingEvaluator",
    "batch_confidence",
    "batch_top_k",
    "default_plan_cache",
    "plan_for",
    "run_evaluate",
    "run_top_k",
]
