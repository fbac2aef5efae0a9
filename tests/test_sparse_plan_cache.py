"""Worker-cache soundness for shrunk plans.

Workers receive the raw query plus its fingerprint and rebuild the plan
in a worker-local cache; the rebuilt plan must carry the same shrunk
machine and weight-pushing table as the parent's, so a chunk computes
bit-identical confidences, and a replayed chunk is a pure cache hit.
"""

from __future__ import annotations

import random

from repro.confidence.deterministic import confidence_deterministic
from repro.oracle.generators import make_fraction_sequence, make_sparse_transducer
from repro.parallel.worker import (
    MODE_CONFIDENCE,
    execute_chunk,
    make_task,
    worker_plan_cache,
)
from repro.runtime.plan import QueryPlan


def test_worker_cache_honors_shipped_representation() -> None:
    rng = random.Random("sparse-worker-cache")
    query = make_sparse_transducer(num_states=64)
    sequence = make_fraction_sequence(sorted(query.nfa.alphabet), 3, rng)
    answers = list(confidence_for_probe(query, sequence))
    output = answers[0]
    want = confidence_deterministic(sequence, query, output)

    plan = QueryPlan.build(query)
    worker_cache = worker_plan_cache()
    worker_cache.clear()

    task = make_task(
        MODE_CONFIDENCE,
        plan,
        [("stream-0", sequence)],
        output=output,
        allow_exponential=True,
    )
    result = execute_chunk(task)
    ((name, value),) = result.payload
    assert name == "stream-0"
    assert value == want

    # The worker rebuilt the parent's plan: same key, same shrunk machine.
    assert len(worker_cache) == 1
    (rebuilt,) = worker_cache._plans.values()
    assert rebuilt.fingerprint == plan.fingerprint
    assert rebuilt.push == plan.push
    assert rebuilt.execution.nfa.states == plan.execution.nfa.states
    # Replaying the task is a pure hit: no second plan appears.
    execute_chunk(
        make_task(
            MODE_CONFIDENCE,
            plan,
            [("stream-1", sequence)],
            output=output,
            allow_exponential=True,
        )
    )
    assert len(worker_cache) == 1
    worker_cache.clear()


def confidence_for_probe(query, sequence):
    """A deterministic, non-empty probe answer set for the worker test."""
    from repro.confidence.brute_force import brute_force_answers

    answers = brute_force_answers(sequence, query)
    assert answers, "probe sequence produced no answers"
    return sorted(answers)
