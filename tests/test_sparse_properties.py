"""Hypothesis properties for the shrink pass and the push filter on moves.

Two families, mirroring the exactness story of the dense paths:

1. Shrinking (trim + weight pushing) preserves the exact ``Fraction``
   confidence of every answer when the DP runs on the shrunk machine
   with the push filter — checked against the brute force world
   enumeration, zero tolerance.
2. A :class:`StreamingEvaluator` on the shrunk (default) plan appends
   bit-identically per timestep to a replay on the unshrunk plan.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence.brute_force import brute_force_answers
from repro.confidence.deterministic import confidence_deterministic
from repro.oracle.generators import make_sparse_transducer
from repro.runtime.incremental import StreamingEvaluator
from repro.runtime.plan import QueryPlan
from repro.runtime.shrink import shrink_transducer
from tests.conftest import (
    make_fraction_sequence,
    make_fraction_timestep,
    make_random_deterministic_transducer,
    make_random_uniform_deterministic_transducer,
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_shrink_preserves_exact_fractions(seed: int) -> None:
    """Pruning + pushing never changes any answer's exact confidence."""
    rng = random.Random(seed)
    transducer = make_random_deterministic_transducer("ab", rng.randint(2, 5), rng)
    sequence = make_fraction_sequence("ab", rng.randint(1, 3), rng)
    shrunk, push, _report = shrink_transducer(transducer)
    reference = brute_force_answers(sequence, transducer)
    for answer, want in reference.items():
        got = confidence_deterministic(sequence, shrunk, answer, push=push)
        assert type(got) in (int, Fraction)
        assert got == want
    # A certainly-absent answer stays exactly zero after shrinking.
    assert confidence_deterministic(sequence, shrunk, ("x",) * 11, push=push) == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_shrink_preserves_uniform_fast_path(seed: int) -> None:
    """The k-uniform output-length shortcut is exact under shrinking too."""
    rng = random.Random(seed)
    transducer = make_random_uniform_deterministic_transducer(
        "ab", rng.randint(2, 5), rng, k=rng.randint(1, 2)
    )
    sequence = make_fraction_sequence("ab", rng.randint(1, 3), rng)
    shrunk, push, _report = shrink_transducer(transducer)
    assert shrunk.uniformity() is not None
    for answer, want in brute_force_answers(sequence, transducer).items():
        assert confidence_deterministic(sequence, shrunk, answer, push=push) == want


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), steps=st.integers(1, 3))
def test_streaming_sparse_matches_dense_per_timestep(seed: int, steps: int) -> None:
    """Shrunk and unshrunk evaluators agree bit-for-bit after every append."""
    rng = random.Random(seed)
    transducer = make_sparse_transducer(num_states=64, seed=seed % 7)
    alphabet = sorted(transducer.nfa.alphabet)
    sequence = make_fraction_sequence(alphabet, 2, rng)
    shrunk_plan = QueryPlan.build(transducer)
    plain_plan = QueryPlan.build(transducer, shrink=False)
    assert shrunk_plan.shrunk is not None
    assert plain_plan.shrunk is None
    shrunk_eval = StreamingEvaluator(shrunk_plan, sequence)
    plain_eval = StreamingEvaluator(plain_plan, sequence)
    assert shrunk_eval.confidences() == plain_eval.confidences()
    for _ in range(steps):
        timestep = make_fraction_timestep(alphabet, rng)
        got = shrunk_eval.append(timestep)
        want = plain_eval.append(timestep)
        assert got == want
        for value in got.values():
            assert type(value) in (int, Fraction)
