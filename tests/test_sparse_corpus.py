"""Guards for the seeded large-sparse corpus cases.

The corpus carries two shrinker-minimized regression instances for large
low-density machines: a 64-state, density-1/64 machine and a
failure-arc-heavy machine whose rows repeat 2:1. These tests pin their
presence, their structural properties (so a future re-shrink cannot
silently weaken them), and their clean replay through the full engine
matrix and the shrink-on/off relation.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from repro.oracle.differential import check_instance
from repro.oracle.metamorphic import check_shrink_swap
from repro.oracle.shrinker import load_corpus
from repro.runtime.plan import QueryPlan

CORPUS = Path(__file__).parent / "corpus"
LARGE_SPARSE = CORPUS / "deterministic-2207d8d5cb2e.json"
FAILURE_ARC = CORPUS / "deterministic-c16501b2184a.json"


def _case(path: Path):
    cases = dict(load_corpus(CORPUS))
    assert path in cases, f"missing seeded corpus case {path.name}"
    return cases[path]


def _density(transducer) -> Fraction:
    """Transition density ``nnz / (|Sigma| * |Q|^2)``."""
    nfa = transducer.nfa
    return Fraction(nfa.num_transitions, len(nfa.alphabet) * len(nfa.states) ** 2)


def _distinct_rows(transducer) -> int:
    """Number of distinct (targets, emissions) transition rows."""
    nfa = transducer.nfa
    symbols = sorted(nfa.alphabet, key=repr)
    return len(
        {
            tuple(
                (symbol, target, transducer.emission(state, symbol, target))
                for symbol in symbols
                for target in sorted(nfa.successors(state, symbol), key=repr)
            )
            for state in nfa.states
        }
    )


def test_large_sparse_case_shape() -> None:
    instance = _case(LARGE_SPARSE)
    assert instance.note == "large-sparse"
    nfa = instance.query.nfa
    assert len(nfa.states) >= 64
    assert _density(instance.query) < Fraction(1, 20)  # under 5%
    plan = QueryPlan.build(instance.query)
    assert plan.deterministic
    assert plan.push is not None


def test_failure_arc_case_shape() -> None:
    instance = _case(FAILURE_ARC)
    assert instance.note == "failure-arc-heavy"
    nfa = instance.query.nfa
    assert len(nfa.states) >= 64
    assert _density(instance.query) < Fraction(1, 20)
    # Half the rows repeat the other half.
    assert _distinct_rows(instance.query) <= len(nfa.states) // 2


def test_sparse_corpus_replays_clean() -> None:
    for path in (LARGE_SPARSE, FAILURE_ARC):
        instance = _case(path)
        result = check_instance(instance)
        assert result.diffs == [], f"{path.name}: {result.diffs}"
        swaps = check_shrink_swap(instance)
        assert swaps == [], f"{path.name}: {swaps}"
