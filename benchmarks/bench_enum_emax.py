"""Experiment T2-E2: Table 2, ranked enumeration by E_max.

Paper claims (Theorem 4.3 + Section 4.2): polynomial-delay enumeration in
decreasing E_max; as an approximation of decreasing *confidence* its ratio
is ``|Sigma|^n`` worst-case — but it is worst-case optimal (Theorem 4.4).
Shapes reproduced: top-k delay scales polynomially with ``n``; one
Lawler–Murty pop costs one Viterbi pass whatever the popped answer's
length, where a pass per child costs a factor growing with ``|a|``; on
small random instances the E_max order's realized approximation ratio
(against the brute-force confidence order) is measured and sandwiched by
the bound.
"""

from __future__ import annotations

import random

from repro.markov.builders import random_sequence
from repro.confidence.brute_force import brute_force_answers
from repro.enumeration.constraints import PrefixConstraint, best_children, best_evidence
from repro.enumeration.emax import enumerate_emax, top_answer_emax
from repro.transducers.library import change_detector, collapse_transducer

from benchmarks.shape import assert_polynomialish, print_series, timed, timed_best

ALPHABET = tuple("abcd")
QUERY = collapse_transducer({"a": "X", "b": "X", "c": "Y", "d": "Y"})


def _take(iterator, k: int) -> list:
    out = []
    for item in iterator:
        out.append(item)
        if len(out) == k:
            break
    return out


def bench_emax_top10_vs_n(benchmark) -> None:
    rows, times = [], []
    for n in (8, 12, 16, 24):
        sequence = random_sequence(ALPHABET, n, random.Random(n))
        seconds = timed(lambda: _take(enumerate_emax(sequence, QUERY), 10))
        rows.append((n, seconds))
        times.append(seconds)
    print_series(
        "Theorem 4.3: top-10 by E_max vs n (polynomial delay)",
        ["n", "seconds for 10"],
        rows,
    )
    assert_polynomialish(times, 500)

    sequence = random_sequence(ALPHABET, 12, random.Random(0))
    benchmark(lambda: _take(enumerate_emax(sequence, QUERY), 5))


def bench_emax_per_pop_cost_vs_answer_length(benchmark) -> None:
    """One pop's children: one pass (``best_children``) vs a pass per child.

    The popped answer ``a`` is the top answer of the whole space, so it
    has ``|a| + 1`` candidate children. With emissions of length 0 and 1
    (``change_detector``) a child's pass tracks up to ``|w| + 2``
    progress values per layer, so a pass per child sums to about
    ``|a|^2 / 2`` of them against about ``2|a|`` in the one pass: the
    ratio must not shrink as ``|a|`` grows. Both sides return the same
    children and scores (checked before timing).
    """
    query = change_detector(ALPHABET)
    root = PrefixConstraint.unconstrained()
    rows, ratios = [], []
    for n in (6, 12, 24, 36):
        sequence = random_sequence(ALPHABET, n, random.Random(n))
        _score, answer, _world = best_evidence(sequence, query)

        def one_pass():
            return best_children(sequence, query, root, answer)

        def per_child():
            return [
                (child, found)
                for child in root.partition_after(answer)
                if (found := best_evidence(sequence, query, child)) is not None
            ]

        assert [(c, f[0]) for c, f in one_pass()] == [(c, f[0]) for c, f in per_child()]
        one_s = timed_best(one_pass)
        per_s = timed_best(per_child)
        rows.append((n, len(answer), one_s, per_s, per_s / one_s))
        ratios.append(per_s / one_s)
    print_series(
        "Theorem 4.3: one pop's children, one pass vs one pass per child",
        ["n", "|a|", "one pass s", "pass per child s", "ratio"],
        rows,
    )
    assert ratios[-1] >= ratios[0], ratios

    sequence = random_sequence(ALPHABET, 24, random.Random(24))
    _score, answer, _world = best_evidence(sequence, query)
    benchmark(best_children, sequence, query, root, answer)


def bench_emax_realized_approximation_ratio(benchmark) -> None:
    """Realized ratio of the E_max order vs the exact confidence order.

    ratio(k) = max over prefixes of length k of
               (best confidence still unprinted) / (printed confidence).
    The paper's guarantee is |Sigma|^n; realized ratios on random
    instances are far smaller, but the gap family of T2-I1 shows the
    bound is tight in the worst case.
    """
    rows = []
    worst = 1.0
    for seed in range(5):
        sequence = random_sequence(ALPHABET, 7, random.Random(seed), branching=2)
        confidences = brute_force_answers(sequence, QUERY)
        order = [answer for _s, answer in enumerate_emax(sequence, QUERY)]
        realized = 1.0
        remaining = dict(confidences)
        for answer in order:
            best_remaining = max(remaining.values())
            mine = confidences[answer]
            if mine > 0:
                realized = max(realized, best_remaining / mine)
            del remaining[answer]
        bound = len(ALPHABET) ** sequence.length
        rows.append((seed, len(order), realized, bound))
        worst = max(worst, realized)
        assert realized <= bound
    print_series(
        "Section 4.2: realized E_max-order approximation ratio (guarantee |Sigma|^n)",
        ["seed", "answers", "realized ratio", "guaranteed bound"],
        rows,
    )

    sequence = random_sequence(ALPHABET, 7, random.Random(1), branching=2)
    benchmark(top_answer_emax, sequence, QUERY)
