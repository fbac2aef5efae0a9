"""The generic Lawler–Murty engine on a self-contained toy problem."""

from __future__ import annotations

import itertools
from fractions import Fraction

from repro.enumeration.lawler import each_part, lawler_enumerate

# Toy ranked-enumeration problem: enumerate all binary strings of length L
# by score = product of per-position weights, using prefix subspaces.

WEIGHTS = {
    "0": (Fraction(2, 3), Fraction(1, 2), Fraction(3, 5)),
    "1": (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)),
}
LENGTH = 3


def score(string: str) -> Fraction:
    result = Fraction(1)
    for i, bit in enumerate(string):
        result *= WEIGHTS[bit][i]
    return result


def best_in_prefix(prefix: str):
    """Best completion of a prefix (greedy works: positions independent)."""
    completion = prefix
    for i in range(len(prefix), LENGTH):
        completion += "0" if WEIGHTS["0"][i] >= WEIGHTS["1"][i] else "1"
    return score(completion), completion


def partition(prefix: str, answer: str):
    """Children: agree with the answer up to p, differ at p."""
    children = []
    for p in range(len(prefix), LENGTH):
        flipped = answer[:p] + ("1" if answer[p] == "0" else "0")
        children.append(flipped)
    return children


CHILDREN = each_part(best_in_prefix, partition)


def test_enumerates_all_in_decreasing_score() -> None:
    results = list(lawler_enumerate("", best_in_prefix, CHILDREN))
    produced = [answer for _s, answer in results]
    assert sorted(produced) == sorted(
        "".join(bits) for bits in itertools.product("01", repeat=LENGTH)
    )
    scores = [s for s, _a in results]
    assert scores == sorted(scores, reverse=True)
    for s, answer in results:
        assert s == score(answer)


def test_no_duplicates() -> None:
    produced = [a for _s, a in lawler_enumerate("", best_in_prefix, CHILDREN)]
    assert len(produced) == len(set(produced))


def test_empty_space() -> None:
    def nothing(_space):
        return None

    assert list(lawler_enumerate("", nothing, each_part(nothing, partition))) == []


def test_prefix_lazy_top_k() -> None:
    iterator = lawler_enumerate("", best_in_prefix, CHILDREN)
    top2 = [next(iterator) for _ in range(2)]
    all_scores = sorted(
        (score("".join(bits)) for bits in itertools.product("01", repeat=LENGTH)),
        reverse=True,
    )
    assert [s for s, _a in top2] == all_scores[:2]


def test_ties_are_all_emitted() -> None:
    def best(space):
        # Two answers with equal score in a flat space encoded as a set.
        items = sorted(space)
        if not items:
            return None
        return 1, items[0]

    def split(space, answer):
        return [frozenset(space) - {answer}]

    results = list(lawler_enumerate(frozenset({"x", "y"}), best, each_part(best, split)))
    assert [a for _s, a in results] == ["x", "y"]
