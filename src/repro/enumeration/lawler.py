"""A generic Lawler–Murty ranked-enumeration engine.

The technique (Lawler 1972, Murty 1968 — also behind Yen's k-shortest
paths) reduces ranked enumeration to constrained optimization: keep a
priority queue of disjoint subspaces, each with its best answer
precomputed; repeatedly pop the globally best, output it, partition its
subspace around the output, and push each nonempty part with *its* best
answer. Because the parts are disjoint, every answer is produced exactly
once, and in decreasing score.

The engine is parameterized by the subspace type, by ``best`` (the seed
space's optimum) and by a ``children`` callback that answers every part
of a popped space at once. All parts are defined against the same popped
answer, so one optimization pass can often serve them together — the
prefix-constraint engines (Theorem 4.3) do exactly that. Callers whose
optimizer only answers one part at a time build ``children`` from
``best`` and a ``partition`` with :func:`each_part`; the test suite also
instantiates the engine with toy problems to check it in isolation.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterable, Iterator
from typing import Any, TypeVar

Space = TypeVar("Space")
Answer = TypeVar("Answer")


def each_part(
    best: Callable[[Space], tuple[Any, Answer] | None],
    partition: Callable[[Space, Answer], Iterable[Space]],
) -> Callable[[Space, Answer], Iterator[tuple[Space, tuple[Any, Answer]]]]:
    """The ``children`` callback that runs ``best`` once per part.

    ``partition`` maps ``(subspace, answer)`` to subspaces that are
    pairwise disjoint and cover the subspace minus the answer; parts for
    which ``best`` returns None (empty parts) are skipped.
    """

    def children(space: Space, answer: Answer) -> Iterator[tuple[Space, tuple[Any, Answer]]]:
        for part in partition(space, answer):
            found = best(part)
            if found is not None:
                yield part, found

    return children


def lawler_enumerate(
    initial: Space,
    best: Callable[[Space], tuple[Any, Answer] | None],
    children: Callable[[Space, Answer], Iterable[tuple[Space, tuple[Any, Answer]]]],
) -> Iterator[tuple[Any, Answer]]:
    """Enumerate answers in decreasing score.

    Parameters
    ----------
    initial:
        The whole answer space.
    best:
        Maps the initial space to its best ``(score, answer)``, or None
        when it is empty. Scores must be comparable; higher is better.
    children:
        Maps a popped ``(subspace, answer)`` to ``(part, (score,
        answer))`` pairs: the non-empty parts of a partition of the
        subspace minus the answer (pairwise disjoint, covering), each
        with its best answer.

    Yields
    ------
    ``(score, answer)`` pairs in non-increasing score order; equal scores
    come out in the order their parts were pushed. The delay per answer
    is one ``children`` call (plus logarithmic heap work) — one
    optimization pass when the callback answers every part together; the
    space grows linearly with the number of answers yielded so far,
    matching the paper's remark that Theorem 4.3 does not guarantee
    polynomial space.
    """
    counter = itertools.count()  # tie-breaker: heapq must never compare answers
    heap: list[tuple[Any, int, Space, Answer]] = []

    seed = best(initial)
    if seed is not None:
        score, answer = seed
        heapq.heappush(heap, (_neg(score), next(counter), initial, answer))

    while heap:
        neg_score, _tick, space, answer = heapq.heappop(heap)
        yield _neg(neg_score), answer
        for part, (part_score, part_answer) in children(space, answer):
            heapq.heappush(heap, (_neg(part_score), next(counter), part, part_answer))


def _neg(score):
    """Negate a score for min-heap ordering (works for float and Fraction)."""
    return -score
