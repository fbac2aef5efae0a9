"""Semirings shared by the dynamic programs in this library.

Every algorithm in the paper is a dynamic program over a layered product
graph; what varies is the *semiring* in which path weights are combined:

* confidence computation (Theorems 4.6, 4.8, 5.5, 5.8) sums over worlds —
  the **real** (probability) semiring;
* best-evidence scores ``E_max`` and ``I_max`` (Theorems 4.3, 5.2) maximize
  over worlds — the **Viterbi** (max-times) semiring;
* answer-space emptiness tests (Theorem 4.1) only need reachability with
  positive probability — the **boolean** semiring;
* counting accepting runs (the #P connection of Proposition 4.7) — the
  **counting** semiring.

A semiring here is a small object with ``zero``, ``one``, ``add`` and
``mul``. The real and Viterbi semirings are value-type agnostic: they work
equally with ``float`` and with exact :class:`fractions.Fraction` entries,
which is how the library offers exact rational arithmetic (the paper's
convention, Section 3.2) without a parallel code path. Every other
semiring carries a ``lift`` that maps a probability into its carrier;
:meth:`Semiring.lift_sequence` applies it once per DP call, so the same
recursion runs in log space for sequences whose world probabilities
underflow IEEE doubles, decides reachability in ``BOOLEAN`` and counts
positive-probability worlds in ``COUNTING``.

Exact ``REAL`` DPs keep their layers as integer numerators over one
common denominator: :func:`scale_rows` lifts one timestep's rows (a
Markov sequence keeps each row's lift, see
:meth:`~repro.markov.sequence.MarkovSequence.scaled_rows`),
:func:`scale_layer` lifts a ``Fraction`` layer, and
:func:`unscale_layer` divides back, so both a growing stream's appends
and a from-scratch ``final_layer`` run ``REAL`` on ``int``s without a
``gcd`` per cell.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Generic, TypeVar

if TYPE_CHECKING:
    from repro.markov.sequence import MarkovSequence

T = TypeVar("T")

#: A Markov sequence as a layered DP reads it: the initial weights and,
#: per transition, ``{source: {target: weight}}``.
Weights = tuple[
    Mapping[Hashable, Any],
    Sequence[Mapping[Hashable, Mapping[Hashable, Any]]],
]


class Semiring(Generic[T]):
    """A commutative semiring ``(T, add, mul, zero, one)``.

    Parameters
    ----------
    name:
        Human-readable name used in ``repr``.
    zero, one:
        Additive and multiplicative identities.
    add, mul:
        Binary operations. Both must be associative and commutative, with
        ``mul`` distributing over ``add``.
    is_zero:
        Optional predicate recognizing the additive identity; defaults to
        equality with ``zero``.
    lift:
        Optional map from a probability to a semiring value; ``None``
        means probabilities are semiring values as they are (``REAL``
        and ``VITERBI``).
    """

    __slots__ = ("name", "zero", "one", "add", "mul", "_is_zero", "lift")

    def __init__(
        self,
        name: str,
        zero: T,
        one: T,
        add: Callable[[T, T], T],
        mul: Callable[[T, T], T],
        is_zero: Callable[[T], bool] | None = None,
        lift: Callable[[Any], T] | None = None,
    ) -> None:
        self.name = name
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self._is_zero = is_zero if is_zero is not None else (lambda x: x == zero)
        self.lift = lift

    def is_zero(self, value: T) -> bool:
        """Return True if ``value`` is the additive identity."""
        return self._is_zero(value)

    def sum(self, values: Iterable[T]) -> T:
        """Fold ``add`` over an iterable of values (empty sum is ``zero``)."""
        total = self.zero
        for value in values:
            total = self.add(total, value)
        return total

    def product(self, values: Iterable[T]) -> T:
        """Fold ``mul`` over an iterable of values (empty product is ``one``)."""
        total = self.one
        for value in values:
            total = self.mul(total, value)
        return total

    def lift_sequence(self, sequence: MarkovSequence) -> Weights:
        """``(initial, transitions)`` of ``sequence`` with weights in this semiring.

        ``initial`` maps each node to its weight and ``transitions[i - 1]``
        maps each source node to ``{target: weight}`` for transition ``i``
        — the plain dicts a layered DP reads per cell. Without a lift
        they hold the sequence's own probabilities (read-only); with one,
        every probability is lifted exactly once here, before the DP runs.
        """
        lift = self.lift
        steps = range(1, sequence.length)
        if lift is None:
            return dict(sequence.initial_support()), [sequence.transition_rows(i) for i in steps]
        initial = {symbol: lift(prob) for symbol, prob in sequence.initial_support()}
        transitions = [
            {
                source: {target: lift(prob) for target, prob in row.items()}
                for source, row in sequence.transition_rows(i).items()
            }
            for i in steps
        ]
        return initial, transitions

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Semiring({self.name})"


#: One timestep's rows as ``(numerators, denominator)`` (:func:`scale_rows`).
ScaledRows = tuple[dict, int]


def _common_denominator(values: Iterable[Any]) -> int | None:
    """The lcm of the denominators of exact ``values``; None if one is a float."""
    denominators = set()
    for value in values:
        if not isinstance(value, (int, Fraction)):
            return None
        denominators.add(value.denominator)
    return math.lcm(*denominators)


def _numerators(values: Mapping[Hashable, Any], scale: int) -> dict:
    """The nonzero exact ``values`` as integer numerators over ``scale``."""
    return {
        key: value.numerator * (scale // value.denominator)
        for key, value in values.items()
        if value
    }


def scale_rows(
    rows: Mapping[Hashable, Mapping[Hashable, Any]],
) -> ScaledRows | None:
    """One timestep's rows as integer numerators over one common denominator.

    Returns ``(numerators, denominator)`` with every weight ``w`` equal
    to ``numerators[source][target] / denominator``; zero weights are
    dropped. An incremental engine keeps its layer as numerators over a
    running denominator (the *scale*), so pushing it across these rows
    is integer arithmetic and the scale is multiplied by
    ``denominator``: no ``gcd`` per cell. None when a weight is a
    float, whose arithmetic stays as it is.
    """
    denominator = _common_denominator(
        weight for row in rows.values() for weight in row.values()
    )
    if denominator is None:
        return None
    return {
        source: _numerators(row, denominator) for source, row in rows.items()
    }, denominator


def scale_layer(layer: Mapping[Hashable, Any]) -> tuple[dict, int | None]:
    """``(numerators, scale)`` of an exact layer, lifted as :func:`scale_rows`
    lifts rows. A layer holding a float is copied as it is, with scale None."""
    scale = _common_denominator(layer.values())
    if scale is None:
        return dict(layer), None
    return _numerators(layer, scale), scale


def unscale_layer(layer: Mapping[Hashable, Any], scale: int | None) -> dict:
    """The values of a layer of numerators over ``scale``, as canonical
    ``Fraction``s; a layer without a scale is copied as it is."""
    if scale is None:
        return dict(layer)
    return {cell: Fraction(value, scale) for cell, value in layer.items()}


def _log_add(x: float, y: float) -> float:
    """Numerically stable ``log(exp(x) + exp(y))``."""
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def _log_lift(prob: Any) -> float:
    """``log(prob)``, taken without rounding an exact rational to a double.

    ``float(Fraction(1, 10**400))`` is ``0.0``, whose log is ``-inf``;
    the log of numerator and denominator separately keeps the true
    magnitude (``-921.03...``).
    """
    if prob <= 0:
        return -math.inf
    if isinstance(prob, Fraction):
        return math.log(prob.numerator) - math.log(prob.denominator)
    return math.log(prob)


#: Probability semiring: (R>=0, +, *, 0, 1). Works with float and Fraction.
REAL: Semiring[Any] = Semiring("real", 0, 1, operator.add, operator.mul)

#: Viterbi semiring: (R>=0, max, *, 0, 1). Used for E_max / I_max scores.
VITERBI: Semiring[Any] = Semiring("viterbi", 0, 1, max, operator.mul)

#: Log semiring: (R u {-inf}, logaddexp, +, -inf, 0). Float-only; lifts
#: probabilities to natural logs.
LOG: Semiring[float] = Semiring(
    "log", -math.inf, 0.0, _log_add, operator.add, lift=_log_lift
)

#: Tropical (max-plus) semiring in log space: Viterbi scores as log-probs.
TROPICAL: Semiring[float] = Semiring(
    "tropical", -math.inf, 0.0, max, operator.add, lift=_log_lift
)

#: Boolean semiring: reachability / emptiness tests; lifts a probability
#: to whether it is positive.
BOOLEAN: Semiring[bool] = Semiring(
    "boolean", False, True, lambda a, b: a or b, lambda a, b: a and b, lift=bool
)

#: Counting semiring over the naturals: number of accepting runs. Every
#: positive probability lifts to one path, so a lifted DP counts the
#: worlds (deterministic machine) or runs with positive probability.
COUNTING: Semiring[int] = Semiring(
    "counting", 0, 1, operator.add, operator.mul, lift=lambda prob: int(prob != 0)
)


ALL_SEMIRINGS: tuple[Semiring[Any], ...] = (REAL, VITERBI, LOG, TROPICAL, BOOLEAN, COUNTING)
