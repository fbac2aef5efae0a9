"""The Markov-sequence data model (Section 3.1, Equation (1)).

A Markov sequence ``mu`` of length ``n`` over a finite node set ``Sigma``
consists of an initial distribution ``mu_{0->} : Sigma -> [0,1]`` and, for
each ``1 <= i < n``, a transition function ``mu_{i->} : Sigma x Sigma ->
[0,1]`` whose rows each sum to one. It defines the probability space over
``Sigma^n`` in which a string ``s = s_1 ... s_n`` has probability

    p(s) = mu_{0->}(s_1) * prod_{i=1}^{n-1} mu_{i->}(s_i, s_{i+1}).

Probabilities may be ``float`` (validated within a tolerance) or exact
rationals (``fractions.Fraction`` / ``int``, validated exactly), matching
the paper's convention that probabilities are rational numbers.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction

from repro.errors import InvalidDistributionError, InvalidMarkovSequenceError
from repro.semiring import ScaledRows, _common_denominator, _numerators, scale_rows

Symbol = Hashable
Number = float | int | Fraction

# Fallback seed for sample() when no rng is supplied: sha256-derived so
# the default draw is reproducible (RX03 seed discipline). Callers that
# want independent draws pass their own seeded rng.
_DEFAULT_SAMPLE_SEED = int.from_bytes(
    hashlib.sha256(b"repro.markov.sequence.sample").digest()[:8], "big"
)

_FLOAT_TOLERANCE = 1e-9

# Marks a row lift not computed yet (None is taken: it is the lift of a
# row that holds a float).
_UNLIFTED = object()

# The slots pickling and copying carry; the lift is derived from them.
_STATE_SLOTS = ("symbols", "_index", "_initial", "_transitions", "length")


def _check_distribution(dist: Mapping[Symbol, Number], context: str) -> None:
    scale = _common_denominator(dist.values())
    if scale is not None:
        # Exact rows: integer numerators over the lcm of the denominators,
        # so the sum pays no ``gcd`` per entry.
        numerators = _numerators(dist, scale)
        for symbol, numerator in numerators.items():
            if numerator < 0 or numerator > scale:
                raise InvalidDistributionError(
                    f"{context}: probability {dist[symbol]!r} outside [0, 1]"
                )
        mass = sum(numerators.values())
        if mass != scale:
            raise InvalidDistributionError(
                f"{context}: probabilities sum to {Fraction(mass, scale)}, not 1"
            )
        return
    total: Number = 0
    exact = True
    for value in dist.values():
        if isinstance(value, float):
            exact = False
        if value < 0 or value > 1:
            raise InvalidDistributionError(f"{context}: probability {value!r} outside [0, 1]")
        total = total + value
    if exact:
        if total != 1:
            raise InvalidDistributionError(f"{context}: probabilities sum to {total}, not 1")
    elif abs(total - 1.0) > _FLOAT_TOLERANCE:
        raise InvalidDistributionError(f"{context}: probabilities sum to {total}, not 1")


class MarkovSequence:
    """A time-inhomogeneous Markov chain of fixed length over a finite node set.

    Parameters
    ----------
    symbols:
        The node set ``Sigma_mu`` (iteration order fixes a canonical order).
    initial:
        Mapping from symbols to initial probabilities ``mu_{0->}``. Symbols
        that are absent get probability zero.
    transitions:
        A sequence of ``n - 1`` transition functions; element ``i`` (0-based)
        is the paper's ``mu_{(i+1)->}`` and maps each source symbol to a
        distribution over successor symbols. A missing source row denotes an
        *explicitly invalid* sequence unless ``validate=False`` — the paper
        requires every row to sum to one.
    validate:
        Verify all stochasticity constraints (default True).
    """

    # __weakref__ lets per-stream derived data (e.g. the vectorized batch
    # DP's gathered probability tensors) be cached weakly off the sequence.
    # _lifted is the kept lift of every row (scaled_rows, keep_lift): None
    # until a from-scratch read asks for it, () if the initial row holds a
    # float, else a list filled on demand. _last_lift is the newest row's
    # lift while no list is kept, so evaluators advancing to this sequence
    # share it.
    __slots__ = (*_STATE_SLOTS, "_lifted", "_last_lift", "__weakref__")

    def __init__(
        self,
        symbols: Iterable[Symbol],
        initial: Mapping[Symbol, Number],
        transitions: Sequence[Mapping[Symbol, Mapping[Symbol, Number]]],
        validate: bool = True,
    ) -> None:
        self.symbols: tuple[Symbol, ...] = tuple(dict.fromkeys(symbols))
        self._index: dict[Symbol, int] = {s: i for i, s in enumerate(self.symbols)}
        self.length: int = len(transitions) + 1
        self._lifted: list | tuple | None = None
        self._last_lift: object = _UNLIFTED
        symbol_set = set(self.symbols)

        self._initial: dict[Symbol, Number] = {
            s: p for s, p in initial.items() if p != 0
        }
        self._transitions: tuple[dict[Symbol, dict[Symbol, Number]], ...] = tuple(
            {
                source: {t: p for t, p in row.items() if p != 0}
                for source, row in step.items()
            }
            for step in transitions
        )

        if validate:
            if not self.symbols:
                raise InvalidMarkovSequenceError("empty node set")
            unknown = set(self._initial) - symbol_set
            if unknown:
                raise InvalidMarkovSequenceError(f"initial uses unknown symbols {unknown!r}")
            _check_distribution(self._initial, "initial distribution")
            for i, step in enumerate(self._transitions):
                for source in self.symbols:
                    row = step.get(source)
                    if row is None:
                        raise InvalidMarkovSequenceError(
                            f"transition {i + 1}: missing row for source {source!r}"
                        )
                    unknown = set(row) - symbol_set
                    if unknown:
                        raise InvalidMarkovSequenceError(
                            f"transition {i + 1}: unknown successors {unknown!r}"
                        )
                    _check_distribution(row, f"transition {i + 1}, source {source!r}")

    # ------------------------------------------------------------------
    # Basic accessors (paper notation: mu_{0->}, mu_{i->})
    # ------------------------------------------------------------------

    def initial_prob(self, symbol: Symbol) -> Number:
        """``mu_{0->}(symbol)``."""
        return self._initial.get(symbol, 0)

    def transition_prob(self, i: int, source: Symbol, target: Symbol) -> Number:
        """``mu_{i->}(source, target)`` for ``1 <= i < n`` (paper indexing)."""
        if not 1 <= i < self.length:
            raise IndexError(f"transition index {i} outside [1, {self.length - 1}]")
        return self._transitions[i - 1].get(source, {}).get(target, 0)

    def initial_support(self) -> Iterator[tuple[Symbol, Number]]:
        """Nonzero entries of the initial distribution."""
        yield from self._initial.items()

    def successors(self, i: int, source: Symbol) -> Iterator[tuple[Symbol, Number]]:
        """Nonzero successors ``(target, mu_{i->}(source, target))``."""
        if not 1 <= i < self.length:
            raise IndexError(f"transition index {i} outside [1, {self.length - 1}]")
        yield from self._transitions[i - 1].get(source, {}).items()

    def transition_rows(self, i: int) -> Mapping[Symbol, Mapping[Symbol, Number]]:
        """The sparse row dicts of ``mu_{i->}`` (``1 <= i < n``), keyed by
        source symbol. Read-only: bulk consumers (the vectorized batch DP)
        iterate it directly instead of paying one :meth:`successors`
        generator per (position, source) pair."""
        if not 1 <= i < self.length:
            raise IndexError(f"transition index {i} outside [1, {self.length - 1}]")
        return self._transitions[i - 1]

    def scaled_rows(self, i: int) -> ScaledRows | None:
        """Row ``i`` as integer numerators over one denominator
        (:func:`~repro.semiring.scale_rows`), or None if it holds a float.

        Row 0 is the virtual initial row ``{None: initial}`` and row
        ``i >= 1`` is ``mu_{i->}``, so a layered DP reads rows
        ``0 .. n-1`` in order. Once the sequence keeps its lift
        (:meth:`keep_lift`) each row is lifted on first use and kept, and
        :meth:`extended` hands the kept rows on. Until then only the
        newest row's lift is kept, so every evaluator that absorbs an
        appended timestep shares one lift of it; older rows are lifted
        afresh.
        """
        if not 0 <= i < self.length:
            raise IndexError(f"row index {i} outside [0, {self.length - 1}]")
        # Reads on other threads may lift a row twice or miss another's
        # list; every lift of a row is equal, so no lock is needed.
        lifted = self._lifted
        if lifted:
            entry = lifted[i]
            if entry is _UNLIFTED:
                entry = lifted[i] = self._lift(i)
            return entry
        if i < self.length - 1:
            return self._lift(i)
        entry = self._last_lift
        if entry is _UNLIFTED:
            entry = self._last_lift = self._lift(i)
        return entry

    def _lift(self, i: int) -> ScaledRows | None:
        return scale_rows({None: self._initial} if i == 0 else self._transitions[i - 1])

    @property
    def keeps_lift(self) -> bool:
        """Whether :meth:`scaled_rows` keeps every row's lift (see
        :meth:`keep_lift`)."""
        return bool(self._lifted)

    def keep_lift(self) -> None:
        """Keep every row's lift from now on, for the DPs that read the
        sequence from scratch (``layered.final_layer`` asks after its first
        read). Rows are still lifted on first use. A sequence whose initial
        row holds a float keeps none: its DPs never run on numerators.
        """
        if self._lifted is not None:
            return
        first = self.scaled_rows(0)
        if first is None:
            self._lifted = ()
            return
        lifted = [_UNLIFTED] * self.length
        lifted[-1] = self._last_lift
        lifted[0] = first
        self._lifted = lifted

    def predecessors(self, i: int, target: Symbol) -> Iterator[tuple[Symbol, Number]]:
        """Nonzero predecessors ``(source, mu_{i->}(source, target))``."""
        if not 1 <= i < self.length:
            raise IndexError(f"transition index {i} outside [1, {self.length - 1}]")
        for source, row in self._transitions[i - 1].items():
            prob = row.get(target, 0)
            if prob != 0:
                yield source, prob

    @property
    def alphabet(self) -> frozenset[Symbol]:
        """The node set as a frozenset (for automata alphabet checks)."""
        return frozenset(self.symbols)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MarkovSequence(n={self.length}, symbols={len(self.symbols)})"

    def __getstate__(self) -> dict:
        # Pickles and copies leave the lift out; it is re-filled on demand.
        return {slot: getattr(self, slot) for slot in _STATE_SLOTS}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lifted = None
        self._last_lift = _UNLIFTED

    # ------------------------------------------------------------------
    # Probability-space semantics (Equation (1))
    # ------------------------------------------------------------------

    def prob_of(self, world: Sequence[Symbol]) -> Number:
        """Probability of the string ``world`` under Equation (1)."""
        if len(world) != self.length:
            raise InvalidMarkovSequenceError(
                f"world length {len(world)} != sequence length {self.length}"
            )
        prob: Number = self.initial_prob(world[0])
        for i in range(1, self.length):
            if prob == 0:
                return 0
            prob = prob * self.transition_prob(i, world[i - 1], world[i])
        return prob

    def worlds(self) -> Iterator[tuple[tuple[Symbol, ...], Number]]:
        """Enumerate the support: all worlds with positive probability.

        Yields ``(string, probability)`` pairs by depth-first traversal of
        the nonzero transition structure. Exponential in ``n`` — intended as
        the brute-force oracle for tests and small benchmarks only.
        """
        stack: list[tuple[tuple[Symbol, ...], Number]] = [
            ((symbol,), prob) for symbol, prob in self._initial.items()
        ]
        while stack:
            prefix, prob = stack.pop()
            if len(prefix) == self.length:
                yield prefix, prob
                continue
            i = len(prefix)
            for target, step_prob in self.successors(i, prefix[-1]):
                stack.append((prefix + (target,), prob * step_prob))

    def support_size(self) -> int:
        """Number of worlds with positive probability (computed by DP)."""
        counts: dict[Symbol, int] = {s: 1 for s in self._initial}
        for i in range(1, self.length):
            nxt: dict[Symbol, int] = {}
            for source, count in counts.items():
                for target, _prob in self.successors(i, source):
                    nxt[target] = nxt.get(target, 0) + count
            counts = nxt
        return sum(counts.values())

    def marginals(self) -> list[dict[Symbol, Number]]:
        """Forward marginals ``Pr(S_i = s)`` for each position ``i``."""
        current: dict[Symbol, Number] = dict(self._initial)
        result = [dict(current)]
        for i in range(1, self.length):
            nxt: dict[Symbol, Number] = {}
            for source, mass in current.items():
                for target, prob in self.successors(i, source):
                    nxt[target] = nxt.get(target, 0) + mass * prob
            current = nxt
            result.append(dict(current))
        return result

    def sample(self, rng: random.Random | None = None) -> tuple[Symbol, ...]:
        """Draw one world from the distribution.

        Without an ``rng`` the draw uses a fixed derived seed and is the
        same on every call — pass a seeded ``random.Random`` to get an
        independent stream.
        """
        rng = rng if rng is not None else random.Random(_DEFAULT_SAMPLE_SEED)
        world = [self._draw(self._initial, rng)]
        for i in range(1, self.length):
            row = self._transitions[i - 1].get(world[-1], {})
            world.append(self._draw(row, rng))
        return tuple(world)

    @staticmethod
    def _draw(dist: Mapping[Symbol, Number], rng: random.Random) -> Symbol:
        items = list(dist.items())
        if not items:
            raise InvalidMarkovSequenceError("sampling from an empty distribution row")
        point = rng.random() * float(sum(p for _s, p in items))
        acc = 0.0
        for symbol, prob in items:
            acc += float(prob)
            if point <= acc:
                return symbol
        return items[-1][0]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def map_values(self, fn) -> "MarkovSequence":
        """Apply ``fn`` to every probability (e.g. Fraction → float)."""
        initial = {s: fn(p) for s, p in self._initial.items()}
        transitions = [
            {
                source: {t: fn(p) for t, p in row.items()}
                for source, row in self._transitions[i].items()
            }
            for i in range(self.length - 1)
        ]
        # Ensure every row exists after mapping (rows of unreachable sources
        # may have been dropped only if they were empty, which validation
        # forbids, so this is safe).
        return MarkovSequence(self.symbols, initial, transitions)

    def as_float(self) -> "MarkovSequence":
        """Convert all probabilities to floats."""
        return self.map_values(float)

    def as_fraction(self) -> "MarkovSequence":
        """Convert all probabilities to exact fractions (floats are
        converted via ``Fraction(value).limit_denominator(10**12)``)."""

        def convert(value: Number) -> Fraction:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            return Fraction(value).limit_denominator(10**12)

        initial = {s: convert(p) for s, p in self._initial.items()}
        transitions = []
        for i in range(self.length - 1):
            step = {}
            for source, row in self._transitions[i].items():
                converted = {t: convert(p) for t, p in row.items()}
                total = sum(converted.values())
                if total != 1:
                    # Renormalize the largest entry so rows stay exactly
                    # stochastic after float → Fraction conversion.
                    top = max(converted, key=lambda t: converted[t])
                    converted[top] = converted[top] + (1 - total)
                step[source] = converted
            transitions.append(step)
        total = sum(initial.values())
        if initial and total != 1:
            top = max(initial, key=lambda s: initial[s])
            initial[top] = initial[top] + (1 - total)
        return MarkovSequence(self.symbols, initial, transitions)

    def extended(
        self, transition: Mapping[Symbol, Mapping[Symbol, Number]]
    ) -> "MarkovSequence":
        """Append one timestep: the length-``n+1`` sequence whose new
        transition function ``mu_{n->}`` is ``transition``.

        Only the appended transition function is validated — the existing
        ``n - 1`` functions were validated at construction and are shared
        (they are never mutated), so appending is O(|transition|) plus a
        pointer copy of the transition tuple. This is the primitive under
        the Lahar-style append-to-stream API and the streaming evaluator.
        A kept lift (:meth:`keep_lift`) is handed on too, so the grown
        sequence lifts only what is new to it.
        """
        symbol_set = set(self.symbols)
        step: dict[Symbol, dict[Symbol, Number]] = {}
        for source in self.symbols:
            row = transition.get(source)
            if row is None:
                raise InvalidMarkovSequenceError(
                    f"appended transition: missing row for source {source!r}"
                )
            unknown = set(row) - symbol_set
            if unknown:
                raise InvalidMarkovSequenceError(
                    f"appended transition: unknown successors {unknown!r}"
                )
            _check_distribution(row, f"appended transition, source {source!r}")
            step[source] = {t: p for t, p in row.items() if p != 0}
        unknown = set(transition) - symbol_set
        if unknown:
            raise InvalidMarkovSequenceError(
                f"appended transition: unknown sources {unknown!r}"
            )
        grown = object.__new__(MarkovSequence)
        grown.symbols = self.symbols
        grown._index = self._index
        grown.length = self.length + 1
        grown._initial = self._initial
        grown._transitions = self._transitions + (step,)
        lifted = self._lifted
        grown._lifted = lifted + [_UNLIFTED] if lifted else lifted
        grown._last_lift = _UNLIFTED
        return grown

    def concat_independent(self, other: "MarkovSequence") -> "MarkovSequence":
        """Concatenate two Markov sequences as independent blocks.

        The result has length ``len(self) + len(other)``; the transition
        from the last position of ``self`` into the first position of
        ``other`` ignores the source node and equals ``other``'s initial
        distribution. This is the amplification construction of
        Section 4.2 (concatenating copies of a Markov sequence).
        """
        if self.symbols != other.symbols:
            raise InvalidMarkovSequenceError("concatenation requires identical node sets")
        bridge = {source: dict(other._initial) for source in self.symbols}
        transitions = (
            [dict(step) for step in self._transitions]
            + [bridge]
            + [dict(step) for step in other._transitions]
        )
        return MarkovSequence(self.symbols, dict(self._initial), transitions)

    def power(self, copies: int) -> "MarkovSequence":
        """``copies`` independent copies of this sequence, concatenated."""
        if copies < 1:
            raise InvalidMarkovSequenceError("power requires at least one copy")
        result = self
        for _ in range(copies - 1):
            result = result.concat_independent(self)
        return result

    def window(self, start: int, end: int) -> "MarkovSequence":
        """The marginal Markov sequence of positions ``start..end`` (1-based,
        inclusive). Marginalizing a Markov chain onto a contiguous window
        yields a Markov chain: the initial distribution is the forward
        marginal at ``start`` and the transition functions are reused.
        """
        if not 1 <= start <= end <= self.length:
            raise InvalidMarkovSequenceError(
                f"window [{start}, {end}] outside [1, {self.length}]"
            )
        initial = self.marginals()[start - 1]
        transitions = [dict(step) for step in self._transitions[start - 1 : end - 1]]
        return MarkovSequence(self.symbols, initial, transitions)

    def prefix(self, length: int) -> "MarkovSequence":
        """The marginal Markov sequence of the first ``length`` positions."""
        if not 1 <= length <= self.length:
            raise InvalidMarkovSequenceError(
                f"prefix length {length} outside [1, {self.length}]"
            )
        return MarkovSequence(
            self.symbols,
            dict(self._initial),
            [dict(step) for step in self._transitions[: length - 1]],
        )
