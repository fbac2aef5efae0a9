"""Transducers with deterministic emission (Section 3.1.1).

A transducer ``A^omega`` is an NFA ``A`` plus an output function ``omega``
assigning to each transition triple ``(q, s, q')`` a string over the output
alphabet ``Delta``. The transducer transduces ``s`` into ``o`` if some
accepting run on ``s`` emits ``o`` as the concatenation of the per-step
emissions. Output strings are represented as tuples of output symbols.

Deterministic emission — "an emitted string is completely determined by the
state transition" — holds structurally: ``omega`` is a mapping keyed by the
transition triple.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import AlphabetMismatchError, InvalidTransducerError
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA

State = Hashable
Symbol = Hashable
OutSymbol = Hashable
Emission = tuple  # tuple[OutSymbol, ...]


class _Unset:
    """Marker for a memo slot whose value (possibly None) is not known yet."""


_UNSET = _Unset()


def _as_emission(value) -> Emission:
    """Normalize an emission to a tuple of output symbols.

    Strings are treated as sequences of character symbols, so
    ``omega[(q, s, q2)] = "ab"`` emits the two symbols ``'a'`` and ``'b'``.
    """
    if isinstance(value, tuple):
        return value
    if isinstance(value, str):
        return tuple(value)
    if isinstance(value, (list,)):
        return tuple(value)
    return (value,)


class Transducer:
    """A finite-state transducer ``A^omega`` with deterministic emission.

    Parameters
    ----------
    nfa:
        The underlying automaton ``A`` (an :class:`NFA`; pass
        ``dfa.to_nfa()`` or use :meth:`from_dfa` for deterministic ones).
    omega:
        Mapping from transition triples ``(q, s, q')`` to emissions. An
        emission may be a tuple of output symbols, a string (one symbol per
        character), or a single non-tuple value (a one-symbol emission).
        Triples that are absent emit the empty string.
    """

    __slots__ = (
        "nfa",
        "_omega",
        "_output_alphabet",
        "_move_cache",
        "_deterministic",
        "_uniformity",
        "_fingerprint",
    )

    def __init__(
        self,
        nfa: NFA,
        omega: Mapping[tuple[State, Symbol, State], object],
    ) -> None:
        self.nfa = nfa
        self._omega: dict[tuple[State, Symbol, State], Emission] = {}
        for (source, symbol, target), raw in omega.items():
            if source not in nfa.states or target not in nfa.states:
                raise InvalidTransducerError(
                    f"omega triple ({source!r}, {symbol!r}, {target!r}) uses unknown state"
                )
            if symbol not in nfa.alphabet:
                raise InvalidTransducerError(
                    f"omega triple uses symbol {symbol!r} outside the input alphabet"
                )
            emission = _as_emission(raw)
            if emission:
                self._omega[(source, symbol, target)] = emission
        symbols: dict[OutSymbol, None] = {}
        for emission in self._omega.values():
            for out in emission:
                symbols[out] = None
        self._output_alphabet: tuple[OutSymbol, ...] = tuple(symbols)
        self._move_cache: dict[tuple[State, Symbol], tuple] = {}
        # Class predicates, computed on first use: the machine is
        # immutable, and plan-time dispatch asks on every read.
        self._deterministic: bool | None = None
        self._uniformity: int | None | _Unset = _UNSET
        # The plan-cache key, filled by ``repro.runtime.plan.fingerprint``.
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------

    @property
    def input_alphabet(self) -> frozenset[Symbol]:
        """``Sigma_A``."""
        return self.nfa.alphabet

    @property
    def output_alphabet(self) -> tuple[OutSymbol, ...]:
        """``Delta_omega``: symbols occurring in the image of omega, in a
        fixed canonical order (used by enumeration algorithms)."""
        return self._output_alphabet

    @property
    def states(self) -> frozenset[State]:
        return self.nfa.states

    def emission(self, source: State, symbol: Symbol, target: State) -> Emission:
        """``omega(source, symbol, target)`` (empty tuple when unspecified)."""
        return self._omega.get((source, symbol, target), ())

    def moves(self, state: State, symbol: Symbol) -> tuple[tuple[State, Emission], ...]:
        """All ``(target, emission)`` moves from ``state`` on ``symbol``.

        Memoized per ``(state, symbol)`` pair — this is the innermost call
        of every dynamic program in the library.
        """
        key = (state, symbol)
        cached = self._move_cache.get(key)
        if cached is None:
            cached = tuple(
                (target, self.emission(state, symbol, target))
                for target in self.nfa.successors(state, symbol)
            )
            self._move_cache[key] = cached
        return cached

    def omega_dict(self) -> dict[tuple[State, Symbol, State], Emission]:
        """A copy of the (non-empty) emission mapping."""
        return dict(self._omega)

    # ------------------------------------------------------------------
    # Class predicates (Table 2's columns)
    # ------------------------------------------------------------------

    def is_deterministic(self) -> bool:
        """True if every ``delta(q, a)`` has at most one successor.

        The paper's DFAs are total (exactly one successor); a partial
        deterministic machine behaves identically to its sink-completion,
        and every algorithm keyed on determinism only needs "at most one
        run per input string", so we accept both. Memoized.
        """
        deterministic = self._deterministic
        if deterministic is None:
            deterministic = self._deterministic = all(
                len(self.nfa.successors(state, symbol)) <= 1
                for state in self.nfa.states
                for symbol in self.nfa.alphabet
            )
        return deterministic

    def is_selective(self) -> bool:
        """Selective means ``F != Q`` — the transducer filters inputs."""
        return self.nfa.accepting != self.nfa.states

    def uniformity(self) -> int | None:
        """Return ``k`` if omega is k-uniform on actual transitions, else None.

        The paper defines k-uniformity over all of ``Q x Sigma x Q``; for
        behaviour only the triples on real transitions matter, so those are
        what we check. A transducer with no transitions is 0-uniform.
        Memoized.
        """
        uniformity = self._uniformity
        if isinstance(uniformity, _Unset):
            lengths = {
                len(self.emission(source, symbol, target))
                for source, symbol, target in self.nfa.transitions()
            }
            if not lengths:
                uniformity = 0
            elif len(lengths) == 1:
                uniformity = next(iter(lengths))
            else:
                uniformity = None
            self._uniformity = uniformity
        return uniformity

    def is_uniform(self) -> bool:
        """True iff omega is k-uniform for some k."""
        return self.uniformity() is not None

    def is_mealy(self) -> bool:
        """Mealy machine: deterministic, non-selective, 1-uniform."""
        return self.is_deterministic() and not self.is_selective() and self.uniformity() == 1

    def is_projector(self) -> bool:
        """Projector: every emission is the input symbol itself or empty."""
        for source, symbol, target in self.nfa.transitions():
            if self.emission(source, symbol, target) not in ((), (symbol,)):
                return False
        return True

    def check_alphabet(self, alphabet: Iterable[Symbol]) -> None:
        """Raise unless ``Sigma_A`` equals the given Markov node set."""
        alphabet = frozenset(alphabet)
        if self.nfa.alphabet != alphabet:
            raise AlphabetMismatchError(
                f"transducer alphabet {sorted(map(repr, self.nfa.alphabet))} != "
                f"sequence alphabet {sorted(map(repr, alphabet))}"
            )

    # ------------------------------------------------------------------
    # Transduction
    # ------------------------------------------------------------------

    def transduce(self, string: Sequence[Symbol]) -> set[Emission]:
        """All outputs ``o`` with ``string -> [A^omega] -> o``.

        A deterministic transducer yields at most one output; a
        nondeterministic one may yield several (one per accepting run,
        deduplicated).
        """
        return {output for _run, output in self.transductions(string)}

    def transductions(
        self, string: Sequence[Symbol]
    ) -> Iterator[tuple[tuple[State, ...], Emission]]:
        """Yield ``(run, output)`` for every accepting run on ``string``."""
        if len(string) == 0:
            if self.nfa.initial in self.nfa.accepting:
                yield (), ()
            return
        stack: list[tuple[int, tuple[State, ...], Emission]] = []
        for target, emission in self.moves(self.nfa.initial, string[0]):
            stack.append((1, (target,), emission))
        while stack:
            index, run, output = stack.pop()
            if index == len(string):
                if run[-1] in self.nfa.accepting:
                    yield run, output
                continue
            for target, emission in self.moves(run[-1], string[index]):
                stack.append((index + 1, run + (target,), output + emission))

    def transduce_deterministic(self, string: Sequence[Symbol]) -> Emission | None:
        """The unique output for a deterministic transducer (None if rejected)."""
        state = self.nfa.initial
        output: Emission = ()
        for symbol in string:
            successors = self.nfa.successors(state, symbol)
            if not successors:
                return None
            if len(successors) > 1:
                raise InvalidTransducerError(
                    "transduce_deterministic called on a nondeterministic transducer"
                )
            (target,) = successors
            output = output + self.emission(state, symbol, target)
            state = target
        if state not in self.nfa.accepting:
            return None
        return output

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_dfa(dfa: DFA, omega: Mapping[tuple[State, Symbol, State], object]) -> "Transducer":
        """Build a deterministic transducer from a total DFA and omega."""
        return Transducer(dfa.to_nfa(), omega)

    @staticmethod
    def mealy(
        dfa: DFA, output: Mapping[tuple[State, Symbol], OutSymbol]
    ) -> "Transducer":
        """Build a Mealy machine from a total DFA (all states made accepting)
        and a per-(state, symbol) single-symbol output map."""
        nfa = NFA(
            dfa.alphabet,
            dfa.states,
            dfa.initial,
            dfa.states,  # non-selective
            {key: {target} for key, target in dfa.delta_dict().items()},
        )
        omega = {
            (state, symbol, dfa.step(state, symbol)): (output[(state, symbol)],)
            for state in dfa.states
            for symbol in dfa.alphabet
        }
        return Transducer(nfa, omega)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "deterministic" if self.is_deterministic() else "nondeterministic"
        return (
            f"Transducer({kind}, states={len(self.nfa.states)}, "
            f"sigma={len(self.nfa.alphabet)}, delta_out={len(self._output_alphabet)})"
        )
