"""Substring projectors (Section 5).

An s-projector ``P = [B]A[E]`` is given by three DFAs over a common
alphabet: a prefix constraint ``B``, a pattern ``A``, and a suffix
constraint ``E``. It transduces ``s`` into ``o`` iff ``o ∈ L(A)`` and
``s = b · o · e`` for some ``b ∈ L(B)`` and ``e ∈ L(E)``. The *indexed*
variant ``[B]↓A[E]`` returns pairs ``(o, i)`` where ``i - 1 = |b|`` is the
1-based start position of the occurrence.

Both compile into ordinary (nondeterministic) transducers — the easy
observation opening Section 5 — so all general-transducer machinery
(Theorem 4.1 enumeration, E_max ranking, ...) applies to them; the
dedicated polynomial algorithms of Sections 5.1–5.2 live in
:mod:`repro.confidence` and :mod:`repro.enumeration`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence

from repro.errors import InvalidTransducerError
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.transducers.transducer import Transducer

Symbol = Hashable

#: Output symbol standing for "one input position consumed before the match"
#: in the indexed compilation (Remark 5.6).
BOTTOM = "⊥"


class SProjector:
    """An s-projector ``[B]A[E]``.

    Parameters
    ----------
    prefix:
        The prefix-constraint DFA ``B``.
    pattern:
        The pattern DFA ``A`` (its language is the set of extractable
        substrings; emission is the identity).
    suffix:
        The suffix-constraint DFA ``E``.
    """

    __slots__ = ("prefix", "pattern", "suffix", "_fingerprint")

    def __init__(self, prefix: DFA, pattern: DFA, suffix: DFA) -> None:
        if not (prefix.alphabet == pattern.alphabet == suffix.alphabet):
            raise InvalidTransducerError(
                "s-projector components must share one alphabet "
                f"(got {len(prefix.alphabet)}/{len(pattern.alphabet)}/{len(suffix.alphabet)} symbols)"
            )
        self.prefix = prefix
        self.pattern = pattern
        self.suffix = suffix
        # The plan-cache key, filled by ``repro.runtime.plan.fingerprint``
        # (the components are never reassigned, so it stays valid).
        self._fingerprint: str | None = None

    @property
    def alphabet(self) -> frozenset[Symbol]:
        """``Sigma_P``."""
        return self.pattern.alphabet

    def is_simple(self) -> bool:
        """True iff both constraints accept every string (``[*]A[*]``)."""
        return self.prefix.accepts_everything() and self.suffix.accepts_everything()

    def indexed(self) -> "IndexedSProjector":
        """The indexed s-projector ``[B]↓A[E]`` with the same components."""
        return IndexedSProjector(self.prefix, self.pattern, self.suffix)

    # ------------------------------------------------------------------
    # Direct (string-level) semantics
    # ------------------------------------------------------------------

    def occurrences(self, string: Sequence[Symbol]) -> Iterator[tuple[tuple[Symbol, ...], int]]:
        """Yield every valid occurrence ``(o, i)`` in ``string`` (1-based i)."""
        n = len(string)
        # prefix_ok[i]: string[0:i] in L(B); suffix_ok[j]: string[j:] in L(E).
        prefix_states = self.prefix.trace(string)
        prefix_ok = [state in self.prefix.accepting for state in prefix_states]
        suffix_ok = [False] * (n + 1)
        for j in range(n + 1):
            suffix_ok[j] = self.suffix.accepts(string[j:])
        for start in range(n + 1):
            if not prefix_ok[start]:
                continue
            state = self.pattern.initial
            if state in self.pattern.accepting and suffix_ok[start]:
                yield (), start + 1
            for end in range(start, n):
                state = self.pattern.step(state, string[end])
                if state in self.pattern.accepting and suffix_ok[end + 1]:
                    yield tuple(string[start : end + 1]), start + 1

    def transduce(self, string: Sequence[Symbol]) -> set[tuple[Symbol, ...]]:
        """All substrings ``o`` with ``string -> [P] -> o``."""
        return {output for output, _index in self.occurrences(string)}

    # ------------------------------------------------------------------
    # Compilation into a transducer
    # ------------------------------------------------------------------

    def to_transducer(self, indexed: bool = False) -> Transducer:
        """Compile into an equivalent (nondeterministic) transducer.

        States are phase-tagged: ``("B", q)`` while reading the prefix,
        ``("A", q)`` inside the match, ``("E", q)`` in the suffix. The
        nondeterminism is exactly the guess of the split points.

        With ``indexed=True``, prefix steps emit the sentinel
        :data:`BOTTOM` (Remark 5.6), so an answer ``⊥^{i-1} · o`` of the
        compiled transducer encodes the indexed answer ``(o, i)``.
        """
        alphabet = self.alphabet
        b, a, e = self.prefix, self.pattern, self.suffix
        delta: dict[tuple, set] = {}
        omega: dict[tuple, tuple] = {}

        def add(source, symbol, target, emission) -> None:
            delta.setdefault((source, symbol), set()).add(target)
            if emission:
                omega[(source, symbol, target)] = emission

        for symbol in alphabet:
            for q in b.states:
                # Stay in the prefix.
                add(("B", q), symbol, ("B", b.step(q, symbol)), (BOTTOM,) if indexed else ())
                if q in b.accepting:
                    # Start the match at this position.
                    add(("B", q), symbol, ("A", a.step(a.initial, symbol)), (symbol,))
                    if a.initial in a.accepting:
                        # Empty match: jump straight into the suffix.
                        add(("B", q), symbol, ("E", e.step(e.initial, symbol)), ())
            for q in a.states:
                add(("A", q), symbol, ("A", a.step(q, symbol)), (symbol,))
                if q in a.accepting:
                    add(("A", q), symbol, ("E", e.step(e.initial, symbol)), ())
            for q in e.states:
                add(("E", q), symbol, ("E", e.step(q, symbol)), ())

        accepting: set = {("E", q) for q in e.accepting}
        if e.initial in e.accepting:
            # Empty suffix: finishing inside the match is fine.
            accepting |= {("A", q) for q in a.accepting}
            if a.initial in a.accepting:
                # Empty match and empty suffix: the whole string is the prefix.
                accepting |= {("B", q) for q in b.accepting}

        states = (
            {("B", q) for q in b.states}
            | {("A", q) for q in a.states}
            | {("E", q) for q in e.states}
        )
        nfa = NFA(alphabet, states, ("B", b.initial), accepting, delta)
        return Transducer(nfa, omega)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SProjector(|Q_B|={len(self.prefix.states)}, "
            f"|Q_A|={len(self.pattern.states)}, |Q_E|={len(self.suffix.states)})"
        )


class IndexedSProjector(SProjector):
    """An indexed s-projector ``[B]↓A[E]`` — answers are ``(o, i)`` pairs."""

    __slots__ = ()

    def transduce(self, string: Sequence[Symbol]) -> set[tuple[tuple[Symbol, ...], int]]:
        """All occurrence answers ``(o, i)`` with 1-based start index ``i``."""
        return set(self.occurrences(string))

    def to_transducer(self, indexed: bool = True) -> Transducer:
        """Compile; indexed emission is the default for this class."""
        return super().to_transducer(indexed=indexed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Indexed" + super().__repr__()


def decode_indexed_output(output: Sequence) -> tuple[tuple, int]:
    """Decode a compiled indexed answer ``⊥^{i-1} · o`` into ``(o, i)``."""
    bottoms = 0
    for symbol in output:
        if symbol == BOTTOM:
            bottoms += 1
        else:
            break
    return tuple(output[bottoms:]), bottoms + 1
