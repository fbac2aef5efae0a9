"""Motif occurrence queries over a probabilistic DNA sequence.

Run:  python examples/dna_motifs.py

The paper lists biological sequence matching among the HMM applications
producing Markov sequences. Here a noisy sequencing read is modeled as a
Markov sequence over {A, C, G, T} (each base call has error probability
shared with its confusion partner), and we ask for occurrences of the
TATA-box-style motif ``TATA`` three ways:

* per-position event probabilities ("does a motif end here?") — the
  Lahar-legacy Boolean query of Section 6;
* the top motif occurrences in exactly decreasing confidence, via the
  indexed s-projector machinery (Theorem 5.7);
* all occurrences with confidence above a threshold (the engine's
  ``min_confidence`` cut-off of the same enumeration).
"""

from __future__ import annotations

from repro.core.engine import evaluate
from repro.markov.sequence import MarkovSequence
from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.transducers.sprojector import IndexedSProjector
from repro.enumeration.indexed_ranked import enumerate_indexed_ranked
from repro.lahar.monitor import occurrence_profile
from repro.automata.regex import regex_to_nfa

BASES = ("A", "C", "G", "T")

#: A "called" read with per-position uncertainty: the sequencer's best
#: call plus its most likely confusion (transversions T<->A, C<->G).
READ = "GCTATAAAGGCTTATAC"
CONFUSION = {"A": "T", "T": "A", "C": "G", "G": "C"}
CALL_ACCURACY = 0.85


def read_to_sequence(read: str) -> MarkovSequence:
    """Independent per-position base-call uncertainty as a Markov sequence."""

    def call_distribution(base: str) -> dict[str, float]:
        return {base: CALL_ACCURACY, CONFUSION[base]: 1.0 - CALL_ACCURACY}

    initial = call_distribution(read[0])
    steps = [
        {prev: call_distribution(base) for prev in BASES}
        for base in read[1:]
    ]
    return MarkovSequence(BASES, initial, steps)


def main() -> None:
    mu = read_to_sequence(READ)
    print(f"Read ({len(READ)} bases): {READ}")
    print(f"Per-base call accuracy: {CALL_ACCURACY}")
    print()

    motif = regex_to_nfa("TATA", BASES)
    profile = occurrence_profile(mu, motif)
    print("Pr(a TATA motif ends at position i):")
    for i, prob in enumerate(profile, start=1):
        bar = "#" * int(prob * 40)
        print(f"  {i:>3}  {prob:6.4f}  {bar}")
    print()

    projector = IndexedSProjector(
        sigma_star(BASES), regex_to_dfa("TATA", BASES), sigma_star(BASES)
    )
    print("Top-5 motif occurrences (exactly decreasing confidence, Thm 5.7):")
    for count, (confidence, (motif_str, position)) in enumerate(
        enumerate_indexed_ranked(mu, projector)
    ):
        print(f"  {''.join(motif_str)} at position {position:<3} conf = {confidence:.4f}")
        if count == 4:
            break
    print()

    theta = 0.25
    print(f"All occurrences with confidence >= {theta}:")
    for answer in evaluate(mu, projector, order="confidence", min_confidence=theta):
        motif_str, position = answer.output
        print(f"  {''.join(motif_str)} at position {position:<3} conf = {answer.confidence:.4f}")


if __name__ == "__main__":
    main()
