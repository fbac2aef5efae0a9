"""Confidence computation (Sections 4.3 and 5).

Computing the confidence ``conf(o) = Pr(S -> [A^omega] -> o)`` of an answer
is the paper's second core problem. Its complexity depends on the
transducer class (Table 2, first row), and this subpackage implements one
algorithm per positive result plus a brute-force oracle. Every forward DP
below is an ``advance`` (the cell's progress coordinate is named in the
table) for the one layered step of :mod:`repro.confidence.layered`:

==========================  ======================================  ============
transducer class            algorithm                               paper
==========================  ======================================  ============
deterministic               layered DP over output index j, any     Theorem 4.6
                            semiring, push filter on moves
deterministic + k-uniform   same DP; one output position per layer  Theorem 4.6
deterministic, many answers same DP over an answer-trie node        Theorem 4.6
nondeterministic, uniform   layered DP over live-state subsets      Theorem 4.8
s-projector [B]A[E]         Pr(S in L(B . o . E)), lazy subsets     Theorem 5.5
indexed s-projector         forward B-prefix layers x backward      Theorem 5.8
                            E-suffix layers, segment in between
any (small instances)       possible-world enumeration              oracle
==========================  ======================================  ============

General nondeterministic transducers are FP^#P-complete (Proposition 4.7,
Theorem 4.9); for them only the brute-force oracle (and the uniform subset
DP, when emission is uniform) is available, by design.
"""

from repro.confidence.brute_force import (
    brute_force_answers,
    brute_force_confidence,
    brute_force_emax,
)
from repro.confidence.batch import confidence_deterministic_batch
from repro.confidence.deterministic import confidence_deterministic
from repro.confidence.indexed import confidence_indexed
from repro.confidence.language import is_answer, language_probability
from repro.confidence.sprojector import confidence_sprojector
from repro.confidence.uniform_subset import confidence_uniform

__all__ = [
    "confidence_deterministic",
    "confidence_deterministic_batch",
    "confidence_uniform",
    "confidence_sprojector",
    "confidence_indexed",
    "language_probability",
    "is_answer",
    "brute_force_answers",
    "brute_force_confidence",
    "brute_force_emax",
]
