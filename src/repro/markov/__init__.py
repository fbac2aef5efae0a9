"""Markov sequences and their statistical-model substrates (Section 3.1).

A :class:`~repro.markov.sequence.MarkovSequence` is the paper's data model:
a length-``n`` chain of random variables over a finite node set, given by an
initial distribution and ``n-1`` per-step transition functions, defining a
probability space over ``Sigma^n`` (Equation (1)).

The subpackage also provides the substrates the paper's introduction relies
on: a full hidden-Markov-model implementation with the HMM+observations →
Markov-sequence translation (:mod:`repro.markov.hmm`), synthetic RFID-style
generators (:mod:`repro.markov.builders`), and the k-order generalization of
footnote 3 (:mod:`repro.markov.korder`).
"""

from repro.markov.sequence import MarkovSequence
from repro.markov.builders import (
    homogeneous,
    hospital_model,
    iid,
    random_sequence,
    uniform_iid,
)
from repro.markov.hmm import HMM
from repro.markov.korder import KOrderMarkovSequence, lift_transducer

__all__ = [
    "MarkovSequence",
    "uniform_iid",
    "iid",
    "homogeneous",
    "random_sequence",
    "hospital_model",
    "HMM",
    "KOrderMarkovSequence",
    "lift_transducer",
]
