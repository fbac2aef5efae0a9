"""repro: Transducing Markov Sequences (Kimelfeld & Ré, PODS 2010).

A query engine for Markov-sequence databases: finite-state transducer
queries over time-inhomogeneous Markov chains, with confidence
computation and (approximately) ranked answer enumeration — a faithful
implementation of every algorithm in the paper, plus the substrates it
builds on (automata, HMM smoothing, a Lahar-style stream database).

Quick start::

    from repro import hospital_sequence, room_change_transducer, evaluate

    mu = hospital_sequence()
    query = room_change_transducer()
    for answer in evaluate(mu, query, order="emax", limit=3):
        print(answer.rendered(), answer.confidence)

See README.md for the architecture overview and DESIGN.md for the
theorem-to-module map.
"""

from repro.approx import ApproxConfidence
from repro.core.engine import approximate_confidence, compute_confidence, evaluate, top_k
from repro.core.korder import confidence_korder, evaluate_korder
from repro.core.results import Answer, Order
from repro.markov.builders import (
    homogeneous,
    hospital_model,
    iid,
    random_sequence,
    uniform_iid,
)
from repro.markov.hmm import HMM
from repro.markov.korder import KOrderMarkovSequence, lift_transducer
from repro.markov.sequence import MarkovSequence
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.regex import regex_to_dfa, regex_to_nfa
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.transducers.transducer import Transducer
from repro.examples_data.hospital import hospital_sequence, room_change_transducer
from repro.lahar.database import MarkovStreamDatabase
from repro.runtime import (
    PlanCache,
    PlanKind,
    QueryPlan,
    StreamingEvaluator,
    batch_confidence,
    batch_top_k,
    default_plan_cache,
    plan_for,
)

__version__ = "1.0.0"

__all__ = [
    "MarkovSequence",
    "HMM",
    "KOrderMarkovSequence",
    "lift_transducer",
    "NFA",
    "DFA",
    "regex_to_nfa",
    "regex_to_dfa",
    "Transducer",
    "SProjector",
    "IndexedSProjector",
    "evaluate",
    "top_k",
    "compute_confidence",
    "approximate_confidence",
    "ApproxConfidence",
    "evaluate_korder",
    "confidence_korder",
    "Answer",
    "Order",
    "MarkovStreamDatabase",
    "PlanCache",
    "PlanKind",
    "QueryPlan",
    "StreamingEvaluator",
    "default_plan_cache",
    "plan_for",
    "batch_confidence",
    "batch_top_k",
    "iid",
    "uniform_iid",
    "homogeneous",
    "random_sequence",
    "hospital_model",
    "hospital_sequence",
    "room_change_transducer",
    "__version__",
]
