"""Differential & metamorphic conformance harness (the Table-2 oracle).

The repo computes the same answers in many ways: brute-force
possible-world enumeration, the class-specialized confidence DPs, the
log-space/exact-``Fraction`` variants, ``repro.runtime`` plan
execution, and the ``repro.parallel`` pool and vectorized batch paths.
This package cross-checks all of them, matrix-shaped like the paper's
Table 2 (transducer class × engine), in the spirit of randomized
certification of counting procedures (Arenas et al.) and of validating
pattern-distribution DPs against independent exact methods (Nuel &
Dumas):

* :mod:`repro.oracle.generators` — seeded random-instance factories,
  one per Table-2 class (also the home of the factories the test suite
  shares via ``tests/conftest.py``);
* :mod:`repro.oracle.registry` — the engine registry mapping each class
  to every applicable implementation;
* :mod:`repro.oracle.differential` — runs all registered engines on one
  instance and diffs confidences (``Fraction`` as referee) and answer
  sets / ranked orders;
* :mod:`repro.oracle.metamorphic` — semantics-preserving transforms
  (state/symbol relabeling, deterministic-prefix padding, the k-order
  reduction round-trip of footnote 3, real↔log semiring swap,
  serial↔pooled↔vectorized execution) asserted invariant;
* :mod:`repro.oracle.shrinker` — greedy minimization of failing
  instances plus the ``tests/corpus/`` regression-case format;
* :mod:`repro.oracle.harness` — the budgeted fuzz loop behind the
  ``repro verify`` CLI subcommand, with the class × engine
  coverage-matrix gate.
"""

from repro.oracle.generators import (
    CLASS_LABELS,
    Instance,
    generate_instance,
    make_fraction_sequence,
    make_random_deterministic_transducer,
    make_random_dfa,
    make_random_nfa,
    make_random_uniform_deterministic_transducer,
    make_random_uniform_transducer,
    make_sequence,
)
from repro.oracle.registry import ENGINES, Engine, VerifyContext, engine_matrix
from repro.oracle.differential import Diff, InstanceResult, check_instance
from repro.oracle.metamorphic import (
    TRANSFORMS,
    Transform,
    check_execution_equivalence,
    check_semiring_swap,
    check_shrink_swap,
    check_transform,
)
from repro.oracle.shrinker import (
    instance_from_dict,
    instance_to_dict,
    load_corpus,
    save_case,
    shrink,
    shrink_candidates,
)
from repro.oracle.harness import VerifyReport, verify

__all__ = [
    "CLASS_LABELS",
    "Instance",
    "generate_instance",
    "make_fraction_sequence",
    "make_random_deterministic_transducer",
    "make_random_dfa",
    "make_random_nfa",
    "make_random_uniform_deterministic_transducer",
    "make_random_uniform_transducer",
    "make_sequence",
    "ENGINES",
    "Engine",
    "VerifyContext",
    "engine_matrix",
    "Diff",
    "InstanceResult",
    "check_instance",
    "TRANSFORMS",
    "Transform",
    "check_execution_equivalence",
    "check_semiring_swap",
    "check_shrink_swap",
    "check_transform",
    "instance_from_dict",
    "instance_to_dict",
    "load_corpus",
    "save_case",
    "shrink",
    "shrink_candidates",
    "VerifyReport",
    "verify",
]
