"""Query planning: classify once, compile once (the write-side of Table 2).

A :class:`QueryPlan` does, ahead of execution, everything about a query
that does not depend on the Markov sequence:

* **classification** — which column of the paper's Table 2 the query
  falls into (indexed s-projector / s-projector / deterministic /
  uniform / general transducer);
* **compilation** — s-projectors are compiled to their equivalent
  nondeterministic transducer exactly once (the engine used to re-run
  ``to_transducer()`` on every call), after Hopcroft-minimizing the
  three component DFAs (shrinking ``E`` is an exponential win for the
  Theorem 5.5 confidence algorithm);
* **dispatch recording** — for each enumeration order and for the
  confidence computation, which algorithm will run (or why the order is
  unavailable), so tools can display the decision without executing;
* **fingerprinting** — a structural hash that lets a
  :class:`~repro.runtime.cache.PlanCache` recognise the same query shape
  across separately constructed objects (computed once per query
  object and kept on it).

Plans are immutable except for their :class:`~repro.runtime.stats.PlanStats`
counter block.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from collections.abc import Hashable

from repro import telemetry
from repro.automata.dfa import DFA
from repro.automata.minimize import minimize
from repro.core.results import Order
from repro.runtime.shrink import ShrinkReport, shrink_transducer
from repro.runtime.stats import PlanStats
from repro.transducers.sprojector import IndexedSProjector, SProjector
from repro.transducers.transducer import Transducer

Symbol = Hashable


class PlanKind(enum.Enum):
    """The query classes of Table 2, in dispatch-priority order."""

    INDEXED_SPROJECTOR = "indexed-sprojector"
    SPROJECTOR = "sprojector"
    DETERMINISTIC = "deterministic-transducer"
    UNIFORM = "uniform-transducer"
    GENERAL = "general-transducer"


#: Which confidence algorithm each class dispatches to (Table 2's
#: "confidence" column, by theorem).
_CONFIDENCE_ALGORITHM = {
    PlanKind.INDEXED_SPROJECTOR: "indexed DP (Theorem 5.8, polynomial)",
    PlanKind.SPROJECTOR: "subset DP (Theorem 5.5, exponential in |Q_E| only)",
    PlanKind.DETERMINISTIC: "layered DP (Theorem 4.6, polynomial)",
    PlanKind.UNIFORM: "subset DP (Theorem 4.8, exponential in |Q_A| only)",
    PlanKind.GENERAL: "possible-world oracle (FP^#P-complete, Theorem 4.9)",
}

#: The best ranked order per class (the engine's top-k default).
_DEFAULT_ORDER = {
    PlanKind.INDEXED_SPROJECTOR: Order.CONFIDENCE,
    PlanKind.SPROJECTOR: Order.IMAX,
    PlanKind.DETERMINISTIC: Order.EMAX,
    PlanKind.UNIFORM: Order.EMAX,
    PlanKind.GENERAL: Order.EMAX,
}


def _sorted_by_repr(items):
    return sorted(items, key=repr)


def _canonical_dfa(dfa: DFA, alphabet_order: list) -> tuple:
    """A naming-independent serialization of a (trimmed) DFA.

    States are renumbered by BFS from the initial state, exploring
    symbols in the canonical alphabet order — for a *minimal* DFA this
    yields the unique canonical form of the language, so two
    separately-built, language-equal components fingerprint identically.
    """
    number = {dfa.initial: 0}
    queue = [dfa.initial]
    while queue:
        state = queue.pop(0)
        for symbol in alphabet_order:
            target = dfa.step(state, symbol)
            if target not in number:
                number[target] = len(number)
                queue.append(target)
    transitions = tuple(
        tuple(number[dfa.step(state, symbol)] for symbol in alphabet_order)
        for state in sorted(number, key=number.get)
    )
    accepting = tuple(sorted(number[q] for q in dfa.accepting if q in number))
    return (len(number), transitions, accepting)


def _canonical_transducer(transducer: Transducer, alphabet_order: list) -> tuple:
    """A serialization of a transducer, stable up to state naming.

    States are renumbered by BFS from the initial state; nondeterministic
    successor sets are explored in ``repr`` order of the original state
    names, so the form is canonical for deterministic machines and stable
    within a process for nondeterministic ones (which is all the plan
    cache needs).
    """
    nfa = transducer.nfa
    number = {nfa.initial: 0}
    queue = [nfa.initial]
    while queue:
        state = queue.pop(0)
        for symbol in alphabet_order:
            for target in _sorted_by_repr(nfa.successors(state, symbol)):
                if target not in number:
                    number[target] = len(number)
                    queue.append(target)
    transitions = []
    for state in sorted(number, key=number.get):
        for si, symbol in enumerate(alphabet_order):
            for target in nfa.successors(state, symbol):
                if target in number:
                    emission = transducer.emission(state, symbol, target)
                    transitions.append(
                        (number[state], si, number[target], tuple(map(repr, emission)))
                    )
    accepting = tuple(sorted(number[q] for q in nfa.accepting if q in number))
    return (len(number), tuple(sorted(transitions)), accepting)


def fingerprint(query) -> str:
    """A structural fingerprint of a query (hex digest).

    Equal for separately constructed queries with the same structure —
    and, for s-projectors and deterministic transducers, for any two
    queries whose canonical (minimized) automata coincide. Distinct
    structures always get distinct serializations, so a collision
    requires breaking SHA-256.

    Computed once per query object: query objects are immutable, so the
    digest is kept in the object's ``_fingerprint`` slot and every later
    call (each :class:`~repro.runtime.cache.PlanCache` lookup) returns
    it without canonicalising again.
    """
    if not isinstance(query, (SProjector, Transducer)):
        raise TypeError(f"unsupported query type {type(query).__name__}")
    digest = query._fingerprint
    if digest is None:
        digest = query._fingerprint = _structural_digest(query)
    return digest


def _structural_digest(query: SProjector | Transducer) -> str:
    """SHA-256 over the canonical serialization of ``query``."""
    if isinstance(query, SProjector):
        alphabet_order = _sorted_by_repr(query.alphabet)
        payload = (
            "indexed-sprojector" if isinstance(query, IndexedSProjector) else "sprojector",
            tuple(map(repr, alphabet_order)),
            _canonical_dfa(minimize(query.prefix), alphabet_order),
            _canonical_dfa(minimize(query.pattern), alphabet_order),
            _canonical_dfa(minimize(query.suffix), alphabet_order),
        )
    else:
        alphabet_order = _sorted_by_repr(query.input_alphabet)
        payload = (
            "transducer",
            tuple(map(repr, alphabet_order)),
            _canonical_transducer(query, alphabet_order),
        )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@dataclass
class QueryPlan:
    """A compiled, classified query, ready for repeated execution.

    Attributes
    ----------
    query:
        The query object the plan was built from.
    kind:
        Its Table-2 class.
    fingerprint:
        Structural hash (the :class:`~repro.runtime.cache.PlanCache` key).
    minimized:
        For s-projectors, the same projector with Hopcroft-minimized
        components (used for all execution); ``None`` for transducers.
    compiled:
        The transducer that enumeration algorithms run on: the
        (minimized) s-projector's compilation, or the query itself.
    deterministic / uniformity:
        Cached class predicates of ``compiled``.
    default_order:
        The best ranked order for the class (``top_k``'s default).
    confidence_algorithm:
        Human-readable record of the Table-2 confidence dispatch.
    stats:
        Mutable execution counters.
    shrunk / push / shrink_report:
        The trimmed compiled transducer all engines execute on, the
        weight-pushing table (the deterministic DP's move filter), and
        the shrink pass record (``None`` each when the plan was built
        with ``shrink=False``).
    """

    query: object
    kind: PlanKind
    fingerprint: str
    minimized: SProjector | None
    compiled: Transducer
    deterministic: bool
    uniformity: int | None
    default_order: Order
    confidence_algorithm: str
    stats: PlanStats = field(default_factory=PlanStats)
    shrunk: Transducer | None = None
    push: dict | None = None
    shrink_report: ShrinkReport | None = None

    @property
    def execution(self) -> Transducer:
        """The transducer engines actually run on (shrunk when available)."""
        return self.shrunk if self.shrunk is not None else self.compiled

    @staticmethod
    def build(query, shrink: bool = True) -> "QueryPlan":
        """Classify, minimize, compile, and shrink ``query`` into a plan.

        ``shrink=False`` skips the plan-time trim/push pass (the
        metamorphic ablation).
        """
        digest = fingerprint(query)
        if isinstance(query, SProjector):
            kind = (
                PlanKind.INDEXED_SPROJECTOR
                if isinstance(query, IndexedSProjector)
                else PlanKind.SPROJECTOR
            )
            minimized = type(query)(
                minimize(query.prefix), minimize(query.pattern), minimize(query.suffix)
            )
            compiled = minimized.to_transducer()
        elif isinstance(query, Transducer):
            if query.is_deterministic():
                kind = PlanKind.DETERMINISTIC
            elif query.is_uniform():
                kind = PlanKind.UNIFORM
            else:
                kind = PlanKind.GENERAL
            minimized = None
            compiled = query
        else:
            raise TypeError(f"unsupported query type {type(query).__name__}")

        shrunk = push = report = None
        if shrink:
            shrunk, push, report = shrink_transducer(compiled)
            telemetry.count("sparse.states_pruned", report.pruned())
            telemetry.count("sparse.push_saved", report.push_symbols)

        return QueryPlan(
            query=query,
            kind=kind,
            fingerprint=digest,
            minimized=minimized,
            compiled=compiled,
            deterministic=compiled.is_deterministic(),
            uniformity=compiled.uniformity(),
            default_order=_DEFAULT_ORDER[kind],
            confidence_algorithm=_CONFIDENCE_ALGORITHM[kind],
            shrunk=shrunk,
            push=push,
            shrink_report=report,
        )

    # ------------------------------------------------------------------
    # Dispatch records (Table 2, per order)
    # ------------------------------------------------------------------

    def order_dispatch(self) -> dict[Order, str]:
        """For each order: the algorithm used, or why it is unavailable."""
        table = {
            Order.UNRANKED: "prefix-tree DFS, polynomial delay (Theorem 4.1)",
            Order.EMAX: "Lawler on best-evidence scores (Theorem 4.3)",
        }
        if self.kind is PlanKind.SPROJECTOR:
            table[Order.IMAX] = "answer-DAG ranked paths (Theorem 5.2 / Lemma 5.10)"
        else:
            table[Order.IMAX] = "unavailable: I_max needs a non-indexed s-projector"
        if self.kind is PlanKind.INDEXED_SPROJECTOR:
            table[Order.CONFIDENCE] = "exact ranked answer DAG (Theorem 5.7)"
            table[Order.IMAX] = "unavailable: use CONFIDENCE (exact) instead"
        else:
            table[Order.CONFIDENCE] = (
                "unavailable without allow_exponential: intractable for this "
                "class (Theorems 4.4/5.3); brute-force oracle if permitted"
            )
        return table

    def supports_streaming(self) -> bool:
        """Whether the compiled transducer is deterministic.

        That is the only condition checked. A deterministic plan has one
        run per world, so its streaming frontier holds one cell per
        (node, state, emitted output). That is polynomial only while the
        set of live outputs is: an accept filter that emits nothing keeps
        |Σ|·|Q| cells, but a plan that emits a symbol per step can keep
        up to |Δ|^n outputs after n steps. True therefore promises one
        run per world, not a small frontier. Nondeterministic plans
        still stream *exactly* via the world-summary frontier, whose size
        can grow exponentially (matching the class's #P-hardness), so
        callers must opt in.
        """
        return self.deterministic

    def describe(self) -> str:
        """A multi-line human-readable plan card (the CLI's ``plan`` view)."""
        lines = [
            f"class:       {self.kind.value}",
            f"fingerprint: {self.fingerprint[:16]}",
            f"compiled:    |Q|={len(self.compiled.nfa.states)} "
            f"({'deterministic' if self.deterministic else 'nondeterministic'}, "
            + (
                f"{self.uniformity}-uniform)"
                if self.uniformity is not None
                else "non-uniform)"
            ),
        ]
        if self.minimized is not None:
            assert isinstance(self.query, SProjector)
            lines.append(
                "minimized:   "
                f"|Q_B| {len(self.query.prefix.states)}->{len(self.minimized.prefix.states)}  "
                f"|Q_A| {len(self.query.pattern.states)}->{len(self.minimized.pattern.states)}  "
                f"|Q_E| {len(self.query.suffix.states)}->{len(self.minimized.suffix.states)}"
            )
        if self.shrink_report is not None:
            report = self.shrink_report
            lines.append(
                f"shrink:      |Q| {report.states_before}->{report.states_after}  "
                f"nnz {report.transitions_before}->{report.transitions_after}  "
                f"push={report.push_symbols}"
            )
        lines.append(f"confidence:  {self.confidence_algorithm}")
        if self.kind in (PlanKind.GENERAL, PlanKind.UNIFORM):
            lines.append(
                "approximate: FPRAS (1±ε) with prob ≥ 1−δ "
                "(Karp-Luby union of runs; --epsilon/--delta)"
            )
        lines.append(f"top-k order: {self.default_order.value}")
        for order, algorithm in self.order_dispatch().items():
            lines.append(f"  {order.value:<11} {algorithm}")
        lines.append(f"streaming:   {'yes' if self.supports_streaming() else 'opt-in (world-summary frontier)'}")
        return "\n".join(lines)
