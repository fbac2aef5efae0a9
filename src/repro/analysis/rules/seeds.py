"""RX03 — seed-discipline.

Determinism is load-bearing everywhere randomness appears: the FPRAS
certificate, ranked-merge bit-identity, the oracle shrinker's replayable
corpus, and durable-mode seed journaling all assume every RNG is
constructed from an explicit seed that flows from an argument or a
derived (e.g. sha256) value. This rule flags:

* ``random.Random()`` / ``Random()`` constructed with no seed (or a
  literal ``None`` seed) — OS-entropy seeding, unreproducible;
* calls to the *module-level* global RNG (``random.randint`` etc.) —
  shared hidden state, order-dependent across call sites;
* ``random.seed(...)`` — mutates the global RNG under everyone's feet;
* ``numpy.random.default_rng()`` / ``np.random.<fn>`` with no seed.

The rule is deliberately unscoped: an unseeded RNG is wrong anywhere in
the tree, including test helpers and fixtures.
"""

from __future__ import annotations

import ast

from repro.analysis.rules.base import FileContext, Finding, Rule, call_name

_GLOBAL_RNG_FNS = {
    "random",
    "randint",
    "randrange",
    "randbytes",
    "getrandbits",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "lognormvariate",
    "normalvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
}

_RNG_CONSTRUCTORS = ("random.Random", "Random", "random.SystemRandom", "SystemRandom")
_NUMPY_RANDOM_PREFIXES = ("numpy.random.", "np.random.")


def _is_unseeded(node: ast.Call) -> bool:
    """No positional seed, or a literal ``None`` seed; kwargs count as seeds."""
    if node.keywords:
        return False
    if not node.args:
        return True
    first = node.args[0]
    return isinstance(first, ast.Constant) and first.value is None


class SeedDisciplineRule(Rule):
    rule_id = "RX03"
    title = "seed-discipline"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            message = self._violation(name, node)
            if message is not None:
                findings.append(self.finding(ctx, node, message))
        return findings

    def _violation(self, name: str, node: ast.Call) -> str | None:
        if name in _RNG_CONSTRUCTORS:
            if _is_unseeded(node):
                return (
                    f"{name}() constructed without a seed; pass a seed that "
                    "flows from an argument or a derived (sha256) value"
                )
            return None
        if name == "random.seed":
            return (
                "random.seed mutates the shared global RNG; construct a "
                "seeded random.Random(seed) instead"
            )
        if name.startswith("random.") and name[len("random.") :] in _GLOBAL_RNG_FNS:
            return (
                f"{name} uses the unseeded global RNG; draw from a seeded "
                "random.Random(seed) instance"
            )
        if name.startswith(_NUMPY_RANDOM_PREFIXES):
            tail = name.split("random.", 1)[1]
            if tail == "default_rng":
                if _is_unseeded(node):
                    return f"{name}() constructed without a seed"
                return None
            return f"{name} uses numpy's global RNG; use a seeded default_rng(seed) generator"
        return None
