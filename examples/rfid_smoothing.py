"""RFID pipeline: noisy sensor readings → HMM smoothing → transducer query.

Run:  python examples/rfid_smoothing.py

This is the paper's end-to-end scenario (Section 1 / Example 3.1): raw
antenna sightings are uncertain, an HMM infers the location sequence, the
posterior is a Markov sequence, and a transducer extracts the sequence of
*places* visited. Everything here is synthetic but exercises exactly the
code path a Lahar-style deployment would.
"""

from __future__ import annotations

import random

from repro import HMM, evaluate
from repro.automata.nfa import NFA
from repro.transducers.library import identity_mealy
from repro.transducers.transducer import Transducer

LOCATIONS = ("r1", "r2", "hall", "lab")
SENSORS = ("s1", "s2", "s3", "s4")


def build_hmm() -> HMM:
    """Movement model + noisy sensing model for one tracked cart."""
    stay = 0.65
    move = (1 - stay) / (len(LOCATIONS) - 1)
    transition = {
        loc: {other: (stay if other == loc else move) for other in LOCATIONS}
        for loc in LOCATIONS
    }
    # Each location is covered by one sensor, but adjacent sensors
    # occasionally pick up the signal (the ambiguity of Example 3.1).
    emission = {
        "r1": {"s1": 0.8, "s2": 0.1, "s3": 0.1},
        "r2": {"s2": 0.8, "s1": 0.1, "s3": 0.1},
        "hall": {"s3": 0.7, "s1": 0.1, "s2": 0.1, "s4": 0.1},
        "lab": {"s4": 0.9, "s3": 0.1},
    }
    initial = {"hall": 1.0}
    return HMM(initial=initial, transition=transition, emission=emission)


def place_change_transducer() -> Transducer:
    """Emit a place symbol each time the cart enters a different place."""
    states = set(LOCATIONS) | {"start"}
    delta = {}
    omega = {}
    for state in states:
        for symbol in LOCATIONS:
            delta[(state, symbol)] = {symbol}
            if state != symbol:
                omega[(state, symbol, symbol)] = (symbol,)
    nfa = NFA(LOCATIONS, states, "start", set(LOCATIONS), delta)
    return Transducer(nfa, omega)


def main() -> None:
    rng = random.Random(2010)
    hmm = build_hmm()

    true_path, readings = hmm.sample(8, rng)
    print("True (hidden) path:   ", " ".join(true_path))
    print("Sensor readings:      ", " ".join(readings))
    print()

    mu = hmm.to_markov_sequence(readings)
    print(f"Smoothed into a Markov sequence of length {mu.length} over {len(mu.symbols)} locations.")
    print("Posterior marginals (most likely location per time step):")
    for i, marginal in enumerate(mu.marginals(), start=1):
        best = max(marginal, key=marginal.get)
        print(f"  t={i}: {best:<5} ({marginal[best]:.3f})")
    print()

    query = place_change_transducer()
    print("Top-5 place-change traces (ranked by E_max, with exact confidence):")
    for answer in evaluate(mu, query, order="emax", limit=5):
        trace = " → ".join(answer.output) if answer.output else "(no movement)"
        print(f"  {trace:<30} confidence = {answer.confidence:.4f}")

    [decode] = evaluate(mu, identity_mealy(LOCATIONS), order="emax", limit=1)
    print()
    print("Viterbi decode for comparison:", " ".join(decode.output))


if __name__ == "__main__":
    main()
