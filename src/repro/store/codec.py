"""Exact, JSON-safe encoding of frontier cells and probability values.

A streaming frontier maps *hashable composite keys* to probability mass:
deterministic-plan cells are ``(node, state, output)`` triples (snapshots
written before monitor watches ran on evaluators also hold
``(node, dfa_state)`` monitor cells), and the state coordinates may be
arbitrary nestings of strings, tuples, and frozensets (subset
construction produces frozensets of states; product constructions
produce tuples). Snapshots must round-trip these keys **bit-exactly** —
a recovered frontier whose keys merely "look like" the originals would
silently fork the DP — so every term is encoded as a small tagged JSON
array and decoded back to the identical Python value:

====  ==========================  =========================
tag   encodes                     form
====  ==========================  =========================
"s"   str                         ``["s", value]``
"i"   int                         ``["i", value]``
"b"   bool                        ``["b", value]``
"d"   float                       ``["d", value]``
"f"   fractions.Fraction          ``["f", "p/q"]``
"t"   tuple                       ``["t", [term, ...]]``
"S"   frozenset                   ``["S", [term, ...]]``
"n"   None                        ``["n"]``
====  ==========================  =========================

Frozenset elements are sorted by their serialized form, so equal sets
encode identically and snapshot files are deterministic. Probability
*values* reuse the repo's ``"p/q"`` interchange convention
(:mod:`repro.io.json_format`): ``Fraction`` and ``int`` masses stay
exact rationals, floats round-trip through JSON's shortest-repr rule.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction

from repro.errors import ReproError
from repro.io.json_format import _decode_number, _encode_number
from repro.markov.sequence import Number


def encode_term(value) -> list:
    """Encode one hashable frontier-key term as a tagged JSON array."""
    if value is None:
        return ["n"]
    if isinstance(value, bool):  # before int: bool is an int subclass
        return ["b", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["d", value]
    if isinstance(value, Fraction):
        return ["f", f"{value.numerator}/{value.denominator}"]
    if isinstance(value, tuple):
        return ["t", [encode_term(item) for item in value]]
    if isinstance(value, frozenset):
        encoded = [encode_term(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return ["S", encoded]
    raise ReproError(
        f"cannot snapshot frontier term of type {type(value).__name__}: {value!r}"
    )


def decode_term(document):
    """Decode a tagged term back to the identical Python value."""
    if not isinstance(document, list) or not document:
        raise ReproError(f"malformed frontier term {document!r}")
    tag = document[0]
    if tag == "n":
        return None
    if tag in ("s", "i", "b", "d"):
        return document[1]
    if tag == "f":
        numerator, denominator = document[1].split("/")
        return Fraction(int(numerator), int(denominator))
    if tag == "t":
        return tuple(decode_term(item) for item in document[1])
    if tag == "S":
        return frozenset(decode_term(item) for item in document[1])
    raise ReproError(f"unknown frontier term tag {tag!r}")


def encode_value(value: Number):
    """Encode a probability mass (``Fraction``/``int`` -> ``"p/q"``)."""
    return _encode_number(value)


def decode_value(value) -> Number:
    """Decode a probability mass from its wire form."""
    return _decode_number(value)


def encode_transition(transition: Mapping) -> dict:
    """Encode an append payload (source -> successor distribution)."""
    return {
        str(source): {str(target): _encode_number(p) for target, p in row.items()}
        for source, row in transition.items()
    }


def decode_transition(document) -> dict:
    """Decode an append payload back to ``{source: {target: prob}}``."""
    if not isinstance(document, dict):
        raise ReproError(f"malformed transition document {document!r}")
    try:
        return {
            source: {target: _decode_number(p) for target, p in row.items()}
            for source, row in document.items()
        }
    except (AttributeError, TypeError) as exc:
        raise ReproError(f"malformed transition document: {exc}") from exc


def encode_frontier(frontier: Mapping) -> list:
    """Encode a frontier mapping as a deterministic list of cell pairs."""
    cells = [
        [encode_term(key), encode_value(mass)] for key, mass in frontier.items()
    ]
    cells.sort(key=lambda cell: json.dumps(cell[0], sort_keys=True))
    return cells


def decode_frontier(document) -> dict:
    """Decode a frontier cell list back to ``{key: mass}``."""
    if not isinstance(document, list):
        raise ReproError(f"malformed frontier document {document!r}")
    frontier: dict = {}
    for cell in document:
        if not isinstance(cell, list) or len(cell) != 2:
            raise ReproError(f"malformed frontier cell {cell!r}")
        frontier[decode_term(cell[0])] = decode_value(cell[1])
    return frontier
