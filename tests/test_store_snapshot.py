"""Snapshot codec and files: bit-exact round-trips, atomic replacement.

The codec tests pin the property recovery stands on: a decoded frontier
key is ``==`` (and hashes equal) to the original, including Fractions,
nested tuples, and subset-construction frozensets.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.automata.operations import sigma_star
from repro.automata.regex import regex_to_dfa
from repro.errors import ReproError
from repro.io.json_format import query_to_dict, sequence_to_dict
from repro.store.codec import (
    decode_frontier,
    decode_term,
    decode_transition,
    encode_frontier,
    encode_term,
    encode_transition,
)
from repro.store.snapshot import (
    EvaluatorState,
    StandingState,
    StoreState,
    delete_snapshots_before,
    latest_snapshot_lsn,
    load_snapshot,
    snapshot_paths,
    state_from_dict,
    state_to_dict,
    write_snapshot,
)
from repro.transducers.library import accept_filter
from repro.transducers.sprojector import SProjector

from tests.conftest import make_fraction_sequence

ALPHABET = "ab"


TERMS = [
    None,
    True,
    False,
    0,
    -17,
    "state",
    "",
    2.5,
    Fraction(1, 3),
    Fraction(-7, 2),
    (),
    ("q0", 3, ("nested", Fraction(2, 5))),
    frozenset(),
    frozenset({"q1", "q2"}),
    frozenset({("a", 1), ("a", 2)}),
    ("mixed", frozenset({None, True, 0}), (frozenset({"x"}),)),
]


@pytest.mark.parametrize("term", TERMS, ids=[repr(t)[:40] for t in TERMS])
def test_term_round_trip_is_identical(term) -> None:
    decoded = decode_term(encode_term(term))
    assert decoded == term
    assert type(decoded) is type(term)
    assert hash(decoded) == hash(term)


def test_bool_and_int_stay_distinct() -> None:
    # bool is an int subclass; a frontier keyed by True must not come
    # back keyed by 1
    assert encode_term(True) != encode_term(1)
    assert decode_term(encode_term(True)) is True
    assert decode_term(encode_term(1)) == 1
    assert not isinstance(decode_term(encode_term(1)), bool)


def test_equal_frozensets_encode_identically() -> None:
    left = frozenset({("a", 1), ("b", 2), ("c", 3)})
    right = frozenset(reversed(sorted(left)))
    assert encode_term(left) == encode_term(right)


def test_unencodable_term_refuses() -> None:
    with pytest.raises(ReproError, match="cannot snapshot"):
        encode_term(object())


def test_malformed_term_documents_refuse() -> None:
    for document in (None, [], ["?"], {"tag": "s"}):
        with pytest.raises(ReproError):
            decode_term(document)


def test_frontier_round_trip_exact() -> None:
    frontier = {
        ("n1", frozenset({"q0", "q1"}), ()): Fraction(1, 7),
        ("n2", frozenset({"q0"}), ("out",)): Fraction(3, 4),
        ("n3", frozenset(), ()): 1,
    }
    assert decode_frontier(encode_frontier(frontier)) == frontier


def test_frontier_encoding_is_order_independent() -> None:
    cells = {("a",): Fraction(1, 2), ("b",): Fraction(1, 3)}
    reordered = dict(reversed(list(cells.items())))
    assert encode_frontier(cells) == encode_frontier(reordered)


def test_malformed_frontier_documents_refuse() -> None:
    for document in ({"cell": 1}, [["s", "x"]], [[["s", "x"], "1/2", "extra"]]):
        with pytest.raises(ReproError):
            decode_frontier(document)


def test_transition_round_trip_exact(rng) -> None:
    transition = {
        "a": {"a": Fraction(1, 3), "b": Fraction(2, 3)},
        "b": {"b": 1},
    }
    assert decode_transition(encode_transition(transition)) == transition


def test_malformed_transition_refuses() -> None:
    with pytest.raises(ReproError, match="malformed transition"):
        decode_transition(["not", "a", "dict"])
    with pytest.raises(ReproError, match="malformed transition"):
        decode_transition({"a": "not a row"})


def _query():
    return accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", ALPHABET))


def _pattern_query():
    alphabet = sigma_star(ALPHABET)
    return SProjector(alphabet, regex_to_dfa("ab", ALPHABET), alphabet)


def _state(rng) -> StoreState:
    sequence = make_fraction_sequence(ALPHABET, 3, rng)
    return StoreState(
        streams={"s": sequence},
        queries={"q": _query()},
        evaluators=[
            EvaluatorState(
                stream="s",
                query=_query(),
                length=3,
                frontier={("n", frozenset({"q0"}), ()): Fraction(2, 5)},
            )
        ],
        standing=[
            StandingState(
                name="watch",
                stream="s",
                kind="monitor",
                label="occurrence",
                query=_pattern_query(),
                output=(),
                threshold=Fraction(1, 2),
                rearm=Fraction(1, 4),
                value=Fraction(9, 16),
                armed=False,
                alerts_fired=2,
            )
        ],
    )


def test_state_document_round_trip(rng) -> None:
    state = _state(rng)
    document = state_to_dict(state)
    loaded = state_from_dict(document)
    assert sequence_to_dict(loaded.streams["s"]) == sequence_to_dict(
        state.streams["s"]
    )
    assert query_to_dict(loaded.queries["q"]) == query_to_dict(state.queries["q"])
    entry = loaded.evaluators[0]
    assert (entry.stream, entry.length) == ("s", 3)
    assert entry.frontier == state.evaluators[0].frontier
    standing = loaded.standing[0]
    original = state.standing[0]
    assert (standing.value, standing.armed, standing.alerts_fired) == (
        original.value,
        original.armed,
        original.alerts_fired,
    )
    assert standing.threshold == original.threshold
    assert standing.rearm == original.rearm
    # A monitor watch's layer is its evaluator's frontier: the standing
    # entry no longer carries one, and the decoder ignores the field that
    # older snapshots hold.
    assert "monitor" not in document["standing"][0]
    document["standing"][0]["monitor"] = {
        "length": 3,
        "layer": encode_frontier({("n", "d0"): Fraction(9, 16)}),
    }
    assert state_to_dict(state_from_dict(document)) == state_to_dict(loaded)


def test_state_from_dict_refuses_wrong_format(rng) -> None:
    with pytest.raises(ReproError, match="not a repro-store/1"):
        state_from_dict({"format": "something/else"})
    with pytest.raises(ReproError, match="malformed snapshot"):
        state_from_dict([1, 2, 3])
    document = state_to_dict(_state(rng))
    del document["standing"][0]["threshold"]
    with pytest.raises(ReproError, match="malformed snapshot"):
        state_from_dict(document)


def test_write_load_newest_wins(tmp_path, rng) -> None:
    snapdir = tmp_path / "snapshots"
    write_snapshot(snapdir, 5, StoreState())
    write_snapshot(snapdir, 12, _state(rng))
    assert latest_snapshot_lsn(snapdir) == 12
    lsn, state = load_snapshot(snapdir)
    assert lsn == 12
    assert list(state.streams) == ["s"]
    assert delete_snapshots_before(snapdir, 12) == 1
    assert [path.name for path in snapshot_paths(snapdir)] == [
        "0000000000000012.snap"
    ]


def test_write_snapshot_leaves_no_temp_file(tmp_path, rng) -> None:
    snapdir = tmp_path / "snapshots"
    write_snapshot(snapdir, 1, _state(rng))
    assert not list(snapdir.glob("*.tmp"))


def test_torn_snapshot_file_refuses_loudly(tmp_path) -> None:
    snapdir = tmp_path / "snapshots"
    write_snapshot(snapdir, 1, StoreState())
    path = snapshot_paths(snapdir)[0]
    path.write_text(path.read_text()[:10])
    with pytest.raises(ReproError, match="cannot load snapshot"):
        load_snapshot(snapdir)


def test_load_snapshot_empty_dir_is_none(tmp_path) -> None:
    assert load_snapshot(tmp_path / "nowhere") is None
    assert latest_snapshot_lsn(tmp_path / "nowhere") == 0
