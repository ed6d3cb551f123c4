from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from fedmesh import locality
from fedmesh.config import load_node_config
from fedmesh.datastore import Q, MatchMode, ProtectedValue, ProtectedValueIndex
from fedmesh.errors import ConfigError, TraceFormatError
from fedmesh.locality import (
    HEX64_RE,
    PATIENT_ID_PRETEST,
    PATIENT_ID_RE,
    Finding,
    MessageEnvelope,
    Topology,
    TraceLog,
    Violation,
    ViolationKind,
    blocked_message,
    check_trace,
    read_trace,
    scan_outbound,
)
from fedmesh.scenario import boot_scenario, load_audit_context, run_scenario

from conftest import GOLDEN_TOKENS, oracle_scan


def _index(*entries: ProtectedValue) -> ProtectedValueIndex:
    return ProtectedValueIndex(node_id="clinic", entries=entries)


NAME = ProtectedValue("Marina Kovacs", "full_name", MatchMode.TEXT)
PATIENT_ID = ProtectedValue("CLN-0001", "patient_id")
TOKEN_ENTRY = ProtectedValue(
    GOLDEN_TOKENS["CLN-0001"], "case_token", MatchMode.EXACT, frozenset({"insurer"})
)

EDGE = ("clinic", "insurer")

TOPOLOGY = Topology(
    edges=frozenset({("clinic", "insurer"), ("insurer", "specialist")}),
    token_free_nodes=frozenset({"specialist"}),
)


# Both edges declared and no token-free node: only the protected-value and
# raw-patient-id rules can fire.
OPEN = Topology(edges=frozenset({("clinic", "insurer"), ("clinic", "specialist")}))


def test_scan_finds_name_case_insensitively():
    findings = scan_outbound("details for MARINA kovacs attached", _index(NAME), EDGE, OPEN)
    assert findings == [Finding(ViolationKind.PROTECTED_VALUE, "full_name", "Marina Kovacs")]


def test_scan_ids_are_case_sensitive():
    """The indexed id matches in its own case only; the raw-id rule, which
    holds on every edge, matches in any case."""
    assert scan_outbound("cln-0001 mentioned", _index(PATIENT_ID), EDGE, OPEN) == [
        Finding(ViolationKind.RAW_PATIENT_ID, None, "cln-0001"),
    ]
    assert scan_outbound("CLN-0001 mentioned", _index(PATIENT_ID), EDGE, OPEN) == [
        Finding(ViolationKind.PROTECTED_VALUE, "patient_id", "CLN-0001"),
        Finding(ViolationKind.RAW_PATIENT_ID, None, "CLN-0001"),
    ]


@given(st.lists(st.sampled_from(["CLN", "cLn", "ClN", "-", "_", "0", "7", "\u0663", "x", " "])).map("".join))
@example("cLn-\u0663\u06630\u0663")
def test_patient_id_pretest_holds_for_every_id(text):
    """The cheap pre-test ``scan_outbound`` runs first matches wherever the
    raw-id rule does, whatever the case, word edges and digit script."""
    if PATIENT_ID_RE.search(text):
        assert PATIENT_ID_PRETEST.search(text)


def test_scan_respects_edge_whitelist():
    body = f"Coverage inquiry for patient_token={GOLDEN_TOKENS['CLN-0001']}"
    assert scan_outbound(body, _index(TOKEN_ENTRY), ("clinic", "insurer"), OPEN) == []
    assert scan_outbound(body, _index(TOKEN_ENTRY), ("clinic", "specialist"), OPEN) != []


def test_scan_empty_index_is_clean():
    assert scan_outbound("anything at all", _index(), EDGE, OPEN) == []


def test_scan_never_mutates_body():
    body = "report on Marina Kovacs"
    scan_outbound(body, _index(NAME), EDGE, OPEN)
    assert body == "report on Marina Kovacs"


def test_scan_applies_the_rules_in_order():
    """One body breaking all four rules gets one finding per rule, in the
    checker's order, and the block message names rules and columns only."""
    topology = Topology(edges=frozenset(), token_free_nodes=frozenset({"insurer"}))
    token = GOLDEN_TOKENS["CLN-0001"]
    findings = scan_outbound(f"Marina Kovacs cln-0001 {token}", _index(NAME), EDGE, topology)
    assert findings == [
        Finding(ViolationKind.UNDECLARED_EDGE),
        Finding(ViolationKind.PROTECTED_VALUE, "full_name", "Marina Kovacs"),
        Finding(ViolationKind.TOKEN_LEAK, None, token),
        Finding(ViolationKind.RAW_PATIENT_ID, None, "cln-0001"),
    ]
    assert blocked_message(EDGE, findings) == (
        "message clinic->insurer blocked: undeclared-edge; protected-value from column(s) "
        "full_name; token-leak; raw-patient-id"
    )


# Characters whose casefold changes length or spelling (``ß`` -> ``ss``,
# ``ſ`` -> ``s``, ``İ`` -> ``i̇``, Kelvin sign -> ``k``), their plain
# look-alikes, and whitespace.
_ALPHABET = "asSßſİiKk\u212a\u0307 \n-1"


# Same-length values, enough of them to outnumber the windows of a short
# body so that their width's table is searched window by window.
_DENSE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.text(_ALPHABET, min_size=n, max_size=n), min_size=12, max_size=40)
)


# Values of at least Q characters over two letters, so their grams
# collide; values of ``ß``, ``İ`` and ``a`` that may reach Q only once
# casefolded; and values of multi-byte characters, whose grams cut
# characters apart and whose folds differ from them in case and in length.
_LONG = st.one_of(
    st.text("ab", min_size=Q, max_size=Q + 4),
    st.text("aßİ", min_size=4, max_size=Q),
    st.text("aßé€İ", min_size=Q, max_size=Q + 4),
)


_WHITELISTS = st.frozensets(st.sampled_from(["insurer", "specialist"]))
_COLUMNS = ["col_a", "col_b"]
# Every kind an entry can take: a match mode and a whitelist.
_KINDS = [
    (match, frozenset(whitelist))
    for match in MatchMode
    for whitelist in ([], ["insurer"], ["specialist"], ["insurer", "specialist"])
]


# What a value adds to the body: most often nothing, else the value itself
# or a near miss of it. A near miss is the value less its first or last
# character, which keeps all but one of its grams, or the value in another
# case, which keeps all its folded grams but is no exact match.
_PIECES = (
    lambda v: "", lambda v: "", lambda v: "",
    lambda v: v, lambda v: v[1:], lambda v: v[:-1], str.upper, str.swapcase,
)


@st.composite
def _index_and_body(draw):
    """An index and a body, drawn so that a failure shrinks in about a
    minute: a dense or long value's column and kind are one draw, the long
    values have no minimum number, and the index order is one draw, taken
    last, so that shrinking it changes no other draw.

    Each listed or long value's kind draw also picks the piece it adds to
    the body (``_PIECES``), so hits and near misses are common. Hypothesis
    makes most examples by copying one part of an earlier example over
    another part drawn by the same strategy; a copied value or kind then
    changes the body too."""
    listed_kinds = st.sampled_from([
        (column, match, piece) for column in _COLUMNS for match in MatchMode for piece in _PIECES
    ])
    listed = draw(st.lists(st.tuples(
        st.one_of(st.text(_ALPHABET, max_size=5), st.text(max_size=12)),  # empty and blank too
        listed_kinds,
        _WHITELISTS,
    ), max_size=12))
    entries = [
        ProtectedValue(value, column, match, allowed_to) for value, (column, match, _), allowed_to in listed
    ]
    dense_kinds = st.sampled_from([(column, match) for column in _COLUMNS for match in MatchMode])
    dense = draw(st.one_of(st.just([]), _DENSE))
    for value in dense:
        entries.append(ProtectedValue(value, *draw(dense_kinds)))
    # Each long value takes one of two to four kinds, the first of them
    # always the strictest (``exact``, no whitelist), so the index's one
    # gram table files needles of several kinds; some are indexed in both
    # columns.
    kinds = [_KINDS[0]] + draw(st.lists(st.sampled_from(_KINDS[1:]), min_size=1, max_size=3, unique=True))
    long_kinds = st.sampled_from([
        (kind, columns, piece)
        for kind in kinds for columns in (["col_a"], ["col_b"], _COLUMNS) for piece in _PIECES
    ])
    # Up to 64 long values. Each one goes on with a draw that is 0 one time
    # in 64, not with a list's minimum size, so that a failure shrinks to
    # the values it needs.
    long_pieces: list[str] = []
    while len(long_pieces) < 64 and draw(st.integers(0, 63)):
        value, ((match, allowed_to), columns, piece) = draw(st.tuples(_LONG, long_kinds))
        entries += [ProtectedValue(value, column, match, allowed_to) for column in columns]
        long_pieces.append(piece(value))
    # A body leads with the long values' pieces, which a cut below keeps
    # longest, then the listed values' pieces, then free text or a dense
    # value or a near miss of one. It takes no long free text when there
    # are long values.
    pieces = st.text(_ALPHABET, max_size=4)
    if not long_pieces:
        pieces = st.one_of(pieces, st.text(max_size=50))
    if dense:
        pieces = st.one_of(pieces, st.tuples(st.sampled_from(dense), st.sampled_from(_PIECES[3:])).map(
            lambda drawn: drawn[1](drawn[0])
        ))
    body = "".join(long_pieces + [piece(value) for value, (_, _, piece), _ in listed])
    body += "".join(draw(st.lists(pieces, max_size=2)))
    # The gram table looks the folded body's windows up when its positions
    # outnumber them, else tests each position with ``in``. The body is
    # padded up to that count or cut below it, in about equal shares, so
    # that each side is taken about as often.
    grams = sum(len(e.value.casefold()) >= Q for e in entries)
    if draw(st.booleans()):
        body += " " * (grams + Q - 1 - len(body.casefold()))
    elif grams > 1:
        body += " " * (Q - len(body.casefold()))
        while len(body.casefold()) - Q + 1 >= grams:
            body = body[:-1]
    windows = len(body.casefold()) - Q + 1
    side = "lookup" if 0 < windows < grams else "in" if 0 < grams <= windows else "unsearched"
    event(f"gram table: {side}")
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(entries)
    return ProtectedValueIndex(node_id="n", entries=tuple(entries)), body


# 32 twelve-letter values whose first Q-grams collide and whose last ones
# do not; one of them is indexed in two columns.
_GRAMMED = ["aaaaaaa" + format(i, "05b").translate(str.maketrans("01", "ab")) for i in range(32)]


# 80 64-hex tokens, more than the windows of a body that carries one.
_TOKENS = [hashlib.sha256(bytes([i])).hexdigest() for i in range(80)]


# A long exact value of multi-byte characters, no two of whose grams are
# alike. Its case-swapped form folds to the same bytes.
_WIDE = "Aßé€İaéß€"


def _at_each_byte_offset(test):
    """Add examples that put ``_WIDE``, filed among the ``_GRAMMED`` values,
    at each byte offset mod Q of the folded body's UTF-8. One ends on the
    body's last byte, the others on a lone surrogate, as JSON can decode
    one. The lead-ins fold to other lengths than their own (``ß`` to
    ``ss``, ``İ`` to ``i̇``). A last example holds the case-swapped form
    alone: every gram of the needle is the body's, yet no exact match."""
    index = ProtectedValueIndex(
        node_id="n",
        entries=tuple(ProtectedValue(v, "col_a") for v in _GRAMMED) + (ProtectedValue(_WIDE, "col_b"),),
    )
    leads = ["", "x", "ß", "€", "€x", "İé", "ß€x", "€€x"]
    assert [len(lead.casefold().encode()) % Q for lead in leads] == list(range(Q))
    bodies = [_WIDE] + [lead + _WIDE + "\ud800" for lead in leads[1:]] + [_WIDE.swapcase()]
    for body in bodies:
        test = example(case=(index, body), edge=("clinic", "insurer"))(test)
    return test


@settings(deadline=None)
@given(
    case=_index_and_body(),
    edge=st.sampled_from([("clinic", "insurer"), ("clinic", "specialist")]),
)
@_at_each_byte_offset
@example(  # a dense width-2 table, exact values and a text one, forces window lookups
    case=(
        ProtectedValueIndex(
            node_id="n",
            entries=tuple(ProtectedValue(f"{a}{b}", "col_a") for a in "asS1" for b in "asS1")
            + (ProtectedValue("ß", "col_b", MatchMode.TEXT),),
        ),
        "xSSy",
    ),
    edge=("clinic", "insurer"),
)
@example(  # exact gram path: a value in the last window, a lone gram of another
    case=(
        ProtectedValueIndex(
            node_id="n",
            entries=tuple(
                ProtectedValue(v, "col_a", MatchMode.EXACT, frozenset({"specialist"})) for v in _GRAMMED
            ) + (ProtectedValue(_GRAMMED[5], "col_b", MatchMode.EXACT, frozenset({"specialist"})),),
        ),
        _GRAMMED[3][-Q:] + "z" + _GRAMMED[5],
    ),
    edge=("clinic", "insurer"),
)
@example(  # text gram path, with values that reach Q only once casefolded
    case=(
        ProtectedValueIndex(
            node_id="n",
            entries=tuple(ProtectedValue(v.upper(), "col_a", MatchMode.TEXT) for v in _GRAMMED)
            + (
                ProtectedValue("ßßßß", "col_a", MatchMode.TEXT),
                ProtectedValue("İaaaaaa", "col_b", MatchMode.TEXT),
                ProtectedValue(_GRAMMED[9], "col_b", MatchMode.TEXT),
            ),
        ),
        _GRAMMED[2][-Q:] + "SSSSSSSS" + "i\u0307AAAAAA" + _GRAMMED[9].upper(),
    ),
    edge=("clinic", "specialist"),
)
@example(  # an exact and a text needle filed under one gram, the exact one whitelisted
    case=(
        ProtectedValueIndex(
            node_id="n",
            entries=(
                ProtectedValue("ABABABAB", "col_a", MatchMode.EXACT, frozenset({"insurer"})),
                ProtectedValue("abababab", "col_b", MatchMode.TEXT),
            ),
        ),
        "ABABABAB",
    ),
    edge=("clinic", "insurer"),
)
@example(  # a whitelisted token, and a value filed under the token's gram
    case=(
        ProtectedValueIndex(
            node_id="n",
            entries=tuple(
                ProtectedValue(t, "case_token", MatchMode.EXACT, frozenset({"insurer"})) for t in _TOKENS
            ) + (ProtectedValue(_TOKENS[7][-Q:], "col_a"),),
        ),
        f"token {_TOKENS[7]} {_TOKENS[7][-Q:]}",
    ),
    edge=("clinic", "insurer"),
)
@example(  # a small index of several kinds: every long needle is tested with ``in``
    case=(
        _index(
            NAME,
            PATIENT_ID,
            TOKEN_ENTRY,
            ProtectedValue("1968-08-12", "dob"),
            ProtectedValue("Kovacs", "full_name", MatchMode.TEXT),
        ),
        f"re: MARINA KOVACS, born 1968-08-12, CLN-0001 / {TOKEN_ENTRY.value}",
    ),
    edge=("clinic", "insurer"),
)
def test_scan_soundness_against_bruteforce(case, edge):
    """The compiled matcher returns exactly the linear oracle's findings, in
    index order, for both match modes, shared needles and whitelists, on
    both sides of each width table's selection, whatever the other rules
    find."""
    index, body = case
    findings = scan_outbound(body, index, edge, TOPOLOGY)
    values = [f for f in findings if f.kind is ViolationKind.PROTECTED_VALUE]
    assert values == oracle_scan(body, index, edge)


def test_fault_injection_always_detected(workspace):
    """100 protected values spliced at random positions are all found."""
    _, indexes = load_audit_context(workspace.topology_config)
    clinic_index = indexes["clinic"]
    golden_body = (
        f"Coverage inquiry for patient_token={GOLDEN_TOKENS['CLN-0001']}\n"
        "Presentation: moderate symptoms, 12 weeks; limitation: difficulty stairs and prolonged standing.\n"
        "Prior management: NSAID_2_weeks; home_exercises.\n"
        "Proposed treatment: conservative_management.\n"
        "Please advise coverage and any prerequisites."
    )
    spliceable = [e.value for e in clinic_index.entries if "insurer" not in e.allowed_to]
    rng = random.Random(20260809)
    for _ in range(100):
        value = rng.choice(spliceable)
        position = rng.randrange(len(golden_body) + 1)
        spliced = golden_body[:position] + value + golden_body[position:]
        findings = scan_outbound(spliced, clinic_index, EDGE, OPEN)
        assert value in {f.offending_value for f in findings}


# ---------------------------------------------------------------------------
# Envelopes and traces
# ---------------------------------------------------------------------------


def test_envelope_invariants():
    with pytest.raises(ValueError):
        MessageEnvelope("a", "b", "op", "c", "", 1)
    with pytest.raises(ValueError):
        MessageEnvelope("a", "a", "op", "c", "body", 1)
    with pytest.raises(ValueError):
        MessageEnvelope("a", "b", "op", "c", "body", 0)


def test_trace_appends_are_sequential():
    trace = TraceLog("run-1")
    first = trace.append(from_node="a", to_node="b", operation_id="op", conversation_id="c", body="x")
    second = trace.append(from_node="b", to_node="a", operation_id="op", conversation_id="c", body="y")
    assert (first.sent_at, second.sent_at) == (1, 2)


def test_trace_jsonl_fields_exact():
    trace = TraceLog("run-1")
    trace.append(from_node="a", to_node="b", operation_id="op", conversation_id="c", body="x")
    record = json.loads(trace.to_jsonl().strip())
    assert set(record) == {"run_id", "seq", "from", "to", "operation_id", "conversation_id", "body"}
    assert record["seq"] == 1
    assert record["from"] == "a"


def test_trace_round_trip(tmp_path):
    trace = TraceLog("run-7")
    trace.append(from_node="a", to_node="b", operation_id="op", conversation_id="c", body="two\nlines")
    trace.append(from_node="b", to_node="a", operation_id="op", conversation_id="c", body="reply")
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    loaded = read_trace(path)
    assert loaded.run_id == "run-7"
    assert loaded.envelopes == trace.envelopes


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_trace_round_trip_keeps_unicode_line_separators(tmp_path, separator):
    """``to_jsonl`` writes these raw inside a body; only ``\\n`` ends a record."""
    trace = TraceLog("run-8")
    trace.append(from_node="a", to_node="b", operation_id="op", conversation_id="c",
                 body=f"see{separator}Marina Kovacs")
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    assert separator in path.read_text(encoding="utf-8")
    assert read_trace(path).envelopes == trace.envelopes


def test_read_trace_malformed_line_number(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = TraceLog("run-1")
    good.append(from_node="a", to_node="b", operation_id="op", conversation_id="c", body="x")
    path.write_text(good.to_jsonl() + "{not json\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 2


def test_read_trace_missing_field(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"run_id": "r", "seq": 1}\n')
    with pytest.raises(TraceFormatError):
        read_trace(path)


def _records(*run_ids) -> str:
    fields = {"from": "a", "to": "b", "operation_id": "op", "conversation_id": "c", "body": "x"}
    return "".join(
        json.dumps({"run_id": run_id, "seq": seq, **fields}) + "\n"
        for seq, run_id in enumerate(run_ids, start=1)
    )


def test_read_trace_compares_each_run_id_with_the_first(tmp_path):
    """An empty first run id is a run id like any other."""
    path = tmp_path / "trace.jsonl"
    path.write_text(_records("", "run-2"))
    with pytest.raises(TraceFormatError, match="mixes run ids") as err:
        read_trace(path)
    assert err.value.line == 2


def test_read_trace_rejects_a_run_id_that_is_not_a_string(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(_records(7, 7))
    with pytest.raises(TraceFormatError, match="run_id must be a string") as err:
        read_trace(path)
    assert err.value.line == 1


_GOOD_RECORD = _records("r").strip()

# Each line's error text, as json.loads and the field checks word it.
_MALFORMED_LINES = {
    "byte-order-mark": (
        "\ufeff" + _GOOD_RECORD,
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
    "ideographic-space": ("\u3000" + _GOOD_RECORD, "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "leading-space-truncated": ('  {"run_id": ', "invalid JSON: Expecting value: line 1 column 14 (char 13)"),
    "extra-data": (_GOOD_RECORD + " x", "invalid JSON: Extra data: line 1 column 110 (char 109)"),
    "two-records": (_GOOD_RECORD * 2, "invalid JSON: Extra data: line 1 column 109 (char 108)"),
    "array": ("[1, 2]", "envelope record must be a JSON object"),
    "bare-string": ('"hello"', "envelope record must be a JSON object"),
    "truncated-object": (
        _GOOD_RECORD[:40], "invalid JSON: Unterminated string starting at: line 1 column 40 (char 39)",
    ),
    "unquoted-key": (
        "{not json", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "control-character": (
        _GOOD_RECORD.replace('"x"', '"a\x01b"'),
        "invalid JSON: Invalid control character at: line 1 column 107 (char 106)",
    ),
    "deeply-nested": ("[" * 100_000, "invalid JSON: nested too deeply"),
    "missing-fields": (
        '{"run_id": "r", "seq": 1, "body": "x"}', "missing fields: from, to, operation_id, conversation_id",
    ),
    # A field outside the seven may carry a protected value unscanned.
    "extra-field": (
        _GOOD_RECORD[:-1] + ', "note": "Marina Kovacs"}', "fields beyond the seven of a trace record",
    ),
    "nan-seq": (_GOOD_RECORD.replace('"seq": 1', '"seq": NaN'), "seq must be an integer"),
    "infinite-seq": (_GOOD_RECORD.replace('"seq": 1', '"seq": Infinity'), "seq must be an integer"),
    "negative-infinite-seq": (_GOOD_RECORD.replace('"seq": 1', '"seq": -Infinity'), "seq must be an integer"),
    # A string seq's text is a cell of the trace; it is not repeated.
    "string-seq": (_GOOD_RECORD.replace('"seq": 1', '"seq": "Marina Kovacs"'), "seq must be an integer"),
    "float-seq": (_GOOD_RECORD.replace('"seq": 1', '"seq": 1.9'), "seq must be an integer"),
    "bool-seq": (_GOOD_RECORD.replace('"seq": 1', '"seq": true'), "seq must be an integer"),
    # More digits than int() takes (4300 by default).
    "long-seq": (_GOOD_RECORD.replace('"seq": 1', '"seq": ' + "1" * 5000), "invalid JSON: number too long"),
    # Text fields are taken as they are, never converted with str().
    "null-from": (_GOOD_RECORD.replace('"from": "a"', '"from": null'), "from must be a string"),
    "integer-to": (_GOOD_RECORD.replace('"to": "b"', '"to": 2'), "to must be a string"),
    "integer-operation-id": (
        _GOOD_RECORD.replace('"operation_id": "op"', '"operation_id": 5'), "operation_id must be a string",
    ),
    "list-conversation-id": (
        _GOOD_RECORD.replace('"conversation_id": "c"', '"conversation_id": ["c"]'),
        "conversation_id must be a string",
    ),
    "object-body": (_GOOD_RECORD.replace('"body": "x"', '"body": {"x": 1}'), "body must be a string"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_LINES))
def test_read_trace_words_each_malformed_line_as_json_loads_does(tmp_path, case):
    line, message = _MALFORMED_LINES[case]
    path = tmp_path / "trace.jsonl"
    path.write_text(_GOOD_RECORD + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert str(err.value) == f"line 2: {message}"


@pytest.mark.parametrize("line", [" " + _GOOD_RECORD, _GOOD_RECORD + "\t", " \t" + _GOOD_RECORD + "  "])
def test_read_trace_accepts_whitespace_around_a_record(tmp_path, line):
    path = tmp_path / "trace.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    (envelope,) = read_trace(path).envelopes
    assert (envelope.sent_at, envelope.body) == (1, "x")

def test_read_trace_names_the_line_of_the_first_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(_records("r", "r").encode() + b'{"body": "caf\xe9"}\n\xff\xfe\n')
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert str(err.value) == "line 3: invalid UTF-8"


def test_read_trace_splits_records_on_line_feeds_only(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes((_GOOD_RECORD + "\r\n" + _GOOD_RECORD.replace('"seq": 1', '"seq": 2') + "\r").encode())
    assert [envelope.sent_at for envelope in read_trace(path).envelopes] == [1, 2]
    path.write_bytes((_GOOD_RECORD + "\r" + _GOOD_RECORD).encode())
    with pytest.raises(TraceFormatError, match="^line 1: invalid JSON: Extra data"):
        read_trace(path)


def test_read_trace_empty_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("")
    assert read_trace(path).envelopes == []


def _reference_read_trace(text: str) -> tuple[str, object, object]:
    """What ``read_trace`` must make of a file's text, line by line:
    ``json.loads`` on each ``"\\n"``-split line, then the field rules.
    ``("ok", run id, envelope fields)`` or ``("error", line, text)``."""
    run_id = None
    envelopes = []
    last_seq = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line or line.isspace():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            return "error", line_no, f"invalid JSON: {exc}"
        except RecursionError:
            return "error", line_no, "invalid JSON: nested too deeply"
        if not isinstance(record, dict):
            return "error", line_no, "envelope record must be a JSON object"
        missing = [key for key in ("run_id", "seq", "from", "to", "operation_id", "conversation_id", "body")
                   if key not in record]
        if missing:
            return "error", line_no, f"missing fields: {', '.join(missing)}"
        if len(record) != 7:
            return "error", line_no, "fields beyond the seven of a trace record"
        if not isinstance(record["run_id"], str):
            return "error", line_no, "run_id must be a string"
        text_keys = ("from", "to", "operation_id", "conversation_id", "body")
        for key in text_keys:
            if not isinstance(record[key], str):
                return "error", line_no, f"{key} must be a string"
        fields = [record[key] for key in text_keys]
        if run_id is None:
            run_id = record["run_id"]
        elif record["run_id"] != run_id:
            return "error", line_no, "trace mixes run ids"
        seq = record["seq"]
        if isinstance(seq, bool) or not isinstance(seq, int):
            return "error", line_no, "seq must be an integer"
        if not fields[4]:
            return "error", line_no, "envelope body must be non-empty"
        if fields[0] == fields[1]:
            return "error", line_no, "envelope endpoints must differ"
        if seq < 1:
            return "error", line_no, "sequence numbers start at 1"
        if seq <= last_seq:
            return "error", line_no, "sequence numbers must be strictly increasing"
        last_seq = seq
        envelopes.append((*fields, seq))
    return "ok", run_id or "", envelopes


_ODD_SEQS = [
    "0", "-3", "1.9", "2.0", "1e3", "true", "false", "null", '"7"', '"Marina Kovacs"',
    "NaN", "Infinity", "-Infinity", "[1]", "{}", str(2**70),
]
_ODD_NODES = ["1", "2.5", "null", "true", "[]", '{"x": 1}', '"clinic"']


@st.composite
def _trace_texts(draw) -> str:
    """Valid records, most of them left whole and the others given one
    fault each, with blank lines and padding, joined by LF or CRLF."""
    lines = []
    seq = 0
    for _ in range(draw(st.integers(0, 5))):
        seq += draw(st.integers(1, 3))
        body = draw(st.text("ab \u2028\u2029\u0085\n\t\"\\é", max_size=8))
        fields = {
            "run_id": '"r"',
            "seq": str(seq),
            "from": '"clinic"',
            "to": '"insurer"',
            "operation_id": '"op"',
            "conversation_id": '"c"',
            "body": json.dumps(body, ensure_ascii=False),
        }
        fault = draw(st.sampled_from(["none"] * 20 + [
            "seq", "from", "to", "run_id", "missing", "extra", "truncated", "doubled", "repeated", "non-object",
        ]))
        if fault == "seq":
            fields["seq"] = draw(st.sampled_from(_ODD_SEQS))
        elif fault in ("from", "to"):
            fields[fault] = draw(st.sampled_from(_ODD_NODES))
        elif fault == "run_id":
            fields["run_id"] = draw(st.sampled_from(['"r2"', "7"]))
        elif fault == "missing":
            del fields[draw(st.sampled_from(sorted(fields)))]
        elif fault == "extra":
            fields[draw(st.sampled_from(["note", "Body", ""]))] = '"Marina Kovacs"'
        line = "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"
        if fault == "truncated":
            line = line[:draw(st.integers(0, len(line) - 1))]
        elif fault == "doubled":
            line += line
        elif fault == "repeated":
            lines.append(line)
        elif fault == "non-object":
            line = draw(st.sampled_from(["[1, 2]", '"x"', "3", "null", "true"]))
        event(f"fault: {fault}")
        if draw(st.booleans()):
            line = draw(st.sampled_from(["", " ", "\t", " \t"])) + line + draw(st.sampled_from(["", " ", "\t "]))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u3000"])))
        lines.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(deadline=None, max_examples=400)
@given(text=_trace_texts())
def test_read_trace_agrees_with_a_line_by_line_reference(text):
    """``read_trace`` returns the reference's envelopes, or raises
    ``TraceFormatError`` naming the reference's line and text, which stays
    short; no other exception escapes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_bytes(text.encode("utf-8"))
        outcome, *expected = _reference_read_trace(path.read_bytes().decode("utf-8"))
        event(f"outcome: {outcome}")
        if outcome == "error":
            line, message = expected
            with pytest.raises(TraceFormatError) as err:
                read_trace(path)
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")
            assert len(str(err.value)) <= 200
        else:
            trace = read_trace(path)
            assert [trace.run_id, [
                (e.from_node, e.to_node, e.operation_id, e.conversation_id, e.body, e.sent_at)
                for e in trace.envelopes
            ]] == expected


# ---------------------------------------------------------------------------
# check_trace
# ---------------------------------------------------------------------------


def _trace_with(*bodies_and_edges) -> TraceLog:
    trace = TraceLog("run-t")
    for from_node, to_node, body in bodies_and_edges:
        trace.append(
            from_node=from_node,
            to_node=to_node,
            operation_id="op",
            conversation_id="c",
            body=body,
        )
    return trace


def test_check_trace_empty_is_clean():
    assert check_trace(TraceLog("run-e"), TOPOLOGY, {}) == []


def test_check_trace_golden_run_is_clean(workspace):
    result = run_scenario(
        workspace.node_configs, "Confirm coverage for CLN-0001", run_id="run-loc-clean"
    )
    assert result.exit_code == 0
    topology, indexes = load_audit_context(workspace.topology_config)
    assert check_trace(result.trace, topology, indexes) == []


def test_audit_indexes_equal_booted_indexes(workspace):
    """The audit context and the booted nodes load their datasets the same way."""
    scenario = boot_scenario(workspace.node_configs, run_id="run-loc-index")
    scenario.close()
    topology, indexes = load_audit_context(workspace.topology_config)
    assert indexes == scenario.indexes()
    assert topology == scenario.topology


def test_check_trace_flags_lower_case_patient_id(workspace):
    """The raw-patient-id rule matches in any letter case, as the clinic's
    request parser does."""
    result = run_scenario(
        workspace.node_configs,
        "Confirm coverage for CLN-0001",
        run_id="run-loc-lower-id",
        inject_leak="cln-0001",
        bypass_guard=True,
    )
    assert [(v.kind, v.seq) for v in result.violations] == [(ViolationKind.RAW_PATIENT_ID, 1)]
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("token_free", "yes", "'token_free' must be true or false"),
    ],
    ids=["token_free"],
)
def test_node_audit_rules_are_validated(workspace, tmp_path, key, value, message):
    record = json.loads(workspace.clinic_config.read_text())
    record[key] = value
    path = tmp_path / "clinic.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ConfigError) as err:
        load_node_config(path)
    assert message in str(err.value)


def test_check_trace_flags_injected_patient_id(workspace):
    """The same golden trace with a raw id spliced into the inquiry body."""
    result = run_scenario(
        workspace.node_configs, "Confirm coverage for CLN-0001", run_id="run-loc-v4"
    )
    topology, indexes = load_audit_context(workspace.topology_config)
    tampered = TraceLog(result.trace.run_id)
    for env in result.trace.envelopes:
        body = env.body
        if env.from_node == "clinic" and env.to_node == "insurer":
            body = body + "\npatient_id=CLN-0001"
        tampered.append(
            from_node=env.from_node,
            to_node=env.to_node,
            operation_id=env.operation_id,
            conversation_id=env.conversation_id,
            body=body,
        )
    kinds = {v.kind for v in check_trace(tampered, topology, indexes)}
    assert ViolationKind.RAW_PATIENT_ID in kinds
    assert ViolationKind.PROTECTED_VALUE in kinds  # the id is also an indexed clinic value


def test_check_trace_flags_token_to_specialist():
    trace = _trace_with(("insurer", "specialist", f"summary {GOLDEN_TOKENS['CLN-0003']} attached"))
    violations = check_trace(trace, TOPOLOGY, {})
    assert [v.kind for v in violations] == [ViolationKind.TOKEN_LEAK]


def test_check_trace_token_rule_catches_unknown_tokens():
    trace = _trace_with(("insurer", "specialist", "see token " + "a1" * 32))
    assert any(v.kind is ViolationKind.TOKEN_LEAK for v in check_trace(trace, TOPOLOGY, {}))


def test_check_trace_flags_undeclared_edge():
    trace = _trace_with(("clinic", "specialist", "hello there"))
    violations = check_trace(trace, TOPOLOGY, {})
    assert [v.kind for v in violations] == [ViolationKind.UNDECLARED_EDGE]


def test_check_trace_allows_response_direction():
    trace = _trace_with(("insurer", "clinic", "verdict text"))
    assert check_trace(trace, TOPOLOGY, {}) == []


def test_check_trace_deterministic(workspace):
    result = run_scenario(
        workspace.node_configs, "Confirm coverage for CLN-0002", run_id="run-loc-det"
    )
    topology, indexes = load_audit_context(workspace.topology_config)
    first = check_trace(result.trace, topology, indexes)
    second = check_trace(result.trace, topology, indexes)
    assert first == second


def test_violation_json_shape():
    trace = _trace_with(("clinic", "specialist", "hello"))
    record = json.loads(check_trace(trace, TOPOLOGY, {})[0].to_json())
    assert record["kind"] == "undeclared-edge"
    assert record["seq"] == 1
    assert record["from"] == "clinic"


# ---------------------------------------------------------------------------
# check_trace in batches against the per-envelope oracle
# ---------------------------------------------------------------------------

# 64-hex tokens the clinic may send to the insurer only.
_BATCH_TOKENS = [hashlib.sha256(b"batch-%d" % i).hexdigest() for i in range(4)]
# A value that holds a newline: split across two bodies at it, its halves
# joined by check_trace's newline read as the whole value.
_NEWLINE_VALUE = "Knee pain\nafter walks"

_BATCH_INDEXES = {
    "clinic": ProtectedValueIndex(
        node_id="clinic",
        entries=(
            # Enough ids that their gram table is searched window by window
            # on short texts, and tested value by value on long ones.
            *(ProtectedValue(f"CLN-{i:04d}", "patient_id") for i in range(0, 600, 2)),
            ProtectedValue("Marina Kovacs", "full_name", MatchMode.TEXT),
            ProtectedValue("Kovacs", "full_name", MatchMode.TEXT),
            ProtectedValue("Straße", "full_name", MatchMode.TEXT),
            ProtectedValue("1968-08-12", "dob"),
            ProtectedValue(_NEWLINE_VALUE, "notes", MatchMode.TEXT),
            *(ProtectedValue(t, "case_token", MatchMode.EXACT, frozenset({"insurer"})) for t in _BATCH_TOKENS),
        ),
    ),
    "insurer": ProtectedValueIndex(
        node_id="insurer",
        entries=(
            ProtectedValue("INS-993377", "insurance_number"),
            ProtectedValue("PLAN-A", "plan_id", MatchMode.EXACT, frozenset({"clinic"})),
            ProtectedValue("Gold\nplan", "plan_name", MatchMode.TEXT),
        ),
    ),
}
_ALL_VALUES = [e.value for index in _BATCH_INDEXES.values() for e in index.entries]
_BATCH_EDGES = [
    ("clinic", "insurer"),
    ("insurer", "clinic"),
    ("insurer", "specialist"),
    ("specialist", "insurer"),
    ("clinic", "specialist"),  # undeclared
]
_FRAGMENTS = st.one_of(
    st.sampled_from(_ALL_VALUES[-12:] + ["CLN-0000", "CLN-0298", "CLN-0007"]).flatmap(
        lambda v: st.sampled_from([v, v.upper(), v.swapcase()])
    ),
    st.sampled_from(_ALL_VALUES),
    st.sampled_from(["CLN-0042", "cln-0043", "CLN-12345", "xCLN-0044"]),
    st.integers(64, 70).flatmap(lambda n: st.text("0123456789abcdefABCDEF", min_size=n, max_size=n)),
    st.sampled_from([" ", "\n", "x", "-", "ß", "İ", "note: ", " "]),
)


def _per_envelope_oracle(trace: TraceLog) -> list[Violation]:
    """Each envelope alone: ``oracle_scan`` for protected values, between
    the other three rules, in rule order."""
    violations = []
    for env in trace.envelopes:
        edge = (env.from_node, env.to_node)
        findings = []
        if not TOPOLOGY.permits(*edge):
            findings.append(Finding(ViolationKind.UNDECLARED_EDGE))
        if env.from_node in _BATCH_INDEXES:
            findings += oracle_scan(env.body, _BATCH_INDEXES[env.from_node], edge)
        token = HEX64_RE.search(env.body)
        if token and env.to_node in TOPOLOGY.token_free_nodes:
            findings.append(Finding(ViolationKind.TOKEN_LEAK, offending_value=token.group(0)))
        raw_id = PATIENT_ID_RE.search(env.body)
        if raw_id:
            findings.append(Finding(ViolationKind.RAW_PATIENT_ID, offending_value=raw_id.group(0)))
        violations += [
            Violation(f.kind, env.sent_at, env.from_node, env.to_node, f.detail(edge), f.offending_value)
            for f in findings
        ]
    return violations


@pytest.mark.parametrize("batch_chars", [1, 160, 2**30])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_check_trace_equals_the_per_envelope_oracle(batch_chars, data):
    """Batches of one body, of a few and of a whole edge find exactly what
    checking each envelope alone finds, in the same order, for every copy
    of a body repeated on its edge or on another, and a value split across
    two consecutive bodies of one edge is not found."""
    messages = data.draw(st.lists(
        st.tuples(st.sampled_from(_BATCH_EDGES), st.lists(_FRAGMENTS, max_size=6).map("".join)),
        min_size=1, max_size=12,
    ))
    edges = [edge for edge, _ in messages]
    bodies = [body or "." for _, body in messages]
    last = len(messages) - 1
    for i, j, same_edge in data.draw(st.lists(st.tuples(st.integers(0, last), st.integers(0, last), st.booleans()),
                                              max_size=4)):
        if i < j:
            bodies[j] = bodies[i]
            if same_edge:
                edges[j] = edges[i]
            elif edges[j] == edges[i]:
                edges[j] = data.draw(st.sampled_from([edge for edge in _BATCH_EDGES if edge != edges[i]]))
            event("a body repeated on its edge" if same_edge else "a body repeated on another edge")
    for i, value in data.draw(st.lists(st.tuples(st.integers(0, len(messages) - 1), st.sampled_from(
        [_NEWLINE_VALUE, "Gold\nplan", "Marina Kovacs", "CLN-0010", _BATCH_TOKENS[0]]
    )), max_size=3)):
        following = [j for j in range(i + 1, len(messages)) if edges[j] == edges[i]]
        if following:
            head, sep, tail = value.partition("\n")
            if not sep:
                cut = data.draw(st.integers(1, len(value) - 1))
                head, tail = value[:cut], value[cut:]
            bodies[i] += head
            bodies[following[0]] = tail + bodies[following[0]]
            event("a value split across two bodies")
    trace = _trace_with(*((a, b, body) for (a, b), body in zip(edges, bodies)))
    with mock.patch.object(locality, "AUDIT_BATCH_CHARS", batch_chars):
        assert check_trace(trace, TOPOLOGY, _BATCH_INDEXES) == _per_envelope_oracle(trace)


def test_check_trace_scans_each_distinct_body_of_an_edge_once():
    """A body repeated on one edge is scanned once, and once more on each
    other edge that carries it; every copy still gets its findings."""
    trace = _trace_with(
        ("clinic", "insurer", "Marina Kovacs"),
        ("clinic", "insurer", "fine"),
        ("insurer", "clinic", "Marina Kovacs"),
        ("clinic", "insurer", "Marina Kovacs"),
        ("clinic", "specialist", "fine"),
        ("clinic", "insurer", "fine"),
        ("clinic", "specialist", "fine"),
    )
    with mock.patch.object(locality, "scan_bodies", wraps=locality.scan_bodies) as scan:
        assert check_trace(trace, TOPOLOGY, _BATCH_INDEXES) == _per_envelope_oracle(trace)
    scanned = [(call.args[2], body) for call in scan.call_args_list for body in call.args[0]]
    assert sorted(scanned) == sorted({((env.from_node, env.to_node), env.body) for env in trace.envelopes})


@pytest.mark.parametrize("batch_chars", [1, 2**30])
def test_check_trace_never_matches_across_two_bodies(batch_chars):
    """Two bodies of one edge whose join by a newline spells a protected
    value, and an id and a token cut between two bodies: nothing is
    found, in batches of one body or of all four."""
    trace = _trace_with(
        ("clinic", "insurer", "notes: Knee pain"),
        ("clinic", "insurer", "after walks; CLN-00"),
        ("clinic", "insurer", "42 and " + _BATCH_TOKENS[1][:30]),
        ("clinic", "insurer", _BATCH_TOKENS[1][30:]),
    )
    with mock.patch.object(locality, "AUDIT_BATCH_CHARS", batch_chars):
        assert check_trace(trace, TOPOLOGY, _BATCH_INDEXES) == []
