"""The runtime guard against the offline checker.

Both apply ``locality.scan_outbound``: the guard to every request before it
is sent and to every reply before it is answered, the checker to every
envelope of the trace. Leaks are injected on all four edges of the
canonical request. A request leak goes through the sender's outbound
mutators; a reply leak through a wrapper around the responder's policy.
Each leak runs twice: once guarded, and once with every node's guard off so
the checker sees what would have crossed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import pytest
from hypothesis import event, given, settings, strategies as st

from fedmesh.errors import FedmeshError, LeakBlocked, ToolError
from fedmesh.fixtures import CANONICAL_REQUEST
from fedmesh.locality import MessageEnvelope, Violation, ViolationKind
from fedmesh.scenario import Scenario, boot_scenario, load_audit_context

from conftest import GOLDEN_TOKENS, oracle_scan

REQUEST_EDGES = (("clinic", "insurer"), ("insurer", "specialist"))
REPLY_EDGES = (("specialist", "insurer"), ("insurer", "clinic"))


@dataclasses.dataclass
class Outcome:
    result: str | FedmeshError  # the entry operation's reply, or what it raised
    envelopes: list[MessageEnvelope]
    violations: list[Violation]
    sends: dict[str, int]  # requests each node's transport sent


@dataclasses.dataclass(frozen=True)
class _ReplyWrapper:
    """A responder's policy whose answer is passed through ``change``."""

    policy: object
    change: Callable[[str], str]

    def decide(self, request_body, results):
        turn = self.policy.decide(request_body, results)
        return self.change(turn) if isinstance(turn, str) else turn


def _splice(body: str, leak: str, at: float) -> str:
    cut = int(len(body) * at)
    return body[:cut] + leak + body[cut:]


def _inject(scenario: Scenario, edge: tuple[str, str], change: Callable[[str], str]) -> None:
    sender, receiver = edge
    node = scenario.nodes[sender]
    if edge in REQUEST_EDGES:
        node.outbound_mutators.append(lambda target, body: change(body) if target == receiver else body)
    else:
        (operation_id,) = node.operations
        node.policies[operation_id] = _ReplyWrapper(node.policies[operation_id], change)


def _run(workspace, edge, change, *, guarded: bool) -> Outcome:
    scenario = boot_scenario(workspace.node_configs, run_id="run-guard")
    try:
        for node in scenario.nodes.values():
            node.enforce_guard = guarded
        _inject(scenario, edge, change)
        try:
            result: str | FedmeshError = scenario.submit(CANONICAL_REQUEST)
        except FedmeshError as exc:
            result = exc
        return Outcome(
            result,
            list(scenario.trace.envelopes),
            scenario.check(),
            {node_id: node.transport.sends for node_id, node in scenario.nodes.items()},
        )
    finally:
        scenario.close()


def _crossed(envelopes: list[MessageEnvelope]) -> list[tuple[str, str, str]]:
    return [(env.from_node, env.to_node, env.body) for env in envelopes]


def _block_texts(outcome: Outcome) -> list[str]:
    """Every text a block produced: what the entry raised and each error reply."""
    texts = [env.body for env in outcome.envelopes if env.body.startswith("error[")]
    if isinstance(outcome.result, FedmeshError):
        texts.append(f"{type(outcome.result).__name__}: {outcome.result}")
    return texts


def _assert_blocked(outcome: Outcome, edge: tuple[str, str], before: int) -> None:
    """The message on ``edge``, the ``before + 1``-th of the run, never crossed."""
    sender, receiver = edge
    if edge in REQUEST_EDGES:
        # Each node sends one request per run, so this one was its only.
        assert outcome.sends[sender] == 0
        assert all((env.from_node, env.to_node) != edge for env in outcome.envelopes[before:])
        assert "LeakBlocked" in _block_texts(outcome)[-1]
    else:
        reply = outcome.envelopes[before]
        assert (reply.from_node, reply.to_node) == edge
        assert reply.body.startswith(f"error[blocked]: message {sender}->{receiver} blocked: ")


def _assert_no_values_in_block_texts(outcome: Outcome, indexes, leak: str | None = None) -> None:
    for text in _block_texts(outcome):
        for node_id, index in indexes.items():
            assert oracle_scan(text, index, (node_id, "nowhere")) == [], text
        assert leak is None or leak not in text


@pytest.fixture(scope="module")
def indexes(workspace):
    return load_audit_context(workspace.topology_config)[1]


def _cased(text: str) -> st.SearchStrategy[str]:
    return st.lists(st.booleans(), min_size=len(text), max_size=len(text)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(text, upper))
    )


def _leaks(indexes, sender: str) -> st.SearchStrategy[str]:
    """Indexed values (the sender's own as often as all nodes'), as stored
    or re-cased; random 64-hex strings; patient ids in any letter case."""
    values = [
        sorted({entry.value for entry in index.entries})
        for index in (indexes[sender], *indexes.values())
    ]
    indexed = [st.sampled_from(group) for group in values if group]
    return st.one_of(
        st.one_of(indexed).flatmap(lambda v: st.sampled_from([v, v.upper(), v.lower()])),
        st.text("0123456789abcdefABCDEF", min_size=64, max_size=64),
        st.integers(0, 9999).flatmap(lambda n: _cased(f"CLN-{n:04d}")),
    )


@settings(deadline=None, max_examples=200)
@given(data=st.data(), edge=st.sampled_from(REQUEST_EDGES + REPLY_EDGES), at=st.floats(0, 1))
def test_guard_blocks_every_message_the_checker_flags(workspace, indexes, data, edge, at):
    """Guarded, no violation is ever recorded, and the first message the
    checker flags past a disabled guard is the one the guard stopped: a
    request is neither sent nor recorded, a reply is answered
    ``error[blocked]``. When the checker flags nothing, the guard stops
    nothing either, and the two runs cross the same messages."""
    leak = data.draw(_leaks(indexes, edge[0]), label="leak")

    def change(body: str) -> str:
        return _splice(body, leak, at)

    bypassed = _run(workspace, edge, change, guarded=False)
    guarded = _run(workspace, edge, change, guarded=True)

    event(f"{edge[0]}->{edge[1]}: {'flagged' if bypassed.violations else 'clean'}")
    assert guarded.violations == []
    _assert_no_values_in_block_texts(guarded, indexes, leak)
    if not bypassed.violations:
        assert _crossed(guarded.envelopes) == _crossed(bypassed.envelopes)
        return
    first = bypassed.violations[0]
    before = first.seq - 1
    assert _crossed(guarded.envelopes[:before]) == _crossed(bypassed.envelopes[:before])
    _assert_blocked(guarded, (first.from_node, first.to_node), before)


def _raise_with_value(message: str) -> str:
    raise ToolError("no coverage rule on file for INS-441122")


# Rows of the locality gap table the guard or the checker once let pass, and
# an error reply that echoes a dataset value: (edge, change, rule, messages
# crossed before it).
GAP_ROWS = {
    "reply-insurance-number": (
        ("insurer", "clinic"), lambda body: f"{body}\nINS-441122", ViolationKind.PROTECTED_VALUE, 3,
    ),
    "upper-case-token": (
        ("insurer", "specialist"),
        lambda body: f"{body}\n{GOLDEN_TOKENS['CLN-0001'].upper()}",
        ViolationKind.TOKEN_LEAK,
        1,
    ),
    "lower-case-patient-id": (
        ("clinic", "insurer"), lambda body: f"{body}\ncln-0001", ViolationKind.RAW_PATIENT_ID, 0,
    ),
    "patient-id-in-consult": (
        ("insurer", "specialist"), lambda body: f"{body}\nCLN-0001", ViolationKind.RAW_PATIENT_ID, 1,
    ),
    "error-reply-with-value": (
        ("insurer", "clinic"), _raise_with_value, ViolationKind.PROTECTED_VALUE, 3,
    ),
}


@pytest.mark.parametrize("row", GAP_ROWS, ids=list(GAP_ROWS))
def test_gap_rows_are_blocked_at_runtime(workspace, indexes, row):
    edge, change, kind, before = GAP_ROWS[row]

    bypassed = _run(workspace, edge, change, guarded=False)
    assert [(v.kind, v.from_node, v.to_node) for v in bypassed.violations] == [(kind, *edge)]

    guarded = _run(workspace, edge, change, guarded=True)
    assert guarded.violations == []
    _assert_blocked(guarded, edge, before)
    assert kind.value in _block_texts(guarded)[0]
    _assert_no_values_in_block_texts(guarded, indexes)
    if edge in REQUEST_EDGES and edge[0] == "clinic":
        assert isinstance(guarded.result, LeakBlocked)
        assert [f.kind for f in guarded.result.findings] == [kind]
