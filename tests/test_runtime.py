from __future__ import annotations

import json
import threading

import pytest

from fedmesh.config import load_node_config
from fedmesh.datastore import (
    ClinicalObservation,
    CoverageRule,
    EnrollmentRow,
    EnrollmentStatus,
    ProtectedValueIndex,
    SymptomClass,
)
from fedmesh.errors import (
    AuthError,
    LoopLimitExceeded,
    OperationNotFound,
    SecretNotFound,
    ToolError,
    ToolNotPermitted,
)
from fedmesh.pseudonym import CaseToken, SecretSource, normalize_id
from fedmesh.runtime import (
    LOOP_LIMIT,
    Node,
    OperationConfig,
    TOOL_REGISTRY,
    ToolCall,
    execute_tool,
    handle_operation,
)
from fedmesh.relay import RelayRequest
from fedmesh.fixtures import write_demo_workspace
from fedmesh.scenario import boot_scenario, build_node

from conftest import GOLDEN_TOKENS


class GreedyPolicy:
    """Adversarial stub: requests a tool on every turn, never finishes."""

    def __init__(self) -> None:
        self.turns = 0

    def decide(self, request_body, results):
        self.turns += 1
        return ToolCall("noop")


class SilentPolicy:
    """Answers immediately without any tool calls."""

    def decide(self, request_body, results):
        return f"echo: {request_body}"


def _test_node(policy, *, permitted=("noop",)):
    tools = dict(TOOL_REGISTRY)
    tools["noop"] = lambda node, args, conversation_id: "ok"
    op = OperationConfig(
        operation_id="op",
        agent_policy="stub",
        permitted_tools=frozenset(permitted),
        access_key="key-1",
    )
    return Node(
        node_id="test",
        datasets={},
        operations={"op": op},
        policies={"op": policy},
        relay_targets={},
        protected_index=ProtectedValueIndex("test", ()),
        tools=tools,
    )


def _request(body="hello", key="key-1", op="op"):
    return RelayRequest(operation_id=op, access_key=key, conversation_id="c1", body=body)


def test_unknown_operation():
    node = _test_node(SilentPolicy())
    with pytest.raises(OperationNotFound):
        handle_operation(node, _request(op="nope"))


def test_access_key_mismatch():
    node = _test_node(SilentPolicy())
    with pytest.raises(AuthError):
        handle_operation(node, _request(key="wrong"))


def test_loop_limit_hit_at_exact_bound():
    policy = GreedyPolicy()
    node = _test_node(policy)
    with pytest.raises(LoopLimitExceeded):
        handle_operation(node, _request())
    assert policy.turns == LOOP_LIMIT == 8


def test_tool_outside_permitted_set():
    class RelayHungryPolicy:
        def decide(self, request_body, results):
            return ToolCall("relay_call", {"target": "x", "body": "y"})

    node = _test_node(RelayHungryPolicy(), permitted=("noop",))
    with pytest.raises(ToolNotPermitted):
        handle_operation(node, _request())


def test_policy_without_tools_answers_at_once():
    node = _test_node(SilentPolicy())
    assert handle_operation(node, _request("ping")) == "echo: ping"


def test_decide_sees_the_last_value_of_a_tool_called_twice():
    seen: list[dict[str, object]] = []

    class TwicePolicy:
        def decide(self, request_body, results):
            seen.append(dict(results))
            if len(seen) < 3:
                return ToolCall("noop", {"n": str(len(seen))})
            return f"last value {results['noop']}"

    node = _test_node(TwicePolicy())
    node.tools["noop"] = lambda node, args, conversation_id: int(args["n"]) * 10
    assert handle_operation(node, _request()) == "last value 20"
    assert seen == [{}, {"noop": 10}, {"noop": 20}]


@pytest.mark.parametrize("answer", ["", None])
def test_an_empty_answer_is_refused(answer):
    class EmptyPolicy:
        def decide(self, request_body, results):
            return answer

    with pytest.raises(ValueError, match="response body must be non-empty"):
        handle_operation(_test_node(EmptyPolicy()), _request())


def test_distinct_conversations_run_concurrently():
    node = _test_node(SilentPolicy())
    results: dict[str, str] = {}

    def run(conversation_id: str) -> None:
        request = RelayRequest("op", "key-1", conversation_id, "hi")
        results[conversation_id] = handle_operation(node, request)

    threads = [threading.Thread(target=run, args=(f"conv-{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 4


def test_same_conversation_is_serialised():
    import time

    intervals: list[tuple[float, float]] = []

    class SlowPolicy:
        def decide(self, request_body, results):
            entered = time.monotonic()
            time.sleep(0.05)
            intervals.append((entered, time.monotonic()))
            return "done"

    node = _test_node(SlowPolicy())

    def run() -> None:
        handle_operation(node, RelayRequest("op", "key-1", "shared-conv", "hi"))

    threads = [threading.Thread(target=run) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    intervals.sort()
    for (_, previous_exit), (next_enter, _) in zip(intervals, intervals[1:]):
        assert next_enter >= previous_exit


def test_conversation_locks_are_dropped_after_release():
    node = _test_node(SilentPolicy())
    for i in range(10_000):
        with node.conversation_lock(f"conv-{i}"):
            pass
    assert node._conversation_locks == {}


def test_conversation_lock_serialises_its_holders():
    import time

    node = _test_node(SilentPolicy())
    order: list[str] = []
    held, release = threading.Event(), threading.Event()

    def first() -> None:
        with node.conversation_lock("shared"):
            held.set()
            release.wait(5)
            order.append("first")

    def second() -> None:
        held.wait(5)
        with node.conversation_lock("shared"):
            order.append("second")

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        with node._locks_guard:
            entry = node._conversation_locks.get("shared")
            if entry is not None and entry.users == 2:
                break
        time.sleep(0.001)
    assert order == []  # the second holder is waiting on the first
    release.set()
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads)
    assert order == ["first", "second"]
    assert node._conversation_locks == {}


# ---------------------------------------------------------------------------
# Built-in tools against the demo workspace
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nodes(workspace):
    scenario = boot_scenario(workspace.node_configs, run_id="run-runtime-tools")
    yield scenario.nodes
    scenario.close()


def _tool(node, name, args):
    op = next(iter(node.operations.values()))
    call = ToolCall(name, args)
    return execute_tool(node, op, call, conversation_id="c1")


def test_hmac_token_tool_matches_golden(nodes):
    token = _tool(nodes["clinic"], "hmac_token", {"patient_id": "CLN-0001"})
    assert token == CaseToken(GOLDEN_TOKENS["CLN-0001"])


def test_serving_requests_reads_no_secret(workspace, monkeypatch):
    """Boot reads the clinic's key once, for both its index's tokens and
    the node's HMAC key; requests and ``hmac_token`` calls read none."""
    reads = []
    resolve = SecretSource.resolve

    def counting_resolve(self, name):
        reads.append(name)
        return resolve(self, name)

    monkeypatch.setattr(SecretSource, "resolve", counting_resolve)
    scenario = boot_scenario(workspace.node_configs, run_id="run-runtime-no-reads")
    try:
        assert reads == ["clinic_hmac_key"]
        reads.clear()
        for pid in ["CLN-0001", "CLN-0002", "CLN-0001", "CLN-0005"]:
            assert scenario.submit(f"Confirm coverage for {pid}").startswith("Coverage: ")
            assert _tool(scenario.nodes["clinic"], "hmac_token", {"patient_id": pid}).hex == GOLDEN_TOKENS[pid]
        assert reads == []
    finally:
        scenario.close()


def test_missing_hmac_key_fails_at_boot(tmp_path, monkeypatch):
    """A declared secret that resolves to no key stops the boot, before
    any request; neither the index build nor ``hmac_token`` meets a
    missing key."""
    monkeypatch.delenv("FEDMESH_SECRET_CLINIC_HMAC_KEY", raising=False)
    ws = write_demo_workspace(tmp_path / "ws")
    record = json.loads(ws.clinic_config.read_text())
    record["secrets"]["clinic_hmac_key"] = {}  # resolves through the absent variable
    ws.clinic_config.write_text(json.dumps(record))
    with pytest.raises(SecretNotFound, match="'clinic_hmac_key'"):
        build_node(load_node_config(ws.clinic_config))


def test_csv_lookup_tool_renders_row(nodes):
    """The tool hands the policy the row's record, not a text."""
    assert _tool(nodes["clinic"], "csv_lookup", {"patient_id": " cln-0001 "}) == ClinicalObservation(
        patient_id=normalize_id("CLN-0001"),
        symptom_class=SymptomClass.MODERATE,
        duration_weeks=12,
        functional_limitation="difficulty stairs and prolonged standing",
        prior_conservative_tx=("NSAID_2_weeks", "home_exercises"),
    )


def test_csv_lookup_tool_absent(nodes):
    assert _tool(nodes["clinic"], "csv_lookup", {"patient_id": "CLN-9999"}) is None


def test_enrollment_match_tool(nodes):
    token = GOLDEN_TOKENS["CLN-0002"]
    assert _tool(nodes["insurer"], "enrollment_match", {"token": token}) == EnrollmentRow(
        CaseToken(token), "INS-771102", "PLAN-B", EnrollmentStatus.ACTIVE
    )
    assert _tool(nodes["insurer"], "enrollment_match", {"token": "ab" * 32}) is None


def test_coverage_lookup_tool(nodes):
    rule = _tool(
        nodes["insurer"],
        "coverage_lookup",
        {"plan_id": "PLAN-A", "treatment_code": "knee_hyaluronic_injection"},
    )
    assert rule == CoverageRule(
        "PLAN-A", "knee_hyaluronic_injection", True, ("physiotherapy_6_weeks", "failed_simple_analgesia")
    )
    assert _tool(nodes["insurer"], "coverage_lookup", {"plan_id": "PLAN-Z", "treatment_code": "x"}) is None


def test_guidance_search_tool(nodes):
    docs = _tool(nodes["specialist"], "guidance_search", {"query": "osteoarthritis"})
    assert [doc.doc_id for doc in docs] == ["osteoarthritis_knee_guidance.md", "osteoarthritis_knee_red_flags.md"]
    assert "Locked knee" in docs[1].red_flags
    assert _tool(nodes["specialist"], "guidance_search", {"query": "shoulder"}) == []


def test_specialist_cannot_relay(nodes):
    """The specialist operation's permitted set contains no relay tool."""
    node = nodes["specialist"]
    op = node.operations["specialist_consult"]
    assert "relay_call" not in op.permitted_tools
    with pytest.raises(ToolNotPermitted):
        execute_tool(node, op, ToolCall("relay_call", {"target": "x", "body": "y"}), conversation_id="c")


@pytest.mark.parametrize(
    "tool, kind", [("csv_lookup", "clinic"), ("enrollment_match", "insurer"), ("guidance_search", "guidance")]
)
def test_tool_without_its_dataset_raises(tool, kind):
    node = _test_node(SilentPolicy(), permitted=(tool,))
    with pytest.raises(ToolError, match=f"tool '{tool}' needs the {kind} dataset on node 'test'"):
        _tool(node, tool, {"patient_id": "CLN-0001", "token": "ab" * 32})


def test_tool_missing_argument(nodes):
    with pytest.raises(ToolError):
        _tool(nodes["clinic"], "csv_lookup", {})


def test_relay_call_with_empty_body_sends_and_records_nothing(workspace):
    """An empty body is refused when the request is built, before the
    trace append and the transport."""
    scenario = boot_scenario(workspace.node_configs, run_id="run-empty-body")
    try:
        clinic = scenario.nodes["clinic"]
        with pytest.raises(ToolError, match="request body must be non-empty"):
            _tool(clinic, "relay_call", {"target": "insurer", "body": ""})
        assert clinic.transport.sends == 0
        assert scenario.trace.envelopes == []
    finally:
        scenario.close()


def test_trace_records_each_direction_once(workspace):
    scenario = boot_scenario(workspace.node_configs, run_id="run-trace-dirs")
    try:
        scenario.submit("Confirm coverage for CLN-0001")
    finally:
        scenario.close()
    edges = [(env.from_node, env.to_node) for env in scenario.trace.envelopes]
    assert edges == [
        ("clinic", "insurer"),
        ("insurer", "specialist"),
        ("specialist", "insurer"),
        ("insurer", "clinic"),
    ]


def test_build_node_from_config(workspace):
    cfg = load_node_config(workspace.clinic_config)
    node = build_node(cfg)
    assert node.node_id == "clinic"
    assert set(node.operations) == {"coverage_request"}
    assert "insurer" in node.relay_targets
