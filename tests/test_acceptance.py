"""Acceptance suite.

One test per criterion; each prints a single PASS line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Expected values are
pinned: the token goldens against two independent HMAC-SHA256 references,
and the five end-to-end verdicts against a hand evaluation of the decision
tables done before implementation.
"""

from __future__ import annotations

import random
import re
import string
import time

import pytest

from fedmesh.cli import main
from fedmesh.errors import FedmeshError, LoopLimitExceeded
from fedmesh.locality import ViolationKind, check_trace
from fedmesh.messages import (
    Appropriateness,
    CoverageInquiry,
    CoverageStatus,
    SpecialistConsult,
    parse_consult,
    parse_inquiry,
    parse_verdict_fields,
    render_consult,
    render_inquiry,
)
from fedmesh.pseudonym import CaseToken, SecretKey, derive_token, normalize_id
from fedmesh.datastore import SymptomClass
from fedmesh.relay import RelayRequest, serve_request
from fedmesh.runtime import (
    LOOP_LIMIT,
    Node,
    OperationConfig,
    TOOL_REGISTRY,
    ToolCall,
    handle_operation,
)
from fedmesh.datastore import ProtectedValueIndex
from fedmesh.scenario import boot_scenario, load_audit_context, run_scenario

from conftest import GOLDEN_TOKENS, hmac_sha256_reference

HEX64 = re.compile(r"[0-9a-fA-F]{64}")

CANONICAL_REQUEST = "Confirm coverage for CLN-0001"

PATIENTS = ("CLN-0001", "CLN-0002", "CLN-0003", "CLN-0004", "CLN-0005")

# Hand-evaluated decision-table goldens, frozen before implementation:
# (coverage, outstanding prerequisites, appropriateness)
GOLDEN_VERDICTS = {
    "CLN-0001": (CoverageStatus.NOT_COVERED, (), Appropriateness.APPROPRIATE_NOW),
    "CLN-0002": (CoverageStatus.NOT_COVERED, (), Appropriateness.APPROPRIATE_NOW),
    "CLN-0003": (CoverageStatus.NOT_COVERED, (), Appropriateness.APPROPRIATE_AFTER_STEPS),
    "CLN-0004": (CoverageStatus.NOT_COVERED, (), Appropriateness.APPROPRIATE_NOW),
    "CLN-0005": (CoverageStatus.COVERED, (), Appropriateness.APPROPRIATE_NOW),
}

CLINIC_VALUES = (
    "Marina Kovacs",
    "John Armitage",
    "Sofia Patel",
    "Luca Meier",
    "Elena Rossi",
    "1968-08-12",
    "1975-04-03",
    "1982-11-19",
    "1961-02-07",
    "1990-06-28",
    "CLN-0001",
    "CLN-0002",
    "CLN-0003",
    "CLN-0004",
    "CLN-0005",
)
INSURER_VALUES = ("INS-441122", "INS-771102", "INS-555901", "INS-880014", "INS-993377")


def _passed(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def _golden_runs(workspace, prefix: str):
    results = {}
    for pid in PATIENTS:
        results[pid] = run_scenario(
            workspace.node_configs, f"Confirm coverage for {pid}", run_id=f"{prefix}-{pid}"
        )
    return results


def test_criterion_1_canonical_scenario(workspace, capsys):
    bodies = set()
    for repeat in range(10):
        started = time.perf_counter()
        result = run_scenario(
            workspace.node_configs, CANONICAL_REQUEST, run_id=f"run-acc1-{repeat}"
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"run took {elapsed:.2f}s"
        assert result.exit_code == 0
        fields = parse_verdict_fields(result.response_body)
        assert fields["coverage"] is CoverageStatus.NOT_COVERED
        assert fields["appropriateness"] is Appropriateness.APPROPRIATE_NOW
        bodies.add(result.response_body)
    assert len(bodies) == 1, "verdict fields must be byte-identical across repeats"

    # and through the actual CLI entry point
    code = main(
        [
            "run-scenario",
            "--clinic-config", str(workspace.clinic_config),
            "--insurer-config", str(workspace.insurer_config),
            "--specialist-config", str(workspace.specialist_config),
            "--request", CANONICAL_REQUEST,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Coverage: Not covered" in out
    assert "Clinical Appropriateness: Appropriate now" in out
    _passed(1, "canonical scenario reproduction")


def test_criterion_2_token_oracle_equivalence():
    key = SecretKey(name="fixture", material=b"demo-secret-key-000")
    rng = random.Random(20260101)
    alphabet = string.ascii_letters + string.digits + "-_ ."
    ids = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 32))) for _ in range(100)]
    ids = [raw for raw in ids if raw.strip()] + list(PATIENTS)
    assert len(ids) >= 100
    for raw in ids:
        cid = normalize_id(raw)
        expected = hmac_sha256_reference(key.material, cid.value.encode("utf-8"))
        assert derive_token(key, cid).hex == expected
    for pid in PATIENTS:
        assert derive_token(key, normalize_id(pid)).hex == GOLDEN_TOKENS[pid]
    _passed(2, "token oracle equivalence")


def test_criterion_3_golden_verdict_table(workspace):
    results = _golden_runs(workspace, "run-acc3")
    for pid, result in results.items():
        assert result.exit_code == 0, f"{pid} run failed: {result.error}"
        fields = parse_verdict_fields(result.response_body)
        coverage, outstanding, appropriateness = GOLDEN_VERDICTS[pid]
        assert fields["coverage"] is coverage, pid
        assert fields["outstanding"] == outstanding, pid
        assert fields["appropriateness"] is appropriateness, pid
    _passed(3, "golden verdict table 5/5")


def test_criterion_4_locality_enforcement(workspace):
    rng = random.Random(98765)
    pool = [("clinic", value) for value in CLINIC_VALUES]
    pool += [("insurer", value) for value in INSURER_VALUES]

    blocked = 0
    flagged = 0
    for index in range(100):
        owner, value = rng.choice(pool)

        def splice(target: str, body: str, value: str = value) -> str:
            position = rng.randrange(len(body) + 1)
            return body[:position] + value + body[position:]

        # guarded run: blocked at send, zero bytes from the owning node
        scenario = boot_scenario(workspace.node_configs, run_id=f"run-acc4-{index}")
        try:
            node = scenario.nodes[owner]
            node.outbound_mutators.append(splice)
            sends_before = node.transport.sends
            with pytest.raises(FedmeshError) as err:
                scenario.submit(CANONICAL_REQUEST)
            message = f"{type(err.value).__name__}: {err.value}"
            assert "LeakBlocked" in message
            assert node.transport.sends == sends_before
            blocked += 1
        finally:
            scenario.close()

        # guard bypassed via the test hook: the offline checker must flag it
        scenario = boot_scenario(workspace.node_configs, run_id=f"run-acc4b-{index}")
        try:
            for booted in scenario.nodes.values():
                booted.enforce_guard = False
            scenario.nodes[owner].outbound_mutators.append(splice)
            scenario.submit(CANONICAL_REQUEST)
            violations = scenario.check()
            assert any(
                v.kind is ViolationKind.PROTECTED_VALUE and v.offending_value == value
                for v in violations
            ), f"checker missed {value!r}"
            flagged += 1
        finally:
            scenario.close()

    assert blocked == flagged == 100

    # zero false positives on the five golden clean traces
    topology, indexes = load_audit_context(workspace.topology_config)
    for pid, result in _golden_runs(workspace, "run-acc4c").items():
        assert check_trace(result.trace, topology, indexes) == [], pid
    _passed(4, "locality enforcement 100/100 blocked and flagged")


def test_criterion_5_token_confinement(workspace):
    for pid, result in _golden_runs(workspace, "run-acc5").items():
        for env in result.trace.envelopes:
            matches = HEX64.findall(env.body)
            if env.to_node == "specialist":
                assert matches == [], f"{pid}: token-shaped text bound for the specialist"
            if (env.from_node, env.to_node) == ("clinic", "insurer"):
                assert len(matches) == 1, f"{pid}: inquiry must carry exactly one token"
    _passed(5, "token confinement")


def test_criterion_6_least_privilege_matrix(workspace):
    import dataclasses

    from fedmesh.errors import RelayAuthError, TargetNotConfigured
    from fedmesh.relay import relay_call

    scenario = boot_scenario(workspace.node_configs, run_id="run-acc6")
    inquiry_body = render_inquiry(
        CoverageInquiry(
            patient_token=CaseToken(GOLDEN_TOKENS["CLN-0001"]),
            symptom_class=SymptomClass.MODERATE,
            duration_weeks=12,
            functional_limitation="difficulty stairs and prolonged standing",
            prior_tx=("NSAID_2_weeks", "home_exercises"),
            proposed_treatment="conservative_management",
        )
    )
    consult_body = render_consult(
        SpecialistConsult(
            symptom_class=SymptomClass.MODERATE,
            duration_weeks=12,
            functional_limitation="difficulty stairs",
            prior_tx=("NSAID_2_weeks",),
            proposed_treatment="conservative_management",
        )
    )
    checked = 0
    try:
        # 8 cases: targets absent from node config fail closed, nothing sent
        unconfigured = [
            ("clinic", "specialist"),
            ("clinic", "other_insurer"),
            ("clinic", "clinic"),
            ("insurer", "clinic"),
            ("insurer", "other_specialist"),
            ("specialist", "insurer"),
            ("specialist", "clinic"),
            ("specialist", "specialist"),
        ]
        for caller, target in unconfigured:
            node = scenario.nodes[caller]
            before = node.transport.sends
            with pytest.raises(TargetNotConfigured):
                relay_call(node, target, "hello", "acc6")
            assert node.transport.sends == before
            checked += 1

        # 6 cases: tampered relay access keys are rejected remotely
        tampered = [
            ("clinic", "insurer", "wrong-key"),
            ("clinic", "insurer", "insurer-demo-key-0002x"),
            ("clinic", "insurer", "INSURER-DEMO-KEY-0002"),
            ("insurer", "specialist", "wrong-key"),
            ("insurer", "specialist", "specialist-demo-key-0003x"),
            ("insurer", "specialist", "SPECIALIST-DEMO-KEY-0003"),
        ]
        for caller, target_name, bad_key in tampered:
            node = scenario.nodes[caller]
            original = node.relay_targets[target_name]
            node.relay_targets[target_name] = dataclasses.replace(original, access_key=bad_key)
            body = inquiry_body if target_name == "insurer" else consult_body
            try:
                with pytest.raises(RelayAuthError):
                    relay_call(node, target_name, body, f"acc6-{checked}")
            finally:
                node.relay_targets[target_name] = original
            checked += 1

        # 6 cases: direct requests with wrong and with correct access keys
        direct = [
            ("clinic", "coverage_request", "bad-key", CANONICAL_REQUEST, "error"),
            ("insurer", "coverage_inquiry", "bad-key", inquiry_body, "error"),
            ("specialist", "specialist_consult", "bad-key", consult_body, "error"),
            ("clinic", "coverage_request", "clinic-demo-key-0001", CANONICAL_REQUEST, "ok"),
            ("insurer", "coverage_inquiry", "insurer-demo-key-0002", inquiry_body, "ok"),
            ("specialist", "specialist_consult", "specialist-demo-key-0003", consult_body, "ok"),
        ]
        for node_id, operation_id, key, body, expected in direct:
            response = serve_request(
                scenario.nodes[node_id],
                RelayRequest(operation_id, key, f"acc6-{checked}", body),
            )
            assert response.status == expected
            if expected == "error":
                assert response.error_code == "auth"
            checked += 1
    finally:
        scenario.close()
    assert checked == 20
    _passed(6, "least privilege 20/20")


def test_criterion_7_loop_safety():
    class GreedyPolicy:
        def __init__(self) -> None:
            self.turns = 0

        def decide(self, request_body, results):
            self.turns += 1
            return ToolCall("noop")

    def make_node(policy):
        tools = dict(TOOL_REGISTRY)
        tools["noop"] = lambda node, args, conversation_id: "ok"
        op = OperationConfig("op", "greedy", frozenset({"noop"}), "key")
        return Node(
            node_id="bound-test",
            datasets={},
            operations={"op": op},
            policies={"op": policy},
            relay_targets={},
            protected_index=ProtectedValueIndex("bound-test", ()),
            tools=tools,
        )

    policy = GreedyPolicy()
    with pytest.raises(LoopLimitExceeded):
        handle_operation(make_node(policy), RelayRequest("op", "key", "c", "go"))
    assert policy.turns == LOOP_LIMIT, f"expected exactly {LOOP_LIMIT} turns, saw {policy.turns}"
    _passed(7, "loop safety at the bound")


def _random_code(rng: random.Random) -> str:
    length = rng.randint(1, 12)
    first = rng.choice(string.ascii_letters)
    rest = "".join(rng.choice(string.ascii_letters + string.digits + "_") for _ in range(length))
    code = first + rest
    return code if code != "none" else "none_"


def _random_limitation(rng: random.Random) -> str:
    alphabet = string.ascii_letters + string.digits + " ;:,.()>/-" + "–é"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))


def test_criterion_8_template_round_trip():
    rng = random.Random(1337)
    bands = list(SymptomClass)
    for _ in range(1000):
        inquiry = CoverageInquiry(
            patient_token=CaseToken("".join(rng.choice("0123456789abcdef") for _ in range(64))),
            symptom_class=rng.choice(bands),
            duration_weeks=rng.randint(0, 9999),
            functional_limitation=_random_limitation(rng),
            prior_tx=tuple(_random_code(rng) for _ in range(rng.randint(0, 5))),
            proposed_treatment=_random_code(rng),
        )
        assert parse_inquiry(render_inquiry(inquiry)) == inquiry
    for _ in range(1000):
        consult = SpecialistConsult(
            symptom_class=rng.choice(bands),
            duration_weeks=rng.randint(0, 9999),
            functional_limitation=_random_limitation(rng),
            prior_tx=tuple(_random_code(rng) for _ in range(rng.randint(0, 5))),
            proposed_treatment=_random_code(rng),
        )
        assert parse_consult(render_consult(consult)) == consult
    _passed(8, "template round trip 2000/2000")


def test_criterion_9_transport_equivalence(workspace):
    in_process = run_scenario(
        workspace.node_configs, CANONICAL_REQUEST, transport="inprocess", run_id="run-acc9"
    )
    network = run_scenario(
        workspace.node_configs, CANONICAL_REQUEST, transport="network", run_id="run-acc9"
    )
    assert in_process.exit_code == network.exit_code == 0
    assert in_process.transcript == network.transcript
    assert in_process.trace.to_jsonl() == network.trace.to_jsonl()
    assert in_process.violations == network.violations == ()
    _passed(9, "transport equivalence")
