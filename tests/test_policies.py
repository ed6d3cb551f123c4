from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import fedmesh.messages as messages_mod
import fedmesh.policies as policies_mod

from fedmesh.datastore import (
    ClinicalObservation,
    CoverageRule,
    EnrollmentRow,
    EnrollmentStatus,
    GuidanceDoc,
    SymptomClass,
    load_guidance,
)
from fedmesh.errors import ParseError
from fedmesh.fixtures import CANONICAL_REQUEST
from fedmesh.messages import (
    Appropriateness,
    CoverageInquiry,
    CoverageStatus,
    CoverageVerdict,
    Recommendation,
    SpecialistConsult,
    parse_consult,
    parse_inquiry,
    parse_recommendation,
    parse_verdict_fields,
    render_consult,
    render_inquiry,
    render_recommendation,
    render_verdict,
)
from fedmesh.policies import (
    ClinicPolicy,
    InsurerPolicy,
    SpecialistPolicy,
    TREATMENT_CONSERVATIVE,
    TREATMENT_HA_INJECTION,
    consult_from_inquiry,
    infer_treatment,
    parse_treatment_step,
    prerequisites_satisfied,
)
from fedmesh.pseudonym import CaseToken, normalize_id
from fedmesh.runtime import ToolCall
from fedmesh.scenario import boot_scenario

from conftest import GOLDEN_TOKENS

HEX64 = re.compile(r"[0-9a-fA-F]{64}")

TOKEN = CaseToken(GOLDEN_TOKENS["CLN-0001"])


def _obs(
    pid="CLN-0001",
    symptom=SymptomClass.MODERATE,
    weeks=12,
    limitation="difficulty stairs and prolonged standing",
    prior=("NSAID_2_weeks", "home_exercises"),
):
    return ClinicalObservation(
        patient_id=normalize_id(pid),
        symptom_class=symptom,
        duration_weeks=weeks,
        functional_limitation=limitation,
        prior_conservative_tx=tuple(prior),
    )


def _inquiry(treatment=TREATMENT_CONSERVATIVE, prior=("NSAID_2_weeks", "home_exercises"), **kw):
    return CoverageInquiry(
        patient_token=kw.get("token", TOKEN),
        symptom_class=kw.get("symptom", SymptomClass.MODERATE),
        duration_weeks=kw.get("weeks", 12),
        functional_limitation=kw.get("limitation", "difficulty stairs and prolonged standing"),
        prior_tx=tuple(prior),
        proposed_treatment=treatment,
    )


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def test_render_inquiry_canonical_shape():
    text = render_inquiry(_inquiry())
    lines = text.split("\n")
    assert lines[0] == "Coverage inquiry for patient_token=" + TOKEN.hex
    assert lines[1].startswith("Presentation: moderate symptoms, 12 weeks; limitation: ")
    assert "Proposed treatment: conservative_management." in lines
    assert lines[-1] == "Please advise coverage and any prerequisites."


def test_parse_inquiry_round_trips_fixture_cases():
    for prior in [(), ("NSAID_2_weeks",), ("NSAID_3_weeks", "physio_4_weeks")]:
        inquiry = _inquiry(prior=prior, limitation="pain at rest; limited ROM")
        assert parse_inquiry(render_inquiry(inquiry)) == inquiry


def test_parse_inquiry_rejects_freeform_text():
    with pytest.raises(ParseError) as err:
        parse_inquiry("hello")
    assert err.value.field == "patient_token"


def test_parse_inquiry_rejects_bad_token():
    text = render_inquiry(_inquiry()).replace(TOKEN.hex, "zz" * 32)
    with pytest.raises(ParseError) as err:
        parse_inquiry(text)
    assert err.value.field == "patient_token"


def test_consult_strips_token_structurally():
    consult = consult_from_inquiry(_inquiry())
    assert not hasattr(consult, "patient_token")
    assert not HEX64.search(render_consult(consult))


def test_recommendation_round_trip():
    rec = Recommendation(
        verdict=Appropriateness.APPROPRIATE_AFTER_STEPS,
        reasoning="Ladder incomplete.",
        next_steps="Complete: Physiotherapy 6 weeks.",
        source_doc="osteoarthritis_knee_guidance.md",
    )
    assert parse_recommendation(render_recommendation(rec)) == rec
    without_steps = Recommendation(
        verdict=Appropriateness.APPROPRIATE_NOW,
        reasoning="Fine.",
        next_steps=None,
        source_doc="osteoarthritis_knee_guidance.md",
    )
    assert parse_recommendation(render_recommendation(without_steps)) == without_steps


def test_verdict_fields_round_trip():
    rec = Recommendation(Appropriateness.APPROPRIATE_NOW, "ok", None, "doc.md")
    verdict = CoverageVerdict(
        coverage=CoverageStatus.COVERED_WITH_PREREQUISITES,
        prerequisites_outstanding=("physiotherapy_6_weeks",),
        appropriateness=rec,
        summary="Covered once prerequisites are met.",
        next_steps="Complete outstanding prerequisites: physiotherapy_6_weeks.",
    )
    fields = parse_verdict_fields(render_verdict(verdict))
    assert fields["coverage"] is CoverageStatus.COVERED_WITH_PREREQUISITES
    assert fields["outstanding"] == ("physiotherapy_6_weeks",)
    assert fields["appropriateness"] is Appropriateness.APPROPRIATE_NOW


def test_verdict_requires_outstanding_when_conditional():
    rec = Recommendation(Appropriateness.APPROPRIATE_NOW, "ok", None, "doc.md")
    with pytest.raises(ValueError):
        CoverageVerdict(
            coverage=CoverageStatus.COVERED_WITH_PREREQUISITES,
            prerequisites_outstanding=(),
            appropriateness=rec,
            summary="s",
            next_steps="n",
        )


codes = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,15}", fullmatch=True).filter(lambda c: c != "none")
limitations = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=80,
)
tokens = st.binary(min_size=32, max_size=32).map(lambda raw: CaseToken(raw.hex()))
patient_ids = st.integers(0, 9999).map(lambda n: f"CLN-{n:04d}")


@st.composite
def inquiries(draw):
    return CoverageInquiry(
        patient_token=draw(tokens),
        symptom_class=draw(st.sampled_from(list(SymptomClass))),
        duration_weeks=draw(st.integers(0, 10_000)),
        functional_limitation=draw(limitations),
        prior_tx=tuple(draw(st.lists(codes, max_size=5))),
        proposed_treatment=draw(codes),
    )


@st.composite
def consults(draw):
    return SpecialistConsult(
        symptom_class=draw(st.sampled_from(list(SymptomClass))),
        duration_weeks=draw(st.integers(0, 10_000)),
        functional_limitation=draw(limitations),
        prior_tx=tuple(draw(st.lists(codes, max_size=5))),
        proposed_treatment=draw(codes),
    )


@given(inquiries())
def test_inquiry_round_trip_property(inquiry):
    assert parse_inquiry(render_inquiry(inquiry)) == inquiry


@given(consults())
def test_consult_round_trip_property(consult):
    assert parse_consult(render_consult(consult)) == consult


recommendations = st.builds(
    Recommendation,
    verdict=st.sampled_from(list(Appropriateness)),
    reasoning=limitations,
    next_steps=st.none() | limitations,
    source_doc=limitations,
)


@st.composite
def verdicts(draw):
    coverage = draw(st.sampled_from(list(CoverageStatus)))
    conditional = coverage is CoverageStatus.COVERED_WITH_PREREQUISITES
    return CoverageVerdict(
        coverage=coverage,
        prerequisites_outstanding=tuple(draw(st.lists(codes, min_size=int(conditional), max_size=3))),
        appropriateness=draw(recommendations),
        summary=draw(limitations),
        next_steps=draw(limitations),
    )


@given(recommendations)
def test_recommendation_round_trip_property(rec):
    assert parse_recommendation(render_recommendation(rec)) == rec


@given(verdicts())
def test_verdict_round_trip_property(verdict):
    assert parse_verdict_fields(render_verdict(verdict)) == {
        "coverage": verdict.coverage,
        "outstanding": verdict.prerequisites_outstanding,
        "appropriateness": verdict.appropriateness.verdict,
        "summary": verdict.summary,
        "next_steps": verdict.next_steps,
    }


@given(inquiries())
def test_consult_from_any_inquiry_has_no_hex64(inquiry):
    assert not HEX64.search(render_consult(consult_from_inquiry(inquiry)))


# ---------------------------------------------------------------------------
# Malformed bodies: one table per message. A row gives the body's lines and
# either the ParseError expected (field, and text when it is not the default)
# or the value the body still parses to: extra lines are ignored, lines may
# come in any order, the first line that fits a spec line is the one read,
# and footers are not required.
# ---------------------------------------------------------------------------

_TOKEN_LINE = "Coverage inquiry for patient_token=" + TOKEN.hex
_PRESENTATION = "Presentation: moderate symptoms, 12 weeks; limitation: difficulty stairs."
_PRIOR = "Prior management: NSAID_2_weeks; home_exercises."
_PROPOSED = "Proposed treatment: conservative_management."
_INQUIRY_FOOTER = "Please advise coverage and any prerequisites."
_CONSULT_HEADER = "Specialist consultation request."
_CONSULT_FOOTER = "Please advise clinical appropriateness."
_INQUIRY = _inquiry(limitation="difficulty stairs")
_CONSULT = consult_from_inquiry(_INQUIRY)
_BAD_TOKEN = "patient_token: token must be 64 lowercase hex characters"


_MALFORMED_INQUIRIES = {
    "missing-token-line": ([_PRESENTATION, _PRIOR, _PROPOSED, _INQUIRY_FOOTER], ParseError("patient_token")),
    "missing-presentation": ([_TOKEN_LINE, _PRIOR, _PROPOSED], ParseError("presentation")),
    "missing-prior": ([_TOKEN_LINE, _PRESENTATION, _PROPOSED], ParseError("prior_management")),
    "missing-proposed": ([_TOKEN_LINE, _PRESENTATION, _PRIOR], ParseError("proposed_treatment")),
    "missing-footer": ([_TOKEN_LINE, _PRESENTATION, _PRIOR, _PROPOSED], _INQUIRY),
    "reordered": ([_INQUIRY_FOOTER, _PROPOSED, _PRIOR, _PRESENTATION, _TOKEN_LINE], _INQUIRY),
    "extra-lines": (["Dear insurer,", _TOKEN_LINE, "", _PRESENTATION, _PRIOR, _PROPOSED, "Thanks."], _INQUIRY),
    "duplicated-presentation-first-wins": (
        [_TOKEN_LINE, _PRESENTATION, _PRESENTATION.replace("moderate", "severe"), _PRIOR, _PROPOSED],
        _INQUIRY,
    ),
    "garbled-then-good-presentation": (
        [_TOKEN_LINE, _PRESENTATION.replace("12 weeks", "twelve weeks"), _PRESENTATION, _PRIOR, _PROPOSED],
        _INQUIRY,
    ),
    "garbled-presentation": (
        [_TOKEN_LINE, _PRESENTATION.replace("12 weeks", "twelve weeks"), _PRIOR, _PROPOSED],
        ParseError("presentation"),
    ),
    "presentation-without-period": ([_TOKEN_LINE, _PRESENTATION[:-1], _PRIOR, _PROPOSED], ParseError("presentation")),
    "bad-enum-label": (
        [_TOKEN_LINE, _PRESENTATION.replace("moderate", "extreme"), _PRIOR, _PROPOSED], ParseError("presentation"),
    ),
    "bad-token": ([_TOKEN_LINE.replace(TOKEN.hex, "zz" * 32), _PRESENTATION, _PRIOR, _PROPOSED],
                  ParseError("patient_token", _BAD_TOKEN)),
    "uppercase-token": ([_TOKEN_LINE.replace(TOKEN.hex, TOKEN.hex.upper()), _PRESENTATION, _PRIOR, _PROPOSED],
                        ParseError("patient_token", _BAD_TOKEN)),
    "duplicated-token-first-bad": (
        [_TOKEN_LINE[:-1], _TOKEN_LINE, _PRESENTATION, _PRIOR, _PROPOSED], ParseError("patient_token", _BAD_TOKEN),
    ),
    "crlf-line-ends": (
        [line + "\r" for line in (_TOKEN_LINE, _PRESENTATION, _PRIOR, _PROPOSED)],
        ParseError("patient_token", _BAD_TOKEN),
    ),
    "bad-code-list": (
        [_TOKEN_LINE, _PRESENTATION, "Prior management: NSAID 2 weeks.", _PROPOSED],
        ParseError("prior_management", "invalid treatment codes: 'NSAID 2 weeks'"),
    ),
    "code-list-with-empty-step": (
        [_TOKEN_LINE, _PRESENTATION, "Prior management: NSAID_2_weeks; .", _PROPOSED],
        ParseError("prior_management", "invalid treatment codes: 'NSAID_2_weeks; '"),
    ),
    "duplicated-prior-first-bad": (
        [_TOKEN_LINE, _PRESENTATION, "Prior management: NSAID 2 weeks.", _PRIOR, _PROPOSED],
        ParseError("prior_management", "invalid treatment codes: 'NSAID 2 weeks'"),
    ),
    "none-inside-code-list": (
        [_TOKEN_LINE, _PRESENTATION, "Prior management: NSAID_2_weeks; none.", _PROPOSED],
        ParseError("inquiry", "treatment step must not be the literal 'none'"),
    ),
    "bad-proposed-code": ([_TOKEN_LINE, _PRESENTATION, _PRIOR, "Proposed treatment: 9lives."],
                          ParseError("proposed_treatment")),
    "proposed-none": ([_TOKEN_LINE, _PRESENTATION, _PRIOR, "Proposed treatment: none."],
                      ParseError("inquiry", "proposed treatment must not be the literal 'none'")),
    "proposed-trailing-space": ([_TOKEN_LINE, _PRESENTATION, _PRIOR, _PROPOSED + " "],
                                ParseError("proposed_treatment")),
    "empty-limitation": ([_TOKEN_LINE, _PRESENTATION.replace("difficulty stairs", ""), _PRIOR, _PROPOSED],
                         ParseError("inquiry", "functional limitation must be non-empty")),
    "missing-token-checked-first": ([_PROPOSED], ParseError("patient_token")),
}

_MALFORMED_CONSULTS = {
    "missing-header": ([_PRESENTATION, _PRIOR, _PROPOSED, _CONSULT_FOOTER], ParseError("consultation_header")),
    "header-without-period": ([_CONSULT_HEADER[:-1], _PRESENTATION, _PRIOR, _PROPOSED],
                              ParseError("consultation_header")),
    "missing-presentation": ([_CONSULT_HEADER, _PRIOR, _PROPOSED], ParseError("presentation")),
    "missing-prior": ([_CONSULT_HEADER, _PRESENTATION, _PROPOSED], ParseError("prior_management")),
    "missing-proposed": ([_CONSULT_HEADER, _PRESENTATION, _PRIOR], ParseError("proposed_treatment")),
    "missing-footer": ([_CONSULT_HEADER, _PRESENTATION, _PRIOR, _PROPOSED], _CONSULT),
    "reordered": ([_PROPOSED, _PRIOR, _CONSULT_FOOTER, _PRESENTATION, _CONSULT_HEADER], _CONSULT),
    "duplicated-header": ([_CONSULT_HEADER, _CONSULT_HEADER, _PRESENTATION, _PRIOR, _PROPOSED], _CONSULT),
    "unicode-digits": (
        [_CONSULT_HEADER, _PRESENTATION.replace("12", "١٢"), _PRIOR, _PROPOSED], _CONSULT,
    ),
    "bad-enum-label": ([_CONSULT_HEADER, _PRESENTATION.replace("moderate", "Moderate"), _PRIOR, _PROPOSED],
                       ParseError("presentation")),
    "bad-code-list": (
        [_CONSULT_HEADER, _PRESENTATION, "Prior management: NSAID_2_weeks;home_exercises.", _PROPOSED],
        ParseError("prior_management", "invalid treatment codes: 'NSAID_2_weeks;home_exercises'"),
    ),
    "proposed-none": ([_CONSULT_HEADER, _PRESENTATION, _PRIOR, "Proposed treatment: none."],
                      ParseError("consult", "proposed treatment must not be the literal 'none'")),
    "token-line-is-ignored": ([_TOKEN_LINE, _CONSULT_HEADER, _PRESENTATION, _PRIOR, _PROPOSED], _CONSULT),
}

_REC_VERDICT = "Recommendation: Appropriate after steps."
_REC_REASONING = "Reasoning: Ladder incomplete."
_REC_NEXT = "Next steps: Complete: Physiotherapy 6 weeks."
_REC_REF = "(ref: osteoarthritis_knee_guidance.md)"
_REC = Recommendation(
    Appropriateness.APPROPRIATE_AFTER_STEPS, "Ladder incomplete.", "Complete: Physiotherapy 6 weeks.",
    "osteoarthritis_knee_guidance.md",
)

_MALFORMED_RECOMMENDATIONS = {
    "missing-verdict": ([_REC_REASONING, _REC_NEXT, _REC_REF], ParseError("recommendation")),
    "bad-enum-label": (["Recommendation: Maybe.", _REC_REASONING, _REC_REF], ParseError("recommendation")),
    "verdict-without-period": ([_REC_VERDICT[:-1], _REC_REASONING, _REC_REF], ParseError("recommendation")),
    "missing-reasoning": ([_REC_VERDICT, _REC_NEXT, _REC_REF], ParseError("reasoning")),
    "missing-ref": ([_REC_VERDICT, _REC_REASONING, _REC_NEXT], ParseError("source_doc")),
    "empty-ref": ([_REC_VERDICT, _REC_REASONING, "(ref: )"], ParseError("source_doc")),
    "missing-next-steps": ([_REC_VERDICT, _REC_REASONING, _REC_REF],
                           Recommendation(_REC.verdict, _REC.reasoning, None, _REC.source_doc)),
    "empty-next-steps": ([_REC_VERDICT, _REC_REASONING, "Next steps: ", _REC_REF],
                         Recommendation(_REC.verdict, _REC.reasoning, "", _REC.source_doc)),
    "reordered": ([_REC_REF, _REC_NEXT, _REC_REASONING, _REC_VERDICT], _REC),
    "duplicated-next-steps-first-wins": ([_REC_VERDICT, _REC_REASONING, _REC_NEXT, "Next steps: later.", _REC_REF],
                                         _REC),
    "ref-holding-parentheses": ([_REC_VERDICT, _REC_REASONING, _REC_NEXT, "(ref: a (b))"],
                                Recommendation(_REC.verdict, _REC.reasoning, _REC.next_steps, "a (b)")),
}

_VERDICT_COVERAGE = "Coverage: Covered with prerequisites"
_VERDICT_OUTSTANDING = "Outstanding prerequisites: physiotherapy_6_weeks; failed_simple_analgesia"
_VERDICT_APPROPRIATENESS = "Clinical Appropriateness: Appropriate now"
_VERDICT_SUMMARY = "Summary: Covered once the outstanding prerequisites are met."
_VERDICT_NEXT = "Next Steps: Complete outstanding prerequisites."
_VERDICT_FIELDS = {
    "coverage": CoverageStatus.COVERED_WITH_PREREQUISITES,
    "outstanding": ("physiotherapy_6_weeks", "failed_simple_analgesia"),
    "appropriateness": Appropriateness.APPROPRIATE_NOW,
    "summary": "Covered once the outstanding prerequisites are met.",
    "next_steps": "Complete outstanding prerequisites.",
}

_MALFORMED_VERDICTS = {
    "missing-coverage": ([_VERDICT_OUTSTANDING, _VERDICT_APPROPRIATENESS, _VERDICT_SUMMARY, _VERDICT_NEXT],
                         ParseError("coverage")),
    "bad-enum-label": (["Coverage: Partly", _VERDICT_APPROPRIATENESS, _VERDICT_SUMMARY, _VERDICT_NEXT],
                       ParseError("coverage")),
    "missing-appropriateness": ([_VERDICT_COVERAGE, _VERDICT_SUMMARY, _VERDICT_NEXT], ParseError("appropriateness")),
    "recommendation-label-for-appropriateness": (
        [_VERDICT_COVERAGE, "Clinical Appropriateness: Appropriate now.", _VERDICT_SUMMARY, _VERDICT_NEXT],
        ParseError("appropriateness"),
    ),
    "missing-summary": ([_VERDICT_COVERAGE, _VERDICT_APPROPRIATENESS, _VERDICT_NEXT], ParseError("summary")),
    "missing-next-steps": ([_VERDICT_COVERAGE, _VERDICT_APPROPRIATENESS, _VERDICT_SUMMARY],
                           ParseError("next_steps")),
    "lowercase-next-steps": ([_VERDICT_COVERAGE, _VERDICT_APPROPRIATENESS, _VERDICT_SUMMARY,
                              "Next steps: Complete outstanding prerequisites."], ParseError("next_steps")),
    "missing-outstanding": ([_VERDICT_COVERAGE, _VERDICT_APPROPRIATENESS, _VERDICT_SUMMARY, _VERDICT_NEXT],
                            {**_VERDICT_FIELDS, "outstanding": ()}),
    "empty-outstanding": (
        [_VERDICT_COVERAGE, "Outstanding prerequisites: ", _VERDICT_APPROPRIATENESS, _VERDICT_SUMMARY,
         _VERDICT_NEXT],
        {**_VERDICT_FIELDS, "outstanding": ("",)},
    ),
    "reordered": ([_VERDICT_NEXT, _VERDICT_SUMMARY, _VERDICT_APPROPRIATENESS, _VERDICT_OUTSTANDING,
                   _VERDICT_COVERAGE], _VERDICT_FIELDS),
    "duplicated-coverage-first-wins": (
        [_VERDICT_COVERAGE, "Coverage: Not covered", _VERDICT_OUTSTANDING, _VERDICT_APPROPRIATENESS,
         _VERDICT_SUMMARY, _VERDICT_NEXT],
        _VERDICT_FIELDS,
    ),
}

_MALFORMED = [
    pytest.param(parse, lines, expected, id=f"{message}-{case}")
    for message, parse, table in [
        ("inquiry", parse_inquiry, _MALFORMED_INQUIRIES),
        ("consult", parse_consult, _MALFORMED_CONSULTS),
        ("recommendation", parse_recommendation, _MALFORMED_RECOMMENDATIONS),
        ("verdict", parse_verdict_fields, _MALFORMED_VERDICTS),
    ]
    for case, (lines, expected) in table.items()
]


@pytest.mark.parametrize("parse, lines, expected", _MALFORMED)
def test_parse_refuses_or_reads_each_body(parse, lines, expected):
    body = "\n".join(lines)
    if isinstance(expected, ParseError):
        with pytest.raises(ParseError) as err:
            parse(body)
        assert (err.value.field, str(err.value)) == (expected.field, str(expected))
    else:
        assert parse(body) == expected


# ---------------------------------------------------------------------------
# Decision tables
# ---------------------------------------------------------------------------


def test_parse_treatment_step_families():
    assert parse_treatment_step("physio_6_weeks").family == "physio"
    assert parse_treatment_step("physio_6_weeks").weeks == 6
    assert parse_treatment_step("NSAID_2_weeks").family == "analgesia"
    assert parse_treatment_step("acetaminophen_2_weeks").family == "analgesia"
    assert parse_treatment_step("home_exercises").family == "other"
    assert parse_treatment_step("home_exercises").weeks == 0


def test_infer_treatment_table():
    # moderate without a completed 6-week physio course stays conservative
    assert infer_treatment(_obs()) == TREATMENT_CONSERVATIVE
    # mild stays conservative
    assert infer_treatment(_obs(symptom=SymptomClass.MILD, prior=("acetaminophen_2_weeks",))) == (
        TREATMENT_CONSERVATIVE
    )
    # severe with analgesia >= 2w and physio >= 4w escalates
    assert (
        infer_treatment(
            _obs(symptom=SymptomClass.SEVERE, prior=("NSAID_3_weeks", "physio_4_weeks"))
        )
        == TREATMENT_HA_INJECTION
    )
    # severe without the evidenced steps stays conservative (tie toward less invasive)
    assert (
        infer_treatment(_obs(symptom=SymptomClass.SEVERE, prior=("NSAID_3_weeks",)))
        == TREATMENT_CONSERVATIVE
    )
    # moderate with completed physio escalates (row CLN-0005)
    assert (
        infer_treatment(_obs(prior=("NSAID_2_weeks", "physio_6_weeks")))
        == TREATMENT_HA_INJECTION
    )


def _rule(prereqs=("physiotherapy_6_weeks", "failed_simple_analgesia"), covered=True):
    return CoverageRule(
        plan_id="PLAN-A",
        treatment_code=TREATMENT_HA_INJECTION,
        covered=covered,
        prerequisites=tuple(prereqs),
    )


def test_prerequisites_satisfied_both_met():
    ok, outstanding = prerequisites_satisfied(
        _rule(), _inquiry(prior=("NSAID_2_weeks", "physio_6_weeks"))
    )
    assert ok and outstanding == ()


def test_prerequisites_outstanding_in_rule_order():
    ok, outstanding = prerequisites_satisfied(_rule(), _inquiry(prior=("NSAID_2_weeks",)))
    assert not ok
    assert outstanding == ("physiotherapy_6_weeks",)


def test_prerequisites_empty_list_satisfied():
    ok, outstanding = prerequisites_satisfied(_rule(prereqs=()), _inquiry(prior=()))
    assert ok and outstanding == ()


def test_prerequisites_unknown_code_is_unmet():
    ok, outstanding = prerequisites_satisfied(
        _rule(prereqs=("mystery_requirement",)), _inquiry(prior=("physio_6_weeks",))
    )
    assert not ok
    assert outstanding == ("mystery_requirement",)


def test_physio_four_weeks_does_not_satisfy_six():
    ok, outstanding = prerequisites_satisfied(
        _rule(), _inquiry(prior=("NSAID_3_weeks", "physio_4_weeks"))
    )
    assert not ok
    assert outstanding == ("physiotherapy_6_weeks",)


# ---------------------------------------------------------------------------
# Clinic policy
# ---------------------------------------------------------------------------


def test_clinic_policy_turn_sequence():
    policy = ClinicPolicy()
    body = "Confirm coverage for CLN-0001"
    results: dict[str, object] = {}

    assert policy.decide(body, results) == ToolCall("csv_lookup", {"patient_id": "CLN-0001"})
    results["csv_lookup"] = _obs()

    assert policy.decide(body, results) == ToolCall("hmac_token", {"patient_id": "CLN-0001"})
    results["hmac_token"] = TOKEN

    turn3 = policy.decide(body, results)
    assert turn3.tool == "relay_call"
    assert turn3.args["target"] == "insurer"
    inquiry = parse_inquiry(turn3.args["body"])
    assert inquiry.patient_token == TOKEN
    assert inquiry.proposed_treatment == TREATMENT_CONSERVATIVE
    results["relay_call"] = "Coverage: Not covered\n..."

    assert policy.decide(body, results) == "Coverage: Not covered\n..."


def test_clinic_policy_explicit_treatment_overrides_inference():
    policy = ClinicPolicy()
    body = "Confirm coverage for CLN-0003 for knee_hyaluronic_injection"
    results = {
        "csv_lookup": _obs(
            pid="CLN-0003",
            symptom=SymptomClass.SEVERE,
            weeks=24,
            limitation="pain at rest; limited ROM",
            prior=("NSAID_3_weeks", "physio_4_weeks"),
        ),
        "hmac_token": TOKEN,
    }
    decision = policy.decide(body, results)
    inquiry = parse_inquiry(decision.args["body"])
    assert inquiry.proposed_treatment == TREATMENT_HA_INJECTION


def test_clinic_policy_unknown_patient():
    policy = ClinicPolicy()
    answer = policy.decide("Confirm coverage for CLN-9999", {"csv_lookup": None})
    assert answer.startswith("Patient not found")


def test_clinic_policy_request_without_id():
    assert ClinicPolicy().decide("Confirm coverage please", {}).startswith("Patient not found")


def test_clinic_policy_is_pure():
    policy = ClinicPolicy()
    body = "Confirm coverage for CLN-0001"
    assert policy.decide(body, {}) == policy.decide(body, {})


# ---------------------------------------------------------------------------
# Insurer policy
# ---------------------------------------------------------------------------


def _enrollment(plan="PLAN-A", status="active"):
    return EnrollmentRow(
        subject_token=TOKEN,
        insurance_number="INS-441122",
        plan_id=plan,
        status=EnrollmentStatus(status),
    )


def _recommendation_text(verdict=Appropriateness.APPROPRIATE_NOW):
    return render_recommendation(
        Recommendation(verdict, "Consistent with guidance.", None, "osteoarthritis_knee_guidance.md")
    )


_NOT_LOOKED_UP = object()


def _run_insurer(inquiry: CoverageInquiry, enrollment: EnrollmentRow | None, rule=_NOT_LOOKED_UP):
    """Drive the insurer policy across its turns against canned tool
    results; ``rule``, when given, is what ``coverage_lookup`` returns."""
    policy = InsurerPolicy()
    body = render_inquiry(inquiry)
    results: dict[str, object] = {}

    assert policy.decide(body, results) == ToolCall("enrollment_match", {"token": inquiry.patient_token.hex})
    results["enrollment_match"] = enrollment

    decision = policy.decide(body, results)
    if rule is not _NOT_LOOKED_UP:
        assert decision.tool == "coverage_lookup"
        results["coverage_lookup"] = rule
        decision = policy.decide(body, results)

    assert decision.tool == "relay_call"
    assert decision.args["target"] == "specialist"
    consult_body = decision.args["body"]
    results["relay_call"] = _recommendation_text()

    final = policy.decide(body, results)
    assert isinstance(final, str)
    return consult_body, parse_verdict_fields(final)


def test_insurer_not_covered_when_rule_absent():
    consult_body, fields = _run_insurer(_inquiry(), _enrollment(), None)
    assert fields["coverage"] is CoverageStatus.NOT_COVERED
    assert fields["appropriateness"] is Appropriateness.APPROPRIATE_NOW
    parse_consult(consult_body)  # the consult is well formed and token free
    assert not HEX64.search(consult_body)


def test_insurer_not_covered_when_rule_says_no():
    rule = _rule(covered=False, prereqs=())
    _, fields = _run_insurer(_inquiry(treatment=TREATMENT_HA_INJECTION), _enrollment("PLAN-C"), rule)
    assert fields["coverage"] is CoverageStatus.NOT_COVERED


def test_insurer_covered_with_prerequisites():
    _, fields = _run_insurer(
        _inquiry(treatment=TREATMENT_HA_INJECTION, prior=("NSAID_2_weeks",)),
        _enrollment(),
        _rule(),
    )
    assert fields["coverage"] is CoverageStatus.COVERED_WITH_PREREQUISITES
    assert fields["outstanding"] == ("physiotherapy_6_weeks",)


def test_insurer_covered_when_prerequisites_met():
    _, fields = _run_insurer(
        _inquiry(treatment=TREATMENT_HA_INJECTION, prior=("NSAID_2_weeks", "physio_6_weeks")),
        _enrollment(),
        _rule(),
    )
    assert fields["coverage"] is CoverageStatus.COVERED


def test_insurer_unmatched_token_still_consults():
    consult_body, fields = _run_insurer(_inquiry(), None)
    assert fields["coverage"] is CoverageStatus.NOT_COVERED
    assert "no active enrolment found" in str(fields["summary"]).lower()
    parse_consult(consult_body)


def test_insurer_inactive_enrollment_is_not_covered():
    _, fields = _run_insurer(_inquiry(), _enrollment(status="inactive"))
    assert fields["coverage"] is CoverageStatus.NOT_COVERED
    assert "no active enrolment found" in str(fields["summary"]).lower()


def test_insurer_parse_failure_response():
    answer = InsurerPolicy().decide("nonsense body", {})
    assert isinstance(answer, str)
    assert "patient_token" in answer


def test_insurer_forward_token_hook_leaks_token():
    policy = InsurerPolicy(forward_token=True)
    body = render_inquiry(_inquiry())
    decision = policy.decide(body, {"enrollment_match": None})
    assert HEX64.search(decision.args["body"])


# ---------------------------------------------------------------------------
# Specialist policy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def guidance_docs(workspace):
    return load_guidance(workspace.root / "specialist")


def _run_specialist(consult: SpecialistConsult, docs: list[GuidanceDoc]) -> Recommendation:
    policy = SpecialistPolicy()
    body = render_consult(consult)
    assert policy.decide(body, {}) == ToolCall("guidance_search", {"query": "osteoarthritis"})
    final = policy.decide(body, {"guidance_search": docs})
    assert isinstance(final, str)
    return parse_recommendation(final)


def test_specialist_conservative_moderate(guidance_docs):
    rec = _run_specialist(consult_from_inquiry(_inquiry()), guidance_docs)
    assert rec.verdict is Appropriateness.APPROPRIATE_NOW
    assert rec.source_doc == "osteoarthritis_knee_guidance.md"


def test_specialist_red_flag_dominates(guidance_docs):
    consult = consult_from_inquiry(_inquiry(limitation="locked knee since yesterday"))
    rec = _run_specialist(consult, guidance_docs)
    assert rec.verdict is Appropriateness.NOT_CURRENTLY_APPROPRIATE
    assert "urgent" in rec.next_steps.lower()
    assert rec.source_doc == "osteoarthritis_knee_red_flags.md"


def test_specialist_injection_missing_physio(guidance_docs):
    consult = consult_from_inquiry(
        _inquiry(treatment=TREATMENT_HA_INJECTION, prior=("NSAID_2_weeks",))
    )
    rec = _run_specialist(consult, guidance_docs)
    assert rec.verdict is Appropriateness.APPROPRIATE_AFTER_STEPS
    assert "physiotherapy" in rec.next_steps.lower()


def test_specialist_injection_when_ladder_complete(guidance_docs):
    consult = consult_from_inquiry(
        _inquiry(treatment=TREATMENT_HA_INJECTION, prior=("NSAID_2_weeks", "physio_6_weeks"))
    )
    rec = _run_specialist(consult, guidance_docs)
    assert rec.verdict is Appropriateness.APPROPRIATE_NOW


def test_specialist_severe_conservative_escalates(guidance_docs):
    consult = consult_from_inquiry(
        _inquiry(symptom=SymptomClass.SEVERE, limitation="pain at rest", prior=())
    )
    rec = _run_specialist(consult, guidance_docs)
    assert rec.verdict is Appropriateness.APPROPRIATE_AFTER_STEPS
    assert "escalat" in (rec.next_steps or "").lower()


def test_specialist_unknown_treatment(guidance_docs):
    consult = consult_from_inquiry(_inquiry(treatment="acupuncture_course"))
    rec = _run_specialist(consult, guidance_docs)
    assert rec.verdict is Appropriateness.NOT_CURRENTLY_APPROPRIATE


def test_specialist_parse_failure_response():
    answer = SpecialistPolicy().decide("not a consult", {})
    assert isinstance(answer, str)
    assert "Unable to process" in answer


# ---------------------------------------------------------------------------
# Last-parse memo
# ---------------------------------------------------------------------------

MALFORMED_BODY = "A request in free text, with no labelled fields and no patient."


def _clinic_conversation(patient_id: str, facts: CoverageInquiry) -> tuple[str, dict[str, object]]:
    observation = ClinicalObservation(
        patient_id=normalize_id(patient_id),
        symptom_class=facts.symptom_class,
        duration_weeks=facts.duration_weeks,
        functional_limitation=facts.functional_limitation,
        prior_conservative_tx=facts.prior_tx,
    )
    return f"Confirm coverage for {patient_id} for {facts.proposed_treatment}", {
        "csv_lookup": observation,
        "hmac_token": facts.patient_token,
        "relay_call": "Coverage: Not covered",
    }


def _insurer_conversation(inquiry: CoverageInquiry) -> tuple[str, dict[str, object]]:
    return render_inquiry(inquiry), {
        "enrollment_match": _enrollment(),
        "coverage_lookup": _rule(),
        "relay_call": _recommendation_text(),
    }


def _assert_memo_is_invisible(policy_type: type, conversations: list[tuple[str, dict[str, object]]]) -> None:
    """Interleave the conversations' turns on one instance, with a malformed
    body after each turn; every decision must equal a fresh instance's."""
    shared = policy_type()
    seen: list[dict[str, object]] = [{} for _ in conversations]
    unfinished = list(range(len(conversations)))
    for _ in range(8):
        for i in list(unfinished):
            body, results = conversations[i]
            turn = shared.decide(body, seen[i])
            assert turn == policy_type().decide(body, seen[i])
            assert shared.decide(MALFORMED_BODY, {}) == policy_type().decide(MALFORMED_BODY, {})
            if isinstance(turn, str):
                unfinished.remove(i)
            else:
                seen[i][turn.tool] = results[turn.tool]
    assert unfinished == []


@given(patient_ids, patient_ids, inquiries(), inquiries(), consults(), consults())
def test_last_parse_memo_never_changes_a_decision(
    guidance_docs, id_a, id_b, inquiry_a, inquiry_b, consult_a, consult_b
):
    _assert_memo_is_invisible(
        ClinicPolicy, [_clinic_conversation(id_a, inquiry_a), _clinic_conversation(id_b, inquiry_b)]
    )
    _assert_memo_is_invisible(
        InsurerPolicy, [_insurer_conversation(inquiry_a), _insurer_conversation(inquiry_b)]
    )
    guidance = {"guidance_search": guidance_docs}
    _assert_memo_is_invisible(
        SpecialistPolicy, [(render_consult(consult_a), guidance), (render_consult(consult_b), guidance)]
    )


def test_request_parses_only_the_three_messages_a_policy_is_sent(workspace, monkeypatch):
    """Node-local tools hand their policy records, so one request parses
    only the inquiry, the consult and the recommendation, each once."""
    calls: Counter[str] = Counter()
    for name, parse in vars(messages_mod).items():
        if name.startswith("parse_") and hasattr(policies_mod, name):
            def counted(text, _name=name, _parse=parse):
                calls[_name] += 1
                return _parse(text)

            monkeypatch.setattr(policies_mod, name, counted)
    scenario = boot_scenario(workspace.node_configs, run_id="run-three-parses")
    try:
        reply = scenario.submit(CANONICAL_REQUEST)
    finally:
        scenario.close()
    assert reply.startswith("Coverage: ")
    assert calls == {"parse_inquiry": 1, "parse_consult": 1, "parse_recommendation": 1}
