"""Deterministic agent policies and the message vocabulary they speak.

Cross-node bodies are natural-language paragraphs built from labelled-line
templates: human-readable, but parseable without a model in the loop. Two
templates cross node boundaries (the coverage inquiry and the specialist
consultation), one response format comes back from the specialist, and the
insurer's final verdict carries four labelled fields. The exact formats are
documented in the README; render/parse pairs round-trip by construction.

The three policies are pure functions of (request body, tool history):
given identical inputs they produce identical turns across runs and
processes, which is what makes the end-to-end transcript testable. Each
instance keeps its last parse, so the turns of one operation, which all
carry the same text, parse it once; a different text only misses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Callable, Mapping, Sequence

from .datastore import (
    ClinicalObservation,
    CoverageRule,
    EnrollmentStatus,
    GuidanceDoc,
    NO_COVERAGE_RULE,
    NO_ENROLLMENT,
    NO_GUIDANCE,
    NO_OBSERVATION,
    SymptomClass,
    parse_guidance_result,
    parse_kv_lines,
)
from .errors import ConfigError, ParseError
from .locality import PATIENT_ID_RE
from .pseudonym import CaseToken, normalize_id
from .runtime import AgentPolicy, PolicyDecision, ToolCall, ToolExchange

TREATMENT_CONSERVATIVE = "conservative_management"
TREATMENT_HA_INJECTION = "knee_hyaluronic_injection"
TREATMENT_PHYSIO_COURSE = "physiotherapy_course"

PREREQ_PHYSIO = "physiotherapy_6_weeks"
PREREQ_ANALGESIA = "failed_simple_analgesia"

_CODE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_EXPLICIT_TREATMENT_RE = re.compile(r"\bfor\s+([A-Za-z][A-Za-z0-9_]*)(?![\w-])")


class Appropriateness(str, Enum):
    APPROPRIATE_NOW = "appropriate_now"
    APPROPRIATE_AFTER_STEPS = "appropriate_after_steps"
    NOT_CURRENTLY_APPROPRIATE = "not_currently_appropriate"


class CoverageStatus(str, Enum):
    COVERED = "covered"
    COVERED_WITH_PREREQUISITES = "covered_with_prerequisites"
    NOT_COVERED = "not_covered"


_APPROPRIATENESS_LABELS = {
    Appropriateness.APPROPRIATE_NOW: "Appropriate now",
    Appropriateness.APPROPRIATE_AFTER_STEPS: "Appropriate after steps",
    Appropriateness.NOT_CURRENTLY_APPROPRIATE: "Not currently appropriate",
}
_APPROPRIATENESS_BY_LABEL = {label: value for value, label in _APPROPRIATENESS_LABELS.items()}

_COVERAGE_LABELS = {
    CoverageStatus.COVERED: "Covered",
    CoverageStatus.COVERED_WITH_PREREQUISITES: "Covered with prerequisites",
    CoverageStatus.NOT_COVERED: "Not covered",
}
_COVERAGE_BY_LABEL = {label: value for value, label in _COVERAGE_LABELS.items()}


def _validate_code(code: str, what: str) -> None:
    if not _CODE_RE.fullmatch(code):
        raise ValueError(f"{what} {code!r} is not a valid code")
    if code == "none":
        raise ValueError(f"{what} must not be the literal 'none'")


def _validate_clinical(facts: CoverageInquiry | SpecialistConsult) -> None:
    """Check the clinical facts both message types carry."""
    limitation = facts.functional_limitation
    if facts.duration_weeks < 0:
        raise ValueError("duration must be non-negative")
    if not limitation:
        raise ValueError("functional limitation must be non-empty")
    if "\n" in limitation or "\r" in limitation:
        raise ValueError("functional limitation must be a single line")
    for code in facts.prior_tx:
        _validate_code(code, "treatment step")
    _validate_code(facts.proposed_treatment, "proposed treatment")


@dataclass(frozen=True)
class CoverageInquiry:
    """What the clinic sends the insurer: a token and clinical facts only.

    There are no identity fields on this type; the token is the only link.
    """

    patient_token: CaseToken
    symptom_class: SymptomClass
    duration_weeks: int
    functional_limitation: str
    prior_tx: tuple[str, ...]
    proposed_treatment: str

    def __post_init__(self) -> None:
        _validate_clinical(self)


@dataclass(frozen=True)
class SpecialistConsult:
    """What the insurer sends the specialist: the clinical narrative only.

    No token field exists on this type, so token stripping is structural.
    """

    symptom_class: SymptomClass
    duration_weeks: int
    functional_limitation: str
    prior_tx: tuple[str, ...]
    proposed_treatment: str

    def __post_init__(self) -> None:
        _validate_clinical(self)


def consult_from_inquiry(inquiry: CoverageInquiry) -> SpecialistConsult:
    """Copy the consult's fields from the inquiry; the consult has no token field."""
    return SpecialistConsult(**{f.name: getattr(inquiry, f.name) for f in fields(SpecialistConsult)})


@dataclass(frozen=True)
class Recommendation:
    verdict: Appropriateness
    reasoning: str
    next_steps: str | None
    source_doc: str


@dataclass(frozen=True)
class CoverageVerdict:
    coverage: CoverageStatus
    prerequisites_outstanding: tuple[str, ...]
    appropriateness: Recommendation
    summary: str
    next_steps: str

    def __post_init__(self) -> None:
        if self.coverage is CoverageStatus.COVERED_WITH_PREREQUISITES and not self.prerequisites_outstanding:
            raise ValueError("covered_with_prerequisites requires outstanding prerequisites")


# ---------------------------------------------------------------------------
# Message templates
# ---------------------------------------------------------------------------

_INQUIRY_HEADER = "Coverage inquiry for patient_token="
_CONSULT_HEADER = "Specialist consultation request."
_INQUIRY_FOOTER = "Please advise coverage and any prerequisites."
_CONSULT_FOOTER = "Please advise clinical appropriateness."

_PRESENTATION_RE = re.compile(
    r"^Presentation: (mild|moderate|severe) symptoms, (\d+) weeks; limitation: (.*)\.$"
)
_PRIOR_RE = re.compile(r"^Prior management: (.*)\.$")
_PROPOSED_RE = re.compile(r"^Proposed treatment: ([A-Za-z][A-Za-z0-9_]*)\.$")

_REC_VERDICT_RE = re.compile(
    r"^Recommendation: (Appropriate now|Appropriate after steps|Not currently appropriate)\.$"
)
_REC_REASONING_RE = re.compile(r"^Reasoning: (.*)$")
_REC_NEXT_RE = re.compile(r"^Next steps: (.*)$")
_REC_REF_RE = re.compile(r"^\(ref: (.+)\)$")

_VERDICT_COVERAGE_RE = re.compile(r"^Coverage: (Covered with prerequisites|Covered|Not covered)$")
_VERDICT_OUTSTANDING_RE = re.compile(r"^Outstanding prerequisites: (.*)$")
_VERDICT_APPROPRIATENESS_RE = re.compile(
    r"^Clinical Appropriateness: (Appropriate now|Appropriate after steps|Not currently appropriate)$"
)
_VERDICT_SUMMARY_RE = re.compile(r"^Summary: (.*)$")
_VERDICT_NEXT_RE = re.compile(r"^Next Steps: (.*)$")


def _clinical_lines(facts: CoverageInquiry | SpecialistConsult) -> list[str]:
    prior = "; ".join(facts.prior_tx) if facts.prior_tx else "none"
    return [
        f"Presentation: {facts.symptom_class.value} symptoms, {facts.duration_weeks} weeks; "
        f"limitation: {facts.functional_limitation}.",
        f"Prior management: {prior}.",
        f"Proposed treatment: {facts.proposed_treatment}.",
    ]


def render_inquiry(inquiry: CoverageInquiry) -> str:
    return "\n".join(
        [_INQUIRY_HEADER + inquiry.patient_token.hex, *_clinical_lines(inquiry), _INQUIRY_FOOTER]
    )


def render_consult(consult: SpecialistConsult) -> str:
    return "\n".join([_CONSULT_HEADER, *_clinical_lines(consult), _CONSULT_FOOTER])


def _first_match(lines: Sequence[str], pattern: re.Pattern[str], field: str) -> re.Match[str]:
    for line in lines:
        match = pattern.fullmatch(line)
        if match:
            return match
    raise ParseError(field)


def _parse_clinical_lines(lines: Sequence[str]) -> dict[str, Any]:
    """The five clinical fields, by name, as ``_clinical_lines`` wrote them."""
    presentation = _first_match(lines, _PRESENTATION_RE, "presentation")
    prior_text = _first_match(lines, _PRIOR_RE, "prior_management").group(1)
    if prior_text == "none":
        prior: tuple[str, ...] = ()
    else:
        prior = tuple(prior_text.split("; "))
        if not all(_CODE_RE.fullmatch(part) for part in prior):
            raise ParseError("prior_management", f"invalid treatment codes: {prior_text!r}")
    return {
        "symptom_class": SymptomClass(presentation.group(1)),
        "duration_weeks": int(presentation.group(2)),
        "functional_limitation": presentation.group(3),
        "prior_tx": prior,
        "proposed_treatment": _first_match(lines, _PROPOSED_RE, "proposed_treatment").group(1),
    }


def parse_inquiry(text: str) -> CoverageInquiry:
    """Inverse of render_inquiry; raises ParseError naming the first missing
    or malformed field."""
    lines = text.split("\n")
    token_line = next((line for line in lines if line.startswith(_INQUIRY_HEADER)), None)
    if token_line is None:
        raise ParseError("patient_token")
    try:
        token = CaseToken(token_line[len(_INQUIRY_HEADER):])
    except ValueError as exc:
        raise ParseError("patient_token", f"patient_token: {exc}") from None
    facts = _parse_clinical_lines(lines)
    try:
        return CoverageInquiry(patient_token=token, **facts)
    except ValueError as exc:
        raise ParseError("inquiry", str(exc)) from None


def parse_consult(text: str) -> SpecialistConsult:
    lines = text.split("\n")
    if _CONSULT_HEADER not in lines:
        raise ParseError("consultation_header")
    facts = _parse_clinical_lines(lines)
    try:
        return SpecialistConsult(**facts)
    except ValueError as exc:
        raise ParseError("consult", str(exc)) from None


def render_recommendation(rec: Recommendation) -> str:
    lines = [
        f"Recommendation: {_APPROPRIATENESS_LABELS[rec.verdict]}.",
        f"Reasoning: {rec.reasoning}",
    ]
    if rec.next_steps:
        lines.append(f"Next steps: {rec.next_steps}")
    lines.append(f"(ref: {rec.source_doc})")
    return "\n".join(lines)


def parse_recommendation(text: str) -> Recommendation:
    lines = text.split("\n")
    verdict = _APPROPRIATENESS_BY_LABEL[_first_match(lines, _REC_VERDICT_RE, "recommendation").group(1)]
    reasoning = _first_match(lines, _REC_REASONING_RE, "reasoning").group(1)
    next_match = next((m for line in lines if (m := _REC_NEXT_RE.fullmatch(line))), None)
    source = _first_match(lines, _REC_REF_RE, "source_doc").group(1)
    return Recommendation(
        verdict=verdict,
        reasoning=reasoning,
        next_steps=next_match.group(1) if next_match else None,
        source_doc=source,
    )


def render_verdict(verdict: CoverageVerdict) -> str:
    lines = [f"Coverage: {_COVERAGE_LABELS[verdict.coverage]}"]
    if verdict.prerequisites_outstanding:
        lines.append("Outstanding prerequisites: " + "; ".join(verdict.prerequisites_outstanding))
    lines.append(
        f"Clinical Appropriateness: {_APPROPRIATENESS_LABELS[verdict.appropriateness.verdict]}"
    )
    lines.append(f"Summary: {verdict.summary}")
    lines.append(f"Next Steps: {verdict.next_steps}")
    return "\n".join(lines)


def parse_verdict_fields(text: str) -> dict[str, object]:
    """Extract the structured fields from a rendered verdict."""
    lines = text.split("\n")
    coverage = _COVERAGE_BY_LABEL[_first_match(lines, _VERDICT_COVERAGE_RE, "coverage").group(1)]
    outstanding_match = next(
        (m for line in lines if (m := _VERDICT_OUTSTANDING_RE.fullmatch(line))), None
    )
    outstanding: tuple[str, ...] = (
        tuple(outstanding_match.group(1).split("; ")) if outstanding_match else ()
    )
    appropriateness = _APPROPRIATENESS_BY_LABEL[
        _first_match(lines, _VERDICT_APPROPRIATENESS_RE, "appropriateness").group(1)
    ]
    summary = _first_match(lines, _VERDICT_SUMMARY_RE, "summary").group(1)
    next_steps = _first_match(lines, _VERDICT_NEXT_RE, "next_steps").group(1)
    return {
        "coverage": coverage,
        "outstanding": outstanding,
        "appropriateness": appropriateness,
        "summary": summary,
        "next_steps": next_steps,
    }


# ---------------------------------------------------------------------------
# Treatment-step vocabulary and decision tables
# ---------------------------------------------------------------------------

_STEP_RE = re.compile(r"^(?P<name>.+?)_(?P<weeks>\d+)_weeks$")
_PHYSIO_PREFIXES = ("physio",)
_ANALGESIA_PREFIXES = ("nsaid", "acetaminophen")


@dataclass(frozen=True)
class TreatmentStep:
    code: str
    family: str  # "physio" | "analgesia" | "other"
    weeks: int


def parse_treatment_step(code: str) -> TreatmentStep:
    """Split ``<name>_<N>_weeks`` codes; family is recognised by prefix."""
    match = _STEP_RE.match(code)
    name = match.group("name") if match else code
    weeks = int(match.group("weeks")) if match else 0
    lowered = name.lower()
    if any(lowered.startswith(prefix) for prefix in _PHYSIO_PREFIXES):
        family = "physio"
    elif any(lowered.startswith(prefix) for prefix in _ANALGESIA_PREFIXES):
        family = "analgesia"
    else:
        family = "other"
    return TreatmentStep(code=code, family=family, weeks=weeks)


def has_step(prior_tx: Sequence[str], family: str, min_weeks: int) -> bool:
    return any(
        step.family == family and step.weeks >= min_weeks
        for step in map(parse_treatment_step, prior_tx)
    )


def infer_treatment(obs: ClinicalObservation) -> str:
    """Pick the proposed treatment from the observation.

    Table: severe with analgesia >= 2w and physio >= 4w, or moderate with
    physio >= 6w completed, proposes the intra-articular injection; every
    other row stays on conservative management (ties break toward the less
    invasive option).
    """
    prior = obs.prior_conservative_tx
    if (
        obs.symptom_class is SymptomClass.SEVERE
        and has_step(prior, "analgesia", 2)
        and has_step(prior, "physio", 4)
    ):
        return TREATMENT_HA_INJECTION
    if obs.symptom_class is SymptomClass.MODERATE and has_step(prior, "physio", 6):
        return TREATMENT_HA_INJECTION
    return TREATMENT_CONSERVATIVE


def prerequisites_satisfied(
    rule: CoverageRule, inquiry: CoverageInquiry
) -> tuple[bool, tuple[str, ...]]:
    """Evaluate a rule's prerequisite codes against the reported steps.

    physiotherapy_6_weeks needs a physio step of >= 6 weeks;
    failed_simple_analgesia needs an analgesia step of >= 2 weeks. Unknown
    codes are conservatively unmet. Outstanding codes keep rule order.
    """
    outstanding: list[str] = []
    for code in rule.prerequisites:
        if code == PREREQ_PHYSIO:
            met = has_step(inquiry.prior_tx, "physio", 6)
        elif code == PREREQ_ANALGESIA:
            met = has_step(inquiry.prior_tx, "analgesia", 2)
        else:
            met = False
        if not met:
            outstanding.append(code)
    return (not outstanding, tuple(outstanding))


# ---------------------------------------------------------------------------
# Specialist decision table
# ---------------------------------------------------------------------------


def _ladder_label(doc: GuidanceDoc | None, keyword: str, fallback: str) -> str:
    if doc is not None:
        for step in doc.ladder:
            if keyword in step.casefold():
                return step
    return fallback


def recommend(consult: SpecialistConsult, docs: Sequence[GuidanceDoc]) -> Recommendation:
    """Apply the guidance table to a consultation.

    Red flags dominate; the injection needs the ladder's analgesia and
    physiotherapy steps evidenced; conservative routes are the ladder
    itself, with an escalation note once symptoms are severe.
    """
    if not docs:
        return Recommendation(
            verdict=Appropriateness.NOT_CURRENTLY_APPROPRIATE,
            reasoning="No local guidance is available for the described case.",
            next_steps="Seek condition-specific specialist review.",
            source_doc="none",
        )

    for doc in docs:
        for flag in doc.red_flags:
            if flag.casefold() in consult.functional_limitation.casefold():
                return Recommendation(
                    verdict=Appropriateness.NOT_CURRENTLY_APPROPRIATE,
                    reasoning=(
                        f"A red-flag feature ({flag.lower()}) requires urgent assessment "
                        "before elective treatment."
                    ),
                    next_steps="Arrange urgent clinical review.",
                    source_doc=doc.doc_id,
                )

    ladder_doc = next((doc for doc in docs if doc.ladder), docs[0])

    if consult.proposed_treatment == TREATMENT_HA_INJECTION:
        missing: list[str] = []
        if not has_step(consult.prior_tx, "analgesia", 2):
            missing.append(_ladder_label(ladder_doc, "analgesia", "Simple analgesia 2-3 weeks"))
        if not has_step(consult.prior_tx, "physio", 6):
            missing.append(_ladder_label(ladder_doc, "physio", "Physiotherapy 6 weeks"))
        if not missing:
            return Recommendation(
                verdict=Appropriateness.APPROPRIATE_NOW,
                reasoning=(
                    "Conservative ladder steps are evidenced and function remains "
                    "limiting; an intra-articular option is reasonable."
                ),
                next_steps="Document functional response after the procedure.",
                source_doc=ladder_doc.doc_id,
            )
        return Recommendation(
            verdict=Appropriateness.APPROPRIATE_AFTER_STEPS,
            reasoning=(
                "The conservative ladder is incomplete before an intra-articular option: "
                + "; ".join(missing)
                + " not yet evidenced."
            ),
            next_steps="Complete: " + "; ".join(missing) + ".",
            source_doc=ladder_doc.doc_id,
        )

    if consult.proposed_treatment in (TREATMENT_CONSERVATIVE, TREATMENT_PHYSIO_COURSE):
        if consult.symptom_class is SymptomClass.SEVERE:
            return Recommendation(
                verdict=Appropriateness.APPROPRIATE_AFTER_STEPS,
                reasoning=(
                    "Symptoms are severe with substantial functional loss; conservative "
                    "measures alone may be insufficient."
                ),
                next_steps="Escalate review toward intra-articular options if function remains impaired.",
                source_doc=ladder_doc.doc_id,
            )
        return Recommendation(
            verdict=Appropriateness.APPROPRIATE_NOW,
            reasoning=(
                f"Standard conservative management is consistent with "
                f"{consult.symptom_class.value} symptoms and early functional limitation."
            ),
            next_steps="Continue structured physiotherapy if not already completed.",
            source_doc=ladder_doc.doc_id,
        )

    return Recommendation(
        verdict=Appropriateness.NOT_CURRENTLY_APPROPRIATE,
        reasoning="Local guidance does not address the proposed treatment.",
        next_steps="Seek condition-specific specialist review.",
        source_doc=ladder_doc.doc_id,
    )


# ---------------------------------------------------------------------------
# Agent policies
# ---------------------------------------------------------------------------


def _last_result(history: Sequence[ToolExchange], tool: str) -> str | None:
    for exchange in reversed(history):
        if exchange.call.tool == tool:
            return exchange.result.text
    return None


def _explicit_treatment(body: str) -> str | None:
    """Last ``for <code>`` mention that is not part of a patient id."""
    candidates = [
        m.group(1)
        for m in _EXPLICIT_TREATMENT_RE.finditer(body)
        if not PATIENT_ID_RE.fullmatch(m.group(1))
    ]
    return candidates[-1] if candidates else None


def _recall(policy: Any, parse: Callable[..., Any], *args: str) -> Any:
    """``parse(*args)``, reusing the policy's last result for equal ``args``.

    The memo is one ``(args, result)`` pair, replaced by a single attribute
    store, so concurrent turns need no lock: a race costs only a re-parse.
    A parse that raises is not kept.
    """
    last = policy._last_parse
    if last is not None and last[0] == args:
        return last[1]
    result = parse(*args)
    object.__setattr__(policy, "_last_parse", (args, result))
    return result


def _observation_from_result(text: str, patient_id: str) -> ClinicalObservation:
    values = parse_kv_lines(text)
    prior = tuple(part for part in values.get("prior_conservative_tx", "").split(";") if part)
    return ClinicalObservation(
        patient_id=normalize_id(patient_id),
        symptom_class=SymptomClass(values["symptom_class"]),
        duration_weeks=int(values["duration_weeks"]),
        functional_limitation=values["functional_limitation"],
        prior_conservative_tx=prior,
    )


@dataclass(frozen=True)
class ClinicPolicy:
    """Clinic agent: local facts, token, inquiry, verbatim relay of the
    verdict. Identity never enters the outbound body; the whole flow is a
    single pass with no clarifying questions.

    Turn order: csv_lookup -> hmac_token -> relay_call -> final message.
    An explicit treatment in the request wins over the inferred one.
    """

    insurer_target: str = "insurer"
    _last_parse: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def decide(self, request_body: str, history: Sequence[ToolExchange]) -> PolicyDecision:
        id_match = PATIENT_ID_RE.search(request_body)
        if id_match is None:
            return PolicyDecision(message="Patient not found: the request names no patient identifier.")
        patient_id = id_match.group(0).upper()

        lookup = _last_result(history, "csv_lookup")
        if lookup is None:
            return PolicyDecision(tool_calls=(ToolCall("csv_lookup", {"patient_id": patient_id}),))
        if lookup == NO_OBSERVATION:
            return PolicyDecision(message="Patient not found: no local case record matches the request.")
        obs = _recall(self, _observation_from_result, lookup, patient_id)

        token_text = _last_result(history, "hmac_token")
        if token_text is None:
            return PolicyDecision(tool_calls=(ToolCall("hmac_token", {"patient_id": patient_id}),))

        relay_result = _last_result(history, "relay_call")
        if relay_result is None:
            inquiry = CoverageInquiry(
                patient_token=CaseToken(token_text.strip()),
                symptom_class=obs.symptom_class,
                duration_weeks=obs.duration_weeks,
                functional_limitation=obs.functional_limitation,
                prior_tx=obs.prior_conservative_tx,
                proposed_treatment=_explicit_treatment(request_body) or infer_treatment(obs),
            )
            return PolicyDecision(
                tool_calls=(
                    ToolCall(
                        "relay_call",
                        {"target": self.insurer_target, "body": render_inquiry(inquiry)},
                    ),
                )
            )

        return PolicyDecision(message=relay_result)


def _humanize(code: str) -> str:
    text = code.replace("_", " ")
    return text[:1].upper() + text[1:]


def _compose_summary(coverage: CoverageStatus, treatment: str, rec: Recommendation) -> str:
    name = _humanize(treatment)
    now = rec.verdict is Appropriateness.APPROPRIATE_NOW
    after = rec.verdict is Appropriateness.APPROPRIATE_AFTER_STEPS
    if coverage is CoverageStatus.NOT_COVERED:
        if now:
            return f"{name} is clinically appropriate but is not covered under the current plan."
        if after:
            return (
                f"{name} is not covered under the current plan; the specialist advises "
                "completing further conservative steps first."
            )
        return (
            f"{name} is not covered under the current plan and is not currently "
            "appropriate per specialist guidance."
        )
    if coverage is CoverageStatus.COVERED_WITH_PREREQUISITES:
        return f"{name} is covered under the current plan once the outstanding prerequisites are met."
    if now:
        return f"{name} is covered under the current plan and is clinically appropriate."
    if after:
        return (
            f"{name} is covered under the current plan; the specialist advises "
            "completing further conservative steps first."
        )
    return f"{name} is covered under the current plan but is not currently appropriate per specialist guidance."


def _compose_next_steps(
    coverage: CoverageStatus,
    outstanding: tuple[str, ...],
    rec: Recommendation,
) -> str:
    if outstanding:
        return "Complete outstanding prerequisites: " + "; ".join(outstanding) + "."
    if rec.verdict is not Appropriateness.APPROPRIATE_NOW and rec.next_steps:
        return rec.next_steps
    if coverage is CoverageStatus.NOT_COVERED:
        return "Consider reviewing plan options or alternative interventions."
    return "Proceed with the proposed treatment under the current plan."


@dataclass(frozen=True)
class InsurerPolicy:
    """Insurer agent: token match, coverage rule, specialist consult, one
    combined verdict.

    The consult body is built from the structurally token-free consultation
    type. The token is never persisted: it lives in this request's turn
    context and, as part of the last parsed inquiry, stays referenced by
    this policy instance in the insurer's memory until the next inquiry
    arrives. The specialist is always consulted, since every inquiry
    carries a proposed treatment whose appropriateness feeds the verdict.

    ``forward_token`` is a fault-injection hook for exercising the guard
    and the trace checker; it deliberately violates the consult contract.
    """

    specialist_target: str = "specialist"
    forward_token: bool = False
    _last_parse: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def decide(self, request_body: str, history: Sequence[ToolExchange]) -> PolicyDecision:
        try:
            inquiry = _recall(self, parse_inquiry, request_body)
        except ParseError as exc:
            return PolicyDecision(
                message=f"Unable to process the coverage inquiry: missing or malformed field '{exc.field}'."
            )

        enrollment_text = _last_result(history, "enrollment_match")
        if enrollment_text is None:
            return PolicyDecision(
                tool_calls=(ToolCall("enrollment_match", {"token": inquiry.patient_token.hex}),)
            )
        enrollment = None if enrollment_text == NO_ENROLLMENT else parse_kv_lines(enrollment_text)
        active = enrollment is not None and enrollment.get("status") == EnrollmentStatus.ACTIVE.value

        rule_text = _last_result(history, "coverage_lookup")
        if active and rule_text is None:
            return PolicyDecision(
                tool_calls=(
                    ToolCall(
                        "coverage_lookup",
                        {
                            "plan_id": enrollment["plan_id"],
                            "treatment_code": inquiry.proposed_treatment,
                        },
                    ),
                )
            )

        consult_text = _last_result(history, "relay_call")
        if consult_text is None:
            body = render_consult(consult_from_inquiry(inquiry))
            if self.forward_token:
                body += "\npatient_token=" + inquiry.patient_token.hex
            return PolicyDecision(
                tool_calls=(ToolCall("relay_call", {"target": self.specialist_target, "body": body}),)
            )

        try:
            rec = parse_recommendation(consult_text)
        except ParseError as exc:
            return PolicyDecision(
                message=f"Specialist response could not be interpreted (field '{exc.field}')."
            )

        if not active:
            coverage = CoverageStatus.NOT_COVERED
            outstanding: tuple[str, ...] = ()
            summary = "No active enrolment found for the presented token."
        else:
            if rule_text is None or rule_text == NO_COVERAGE_RULE:
                rule = None
            else:
                values = parse_kv_lines(rule_text)
                rule = CoverageRule(
                    plan_id=values["plan_id"],
                    treatment_code=values["treatment_code"],
                    covered=values["covered"] == "yes",
                    prerequisites=tuple(p for p in values["prerequisites"].split(";") if p),
                )
            if rule is None or not rule.covered:
                coverage = CoverageStatus.NOT_COVERED
                outstanding = ()
            else:
                satisfied, outstanding = prerequisites_satisfied(rule, inquiry)
                coverage = (
                    CoverageStatus.COVERED if satisfied else CoverageStatus.COVERED_WITH_PREREQUISITES
                )
            summary = _compose_summary(coverage, inquiry.proposed_treatment, rec)

        verdict = CoverageVerdict(
            coverage=coverage,
            prerequisites_outstanding=outstanding,
            appropriateness=rec,
            summary=summary,
            next_steps=_compose_next_steps(coverage, outstanding, rec),
        )
        return PolicyDecision(message=render_verdict(verdict))


@dataclass(frozen=True)
class SpecialistPolicy:
    """Specialist agent: guidance lookup plus the recommendation table.

    Receives only the clinical narrative; needs no identifiers, tokens, or
    conversation handles, and its permitted tool set contains no relay.
    """

    guidance_query: str = "osteoarthritis"
    _last_parse: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def decide(self, request_body: str, history: Sequence[ToolExchange]) -> PolicyDecision:
        try:
            consult = _recall(self, parse_consult, request_body)
        except ParseError as exc:
            return PolicyDecision(
                message=f"Unable to process the consultation request: missing or malformed field '{exc.field}'."
            )

        guidance_text = _last_result(history, "guidance_search")
        if guidance_text is None:
            return PolicyDecision(
                tool_calls=(ToolCall("guidance_search", {"query": self.guidance_query}),)
            )
        docs = [] if guidance_text == NO_GUIDANCE else parse_guidance_result(guidance_text)
        return PolicyDecision(message=render_recommendation(recommend(consult, docs)))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

POLICY_REGISTRY: dict[str, type] = {
    "clinic": ClinicPolicy,
    "insurer": InsurerPolicy,
    "specialist": SpecialistPolicy,
}


def build_policy(name: str, options: Mapping[str, object] | None = None) -> AgentPolicy:
    factory = POLICY_REGISTRY.get(name)
    if factory is None:
        raise ConfigError(f"unknown agent policy {name!r}")
    return factory(**(options or {}))
