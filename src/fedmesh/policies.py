"""Deterministic agent policies.

Each turn, a policy reads the message it was sent and ``results``, the
last value of each tool it has called in this operation (the record the
tool returned, or a reply's text), and returns one ``ToolCall`` or its
answer text. Every message they read or write is defined in ``messages``.

The three policies are pure functions of (request body, results): given
identical inputs they produce identical turns across runs and processes,
which is what makes the end-to-end transcript testable. The insurer and
specialist keep their last parse of the message they were sent, so the
turns of one operation, which all carry the same body, parse it once; a
different body only misses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

from .datastore import (
    TREATMENT_CODE_RE,
    ClinicalObservation,
    CoverageRule,
    EnrollmentRow,
    EnrollmentStatus,
    GuidanceDoc,
    SymptomClass,
)
from .errors import ParseError
from .locality import PATIENT_ID_RE
from .messages import (
    Appropriateness,
    CoverageInquiry,
    CoverageStatus,
    CoverageVerdict,
    Recommendation,
    SpecialistConsult,
    parse_consult,
    parse_inquiry,
    parse_recommendation,
    render_consult,
    render_inquiry,
    render_recommendation,
    render_verdict,
)
from .pseudonym import CaseToken
from .runtime import ToolCall

TREATMENT_CONSERVATIVE = "conservative_management"
TREATMENT_HA_INJECTION = "knee_hyaluronic_injection"
TREATMENT_PHYSIO_COURSE = "physiotherapy_course"

PREREQ_PHYSIO = "physiotherapy_6_weeks"
PREREQ_ANALGESIA = "failed_simple_analgesia"

# The relay target each relaying policy calls, and the specialist's
# guidance query.
INSURER_TARGET = "insurer"
SPECIALIST_TARGET = "specialist"
GUIDANCE_QUERY = "osteoarthritis"

_EXPLICIT_TREATMENT_RE = re.compile(rf"\bfor\s+({TREATMENT_CODE_RE.pattern})(?![\w-])")


def consult_from_inquiry(inquiry: CoverageInquiry) -> SpecialistConsult:
    """Copy the consult's fields from the inquiry; the consult has no token field."""
    return SpecialistConsult(**{f.name: getattr(inquiry, f.name) for f in fields(SpecialistConsult)})


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


def _explicit_treatment(body: str) -> str | None:
    """Last ``for <code>`` mention that is not part of a patient id."""
    candidates = [
        m.group(1)
        for m in _EXPLICIT_TREATMENT_RE.finditer(body)
        if not PATIENT_ID_RE.fullmatch(m.group(1))
    ]
    return candidates[-1] if candidates else None


def _parse_request(policy: Any, parse: Callable[[str], Any], body: str) -> Any:
    """``parse(body)``, reusing the policy's last parse of an equal body.
    The memo is one ``(body, result)`` pair, replaced by one attribute
    store, so concurrent turns need no lock: a race costs only a re-parse.
    A parse that raises is not kept."""
    last = policy._last_request
    if last is not None and last[0] == body:
        return last[1]
    result = parse(body)
    object.__setattr__(policy, "_last_request", (body, result))
    return result


@dataclass(frozen=True)
class ClinicPolicy:
    """Clinic agent: local facts, token, inquiry, verbatim relay of the
    verdict. Identity never enters the outbound body; the whole flow is a
    single pass with no clarifying questions.

    Turn order: csv_lookup -> hmac_token -> relay_call -> final message.
    An explicit treatment in the request wins over the inferred one.
    """

    def decide(self, request_body: str, results: Mapping[str, Any]) -> ToolCall | str:
        id_match = PATIENT_ID_RE.search(request_body)
        if id_match is None:
            return "Patient not found: the request names no patient identifier."
        patient_id = id_match.group(0).upper()

        if "csv_lookup" not in results:
            return ToolCall("csv_lookup", {"patient_id": patient_id})
        obs: ClinicalObservation | None = results["csv_lookup"]
        if obs is None:
            return "Patient not found: no local case record matches the request."

        if "hmac_token" not in results:
            return ToolCall("hmac_token", {"patient_id": patient_id})
        token: CaseToken = results["hmac_token"]

        if "relay_call" not in results:
            inquiry = CoverageInquiry(
                patient_token=token,
                symptom_class=obs.symptom_class,
                duration_weeks=obs.duration_weeks,
                functional_limitation=obs.functional_limitation,
                prior_tx=obs.prior_conservative_tx,
                proposed_treatment=_explicit_treatment(request_body) or infer_treatment(obs),
            )
            return ToolCall("relay_call", {"target": INSURER_TARGET, "body": render_inquiry(inquiry)})

        return results["relay_call"]


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

    forward_token: bool = False
    _last_request: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def decide(self, request_body: str, results: Mapping[str, Any]) -> ToolCall | str:
        try:
            inquiry = _parse_request(self, parse_inquiry, request_body)
        except ParseError as exc:
            return f"Unable to process the coverage inquiry: missing or malformed field '{exc.field}'."

        if "enrollment_match" not in results:
            return ToolCall("enrollment_match", {"token": inquiry.patient_token.hex})
        enrollment: EnrollmentRow | None = results["enrollment_match"]
        active = enrollment is not None and enrollment.status is EnrollmentStatus.ACTIVE

        if active and "coverage_lookup" not in results:
            return ToolCall(
                "coverage_lookup", {"plan_id": enrollment.plan_id, "treatment_code": inquiry.proposed_treatment}
            )

        if "relay_call" not in results:
            body = render_consult(consult_from_inquiry(inquiry))
            if self.forward_token:
                body += "\npatient_token=" + inquiry.patient_token.hex
            return ToolCall("relay_call", {"target": SPECIALIST_TARGET, "body": body})

        try:
            rec = parse_recommendation(results["relay_call"])
        except ParseError as exc:
            return f"Specialist response could not be interpreted (field '{exc.field}')."

        if not active:
            coverage = CoverageStatus.NOT_COVERED
            outstanding: tuple[str, ...] = ()
            summary = "No active enrolment found for the presented token."
        else:
            rule: CoverageRule | None = results["coverage_lookup"]
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
        return render_verdict(verdict)


@dataclass(frozen=True)
class SpecialistPolicy:
    """Specialist agent: guidance lookup plus the recommendation table.

    Receives only the clinical narrative; needs no identifiers, tokens, or
    conversation handles, and its permitted tool set contains no relay.
    """

    _last_request: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def decide(self, request_body: str, results: Mapping[str, Any]) -> ToolCall | str:
        try:
            consult = _parse_request(self, parse_consult, request_body)
        except ParseError as exc:
            return f"Unable to process the consultation request: missing or malformed field '{exc.field}'."

        if "guidance_search" not in results:
            return ToolCall("guidance_search", {"query": GUIDANCE_QUERY})
        docs: list[GuidanceDoc] = results["guidance_search"]
        return render_recommendation(recommend(consult, docs))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

POLICY_REGISTRY: dict[str, type] = {
    "clinic": ClinicPolicy,
    "insurer": InsurerPolicy,
    "specialist": SpecialistPolicy,
}
