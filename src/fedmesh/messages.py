"""The message vocabulary: the four texts that cross a node boundary.

Agents in different organisations cooperate by natural-language messages
only: short paragraphs of labelled lines. Each of the four (inquiry,
consultation, recommendation, verdict) is defined once here, as an ordered
line spec from which ``render`` and ``parse`` are both derived. Tool results
never cross a node, so they are not messages: a node's tools hand its
policy records, not text.

Parsing takes, for each spec line, the first body line that it matches
whole: lines may come in any order, extra lines are ignored and footers are
not required. A missing required line raises ``ParseError`` naming its field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from string import Formatter
from types import SimpleNamespace
from typing import Any, Callable, Mapping, NamedTuple

from .datastore import TREATMENT_CODE_RE, SymptomClass, check_treatment_code
from .errors import ParseError
from .pseudonym import CaseToken


# ---------------------------------------------------------------------------
# What the cross-node messages carry
# ---------------------------------------------------------------------------


class Appropriateness(str, Enum):
    APPROPRIATE_NOW = "appropriate_now"
    APPROPRIATE_AFTER_STEPS = "appropriate_after_steps"
    NOT_CURRENTLY_APPROPRIATE = "not_currently_appropriate"


class CoverageStatus(str, Enum):
    COVERED = "covered"
    COVERED_WITH_PREREQUISITES = "covered_with_prerequisites"
    NOT_COVERED = "not_covered"


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
        check_treatment_code(code, "treatment step")
    check_treatment_code(facts.proposed_treatment, "proposed treatment")


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
# Line specs and their two interpreters
# ---------------------------------------------------------------------------


class Slot(NamedTuple):
    """A field's text in a line: a regular expression without capturing
    groups, and converters to and from it (none: the value is its text).
    ``from_text`` refuses with ``ValueError``, whose text ``ParseError`` keeps."""

    pattern: str = ".*"
    to_text: Callable[[Any], str] | None = None
    from_text: Callable[[str], Any] | None = None


class Line(NamedTuple):
    """A template whose ``{name}`` slots the fields of that name fill.
    ``field`` names the line in a ``ParseError``; a literal footer has none
    and is never looked for. An optional line has one slot and is written
    only when its value is truthy; a body without it reads as ``default``."""

    field: str | None
    template: str
    optional: bool = False
    default: Any = None


def _labels(labels: Mapping[Enum, str]) -> Slot:
    """A slot holding an enum member, written as its label."""
    by_label = {label: member for member, label in labels.items()}
    return Slot("|".join(map(re.escape, labels.values())), labels.__getitem__, by_label.__getitem__)


def _inquiry_token(text: str) -> CaseToken:
    try:
        return CaseToken(text)
    except ValueError as exc:
        raise ValueError(f"patient_token: {exc}") from None


def _steps(text: str) -> tuple[str, ...]:
    steps = () if text == "none" else tuple(text.split("; "))
    if not all(map(TREATMENT_CODE_RE.fullmatch, steps)):
        raise ValueError(f"invalid treatment codes: {text!r}")
    return steps


_APPROPRIATENESS = _labels({
    Appropriateness.APPROPRIATE_NOW: "Appropriate now",
    Appropriateness.APPROPRIATE_AFTER_STEPS: "Appropriate after steps",
    Appropriateness.NOT_CURRENTLY_APPROPRIATE: "Not currently appropriate",
})

# Every slot that is not free text, by the name the specs give it; a name
# means the same in every message that uses it.
_SLOTS = {
    "patient_token": Slot(".*", attrgetter("hex"), _inquiry_token),
    "symptom_class": _labels({member: member.value for member in SymptomClass}),
    "duration_weeks": Slot(r"\d+", None, int),
    "prior_tx": Slot(".*", lambda steps: "; ".join(steps) if steps else "none", _steps),
    "proposed_treatment": Slot(TREATMENT_CODE_RE.pattern),
    "verdict": _APPROPRIATENESS,
    "source_doc": Slot(".+"),
    "coverage": _labels({
        CoverageStatus.COVERED: "Covered",
        CoverageStatus.COVERED_WITH_PREREQUISITES: "Covered with prerequisites",
        CoverageStatus.NOT_COVERED: "Not covered",
    }),
    "outstanding": Slot(".*", "; ".join, lambda text: tuple(text.split("; "))),
    "appropriateness": _APPROPRIATENESS,
}


def _compile(template: str) -> tuple[str, str, list[tuple[str, Slot]]]:
    """A template's ``%``-format, its regular expression, and its slots."""
    fmt, pattern, slots = "", "", []
    for literal, name, _, _ in Formatter().parse(template):
        fmt += literal.replace("%", "%%")
        pattern += re.escape(literal)
        if name is not None:
            slot = _SLOTS.get(name, Slot())
            fmt, pattern = fmt + "%s", pattern + f"({slot.pattern})"
            slots.append((name, slot))
    return fmt, pattern, slots


def _optional_text(fmt: str, to_text: Callable[[Any], str] | None, value: Any) -> str:
    return fmt % (value if to_text is None else to_text(value),) if value else ""


class Message:
    """One message's line spec, compiled when constructed: ``render`` fills
    one ``%``-format string with the record's fields, read by name;
    ``parse`` matches one alternation of the looked-for lines against the
    body and builds the record from each spec line's first match with
    ``make``, whose ``ValueError`` becomes ``ParseError(name)``."""

    def __init__(self, name: str, make: Callable[..., Any], *lines: Line) -> None:
        self.name, self._make = name, make
        names: list[str] = []
        formats: list[str] = []
        alternatives: list[str] = []
        self._to_texts: list[tuple[int, Callable[[Any], str]]] = []
        # Each looked-for line, the group its alternative opens, and each
        # of its slots' name, group and converter from text.
        self._lines: list[tuple[Line, int, list[tuple[str, int, Callable[[str], Any] | None]]]] = []
        for line in lines:
            fmt, pattern, slots = _compile(line.template)
            if line.optional:  # written at the end of the line before it, or not at all
                formats[-1] += "%s"
                self._to_texts.append((len(names), partial(_optional_text, "\n" + fmt, slots[0][1].to_text)))
            else:
                formats.append(fmt)
                self._to_texts += [(len(names) + i, s.to_text) for i, (_, s) in enumerate(slots) if s.to_text]
            if line.field is not None:
                opens = 1 + sum(1 + len(read) for _, _, read in self._lines)
                alternatives.append(f"({pattern})")
                readers = [(slot_name, opens + 1 + i, slot.from_text) for i, (slot_name, slot) in enumerate(slots)]
                self._lines.append((line, opens, readers))
            names += [slot_name for slot_name, _ in slots]
        self._values = attrgetter(*names)
        self._format = "\n".join(formats)
        # A body line matches one alternative at most: each spec line starts
        # with its own label.
        self._regex = re.compile("^(?:" + "|".join(alternatives) + ")$", re.MULTILINE)

    def render(self, record: Any) -> str:
        values = list(self._values(record))
        for index, to_text in self._to_texts:
            values[index] = to_text(values[index])
        return self._format % tuple(values)

    def parse(self, text: str) -> Any:
        """The record ``text`` holds; ``ParseError`` names the first spec
        line missing or refused."""
        found: dict[int, re.Match[str]] = {}
        for match in self._regex.finditer(text):
            found.setdefault(match.lastindex, match)  # type: ignore[arg-type]
        values: dict[str, Any] = {}
        for line, group, readers in self._lines:
            match = found.get(group)
            if match is None:
                if not line.optional:
                    raise ParseError(line.field)  # type: ignore[arg-type]
                values[readers[0][0]] = line.default
                continue
            for slot_name, index, from_text in readers:
                try:
                    values[slot_name] = match[index] if from_text is None else from_text(match[index])
                except ValueError as exc:
                    raise ParseError(line.field, str(exc)) from None  # type: ignore[arg-type]
        try:
            return self._make(**values)
        except ValueError as exc:
            raise ParseError(self.name, str(exc)) from None


_CLINICAL_LINES = (
    Line(
        "presentation",
        "Presentation: {symptom_class} symptoms, {duration_weeks} weeks; limitation: {functional_limitation}.",
    ),
    Line("prior_management", "Prior management: {prior_tx}."),
    Line("proposed_treatment", "Proposed treatment: {proposed_treatment}."),
)
_INQUIRY = Message(
    "inquiry", CoverageInquiry,
    Line("patient_token", "Coverage inquiry for patient_token={patient_token}"),
    *_CLINICAL_LINES,
    Line(None, "Please advise coverage and any prerequisites."),
)
_CONSULT = Message(
    "consult", SpecialistConsult,
    Line("consultation_header", "Specialist consultation request."),
    *_CLINICAL_LINES,
    Line(None, "Please advise clinical appropriateness."),
)
_RECOMMENDATION = Message(
    "recommendation", Recommendation,
    Line("recommendation", "Recommendation: {verdict}."),
    Line("reasoning", "Reasoning: {reasoning}"),
    Line("next_steps", "Next steps: {next_steps}", optional=True),
    Line("source_doc", "(ref: {source_doc})"),
)
# Parsed to a dict of these fields by ``parse_verdict_fields``: a verdict
# carries the label of the recommendation, not the whole of it.
_VERDICT = Message(
    "verdict", dict,
    Line("coverage", "Coverage: {coverage}"),
    Line("outstanding", "Outstanding prerequisites: {outstanding}", optional=True, default=()),
    Line("appropriateness", "Clinical Appropriateness: {appropriateness}"),
    Line("summary", "Summary: {summary}"),
    Line("next_steps", "Next Steps: {next_steps}"),
)

render_inquiry = _INQUIRY.render
parse_inquiry = _INQUIRY.parse
render_consult = _CONSULT.render
parse_consult = _CONSULT.parse
render_recommendation = _RECOMMENDATION.render
parse_recommendation = _RECOMMENDATION.parse
parse_verdict_fields = _VERDICT.parse


def render_verdict(verdict: CoverageVerdict) -> str:
    return _VERDICT.render(SimpleNamespace(
        coverage=verdict.coverage, outstanding=verdict.prerequisites_outstanding,
        appropriateness=verdict.appropriateness.verdict, summary=verdict.summary, next_steps=verdict.next_steps,
    ))
