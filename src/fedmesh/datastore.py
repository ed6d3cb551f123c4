"""Node-local datastores.

CSV ingestion for the clinic and insurer tables, heading-anchored parsing of
the specialist guidance extracts, typed lookups, and the protected-value
index that feeds the outbound leak guard. Stores are immutable after load;
concurrent reads need no coordination.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from array import array
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError, RowError, SchemaError
from .pseudonym import CanonicalId, CaseToken, SecretSource, derive_token, load_secret, normalize_id

# Appendix-style null marker for empty prerequisite lists.
EMPTY_LIST_MARKER = "—"

OBSERVATION_COLUMNS = (
    "patient_id",
    "symptom_class",
    "duration_weeks",
    "functional_limitation",
    "prior_conservative_tx",
)
PATIENT_COLUMNS = ("patient_id", "full_name", "dob", "notes")
ENROLLMENT_COLUMNS = ("subject_token", "insurance_number", "plan_id", "status")
COVERAGE_RULE_COLUMNS = ("plan_id", "treatment_code", "covered", "prerequisites")


class SymptomClass(str, Enum):
    MILD = "mild"
    MODERATE = "moderate"
    SEVERE = "severe"


class EnrollmentStatus(str, Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"


# ---------------------------------------------------------------------------
# Raw tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    """One CSV file as loaded: header order and raw cell text preserved,
    with the source line each row starts on."""

    name: str
    header: tuple[str, ...]
    rows: tuple[Mapping[str, str], ...]
    lines: tuple[int, ...]

    def column(self, name: str) -> tuple[str, ...]:
        if name not in self.header:
            raise ConfigError(f"table {self.name!r} has no column {name!r}")
        return tuple(row[name] for row in self.rows)

    def to_csv(self) -> str:
        """Serialise back to CSV; reproduces the source modulo line endings."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([row[col] for col in self.header])
        return buf.getvalue()


def read_table(path: Path | str, name: str, required: Sequence[str]) -> Table:
    """Load a header-prefixed CSV file, checking the required columns."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(required[0], f"{path.name}: file has no header row") from None
        for col in required:
            if col not in header:
                raise SchemaError(col, f"{path.name}: missing column {col!r}")
        rows: list[dict[str, str]] = []
        lines: list[int] = []
        # A row starts on the line after the previous row ends; blank lines
        # come back as empty rows, so they are counted too.
        start = reader.line_num + 1
        for cells in reader:
            line, start = start, reader.line_num + 1
            if not cells:
                continue
            if len(cells) != len(header):
                raise RowError(line, f"{path.name}: expected {len(header)} cells, got {len(cells)}")
            rows.append(dict(zip(header, cells)))
            lines.append(line)
    return Table(name=name, header=tuple(header), rows=tuple(rows), lines=tuple(lines))


def _split_codes(cell: str) -> tuple[str, ...]:
    cell = cell.strip()
    if not cell or cell == EMPTY_LIST_MARKER:
        return ()
    return tuple(part.strip() for part in cell.split(";") if part.strip())


# ---------------------------------------------------------------------------
# Typed records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClinicalObservation:
    patient_id: CanonicalId
    symptom_class: SymptomClass
    duration_weeks: int
    functional_limitation: str
    prior_conservative_tx: tuple[str, ...]


@dataclass(frozen=True)
class EnrollmentRow:
    subject_token: CaseToken
    insurance_number: str
    plan_id: str
    status: EnrollmentStatus


@dataclass(frozen=True)
class CoverageRule:
    plan_id: str
    treatment_code: str
    covered: bool
    prerequisites: tuple[str, ...]


@dataclass(frozen=True)
class GuidanceDoc:
    doc_id: str
    severity_bands: Mapping[str, str]
    ladder: tuple[str, ...]
    red_flags: tuple[str, ...]


def _parse_observation(row: Mapping[str, str], line: int) -> ClinicalObservation:
    try:
        symptom = SymptomClass(row["symptom_class"].strip())
    except ValueError:
        raise RowError(line, "invalid symptom_class") from None
    try:
        weeks = int(row["duration_weeks"])
    except ValueError:
        raise RowError(line, "invalid duration_weeks") from None
    if weeks < 0:
        raise RowError(line, "duration_weeks must be non-negative")
    return ClinicalObservation(
        patient_id=normalize_id(row["patient_id"]),
        symptom_class=symptom,
        duration_weeks=weeks,
        functional_limitation=row["functional_limitation"].strip(),
        prior_conservative_tx=_split_codes(row["prior_conservative_tx"]),
    )


def _patient_id(row: Mapping[str, str], line: int) -> str:
    """Check a patient row's dob and return its canonical patient id."""
    try:
        dt.date.fromisoformat(row["dob"].strip())
    except ValueError:
        raise RowError(line, "invalid dob") from None
    return normalize_id(row["patient_id"]).value


def _parse_enrollment(row: Mapping[str, str], line: int) -> EnrollmentRow:
    try:
        token = CaseToken(row["subject_token"].strip())
    except ValueError as exc:
        raise RowError(line, f"invalid subject_token: {exc}") from None
    try:
        status = EnrollmentStatus(row["status"].strip())
    except ValueError:
        raise RowError(line, "invalid status") from None
    return EnrollmentRow(
        subject_token=token,
        insurance_number=row["insurance_number"].strip(),
        plan_id=row["plan_id"].strip(),
        status=status,
    )


def _parse_coverage_rule(row: Mapping[str, str], line: int) -> CoverageRule:
    covered_cell = row["covered"].strip().lower()
    if covered_cell not in ("yes", "no"):
        raise RowError(line, "covered must be yes or no")
    return CoverageRule(
        plan_id=row["plan_id"].strip(),
        treatment_code=row["treatment_code"].strip(),
        covered=covered_cell == "yes",
        prerequisites=_split_codes(row["prerequisites"]),
    )


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClinicStore:
    # Keyed by canonical patient id.
    observations: Mapping[str, ClinicalObservation]


@dataclass(frozen=True)
class InsurerStore:
    # Keyed by token hex, and by (plan_id, treatment_code).
    enrollment: Mapping[str, EnrollmentRow]
    rules: Mapping[tuple[str, str], CoverageRule]


def load_clinic_store(
    observations_path: Path | str, patients_path: Path | str
) -> tuple[ClinicStore, dict[str, Table]]:
    """Load both clinic tables; every observation must reference a patient.

    Returns the store and the raw tables, which only the protected index
    reads.
    """
    patients_table = read_table(patients_path, "patients", PATIENT_COLUMNS)
    obs_table = read_table(observations_path, "observations", OBSERVATION_COLUMNS)

    seen_ids: set[str] = set()
    for row, line in zip(patients_table.rows, patients_table.lines):
        patient_id = _patient_id(row, line)
        if patient_id in seen_ids:
            raise RowError(line, "duplicate patient_id")
        seen_ids.add(patient_id)

    observations: dict[str, ClinicalObservation] = {}
    for row, line in zip(obs_table.rows, obs_table.lines):
        obs = _parse_observation(row, line)
        if obs.patient_id.value in observations:
            raise RowError(line, "duplicate patient_id")
        if obs.patient_id.value not in seen_ids:
            raise RowError(line, "observation patient_id has no patient record")
        observations[obs.patient_id.value] = obs

    return ClinicStore(observations=observations), {
        "observations": obs_table,
        "patients": patients_table,
    }


def load_insurer_store(
    enrollment_path: Path | str, rules_path: Path | str
) -> tuple[InsurerStore, dict[str, Table]]:
    """Load both insurer tables; returns the store and the raw tables."""
    enrollment_table = read_table(enrollment_path, "enrollment", ENROLLMENT_COLUMNS)
    rules_table = read_table(rules_path, "coverage_rules", COVERAGE_RULE_COLUMNS)

    enrollment: dict[str, EnrollmentRow] = {}
    for row, line in zip(enrollment_table.rows, enrollment_table.lines):
        rec = _parse_enrollment(row, line)
        if rec.subject_token.hex in enrollment:
            raise RowError(line, "duplicate subject_token")
        enrollment[rec.subject_token.hex] = rec

    rules: dict[tuple[str, str], CoverageRule] = {}
    for row, line in zip(rules_table.rows, rules_table.lines):
        rule = _parse_coverage_rule(row, line)
        key = (rule.plan_id, rule.treatment_code)
        if key in rules:
            raise RowError(line, "duplicate rule for (plan_id, treatment_code)")
        rules[key] = rule

    return InsurerStore(enrollment=enrollment, rules=rules), {
        "enrollment": enrollment_table,
        "coverage_rules": rules_table,
    }


def lookup_observation(store: ClinicStore, cid: CanonicalId) -> ClinicalObservation | None:
    return store.observations.get(cid.value)


def match_enrollment(store: InsurerStore, token: CaseToken | str) -> EnrollmentRow | None:
    """Exact, case-sensitive match on the stored lowercase-hex token."""
    return store.enrollment.get(token.hex if isinstance(token, CaseToken) else token)


def coverage_rule(store: InsurerStore, plan_id: str, treatment_code: str) -> CoverageRule | None:
    """Unique rule for (plan, treatment); absent means not covered."""
    return store.rules.get((plan_id, treatment_code))


# ---------------------------------------------------------------------------
# Guidance extracts
# ---------------------------------------------------------------------------

_HEADING_RE = re.compile(r"^#+\s*(.+?)\s*$")
_BAND_ITEM_RE = re.compile(r"^-\s*([A-Za-z]+)\s*:\s*(.+?)\s*$")
_NUMBERED_ITEM_RE = re.compile(r"^\d+\.\s*(.+?)\s*$")
_BULLET_ITEM_RE = re.compile(r"^-\s*(.+?)\s*$")

GUIDANCE_HEADINGS = ("severity bands", "ladder", "red flags")


def _classify_heading(text: str) -> str | None:
    lowered = text.lower()
    for key in GUIDANCE_HEADINGS:
        if key in lowered:
            return key
    return None


def parse_guidance_text(doc_id: str, text: str) -> GuidanceDoc:
    """Heading-anchored extraction of bands, ladder steps, and red flags.

    Only the heading/list subset the fixtures use is understood; a file with
    no recognised section heading is rejected.
    """
    bands: dict[str, str] = {}
    ladder: list[str] = []
    red_flags: list[str] = []
    section: str | None = None
    recognised = False

    for line in text.split("\n"):
        heading = _HEADING_RE.match(line)
        if heading:
            section = _classify_heading(heading.group(1))
            recognised = recognised or section is not None
            continue
        if section == "severity bands":
            item = _BAND_ITEM_RE.match(line)
            if item:
                bands[item.group(1).lower()] = item.group(2)
        elif section == "ladder":
            item = _NUMBERED_ITEM_RE.match(line) or _BULLET_ITEM_RE.match(line)
            if item:
                ladder.append(item.group(1))
        elif section == "red flags":
            item = _BULLET_ITEM_RE.match(line)
            if item:
                red_flags.append(item.group(1))

    if not recognised:
        raise SchemaError(
            "|".join(GUIDANCE_HEADINGS),
            f"{doc_id}: no recognised guidance heading (expected one of {', '.join(GUIDANCE_HEADINGS)})",
        )
    return GuidanceDoc(
        doc_id=doc_id,
        severity_bands=bands,
        ladder=tuple(ladder),
        red_flags=tuple(red_flags),
    )


def load_guidance(dir_path: Path | str) -> list[GuidanceDoc]:
    """Parse every markdown file in the guidance directory, sorted by name."""
    docs: list[GuidanceDoc] = []
    for path in sorted(Path(dir_path).glob("*.md")):
        docs.append(parse_guidance_text(path.name, path.read_text(encoding="utf-8")))
    return docs


# ---------------------------------------------------------------------------
# Tool-facing text rendering
#
# Tool results are plain text by contract. These renderers and their parsing
# counterparts define the stable key-value format the deterministic policies
# rely on; they never leave the node.
# ---------------------------------------------------------------------------

NO_OBSERVATION = "no matching observation"
NO_ENROLLMENT = "no matching enrollment"
NO_COVERAGE_RULE = "no coverage rule"
NO_GUIDANCE = "no guidance found"


def render_observation_text(obs: ClinicalObservation) -> str:
    return "\n".join(
        [
            f"patient_id: {obs.patient_id.value}",
            f"symptom_class: {obs.symptom_class.value}",
            f"duration_weeks: {obs.duration_weeks}",
            f"functional_limitation: {obs.functional_limitation}",
            f"prior_conservative_tx: {';'.join(obs.prior_conservative_tx)}",
        ]
    )


def render_enrollment_text(row: EnrollmentRow) -> str:
    return "\n".join(
        [
            f"subject_token: {row.subject_token.hex}",
            f"insurance_number: {row.insurance_number}",
            f"plan_id: {row.plan_id}",
            f"status: {row.status.value}",
        ]
    )


def render_rule_text(rule: CoverageRule) -> str:
    return "\n".join(
        [
            f"plan_id: {rule.plan_id}",
            f"treatment_code: {rule.treatment_code}",
            f"covered: {'yes' if rule.covered else 'no'}",
            f"prerequisites: {';'.join(rule.prerequisites)}",
        ]
    )


def render_guidance_text(docs: Sequence[GuidanceDoc]) -> str:
    lines: list[str] = []
    for doc in docs:
        lines.append(f"doc: {doc.doc_id}")
        for band, description in doc.severity_bands.items():
            lines.append(f"band {band}: {description}")
        for step_no, step in enumerate(doc.ladder, start=1):
            lines.append(f"ladder {step_no}: {step}")
        for flag in doc.red_flags:
            lines.append(f"red_flag: {flag}")
    return "\n".join(lines)


def parse_kv_lines(text: str) -> dict[str, str]:
    """Parse ``key: value`` lines as produced by the row renderers."""
    values: dict[str, str] = {}
    for line in text.split("\n"):
        key, sep, value = line.partition(": ")
        if sep and key not in values:
            values[key] = value
    return values


def parse_guidance_result(text: str) -> list[GuidanceDoc]:
    """Reconstruct guidance documents from a guidance_search tool result."""
    docs: list[GuidanceDoc] = []
    doc_id: str | None = None
    bands: dict[str, str] = {}
    ladder: list[str] = []
    flags: list[str] = []

    def flush() -> None:
        nonlocal bands, ladder, flags
        if doc_id is not None:
            docs.append(GuidanceDoc(doc_id, dict(bands), tuple(ladder), tuple(flags)))
        bands, ladder, flags = {}, [], []

    for line in text.split("\n"):
        key, sep, value = line.partition(": ")
        if not sep:
            continue
        if key == "doc":
            flush()
            doc_id = value
        elif key.startswith("band "):
            bands[key[len("band "):]] = value
        elif key.startswith("ladder "):
            ladder.append(value)
        elif key == "red_flag":
            flags.append(value)
    flush()
    return docs


# ---------------------------------------------------------------------------
# Protected-value index
# ---------------------------------------------------------------------------


class MatchMode(str, Enum):
    EXACT = "exact"  # case-sensitive substring (ids, tokens, dates, codes)
    TEXT = "text"  # case-insensitive substring (human names)


@dataclass(frozen=True, slots=True)
class ProtectedValue:
    value: str
    source_column: str
    match: MatchMode = MatchMode.EXACT
    # Destination nodes where this value may legitimately appear. Empty
    # means the value must never leave the node.
    allowed_to: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ProtectedSpec:
    """One protected-column (or derived-value) declaration from node config."""

    store: str | None = None
    columns: tuple[str, ...] = ()
    derived: str | None = None
    secret: str | None = None
    column: str = "patient_id"
    match: MatchMode = MatchMode.EXACT
    allowed_to: frozenset[str] = frozenset()


# Needles of at least Q characters are found through their Q-grams.
Q = 8

# What entries share: (source column, match mode, allowed_to).
_Kind = tuple[str, MatchMode, frozenset[str]]


class ProtectedEntries(Sequence[ProtectedValue]):
    """The entries of an index, kept as parallel tables: each position's
    value and the id of its kind in a small table of kinds.

    Reads as a sequence of ``ProtectedValue``, made on access, and compares
    equal to the tuple of them.
    """

    __slots__ = ("_values", "_kind_ids", "_kinds")

    def __init__(
        self, values: tuple[str, ...], kind_ids: Sequence[int], kinds: tuple[_Kind, ...]
    ) -> None:
        self._values = values
        self._kind_ids = bytes(kind_ids) if len(kinds) <= 256 else array("L", kind_ids)
        self._kinds = kinds

    @classmethod
    def of(cls, entries: Iterable[ProtectedValue]) -> ProtectedEntries:
        values: list[str] = []
        kind_ids: list[int] = []
        kinds: dict[_Kind, int] = {}
        for entry in entries:
            values.append(entry.value)
            kind = (entry.source_column, entry.match, entry.allowed_to)
            kind_ids.append(kinds.setdefault(kind, len(kinds)))
        return cls(tuple(values), kind_ids, tuple(kinds))

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, pos):  # type: ignore[override]
        if isinstance(pos, slice):
            return tuple(self)[pos]
        return ProtectedValue(self._values[pos], *self._kinds[self._kind_ids[pos]])

    def __iter__(self) -> Iterator[ProtectedValue]:
        kinds = self._kinds
        for value, kind_id in zip(self._values, self._kind_ids):
            yield ProtectedValue(value, *kinds[kind_id])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ProtectedEntries):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ProtectedEntries({tuple(self)!r})"


# An entry position, or the positions of several entries.
_Positions = int | tuple[int, ...]


class _Group:
    """The needles of the entries that share one match mode and one
    ``allowed_to`` set.

    A needle is an entry's value (``exact``) or its casefolded value
    (``text``). Needles shorter than ``Q`` are bucketed by length, each
    mapped to the positions of the entries that share it. The position of
    each longer needle is filed under one of the needle's ``Q``-grams: the
    first one, from the needle's end, under which nothing is filed yet, or
    else the one with the fewest positions filed under it.
    """

    __slots__ = ("fold", "allowed_to", "short", "long", "grams")

    def __init__(self, match: MatchMode, allowed_to: frozenset[str]) -> None:
        self.fold = match is MatchMode.TEXT
        self.allowed_to = allowed_to
        self.short: dict[int, dict[str, _Positions]] = {}
        self.long: list[int] = []
        self.grams: dict[str, _Positions] = {}

    def add(self, needle: str, pos: int) -> None:
        if len(needle) >= Q:
            self.long.append(pos)
            self._file(needle, pos)
            return
        needles = self.short.setdefault(len(needle), {})
        shared = needles.get(needle)
        if shared is None:
            needles[needle] = pos
        else:
            needles[needle] = (shared if isinstance(shared, tuple) else (shared,)) + (pos,)

    def _file(self, needle: str, pos: int) -> None:
        grams = self.grams
        best, fewest = "", 0
        for start in range(len(needle) - Q, -1, -1):
            gram = needle[start:start + Q]
            filed = grams.get(gram)
            if filed is None:
                grams[gram] = pos
                return
            count = 1 if isinstance(filed, int) else len(filed)
            if not fewest or count < fewest:
                best, fewest = gram, count
        filed = grams[best]
        grams[best] = ((filed,) if isinstance(filed, int) else filed) + (pos,)

    def search(
        self, subject: str, windows: dict[int, set[str]], values: tuple[str, ...], hits: list[int]
    ) -> None:
        """Add the positions of every needle occurring in ``subject`` to
        ``hits``.

        Needles that outnumber ``subject``'s windows of their length (``Q``
        for long needles) are searched through those windows, which
        ``windows`` keeps for the other groups: a short needle by looking
        each window up, a long one by looking each ``Q``-gram up and
        testing the needles filed under it with ``in``. Other needles are
        each tested with ``in``.
        """
        size = len(subject)
        for length, needles in self.short.items():
            count = size - length + 1
            if count <= 0:
                continue
            if len(needles) > count:
                found: Iterable[str] = needles.keys() & _windows(subject, length, windows)
            else:
                found = [needle for needle in needles if needle in subject]
            for needle in found:
                pos = needles[needle]
                if isinstance(pos, tuple):
                    hits.extend(pos)
                else:
                    hits.append(pos)
        candidates: Sequence[int] = self.long
        if not candidates or size < Q:
            return
        if len(candidates) > size - Q + 1:
            grams = self.grams
            candidates = [
                pos
                for gram in grams.keys() & _windows(subject, Q, windows)
                for pos in ((grams[gram],) if isinstance(grams[gram], int) else grams[gram])
            ]
        if self.fold:
            hits += [pos for pos in candidates if values[pos].casefold() in subject]
        else:
            hits += [pos for pos in candidates if values[pos] in subject]


def _windows(subject: str, length: int, cache: dict[int, set[str]]) -> set[str]:
    found = cache.get(length)
    if found is None:
        found = cache[length] = {subject[i:i + length] for i in range(len(subject) - length + 1)}
    return found


@dataclass(frozen=True)
class ProtectedValueIndex:
    """A node's protected values, compiled for matching when constructed.

    ``entries`` may be given as any sequence of ``ProtectedValue``; it is
    kept as ``ProtectedEntries``. The entries are grouped by match mode and
    ``allowed_to`` set, so that a scan skips every group whitelisted for
    its destination before testing it. Within a group, needles shorter than
    ``Q`` are bucketed by length and longer ones are filed under one
    ``Q``-gram each (q-gram filtration). Text needles go by their folded
    form, since folding can lengthen a value (``ß`` -> ``ss``).
    """

    node_id: str
    entries: Sequence[ProtectedValue]
    _groups: tuple[_Group, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = self.entries
        if not isinstance(entries, ProtectedEntries):
            entries = ProtectedEntries.of(entries)
            object.__setattr__(self, "entries", entries)
        groups: dict[tuple[MatchMode, frozenset[str]], _Group] = {}
        group_of = [
            groups.setdefault((match, allowed_to), _Group(match, allowed_to))
            for _, match, allowed_to in entries._kinds
        ]
        for pos, (value, kind_id) in enumerate(zip(entries._values, entries._kind_ids)):
            group = group_of[kind_id]
            group.add(value.casefold() if group.fold else value, pos)
        object.__setattr__(self, "_groups", tuple(groups.values()))

    def values(self) -> set[str]:
        return set(self.entries._values)  # type: ignore[attr-defined]

    def find(self, body: str, to_node: str) -> list[int]:
        """Positions, ascending, of the entries not whitelisted for
        ``to_node`` whose needle occurs in ``body`` (exact needles) or in
        ``body.casefold()`` (text needles).

        The cost is bounded by the body's length, however many entries the
        index holds: for each of its short needle lengths, and for its long
        needles, a group costs at most one ``in`` test or one lookup per
        window of the body, plus an ``in`` test for each long needle filed
        under a gram the body contains. The windows are cut once per match
        mode.
        """
        hits: list[int] = []
        values = self.entries._values  # type: ignore[attr-defined]
        folded = None
        windows: dict[int, set[str]] = {}
        folded_windows: dict[int, set[str]] = {}
        for group in self._groups:
            if to_node in group.allowed_to:
                continue
            if not group.fold:
                group.search(body, windows, values, hits)
                continue
            if folded is None:
                folded = body.casefold()
            group.search(folded, folded_windows, values, hits)
        hits.sort()
        return hits


def protected_values(
    node_id: str,
    specs: Sequence[ProtectedSpec],
    tables: Mapping[str, Table],
    secrets: SecretSource | None = None,
) -> ProtectedValueIndex:
    """Materialise the protected-value index for a node.

    Every distinct cell of each declared column is indexed. A ``derived:
    case_tokens`` spec additionally indexes the case token of every
    identifier in the named column, so derived pseudonyms are confined to
    their whitelisted edge just like stored values. A value is indexed once
    per column, match mode and ``allowed_to`` set.
    """
    values: list[str] = []
    kind_ids: list[int] = []
    kinds: dict[_Kind, int] = {}
    seen: dict[int, set[str]] = {}

    def add(cells: Iterable[str], column: str, match: MatchMode, allowed_to: frozenset[str]) -> None:
        kind_id = kinds.setdefault((column, match, allowed_to), len(kinds))
        indexed = seen.setdefault(kind_id, set())
        for value in cells:
            value = value.strip()
            if value and value not in indexed:
                indexed.add(value)
                values.append(value)
                kind_ids.append(kind_id)

    for spec in specs:
        if spec.derived is None:
            if spec.store is None:
                raise ConfigError("protected entry needs either 'store' or 'derived'")
            table = tables.get(spec.store)
            if table is None:
                raise ConfigError(f"node {node_id!r}: protected entry names unknown store {spec.store!r}")
            for column in spec.columns:
                if column not in table.header:
                    raise ConfigError(
                        f"node {node_id!r}: protected column {column!r} not in store {spec.store!r}"
                    )
                add(table.column(column), column, spec.match, spec.allowed_to)
        elif spec.derived == "case_tokens":
            if secrets is None or spec.secret is None:
                raise ConfigError(f"node {node_id!r}: derived case_tokens entry needs a secret")
            store_name = spec.store or "patients"
            table = tables.get(store_name)
            if table is None:
                raise ConfigError(f"node {node_id!r}: derived entry names unknown store {store_name!r}")
            if spec.column not in table.header:
                raise ConfigError(
                    f"node {node_id!r}: derived column {spec.column!r} not in store {store_name!r}"
                )
            key = load_secret(spec.secret, secrets)
            tokens = (
                derive_token(key, normalize_id(cell)).hex
                for cell in table.column(spec.column)
                if cell.strip()
            )
            add(tokens, "case_token", MatchMode.EXACT, spec.allowed_to)
        else:
            raise ConfigError(f"unknown derived protected kind {spec.derived!r}")

    return ProtectedValueIndex(node_id, ProtectedEntries(tuple(values), kind_ids, tuple(kinds)))
