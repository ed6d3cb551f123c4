"""Node-local datastores.

CSV ingestion for the clinic and insurer tables, heading-anchored parsing of
the specialist guidance extracts, typed lookups, and the protected-value
index that feeds the outbound leak guard. Every row is validated when its
table loads, and the clinic and insurer stores keep each row as a tuple of
its validated, normalised cells; a lookup builds the typed record of the
one row it finds. A row must also obey the rules of the messages that carry
its cells (an observation's in the inquiry, a rule's codes in the verdict),
so that a row that loads can always be sent. Tools hand these records and
the guidance documents to the node's policies as they are, so stores and
records are immutable after load; concurrent reads need no coordination.
"""

from __future__ import annotations

import csv
import datetime as dt
import fnmatch
import os
import re
import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, compress, filterfalse, groupby
from operator import itemgetter, ne
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError, InvalidIdentifier, RowError, SchemaError, shown_name
from .pseudonym import CanonicalId, CaseToken, SecretKey, canonical_id, check_token_hex, token_hexes

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


# Cell text to member: a dict lookup per cell costs a tenth of Enum.__call__.
_SYMPTOM_CLASSES = {member.value: member for member in SymptomClass}
_STATUSES = {member.value: member for member in EnrollmentStatus}


# ---------------------------------------------------------------------------
# Raw tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    """One CSV file as loaded: header order and raw cell text preserved,
    each row as the tuple of its cells in header order, with the source
    line each row starts on. A clinic ``patients`` table that
    ``load_clinic_store`` checked also keeps each row's canonical
    ``patient_id``, so the case tokens need not canonicalise them again."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    lines: Sequence[int]
    canonical_ids: tuple[str, ...] | None = None

    def column(self, name: str) -> tuple[str, ...]:
        """The cells of a present column, in row order."""
        return tuple(map(itemgetter(self.header.index(name)), self.rows))

    def select(self, columns: Sequence[str]) -> Iterator[tuple[str, ...]]:
        """Each row's cells of two or more present ``columns``, in that order."""
        if tuple(columns) == self.header:
            return iter(self.rows)
        return map(itemgetter(*map(self.header.index, columns)), self.rows)


def read_table(path: Path | str, name: str, required: Sequence[str]) -> Table:
    """Load a header-prefixed CSV file whose header names the required
    columns, and no column twice.

    A UTF-8 byte-order mark, which spreadsheet tools write, is skipped.
    Bytes that are not UTF-8, and a row the CSV reader refuses (a cell
    longer than its field limit, say), raise ``RowError`` naming the line;
    its text quotes no cell.

    The file is read once, every row in C. Row k starts on the k-th line
    after the header when the reader read one line per row; otherwise a
    row takes one line and one more per line break (CR, LF or CRLF) in its
    quoted cells. Blank lines are dropped. The first error in file order
    is raised: a row whose width is not the header's, or else the
    reader's own failure."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(required[0], f"{path.name}: file has no header row")
            for col in required:
                if col not in header:
                    raise SchemaError(col, f"{path.name}: missing column {col!r}")
            if len(set(header)) < len(header):
                counts = Counter(header)
                col = next(col for col in header if counts[col] > 1)
                raise SchemaError(col, f"{path.name}: column {shown_name(col)!r} appears more than once")
            start = reader.line_num + 1
            rows: list[tuple[str, ...]] = []
            failure: Exception | None = None
            try:
                rows.extend(map(tuple, reader))
            except (csv.Error, UnicodeDecodeError) as exc:
                failure = exc  # the rows read before it are kept
            lines: Sequence[int] = range(start, reader.line_num + 1)
            if len(lines) != len(rows):
                breaks = map(_line_breaks, map(",".join, rows[:-1]))  # a comma keeps one cell's CR from the next one's LF
                lines = list(accumulate(breaks, lambda line, n: line + 1 + n, initial=start))
            widths = set(map(len, rows))
            if not widths <= {len(header), 0}:
                k = next(k for k, row in enumerate(rows) if len(row) not in (len(header), 0))
                raise RowError(lines[k], f"{path.name}: expected {len(header)} cells, got {len(rows[k])}")
            if failure is not None:
                raise failure
            if 0 in widths:  # a blank line, which took one line too, is skipped
                lines = list(compress(lines, rows))
                rows = list(filter(None, rows))
        except UnicodeDecodeError:
            # The file is decoded a block at a time, ahead of the reader's
            # line count, so the line of the first bad byte is found anew.
            raise _invalid_utf8(path) from None
        except csv.Error as exc:
            raise RowError(reader.line_num, f"{path.name}: {exc}") from None
    return Table(name=name, header=tuple(header), rows=tuple(rows), lines=lines)


def _line_breaks(text: str) -> int:
    """The line breaks in ``text`` as ``open(newline="")`` splits lines: CR, LF or CRLF."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _invalid_utf8(path: Path) -> RowError:
    """The error for a file that is not UTF-8, at the line of its first bad byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return RowError(_line_breaks(data.decode("utf-8")) + 1, f"{path.name}: invalid UTF-8")


# A treatment code, as the messages carry it: a letter, then letters, digits
# or underscores.
TREATMENT_CODE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def check_treatment_code(code: str, what: str) -> None:
    """Raise ``ValueError`` unless ``code`` is a treatment code; ``none``
    is not one, since the messages write it for an empty list."""
    if not TREATMENT_CODE_RE.fullmatch(code):
        raise ValueError(f"{what} {code!r} is not a valid code")
    if code == "none":
        raise ValueError(f"{what} must not be the literal 'none'")


def _split_codes(cell: str) -> tuple[str, ...]:
    cell = cell.strip()
    if not cell or cell == EMPTY_LIST_MARKER:
        return ()
    return tuple(filter(None, map(str.strip, cell.split(";"))))


def _codes(cell: str, column: str, line: int) -> tuple[str, ...]:
    """A cell's treatment codes; ``RowError`` names ``column`` if one is not a code."""
    codes = _split_codes(cell)
    try:
        for code in codes:
            check_treatment_code(code, column)
    except ValueError:
        raise RowError(line, f"invalid {column}: expected treatment codes") from None
    return codes


def _one_line(cell: str, column: str, line: int) -> str:
    """A cell stripped; ``RowError`` names ``column`` if it spans two lines."""
    cell = cell.strip()
    if "\n" in cell or "\r" in cell:
        raise RowError(line, f"invalid {column}: expected one line")
    return cell


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


def _patient_id(cell: str, line: int) -> str:
    """The canonical form of a ``patient_id`` cell."""
    try:
        return canonical_id(cell)
    except InvalidIdentifier:
        raise RowError(line, "blank patient_id") from None


# Each parser takes a row's cells of its table's required columns, in the
# order of that table's *_COLUMNS. The clinic and enrolment parsers return
# the row's key and the rest of its cells as the store keeps them.

# An observation row after its patient id: symptom_class, duration_weeks,
# functional_limitation, prior_conservative_tx.
_ObservationCells = tuple[SymptomClass, int, str, tuple[str, ...]]
# An enrolment row after its subject token: insurance_number, plan_id, status.
_EnrollmentCells = tuple[str, str, EnrollmentStatus]


def _parse_observation(
    cells: tuple[str, ...], line: int, steps_of: dict[str, tuple[str, ...]], patient_ids: Mapping[str, str]
) -> tuple[str, _ObservationCells]:
    """``steps_of`` holds each ``prior_conservative_tx`` cell checked so far
    in this load, with its codes: a cell is checked at its first row only.
    ``patient_ids`` maps each canonical patient id to itself. A
    ``patient_id`` cell equal to one is its own canonical form, since
    ``canonical_id`` maps its every result to itself, so only another cell
    is canonicalised. The id returned is that mapped string, not the cell:
    a kept cell would pin the memory of its freed row."""
    patient_id, symptom_class, duration_weeks, functional_limitation, prior_tx = cells
    symptom = _SYMPTOM_CLASSES.get(symptom_class.strip())
    if symptom is None:
        raise RowError(line, "invalid symptom_class")
    digits = duration_weeks.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise RowError(line, "invalid duration_weeks: expected ASCII digits")
    try:
        weeks = int(digits)
    except ValueError:  # more digits than int() takes
        raise RowError(line, "invalid duration_weeks: number too long") from None
    limitation = functional_limitation.strip()
    if not limitation or "\n" in limitation or "\r" in limitation:
        raise RowError(line, "invalid functional_limitation: expected one non-empty line")
    steps = steps_of.get(prior_tx)
    if steps is None:
        steps = steps_of[prior_tx] = _codes(prior_tx, "prior_conservative_tx", line)
    canonical = patient_ids.get(patient_id)
    if canonical is None:
        canonical = _patient_id(patient_id, line)
    return canonical, (symptom, weeks, limitation, steps)


def _parse_patient(cells: tuple[str, ...], line: int) -> str:
    """Check a patient row's dob and return its canonical patient id."""
    patient_id, _, dob, _ = cells
    try:
        dt.date.fromisoformat(dob.strip())
    except ValueError:
        raise RowError(line, "invalid dob") from None
    return _patient_id(patient_id, line)


def _parse_enrollment(cells: tuple[str, ...], line: int) -> tuple[str, _EnrollmentCells]:
    subject_token, insurance_number, plan_id, status_cell = cells
    try:
        token = check_token_hex(subject_token.strip())
    except ValueError as exc:
        raise RowError(line, f"invalid subject_token: {exc}") from None
    status = _STATUSES.get(status_cell.strip())
    if status is None:
        raise RowError(line, "invalid status")
    return token, (
        _one_line(insurance_number, "insurance_number", line),
        _one_line(plan_id, "plan_id", line),
        status,
    )


def _parse_coverage_rule(cells: tuple[str, ...], line: int) -> CoverageRule:
    plan_id, treatment_code, covered, prerequisites = cells
    covered_cell = covered.strip().lower()
    if covered_cell not in ("yes", "no"):
        raise RowError(line, "covered must be yes or no")
    treatment = treatment_code.strip()
    try:
        check_treatment_code(treatment, "treatment_code")
    except ValueError:
        raise RowError(line, "invalid treatment_code: expected a treatment code") from None
    return CoverageRule(
        plan_id=_one_line(plan_id, "plan_id", line),
        treatment_code=treatment,
        covered=covered_cell == "yes",
        prerequisites=_codes(prerequisites, "prerequisites", line),
    )


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClinicStore:
    # Each observation row's validated cells after its patient id, keyed by
    # canonical patient id; lookup_observation builds the record.
    observations: Mapping[str, _ObservationCells]


@dataclass(frozen=True)
class InsurerStore:
    # Each enrolment row's validated cells after its token, keyed by token
    # hex; match_enrollment builds the record. Coverage rules, a handful
    # per plan, are kept as records keyed by (plan_id, treatment_code).
    enrollment: Mapping[str, _EnrollmentCells]
    rules: Mapping[tuple[str, str], CoverageRule]


def load_clinic_store(
    observations_path: Path | str, patients_path: Path | str
) -> tuple[ClinicStore, dict[str, Table]]:
    """Load both clinic tables; every observation must reference a patient.

    Returns the store and the raw tables, which only the protected index
    reads. The patients table keeps its canonical ids, so each patient id
    is canonicalised once per load.
    """
    patients_table = read_table(patients_path, "patients", PATIENT_COLUMNS)
    obs_table = read_table(observations_path, "observations", OBSERVATION_COLUMNS)

    seen_ids: dict[str, str] = {}
    for cells, line in zip(patients_table.select(PATIENT_COLUMNS), patients_table.lines):
        patient_id = _parse_patient(cells, line)
        if patient_id in seen_ids:
            raise RowError(line, "duplicate patient_id")
        seen_ids[patient_id] = patient_id

    observations: dict[str, _ObservationCells] = {}
    steps_of: dict[str, tuple[str, ...]] = {}
    for cells, line in zip(obs_table.select(OBSERVATION_COLUMNS), obs_table.lines):
        patient_id, row = _parse_observation(cells, line, steps_of, seen_ids)
        if patient_id in observations:
            raise RowError(line, "duplicate patient_id")
        if patient_id not in seen_ids:
            raise RowError(line, "observation patient_id has no patient record")
        observations[patient_id] = row

    return ClinicStore(observations=observations), {
        "observations": obs_table,
        "patients": Table(
            "patients", patients_table.header, patients_table.rows, patients_table.lines, tuple(seen_ids)
        ),
    }


def load_insurer_store(
    enrollment_path: Path | str, rules_path: Path | str
) -> tuple[InsurerStore, dict[str, Table]]:
    """Load both insurer tables; returns the store and the raw tables."""
    enrollment_table = read_table(enrollment_path, "enrollment", ENROLLMENT_COLUMNS)
    rules_table = read_table(rules_path, "coverage_rules", COVERAGE_RULE_COLUMNS)

    enrollment: dict[str, _EnrollmentCells] = {}
    for cells, line in zip(enrollment_table.select(ENROLLMENT_COLUMNS), enrollment_table.lines):
        token, row = _parse_enrollment(cells, line)
        if token in enrollment:
            raise RowError(line, "duplicate subject_token")
        enrollment[token] = row

    rules: dict[tuple[str, str], CoverageRule] = {}
    for cells, line in zip(rules_table.select(COVERAGE_RULE_COLUMNS), rules_table.lines):
        rule = _parse_coverage_rule(cells, line)
        key = (rule.plan_id, rule.treatment_code)
        if key in rules:
            raise RowError(line, "duplicate rule for (plan_id, treatment_code)")
        rules[key] = rule

    return InsurerStore(enrollment=enrollment, rules=rules), {
        "enrollment": enrollment_table,
        "coverage_rules": rules_table,
    }


def lookup_observation(store: ClinicStore, cid: CanonicalId) -> ClinicalObservation | None:
    row = store.observations.get(cid.value)
    return None if row is None else ClinicalObservation(cid, *row)


def match_enrollment(store: InsurerStore, token: CaseToken | str) -> EnrollmentRow | None:
    """Exact, case-sensitive match on the stored lowercase-hex token."""
    key = token.hex if isinstance(token, CaseToken) else token
    row = store.enrollment.get(key)
    return None if row is None else EnrollmentRow(CaseToken(key), *row)


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
        severity_bands=MappingProxyType(bands),
        ladder=tuple(ladder),
        red_flags=tuple(red_flags),
    )


def load_guidance(dir_path: Path | str) -> list[GuidanceDoc]:
    """Parse every markdown file in the guidance directory, sorted by name.
    A path that is not a directory raises ``OSError``, as a missing table
    file does; an extract that is not UTF-8, ``RowError`` at its first bad byte."""
    docs: list[GuidanceDoc] = []
    for name in sorted(fnmatch.filter(os.listdir(dir_path), "*.md")):
        path = Path(dir_path, name)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise _invalid_utf8(path) from None
        docs.append(parse_guidance_text(name, text))
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
    """One protected-column (or derived-value) declaration from node config,
    which ``fedmesh.config`` checked as it loaded. A derived entry's store
    is the clinic's ``patients`` table."""

    store: str
    columns: tuple[str, ...] = ()
    derived: str | None = None  # "case_tokens", the one derived kind
    match: MatchMode = MatchMode.EXACT
    allowed_to: frozenset[str] = frozenset()


# Needles of at least Q characters are found through their grams: Q-byte
# windows of their casefolded UTF-8, each read as one native unsigned 64-bit
# integer, the item of a memoryview cast to "Q".
Q = 8
_GRAM = struct.Struct("Q")

# What ProtectedValueIndex.find's two ways of testing a table cost, in the
# characters one `in` test scans in the same time (about 0.45 ns each on
# x86_64, CPython 3.11): a window looked up, a slice in a set or a gram in a
# cast (44-190 ns), and an entry's `in` test apart from its scan (~100 ns).
_WINDOW_COST = 256
_TEST_COST = 256

# An index is built this many entries at a time: each step over a slice
# runs in C, and the slice bounds the memory its lists take.
_BUILD_SLICE = 1024

# What entries share: (source column, match mode, allowed_to).
_Kind = tuple[str, MatchMode, frozenset[str]]


class ProtectedEntries(Sequence[ProtectedValue]):
    """The entries of an index, kept as parallel tables: the values as one
    UTF-8 buffer (``surrogatepass``, as ``_utf8`` encodes) cut by an array
    of offsets, and each position's kind as its id in a small table of
    kinds. The values at ``str_positions`` are also kept as ``str``, since
    ``ProtectedValueIndex.find`` may test them entry by entry; any other
    value is decoded when it is read.

    Reads as a sequence of ``ProtectedValue``, made on access, and compares
    equal to the tuple of them.
    """

    __slots__ = ("_buffer", "_offsets", "_strs", "_kind_ids", "_kinds")

    def __init__(
        self,
        values: Sequence[str],
        kind_ids: Sequence[int],
        kinds: tuple[_Kind, ...],
        str_positions: Iterable[int] = (),
    ) -> None:
        text = "".join(values)
        self._buffer = _utf8(text)
        # Byte lengths are character lengths when every value is ASCII.
        lengths = map(len, values if len(self._buffer) == len(text) else map(_utf8, values))
        self._offsets = array("I" if len(self._buffer) <= 0xFFFFFFFF else "Q", accumulate(lengths, initial=0))
        self._strs = {pos: values[pos] for pos in str_positions}
        self._kind_ids = bytes(kind_ids) if len(kinds) <= 256 else array("L", kind_ids)
        self._kinds = kinds

    def value(self, pos: int) -> str:
        """The value at ``pos``."""
        value = self._strs.get(pos)
        if value is None:
            value = self._buffer[self._offsets[pos]:self._offsets[pos + 1]].decode("utf-8", "surrogatepass")
        return value

    def __len__(self) -> int:
        return len(self._kind_ids)

    def __getitem__(self, pos):  # type: ignore[override]
        if isinstance(pos, slice):
            return tuple(self)[pos]
        pos = range(len(self))[pos]  # negative positions, and IndexError
        return ProtectedValue(self.value(pos), *self._kinds[self._kind_ids[pos]])

    def __iter__(self) -> Iterator[ProtectedValue]:
        kinds = self._kinds
        for pos, kind_id in enumerate(self._kind_ids):
            yield ProtectedValue(self.value(pos), *kinds[kind_id])

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


def _utf8(text: str) -> bytes:
    # "surrogatepass" keeps the encoding total and character by character:
    # a body decoded from JSON may hold lone surrogates.
    return text.encode("utf-8", "surrogatepass")


def _file(grams: dict[int, _Positions], raw: bytes, pos: int) -> None:
    """File ``pos`` under a gram of ``raw`` by the rule ``ProtectedValueIndex`` states."""
    best, fewest = 0, 0
    for start in range(len(raw) - Q, -1, -1):
        (gram,) = _GRAM.unpack_from(raw, start)
        filed = grams.get(gram)
        if filed is None:
            grams[gram] = pos
            return
        count = 1 if isinstance(filed, int) else len(filed)
        if not fewest or count < fewest:
            best, fewest = gram, count
    filed = grams[best]
    grams[best] = ((filed,) if isinstance(filed, int) else filed) + (pos,)


# The table of one needle width: the width; its keys (short needles
# themselves, or grams), each mapped to the positions filed under it; the
# positions of each kind, ascending; and how many positions it holds.
_Table = tuple[int, dict[str | int, _Positions], dict[int, list[int]], int]


@dataclass(frozen=True)
class ProtectedValueIndex:
    """A node's protected values, compiled for matching when constructed.

    ``entries`` may be given as any sequence of ``ProtectedValue``; it is
    kept as ``ProtectedEntries``, which holds the values as one UTF-8
    buffer. Each entry is filed by its casefolded value, whatever its
    match mode, in the table of that value's width: a
    value shorter than ``Q`` under itself, a longer one in the gram table
    (q-gram filtration) under one of its grams, a ``Q``-byte substring of
    its UTF-8 read as a native-order 64-bit integer: the first, from the
    value's end, under which nothing is filed yet, or else the one with
    the fewest positions filed under it. Each table also keeps its
    positions by kind. Folding goes character by character, so a value
    that occurs in a body has its folded form, and so each of its grams,
    in the folded body.
    """

    node_id: str
    entries: Sequence[ProtectedValue]
    _tables: tuple[_Table, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values: list[str] = []
        kind_ids: list[int] = []
        kinds: dict[_Kind, int] = {}
        for entry in self.entries:
            values.append(entry.value)
            kind = (entry.source_column, entry.match, entry.allowed_to)
            kind_ids.append(kinds.setdefault(kind, len(kinds)))
        self._build(values, kind_ids, tuple(kinds))

    @classmethod
    def _of(
        cls, node_id: str, values: list[str], kind_ids: list[int], kinds: tuple[_Kind, ...]
    ) -> ProtectedValueIndex:
        """The index of the entries whose values, kind ids and kinds are
        given as parallel columns, built without a ``ProtectedValue`` each."""
        index = cls.__new__(cls)
        object.__setattr__(index, "node_id", node_id)
        index._build(values, kind_ids, kinds)
        return index

    def _build(self, values: list[str], kind_ids: list[int], kinds: tuple[_Kind, ...]) -> None:
        """File the values, held as ``str`` while the tables are built,
        then keep them as ``ProtectedEntries``."""
        tables: dict[int, tuple[dict[str | int, _Positions], dict[int, list[int]]]] = {}
        for start in range(0, len(values), _BUILD_SLICE):
            stop = min(start + _BUILD_SLICE, len(values))
            folded = list(map(str.casefold, values[start:stop]))
            lengths = list(map(len, folded))
            # The positions stay ints of a list, shared by the gram table and
            # by_kind: a range would make each of them an int of its own.
            if min(lengths) >= Q:  # no short value, as in most slices
                longs, long_folded = list(range(start, stop)), folded
            else:
                for pos, value in compress(zip(range(start, stop), folded), map(Q.__gt__, lengths)):
                    kind_id = kind_ids[pos]
                    # get() first: a setdefault() default per entry is garbage that
                    # sets the cyclic collector going over the whole heap.
                    filed, by_kind = tables.get(len(value)) or tables.setdefault(len(value), ({}, {}))
                    (by_kind.get(kind_id) or by_kind.setdefault(kind_id, [])).append(pos)
                    shared = filed.get(value)
                    filed[value] = pos if shared is None else (
                        (shared if isinstance(shared, tuple) else (shared,)) + (pos,)
                    )
                longs = list(compress(range(start, stop), map(Q.__le__, lengths)))
                if not longs:
                    continue
                long_folded = compress(folded, map(Q.__le__, lengths))
            # A value's last gram is the end of its last Q characters' UTF-8,
            # which is all of it when they are ASCII, as they mostly are.
            tails = list(map(itemgetter(slice(-Q, None)), long_folded))
            raw = _utf8("".join(tails))
            if len(raw) != Q * len(tails):
                raw = b"".join([_utf8(tail)[-Q:] for tail in tails])
            grams, by_kind = tables.get(Q) or tables.setdefault(Q, ({}, {}))
            # Most values take their last gram, in C; one that finds it taken
            # is filed in turn, before the next value is offered its own.
            taken = map(ne, map(grams.setdefault, memoryview(raw).cast("Q"), longs), longs)
            for pos in compress(longs, taken):
                _file(grams, _utf8(values[pos].casefold()), pos)
            for kind_id, run in groupby(longs, kind_ids.__getitem__):
                (by_kind.get(kind_id) or by_kind.setdefault(kind_id, [])).extend(run)
        built = tuple(
            (width, filed, by_kind, sum(map(len, by_kind.values())))
            for width, (filed, by_kind) in tables.items()
        )
        object.__setattr__(self, "_tables", built)
        # Only a table of fewer than _WINDOW_COST positions can be tested
        # entry by entry (see find), so only its values are kept as str.
        str_positions = (
            pos for _, _, by_kind, size in built if size < _WINDOW_COST for run in by_kind.values() for pos in run
        )
        object.__setattr__(self, "entries", ProtectedEntries(values, kind_ids, kinds, str_positions))

    def find(self, bodies: Sequence[str], to_node: str) -> dict[int, list[int]]:
        """The positions, ascending, of the entries not whitelisted for
        ``to_node`` whose value occurs in a body (``exact``) or whose
        casefolded value occurs in its casefolded form (``text``), keyed by
        the body's index in ``bodies``; a body that holds none is left out.

        The bodies, joined by newlines into one text, serve only the index's
        filtration pass: it finds the entries the text holds at a cost
        bounded by the text's length, however many entries the index holds.
        Each table is tested the cheaper of two ways on that text, as
        ``_WINDOW_COST`` and ``_TEST_COST`` price them. Testing each of its
        positions with ``in`` costs the positions times the text's length.
        Looking each window up costs about one step a window: string slices
        for short widths, and for the gram table the folded text's UTF-8
        read in C as 64-bit integers through ``memoryview`` casts at each
        byte offset below ``Q``; each entry filed under a key found there is
        checked against its own whitelist and match mode, its value decoded
        from the entries' buffer only if it is not whitelisted. The
        per-entry way tests only the kinds not whitelisted for ``to_node``,
        and reads the values the entries keep as ``str``: since the window
        count is below the text's length, it is the cheaper way only for a
        table of fewer than ``_WINDOW_COST`` positions. Every entry found is
        then placed by testing each body on its own, a ``text`` entry
        against the casefolded bodies (built once), so no match spans two
        bodies; a batch of one needs no placing.
        """
        text = "\n".join(bodies)  # a single body is not copied
        folded = text.casefold()
        present: list[int] = []  # positions whose value the text holds
        entries = self.entries
        strs, kind_ids, kinds = entries._strs, entries._kind_ids, entries._kinds  # type: ignore[attr-defined]
        value = entries.value  # type: ignore[attr-defined]
        for width, filed, by_kind, size in self._tables:
            windows = len(folded) - width + 1
            if windows <= 0:
                continue
            if windows * _WINDOW_COST < size * (len(folded) + _TEST_COST):
                if width < Q:
                    found: set[str | int] = filed.keys() & {folded[i:i + width] for i in range(windows)}
                else:
                    raw = memoryview(_utf8(folded))
                    found = set()
                    for offset in range(Q):
                        found |= filed.keys() & raw[offset:offset + (len(raw) - offset) // Q * Q].cast("Q")
                for key in found:
                    shared = filed[key]
                    for pos in (shared,) if isinstance(shared, int) else shared:
                        _, match, allowed_to = kinds[kind_ids[pos]]
                        if to_node not in allowed_to and (
                            value(pos).casefold() in folded if match is MatchMode.TEXT else value(pos) in text
                        ):
                            present.append(pos)
                continue
            for kind_id, positions in by_kind.items():
                _, match, allowed_to = kinds[kind_id]
                if to_node not in allowed_to:
                    fold = match is MatchMode.TEXT
                    for pos in positions:
                        if strs[pos].casefold() in folded if fold else strs[pos] in text:
                            present.append(pos)
        if not present:
            return {}
        present.sort()
        if len(bodies) == 1:
            return {0: present}
        # Place each value in the bodies that hold it, testing each on its own.
        folded_bodies: list[str] | None = None
        hits: dict[int, list[int]] = {}
        for pos in present:
            if kinds[kind_ids[pos]][1] is MatchMode.TEXT:
                folded_bodies = folded_bodies or list(map(str.casefold, bodies))
                needle, haystacks = value(pos).casefold(), folded_bodies
            else:
                needle, haystacks = value(pos), bodies
            for body, haystack in enumerate(haystacks):
                if needle in haystack:
                    hits.setdefault(body, []).append(pos)
        return hits


def protected_values(
    node_id: str,
    specs: Sequence[ProtectedSpec],
    tables: Mapping[str, Table] | Iterable[tuple[str, Table]],
    key: SecretKey | None = None,
) -> ProtectedValueIndex:
    """Materialise the protected-value index for a node.

    Every distinct cell of each declared column is indexed. A ``derived:
    case_tokens`` spec additionally indexes the case token, under ``key``,
    of every ``patient_id`` of its store, so derived pseudonyms are
    confined to their whitelisted edge just like stored values. A value is
    indexed once per column, match mode and ``allowed_to`` set.

    ``tables`` maps store names to raw tables, or is an iterator of
    ``(name, table)`` pairs; either way it is read into a dict of this
    call's own, and nothing given is mutated. That dict and every other
    load-time transient are released before the gram tables are built, so
    tables that only a one-shot iterator held (as ``load_stores`` hands
    them over) are freed by then.
    """
    values, kind_ids, kinds = _protected_columns(node_id, specs, dict(tables), key)
    return ProtectedValueIndex._of(node_id, values, kind_ids, kinds)


def _protected_columns(
    node_id: str, specs: Sequence[ProtectedSpec], tables: dict[str, Table], key: SecretKey | None
) -> tuple[list[str], list[int], tuple[_Kind, ...]]:
    """The values, kind ids and kinds of ``protected_values``' entries."""
    values: list[str] = []
    kind_ids: list[int] = []
    kinds: dict[_Kind, int] = {}
    seen: dict[int, dict[str, None]] = {}  # each kind's values so far

    def add(cells: Iterable[str], column: str, match: MatchMode, allowed_to: frozenset[str]) -> None:
        kind_id = kinds.setdefault((column, match, allowed_to), len(kinds))
        fresh = dict.fromkeys(map(str.strip, cells))
        fresh.pop("", None)
        indexed = seen.get(kind_id)
        if indexed is None:  # a kind's first column: every value is new
            seen[kind_id] = fresh
            new = list(fresh)
        else:
            new = list(filterfalse(indexed.__contains__, fresh))
            indexed.update(dict.fromkeys(new))
        values.extend(new)
        kind_ids.extend([kind_id] * len(new))

    for spec in specs:
        table = tables.get(spec.store)
        if table is None:
            raise ConfigError(f"node {node_id!r}: protected entry names unknown store {spec.store!r}")
        for column in spec.columns if spec.derived is None else ("patient_id",):
            if column not in table.header:
                raise ConfigError(
                    f"node {node_id!r}: protected column {column!r} not in store {spec.store!r}"
                )
            if spec.derived is None:
                add(table.column(column), column, spec.match, spec.allowed_to)
            else:
                ids: Iterable[str] | None = table.canonical_ids
                if ids is None:
                    ids = map(canonical_id, filter(str.strip, table.column(column)))
                # Equal ids have equal tokens, so each distinct id is hashed once.
                add(token_hexes(key, dict.fromkeys(ids)), "case_token", MatchMode.EXACT, spec.allowed_to)  # type: ignore[arg-type]

    return values, kind_ids, tuple(kinds)
