"""Data-locality enforcement and audit.

One function, ``scan_bodies``, holds the locality rules: a message must
ride a declared edge, carry no protected value of its sender, carry no
64-hex substring toward a token-free node, and carry no raw patient
identifier on any edge. It checks a batch of bodies sent on one edge, each
on its own: no match spans two bodies. Two layers apply it:

- The relay's runtime guard applies it, as ``scan_outbound``, to a batch
  of one: every request before any bytes leave the node, and every reply
  before it is answered. It fails closed.
- ``check_trace`` is the offline auditor. It applies it to every envelope
  of a full run's trace, an edge's distinct bodies in bounded batches, so
  guard bypasses are still caught after the fact. A body repeated on an
  edge is scanned once: its findings depend on the edge and the body
  alone.

Trace files are JSON lines with fields exactly
``{run_id, seq, from, to, operation_id, conversation_id, body}``.
"""

from __future__ import annotations

import json
import json.scanner
import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .datastore import ProtectedValueIndex
from .errors import TraceFormatError

HEX64_RE = re.compile(r"[0-9a-fA-F]{64}")

# A raw clinic patient identifier, in any letter case.
PATIENT_ID_RE = re.compile(r"\bCLN-\d{4}\b", re.IGNORECASE)
# What every PATIENT_ID_RE match holds. It starts with a literal, which the
# regex engine skips to, so it spares most bodies the slower case-blind
# search.
PATIENT_ID_PRETEST = re.compile(r"-\d{4}")


# check_trace scans an edge's distinct bodies, each once however many
# envelopes carry it, in batches of at most this many characters: enough to
# pay each rule's per-scan cost once for dozens of bodies, and a bound on
# the memory a batch's joined text takes. Audits of 10k and fixture traces
# ran as fast with 16 Ki as with 4-128 Ki (timeit), and a batch's texts, at
# most 64 KiB each at four bytes a character, stay below glibc's default
# 128 KiB mmap threshold.
AUDIT_BATCH_CHARS = 1 << 14

_TRACE_FIELDS = ("run_id", "seq", "from", "to", "operation_id", "conversation_id", "body")
_TRACE_KEYS = frozenset(_TRACE_FIELDS)
_TEXT_FIELDS = ("from", "to", "operation_id", "conversation_id", "body")

# json.dumps(obj, ensure_ascii=False) would build an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False).encode
# The C scanner json.loads runs inside its Python layers: called at index
# 0, it reads one JSON value and returns it with the index after it.
_scan = json.scanner.make_scanner(json.JSONDecoder())


@dataclass(frozen=True, init=False)
class MessageEnvelope:
    """One cross-node message; the only thing that crosses node boundaries."""

    from_node: str
    to_node: str
    operation_id: str
    conversation_id: str
    body: str
    sent_at: int

    def __init__(
        self, from_node: str, to_node: str, operation_id: str, conversation_id: str, body: str, sent_at: int
    ) -> None:
        if not body:
            raise ValueError("envelope body must be non-empty")
        if from_node == to_node:
            raise ValueError("envelope endpoints must differ")
        if sent_at < 1:
            raise ValueError("sequence numbers start at 1")
        # Frozen: the fields are set once, here, past the dataclass's
        # refusing __setattr__ (six object.__setattr__ calls would cost more
        # than the rest of the envelope).
        fields = self.__dict__
        fields["from_node"] = from_node
        fields["to_node"] = to_node
        fields["operation_id"] = operation_id
        fields["conversation_id"] = conversation_id
        fields["body"] = body
        fields["sent_at"] = sent_at


class TraceLog:
    """Append-only, ordered record of every envelope exchanged in a run.

    Appends are serialised; one TraceLog is shared by all nodes of a run.
    """

    def __init__(self, run_id: str, envelopes: Iterable[MessageEnvelope] = ()) -> None:
        self.run_id = run_id
        self.envelopes: list[MessageEnvelope] = list(envelopes)
        self._lock = threading.Lock()

    def append(
        self,
        *,
        from_node: str,
        to_node: str,
        operation_id: str,
        conversation_id: str,
        body: str,
    ) -> MessageEnvelope:
        with self._lock:
            env = MessageEnvelope(
                from_node, to_node, operation_id, conversation_id, body, len(self.envelopes) + 1
            )
            self.envelopes.append(env)
            return env

    def to_jsonl(self) -> str:
        lines = [
            _encode(
                {
                    "run_id": self.run_id,
                    "seq": env.sent_at,
                    "from": env.from_node,
                    "to": env.to_node,
                    "operation_id": env.operation_id,
                    "conversation_id": env.conversation_id,
                    "body": env.body,
                }
            )
            for env in self.envelopes
        ]
        return "".join(line + "\n" for line in lines)

    def write(self, path: Path | str) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")


def read_trace(path: Path | str) -> TraceLog:
    """Parse a JSONL trace file; malformed lines name their line number.

    The file must be UTF-8; the first invalid byte is reported by its line.
    Records are split on line feeds only: a body may hold U+2028, U+2029
    or U+0085 raw, which ``str.splitlines`` would also break at, and a
    carriage return is whitespace around a record, not a line break.

    A line the JSON scanner reads whole, from its first character to its
    last, is taken as scanned; any other goes through ``json.loads``, which
    accepts it or raises, so every line reads as ``json.loads`` reads it.
    A record holds exactly the seven fields, none missing and none more.
    ``seq`` must be a JSON integer, not a float or a boolean, and every
    other field a string. No error text repeats a key or value read from
    the file.
    """
    run_id: str | None = None
    envelopes: list[MessageEnvelope] = []
    last_seq = 0
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(data.count(b"\n", 0, exc.start) + 1, "invalid UTF-8") from None
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line or line.isspace():
            continue
        try:
            record, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(line_no, f"invalid JSON: {exc}") from None
            except ValueError:  # an integer literal longer than int() takes
                raise TraceFormatError(line_no, "invalid JSON: number too long") from None
            except RecursionError:
                raise TraceFormatError(line_no, "invalid JSON: nested too deeply") from None
        if not isinstance(record, dict):
            raise TraceFormatError(line_no, "envelope record must be a JSON object")
        if record.keys() != _TRACE_KEYS:
            missing = [key for key in _TRACE_FIELDS if key not in record]
            if missing:
                raise TraceFormatError(line_no, f"missing fields: {', '.join(missing)}")
            raise TraceFormatError(line_no, "fields beyond the seven of a trace record")
        if not isinstance(record["run_id"], str):
            raise TraceFormatError(line_no, "run_id must be a string")
        for key in _TEXT_FIELDS:
            if not isinstance(record[key], str):
                raise TraceFormatError(line_no, f"{key} must be a string")
        if run_id is None:
            run_id = record["run_id"]
        elif record["run_id"] != run_id:
            raise TraceFormatError(line_no, "trace mixes run ids")
        seq = record["seq"]
        if type(seq) is not int:  # not a float, and not a bool either
            raise TraceFormatError(line_no, "seq must be an integer")
        try:
            env = MessageEnvelope(
                record["from"], record["to"], record["operation_id"], record["conversation_id"], record["body"], seq
            )
        except ValueError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        if env.sent_at <= last_seq:
            raise TraceFormatError(line_no, "sequence numbers must be strictly increasing")
        last_seq = env.sent_at
        envelopes.append(env)
    return TraceLog(run_id=run_id or "", envelopes=envelopes)


# ---------------------------------------------------------------------------
# Locality rules: one check per message, for the guard and the checker alike
# ---------------------------------------------------------------------------


class ViolationKind(str, Enum):
    PROTECTED_VALUE = "protected-value"  # dataset value crossed an edge
    TOKEN_LEAK = "token-leak"  # 64-hex string bound for a token-free node
    UNDECLARED_EDGE = "undeclared-edge"  # envelope outside the configured topology
    RAW_PATIENT_ID = "raw-patient-id"  # raw identifier in any body


@dataclass(frozen=True)
class Topology:
    """Declared relay edges plus the nodes' locality rules.

    ``edges`` are the configured (caller, target) pairs; response envelopes
    legitimately ride the reverse direction of a declared edge. Nodes in
    ``token_free_nodes`` must never receive any 64-hex substring, known or
    not. No edge may carry a raw patient identifier (``PATIENT_ID_RE``), so
    that rule needs no declaration here. ``callers`` maps each called
    ``(node, operation_id)`` to the one node that calls it, so a reply's
    edge is known without a wire field.
    """

    edges: frozenset[tuple[str, str]] = frozenset()
    token_free_nodes: frozenset[str] = frozenset()
    callers: Mapping[tuple[str, str], str] = field(default_factory=dict, hash=False)

    def permits(self, from_node: str, to_node: str) -> bool:
        return (from_node, to_node) in self.edges or (to_node, from_node) in self.edges


@dataclass(frozen=True)
class Finding:
    """One locality rule a message body breaks. ``source_column`` is set
    for protected values only; ``offending_value`` is the matched value,
    for local use, and is ``None`` for an undeclared edge."""

    kind: ViolationKind
    source_column: str | None = None
    offending_value: str | None = None

    def detail(self, edge: tuple[str, str]) -> str:
        from_node, to_node = edge
        if self.kind is ViolationKind.UNDECLARED_EDGE:
            return f"edge {from_node}->{to_node} is not declared in the relay topology"
        if self.kind is ViolationKind.PROTECTED_VALUE:
            return f"protected value from column {self.source_column!r} crossed {from_node}->{to_node}"
        if self.kind is ViolationKind.TOKEN_LEAK:
            return f"64-hex substring in a body bound for token-free node {to_node!r}"
        return f"raw patient identifier in a body on {from_node}->{to_node}"


def scan_bodies(
    bodies: Sequence[str],
    index: ProtectedValueIndex | None,
    edge: tuple[str, str],
    topology: Topology,
) -> dict[int, list[Finding]]:
    """Every locality rule each of ``bodies`` breaks on ``edge``, keyed by
    the body's index in ``bodies``; a body that may cross is left out.
    Each body's findings come in rule order: an undeclared edge; each
    protected value of the sender's ``index`` not whitelisted for the
    destination, in index order; a 64-hex substring bound for a token-free
    node; a raw patient identifier, the first in the body for each of the
    last two.

    Protected values are plain substrings: case-insensitive for values
    marked as human-readable text (names), case-sensitive for identifiers,
    dates and tokens. ``ProtectedValueIndex.find`` runs its filtration pass
    once over the bodies joined by newlines, so its fixed cost is paid once
    per call, and its cost is bounded by that text's length, not by the
    index's size: the index keeps one table per value width, and each
    table is tested either by looking each window of the casefolded text
    up once or by testing its values with ``in``, whichever costs less on
    this text. Every value it finds is then placed by testing each body on
    its own, and the two regex rules run on each body on its own, so no
    match spans two bodies. The bodies are never mutated; the caller
    decides what to do with a message that breaks a rule.
    """
    if topology.permits(*edge):
        findings: dict[int, list[Finding]] = {}
    else:
        findings = {body: [Finding(ViolationKind.UNDECLARED_EDGE)] for body in range(len(bodies))}
    hits = index.find(bodies, edge[1]) if index is not None else None
    if hits:
        entries = index.entries
        for body, positions in hits.items():
            found = findings.setdefault(body, [])
            for pos in positions:
                entry = entries[pos]
                found.append(Finding(ViolationKind.PROTECTED_VALUE, entry.source_column, entry.value))
    token_free = edge[1] in topology.token_free_nodes
    for body, text in enumerate(bodies):
        token = HEX64_RE.search(text) if token_free else None
        patient_id = PATIENT_ID_PRETEST.search(text) and PATIENT_ID_RE.search(text)
        if token or patient_id:
            found = findings.setdefault(body, [])
            if token:
                found.append(Finding(ViolationKind.TOKEN_LEAK, offending_value=token.group(0)))
            if patient_id:
                found.append(Finding(ViolationKind.RAW_PATIENT_ID, offending_value=patient_id.group(0)))
    return findings


def scan_outbound(
    body: str,
    index: ProtectedValueIndex | None,
    edge: tuple[str, str],
    topology: Topology,
) -> list[Finding]:
    """Every locality rule ``body`` breaks on ``edge``, in rule order:
    ``scan_bodies`` of this one body. An empty list means the message may
    cross."""
    return scan_bodies((body,), index, edge, topology).get(0, [])


def blocked_message(edge: tuple[str, str], findings: Iterable[Finding]) -> str:
    """Why a message was stopped: the edge, the rules it breaks and, for
    protected values, their columns. It never carries a matched value."""
    columns: dict[ViolationKind, set[str]] = {}
    for finding in findings:
        names = columns.setdefault(finding.kind, set())
        if finding.source_column is not None:
            names.add(finding.source_column)
    rules = [
        f"{kind.value} from column(s) {', '.join(sorted(names))}" if names else kind.value
        for kind, names in columns.items()
    ]
    return f"message {edge[0]}->{edge[1]} blocked: {'; '.join(rules)}"


# ---------------------------------------------------------------------------
# Offline trace checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    seq: int
    from_node: str
    to_node: str
    detail: str
    offending_value: str | None = None

    def to_json(self) -> str:
        record = {
            "kind": self.kind.value,
            "seq": self.seq,
            "from": self.from_node,
            "to": self.to_node,
            "detail": self.detail,
        }
        if self.offending_value is not None:
            record["offending_value"] = self.offending_value
        return _encode(record)


def check_trace(
    trace: TraceLog,
    topology: Topology,
    indexes: Mapping[str, ProtectedValueIndex],
) -> list[Violation]:
    """Audit a complete run; an empty result means the run satisfied the
    locality model. The distinct bodies of each edge are checked by
    ``scan_bodies`` against their sender's index, exactly as the runtime
    guard checks each message, in batches of at most ``AUDIT_BATCH_CHARS``
    characters. A body's findings depend only on its edge and its text,
    so a body repeated on an edge is scanned once and its findings go to
    every envelope that carries it; this saves work only where bodies
    repeat. Violations come in the trace's order, and each envelope's in
    rule order."""
    envelopes = trace.envelopes
    # Each edge's distinct bodies, each with the envelopes that carry it.
    by_edge: dict[tuple[str, str], dict[str, list[int]]] = {}
    for i, env in enumerate(envelopes):
        edge = (env.from_node, env.to_node)
        carriers = by_edge.get(edge) or by_edge.setdefault(edge, {})
        (carriers.get(env.body) or carriers.setdefault(env.body, [])).append(i)
    findings: dict[int, list[Finding]] = {}

    def scan(edge: tuple[str, str], batch: list[str]) -> None:
        carriers = by_edge[edge]
        for body, found in scan_bodies(batch, indexes.get(edge[0]), edge, topology).items():
            for i in carriers[batch[body]]:
                findings[i] = found

    for edge, carriers in by_edge.items():
        batch: list[str] = []
        chars = 0
        for body in carriers:
            if batch and chars + len(body) > AUDIT_BATCH_CHARS:
                scan(edge, batch)
                batch, chars = [], 0
            batch.append(body)
            chars += len(body)
        scan(edge, batch)

    violations: list[Violation] = []
    for i in sorted(findings):
        env = envelopes[i]
        edge = (env.from_node, env.to_node)
        for finding in findings[i]:
            violations.append(
                Violation(
                    kind=finding.kind,
                    seq=env.sent_at,
                    from_node=env.from_node,
                    to_node=env.to_node,
                    detail=finding.detail(edge),
                    offending_value=finding.offending_value,
                )
            )
    return violations
