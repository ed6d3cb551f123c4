"""Data-locality enforcement and audit.

One function, ``scan_outbound``, holds the locality rules: a message must
ride a declared edge, carry no protected value of its sender, carry no
64-hex substring toward a token-free node, and carry no raw patient
identifier on any edge. Two layers apply it:

- The relay's runtime guard applies it to every request before any bytes
  leave the node, and to every reply before it is answered, and fails
  closed.
- ``check_trace`` is the offline auditor. It applies the same function to
  every envelope of a full run's trace, so guard bypasses are still caught
  after the fact.

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
from typing import Iterable, Mapping

from .datastore import ProtectedValueIndex
from .errors import TraceFormatError

HEX64_RE = re.compile(r"[0-9a-fA-F]{64}")

# A raw clinic patient identifier, in any letter case.
PATIENT_ID_RE = re.compile(r"\bCLN-\d{4}\b", re.IGNORECASE)
# What every PATIENT_ID_RE match holds. It starts with a literal, which the
# regex engine skips to, so it spares most bodies the slower case-blind
# search.
PATIENT_ID_PRETEST = re.compile(r"-\d{4}")

_TRACE_FIELDS = ("run_id", "seq", "from", "to", "operation_id", "conversation_id", "body")
_TRACE_KEYS = frozenset(_TRACE_FIELDS)

# json.dumps(obj, ensure_ascii=False) would build an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False).encode
# The C scanner json.loads runs inside its Python layers: called at index
# 0, it reads one JSON value and returns it with the index after it.
_scan = json.scanner.make_scanner(json.JSONDecoder())


@dataclass(frozen=True)
class MessageEnvelope:
    """One cross-node message; the only thing that crosses node boundaries."""

    from_node: str
    to_node: str
    operation_id: str
    conversation_id: str
    body: str
    sent_at: int

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("envelope body must be non-empty")
        if self.from_node == self.to_node:
            raise ValueError("envelope endpoints must differ")
        if self.sent_at < 1:
            raise ValueError("sequence numbers start at 1")


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
                from_node=from_node,
                to_node=to_node,
                operation_id=operation_id,
                conversation_id=conversation_id,
                body=body,
                sent_at=len(self.envelopes) + 1,
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

    Records are split on newlines only: a body may hold U+2028, U+2029 or
    U+0085 raw, which ``str.splitlines`` would also break at.

    A line the JSON scanner reads whole, from its first character to its
    last, is taken as scanned; any other goes through ``json.loads``, which
    accepts it or raises, so every line reads as ``json.loads`` reads it.
    """
    run_id: str | None = None
    envelopes: list[MessageEnvelope] = []
    last_seq = 0
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if not line or line.isspace():
            continue
        try:
            record, end = _scan(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(line_no, f"invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise TraceFormatError(line_no, "envelope record must be a JSON object")
        if not record.keys() >= _TRACE_KEYS:
            missing = [key for key in _TRACE_FIELDS if key not in record]
            raise TraceFormatError(line_no, f"missing fields: {', '.join(missing)}")
        if not isinstance(record["run_id"], str):
            raise TraceFormatError(line_no, "run_id must be a string")
        if run_id is None:
            run_id = record["run_id"]
        elif record["run_id"] != run_id:
            raise TraceFormatError(line_no, "trace mixes run ids")
        try:
            env = MessageEnvelope(
                from_node=str(record["from"]),
                to_node=str(record["to"]),
                operation_id=str(record["operation_id"]),
                conversation_id=str(record["conversation_id"]),
                body=str(record["body"]),
                sent_at=int(record["seq"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a seq of ±Infinity
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


def scan_outbound(
    body: str,
    index: ProtectedValueIndex | None,
    edge: tuple[str, str],
    topology: Topology,
) -> list[Finding]:
    """Every locality rule ``body`` breaks on ``edge``, in rule order: an
    undeclared edge; each protected value of the sender's ``index`` not
    whitelisted for the destination, in index order; any 64-hex substring
    bound for a token-free node; a raw patient identifier. An empty list
    means the message may cross.

    Protected values are plain substrings: case-insensitive for values
    marked as human-readable text (names), case-sensitive for identifiers,
    dates and tokens. The cost of the value rule is bounded by the body's
    length, not by the index's size (``ProtectedValueIndex.find``): the
    index keeps one table per value width. A scan looks each window of the
    casefolded body up once in a table that holds more values than the
    body has windows of its width, and checks each value found against
    its own whitelist and match mode; it tests the values of any other
    table with ``in``. The body is never mutated; the caller decides
    whether to abort.
    """
    findings: list[Finding] = []
    if not topology.permits(*edge):
        findings.append(Finding(ViolationKind.UNDECLARED_EDGE))
    if index is not None:
        for pos in index.find(body, edge[1]):
            entry = index.entries[pos]
            findings.append(Finding(ViolationKind.PROTECTED_VALUE, entry.source_column, entry.value))
    if edge[1] in topology.token_free_nodes:
        match = HEX64_RE.search(body)
        if match:
            findings.append(Finding(ViolationKind.TOKEN_LEAK, offending_value=match.group(0)))
    if PATIENT_ID_PRETEST.search(body):
        match = PATIENT_ID_RE.search(body)
        if match:
            findings.append(Finding(ViolationKind.RAW_PATIENT_ID, offending_value=match.group(0)))
    return findings


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
    locality model. Each envelope is checked by ``scan_outbound`` against
    its sender's index, exactly as the runtime guard checks it."""
    violations: list[Violation] = []
    for env in trace.envelopes:
        edge = (env.from_node, env.to_node)
        for finding in scan_outbound(env.body, indexes.get(env.from_node), edge, topology):
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
