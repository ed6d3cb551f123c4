"""Data-locality enforcement and audit.

Two layers guard the same constraint, that no protected dataset value may
appear in a message crossing a node boundary:

- ``scan_outbound`` is the runtime guard. The relay applies it to every
  outbound request body before any bytes leave the node and fails closed.
- ``check_trace`` is the offline auditor. It replays a full run's message
  trace against the per-node protected-value indexes and the declared relay
  topology, so guard bugs and bypasses are still caught after the fact.

Trace files are JSON lines with fields exactly
``{run_id, seq, from, to, operation_id, conversation_id, body}``.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .datastore import ProtectedValueIndex
from .errors import TraceFormatError

HEX64_RE = re.compile(r"[0-9a-fA-F]{64}")

# A raw clinic patient identifier, in any letter case.
PATIENT_ID_RE = re.compile(r"\bCLN-\d{4}\b", re.IGNORECASE)

_TRACE_FIELDS = ("run_id", "seq", "from", "to", "operation_id", "conversation_id", "body")


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
            json.dumps(
                {
                    "run_id": self.run_id,
                    "seq": env.sent_at,
                    "from": env.from_node,
                    "to": env.to_node,
                    "operation_id": env.operation_id,
                    "conversation_id": env.conversation_id,
                    "body": env.body,
                },
                ensure_ascii=False,
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
    """
    run_id = ""
    envelopes: list[MessageEnvelope] = []
    last_seq = 0
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(line_no, f"invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise TraceFormatError(line_no, "envelope record must be a JSON object")
        missing = [key for key in _TRACE_FIELDS if key not in record]
        if missing:
            raise TraceFormatError(line_no, f"missing fields: {', '.join(missing)}")
        if not run_id:
            run_id = str(record["run_id"])
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
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        if env.sent_at <= last_seq:
            raise TraceFormatError(line_no, "sequence numbers must be strictly increasing")
        last_seq = env.sent_at
        envelopes.append(env)
    return TraceLog(run_id=run_id, envelopes=envelopes)


# ---------------------------------------------------------------------------
# Outbound guard
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakFinding:
    offending_value: str
    source_column: str
    edge: tuple[str, str]


@dataclass(frozen=True)
class LeakVerdict:
    clean: bool
    findings: tuple[LeakFinding, ...]


def scan_outbound(body: str, index: ProtectedValueIndex, edge: tuple[str, str]) -> LeakVerdict:
    """Report every protected value occurring in an outbound body.

    Matching is plain substring search: case-insensitive for values marked
    as human-readable text (names), case-sensitive for identifiers, dates,
    and tokens. Values whitelisted for the destination node are skipped
    before they are tested, and the cost of a scan is bounded by the
    body's length, not by the index's size (``ProtectedValueIndex.find``).
    Findings come one per matching entry, in index order. The body is never
    mutated; the caller decides whether to abort the send.
    """
    findings: list[LeakFinding] = []
    for pos in index.find(body, edge[1]):
        entry = index.entries[pos]
        findings.append(LeakFinding(entry.value, entry.source_column, edge))
    return LeakVerdict(clean=not findings, findings=tuple(findings))


# ---------------------------------------------------------------------------
# Offline trace checker
# ---------------------------------------------------------------------------


class ViolationKind(str, Enum):
    PROTECTED_VALUE = "protected-value"  # dataset value crossed an edge
    TOKEN_LEAK = "token-leak"  # 64-hex string bound for a token-free node
    UNDECLARED_EDGE = "undeclared-edge"  # envelope outside the configured topology
    RAW_PATIENT_ID = "raw-patient-id"  # raw identifier in an inquiry body


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
        return json.dumps(record, ensure_ascii=False)


@dataclass(frozen=True)
class Topology:
    """Declared relay edges plus per-run audit settings.

    ``edges`` are the configured (caller, target) pairs; response envelopes
    legitimately ride the reverse direction of a declared edge. Nodes in
    ``token_free_nodes`` must never receive any 64-hex substring, known or
    not. ``inquiry_edges`` are the edges whose bodies must never carry a raw
    patient identifier (``PATIENT_ID_RE``).
    """

    edges: frozenset[tuple[str, str]]
    token_free_nodes: frozenset[str] = frozenset()
    inquiry_edges: frozenset[tuple[str, str]] = frozenset()

    def permits(self, from_node: str, to_node: str) -> bool:
        return (from_node, to_node) in self.edges or (to_node, from_node) in self.edges


def check_trace(
    trace: TraceLog,
    topology: Topology,
    indexes: Mapping[str, ProtectedValueIndex],
) -> list[Violation]:
    """Audit a complete run; an empty result means the run satisfied the
    locality model.

    Checks, per envelope: protected-value leakage against the sender's
    index; any 64-hex substring bound for a token-free node; transit on an
    edge outside the declared topology; and raw patient identifiers on
    inquiry edges.
    """
    violations: list[Violation] = []

    for env in trace.envelopes:
        edge = (env.from_node, env.to_node)

        if not topology.permits(*edge):
            violations.append(
                Violation(
                    kind=ViolationKind.UNDECLARED_EDGE,
                    seq=env.sent_at,
                    from_node=env.from_node,
                    to_node=env.to_node,
                    detail=f"edge {env.from_node}->{env.to_node} is not declared in the relay topology",
                )
            )

        index = indexes.get(env.from_node)
        if index is not None:
            for finding in scan_outbound(env.body, index, edge).findings:
                violations.append(
                    Violation(
                        kind=ViolationKind.PROTECTED_VALUE,
                        seq=env.sent_at,
                        from_node=env.from_node,
                        to_node=env.to_node,
                        detail=f"protected value from column {finding.source_column!r} crossed {env.from_node}->{env.to_node}",
                        offending_value=finding.offending_value,
                    )
                )

        if env.to_node in topology.token_free_nodes:
            match = HEX64_RE.search(env.body)
            if match:
                violations.append(
                    Violation(
                        kind=ViolationKind.TOKEN_LEAK,
                        seq=env.sent_at,
                        from_node=env.from_node,
                        to_node=env.to_node,
                        detail=f"64-hex substring in a body bound for token-free node {env.to_node!r}",
                        offending_value=match.group(0),
                    )
                )

        if edge in topology.inquiry_edges:
            match = PATIENT_ID_RE.search(env.body)
            if match:
                violations.append(
                    Violation(
                        kind=ViolationKind.RAW_PATIENT_ID,
                        seq=env.sent_at,
                        from_node=env.from_node,
                        to_node=env.to_node,
                        detail=f"raw patient identifier in an inquiry body on {env.from_node}->{env.to_node}",
                        offending_value=match.group(0),
                    )
                )

    return violations
