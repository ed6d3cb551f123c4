"""Per-node execution environment.

A node owns its datasets, secrets, tool registry, and exposed operations.
Handling a request runs the bounded tool-calling loop. Each turn, the
operation's policy reads the request body and the last value of each tool
it has called, and returns either one ``ToolCall`` or the answer text. The
runtime runs a permitted call and keeps its value for the next turn; the
answer ends the loop. Policies never touch node state directly; every data
access goes through a tool call. A tool is ``fn(node, args,
conversation_id)``. A tool over local data hands the policy the store's
record itself, never text: only ``relay_call``, whose result comes from
another node, returns a message.
"""

from __future__ import annotations

import hmac
import logging
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, TypeVar

from .datastore import (
    ClinicalObservation,
    ClinicStore,
    CoverageRule,
    EnrollmentRow,
    GuidanceDoc,
    InsurerStore,
    ProtectedValueIndex,
    coverage_rule,
    lookup_observation,
    match_enrollment,
)
from .errors import (
    AuthError,
    ConfigError,
    FedmeshError,
    LoopLimitExceeded,
    OperationNotFound,
    ToolError,
    ToolNotPermitted,
)
from .locality import Topology, TraceLog
from .pseudonym import CaseToken, SecretKey, derive_token, normalize_id
from .relay import RelayRequest, RelayTarget, Transport, relay_call

logger = logging.getLogger(__name__)

# The most turns a request's tool-calling loop runs.
LOOP_LIMIT = 8

T = TypeVar("T")


@dataclass(frozen=True)
class ToolCall:
    tool: str
    args: Mapping[str, str] = field(default_factory=dict)


class AgentPolicy(Protocol):
    def decide(self, request_body: str, results: Mapping[str, object]) -> ToolCall | str: ...


@dataclass(frozen=True)
class OperationConfig:
    """An externally exposed entry point: policy, permitted tools, key."""

    operation_id: str
    agent_policy: str
    permitted_tools: frozenset[str]
    access_key: str


ToolFn = Callable[["Node", Mapping[str, str], str], object]


@dataclass
class Node:
    """One organisation's isolated deployment.

    Datasets, the HMAC key and tools are local; the only outward path is a
    relay target declared in config. Its config was checked as it loaded,
    and ``hmac_key``, the key the config's ``hmac_secret`` names, was read
    at boot, so serving a request reads no secret. ``topology`` is the
    deployment's, from which the guard takes its rules and each reply's
    edge. ``enforce_guard`` exists as a test hook so the offline checker
    can be exercised against guard bypasses.
    """

    node_id: str
    datasets: dict[str, ClinicStore | InsurerStore | list[GuidanceDoc]]
    operations: dict[str, OperationConfig]
    policies: dict[str, AgentPolicy]
    relay_targets: dict[str, RelayTarget]
    protected_index: ProtectedValueIndex
    tools: dict[str, ToolFn]
    hmac_key: SecretKey | None = None
    transport: Transport | None = None
    trace: TraceLog | None = None
    topology: Topology = field(default_factory=Topology)
    enforce_guard: bool = True
    outbound_mutators: list[Callable[[str, str], str]] = field(default_factory=list)
    _conversation_locks: dict[str, _ConversationLock] = field(
        default_factory=dict, init=False, repr=False
    )
    _locks_guard: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self) -> None:
        for op in self.operations.values():
            if op.operation_id not in self.policies:
                raise ConfigError(f"operation {op.operation_id!r} has no policy instance")

    def conversation_lock(self, conversation_id: str) -> _ConversationLock:
        """The conversation's lock, to be held with ``with`` and nothing
        else. The map keeps it only while some thread holds or awaits it."""
        with self._locks_guard:
            entry = self._conversation_locks.get(conversation_id)
            if entry is None:
                entry = _ConversationLock(self, conversation_id)
                self._conversation_locks[conversation_id] = entry
            entry.users += 1
        return entry


class _ConversationLock:
    __slots__ = ("node", "conversation_id", "lock", "users")

    def __init__(self, node: Node, conversation_id: str) -> None:
        self.node = node
        self.conversation_id = conversation_id
        self.lock = threading.Lock()
        self.users = 0  # threads holding or awaiting ``lock``

    def __enter__(self) -> None:
        self.lock.acquire()

    def __exit__(self, *exc: object) -> None:
        self.lock.release()
        with self.node._locks_guard:
            self.users -= 1
            if not self.users:
                del self.node._conversation_locks[self.conversation_id]


def handle_operation(node: Node, req: RelayRequest) -> str:
    """Run the tool-calling loop for one request and return the answer.

    The loop is bounded unconditionally: a policy that keeps requesting
    tools is cut off after ``LOOP_LIMIT`` turns. Requests in the same
    conversation are serialised; distinct conversations proceed
    concurrently.
    """
    op = node.operations.get(req.operation_id)
    if op is None:
        raise OperationNotFound(f"node {node.node_id!r} exposes no operation {req.operation_id!r}")
    # Compared in time that does not depend on where the keys differ; as
    # bytes, since compare_digest refuses a non-ASCII str. A key decoded
    # from JSON may hold a lone surrogate, which "surrogatepass" encodes.
    if not hmac.compare_digest(
        req.access_key.encode("utf-8", "surrogatepass"), op.access_key.encode("utf-8", "surrogatepass")
    ):
        raise AuthError(f"access key mismatch for operation {req.operation_id!r}")

    policy = node.policies[req.operation_id]
    with node.conversation_lock(req.conversation_id):
        results: dict[str, object] = {}  # each tool's last value
        for calls in range(LOOP_LIMIT):
            turn = policy.decide(req.body, results)
            if not isinstance(turn, ToolCall):
                if not turn:
                    raise ValueError("response body must be non-empty")
                logger.debug(
                    "node=%s op=%s finished after %d tool call(s)", node.node_id, req.operation_id, calls
                )
                return turn
            results[turn.tool] = execute_tool(node, op, turn, conversation_id=req.conversation_id)
    raise LoopLimitExceeded(
        f"operation {req.operation_id!r} exceeded the loop bound of {LOOP_LIMIT}"
    )


def execute_tool(
    node: Node,
    op: OperationConfig,
    call: ToolCall,
    *,
    conversation_id: str,
) -> object:
    """Dispatch one permitted tool call against node-local state."""
    if call.tool not in op.permitted_tools:
        raise ToolNotPermitted(
            f"tool {call.tool!r} is not permitted for operation {op.operation_id!r}"
        )
    fn = node.tools.get(call.tool)
    if fn is None:
        raise ToolError(f"tool {call.tool!r} is not registered on node {node.node_id!r}")
    try:
        value = fn(node, call.args, conversation_id)
    except FedmeshError:
        raise
    except Exception as exc:
        raise ToolError(f"tool {call.tool!r} failed: {exc}") from exc
    logger.debug("node=%s tool=%s returned", node.node_id, call.tool)
    return value


# ---------------------------------------------------------------------------
# Built-in tools
# ---------------------------------------------------------------------------


def _require_arg(args: Mapping[str, str], name: str, tool: str) -> str:
    value = args.get(name)
    if value is None:
        raise ToolError(f"tool {tool!r} requires argument {name!r}")
    return value


# The dataset kind each built-in tool over local data reads, which a node
# config listing the tool must declare.
TOOL_DATASETS = {
    "csv_lookup": "clinic",
    "enrollment_match": "insurer",
    "coverage_lookup": "insurer",
    "guidance_search": "guidance",
}


def _dataset(node: Node, tool: str, expected: type[T]) -> T:
    kind = TOOL_DATASETS[tool]
    data = node.datasets.get(kind)
    if not isinstance(data, expected):
        raise ToolError(f"tool {tool!r} needs the {kind} dataset on node {node.node_id!r}")
    return data


def tool_csv_lookup(node: Node, args: Mapping[str, str], conversation_id: str) -> ClinicalObservation | None:
    """Fetch the clinical observation row for a patient id."""
    store = _dataset(node, "csv_lookup", ClinicStore)
    raw = _require_arg(args, "patient_id", "csv_lookup")
    return lookup_observation(store, normalize_id(raw))


def tool_enrollment_match(node: Node, args: Mapping[str, str], conversation_id: str) -> EnrollmentRow | None:
    """Exact-match a case token against the local enrolment table."""
    store = _dataset(node, "enrollment_match", InsurerStore)
    token = _require_arg(args, "token", "enrollment_match")
    return match_enrollment(store, token)


def tool_coverage_lookup(node: Node, args: Mapping[str, str], conversation_id: str) -> CoverageRule | None:
    store = _dataset(node, "coverage_lookup", InsurerStore)
    plan_id = _require_arg(args, "plan_id", "coverage_lookup")
    treatment = _require_arg(args, "treatment_code", "coverage_lookup")
    return coverage_rule(store, plan_id, treatment)


def tool_guidance_search(node: Node, args: Mapping[str, str], conversation_id: str) -> list[GuidanceDoc]:
    """Return the guidance documents matching the query (all, when empty)."""
    docs = _dataset(node, "guidance_search", list)
    query = args.get("query", "").strip().casefold()

    def matches(doc: GuidanceDoc) -> bool:
        if not query:
            return True
        if query in doc.doc_id.casefold():
            return True
        texts = list(doc.severity_bands.values()) + list(doc.ladder) + list(doc.red_flags)
        return any(query in text.casefold() for text in texts)

    return [doc for doc in docs if matches(doc)]


def tool_hmac_token(node: Node, args: Mapping[str, str], conversation_id: str) -> CaseToken:
    """Derive the case token for an id under the node's HMAC key, which was
    read from the node-local secret source at boot; it never enters a
    message."""
    if node.hmac_key is None:
        raise ToolError("tool 'hmac_token' needs an hmac_secret in node config")
    raw = _require_arg(args, "patient_id", "hmac_token")
    return derive_token(node.hmac_key, normalize_id(raw))


def tool_relay_call(node: Node, args: Mapping[str, str], conversation_id: str) -> str:
    """Call a configured remote operation; the guard applies."""
    target = _require_arg(args, "target", "relay_call")
    body = _require_arg(args, "body", "relay_call")
    return relay_call(node, target, body, conversation_id)


TOOL_REGISTRY: dict[str, ToolFn] = {
    "csv_lookup": tool_csv_lookup,
    "enrollment_match": tool_enrollment_match,
    "coverage_lookup": tool_coverage_lookup,
    "guidance_search": tool_guidance_search,
    "hmac_token": tool_hmac_token,
    "relay_call": tool_relay_call,
}
