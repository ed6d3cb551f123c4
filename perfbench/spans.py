"""Span recorder and the timing wrappers of the traced run.

Every wrapper sits outside ``src/``: it replaces a module global, a class
attribute or a per-node dict entry for the length of the traced run and
restores it afterwards. A wrapper passes arguments, return values and
exceptions through unchanged.

A span records name, start, end, parent and conversation id. Parents come
from a per-thread stack. A span that opens on a thread with an empty stack
(an HTTP handler thread) is joined, by conversation id, to the innermost
``Transport.send`` still open for that conversation, so server-side work
nests under the client call that caused it. Self time is a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import fedmesh.policies as policies_mod
import fedmesh.relay as relay_mod
import fedmesh.scenario as scenario_mod
from fedmesh.locality import TraceLog
from fedmesh.pseudonym import SecretSource
from fedmesh.relay import RelayRequest, RelayResponse

SEND = "relay.transport_self_us"


@dataclass(eq=False)
class Span:
    span_id: int
    name: str
    start: int
    parent: "Span | None"
    conversation_id: str | None
    end: int = 0
    child_ns: int = 0
    count: int = 0  # a size the span carries, e.g. index entries scanned
    is_root: bool = False  # opened by the benchmark itself, never joined
    is_request: bool = False  # a root around one ``Scenario.submit``
    outcome: str = ""  # request roots only: "verdict", "blocked" or "failed"

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _ids: Any = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)
    _open_sends: dict[str, list[Span]] = field(default_factory=dict)
    _sends_lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost_send(self, conversation_id: str | None) -> Span | None:
        if conversation_id is None:
            return None
        with self._sends_lock:
            sends = self._open_sends.get(conversation_id)
            return sends[-1] if sends else None

    def start(self, name: str, conversation_id: str | None = None, *, root: bool = False) -> Span:
        """Open a span; ``root=True`` opens one with no parent (a phase or
        a request of the benchmark's client)."""
        stack = self._stack()
        if conversation_id is not None:
            self._local.conversation_id = conversation_id
        if root:
            parent = None
        elif stack:
            parent = stack[-1]
        else:
            conversation_id = conversation_id or getattr(self._local, "conversation_id", None)
            parent = self._innermost_send(conversation_id)
        span = Span(next(self._ids), name, time.perf_counter_ns(), parent, conversation_id,
                    is_root=root)
        stack.append(span)
        if name == SEND and conversation_id is not None:
            with self._sends_lock:
                self._open_sends.setdefault(conversation_id, []).append(span)
        return span

    def finish(self, span: Span, conversation_id: str | None = None) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if span.name == SEND and span.conversation_id is not None:
            with self._sends_lock:
                self._open_sends[span.conversation_id].remove(span)
        if span.parent is None and not span.is_root and conversation_id is not None:
            # A handler-thread span whose conversation was unknown at start.
            self._local.conversation_id = conversation_id
            span.conversation_id = conversation_id
            span.parent = self._innermost_send(conversation_id)
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        self.spans.append(span)

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span around a set-up phase (boot, audit set-up)."""
        span = self.start(name, root=True)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        conversation_in: Callable[[tuple], str | None] | None = None,
        conversation_out: Callable[[Any], str | None] | None = None,
        count: Callable[[tuple], int] | None = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.start(name, conversation_in(args) if conversation_in else None)
            if count is not None:
                span.count = count(args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.finish(span, conversation_out(result) if conversation_out and result else None)

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in ns)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.span_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent.span_id if span.parent else None,
                    "conversation_id": span.conversation_id,
                }) + "\n")


def _conversation_of_request(args: tuple) -> str | None:
    for arg in args:
        if isinstance(arg, RelayRequest):
            return arg.conversation_id
    return None


class Patches:
    """Attribute replacements that are undone in reverse order."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        # Save what the owner itself holds (a class's own descriptor, or
        # nothing when an instance only inherits the attribute).
        self._undo.append((owner, attr, vars(owner).get(attr, self._ABSENT)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def install_module_wrappers(tracer: Tracer, patches: Patches) -> None:
    """Wrap the module globals and class attributes the three nodes share.

    These must be in place before ``boot_scenario`` so the boot and audit
    set-up spans are recorded.
    """
    w = tracer.wrap
    for attr in ("load_clinic_store", "load_insurer_store", "load_guidance"):
        patches.set(scenario_mod, attr, w(getattr(scenario_mod, attr), "datastore.load_stores_ms"))
    patches.set(scenario_mod, "load_node_config",
                w(scenario_mod.load_node_config, "config.load_node_config_ms"))
    patches.set(scenario_mod, "protected_values",
                w(scenario_mod.protected_values, "datastore.protected_values_ms"))
    patches.set(scenario_mod, "serve", w(scenario_mod.serve, "relay.serve_ms"))
    # In-process, building a node's transport stands in for starting its listener.
    patches.set(scenario_mod, "LoopbackTransport",
                w(scenario_mod.LoopbackTransport, "relay.serve_ms"))

    patches.set(relay_mod, "scan_outbound",
                w(relay_mod.scan_outbound, "locality.scan_us", count=lambda a: len(a[1].entries)))
    patches.set(relay_mod, "serve_request",
                w(relay_mod.serve_request, "runtime.loop_self_us",
                  conversation_in=_conversation_of_request))
    patches.set(policies_mod, "parse_inquiry",
                w(policies_mod.parse_inquiry, "policies.parse_inquiry"))
    patches.set(SecretSource, "resolve", w(SecretSource.resolve, "pseudonym.secret_read"))
    patches.set(TraceLog, "append", w(TraceLog.append, "locality.trace_append_us"))

    patches.set(RelayRequest, "to_json", w(RelayRequest.to_json, "relay.encode_us",
                                          conversation_in=_conversation_of_request))
    patches.set(RelayResponse, "to_json", w(RelayResponse.to_json, "relay.encode_us"))
    patches.set(RelayRequest, "from_json", classmethod(w(
        RelayRequest.__dict__["from_json"].__func__, "relay.decode_us",
        conversation_out=lambda r: r.conversation_id)))
    patches.set(RelayResponse, "from_json", classmethod(w(
        RelayResponse.__dict__["from_json"].__func__, "relay.decode_us")))


def install_node_wrappers(tracer: Tracer, patches: Patches, nodes: dict) -> None:
    """Wrap each booted node's policies, tools and transport."""
    w = tracer.wrap
    for node in nodes.values():
        patches.set(node, "policies", {
            op_id: _PolicyProxy(w(policy.decide, "policies.decide_us"))
            for op_id, policy in node.policies.items()
        })
        patches.set(node, "tools", {
            name: w(fn, f"runtime.tool_us.{name}") for name, fn in node.tools.items()
        })
        transport = node.transport
        patches.set(transport, "send", w(transport.send, SEND,
                                         conversation_in=_conversation_of_request))


@dataclass(frozen=True)
class _PolicyProxy:
    decide: Callable
