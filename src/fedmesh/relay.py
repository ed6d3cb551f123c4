"""Cross-node operation relay.

Wire format: one single-line JSON object per request and per response,
carried over HTTP POST to ``/operations/<operation_id>``. Requests are
``{"operation_id", "access_key", "conversation_id", "body"}``; responses are
``{"status": "ok", "body": ...}`` or
``{"status": "error", "error": {"code", "message"}}`` with codes ``auth``,
``not_found``, ``protocol``, and ``internal``. Bodies are natural-language
text only; no structured record ever rides the wire.

Calls are least-privilege: a remote operation is reachable only through a
target declared in node config, and the target's name must equal the
destination node's id so traces and topology checks line up. The outbound
leak guard runs before any bytes leave the node and fails closed: a finding
aborts the call with nothing sent and nothing recorded.

Over HTTP a node keeps its connections to each target alive (HTTP/1.1) and
reuses them across calls; a request is still sent at most once. The
listener bounds what it reads: a request must declare a ``Content-Length``
of at most ``MAX_REQUEST_BYTES``, and an idle connection closes after
``DEFAULT_TIMEOUT_SECONDS``.

An in-process loopback transport serves hermetic runs and tests; requests
still round-trip through their JSON wire form.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import logging
import select
import socket
import threading
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Mapping, Protocol

from .errors import (
    AuthError,
    ConfigError,
    FedmeshError,
    LeakBlocked,
    OperationNotFound,
    RelayAuthError,
    RelayRemoteError,
    RelayTransportError,
    TargetNotConfigured,
)
from .locality import scan_outbound

if TYPE_CHECKING:
    from .runtime import Node

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT_SECONDS = 30.0
MAX_REQUEST_BYTES = 1 << 20

_REQUEST_FIELDS = ("operation_id", "access_key", "conversation_id", "body")


@dataclass(frozen=True)
class RelayTarget:
    """A remote operation this node may call: name, URL, id, and key."""

    name: str
    url: str
    operation_id: str
    access_key: str

    def __post_init__(self) -> None:
        for field_name in ("name", "url", "operation_id", "access_key"):
            if not getattr(self, field_name):
                raise ConfigError(f"relay target field {field_name!r} must be non-empty")


@dataclass(frozen=True)
class RelayRequest:
    operation_id: str
    access_key: str
    conversation_id: str
    body: str

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("request body must be non-empty")

    def to_json(self) -> str:
        return json.dumps(
            {
                "operation_id": self.operation_id,
                "access_key": self.access_key,
                "conversation_id": self.conversation_id,
                "body": self.body,
            },
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, raw: str) -> "RelayRequest":
        record = json.loads(raw)
        if not isinstance(record, dict):
            raise ValueError("request must be a JSON object")
        missing = [key for key in _REQUEST_FIELDS if key not in record]
        if missing:
            raise ValueError(f"request missing fields: {', '.join(missing)}")
        if not all(isinstance(record[key], str) for key in _REQUEST_FIELDS):
            raise ValueError("request fields must be strings")
        return cls(
            operation_id=record["operation_id"],
            access_key=record["access_key"],
            conversation_id=record["conversation_id"],
            body=record["body"],
        )


@dataclass(frozen=True)
class RelayResponse:
    status: str  # "ok" | "error"
    body: str | None = None
    error_code: str | None = None
    error_message: str | None = None

    @classmethod
    def ok(cls, body: str) -> "RelayResponse":
        return cls(status="ok", body=body)

    @classmethod
    def fail(cls, code: str, message: str) -> "RelayResponse":
        return cls(status="error", error_code=code, error_message=message)

    def to_json(self) -> str:
        if self.status == "ok":
            return json.dumps({"status": "ok", "body": self.body}, ensure_ascii=False)
        return json.dumps(
            {"status": "error", "error": {"code": self.error_code, "message": self.error_message}},
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, raw: str) -> "RelayResponse":
        record = json.loads(raw)
        if not isinstance(record, dict) or "status" not in record:
            raise ValueError("response must be a JSON object with a status")
        if record["status"] == "ok":
            if not isinstance(record.get("body"), str):
                raise ValueError("ok response must carry a text body")
            return cls.ok(record["body"])
        error = record.get("error")
        if not isinstance(error, dict):
            raise ValueError("error response must carry an error object")
        return cls.fail(str(error.get("code", "internal")), str(error.get("message", "")))


class Transport(Protocol):
    sends: int
    bytes_sent: int

    def send(self, target: RelayTarget, request: RelayRequest) -> RelayResponse: ...

    def close(self) -> None: ...


class LoopbackTransport:
    """In-process transport for hermetic runs.

    Targets use ``local:<node_id>`` URLs resolved against a shared bus of
    booted nodes. The request still round-trips through its JSON wire form
    so loopback and network behave identically.
    """

    def __init__(self, bus: Mapping[str, "Node"]) -> None:
        self.bus = bus
        self.sends = 0
        self.bytes_sent = 0

    def send(self, target: RelayTarget, request: RelayRequest) -> RelayResponse:
        if not target.url.startswith("local:"):
            raise RelayTransportError(f"loopback transport cannot reach url {target.url!r}")
        node = self.bus.get(target.url[len("local:"):])
        if node is None:
            raise RelayTransportError(f"no local node behind url {target.url!r}")
        payload = request.to_json()
        self.sends += 1
        self.bytes_sent += len(payload.encode("utf-8"))
        try:
            parsed = RelayRequest.from_json(payload)
        except (ValueError, json.JSONDecodeError) as exc:
            return RelayResponse.fail("protocol", str(exc))
        return serve_request(node, parsed)

    def close(self) -> None:
        pass


class HttpTransport:
    """JSON-over-HTTP POST transport with a 30 s timeout.

    Connections are kept alive and pooled per ``(scheme, host, port)``: a
    call takes an idle connection, or opens one, and returns it once the
    whole response is read, so concurrent conversations each hold their
    own. An idle connection the peer has closed is dropped before use. A
    request is never sent twice: any failure closes its connection and
    raises ``RelayTransportError``. Proxy environment variables are not
    consulted.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT_SECONDS) -> None:
        self.timeout = timeout
        self.sends = 0
        self.bytes_sent = 0
        self._idle: dict[tuple[str, str, int], list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()

    def send(self, target: RelayTarget, request: RelayRequest) -> RelayResponse:
        url = f"{target.url.rstrip('/')}/operations/{target.operation_id}"
        try:
            parts = urllib.parse.urlsplit(url)
            port = parts.port or (443 if parts.scheme == "https" else 80)
        except ValueError as exc:
            raise RelayTransportError(f"relay transport cannot reach url {target.url!r}: {exc}") from exc
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise RelayTransportError(f"relay transport cannot reach url {target.url!r}")
        key = (parts.scheme, parts.hostname, port)
        selector = f"{parts.path}?{parts.query}" if parts.query else parts.path
        payload = request.to_json().encode("utf-8")
        connection = self._checkout(key)
        with self._lock:
            self.sends += 1
            self.bytes_sent += len(payload)
        try:
            connection.request("POST", selector, body=payload, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise RelayTransportError(f"relay transport failed for {url}: {exc}") from exc
        if response.status != 200:
            connection.close()
            raise RelayTransportError(
                f"relay transport failed for {url}: HTTP Error {response.status}: {response.reason}"
            )
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.setdefault(key, []).append(connection)
        try:
            return RelayResponse.from_json(raw.decode("utf-8"))
        except (ValueError, json.JSONDecodeError) as exc:
            raise RelayTransportError(f"malformed relay response from {url}: {exc}") from exc

    def _checkout(self, key: tuple[str, str, int]) -> http.client.HTTPConnection:
        """An idle connection to ``key`` the peer has not closed, else a new one."""
        while True:
            with self._lock:
                idle = self._idle.get(key)
                connection = idle.pop() if idle else None
            if connection is None:
                break
            if connection.sock is not None and _is_quiet(connection.sock):
                return connection
            connection.close()
        scheme, host, port = key
        if scheme == "https":
            return http.client.HTTPSConnection(host, port, timeout=self.timeout)
        return http.client.HTTPConnection(host, port, timeout=self.timeout)

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        with self._lock:
            idle = [connection for pool in self._idle.values() for connection in pool]
            self._idle.clear()
        for connection in idle:
            connection.close()


def _is_quiet(sock: socket.socket) -> bool:
    """True when nothing is waiting to be read on an idle connection; a
    readable one has been closed by the peer or carries stray bytes."""
    try:
        return not select.select([sock], [], [], 0)[0]
    except (OSError, ValueError):  # a closed socket, or a descriptor select cannot watch
        return False


def serve_request(node: "Node", request: RelayRequest) -> RelayResponse:
    """Server-side entry shared by both transports.

    Authenticates the access key against the addressed operation, runs the
    node's tool-calling loop, and wraps the outcome in the wire response.
    Error messages carry exception types and identifiers, never dataset
    values.
    """
    from .runtime import handle_operation

    try:
        return RelayResponse.ok(handle_operation(node, request).body)
    except OperationNotFound as exc:
        return RelayResponse.fail("not_found", str(exc))
    except AuthError as exc:
        return RelayResponse.fail("auth", str(exc))
    except FedmeshError as exc:
        return RelayResponse.fail("internal", f"{type(exc).__name__}: {exc}")
    except Exception:
        logger.exception("node=%s operation=%s failed", node.node_id, request.operation_id)
        return RelayResponse.fail("internal", "internal error")


def relay_call(node: "Node", target_name: str, body: str, conversation_id: str) -> str:
    """Call a remote operation on a configured target.

    Order matters: target lookup, outbound guard, then transport. When the
    guard finds protected values the call aborts with ``LeakBlocked`` and
    the transport counters confirm zero bytes were sent. Both the request
    and the response envelope are recorded in the run's trace.
    """
    target = node.relay_targets.get(target_name)
    if target is None:
        raise TargetNotConfigured(
            f"node {node.node_id!r} has no relay target {target_name!r}"
        )
    for mutate in node.outbound_mutators:
        body = mutate(target_name, body)

    edge = (node.node_id, target.name)
    if node.enforce_guard:
        verdict = scan_outbound(body, node.protected_index, edge)
        if not verdict.clean:
            columns = sorted({finding.source_column for finding in verdict.findings})
            raise LeakBlocked(
                f"outbound message {node.node_id}->{target.name} blocked: "
                f"{len(verdict.findings)} protected value(s) from column(s) {', '.join(columns)}",
                verdict.findings,
            )

    def record(from_node: str, to_node: str, body: str) -> None:
        if node.trace is not None:
            node.trace.append(
                from_node=from_node,
                to_node=to_node,
                operation_id=target.operation_id,
                conversation_id=conversation_id,
                body=body,
            )

    request = RelayRequest(
        operation_id=target.operation_id,
        access_key=target.access_key,
        conversation_id=conversation_id,
        body=body,
    )
    record(node.node_id, target.name, body)
    if node.transport is None:
        raise RelayTransportError(f"node {node.node_id!r} has no transport configured")
    logger.debug("relay %s->%s operation=%s chars=%d", node.node_id, target.name, target.operation_id, len(body))
    response = node.transport.send(target, request)

    if response.status == "ok" and response.body is not None:
        record(target.name, node.node_id, response.body)
        return response.body

    code = response.error_code or "internal"
    message = response.error_message or ""
    record(target.name, node.node_id, f"error[{code}]: {message}")
    if code == "auth":
        raise RelayAuthError(f"target {target.name!r} rejected the access key: {message}")
    raise RelayRemoteError(f"target {target.name!r} answered error[{code}]: {message}")


# ---------------------------------------------------------------------------
# Network listener
# ---------------------------------------------------------------------------


class _RelayHandler(BaseHTTPRequestHandler):
    node: "Node"  # set on the subclass built in serve()

    # Keep-alive: one handler thread serves every request on a connection.
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle's algorithm on, each
    # kept-alive response would wait for the peer's delayed ACK.
    disable_nagle_algorithm = True
    # An idle or stalled connection frees its thread after this many seconds.
    timeout = DEFAULT_TIMEOUT_SECONDS

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        raw = self._read_body()
        if raw is None:
            return
        prefix = "/operations/"
        if not self.path.startswith(prefix):
            self._reply(RelayResponse.fail("protocol", f"unknown path {self.path!r}"))
            return
        path_operation = self.path[len(prefix):]
        try:
            request = RelayRequest.from_json(raw.decode("utf-8"))
        except (ValueError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._reply(RelayResponse.fail("protocol", f"malformed request: {exc}"))
            return
        if request.operation_id != path_operation:
            self._reply(
                RelayResponse.fail(
                    "protocol",
                    f"path operation {path_operation!r} does not match body operation {request.operation_id!r}",
                )
            )
            return
        self._reply(serve_request(self.node, request))

    def _read_body(self) -> bytes | None:
        """The request body, or None once the request's framing is refused.

        The body must be declared by a ``Content-Length`` of at most
        ``MAX_REQUEST_BYTES``; otherwise the reply is a ``protocol`` error
        and the connection closes, since the next request's start is unknown.
        """
        declared = self.headers.get("Content-Length", "")
        if "Transfer-Encoding" in self.headers or not (declared.isascii() and declared.isdigit()):
            problem = f"request must declare its length in Content-Length, got {declared!r}"
        elif int(declared) > MAX_REQUEST_BYTES:
            problem = f"request of {declared} bytes exceeds the limit of {MAX_REQUEST_BYTES}"
        else:
            raw = self.rfile.read(int(declared))
            if len(raw) == int(declared):
                return raw
            self.close_connection = True  # the caller hung up mid-body
            return None
        self._reply(RelayResponse.fail("protocol", problem), close=True)
        return None

    def _reply(self, response: RelayResponse, close: bool = False) -> None:
        payload = response.to_json().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("http %s: %s", self.client_address, format % args)


class RelayServer:
    """A running listener; handles each inbound connection in its own
    thread, so a handler awaiting its own outbound relay call never blocks
    new work. A connection stays open for the caller's next request until
    the caller closes it or it idles for ``DEFAULT_TIMEOUT_SECONDS``."""

    def __init__(self, node: "Node", bind_address: tuple[str, int]) -> None:
        handler = type("BoundRelayHandler", (_RelayHandler,), {"node": node})
        self._server = ThreadingHTTPServer(bind_address, handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=f"relay-{node.node_id}", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        # Shutting the listening socket down wakes the listener's select at
        # once, so shutdown() need not wait out serve_forever's 0.5 s poll.
        # Where the platform refuses that for a listening socket, it waits.
        with contextlib.suppress(OSError):
            self._server.socket.shutdown(socket.SHUT_RDWR)
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


def serve(node: "Node", bind_address: tuple[str, int] = ("127.0.0.1", 0)) -> RelayServer:
    """Start a listener for the node's operations on the given address."""
    return RelayServer(node, bind_address)
