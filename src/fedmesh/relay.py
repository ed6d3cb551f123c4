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

Over HTTP both sides frame messages by hand, in the subset of HTTP/1.1
(RFC 9112) the relay needs: a POST or a ``200`` response whose body is
framed by ``Content-Length``, head and body sent in one write, no
``Transfer-Encoding``. ``_read_head`` reads every message head for both
sides and bounds it by ``MAX_LINE_BYTES`` and ``MAX_HEADERS``. A node keeps
its connections to each target alive and reuses them across calls; a
request is still sent at most once. The listener bounds what it reads: a
request must declare a ``Content-Length`` of at most ``MAX_REQUEST_BYTES``,
and an idle connection closes after ``DEFAULT_TIMEOUT_SECONDS``.

An in-process loopback transport serves hermetic runs and tests; requests
still round-trip through their JSON wire form.
"""

from __future__ import annotations

import contextlib
import json
import logging
import select
import socket
import socketserver
import ssl
import threading
import urllib.parse
from dataclasses import dataclass
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

    Speaks the listener's subset of HTTP/1.1 by hand (see ``_read_head``):
    each request goes out as one write of head and body, and only a ``200``
    response whose body is framed by ``Content-Length`` is accepted.
    Connections are kept alive and pooled per ``(scheme, host, port)``: a
    call takes an idle connection, or opens one with Nagle's algorithm off,
    and returns it once the whole response is read, so concurrent
    conversations each hold their own. An idle connection the peer has
    closed is dropped before use, and one is never pooled after
    ``Connection: close`` or an HTTP/1.0 response. A request is never sent
    twice: any failure closes its connection and raises
    ``RelayTransportError``. Proxy environment variables are not consulted.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT_SECONDS) -> None:
        self.timeout = timeout
        self.sends = 0
        self.bytes_sent = 0
        self._routes: dict[RelayTarget, _Route] = {}
        self._idle: dict[tuple[str, str, int], list[_Connection]] = {}
        self._lock = threading.Lock()
        self._tls: ssl.SSLContext | None = None

    def send(self, target: RelayTarget, request: RelayRequest) -> RelayResponse:
        route = self._routes.get(target) or self._routes.setdefault(target, _route(target))
        payload = request.to_json().encode("utf-8")
        connection = self._checkout(route.key)
        with self._lock:
            self.sends += 1
            self.bytes_sent += len(payload)
        try:
            if connection is None:
                connection = self._open(route.key)
            connection.sock.sendall(route.head + b"%d\r\n\r\n" % len(payload) + payload)
            raw, reusable = _read_response(connection)
        except (OSError, ValueError) as exc:
            if connection is not None:
                connection.close()
            raise RelayTransportError(f"relay transport failed for {route.url}: {exc}") from exc
        if reusable:
            with self._lock:
                self._idle.setdefault(route.key, []).append(connection)
        else:
            connection.close()
        try:
            return RelayResponse.from_json(raw.decode("utf-8"))
        except (ValueError, json.JSONDecodeError) as exc:
            raise RelayTransportError(f"malformed relay response from {route.url}: {exc}") from exc

    def _checkout(self, key: tuple[str, str, int]) -> _Connection | None:
        """An idle connection to ``key`` the peer has not closed, if any."""
        while True:
            with self._lock:
                idle = self._idle.get(key)
                connection = idle.pop() if idle else None
            if connection is None or _is_quiet(connection.sock):
                return connection
            connection.close()

    def _open(self, key: tuple[str, str, int]) -> _Connection:
        scheme, host, port = key
        sock = socket.create_connection((host, port), timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                if self._tls is None:
                    self._tls = ssl.create_default_context()
                sock = self._tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        with self._lock:
            idle = [connection for pool in self._idle.values() for connection in pool]
            self._idle.clear()
        for connection in idle:
            connection.close()


@dataclass(frozen=True)
class _Route:
    """Where a target's requests go, worked out once per target."""

    url: str
    key: tuple[str, str, int]  # (scheme, host, port): the connection pool
    head: bytes  # the request head, up to the value of its Content-Length


def _route(target: RelayTarget) -> _Route:
    url = f"{target.url.rstrip('/')}/operations/{target.operation_id}"
    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port or (443 if parts.scheme == "https" else 80)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError("not an http or https URL with a host")
        selector = f"{parts.path}?{parts.query}" if parts.query else parts.path
        host = parts.netloc.rpartition("@")[2]
        if any(char <= " " or char == "\x7f" for char in selector + host):
            raise ValueError("a space or control character in the request target or host")
        head = (
            f"POST {selector} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
    except ValueError as exc:
        raise RelayTransportError(f"relay transport cannot reach url {target.url!r}: {exc}") from exc
    return _Route(url, (parts.scheme, parts.hostname, port), head)


class _Connection:
    """A client socket and the bytes received on it but not yet read.

    ``readline`` and ``read`` behave as a buffered reader's do, so
    ``_read_head`` reads either side's messages; unlike one, this shows
    whether bytes are left over once a response is read.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()

    def readline(self, limit: int) -> bytes:
        """Bytes up to and including the next LF, at most ``limit`` of them;
        fewer, without the LF, if the stream ends first."""
        while True:
            end = self.buffer.find(b"\n", 0, limit)
            if end >= 0:
                return self._take(end + 1)
            if len(self.buffer) >= limit or not self._receive():
                return self._take(limit)

    def read(self, size: int) -> bytes:
        """``size`` bytes, or fewer if the stream ends first."""
        while len(self.buffer) < size and self._receive():
            pass
        return self._take(size)

    def _receive(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def _take(self, size: int) -> bytes:
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data

    def close(self) -> None:
        self.sock.close()


def _read_response(connection: _Connection) -> tuple[bytes, bool]:
    """The body of a ``200`` response, and whether the connection may carry
    another request. Raises ``_FramingError`` for any other response."""
    head = _read_head(connection)
    if head is None:
        raise _FramingError("connection closed before a response")
    start, headers = head
    version, _, status = start.partition(" ")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise _FramingError(f"malformed status line {start!r}")
    if status.partition(" ")[0] != "200":
        raise _FramingError(f"HTTP Error {status}")
    length = _content_length(headers)
    body = connection.read(length)
    if len(body) < length:
        raise _FramingError("connection closed inside the response body")
    if connection.buffer:
        raise _FramingError("bytes after the response body")
    return body, version == "HTTP/1.1" and not _closes(headers)


def _is_quiet(sock: socket.socket) -> bool:
    """True when nothing is waiting to be read on an idle connection; a
    readable one has been closed by the peer or carries stray bytes."""
    try:
        return not select.select([sock], [], [], 0)[0]
    except (OSError, ValueError):  # a closed socket, or a descriptor select cannot watch
        return False


# ---------------------------------------------------------------------------
# HTTP/1.1 message heads (RFC 9112), the subset both sides speak
# ---------------------------------------------------------------------------

# As in http.server: the longest line, CRLF included, and the most header lines.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


class _FramingError(ValueError):
    """A message head the relay refuses to frame."""


class _LineReader(Protocol):
    def readline(self, limit: int, /) -> bytes: ...


def _read_head(reader: _LineReader) -> tuple[str, dict[str, str]] | None:
    """The start line and header fields of the next message, or None if the
    stream ends before it starts.

    Header names are lower-cased; a repeated field's values are joined with
    ``", "``. A body is framed only by ``Content-Length``, so a
    ``Transfer-Encoding`` field, a second ``Content-Length`` or a folded
    line is refused, as is a line over ``MAX_LINE_BYTES`` or a head of more
    than ``MAX_HEADERS`` fields.
    """
    first = reader.readline(MAX_LINE_BYTES + 1)
    if not first:
        return None
    start = _line(first).decode("latin-1")
    headers: dict[str, str] = {}
    lines = 0
    while line := _line(reader.readline(MAX_LINE_BYTES + 1)):
        lines += 1
        if lines > MAX_HEADERS:
            raise _FramingError(f"more than {MAX_HEADERS} header lines")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise _FramingError("malformed or folded header line")
        name = name.lower()
        if name == "transfer-encoding":
            raise _FramingError("Transfer-Encoding is not accepted; declare Content-Length")
        value = value.strip(" \t")
        if name in headers:
            if name == "content-length":
                raise _FramingError("more than one Content-Length")
            value = f"{headers[name]}, {value}"
        headers[name] = value
    return start, headers


def _line(raw: bytes) -> bytes:
    """A head line without its line ending."""
    if len(raw) > MAX_LINE_BYTES:
        raise _FramingError(f"head line longer than {MAX_LINE_BYTES} bytes")
    if not raw.endswith(b"\n"):
        raise _FramingError("stream ended inside a message head")
    return raw[:-2] if raw.endswith(b"\r\n") else raw[:-1]


def _content_length(headers: Mapping[str, str]) -> int:
    """The body length a message declares in its one ``Content-Length``."""
    declared = headers.get("content-length", "")
    if not (declared.isascii() and declared.isdigit()):
        raise _FramingError(f"a message must declare its length in Content-Length, got {declared!r}")
    return int(declared)


def _closes(headers: Mapping[str, str]) -> bool:
    """True when the message's ``Connection`` field carries ``close``."""
    return "close" in (token.strip().lower() for token in headers.get("connection", "").split(","))


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


class _RelayHandler(socketserver.StreamRequestHandler):
    node: "Node"  # set on the subclass built in serve()

    # Responses are small writes; with Nagle's algorithm on, one sent while
    # an earlier write is unacknowledged waits for the peer's delayed ACK.
    disable_nagle_algorithm = True
    # An idle or stalled connection frees its thread after this many seconds.
    timeout = DEFAULT_TIMEOUT_SECONDS

    def handle(self) -> None:
        """Serve the requests on this connection in turn until one closes it."""
        with contextlib.suppress(OSError):  # the peer hung up, or idled past the timeout
            while self._serve_one():
                pass

    def _serve_one(self) -> bool:
        """Read and answer one request; False once the connection must close.

        A request whose framing is refused is answered with a ``protocol``
        error and the connection closes, since the next request's start is
        unknown. The body is read before the path is checked, so a wrong
        path leaves the connection usable.
        """
        try:
            head = _read_head(self.rfile)
            if head is None:
                return False
            start, headers = head
            words = start.split(" ")
            if len(words) != 3:
                raise _FramingError(f"malformed request line {start[:80]!r}")
            method, path, version = words
            if version not in ("HTTP/1.1", "HTTP/1.0"):
                raise _FramingError(f"unsupported protocol version {version!r}")
            if method != "POST":
                raise _FramingError(f"method {method!r} is not accepted; use POST")
            length = _content_length(headers)
            if length > MAX_REQUEST_BYTES:
                raise _FramingError(f"request of {length} bytes exceeds the limit of {MAX_REQUEST_BYTES}")
        except ValueError as exc:  # _FramingError, or a Content-Length too long for int()
            self._reply(RelayResponse.fail("protocol", str(exc)), close=True)
            return False
        if version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
        if len(raw) < length:
            return False  # the caller hung up mid-body
        close = version == "HTTP/1.0" or _closes(headers)
        self._reply(self._answer(path, raw), close)
        return not close

    def _answer(self, path: str, raw: bytes) -> RelayResponse:
        prefix = "/operations/"
        if not path.startswith(prefix):
            return RelayResponse.fail("protocol", f"unknown path {path!r}")
        path_operation = path[len(prefix):]
        try:
            request = RelayRequest.from_json(raw.decode("utf-8"))
        except (ValueError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            return RelayResponse.fail("protocol", f"malformed request: {exc}")
        if request.operation_id != path_operation:
            return RelayResponse.fail(
                "protocol",
                f"path operation {path_operation!r} does not match body operation {request.operation_id!r}",
            )
        return serve_request(self.node, request)

    def _reply(self, response: RelayResponse, close: bool) -> None:
        """Write the response's head and body in one write."""
        payload = response.to_json().encode("utf-8")
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
            % (len(payload), b"Connection: close\r\n" if close else b"", payload)
        )


class _Listener(socketserver.ThreadingTCPServer):
    # A configured port can be bound again while the last run's connections
    # linger in TIME_WAIT.
    allow_reuse_address = True
    daemon_threads = True


class RelayServer:
    """A running listener; handles each inbound connection in its own
    thread, so a handler awaiting its own outbound relay call never blocks
    new work. A connection serves its requests in turn, pipelined ones
    included, and stays open for the caller's next request until the caller
    closes it, asks for ``Connection: close``, speaks HTTP/1.0 or idles for
    ``DEFAULT_TIMEOUT_SECONDS``. Only POST is served; ``Expect:
    100-continue`` gets an interim ``100 Continue``. A request whose framing
    is refused (see ``_read_head``; a missing, malformed or over-limit
    ``Content-Length``; another method) is answered with a ``protocol``
    error and the connection closes. Responses carry no ``Server`` or
    ``Date`` field and go out as one write."""

    def __init__(self, node: "Node", bind_address: tuple[str, int]) -> None:
        handler = type("BoundRelayHandler", (_RelayHandler,), {"node": node})
        self._server = _Listener(bind_address, handler)
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
