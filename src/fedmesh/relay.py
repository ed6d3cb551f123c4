"""Cross-node operation relay.

Wire format: one single-line JSON object per request and per response,
carried over HTTP POST to ``/operations/<operation_id>``. Requests are
``{"operation_id", "access_key", "conversation_id", "body"}``; responses are
``{"status": "ok", "body": ...}`` or
``{"status": "error", "error": {"code", "message"}}`` with codes ``auth``,
``not_found``, ``protocol``, ``blocked``, ``unavailable`` and ``internal``.
Bodies are natural-language text only; no structured record ever rides the
wire. An ``unavailable`` reply, for a downstream call that failed in
transport, carries one fixed text; its cause, which names the peer's
address, stays in the responder's own log.

Calls are least-privilege: a remote operation is reachable only through a
target declared in node config. A target names the destination node, an
operation it exposes and the key that operation takes; it carries no
address, since the transport knows where each node of the deployment is.
The guard and the trace take the edge from the same name. The guard is
``locality.scan_outbound``, the trace checker's own per-envelope check, and
it fails closed on both sides of a call. A request that breaks a rule
raises ``LeakBlocked`` before any bytes leave the node, with nothing sent
and nothing recorded. A reply that breaks one, ``ok`` or error alike, is
answered as ``error[blocked]`` instead, with a message that names rules and
columns but no value.

Over HTTP both sides frame messages by hand, in the subset of HTTP/1.1
(RFC 9112) the relay needs: a POST or a ``200`` response whose body is
framed by ``Content-Length``, head and body sent in one write, no
``Transfer-Encoding``. Both ends read a connection through one reader,
``_Connection``: ``_read_head`` reads every message head and bounds it by
``MAX_LINE_BYTES`` and ``MAX_HEADERS``, and ``_content_length`` refuses a
body over ``MAX_REQUEST_BYTES`` before it is read. A node keeps its
connections to each target alive and reuses them across calls; a request
is still sent at most once. An idle listener connection closes after
``DEFAULT_TIMEOUT_SECONDS``. A reply is decoded strictly: an ``ok`` with a
non-empty text body, or an ``error`` with a non-empty text code and a text
message; anything else fails the call. An error text quotes at most
``QUOTE_CHARS`` characters of what a peer sent.

An in-process loopback transport serves hermetic runs and tests; it hands
each request to the node a target names, still in its JSON wire form, and
both transports answer requests through ``_answer``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import select
import socket
import socketserver
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Protocol

from .errors import (
    AuthError,
    FedmeshError,
    LeakBlocked,
    OperationNotFound,
    RelayAuthError,
    RelayRemoteError,
    RelayTransportError,
    TargetNotConfigured,
)
from .locality import blocked_message, scan_outbound

if TYPE_CHECKING:
    from .runtime import Node

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT_SECONDS = 30.0
MAX_REQUEST_BYTES = 1 << 20
# The text of every ``unavailable`` reply.
UNAVAILABLE_TEXT = "a downstream relay call failed"

# json.dumps(obj, ensure_ascii=False) would build an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _decode(raw: str) -> object:
    """``json.loads``, raising ``ValueError`` for nesting too deep to parse."""
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("nested too deeply") from None


@dataclass(frozen=True)
class RelayTarget:
    """A remote operation this node may call: the id of the node that
    exposes it, the operation's id, and its key."""

    name: str
    operation_id: str
    access_key: str


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
        """The wire form: the dataclass's own fields, in field order."""
        return _encode(vars(self))

    @classmethod
    def from_json(cls, raw: str) -> "RelayRequest":
        record = _decode(raw)
        if not isinstance(record, dict):
            raise ValueError("request must be a JSON object")
        missing = [key for key in _REQUEST_FIELDS if key not in record]
        if missing:
            raise ValueError(f"request missing fields: {', '.join(missing)}")
        values = [record[key] for key in _REQUEST_FIELDS]
        if not all(isinstance(value, str) for value in values):
            raise ValueError("request fields must be strings")
        return cls(*values)


_REQUEST_FIELDS = tuple(field.name for field in dataclasses.fields(RelayRequest))


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
            return _encode({"status": "ok", "body": self.body})
        return _encode({"status": "error", "error": {"code": self.error_code, "message": self.error_message}})

    def trace_body(self) -> str:
        """The reply as its caller records it in the trace."""
        if self.status == "ok" and self.body is not None:
            return self.body
        return f"error[{self.error_code}]: {self.error_message}"

    @classmethod
    def from_json(cls, raw: str) -> "RelayResponse":
        record = _decode(raw)
        status = record.get("status") if isinstance(record, dict) else None
        if status == "ok":
            body = record.get("body")
            if not (isinstance(body, str) and body):
                raise ValueError("ok response must carry a non-empty text body")
            return cls.ok(body)
        if status == "error":
            error = record.get("error")
            code, message = (error.get("code"), error.get("message")) if isinstance(error, dict) else (None, None)
            if not (isinstance(code, str) and code and isinstance(message, str)):
                raise ValueError("error response must carry a non-empty text code and a text message")
            return cls.fail(code, message)
        raise ValueError('response must be a JSON object with a status of "ok" or "error"')


class Transport(Protocol):
    """Carries a request to the node its target names. ``on_send`` is
    called once the transport can write the request, before any of it
    goes out, and not at all if the peer cannot be reached."""

    sends: int
    bytes_sent: int

    def send(
        self, target: RelayTarget, request: RelayRequest, on_send: Callable[[], None] = lambda: None
    ) -> RelayResponse: ...

    def close(self) -> None: ...


class LoopbackTransport:
    """In-process transport for hermetic runs.

    Delivers each request to the node its target names, on a shared bus of
    booted nodes. The request still round-trips through its JSON wire form
    so loopback and network behave identically.
    """

    def __init__(self, bus: Mapping[str, "Node"]) -> None:
        self.bus = bus
        self.sends = 0
        self.bytes_sent = 0

    def send(
        self, target: RelayTarget, request: RelayRequest, on_send: Callable[[], None] = lambda: None
    ) -> RelayResponse:
        node = self.bus[target.name]
        payload = request.to_json().encode("utf-8")
        self.sends += 1
        self.bytes_sent += len(payload)
        on_send()
        return _answer(node, target.operation_id, payload)

    def close(self) -> None:
        pass


class HttpTransport:
    """JSON-over-HTTP POST transport with a 30 s timeout.

    ``addresses`` maps each node id to the ``(host, port)`` of its
    listener; a request goes to the address of the node its target names,
    at ``/operations/<operation_id>``. An operation id holding a space, a
    control character or a non-ASCII character is refused before anything
    is sent. Speaks the listener's subset of HTTP/1.1 by hand (see
    ``_read_head``): each request goes out as one write of head and body,
    and only a ``200`` response whose body is framed by ``Content-Length``
    is accepted. Connections are kept alive and pooled per ``(host,
    port)``: a call takes an idle connection, or opens one with Nagle's
    algorithm off, and returns it once the whole response is read and
    decoded, so concurrent conversations each hold their own. An idle
    connection the peer has closed is dropped before use, and one is never
    pooled after ``Connection: close`` or an HTTP/1.0 response. A request
    is never sent twice: any failure closes its connection and raises
    ``RelayTransportError``. ``on_send`` runs once a connection is open or
    checked out, before the request is written; ``sends`` and
    ``bytes_sent`` count a request once a connected socket has taken all
    of it. Proxy environment variables are not consulted.
    """

    def __init__(
        self, addresses: Mapping[str, tuple[str, int]], timeout: float = DEFAULT_TIMEOUT_SECONDS
    ) -> None:
        self.addresses = addresses
        self.timeout = timeout
        self.sends = 0
        self.bytes_sent = 0
        self._routes: dict[RelayTarget, _Route] = {}
        self._idle: dict[tuple[str, int], list[_Connection]] = {}
        self._lock = threading.Lock()

    def send(
        self, target: RelayTarget, request: RelayRequest, on_send: Callable[[], None] = lambda: None
    ) -> RelayResponse:
        route = self._routes.get(target) or self._routes.setdefault(target, self._route(target))
        payload = request.to_json().encode("utf-8")
        connection = self._checkout(route.address)
        try:
            if connection is None:
                connection = self._open(route.address)
            on_send()
            connection.sock.sendall(route.head + b"%d\r\n\r\n" % len(payload) + payload)
            with self._lock:
                self.sends += 1
                self.bytes_sent += len(payload)
            raw, reusable = _read_response(connection)
        except (OSError, ValueError) as exc:
            if connection is not None:
                connection.close()
            raise RelayTransportError(f"relay transport failed for {route.where}: {exc}") from exc
        try:
            response = RelayResponse.from_json(raw.decode("utf-8"))
        except ValueError as exc:
            connection.close()
            raise RelayTransportError(f"malformed relay response from {route.where}: {exc}") from exc
        if reusable:
            with self._lock:
                self._idle.setdefault(route.address, []).append(connection)
        else:
            connection.close()
        return response

    def _route(self, target: RelayTarget) -> _Route:
        """The address of the node ``target`` names, and the head of a
        request for its operation."""
        host, port = address = self.addresses[target.name]
        selector = f"/operations/{target.operation_id}"
        try:
            if any(char <= " " or char == "\x7f" for char in selector):
                raise ValueError("a space or control character in the request target")
            head = (
                f"POST {selector} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                "Content-Type: application/json\r\nContent-Length: "
            ).encode("ascii")
        except ValueError as exc:
            raise RelayTransportError(
                f"relay transport cannot send operation {target.operation_id[:QUOTE_CHARS]!r}: {exc}"
            ) from exc
        return _Route(f"{selector} on node {target.name!r} at {host}:{port}", address, head)

    def _checkout(self, address: tuple[str, int]) -> _Connection | None:
        """An idle connection to ``address`` the peer has not closed, if any."""
        while True:
            with self._lock:
                idle = self._idle.get(address)
                connection = idle.pop() if idle else None
            if connection is None or _is_quiet(connection.sock):
                return connection
            connection.close()

    def _open(self, address: tuple[str, int]) -> _Connection:
        sock = socket.create_connection(address, timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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

    where: str  # the path, node and address, as error texts name them
    address: tuple[str, int]  # the listener's, and the connection pool's key
    head: bytes  # the request head, up to the value of its Content-Length


class _Connection:
    """A socket and the bytes received on it but not yet read; both ends
    read through one. ``readline`` and ``read`` behave as a buffered
    reader's do; unlike one, this shows whether bytes are left over once a
    response is read."""

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
        raise _FramingError(f"malformed status line {_quote(start)}")
    if status.partition(" ")[0] != "200":
        raise _FramingError(f"HTTP Error {status[:QUOTE_CHARS]}")
    length = _content_length(headers, "response")
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
# The most characters of a peer's text that an error message quotes.
QUOTE_CHARS = 80


class _FramingError(ValueError):
    """A message head the relay refuses to frame."""


def _read_head(connection: _Connection) -> tuple[str, dict[str, str]] | None:
    """The start line and header fields of the next message, or None if the
    stream ends before it starts.

    Header names are lower-cased; a repeated field's values are joined with
    ``", "``. A body is framed only by ``Content-Length``, so a
    ``Transfer-Encoding`` field, a second ``Content-Length`` or a folded
    line is refused, as is a line over ``MAX_LINE_BYTES`` or a head of more
    than ``MAX_HEADERS`` fields.
    """
    first = connection.readline(MAX_LINE_BYTES + 1)
    if not first:
        return None
    start = _line(first).decode("latin-1")
    headers: dict[str, str] = {}
    lines = 0
    while line := _line(connection.readline(MAX_LINE_BYTES + 1)):
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


def _content_length(headers: Mapping[str, str], what: str) -> int:
    """The body length a message declares in its one ``Content-Length``, at
    most ``MAX_REQUEST_BYTES``; ``what`` names the message in the error."""
    declared = headers.get("content-length", "")
    if not (declared.isascii() and declared.isdigit()):
        raise _FramingError(f"a message must declare its length in Content-Length, got {_quote(declared)}")
    # Count the digits first: int() of a long digit string is slow, and
    # refused past sys.get_int_max_str_digits().
    digits = declared.lstrip("0") or "0"
    if len(digits) > len(str(MAX_REQUEST_BYTES)) or int(digits) > MAX_REQUEST_BYTES:
        raise _FramingError(f"{what} of {digits[:QUOTE_CHARS]} bytes exceeds the limit of {MAX_REQUEST_BYTES}")
    return int(digits)


def _quote(text: str) -> str:
    """The first ``QUOTE_CHARS`` characters of a peer's text, quoted."""
    return repr(text[:QUOTE_CHARS])


def _closes(headers: Mapping[str, str]) -> bool:
    """True when the message's ``Connection`` field carries ``close``."""
    return "close" in (token.strip().lower() for token in headers.get("connection", "").split(","))


def _answer(node: "Node", operation_id: str, raw: bytes) -> RelayResponse:
    """Decode a request sent to ``operation_id`` and answer it, for both
    transports. A body that does not decode to a request for that operation
    is answered with a ``protocol`` error."""
    try:
        request = RelayRequest.from_json(raw.decode("utf-8"))
    except ValueError as exc:
        return RelayResponse.fail("protocol", f"malformed request: {exc}")
    if request.operation_id != operation_id:
        return RelayResponse.fail(
            "protocol",
            f"path operation {_quote(operation_id)} does not match body operation {_quote(request.operation_id)}",
        )
    return serve_request(node, request)


def serve_request(node: "Node", request: RelayRequest) -> RelayResponse:
    """Server-side entry shared by both transports.

    Authenticates the access key against the addressed operation, runs the
    node's tool-calling loop, and wraps the outcome in the wire response.
    A downstream call that failed in transport is answered as
    ``unavailable`` and logged with its cause, keyed by conversation.
    The reply, exactly as the caller will record it, then passes the guard
    on its edge back to the operation's declared caller; one that breaks a
    locality rule is answered as ``error[blocked]``. An operation no
    declared relay target calls, such as the entry operation, has no reply
    edge and is not inspected.
    """
    from .runtime import handle_operation

    try:
        response = RelayResponse.ok(handle_operation(node, request))
    except OperationNotFound as exc:
        response = RelayResponse.fail("not_found", str(exc))
    except AuthError as exc:
        response = RelayResponse.fail("auth", str(exc))
    except RelayTransportError as exc:
        logger.warning(
            "node=%s conversation=%s operation=%s: %s", node.node_id, request.conversation_id, request.operation_id, exc
        )
        response = RelayResponse.fail("unavailable", UNAVAILABLE_TEXT)
    except FedmeshError as exc:
        response = RelayResponse.fail("internal", f"{type(exc).__name__}: {exc}")
    except Exception:
        logger.exception("node=%s operation=%s failed", node.node_id, request.operation_id)
        response = RelayResponse.fail("internal", "internal error")

    caller = node.topology.callers.get((node.node_id, request.operation_id))
    if caller is None or not node.enforce_guard:
        return response
    edge = (node.node_id, caller)
    findings = scan_outbound(response.trace_body(), node.protected_index, edge, node.topology)
    if findings:
        return RelayResponse.fail("blocked", blocked_message(edge, findings))
    return response


def relay_call(node: "Node", target_name: str, body: str, conversation_id: str) -> str:
    """Call a remote operation on a configured target.

    Order matters: target lookup, guard, then transport. When the guard
    finds a broken rule the call aborts with ``LeakBlocked`` and the
    transport counters confirm zero bytes were sent. The request is
    recorded in the run's trace once the transport can write it, so a
    request refused at connect is not recorded; the response envelope is
    recorded when it arrives.
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
        findings = scan_outbound(body, node.protected_index, edge, node.topology)
        if findings:
            raise LeakBlocked(blocked_message(edge, findings), tuple(findings))

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
    if node.transport is None:
        raise RelayTransportError(f"node {node.node_id!r} has no transport configured")
    logger.debug("relay %s->%s operation=%s chars=%d", node.node_id, target.name, target.operation_id, len(body))
    response = node.transport.send(target, request, lambda: record(node.node_id, target.name, body))
    record(target.name, node.node_id, response.trace_body())

    if response.status == "ok" and response.body is not None:
        return response.body
    if response.error_code == "auth":
        raise RelayAuthError(f"target {target.name!r} rejected the access key: {response.error_message}")
    raise RelayRemoteError(f"target {target.name!r} answered {response.trace_body()}")


# ---------------------------------------------------------------------------
# Network listener
# ---------------------------------------------------------------------------


class _RelayHandler(socketserver.BaseRequestHandler):
    """Serves the requests on one connection in turn until one closes it."""

    server: "RelayServer"
    # An idle or stalled connection frees its thread after this many seconds.
    timeout = DEFAULT_TIMEOUT_SECONDS

    def handle(self) -> None:
        with contextlib.suppress(OSError):  # the peer hung up, or idled past the timeout
            self.request.settimeout(self.timeout)
            # Replies are small writes; with Nagle's algorithm on, one sent while
            # an earlier write is unacknowledged waits for the peer's delayed ACK.
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self.request)
            while self._serve_one(connection):
                pass

    def _serve_one(self, connection: _Connection) -> bool:
        """Read and answer one request; False once the connection must close.

        A request whose framing is refused is answered with a ``protocol``
        error and the connection closes, since the next request's start is
        unknown. The body is read before the path is checked, so a wrong
        path leaves the connection usable.
        """
        try:
            head = _read_head(connection)
            if head is None:
                return False
            start, headers = head
            words = start.split(" ")
            if len(words) != 3:
                raise _FramingError(f"malformed request line {_quote(start)}")
            method, path, version = words
            if version not in ("HTTP/1.1", "HTTP/1.0"):
                raise _FramingError(f"unsupported protocol version {_quote(version)}")
            if method != "POST":
                raise _FramingError(f"method {_quote(method)} is not accepted; use POST")
            length = _content_length(headers, "request")
        except _FramingError as exc:
            self._reply(RelayResponse.fail("protocol", str(exc)), close=True)
            return False
        if version == "HTTP/1.1" and headers.get("expect", "").lower() == "100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = connection.read(length)
        if len(raw) < length:
            return False  # the caller hung up mid-body
        close = version == "HTTP/1.0" or _closes(headers)
        prefix = "/operations/"
        if path.startswith(prefix):
            response = _answer(self.server.node, path[len(prefix):], raw)
        else:
            response = RelayResponse.fail("protocol", f"unknown path {_quote(path)}")
        self._reply(response, close)
        return not close

    def _reply(self, response: RelayResponse, close: bool) -> None:
        """Send the response's head and body in one write."""
        payload = response.to_json().encode("utf-8")
        self.request.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
            % (len(payload), b"Connection: close\r\n" if close else b"", payload)
        )


class RelayServer(socketserver.ThreadingTCPServer):
    """A running listener for one node; handles each inbound connection in
    its own thread, so a handler awaiting its own outbound relay call never
    blocks new work. A connection serves its requests in turn, pipelined
    ones included, and stays open for the caller's next request until the
    caller closes it, asks for ``Connection: close``, speaks HTTP/1.0 or
    idles for ``DEFAULT_TIMEOUT_SECONDS``. Only POST is served; ``Expect:
    100-continue`` gets an interim ``100 Continue``. A request whose framing
    is refused (see ``_read_head``; a missing, malformed or over-limit
    ``Content-Length``; another method) is answered with a ``protocol``
    error and the connection closes. Responses carry no ``Server`` or
    ``Date`` field and go out as one write."""

    # A configured port can be bound again while the last run's connections
    # linger in TIME_WAIT.
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, node: "Node", bind_address: tuple[str, int]) -> None:
        self.node = node
        super().__init__(bind_address, _RelayHandler)
        self._thread = threading.Thread(target=self.serve_forever, name=f"relay-{node.node_id}", daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def close(self) -> None:
        # Shutting the listening socket down wakes the listener's select at
        # once, so shutdown() need not wait out serve_forever's 0.5 s poll.
        # Where the platform refuses that for a listening socket, it waits.
        with contextlib.suppress(OSError):
            self.socket.shutdown(socket.SHUT_RDWR)
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


def serve(node: "Node", bind_address: tuple[str, int] = ("127.0.0.1", 0)) -> RelayServer:
    """Start a listener for the node's operations on the given address."""
    return RelayServer(node, bind_address)
