from __future__ import annotations

import contextlib
import dataclasses
import json
import socket
import sys
import threading
import time
import urllib.request

import pytest

from fedmesh.errors import (
    ConfigError,
    LeakBlocked,
    RelayAuthError,
    RelayTransportError,
    TargetNotConfigured,
)
from fedmesh import relay
from fedmesh.fixtures import CANONICAL_REQUEST
from fedmesh.policies import (
    Appropriateness,
    CoverageStatus,
    SpecialistConsult,
    parse_verdict_fields,
    render_consult,
)
from fedmesh.datastore import SymptomClass
from fedmesh.relay import (
    DEFAULT_TIMEOUT_SECONDS,
    MAX_REQUEST_BYTES,
    HttpTransport,
    RelayRequest,
    RelayResponse,
    RelayTarget,
    relay_call,
    serve,
    serve_request,
)
from fedmesh.scenario import boot_scenario


def _consult_body() -> str:
    return render_consult(
        SpecialistConsult(
            symptom_class=SymptomClass.MODERATE,
            duration_weeks=12,
            functional_limitation="difficulty stairs",
            prior_tx=("NSAID_2_weeks",),
            proposed_treatment="conservative_management",
        )
    )


@pytest.fixture()
def scenario(workspace):
    booted = boot_scenario(workspace.node_configs, run_id="run-relay")
    yield booted
    booted.close()


# --- wire format ---


def test_request_json_round_trip():
    request = RelayRequest("op", "key", "conv", "body text")
    assert RelayRequest.from_json(request.to_json()) == request
    assert "\n" not in request.to_json()


def test_request_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        RelayRequest.from_json('{"operation_id": "op"}')


def test_request_json_rejects_empty_body():
    with pytest.raises(ValueError):
        RelayRequest.from_json(
            '{"operation_id": "op", "access_key": "k", "conversation_id": "c", "body": ""}'
        )


def test_response_json_round_trip():
    ok = RelayResponse.ok("verdict")
    assert RelayResponse.from_json(ok.to_json()) == ok
    failed = RelayResponse.fail("auth", "bad key")
    parsed = RelayResponse.from_json(failed.to_json())
    assert parsed.status == "error"
    assert parsed.error_code == "auth"


def test_relay_target_requires_all_fields():
    with pytest.raises(ConfigError):
        RelayTarget(name="x", url="", operation_id="op", access_key="k")


# --- server-side auth and dispatch ---


def test_serve_request_ok(scenario):
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    response = serve_request(scenario.nodes["specialist"], request)
    assert response.status == "ok"
    assert "Recommendation:" in response.body


def test_serve_request_wrong_key(scenario):
    request = RelayRequest("specialist_consult", "wrong-key", "c1", _consult_body())
    response = serve_request(scenario.nodes["specialist"], request)
    assert response.status == "error"
    assert response.error_code == "auth"


def test_serve_request_unknown_operation(scenario):
    request = RelayRequest("no_such_op", "specialist-demo-key-0003", "c1", _consult_body())
    response = serve_request(scenario.nodes["specialist"], request)
    assert response.error_code == "not_found"


# --- relay_call guard rails ---


def test_target_not_configured_sends_nothing(scenario):
    clinic = scenario.nodes["clinic"]
    before = clinic.transport.sends
    with pytest.raises(TargetNotConfigured):
        relay_call(clinic, "other_insurer", "hello", "c1")
    assert clinic.transport.sends == before


def test_leak_blocked_sends_nothing_and_records_nothing(scenario):
    clinic = scenario.nodes["clinic"]
    body = "inquiry mentioning Marina Kovacs directly"
    before = (clinic.transport.sends, clinic.transport.bytes_sent, len(scenario.trace.envelopes))
    with pytest.raises(LeakBlocked) as err:
        relay_call(clinic, "insurer", body, "c1")
    after = (clinic.transport.sends, clinic.transport.bytes_sent, len(scenario.trace.envelopes))
    assert before == after
    assert "Marina Kovacs" not in str(err.value)  # message names columns, not values
    assert err.value.findings[0].offending_value == "Marina Kovacs"


def test_leak_blocked_respects_bypass_hook(scenario):
    clinic = scenario.nodes["clinic"]
    clinic.enforce_guard = False
    try:
        # the insurer cannot parse this body, but the send itself goes through
        reply = relay_call(clinic, "insurer", "body with Marina Kovacs", "c1")
    finally:
        clinic.enforce_guard = True
    assert "Unable to process" in reply
    assert any("Marina Kovacs" in env.body for env in scenario.trace.envelopes)


def test_relay_auth_error_on_tampered_key(scenario):
    insurer = scenario.nodes["insurer"]
    target = insurer.relay_targets["specialist"]
    insurer.relay_targets["specialist"] = dataclasses.replace(target, access_key="tampered")
    try:
        with pytest.raises(RelayAuthError):
            relay_call(insurer, "specialist", _consult_body(), "c1")
    finally:
        insurer.relay_targets["specialist"] = target


def test_default_timeout_is_thirty_seconds():
    assert HttpTransport().timeout == DEFAULT_TIMEOUT_SECONDS == 30.0


# --- network listener ---


@pytest.fixture()
def specialist_server(scenario):
    server = serve(scenario.nodes["specialist"])
    yield server
    server.close()


def _post_raw(url: str, payload: bytes) -> dict:
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return json.loads(response.read().decode("utf-8"))


def test_http_end_to_end(specialist_server):
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    record = _post_raw(
        specialist_server.url + "/operations/specialist_consult",
        request.to_json().encode("utf-8"),
    )
    assert record["status"] == "ok"
    assert "Recommendation:" in record["body"]


def test_http_truncated_json_is_protocol_error(specialist_server):
    record = _post_raw(
        specialist_server.url + "/operations/specialist_consult",
        b'{"operation_id": "specialist_consult", "access',
    )
    assert record["status"] == "error"
    assert record["error"]["code"] == "protocol"


def test_http_path_body_mismatch_is_protocol_error(specialist_server):
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    record = _post_raw(
        specialist_server.url + "/operations/other_operation",
        request.to_json().encode("utf-8"),
    )
    assert record["error"]["code"] == "protocol"


def test_http_wrong_key_is_auth_error(specialist_server):
    request = RelayRequest("specialist_consult", "nope", "c1", _consult_body())
    record = _post_raw(
        specialist_server.url + "/operations/specialist_consult",
        request.to_json().encode("utf-8"),
    )
    assert record["error"]["code"] == "auth"


def test_transport_transparency(scenario, specialist_server):
    """The body the caller gets is byte-identical to what the node produced."""
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    direct = serve_request(scenario.nodes["specialist"], request)
    transport = HttpTransport()
    target = RelayTarget(
        name="specialist",
        url=specialist_server.url,
        operation_id="specialist_consult",
        access_key="specialist-demo-key-0003",
    )
    try:
        over_http = transport.send(target, request)
    finally:
        transport.close()
    assert over_http.status == "ok"
    assert over_http.body == direct.body


def test_transport_error_on_unreachable_port(scenario, specialist_server):
    host, port = specialist_server.address
    specialist_server.close()
    transport = HttpTransport(timeout=2)
    target = RelayTarget(
        name="specialist",
        url=f"http://{host}:{port}",
        operation_id="specialist_consult",
        access_key="specialist-demo-key-0003",
    )
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    with pytest.raises(RelayTransportError):
        transport.send(target, request)


# --- kept-alive connections ---


def _consult_request() -> RelayRequest:
    return RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())


def _specialist_target(url: str) -> RelayTarget:
    return RelayTarget(
        name="specialist",
        url=url,
        operation_id="specialist_consult",
        access_key="specialist-demo-key-0003",
    )


def _count_accepts(server) -> list:
    """Record each connection the listener accepts."""
    accepted = []
    get_request = server._server.get_request

    def counting():
        connection = get_request()
        accepted.append(connection[1])
        return connection

    server._server.get_request = counting
    return accepted


def test_http_transport_reuses_one_connection(specialist_server):
    accepted = _count_accepts(specialist_server)
    transport = HttpTransport()
    target = _specialist_target(specialist_server.url)
    try:
        for _ in range(20):
            assert transport.send(target, _consult_request()).status == "ok"
    finally:
        transport.close()
    assert transport.sends == 20
    assert len(accepted) == 1


def test_http_transport_replaces_connection_the_server_closed(specialist_server, monkeypatch):
    """An idle connection the listener timed out is dropped before use, and
    no request is sent twice."""
    monkeypatch.setattr(specialist_server._server.RequestHandlerClass, "timeout", 0.2)
    served = []
    original = relay.serve_request

    def counting(node, request):
        served.append(request)
        return original(node, request)

    monkeypatch.setattr(relay, "serve_request", counting)
    accepted = _count_accepts(specialist_server)
    transport = HttpTransport()
    target = _specialist_target(specialist_server.url)
    try:
        assert transport.send(target, _consult_request()).status == "ok"
        time.sleep(0.6)
        assert transport.send(target, _consult_request()).status == "ok"
        assert transport.send(target, _consult_request()).status == "ok"
    finally:
        transport.close()
    assert len(served) == 3
    assert len(accepted) == 2


def test_http_transport_concurrent_sends_each_hold_a_connection(specialist_server):
    accepted = _count_accepts(specialist_server)
    transport = HttpTransport()
    target = _specialist_target(specialist_server.url)
    statuses = []

    def converse():
        for _ in range(10):
            statuses.append(transport.send(target, _consult_request()).status)

    workers = [threading.Thread(target=converse) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(worker.is_alive() for worker in workers)
        assert statuses == ["ok"] * 80
        assert (transport.sends, transport.bytes_sent) == (80, 80 * len(_consult_request().to_json().encode()))
        # every connection opened is back in the pool, once
        idle = [connection for pool in transport._idle.values() for connection in pool]
        assert len({id(connection) for connection in idle}) == len(idle) == len(accepted) <= 8
    finally:
        transport.close()


@pytest.mark.parametrize(
    "url",
    ["local:insurer", "ftp://127.0.0.1/x", "http://", "http://127.0.0.1:99999",
     "http://127.0.0.1/a b", "http://127.0.0.1/a\x00b", "http://127.0.0.1/a\x7fb"],
)
def test_http_transport_rejects_unusable_url_before_sending(url):
    transport = HttpTransport()
    with pytest.raises(RelayTransportError):
        transport.send(_specialist_target(url), _consult_request())
    assert (transport.sends, transport.bytes_sent) == (0, 0)


def test_closing_a_network_scenario_ends_its_threads(workspace):
    before = threading.active_count()
    scenario = boot_scenario(workspace.node_configs, transport="network", run_id="run-relay-threads")
    try:
        for _ in range(20):
            scenario.submit(CANONICAL_REQUEST)
        # three listeners, plus one handler per kept-alive connection:
        # clinic -> insurer and insurer -> specialist
        assert threading.active_count() == before + 5
    finally:
        scenario.close()
    deadline = time.monotonic() + 5
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == before


def test_closing_a_network_scenario_is_fast(workspace):
    scenario = boot_scenario(workspace.node_configs, transport="network", run_id="run-relay-close")
    try:
        scenario.submit(CANONICAL_REQUEST)
    finally:
        started = time.monotonic()
        scenario.close()
    assert time.monotonic() - started < 0.2


def test_network_transport_ignores_proxy_environment(workspace, monkeypatch):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{probe.getsockname()[1]}"
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.setenv(name, dead)
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    scenario = boot_scenario(workspace.node_configs, transport="network", run_id="run-relay-proxy")
    try:
        fields = parse_verdict_fields(scenario.submit(CANONICAL_REQUEST))
    finally:
        scenario.close()
    assert fields["coverage"] is CoverageStatus.NOT_COVERED
    assert fields["outstanding"] == ()
    assert fields["appropriateness"] is Appropriateness.APPROPRIATE_NOW


# --- listener framing ---


def _raw_exchange(address: tuple[str, int], head: bytes) -> bytes:
    """Send raw request bytes; read until the server closes the connection.
    A connection left open runs into the socket's timeout and fails."""
    with socket.create_connection(address, timeout=2) as sock:
        sock.sendall(head)
        chunks = []
        with contextlib.suppress(ConnectionResetError):  # closed with request bytes unread
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    return b"".join(chunks)


def _assert_refused(raw: bytes) -> None:
    """``raw`` is one ``protocol`` error reply that closes the connection."""
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert b"Connection: close" in head
    record = json.loads(body)
    assert record["status"] == "error"
    assert record["error"]["code"] == "protocol"


def _consult_head(*fields: bytes) -> bytes:
    return b"".join([b"POST /operations/specialist_consult HTTP/1.1\r\nHost: x\r\n", *fields, b"\r\n"])


# The long heads end where the listener stops reading them, so no unread
# bytes turn the close after the reply into a reset.
@pytest.mark.parametrize(
    "request_head",
    [_consult_head(b"Content-Length: -1\r\n"), _consult_head(b"Content-Length: 12abc\r\n"), _consult_head(),
     _consult_head(b"Transfer-Encoding: chunked\r\n"),
     _consult_head(b"Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1)),
     _consult_head(b"Content-Length: 0\r\ncontent-length: 0\r\n"),
     _consult_head(b"X-Note: a\r\n b\r\nContent-Length: 0\r\n"),
     b"GET /operations/specialist_consult HTTP/1.1\r\nHost: x\r\n\r\n",
     b"POST /" + b"x" * (relay.MAX_LINE_BYTES - 5),  # one byte over the limit, no line end
     _consult_head(*[b"X-Filler-%d: y\r\n" % n for n in range(relay.MAX_HEADERS)])[:-2]],  # + Host, no blank line
    ids=["negative", "non-integer", "missing", "chunked", "oversized", "duplicate", "folded",
         "get", "long-request-line", "101-header-lines"],
)
def test_http_bad_content_length_is_protocol_error_and_closes(specialist_server, request_head):
    _assert_refused(_raw_exchange(specialist_server.address, request_head))


def _post_head(length: int, *extra: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    return b"".join(
        [b"POST /operations/specialist_consult " + version + b"\r\nHost: x\r\n",
         *extra, b"Content-Length: %d\r\n\r\n" % length]
    )


def _read_reply(sock: socket.socket, pending: bytearray) -> tuple[bytes, dict]:
    """Read one response from ``sock``: its head, and its JSON body."""
    while b"\r\n\r\n" not in pending:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before a reply"
        pending += chunk
    head, _, rest = bytes(pending).partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a reply"
        rest += chunk
    pending[:] = rest[length:]
    return head, json.loads(rest[:length])


def test_http_listener_reads_a_split_head_and_a_trickled_body(specialist_server):
    payload = _consult_request().to_json().encode()
    request = _post_head(len(payload)) + payload
    head_end = request.index(b"\r\n\r\n") + 4
    with socket.create_connection(specialist_server.address, timeout=2) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # each piece its own segment
        for start in range(0, head_end, 7):
            sock.sendall(request[start:min(start + 7, head_end)])
            time.sleep(0.001)
        for start in range(head_end, len(request), 64):
            sock.sendall(request[start:start + 64])
            time.sleep(0.001)
        head, record = _read_reply(sock, bytearray())
    assert head.startswith(b"HTTP/1.1 200")
    assert b"connection: close" not in head.lower()
    assert record["status"] == "ok"


def test_http_listener_answers_pipelined_requests_in_order(specialist_server):
    first = _consult_request().to_json().encode()
    second = dataclasses.replace(_consult_request(), access_key="wrong").to_json().encode()
    pending = bytearray()
    with socket.create_connection(specialist_server.address, timeout=2) as sock:
        sock.sendall(_post_head(len(first)) + first + _post_head(len(second)) + second)
        replies = [_read_reply(sock, pending)[1] for _ in range(2)]
    assert replies[0]["status"] == "ok"
    assert replies[1]["error"]["code"] == "auth"


@pytest.mark.parametrize(
    "version, extra",
    [(b"HTTP/1.1", b"Connection: close\r\n"), (b"HTTP/1.0", b"")],
    ids=["connection-close", "http-1.0"],
)
def test_http_listener_closes_after_replying_when_asked(specialist_server, version, extra):
    payload = _consult_request().to_json().encode()
    raw = _raw_exchange(specialist_server.address, _post_head(len(payload), extra, version=version) + payload)
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"Connection: close" in head
    assert json.loads(body)["status"] == "ok"


def test_http_listener_serves_a_head_of_max_header_lines(specialist_server):
    payload = _consult_request().to_json().encode()
    filler = [b"X-Filler-%d: y\r\n" % n for n in range(relay.MAX_HEADERS - 2)]  # + Host, Content-Length
    with socket.create_connection(specialist_server.address, timeout=2) as sock:
        sock.sendall(_post_head(len(payload), *filler) + payload)
        _, record = _read_reply(sock, bytearray())
    assert record["status"] == "ok"


def test_http_listener_answers_expect_100_continue(specialist_server):
    payload = _consult_request().to_json().encode()
    with socket.create_connection(specialist_server.address, timeout=2) as sock:
        sock.sendall(_post_head(len(payload), b"Expect: 100-continue\r\n"))
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            chunk = sock.recv(1)
            assert chunk, "connection closed before 100 Continue"
            interim += chunk
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(payload)
        _, record = _read_reply(sock, bytearray())
    assert record["status"] == "ok"


# --- client framing ---


OK_BODY = b'{"status": "ok", "body": "fine"}'


@contextlib.contextmanager
def _one_shot_server(reply: bytes):
    """A listener that answers one request with ``reply`` and closes; yields its URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(2)
    requests = []

    def answer():
        with listener, listener.accept()[0] as sock:
            sock.settimeout(2)
            pending = bytearray()
            while b"\r\n\r\n" not in pending:
                pending += sock.recv(65536)
            head, _, body = bytes(pending).partition(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            while len(body) < length:
                body += sock.recv(65536)
            requests.append(head + b"\r\n\r\n" + body)
            sock.sendall(reply)

    thread = threading.Thread(target=answer)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1], requests
    finally:
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.mark.parametrize(
    "reply",
    [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
     % (len(OK_BODY), OK_BODY),
     b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + OK_BODY,
     b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: %d\r\n\r\n%s" % (len(OK_BODY), OK_BODY),
     b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(OK_BODY) + 10, OK_BODY),
     b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%sHTTP/1.1" % (len(OK_BODY), OK_BODY)],
    ids=["chunked", "no-content-length", "status-500", "closed-mid-body", "bytes-after-body"],
)
def test_http_transport_refuses_a_bad_response_without_resending(reply):
    transport = HttpTransport(timeout=2)
    with _one_shot_server(reply) as (url, requests):
        with pytest.raises(RelayTransportError):
            transport.send(_specialist_target(url), _consult_request())
    assert transport.sends == len(requests) == 1
    assert transport._idle == {}
    assert requests[0].startswith(b"POST /operations/specialist_consult HTTP/1.1\r\n")


@pytest.mark.parametrize(
    "status_line, extra",
    [(b"HTTP/1.1 200 OK", b"Connection: close\r\n"), (b"HTTP/1.0 200 OK", b"")],
    ids=["connection-close", "http-1.0"],
)
def test_http_transport_does_not_pool_a_closing_response(status_line, extra):
    transport = HttpTransport(timeout=2)
    reply = status_line + b"\r\n" + extra + b"Content-Length: %d\r\n\r\n" % len(OK_BODY) + OK_BODY
    with _one_shot_server(reply) as (url, requests):
        response = transport.send(_specialist_target(url), _consult_request())
    assert response == RelayResponse.ok("fine")
    assert transport.sends == len(requests) == 1
    assert transport._idle == {}
