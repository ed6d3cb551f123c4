from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import socket
import sys
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_scan
from fedmesh.errors import (
    LeakBlocked,
    RelayAuthError,
    RelayRemoteError,
    RelayTransportError,
    TargetNotConfigured,
)
from fedmesh import relay
from fedmesh.fixtures import CANONICAL_REQUEST, write_demo_workspace
from fedmesh.messages import (
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
from fedmesh.scenario import boot_scenario, load_audit_context


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


@pytest.mark.parametrize(
    "raw",
    ['{"status": "error", "error": {"code": null, "message": {"x": 1}}}',
     '{"status": "error", "error": {"code": 5, "message": "m"}}',
     '{"status": "error", "error": {"code": "", "message": "m"}}',
     '{"status": "error", "error": {"message": "m"}}',
     '{"status": "error", "error": {"code": "auth"}}',
     '{"status": "weird", "error": {}}',
     '{"status": null, "error": {"code": "auth", "message": "m"}}',
     '{"status": "ok", "body": ""}'],
    ids=["null-code-object-message", "integer-code", "empty-code", "no-code", "no-message",
         "unknown-status", "null-status", "empty-ok-body"],
)
def test_response_json_rejects_a_malformed_reply(raw):
    with pytest.raises(ValueError):
        RelayResponse.from_json(raw)


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


def test_missing_transport_raises_and_records_nothing(scenario):
    clinic = scenario.nodes["clinic"]
    transport, clinic.transport = clinic.transport, None
    try:
        with pytest.raises(RelayTransportError):
            relay_call(clinic, "insurer", "hello", "c1")
    finally:
        clinic.transport = transport
    assert scenario.trace.envelopes == []


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
    assert HttpTransport({}).timeout == DEFAULT_TIMEOUT_SECONDS == 30.0


# --- network listener ---


@pytest.fixture()
def specialist_server(scenario):
    server = serve(scenario.nodes["specialist"])
    yield server
    server.close()


def _operation_url(server, operation_id: str) -> str:
    host, port = server.address
    return f"http://{host}:{port}/operations/{operation_id}"


def _post_raw(url: str, payload: bytes) -> dict:
    request = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return json.loads(response.read().decode("utf-8"))


def test_http_end_to_end(specialist_server):
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    record = _post_raw(
        _operation_url(specialist_server, "specialist_consult"),
        request.to_json().encode("utf-8"),
    )
    assert record["status"] == "ok"
    assert "Recommendation:" in record["body"]


def test_http_truncated_json_is_protocol_error(specialist_server):
    record = _post_raw(
        _operation_url(specialist_server, "specialist_consult"),
        b'{"operation_id": "specialist_consult", "access',
    )
    assert record["status"] == "error"
    assert record["error"]["code"] == "protocol"


def test_http_path_body_mismatch_is_protocol_error(specialist_server):
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    record = _post_raw(
        _operation_url(specialist_server, "other_operation"),
        request.to_json().encode("utf-8"),
    )
    assert record["error"]["code"] == "protocol"


def test_http_wrong_key_is_auth_error(specialist_server):
    request = RelayRequest("specialist_consult", "nope", "c1", _consult_body())
    record = _post_raw(
        _operation_url(specialist_server, "specialist_consult"),
        request.to_json().encode("utf-8"),
    )
    assert record["error"]["code"] == "auth"


def test_transport_transparency(scenario, specialist_server):
    """The body the caller gets is byte-identical to what the node produced."""
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    direct = serve_request(scenario.nodes["specialist"], request)
    transport = HttpTransport({"specialist": specialist_server.address})
    try:
        over_http = transport.send(_specialist_target(), request)
    finally:
        transport.close()
    assert over_http.status == "ok"
    assert over_http.body == direct.body


def test_transport_error_on_unreachable_port(scenario, specialist_server):
    specialist_server.close()
    transport = HttpTransport({"specialist": specialist_server.address}, timeout=2)
    request = RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())
    with pytest.raises(RelayTransportError):
        transport.send(_specialist_target(), request)


def _submit_with_the_specialist_down(workspace):
    """Submit the canonical request over the network with the specialist's
    listener closed; the scenario, the clinic's error and the closed port."""
    scenario = boot_scenario(workspace.node_configs, transport="network", run_id="run-relay-down")
    try:
        (specialist,) = [server for server in scenario.servers if server.node.node_id == "specialist"]
        port = specialist.address[1]
        specialist.close()
        with pytest.raises(RelayRemoteError) as err:
            scenario.submit(CANONICAL_REQUEST)
    finally:
        scenario.close()
    return scenario, err.value, port


def test_a_request_refused_at_connect_is_not_recorded(workspace):
    """The trace holds only requests that left: the insurer's consult,
    refused at connect, is neither sent nor recorded, so the audit never
    checks a body that did not cross."""
    scenario, _, _ = _submit_with_the_specialist_down(workspace)
    assert scenario.nodes["insurer"].transport.sends == 0
    assert [(env.from_node, env.to_node) for env in scenario.trace.envelopes] == [
        ("clinic", "insurer"),
        ("insurer", "clinic"),
    ]


def test_a_transport_failure_crosses_as_unavailable_without_its_cause(workspace, caplog):
    """The insurer answers its failed call to the specialist with the
    fixed ``unavailable`` text, so the clinic learns neither the
    specialist's address nor the errno; the cause stays in the insurer's
    log, keyed by conversation."""
    with caplog.at_level(logging.WARNING, logger="fedmesh.relay"):
        scenario, error, port = _submit_with_the_specialist_down(workspace)
    reply = f"error[unavailable]: {relay.UNAVAILABLE_TEXT}"
    assert str(error) == f"target 'insurer' answered {reply}"
    assert "127.0.0.1" not in str(error) and str(port) not in str(error)
    assert scenario.trace.envelopes[-1].body == reply
    (record,) = caplog.records
    assert "node=insurer conversation=run-relay-down-c1" in record.getMessage()
    assert f"127.0.0.1:{port}" in record.getMessage()


# --- kept-alive connections ---


def _consult_request() -> RelayRequest:
    return RelayRequest("specialist_consult", "specialist-demo-key-0003", "c1", _consult_body())


def _specialist_target(operation_id: str = "specialist_consult") -> RelayTarget:
    return RelayTarget(
        name="specialist",
        operation_id=operation_id,
        access_key="specialist-demo-key-0003",
    )


def _count_accepts(server) -> list:
    """Record each connection the listener accepts."""
    accepted = []
    get_request = server.get_request

    def counting():
        connection = get_request()
        accepted.append(connection[1])
        return connection

    server.get_request = counting
    return accepted


def test_http_transport_reuses_one_connection(specialist_server):
    accepted = _count_accepts(specialist_server)
    transport = HttpTransport({"specialist": specialist_server.address})
    target = _specialist_target()
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
    monkeypatch.setattr(specialist_server.RequestHandlerClass, "timeout", 0.2)
    served = []
    original = relay.serve_request

    def counting(node, request):
        served.append(request)
        return original(node, request)

    monkeypatch.setattr(relay, "serve_request", counting)
    accepted = _count_accepts(specialist_server)
    transport = HttpTransport({"specialist": specialist_server.address})
    target = _specialist_target()
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
    transport = HttpTransport({"specialist": specialist_server.address})
    target = _specialist_target()
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
    "operation_id", ["a b", "a\x00b", "a\x7fb", "caf\xe9"], ids=["space", "nul", "del", "non-ascii"]
)
def test_http_transport_rejects_an_unusable_operation_id_before_sending(operation_id):
    """The request target is written into the head; a character that would
    end or bend it is refused, and nothing is sent."""
    transport = HttpTransport({"specialist": ("127.0.0.1", 9)})
    with pytest.raises(RelayTransportError, match="cannot send operation"):
        transport.send(_specialist_target(operation_id), _consult_request())
    assert (transport.sends, transport.bytes_sent) == (0, 0)


def test_http_transport_counts_no_send_the_peer_refused():
    with socket.socket() as bound:  # bound, never listening: a connect is refused
        bound.bind(("127.0.0.1", 0))
        transport = HttpTransport({"specialist": bound.getsockname()})
        with pytest.raises(RelayTransportError) as err:
            transport.send(_specialist_target(), _consult_request())
    assert isinstance(err.value.__cause__, ConnectionRefusedError)
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


def test_failed_boot_closes_the_listeners_it_started(tmp_path):
    """Two nodes on one fixed port: the second cannot bind, and the boot
    stops the first node's listener before it raises."""
    ws = write_demo_workspace(tmp_path / "ws")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    for path in (ws.clinic_config, ws.insurer_config):
        record = json.loads(path.read_text())
        record["bind"] = {"host": "127.0.0.1", "port": port}
        path.write_text(json.dumps(record))
    with pytest.raises(OSError):
        boot_scenario(ws.node_configs, transport="network", run_id="run-relay-port")
    assert [t.name for t in threading.enumerate() if t.name.startswith("relay-")] == []


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
     _consult_head(*[b"X-Filler-%d: y\r\n" % n for n in range(relay.MAX_HEADERS)])[:-2],  # + Host, no blank line
     b"POST /operations/specialist_consult\r\nHost: x\r\n\r\n",
     b"POST /operations/specialist_consult HTTP/2.0\r\nHost: x\r\n\r\n",
     b"POST /elsewhere HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"],
    ids=["negative", "non-integer", "missing", "chunked", "oversized", "duplicate", "folded",
         "get", "long-request-line", "101-header-lines", "two-word-request-line", "http-2.0", "unknown-path"],
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


def test_http_listener_answers_a_deeply_nested_body_and_keeps_the_connection(specialist_server):
    nested = b"[" * 100_000
    payload = _consult_request().to_json().encode()
    pending = bytearray()
    with socket.create_connection(specialist_server.address, timeout=2) as sock:
        sock.sendall(_post_head(len(nested)) + nested)
        _, refused = _read_reply(sock, pending)
        sock.sendall(_post_head(len(payload)) + payload)
        _, answered = _read_reply(sock, pending)
    assert refused["error"] == {"code": "protocol", "message": "malformed request: nested too deeply"}
    assert answered["status"] == "ok"


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


def test_http_listener_closes_without_a_reply_when_the_caller_hangs_up_mid_body(specialist_server):
    payload = _consult_request().to_json().encode()
    with socket.create_connection(specialist_server.address, timeout=2) as sock:
        sock.sendall(_post_head(len(payload)) + payload[:10])
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""


_LONG = "9" * 60_000


@pytest.mark.parametrize(
    "request_line, length, payload",
    [(f"POST /{_LONG} HTTP/1.1", None, None),
     (f"POST /operations/{_LONG} HTTP/1.1", None, _consult_request().to_json()),
     (f"{_LONG} /operations/specialist_consult HTTP/1.1", None, None),
     (f"POST /operations/specialist_consult HTTP/{_LONG}", None, None),
     ("POST /operations/specialist_consult HTTP/1.1", _LONG + "x", None),
     ("POST /operations/specialist_consult HTTP/1.1", None,
      dataclasses.replace(_consult_request(), operation_id=_LONG).to_json())],
    ids=["unknown-path", "path-operation", "method", "version", "content-length", "body-operation"],
)
def test_http_listener_quotes_at_most_80_characters_of_a_request(specialist_server, request_line, length, payload):
    body = (payload or "{}").encode()
    head = f"{request_line}\r\nHost: x\r\nContent-Length: {length or len(body)}\r\n\r\n".encode()
    with socket.create_connection(specialist_server.address, timeout=2) as sock:
        sock.sendall(head + body)
        _, record = _read_reply(sock, bytearray())
    message = record["error"]["message"]
    assert record["error"]["code"] == "protocol"
    assert "9" * (relay.QUOTE_CHARS + 1) not in message
    assert len(message) < 300


# --- client framing ---


OK_BODY = b'{"status": "ok", "body": "fine"}'


@contextlib.contextmanager
def _one_shot_server(reply: bytes):
    """A listener that answers one request with ``reply`` and closes;
    yields a transport that reaches it as the specialist, and the requests
    it read."""
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
        yield HttpTransport({"specialist": listener.getsockname()}, timeout=2), requests
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
     b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%sHTTP/1.1" % (len(OK_BODY), OK_BODY),
     b"",
     b"HTTP/2 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(OK_BODY), OK_BODY),
     b'HTTP/1.1 200 OK\r\nContent-Length: 28\r\n\r\n{"status": "ok", "body": ""}'],
    ids=["chunked", "no-content-length", "status-500", "closed-mid-body", "bytes-after-body",
         "closed-before-response", "malformed-status-line", "empty-ok-body"],
)
def test_http_transport_refuses_a_bad_response_without_resending(reply):
    with _one_shot_server(reply) as (transport, requests):
        with pytest.raises(RelayTransportError):
            transport.send(_specialist_target(), _consult_request())
    assert transport.sends == len(requests) == 1
    assert transport._idle == {}
    assert requests[0].startswith(b"POST /operations/specialist_consult HTTP/1.1\r\n")


def test_http_transport_refuses_a_deeply_nested_reply():
    nested = b"[" * 100_000
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(nested), nested)
    with _one_shot_server(reply) as (transport, requests):
        with pytest.raises(RelayTransportError, match="malformed relay response .*: nested too deeply"):
            transport.send(_specialist_target(), _consult_request())
    assert transport.sends == len(requests) == 1
    assert transport._idle == {}


def test_http_transport_refuses_an_oversized_reply_before_reading_it():
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 5000000\r\n\r\n" + OK_BODY
    with _one_shot_server(reply) as (transport, requests):
        with pytest.raises(RelayTransportError) as err:
            transport.send(_specialist_target(), _consult_request())
    assert f"response of 5000000 bytes exceeds the limit of {relay.MAX_REQUEST_BYTES}" in str(err.value)
    assert transport.sends == len(requests) == 1
    assert transport._idle == {}


@pytest.mark.parametrize(
    "reply",
    [b"HTTP/1.1 %s OK\r\nContent-Length: 0\r\n\r\n" % _LONG.encode(),
     b"%s\r\n\r\n" % _LONG.encode(),
     b"HTTP/1.1 200 OK\r\nContent-Length: %sx\r\n\r\n" % _LONG.encode()],
    ids=["status-code", "status-line", "content-length"],
)
def test_http_transport_quotes_at_most_80_characters_of_a_response(reply):
    with _one_shot_server(reply) as (transport, requests):
        with pytest.raises(RelayTransportError) as err:
            transport.send(_specialist_target(), _consult_request())
    text = str(err.value)
    assert "9" * (relay.QUOTE_CHARS + 1) not in text
    assert len(text) < 300
    assert transport.sends == len(requests) == 1


@pytest.mark.parametrize(
    "status_line, extra",
    [(b"HTTP/1.1 200 OK", b"Connection: close\r\n"), (b"HTTP/1.0 200 OK", b""),
     (b"HTTP/1.1 200 OK", b"Connection: keep-alive\r\nConnection: close\r\n")],
    ids=["connection-close", "http-1.0", "repeated-connection"],
)
def test_http_transport_does_not_pool_a_closing_response(status_line, extra):
    reply = status_line + b"\r\n" + extra + b"Content-Length: %d\r\n\r\n" % len(OK_BODY) + OK_BODY
    with _one_shot_server(reply) as (transport, requests):
        response = transport.send(_specialist_target(), _consult_request())
    assert response == RelayResponse.ok("fine")
    assert transport.sends == len(requests) == 1
    assert transport._idle == {}


# --- totality of the readers of a peer's bytes ---

# Every error text a reader raises is at most this long; none quotes more
# than ``relay.QUOTE_CHARS`` characters of its input.
ERROR_TEXT_CHARS = 400


@pytest.fixture(scope="module")
def indexes(workspace):
    return load_audit_context(workspace.topology_config)[1]


def _assert_a_safe_error_text(text: str, indexes) -> None:
    assert len(text) <= ERROR_TEXT_CHARS, text
    for node_id, index in indexes.items():
        assert oracle_scan(text, index, (node_id, "nowhere")) == [], text


class _ChunkedSocket:
    """In-memory bytes handed to ``recv`` in the given pieces, then the end of the stream."""

    def __init__(self, data: bytes, cuts: list[int]) -> None:
        bounds = sorted({0, len(data), *(min(cut, len(data)) for cut in cuts)})
        self.chunks = [data[start:end] for start, end in zip(bounds, bounds[1:])]

    def recv(self, size: int) -> bytes:
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > size:
            self.chunks.insert(0, chunk[size:])
        return chunk[:size]


_START_LINES = st.sampled_from(
    [b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 404 Not Found", b"HTTP/1.1", b"POST /operations/x HTTP/1.1"]
) | st.binary(max_size=12)
_FIELD_LINES = st.sampled_from(
    [b"Content-Length: 2", b"content-length:0", b"Content-Length: 12x", b"Content-Length: 9999999",
     b"Transfer-Encoding: chunked", b"Connection: close", b"Connection: keep-alive", b" folded", b"X-Empty:"]
) | st.binary(max_size=12)
_LINE_ENDS = st.sampled_from([b"\r\n", b"\r\n", b"\n", b"\r", b""])
_CHUNKED_STREAMS = {
    # a start line, field lines, the blank line and a few body bytes, each
    # line end chosen at random
    "data": st.tuples(
        st.tuples(_START_LINES, _LINE_ENDS).map(b"".join),
        st.lists(st.tuples(_FIELD_LINES, _LINE_ENDS).map(b"".join), max_size=6).map(b"".join),
        _LINE_ENDS,
        st.binary(max_size=6),
    ).map(b"".join),
    "cuts": st.lists(st.integers(0, 300), max_size=8),
}


@settings(deadline=None, max_examples=300)
@given(**_CHUNKED_STREAMS)
def test_read_head_is_total_over_chunked_bytes(indexes, data, cuts):
    try:
        relay._read_head(relay._Connection(_ChunkedSocket(data, cuts)))
    except relay._FramingError as exc:
        _assert_a_safe_error_text(str(exc), indexes)


@settings(deadline=None, max_examples=300)
@given(**_CHUNKED_STREAMS)
def test_read_response_is_total_over_chunked_bytes(indexes, data, cuts):
    try:
        relay._read_response(relay._Connection(_ChunkedSocket(data, cuts)))
    except relay._FramingError as exc:
        _assert_a_safe_error_text(str(exc), indexes)


_WIRE_KEYS = ["status", "body", "error", "code", "message", "operation_id", "access_key", "conversation_id"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["ok", "error", "auth", ""]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_WIRE_KEYS) | st.text(max_size=4), children, max_size=5),
    max_leaves=20,
)
_WIRE_TEXTS = st.one_of(st.text(), _JSON_VALUES.map(json.dumps), _JSON_VALUES.map(json.dumps).map(lambda s: s[:-1]))


@settings(deadline=None, max_examples=300)
@given(raw=_WIRE_TEXTS)
def test_request_and_response_decoding_is_total(indexes, raw):
    for decode in (RelayRequest.from_json, RelayResponse.from_json):
        try:
            decode(raw)
        except ValueError as exc:
            _assert_a_safe_error_text(str(exc), indexes)
