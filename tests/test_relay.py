from __future__ import annotations

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
    "url", ["local:insurer", "ftp://127.0.0.1/x", "http://", "http://127.0.0.1:99999"]
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
    """Send raw request bytes; read until the server closes the connection."""
    with socket.create_connection(address, timeout=2) as sock:
        sock.sendall(head)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "length_header",
    [b"Content-Length: -1\r\n", b"Content-Length: 12abc\r\n", b"",
     b"Transfer-Encoding: chunked\r\n", b"Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1)],
    ids=["negative", "non-integer", "missing", "chunked", "oversized"],
)
def test_http_bad_content_length_is_protocol_error_and_closes(specialist_server, length_header):
    raw = _raw_exchange(
        specialist_server.address,
        b"POST /operations/specialist_consult HTTP/1.1\r\nHost: x\r\n" + length_header + b"\r\n",
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert b"Connection: close" in head
    record = json.loads(body)
    assert record["status"] == "error"
    assert record["error"]["code"] == "protocol"
