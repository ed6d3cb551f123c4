from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fedmesh.cli import main
from fedmesh.config import load_node_config, load_topology_config
from fedmesh.datastore import read_table
from fedmesh.errors import ConfigError, RowError
from fedmesh.fixtures import CANONICAL_REQUEST, FIXTURE_SECRET, write_demo_workspace
from fedmesh.scenario import boot_scenario, run_scenario

from fedmesh.scenario import load_audit_context

from conftest import GOLDEN_TOKENS, oracle_scan


DELETE = object()  # a row's value that removes the key instead


def _run_args(workspace, *extra):
    return [
        "run-scenario",
        "--clinic-config", str(workspace.clinic_config),
        "--insurer-config", str(workspace.insurer_config),
        "--specialist-config", str(workspace.specialist_config),
        *extra,
    ]


# --- token ---


def test_token_golden(monkeypatch, capsys):
    monkeypatch.setenv("FEDMESH_SECRET_CLINIC_HMAC_KEY", FIXTURE_SECRET)
    assert main(["token", "CLN-0001", "--secret", "clinic_hmac_key"]) == 0
    assert capsys.readouterr().out.strip() == GOLDEN_TOKENS["CLN-0001"]


def test_token_normalizes_input(monkeypatch, capsys):
    monkeypatch.setenv("FEDMESH_SECRET_CLINIC_HMAC_KEY", FIXTURE_SECRET)
    assert main(["token", " cln-0001 ", "--secret", "clinic_hmac_key"]) == 0
    assert capsys.readouterr().out.strip() == GOLDEN_TOKENS["CLN-0001"]


def test_token_missing_secret(monkeypatch, capsys):
    monkeypatch.delenv("FEDMESH_SECRET_CLINIC_HMAC_KEY", raising=False)
    assert main(["token", "CLN-0001", "--secret", "clinic_hmac_key"]) == 1
    assert "SecretNotFound" in capsys.readouterr().err


def test_token_key_file(workspace, capsys):
    key_file = workspace.root / "clinic" / "hmac.key"
    assert main(["token", "CLN-0005", "--secret", "k", "--key-file", str(key_file)]) == 0
    assert capsys.readouterr().out.strip() == GOLDEN_TOKENS["CLN-0005"]


# --- gen-fixtures ---


def test_gen_fixtures_matches_workspace(workspace, tmp_path, capsys):
    out = tmp_path / "enrollment.csv"
    args = [
        "gen-fixtures",
        "--patients", str(workspace.root / "clinic" / "patients.csv"),
        "--secret", "clinic_hmac_key",
        "--key-file", str(workspace.root / "clinic" / "hmac.key"),
        "--out", str(out),
    ]
    assert main(args) == 0
    expected = (workspace.root / "insurer" / "enrollment.csv").read_text()
    assert out.read_text() == expected
    lines = out.read_text().splitlines()
    assert len(lines) == 6  # header + one row per patient
    assert [line.split(",")[2] for line in lines[1:]] == [
        "PLAN-A", "PLAN-B", "PLAN-C", "PLAN-A", "PLAN-B",
    ]
    # regeneration is deterministic
    out2 = tmp_path / "enrollment2.csv"
    assert main(args[:-1] + [str(out2)]) == 0
    assert out2.read_text() == expected


def test_gen_fixtures_row_count_mismatch(workspace, tmp_path, capsys):
    patients = tmp_path / "patients.csv"
    rows = (workspace.root / "clinic" / "patients.csv").read_text().splitlines(keepends=True)
    patients.write_text("".join(rows[:5]))
    args = [
        "gen-fixtures",
        "--patients", str(patients),
        "--secret", "clinic_hmac_key",
        "--key-file", str(workspace.root / "clinic" / "hmac.key"),
        "--out", str(tmp_path / "enrollment.csv"),
    ]
    assert main(args) == 1
    assert "4 patient row(s) but 5" in capsys.readouterr().err


# --- run-scenario ---


def test_run_scenario_success(workspace, capsys):
    assert main(_run_args(workspace)) == 0
    out = capsys.readouterr().out
    assert "Coverage: Not covered" in out
    assert "Clinical Appropriateness: Appropriate now" in out
    assert "locality: clean" in out


def test_run_scenario_without_specialist_edge(workspace, capsys):
    cfg = json.loads(workspace.insurer_config.read_text())
    cfg.pop("relay_targets")
    broken = workspace.insurer_config.parent / "insurer_noedge.json"
    broken.write_text(json.dumps(cfg, indent=2))
    args = [
        "run-scenario",
        "--clinic-config", str(workspace.clinic_config),
        "--insurer-config", str(broken),
        "--specialist-config", str(workspace.specialist_config),
    ]
    assert main(args) == 1
    assert "TargetNotConfigured" in capsys.readouterr().err


def test_run_scenario_inject_leak(workspace, capsys):
    assert main(_run_args(workspace, "--inject-leak", "Marina Kovacs")) == 1
    captured = capsys.readouterr()
    assert "LeakBlocked" in captured.err
    assert "Marina Kovacs" not in captured.err


# --- check-trace ---


def test_check_trace_clean(workspace, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(_run_args(workspace, "--trace", str(trace))) == 0
    capsys.readouterr()
    code = main(["check-trace", "--trace", str(trace), "--topology", str(workspace.topology_config)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_check_trace_flags_forwarded_token(workspace, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    run_code = main(
        _run_args(workspace, "--trace", str(trace), "--forward-token", "--bypass-guard")
    )
    assert run_code == 2
    capsys.readouterr()
    code = main(["check-trace", "--trace", str(trace), "--topology", str(workspace.topology_config)])
    assert code == 2
    out = capsys.readouterr().out
    assert "token-leak" in out


def test_check_trace_reads_a_leak_after_a_unicode_line_separator(workspace, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    run_code = main(
        _run_args(workspace, "--trace", str(trace), "--inject-leak", "see\u2028Marina Kovacs",
                  "--bypass-guard")
    )
    assert run_code == 2
    capsys.readouterr()
    code = main(["check-trace", "--trace", str(trace), "--topology", str(workspace.topology_config)])
    assert code == 2
    violations = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [v["kind"] for v in violations] == ["protected-value"]


def test_check_trace_empty_file(workspace, tmp_path, capsys):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    code = main(["check-trace", "--trace", str(trace), "--topology", str(workspace.topology_config)])
    assert code == 0


def test_check_trace_malformed_line(workspace, tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_text("this is not json\n")
    code = main(["check-trace", "--trace", str(trace), "--topology", str(workspace.topology_config)])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_check_trace_names_the_line_of_a_byte_that_is_not_utf8(workspace, tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(b"\n\n\xff\xfe\n")
    code = main(["check-trace", "--trace", str(trace), "--topology", str(workspace.topology_config)])
    assert code == 1
    assert capsys.readouterr().err == "error: malformed trace: line 3: invalid UTF-8\n"


def test_run_scenario_and_check_trace_apply_the_same_rules(tmp_path, capsys):
    """The guard and both audits take the token-free nodes from the node
    configs: marking the insurer token-free blocks the clinic's inquiry,
    and past a bypassed guard flags the case token in it."""
    ws = write_demo_workspace(tmp_path / "ws")
    record = json.loads(ws.insurer_config.read_text())
    record["token_free"] = True
    ws.insurer_config.write_text(json.dumps(record))
    trace = tmp_path / "trace.jsonl"

    guarded = run_scenario(ws.node_configs, CANONICAL_REQUEST, run_id="run-cli-guarded")
    assert guarded.error.startswith("LeakBlocked: message clinic->insurer blocked: token-leak")
    assert guarded.trace.envelopes == [] and guarded.violations == ()

    result = run_scenario(
        ws.node_configs, CANONICAL_REQUEST, run_id="run-cli-same", trace_path=trace, bypass_guard=True
    )
    assert [(v.kind.value, v.seq) for v in result.violations] == [("token-leak", 1)]
    assert result.exit_code == 2

    code = main(["check-trace", "--trace", str(trace), "--topology", str(ws.topology_config)])
    assert code == 2
    assert capsys.readouterr().out.splitlines() == [v.to_json() for v in result.violations]


@pytest.mark.parametrize(
    "key, value, moved_to",
    [
        ("token_free_nodes", ["specialist"], '"token_free": true'),
        ("inquiry_edges", [["clinic", "insurer"]], "raw patient ids are barred on every edge"),
        ("patient_id_pattern", r"\bCLN-\d{4}\b", "PATIENT_ID_RE"),
    ],
    ids=["token_free_nodes", "inquiry_edges", "patient_id_pattern"],
)
def test_check_trace_rejects_topology_audit_keys(workspace, tmp_path, capsys, key, value, moved_to):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"nodes": [str(p) for p in workspace.node_configs], key: value}))
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["check-trace", "--trace", str(trace), "--topology", str(topology)]) == 1
    err = capsys.readouterr().err
    assert f"ConfigError: topology.json: {key!r} is no longer read here" in err
    assert moved_to in err


@pytest.mark.parametrize(
    "extra, key",
    [({"edges": [["clinic", "insurer"]]}, "edges"), ({"nodes": ["clinic.json", 1]}, "nodes")],
    ids=["extra-key", "nodes-number-item"],
)
def test_check_trace_rejects_unread_or_wrong_typed_topology_keys(workspace, tmp_path, capsys, extra, key):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"nodes": [str(p) for p in workspace.node_configs], **extra}))
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["check-trace", "--trace", str(trace), "--topology", str(topology)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: topology.json: ") and err.count("\n") == 1
    assert repr(key) in err


def test_misspelt_match_key_is_refused_by_boot_and_audit(tmp_path, capsys):
    """Ignored, a misspelt ``match`` would index names as exact values, so a
    name in another letter case would cross the clinic's edge unflagged."""
    ws = write_demo_workspace(tmp_path / "ws")
    record = json.loads(ws.clinic_config.read_text())
    record["protected"][1]["Match"] = record["protected"][1].pop("match")
    ws.clinic_config.write_text(json.dumps(record))
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")

    assert main(_run_args(ws, "--inject-leak", "marina kovacs", "--trace", str(trace))) == 1
    run_err = capsys.readouterr().err
    assert main(["check-trace", "--trace", str(trace), "--topology", str(ws.topology_config)]) == 1
    check_err = capsys.readouterr().err
    for err in (run_err, check_err):
        assert err.startswith("error: ConfigError: clinic.json:protected[1]: ") and err.count("\n") == 1
        assert "'Match'" in err


def test_duplicate_node_id_is_rejected_by_boot_and_audit(workspace, tmp_path, capsys):
    configs = [workspace.node_configs[0], *workspace.node_configs]
    with pytest.raises(ConfigError, match="duplicate node id 'clinic'"):
        boot_scenario(configs)
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps({"nodes": [str(p) for p in configs]}))
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["check-trace", "--trace", str(trace), "--topology", str(topology)]) == 1
    assert "ConfigError: duplicate node id 'clinic'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("bind", "port"), "abc", "port"),
        (("bind", "port"), 70000, "port"),
        (("relay_targets",), [], "relay_targets"),
        (("secrets",), [], "secrets"),
        (("protected", 0, "allowed_to"), 5, "allowed_to"),
        (("protected", 3, "allowed_to"), "insurer", "allowed_to"),
        (("datasets", "clinic"), {"observations": "obs.csv"}, "patients"),
        (("datasets", "clinic", "observations"), None, "observations"),
        (("datasets", "insurer"), {"enrollment": "enrollment.csv"}, "coverage_rules"),
        (("datasets", "guidance"), {}, "dir"),
        (("hmac_secret",), None, "hmac_secret"),
        (("secrets", "clinic_hmac_key", "file"), None, "file"),
        (("protected", 3, "derived"), None, "derived"),
        (("protected", 3, "secret"), None, "secret"),
        (("protected", 3, "column"), 5, "column"),
        (("protected", 3, "store"), None, "store"),
        (("operations", "coverage_request", "tools"), [None], "tools"),
        (("protected", 0, "columns"), ["patient_id", 5], "columns"),
        (("loop_limit",), 8, "loop_limit"),
        (("token_fre",), True, "token_fre"),
        (("operations", "coverage_request", "policy_options"), {"insurer_target": "insurer"}, "policy_options"),
        (("protected", 1, "Match"), "text", "Match"),
        (("protected", 3, "columns"), ["patient_id"], "columns"),
        (("secrets", "clinic_hmac_key", "env"), "FEDMESH_SECRET_CLINIC_HMAC_KEY", "env"),
        (("datasets", "clinic", "guidance"), "notes.md", "guidance"),
        (("relay_targets", "insurer", "timeout"), 5, "timeout"),
        (("bind", "hostname"), "localhost", "hostname"),
        (("operations", "coverage_request", "policy"), "nope", "policy"),
        (("operations", "coverage_request", "tools"), ["csv_lookup", "nope"], "tools"),
        (("operations", "coverage_request", "access_key"), "", "access_key"),
        (("relay_targets", "insurer", "url"), "", "url"),
        (("relay_targets", "insurer", "url"), "local:specialist", "url"),
        (("relay_targets", "insurer", "operation_id"), "", "operation_id"),
        (("relay_targets", "insurer", "access_key"), "", "access_key"),
        (("protected", 3, "match"), "text", "match"),
        (("protected", 3, "derived"), "bogus", "derived"),
        (("protected", 3, "secret"), "clinic_hmac_key", "secret"),
        (("protected", 3, "secret"), "nope", "secret"),
        (("protected", 3, "store"), "nope", "store"),
        (("protected", 0, "store"), "enrollment", "store"),
        (("hmac_secret",), "nope", "hmac_secret"),
        (("datasets", "clinic", "patients"), "../clinic/pat\0ients.csv", "patients"),
        (("secrets", "clinic_hmac_key", "file"), "../clinic/hmac.key\0", "file"),
        (("bind", "host"), "127.0.0.1\0", "host"),
        (("hmac_secret",), DELETE, "hmac_secret"),
        (("datasets", "clinic"), DELETE, "clinic"),
        (("operations", "coverage_request", "tools"), ["enrollment_match"], "insurer"),
        (("operations", "coverage_request", "tools"), ["coverage_lookup"], "insurer"),
        (("operations", "coverage_request", "tools"), ["guidance_search"], "guidance"),
        (("relay_targets", "clinic"), {"operation_id": "coverage_request", "access_key": "clinic-demo-key-0001"},
         "relay_targets"),
    ],
    ids=[
        "port-text", "port-range", "relay_targets-list", "secrets-list", "allowed_to-number",
        "allowed_to-text", "clinic-patients-missing", "clinic-observations-null",
        "insurer-coverage_rules-missing", "guidance-dir-missing", "hmac_secret-null",
        "secret-file-null", "derived-null", "derived-secret-null", "derived-column-number",
        "derived-store-null", "tools-null-item", "columns-number-item", "unread-root-loop_limit",
        "unread-root-token_fre", "unread-operation-policy_options", "unread-protected-Match",
        "unread-derived-columns", "unread-secret-env", "unread-dataset-path",
        "unread-relay_target-timeout", "unread-bind-hostname", "policy-unknown", "tools-unknown",
        "operation-access_key-empty", "relay_target-url-empty", "relay_target-url-other-node",
        "relay_target-operation_id-empty",
        "relay_target-access_key-empty", "unread-derived-match", "derived-unknown",
        "unread-derived-secret", "derived-secret-undeclared", "derived-store-unknown",
        "columns-store-undeclared", "hmac_secret-undeclared", "dataset-path-nul", "secret-file-nul",
        "bind-host-nul", "hmac_token-without-hmac_secret", "csv_lookup-without-clinic",
        "enrollment_match-without-insurer", "coverage_lookup-without-insurer",
        "guidance_search-without-guidance", "relay_target-self",
    ],
)
def test_wrong_typed_config_fields_are_config_errors(tmp_path, capsys, path, value, key):
    """Each is a ConfigError naming the file and the key, which boot and
    check-trace both report in one line instead of a traceback. A key no
    loader reads, misspelt or retired, is refused too: ignored, it would
    leave the node on a default its author did not mean. A name outside
    its registry, an empty key, an undeclared store or secret, a NUL in a
    path, an ``hmac_token`` tool with no key to run it and a tool over a
    dataset the node lacks are refused as the config loads, not when a
    request first meets them. A derived entry's leftover ``secret`` once
    chose its own key, so a second key silently disarmed the case-token
    rule. A relay target named after the node itself once loaded, and its
    every call failed, since an envelope's two endpoints must differ."""
    _assert_clinic_edits_refused(tmp_path, capsys, [(path, value)], key)


@pytest.mark.parametrize(
    "edits, key",
    [
        ([(("hmac_secret",), DELETE), (("operations", "coverage_request", "tools"), ["csv_lookup", "relay_call"])],
         "hmac_secret"),
        ([(("datasets",), {"guidance": {"dir": "../specialist"}}),
          (("protected",), [{"derived": "case_tokens", "allowed_to": ["insurer"]}]),
          (("operations", "coverage_request", "tools"), ["hmac_token", "relay_call"])],
         "clinic"),
        ([(("protected", 3), DELETE)], "hmac_secret"),
    ],
    ids=["derived-without-hmac_secret", "derived-without-clinic", "hmac_secret-without-derived"],
)
def test_case_tokens_and_their_key_come_in_pairs(tmp_path, capsys, edits, key):
    """A derived entry needs the key ``hmac_secret`` names and the clinic
    patients whose tokens it derives; a node with that key needs a derived
    entry, so the tokens it sends are always confined."""
    _assert_clinic_edits_refused(tmp_path, capsys, edits, key)


def test_readme_node_config_example_loads(tmp_path):
    """The README's example node config, its ``//`` comments stripped,
    loads, so the README cannot drift from the schema unseen."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Node configuration\n", 1)[1]
    example = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "clinic.json"
    path.write_text(re.sub(r"//.*", "", example), encoding="utf-8")
    cfg = load_node_config(path)
    assert cfg.node_id == "clinic"
    assert [spec.derived for spec in cfg.protected if spec.derived] == ["case_tokens"]


def _assert_clinic_edits_refused(tmp_path, capsys, edits, key) -> None:
    """The demo clinic config, with each ``(path, value)`` edit made, is a
    ConfigError naming the file and ``key`` at load, at boot and in
    check-trace alike."""
    ws = write_demo_workspace(tmp_path / "ws")
    record = json.loads(ws.clinic_config.read_text())
    for path, value in edits:
        *parents, last = path
        owner = record
        for step in parents:
            owner = owner[step]
        if value is DELETE:
            del owner[last]
        else:
            owner[last] = value
    ws.clinic_config.write_text(json.dumps(record))

    with pytest.raises(ConfigError) as err:
        load_node_config(ws.clinic_config)
    assert str(err.value).startswith(f"{ws.clinic_config.name}")
    assert repr(key) in str(err.value)

    assert main(_run_args(ws)) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {err.value}\n"
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["check-trace", "--trace", str(trace), "--topology", str(ws.topology_config)]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {err.value}\n"


@pytest.mark.parametrize(
    "path, value, text",
    [
        (("protected", 3, "allowed_to"), ["insurar"],
         "clinic.json:protected[3]: key 'allowed_to' names 'insurar', which is not a node of the deployment"),
        (("relay_targets", "insurar"), {"operation_id": "coverage_inquiry", "access_key": "insurer-demo-key-0002"},
         "clinic.json: relay target 'insurar' is not a node of the deployment"),
        (("relay_targets", "insurer", "operation_id"), "coverage_inquiri",
         "clinic.json:insurer: key 'operation_id' names 'coverage_inquiri', which node 'insurer' does not expose"),
        (("relay_targets", "insurer", "access_key"), "insurer-demo-key-9999",
         "clinic.json:insurer: key 'access_key' is not the key of operation 'coverage_inquiry' of node 'insurer'"),
    ],
    ids=["allowed_to", "relay_target", "relay_target-operation", "relay_target-access_key"],
)
def test_names_outside_the_deployment_are_refused_by_boot_and_audit(tmp_path, capsys, path, value, text):
    """Accepted, a misspelt ``allowed_to`` node would block every inquiry,
    and a misspelt relay target or target operation, or a target key that
    is not its operation's, would fail each request; both paths see every
    config, so both refuse each in the same words, none quoting a key."""
    ws = write_demo_workspace(tmp_path / "ws")
    record = json.loads(ws.clinic_config.read_text())
    *parents, last = path
    owner = record
    for step in parents:
        owner = owner[step]
    owner[last] = value
    ws.clinic_config.write_text(json.dumps(record))
    load_node_config(ws.clinic_config)  # the file alone is well formed

    assert main(_run_args(ws)) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {text}\n"
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    assert main(["check-trace", "--trace", str(trace), "--topology", str(ws.topology_config)]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {text}\n"


@pytest.mark.parametrize("config", ["clinic_config", "topology_config"])
@pytest.mark.parametrize(
    "content",
    ['{"node_id": "Zo\xeb"}'.encode("latin-1"), b"[" * 100_000],
    ids=["latin-1", "deeply-nested"],
)
def test_unreadable_config_files_are_config_errors(tmp_path, config, content):
    """A file that is not UTF-8 or nests too deeply for the JSON parser is
    a ConfigError naming the file, not a decoding or recursion error."""
    ws = write_demo_workspace(tmp_path / "ws")
    path = getattr(ws, config)
    path.write_bytes(content)
    load = load_node_config if config == "clinic_config" else load_topology_config
    with pytest.raises(ConfigError) as err:
        load(path)
    assert str(err.value).startswith(f"{path.name}: invalid ")
    assert len(str(err.value)) < 200


# --- totality of the config loaders ---

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.just("") | st.text()
    | st.text().map(lambda t: t + "\0")
)
_JSON_VALUES = _JSON_LEAVES | st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
_CONFIGS = ("clinic_config", "insurer_config", "specialist_config", "topology_config")


def _key_paths(value, prefix=()):
    """Every path to a member of a JSON object or list, outermost first."""
    members = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, member in members:
        yield prefix + (key,)
        yield from _key_paths(member, prefix + (key,))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory, workspace):
    """A writable copy of each demo config, and the fixture's indexes."""
    copies = tmp_path_factory.mktemp("configs")
    records = {name: json.loads(getattr(workspace, name).read_text()) for name in _CONFIGS}
    return copies, records, load_audit_context(workspace.topology_config)[1]


def _loads_or_refuses(path, indexes) -> None:
    """The loader for ``path`` loads it or raises a ConfigError whose text
    starts with the file's name, is short and repeats no protected value."""
    load = load_topology_config if path.name == "topology.json" else load_node_config
    try:
        load(path)
    except ConfigError as exc:
        text = str(exc)
        assert text.startswith(path.name) and len(text) <= 300, text
        for node_id, index in indexes.items():
            assert oracle_scan(text, index, (node_id, "nowhere")) == [], text


@settings(deadline=None, max_examples=300)
@given(data=st.data(), config=st.sampled_from(_CONFIGS), delete=st.booleans())
def test_config_loaders_refuse_any_edit_with_a_config_error(config_dir, data, config, delete):
    copies, records, indexes = config_dir
    record = json.loads(json.dumps(records[config]))
    *parents, last = data.draw(st.sampled_from(list(_key_paths(record))))
    owner = record
    for step in parents:
        owner = owner[step]
    if delete:
        del owner[last]
    else:
        owner[last] = data.draw(_JSON_VALUES)
    path = copies / f"{config.split('_')[0]}.json"
    path.write_text(json.dumps(record))
    _loads_or_refuses(path, indexes)


@settings(deadline=None, max_examples=100)
@given(content=st.binary(), config=st.sampled_from(_CONFIGS))
def test_config_loaders_refuse_any_bytes_with_a_config_error(config_dir, content, config):
    copies, _, indexes = config_dir
    path = copies / f"{config.split('_')[0]}.json"
    path.write_bytes(content)
    _loads_or_refuses(path, indexes)


def _patients_error(ws, capsys) -> RowError:
    """The RowError reading the workspace's patients.csv raises, after
    checking that run-scenario reports it in one line."""
    patients = ws.root / "clinic" / "patients.csv"
    with pytest.raises(RowError) as err:
        read_table(patients, "patients", [])
    assert str(err.value).startswith(f"line {err.value.line}: patients.csv: ")
    assert len(str(err.value)) < 200
    assert main(_run_args(ws)) == 1
    assert capsys.readouterr().err == f"error: RowError: {err.value}\n"
    return err.value


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_patients_csv_that_is_not_utf8_is_a_row_error(tmp_path, capsys, ending):
    """The line is that of the first bad byte, even when it lies past the
    first block of the file the reader decodes, whatever ends the lines."""
    ws = write_demo_workspace(tmp_path / "ws")
    patients = ws.root / "clinic" / "patients.csv"
    good = patients.read_bytes().rstrip(b"\n").split(b"\n")
    rows = good + [b"CLN-%04d,Ann Lee,1968-02-03,n" % i for i in range(100, 1100)]
    patients.write_bytes(ending.join(rows + ["CLN-0099,Zoë Lee,1970-01-01,n".encode("latin-1")]) + ending)
    assert _patients_error(ws, capsys).line == len(rows) + 1


@pytest.mark.parametrize(
    "before, line, text",
    [([], 3, "field larger than field limit"), (["CLN-0098,Ann Lee"], 2, "expected 4 cells, got 2")],
    ids=["cell-past-the-limit", "ragged-row-ahead-of-it"],
)
def test_patients_csv_cell_past_the_field_limit_is_a_row_error(tmp_path, capsys, before, line, text):
    """The reader refuses the over-limit row; a ragged row ahead of it is
    the first error in the file, so it is the one reported."""
    ws = write_demo_workspace(tmp_path / "ws")
    patients = ws.root / "clinic" / "patients.csv"
    lines = patients.read_text().splitlines()
    lines[1:1] = before
    lines.insert(2, "CLN-0099,Ann Lee,1968-02-03," + "x" * 200_000)
    patients.write_text("\n".join(lines) + "\n")
    error = _patients_error(ws, capsys)
    assert error.line == line
    assert text in str(error)
    assert "xxxx" not in str(error)


def test_misspelt_guidance_dir_stops_the_boot(tmp_path, capsys):
    """As a missing table file does: loaded as no guidance, a misspelt
    directory would make every verdict "Not currently appropriate"."""
    ws = write_demo_workspace(tmp_path / "ws")
    config = json.loads(ws.specialist_config.read_text())
    config["datasets"]["guidance"]["dir"] += "t"
    ws.specialist_config.write_text(json.dumps(config))
    missing = ws.specialist_config.parent / config["datasets"]["guidance"]["dir"]
    assert main(_run_args(ws)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_guidance_extract_that_is_not_utf8_is_a_row_error(tmp_path, capsys):
    ws = write_demo_workspace(tmp_path / "ws")
    extract = ws.root / "specialist" / "osteoarthritis_knee_red_flags.md"
    extract.write_bytes(extract.read_bytes().replace(b"Locked knee", b"Locked kn\xe9e"))
    line = extract.read_bytes().split(b"\n").index(b"- Locked kn\xe9e") + 1
    assert main(_run_args(ws)) == 1
    assert capsys.readouterr().err == f"error: RowError: line {line}: {extract.name}: invalid UTF-8\n"
