"""The hooks the benchmark's traced run relies on.

``perfbench/spans.py`` times boot and audit set-up by replacing module
globals of ``fedmesh.scenario`` (and a few other attributes) for the length
of a run. A refactor that renames one of them, or stops calling it through
the module global, would silently drop a span; these tests catch both.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import fedmesh.scenario as scenario_mod
from fedmesh.fixtures import CANONICAL_REQUEST
from fedmesh.locality import check_trace
from fedmesh.scenario import boot_scenario, load_audit_context

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
LOADERS = ("protected_values", "load_clinic_store", "load_insurer_store", "load_guidance")


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while being defined.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_span_wrappers_replace_existing_attributes(workspace, monkeypatch):
    spans = _load_spans(monkeypatch)
    missing: list[str] = []

    class CheckedPatches(spans.Patches):
        def set(self, owner, attr, value):
            if not hasattr(owner, attr):
                missing.append(f"{owner!r}.{attr}")
            super().set(owner, attr, value)

    tracer = spans.Tracer()
    patches = CheckedPatches()
    try:
        spans.install_module_wrappers(tracer, patches)
        scenario = boot_scenario(workspace.node_configs, run_id="run-hooks-spans")
        try:
            spans.install_node_wrappers(tracer, patches, scenario.nodes)
        finally:
            scenario.close()
        load_audit_context(workspace.topology_config)
    finally:
        patches.restore()

    assert missing == []
    assert {span.name for span in tracer.spans} >= {
        "config.load_node_config_ms",
        "datastore.load_stores_ms",
        "datastore.protected_values_ms",
        "relay.serve_ms",
    }


def test_traced_request_decides_every_turn_and_parses_once(workspace, monkeypatch):
    """The runtime reaches a policy only through ``decide``, so the traced
    run times all 10 turns (clinic 4, insurer 4, specialist 2), while the
    insurer parses its inquiry once for the whole operation. The guard's
    span times each of its four inspections (two requests, two replies),
    and the audit, which calls the same check, adds none."""
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    patches = spans.Patches()
    try:
        spans.install_module_wrappers(tracer, patches)
        scenario = boot_scenario(workspace.node_configs, run_id="run-hooks-parse")
        try:
            spans.install_node_wrappers(tracer, patches, scenario.nodes)
            reply = scenario.submit(CANONICAL_REQUEST)
        finally:
            scenario.close()
        request_names = Counter(span.name for span in tracer.spans)
        topology, indexes = load_audit_context(workspace.topology_config)
        assert check_trace(scenario.trace, topology, indexes) == []
    finally:
        patches.restore()

    assert reply.startswith("Coverage: ")
    assert request_names["policies.decide_us"] == 10
    assert request_names["policies.parse_inquiry"] == 1
    assert request_names["locality.scan_us"] == 4
    assert Counter(span.name for span in tracer.spans)["locality.scan_us"] == 4


def _count_loader_calls(monkeypatch) -> dict[str, int]:
    calls = dict.fromkeys(LOADERS, 0)
    for name in LOADERS:
        original = getattr(scenario_mod, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, name, counted)
    return calls


def test_boot_loads_each_store_once(workspace, monkeypatch):
    calls = _count_loader_calls(monkeypatch)
    boot_scenario(workspace.node_configs, run_id="run-hooks-boot").close()
    assert calls == {
        "protected_values": 3,
        "load_clinic_store": 1,
        "load_insurer_store": 1,
        "load_guidance": 1,
    }


def test_audit_builds_indexes_without_parsing_guidance(workspace, monkeypatch):
    calls = _count_loader_calls(monkeypatch)
    load_audit_context(workspace.topology_config)
    assert calls == {
        "protected_values": 3,
        "load_clinic_store": 1,
        "load_insurer_store": 1,
        "load_guidance": 0,
    }
