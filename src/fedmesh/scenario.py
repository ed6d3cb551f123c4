"""Boot a multi-node deployment and drive one request through it.

All nodes of a run share one trace log. The in-process transport wires the
nodes over a local bus for hermetic runs; the network transport starts one
loopback HTTP listener per node and gives each node's transport the address
of every listener. Both preserve the isolation contract because every data
access is store-scoped per node either way.
"""

from __future__ import annotations

import dataclasses
import logging
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .config import NodeConfig, build_topology, load_node_config, load_topology_config
from .datastore import (
    ProtectedValueIndex,
    Table,
    load_clinic_store,
    load_guidance,
    load_insurer_store,
    protected_values,
)
from .errors import ConfigError, FedmeshError
from .locality import Topology, TraceLog, Violation, check_trace
from .policies import POLICY_REGISTRY
from .pseudonym import SecretKey, load_secret
from .relay import HttpTransport, LoopbackTransport, RelayRequest, RelayServer, serve
from .runtime import TOOL_REGISTRY, Node, handle_operation

logger = logging.getLogger(__name__)

TRANSPORTS = ("inprocess", "network")


def load_stores(cfg: NodeConfig) -> tuple[dict[str, object], ProtectedValueIndex, SecretKey | None]:
    """Read the key a node's ``hmac_secret`` names, load its tabular
    stores and build its protected index, whose case tokens that key
    derives.

    The raw tables feed only the index, so they are garbage once this
    returns. Guidance extracts have no tables and are not loaded here.
    """
    key = None if cfg.hmac_secret is None else load_secret(cfg.hmac_secret, cfg.secrets)
    stores: dict[str, object] = {}
    tables: dict[str, Table] = {}
    for kind, paths in cfg.datasets.items():
        if kind == "clinic":
            stores[kind], loaded = load_clinic_store(paths["observations"], paths["patients"])
        elif kind == "insurer":
            stores[kind], loaded = load_insurer_store(paths["enrollment"], paths["coverage_rules"])
        else:
            continue
        tables.update(loaded)
    return stores, protected_values(cfg.node_id, cfg.protected, tables, key), key


def build_node(
    cfg: NodeConfig,
    *,
    topology: Topology | None = None,
    trace: TraceLog | None = None,
) -> Node:
    """Load datasets, build the protected index, read the HMAC key and
    instantiate policies. The key is read once, for both the index's case
    tokens and the ``hmac_token`` tool.

    ``topology`` is the deployment's. Without one, the node stands alone:
    its relay targets name nodes outside any deployment, so its guard
    permits no edge."""
    datasets, index, key = load_stores(cfg)
    if "guidance" in cfg.datasets:
        datasets["guidance"] = load_guidance(cfg.datasets["guidance"]["dir"])

    return Node(
        node_id=cfg.node_id,
        datasets=datasets,  # type: ignore[arg-type]
        operations={op.operation_id: op for op in cfg.operations},
        policies={op.operation_id: POLICY_REGISTRY[op.agent_policy]() for op in cfg.operations},
        relay_targets={target.name: target for target in cfg.relay_targets},
        protected_index=index,
        tools=dict(TOOL_REGISTRY),
        hmac_key=key,
        trace=trace,
        topology=topology or Topology(),
    )


def load_audit_context(
    topology_config_path: Path | str,
) -> tuple[Topology, dict[str, ProtectedValueIndex]]:
    """Rebuild the topology and per-node indexes the trace checker needs.

    Only the indexes are kept: each node's stores are freed before the next
    node loads, and guidance is never parsed.
    """
    configs = [load_node_config(path) for path in load_topology_config(topology_config_path)]
    topology = build_topology(configs)
    return topology, {cfg.node_id: load_stores(cfg)[1] for cfg in configs}


@dataclass
class Scenario:
    """A booted deployment: nodes, shared trace, declared topology."""

    run_id: str
    nodes: dict[str, Node]
    trace: TraceLog
    topology: Topology
    entry_node: str
    entry_operation: str
    servers: list[RelayServer] = field(default_factory=list)

    def submit(self, body: str, conversation_id: str | None = None) -> str:
        node = self.nodes[self.entry_node]
        op = node.operations[self.entry_operation]
        request = RelayRequest(
            operation_id=self.entry_operation,
            access_key=op.access_key,
            conversation_id=conversation_id or f"{self.run_id}-c1",
            body=body,
        )
        return handle_operation(node, request)

    def indexes(self):
        return {node_id: node.protected_index for node_id, node in self.nodes.items()}

    def check(self) -> list[Violation]:
        return check_trace(self.trace, self.topology, self.indexes())

    def close(self) -> None:
        for node in self.nodes.values():  # first, so kept-alive handler threads see EOF
            if node.transport is not None:
                node.transport.close()
        for server in self.servers:
            server.close()
        self.servers.clear()


def boot_scenario(
    config_paths: Sequence[Path | str],
    *,
    transport: str = "inprocess",
    run_id: str | None = None,
) -> Scenario:
    """Boot every configured node; the first config hosts the entry
    operation."""
    if transport not in TRANSPORTS:
        raise ConfigError(f"unknown transport {transport!r} (expected one of {TRANSPORTS})")
    if not config_paths:
        raise ConfigError("at least one node config is required")

    run_id = run_id or f"run-{uuid.uuid4().hex[:12]}"
    trace = TraceLog(run_id)
    configs = [load_node_config(path) for path in config_paths]
    topology = build_topology(configs)

    nodes = {cfg.node_id: build_node(cfg, topology=topology, trace=trace) for cfg in configs}
    scenario = Scenario(
        run_id=run_id,
        nodes=nodes,
        trace=trace,
        topology=topology,
        entry_node=configs[0].node_id,
        entry_operation=configs[0].operations[0].operation_id,
    )
    try:
        if transport == "inprocess":
            for node in nodes.values():
                node.transport = LoopbackTransport(nodes)
        else:
            addresses: dict[str, tuple[str, int]] = {}
            for cfg in configs:
                server = serve(nodes[cfg.node_id], (cfg.bind_host, cfg.bind_port))
                scenario.servers.append(server)
                addresses[cfg.node_id] = server.address
            for node in nodes.values():
                node.transport = HttpTransport(addresses)
            logger.info("network listeners: %s", ", ".join(f"{n}={h}:{p}" for n, (h, p) in addresses.items()))
    except BaseException:  # a listener failed to bind: stop the ones already started
        scenario.close()
        raise
    return scenario


@dataclass(frozen=True)
class ScenarioResult:
    run_id: str
    request_body: str
    response_body: str | None
    error: str | None
    trace: TraceLog
    violations: tuple[Violation, ...]
    transcript: str

    @property
    def exit_code(self) -> int:
        # 0 clean, 1 operational failure, 2 locality violations
        if self.error is not None:
            return 1
        return 2 if self.violations else 0


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.split("\n"))


def _build_transcript(
    scenario: Scenario,
    request_body: str,
    response_body: str | None,
    error: str | None,
    violations: Sequence[Violation],
) -> str:
    lines = [f"run {scenario.run_id}: {scenario.entry_node}/{scenario.entry_operation}"]
    lines.append(f"> {request_body}")
    for env in scenario.trace.envelopes:
        lines.append(f"[{env.sent_at}] {env.from_node} -> {env.to_node} ({env.operation_id})")
        lines.append(_indent(env.body))
    if response_body is not None:
        lines.append(f"response <- {scenario.entry_node}")
        lines.append(_indent(response_body))
    if error is not None:
        lines.append(f"error: {error}")
    if violations:
        lines.append(f"locality: {len(violations)} violation(s)")
        lines.extend(_indent(v.to_json()) for v in violations)
    else:
        lines.append("locality: clean")
    return "\n".join(lines) + "\n"


def run_scenario(
    config_paths: Sequence[Path | str],
    request_body: str,
    *,
    transport: str = "inprocess",
    run_id: str | None = None,
    trace_path: Path | str | None = None,
    inject_leak: str | None = None,
    forward_token: bool = False,
    bypass_guard: bool = False,
) -> ScenarioResult:
    """Boot, submit the request, audit the trace, and assemble a transcript.

    ``inject_leak`` appends text to every body the entry node sends out;
    ``forward_token`` makes the insurer leak the case token into its
    consult; ``bypass_guard`` disables the runtime guard so seeded faults
    reach the trace for the offline checker to catch.
    """
    scenario = boot_scenario(config_paths, transport=transport, run_id=run_id)
    try:
        if forward_token:
            for node in scenario.nodes.values():
                for op_id, op in node.operations.items():
                    if op.agent_policy == "insurer":
                        node.policies[op_id] = dataclasses.replace(
                            node.policies[op_id], forward_token=True
                        )
        if bypass_guard:
            for node in scenario.nodes.values():
                node.enforce_guard = False
        if inject_leak:
            entry = scenario.nodes[scenario.entry_node]
            entry.outbound_mutators.append(lambda target, body: f"{body}\n{inject_leak}")

        response_body: str | None = None
        error: str | None = None
        try:
            response_body = scenario.submit(request_body)
        except FedmeshError as exc:
            error = f"{type(exc).__name__}: {exc}"

        violations = tuple(scenario.check())
        if trace_path is not None:
            scenario.trace.write(trace_path)
        transcript = _build_transcript(scenario, request_body, response_body, error, violations)
        return ScenarioResult(
            run_id=scenario.run_id,
            request_body=request_body,
            response_body=response_body,
            error=error,
            trace=scenario.trace,
            violations=violations,
            transcript=transcript,
        )
    finally:
        scenario.close()
