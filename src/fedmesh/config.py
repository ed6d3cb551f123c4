"""JSON configuration files for nodes and for the audit topology.

A node config declares the node id, dataset paths, secret sources, protected
columns, exposed operations, relay targets, the listener bind address, and
the audit rules for traffic to and from the node.
Relative paths resolve against the config file's directory. The README
documents the full schema; by contract a relay target's name must equal the
destination node's id.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .datastore import MatchMode, ProtectedSpec
from .errors import ConfigError
from .locality import Topology
from .policies import POLICY_REGISTRY
from .relay import RelayTarget
from .runtime import DEFAULT_LOOP_LIMIT, OperationConfig

# Each dataset kind and the path names it must give.
DATASET_KINDS = {
    "clinic": ("patients", "observations"),
    "insurer": ("enrollment", "coverage_rules"),
    "guidance": ("dir",),
}


@dataclass(frozen=True)
class NodeConfig:
    node_id: str
    datasets: Mapping[str, Mapping[str, Path]]
    secret_files: Mapping[str, Path]
    hmac_secret: str | None
    protected: tuple[ProtectedSpec, ...]
    operations: tuple[OperationConfig, ...]
    policy_options: Mapping[str, Mapping[str, object]]
    relay_targets: tuple[RelayTarget, ...]
    bind_host: str
    bind_port: int
    loop_limit: int
    # Audit rule: receives no 64-hex substring.
    token_free: bool


_REQUIRED = object()


def _expect(
    record: Mapping[str, object], key: str, kind: type, where: str, default: object = _REQUIRED
) -> Any:
    """``record[key]``, which must be a ``kind`` (a JSON bool is no int);
    ``default`` when the key is absent and a default is given."""
    if key not in record:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing key {key!r}")
        return default
    value = record[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _check_policy_options(policy: str, options: Mapping[str, object], where: str) -> None:
    """A dataclass policy takes only its init fields, each typed as its default."""
    factory = POLICY_REGISTRY.get(policy)
    if factory is None or not dataclasses.is_dataclass(factory):
        return
    defaults = {f.name: f.default for f in dataclasses.fields(factory) if f.init}
    for key, value in options.items():
        if key not in defaults:
            raise ConfigError(f"{where}: unknown policy_options key {key!r} for policy {policy!r}")
        default = defaults[key]
        if default is not dataclasses.MISSING and type(value) is not type(default):
            raise ConfigError(f"{where}: policy_options key {key!r} must be {type(default).__name__}")


def _parse_protected(entries: object, where: str) -> tuple[ProtectedSpec, ...]:
    if not isinstance(entries, list):
        raise ConfigError(f"{where}: 'protected' must be a list")
    specs: list[ProtectedSpec] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: protected entries must be objects")
        try:
            match = MatchMode(entry.get("match", "exact"))
        except ValueError:
            raise ConfigError(f"{where}: protected match must be 'exact' or 'text'") from None
        allowed_to = _expect(entry, "allowed_to", list, where, [])
        if not all(isinstance(node, str) for node in allowed_to):
            raise ConfigError(f"{where}: key 'allowed_to' must list node ids")
        allowed_to = frozenset(allowed_to)
        if "derived" in entry:
            specs.append(
                ProtectedSpec(
                    derived=_expect(entry, "derived", str, where),
                    store=_expect(entry, "store", str, where, "patients"),
                    column=_expect(entry, "column", str, where, "patient_id"),
                    secret=_expect(entry, "secret", str, where, None),
                    match=match,
                    allowed_to=allowed_to,
                )
            )
        else:
            columns = entry.get("columns")
            if not isinstance(columns, list) or not columns:
                raise ConfigError(f"{where}: protected entry needs a non-empty 'columns' list")
            specs.append(
                ProtectedSpec(
                    store=_expect(entry, "store", str, where),
                    columns=tuple(str(col) for col in columns),
                    match=match,
                    allowed_to=allowed_to,
                )
            )
    return tuple(specs)


def _read_json(path: Path) -> Any:
    """The JSON value a config file holds; ``ConfigError`` names the file
    if it is not UTF-8, not JSON, or nested too deeply to parse."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path.name}: invalid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path.name}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path.name}: invalid JSON: nested too deeply") from None


def load_node_config(path: Path | str) -> NodeConfig:
    path = Path(path)
    where = path.name
    record = _read_json(path)
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: config root must be an object")

    base_dir = path.parent
    node_id = _expect(record, "node_id", str, where)
    if not node_id:
        raise ConfigError(f"{where}: node_id must be non-empty")

    datasets: dict[str, dict[str, Path]] = {}
    for kind, paths in _expect(record, "datasets", dict, where).items():
        if kind not in DATASET_KINDS:
            raise ConfigError(f"{where}: unknown dataset kind {kind!r}")
        if not isinstance(paths, dict):
            raise ConfigError(f"{where}: dataset {kind!r} must map names to paths")
        datasets[kind] = {
            name: base_dir / _expect(paths, name, str, f"{where}:{kind}")
            for name in DATASET_KINDS[kind]
        }

    secret_files: dict[str, Path] = {}
    for name, source in _expect(record, "secrets", dict, where, {}).items():
        if not isinstance(source, dict):
            raise ConfigError(f"{where}: secret {name!r} must be an object")
        if "file" in source:
            secret_files[name] = base_dir / _expect(source, "file", str, f"{where}:{name}")
        # otherwise the secret resolves through its environment variable

    operations: list[OperationConfig] = []
    policy_options: dict[str, dict[str, object]] = {}
    ops_record = _expect(record, "operations", dict, where)
    if not ops_record:
        raise ConfigError(f"{where}: node must expose at least one operation")
    for op_id, op in ops_record.items():
        if not isinstance(op, dict):
            raise ConfigError(f"{where}: operation {op_id!r} must be an object")
        tools = op.get("tools", [])
        if not isinstance(tools, list):
            raise ConfigError(f"{where}: operation {op_id!r}: 'tools' must be a list")
        operations.append(
            OperationConfig(
                operation_id=str(op_id),
                agent_policy=_expect(op, "policy", str, f"{where}:{op_id}"),
                permitted_tools=frozenset(str(tool) for tool in tools),
                access_key=_expect(op, "access_key", str, f"{where}:{op_id}"),
            )
        )
        options = op.get("policy_options", {})
        if not isinstance(options, dict):
            raise ConfigError(f"{where}: operation {op_id!r}: 'policy_options' must be an object")
        _check_policy_options(operations[-1].agent_policy, options, f"{where}:{op_id}")
        policy_options[str(op_id)] = dict(options)

    targets: list[RelayTarget] = []
    for name, target in _expect(record, "relay_targets", dict, where, {}).items():
        if not isinstance(target, dict):
            raise ConfigError(f"{where}: relay target {name!r} must be an object")
        targets.append(
            RelayTarget(
                name=str(name),
                url=_expect(target, "url", str, f"{where}:{name}"),
                operation_id=_expect(target, "operation_id", str, f"{where}:{name}"),
                access_key=_expect(target, "access_key", str, f"{where}:{name}"),
            )
        )

    token_free = record.get("token_free", False)
    if not isinstance(token_free, bool):
        raise ConfigError(f"{where}: 'token_free' must be true or false")

    bind = _expect(record, "bind", dict, where, {})
    bind_port = _expect(bind, "port", int, f"{where}:bind", 0)
    if not 0 <= bind_port <= 65535:
        raise ConfigError(f"{where}:bind: key 'port' must be in 0..65535")

    return NodeConfig(
        node_id=node_id,
        datasets=datasets,
        secret_files=secret_files,
        hmac_secret=_expect(record, "hmac_secret", str, where, None),
        protected=_parse_protected(record.get("protected", []), where),
        operations=tuple(operations),
        policy_options=policy_options,
        relay_targets=tuple(targets),
        bind_host=_expect(bind, "host", str, f"{where}:bind", "127.0.0.1"),
        bind_port=bind_port,
        loop_limit=_expect(record, "loop_limit", int, where, DEFAULT_LOOP_LIMIT),
        token_free=token_free,
    )


# ---------------------------------------------------------------------------
# Audit topology
# ---------------------------------------------------------------------------

# Audit settings a topology file once carried, and where each lives now or
# why it needs none.
# Ignoring one silently would weaken the checker, so loading rejects it.
_MOVED_TOPOLOGY_KEYS = {
    "token_free_nodes": 'set "token_free": true in each such node\'s config',
    "inquiry_edges": "raw patient ids are barred on every edge",
    "patient_id_pattern": "the pattern is fixed (fedmesh.locality.PATIENT_ID_RE)",
}


def load_topology_config(path: Path | str) -> tuple[Path, ...]:
    """The node config paths a topology file lists."""
    path = Path(path)
    where = path.name
    record = _read_json(path)
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: topology root must be an object")
    for key, moved_to in _MOVED_TOPOLOGY_KEYS.items():
        if key in record:
            raise ConfigError(f"{where}: {key!r} is no longer read here; {moved_to}")
    nodes = record.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError(f"{where}: 'nodes' must list node config paths")
    return tuple(path.parent / str(p) for p in nodes)


def build_topology(configs: Sequence[NodeConfig]) -> Topology:
    """Declared relay edges are exactly the configured (node, target) pairs;
    the audit rules are the ones each node declares for itself. Node ids
    must be unique, and each operation may be the relay target of one node
    only, which is then where its replies go."""
    seen: set[str] = set()
    for cfg in configs:
        if cfg.node_id in seen:
            raise ConfigError(f"duplicate node id {cfg.node_id!r}")
        seen.add(cfg.node_id)
    callers: dict[tuple[str, str], str] = {}
    for cfg in configs:
        for target in cfg.relay_targets:
            caller = callers.setdefault((target.name, target.operation_id), cfg.node_id)
            if caller != cfg.node_id:
                raise ConfigError(
                    f"operation {target.operation_id!r} of node {target.name!r} is called by "
                    f"both {caller!r} and {cfg.node_id!r}; its replies need one caller"
                )
    return Topology(
        edges=frozenset((caller, node) for (node, _), caller in callers.items()),
        token_free_nodes=frozenset(cfg.node_id for cfg in configs if cfg.token_free),
        callers=callers,
    )
