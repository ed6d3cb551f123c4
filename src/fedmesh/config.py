"""JSON configuration files for nodes and for the audit topology.

A node config declares the node id, dataset paths, secret sources, protected
columns, exposed operations, relay targets, the listener bind address, and
the audit rules for traffic to and from the node.
Relative paths resolve against the config file's directory. Every object
in a config refuses a key its loader does not read. The README documents
the full schema; by contract a relay target's name must equal the
destination node's id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .datastore import MatchMode, ProtectedSpec
from .errors import ConfigError
from .locality import Topology
from .relay import RelayTarget
from .runtime import OperationConfig

# Each dataset kind and the path names it must give.
DATASET_KINDS = {
    "clinic": ("patients", "observations"),
    "insurer": ("enrollment", "coverage_rules"),
    "guidance": ("dir",),
}

# The keys a node config's root and each kind of protected entry may hold.
_NODE_KEYS = (
    "node_id", "datasets", "secrets", "hmac_secret", "protected",
    "operations", "relay_targets", "token_free", "bind",
)
_COLUMNS_KEYS = ("store", "columns", "match", "allowed_to")
_DERIVED_KEYS = ("derived", "store", "column", "secret", "match", "allowed_to")


@dataclass(frozen=True)
class NodeConfig:
    node_id: str
    datasets: Mapping[str, Mapping[str, Path]]
    secret_files: Mapping[str, Path]
    hmac_secret: str | None
    protected: tuple[ProtectedSpec, ...]
    operations: tuple[OperationConfig, ...]
    relay_targets: tuple[RelayTarget, ...]
    bind_host: str
    bind_port: int
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


def _expect_strings(
    record: Mapping[str, object], key: str, where: str, default: object = _REQUIRED
) -> list[str]:
    """``record[key]``, which must be a list of strings."""
    values = _expect(record, key, list, where, default)
    if not all(isinstance(value, str) for value in values):
        raise ConfigError(f"{where}: key {key!r} must list strings")
    return values


def _refuse_unread(record: Mapping[str, object], keys: Sequence[str], where: str) -> None:
    """A key the loader does not read is a typo or a retired setting;
    ignoring it would run the node with a default its author did not mean."""
    for key in record:
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r} (reads {', '.join(keys)})")


def _parse_protected(entries: object, where: str) -> tuple[ProtectedSpec, ...]:
    if not isinstance(entries, list):
        raise ConfigError(f"{where}: 'protected' must be a list")
    specs: list[ProtectedSpec] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: protected entries must be objects")
        keys = _DERIVED_KEYS if "derived" in entry else _COLUMNS_KEYS
        _refuse_unread(entry, keys, f"{where}:protected[{i}]")
        try:
            match = MatchMode(entry.get("match", "exact"))
        except ValueError:
            raise ConfigError(f"{where}: protected match must be 'exact' or 'text'") from None
        allowed_to = frozenset(_expect_strings(entry, "allowed_to", where, []))
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
            columns = _expect_strings(entry, "columns", where)
            if not columns:
                raise ConfigError(f"{where}: protected entry needs a non-empty 'columns' list")
            specs.append(
                ProtectedSpec(
                    store=_expect(entry, "store", str, where),
                    columns=tuple(columns),
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
    _refuse_unread(record, _NODE_KEYS, where)

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
        _refuse_unread(paths, DATASET_KINDS[kind], f"{where}:{kind}")
        datasets[kind] = {
            name: base_dir / _expect(paths, name, str, f"{where}:{kind}")
            for name in DATASET_KINDS[kind]
        }

    secret_files: dict[str, Path] = {}
    for name, source in _expect(record, "secrets", dict, where, {}).items():
        if not isinstance(source, dict):
            raise ConfigError(f"{where}: secret {name!r} must be an object")
        _refuse_unread(source, ("file",), f"{where}:{name}")
        if "file" in source:
            secret_files[name] = base_dir / _expect(source, "file", str, f"{where}:{name}")
        # otherwise the secret resolves through its environment variable

    operations: list[OperationConfig] = []
    ops_record = _expect(record, "operations", dict, where)
    if not ops_record:
        raise ConfigError(f"{where}: node must expose at least one operation")
    for op_id, op in ops_record.items():
        if not isinstance(op, dict):
            raise ConfigError(f"{where}: operation {op_id!r} must be an object")
        _refuse_unread(op, ("policy", "tools", "access_key"), f"{where}:{op_id}")
        operations.append(
            OperationConfig(
                operation_id=op_id,
                agent_policy=_expect(op, "policy", str, f"{where}:{op_id}"),
                permitted_tools=frozenset(_expect_strings(op, "tools", f"{where}:{op_id}", [])),
                access_key=_expect(op, "access_key", str, f"{where}:{op_id}"),
            )
        )

    targets: list[RelayTarget] = []
    for name, target in _expect(record, "relay_targets", dict, where, {}).items():
        if not isinstance(target, dict):
            raise ConfigError(f"{where}: relay target {name!r} must be an object")
        _refuse_unread(target, ("url", "operation_id", "access_key"), f"{where}:{name}")
        targets.append(
            RelayTarget(
                name=name,
                url=_expect(target, "url", str, f"{where}:{name}"),
                operation_id=_expect(target, "operation_id", str, f"{where}:{name}"),
                access_key=_expect(target, "access_key", str, f"{where}:{name}"),
            )
        )

    token_free = record.get("token_free", False)
    if not isinstance(token_free, bool):
        raise ConfigError(f"{where}: 'token_free' must be true or false")

    bind = _expect(record, "bind", dict, where, {})
    _refuse_unread(bind, ("host", "port"), f"{where}:bind")
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
        relay_targets=tuple(targets),
        bind_host=_expect(bind, "host", str, f"{where}:bind", "127.0.0.1"),
        bind_port=bind_port,
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
    _refuse_unread(record, ("nodes",), where)
    nodes = record.get("nodes")
    if not isinstance(nodes, list) or not nodes or not all(isinstance(p, str) for p in nodes):
        raise ConfigError(f"{where}: 'nodes' must list node config paths")
    return tuple(path.parent / p for p in nodes)


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
