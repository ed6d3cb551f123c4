"""JSON configuration files for nodes and for the audit topology.

A node config declares the node id, dataset paths, secret sources, protected
columns, exposed operations, relay targets, the listener bind address, and
the audit rules for traffic to and from the node.
Relative paths resolve against the config file's directory. This module
alone decides whether a config is valid, and refuses each mistake it can
see as the config loads, with a ``ConfigError`` naming the file and the
key. The README documents the full schema. A relay target is named by the
node it reaches; the runner tells each transport where that node is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Sequence

from .datastore import MatchMode, ProtectedSpec
from .errors import ConfigError, shown_name
from .locality import Topology
from .policies import POLICY_REGISTRY
from .pseudonym import SecretSource
from .relay import RelayTarget
from .runtime import TOOL_DATASETS, TOOL_REGISTRY, OperationConfig

# Each dataset kind and the path names it must give. A clinic or insurer
# path is a table, which a protected entry names as its store; a guidance
# dataset's one path is a directory.
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
_DERIVED_KEYS = ("derived", "allowed_to")


@dataclass(frozen=True)
class NodeConfig:
    file_name: str  # which error texts about the deployment name
    node_id: str
    datasets: Mapping[str, Mapping[str, Path]]
    secrets: SecretSource
    hmac_secret: str | None
    protected: tuple[ProtectedSpec, ...]
    operations: tuple[OperationConfig, ...]
    relay_targets: tuple[RelayTarget, ...]
    bind_host: str
    bind_port: int
    # Audit rule: receives no 64-hex substring.
    token_free: bool


_REQUIRED = object()

# A rule a value must keep besides its type: a test, and what it asks for.
_Rule = tuple[Callable[[Any], bool], str]


def _one_of(names: Collection[str]) -> _Rule:
    return names.__contains__, f"one of {', '.join(names)}"


_NONEMPTY: _Rule = (bool, "non-empty")
_NO_NUL: _Rule = (lambda text: "\0" not in text, "free of NUL")  # no file system or socket call takes one
_PORT: _Rule = (range(65536).__contains__, "in 0..65535")
_MATCH_MODES = _one_of([mode.value for mode in MatchMode])


def _object(value: object, keys: Sequence[str], where: str) -> dict[str, Any]:
    """``value``, which must be an object holding no key but ``keys``. A key
    the loader does not read is a typo or a retired setting; ignoring it
    would run the node with a default its author did not mean."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be an object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {shown_name(key)!r} (reads {', '.join(keys)})")
    return value


def _expect(
    record: Mapping[str, object],
    key: str,
    kind: type,
    where: str,
    default: object = _REQUIRED,
    rule: _Rule | None = None,
) -> Any:
    """``record[key]``, which must be a ``kind`` (a JSON bool is no int);
    ``default`` when the key is absent and a default is given. Either, if
    not ``None``, must keep ``rule``."""
    if key in record:
        value = record[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(
                f"{where}: key {key!r} must be {'true or false' if kind is bool else kind.__name__}"
            )
    elif default is _REQUIRED:
        raise ConfigError(f"{where}: missing key {key!r}")
    else:
        value = default
    if rule is not None and value is not None and not rule[0](value):
        raise ConfigError(f"{where}: key {key!r} must be {rule[1]}")
    return value


def _expect_strings(
    record: Mapping[str, object],
    key: str,
    where: str,
    default: object = _REQUIRED,
    rule: _Rule | None = None,
) -> list[str]:
    """``record[key]``, which must be a list of strings, each keeping
    ``rule`` if one is given."""
    values = _expect(record, key, list, where, default)
    if not all(isinstance(value, str) and (rule is None or rule[0](value)) for value in values):
        each = "" if rule is None else f", each {rule[1]}"
        raise ConfigError(f"{where}: key {key!r} must list strings{each}")
    return values


def _parse_protected(
    record: Mapping[str, object], datasets: Mapping[str, object], hmac_secret: str | None, where: str
) -> tuple[ProtectedSpec, ...]:
    """The protected entries; each names a table of the node's datasets. A
    derived entry confines the case tokens the node can send: those of the
    clinic's patients under the key ``hmac_secret`` names. A node has
    both, or neither."""
    tables = _one_of([name for kind in datasets if kind != "guidance" for name in DATASET_KINDS[kind]])
    specs: list[ProtectedSpec] = []
    for i, entry in enumerate(_expect(record, "protected", list, where, [])):
        at = f"{where}:protected[{i}]"
        derived = isinstance(entry, dict) and "derived" in entry
        entry = _object(entry, _DERIVED_KEYS if derived else _COLUMNS_KEYS, at)
        allowed_to = frozenset(_expect_strings(entry, "allowed_to", at, []))
        if derived:
            kind = _expect(entry, "derived", str, at, rule=_one_of(("case_tokens",)))
            if hmac_secret is None:
                raise ConfigError(f"{at}: key 'derived' names {kind}, which needs the node's key 'hmac_secret'")
            if "clinic" not in datasets:
                raise ConfigError(f"{at}: key 'derived' names {kind}, which needs a 'clinic' dataset")
            specs.append(ProtectedSpec(store="patients", derived=kind, allowed_to=allowed_to))
        else:
            columns = _expect_strings(entry, "columns", at)
            if not columns:
                raise ConfigError(f"{at}: protected entry needs a non-empty 'columns' list")
            specs.append(
                ProtectedSpec(
                    store=_expect(entry, "store", str, at, rule=tables),
                    columns=tuple(columns),
                    match=MatchMode(_expect(entry, "match", str, at, "exact", _MATCH_MODES)),
                    allowed_to=allowed_to,
                )
            )
    if hmac_secret is not None and not any(spec.derived for spec in specs):
        raise ConfigError(f"{where}: key 'hmac_secret' needs a 'derived' protected entry to confine its tokens")
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
    except ValueError:  # an integer literal longer than int() takes
        raise ConfigError(f"{path.name}: invalid JSON: number too long") from None
    except RecursionError:
        raise ConfigError(f"{path.name}: invalid JSON: nested too deeply") from None


def load_node_config(path: Path | str) -> NodeConfig:
    path = Path(path)
    where = path.name
    record = _object(_read_json(path), _NODE_KEYS, where)
    base_dir = path.parent

    datasets: dict[str, dict[str, Path]] = {}
    kinds = _object(_expect(record, "datasets", dict, where), tuple(DATASET_KINDS), f"{where}:datasets")
    for kind, paths in kinds.items():
        names, at = DATASET_KINDS[kind], f"{where}:{kind}"
        paths = _object(paths, names, at)
        datasets[kind] = {name: base_dir / _expect(paths, name, str, at, rule=_NO_NUL) for name in names}

    secrets = _expect(record, "secrets", dict, where, {})
    secret_files: dict[str, Path] = {}
    for name, source in secrets.items():
        at = f"{where}:{shown_name(name)}"
        # without a file, the secret resolves through its environment variable
        if "file" in _object(source, ("file",), at):
            secret_files[name] = base_dir / _expect(source, "file", str, at, rule=_NO_NUL)
    secret_names: _Rule = (secrets.__contains__, "the name of an entry of 'secrets'")
    hmac_secret = _expect(record, "hmac_secret", str, where, None, secret_names)

    operations: list[OperationConfig] = []
    ops_record = _expect(record, "operations", dict, where)
    if not ops_record:
        raise ConfigError(f"{where}: node must expose at least one operation")
    for op_id, op in ops_record.items():
        at = f"{where}:{shown_name(op_id)}"
        op = _object(op, ("policy", "tools", "access_key"), at)
        tools = frozenset(_expect_strings(op, "tools", at, [], _one_of(TOOL_REGISTRY)))
        if "hmac_token" in tools and hmac_secret is None:
            raise ConfigError(f"{at}: key 'tools' lists hmac_token, which needs the node's key 'hmac_secret'")
        for tool, kind in TOOL_DATASETS.items():
            if tool in tools and kind not in datasets:
                raise ConfigError(f"{at}: key 'tools' lists {tool}, which needs a {kind!r} dataset")
        operations.append(
            OperationConfig(
                operation_id=op_id,
                agent_policy=_expect(op, "policy", str, at, rule=_one_of(POLICY_REGISTRY)),
                permitted_tools=tools,
                access_key=_expect(op, "access_key", str, at, rule=_NONEMPTY),
            )
        )

    node_id = _expect(record, "node_id", str, where, rule=_NONEMPTY)
    targets: list[RelayTarget] = []
    for name, target in _expect(record, "relay_targets", dict, where, {}).items():
        if name == node_id:
            raise ConfigError(f"{where}: key 'relay_targets' names {shown_name(name)!r}, the node's own node_id")
        at = f"{where}:{shown_name(name)}"
        target = _object(target, ("operation_id", "access_key"), at)
        targets.append(
            RelayTarget(
                name=name,
                operation_id=_expect(target, "operation_id", str, at, rule=_NONEMPTY),
                access_key=_expect(target, "access_key", str, at, rule=_NONEMPTY),
            )
        )

    bind = _object(_expect(record, "bind", dict, where, {}), ("host", "port"), f"{where}:bind")
    return NodeConfig(
        file_name=where,
        node_id=node_id,
        datasets=datasets,
        secrets=SecretSource(files=secret_files),
        hmac_secret=hmac_secret,
        protected=_parse_protected(record, datasets, hmac_secret, where),
        operations=tuple(operations),
        relay_targets=tuple(targets),
        bind_host=_expect(bind, "host", str, f"{where}:bind", "127.0.0.1", _NO_NUL),
        bind_port=_expect(bind, "port", int, f"{where}:bind", 0, _PORT),
        token_free=_expect(record, "token_free", bool, where, False),
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
    nodes = _object(record, ("nodes",), where).get("nodes")
    if not isinstance(nodes, list) or not nodes or not all(
        isinstance(p, str) and "\0" not in p for p in nodes
    ):
        raise ConfigError(f"{where}: 'nodes' must list node config paths")
    return tuple(path.parent / p for p in nodes)


def build_topology(configs: Sequence[NodeConfig]) -> Topology:
    """Declared relay edges are exactly the configured (node, target) pairs;
    the audit rules are the ones each node declares for itself. Node ids
    must be unique, every node a config names, as a relay target or in an
    ``allowed_to`` list, must be one of ``configs``, a relay target's
    operation must be one its node exposes and its key that operation's
    key, and each operation may be the relay target of one node only,
    which is then where its replies go. No error text quotes a key."""
    exposed: dict[str, dict[str, str]] = {}  # node id -> operation id -> access key
    for cfg in configs:
        if cfg.node_id in exposed:
            raise ConfigError(f"duplicate node id {cfg.node_id!r}")
        exposed[cfg.node_id] = {op.operation_id: op.access_key for op in cfg.operations}
    callers: dict[tuple[str, str], str] = {}
    for cfg in configs:
        for i, spec in enumerate(cfg.protected):
            outside = spec.allowed_to - exposed.keys()
            if outside:
                raise ConfigError(
                    f"{cfg.file_name}:protected[{i}]: key 'allowed_to' names "
                    f"{shown_name(min(outside))!r}, which is not a node of the deployment"
                )
        for target in cfg.relay_targets:
            if target.name not in exposed:
                raise ConfigError(
                    f"{cfg.file_name}: relay target {shown_name(target.name)!r} is not a node of the deployment"
                )
            if target.operation_id not in exposed[target.name]:
                raise ConfigError(
                    f"{cfg.file_name}:{shown_name(target.name)}: key 'operation_id' names "
                    f"{shown_name(target.operation_id)!r}, which node {shown_name(target.name)!r} does not expose"
                )
            if target.access_key != exposed[target.name][target.operation_id]:
                raise ConfigError(
                    f"{cfg.file_name}:{shown_name(target.name)}: key 'access_key' is not the key of "
                    f"operation {shown_name(target.operation_id)!r} of node {shown_name(target.name)!r}"
                )
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
