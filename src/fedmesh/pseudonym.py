"""Identifier normalisation and HMAC-SHA256 case-token derivation.

A case token is the lowercase-hex HMAC-SHA256 of the canonical (trimmed,
uppercased) identifier under a node-held secret key. The token links a case
across organisations without revealing the identifier itself.

HMAC's inner and outer hash states depend on the key alone, so they can be
computed once per key and reused for every message (RFC 2104 §4). A
``SecretKey`` keeps the two SHA-256 states of its key when it is made: the
key, hashed first if it is longer than SHA-256's 64-byte block, zero-padded
to the block and XORed with 0x36 for the inner state and 0x5c for the outer.
Every token under it, one or ten thousand, feeds a copy of the inner state
one identifier and a copy of the outer state that inner digest.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InvalidIdentifier, SecretNotFound, WeakSecret

TOKEN_RE = re.compile(r"^[0-9a-f]{64}$")

MIN_KEY_BYTES = 16

ENV_PREFIX = "FEDMESH_SECRET_"

# SHA-256's block size, and the tables that XOR each byte of a padded key
# with HMAC's inner and outer pads.
_BLOCK_BYTES = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


@dataclass(frozen=True)
class CanonicalId:
    """Identifier in canonical form: trimmed, uppercased, non-empty."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise InvalidIdentifier("identifier is empty")
        if self.value != self.value.strip().upper():
            raise InvalidIdentifier(f"identifier {self.value!r} is not in canonical form")


@dataclass(frozen=True)
class SecretKey:
    """Named key material. Neither the material nor the HMAC states keyed
    by it appear in repr or logs, and the states take no part in ``==``
    or ``hash``."""

    name: str
    material: bytes = field(repr=False)
    _inner: hashlib._Hash = field(init=False, repr=False, compare=False)
    _outer: hashlib._Hash = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.material) < MIN_KEY_BYTES:
            raise WeakSecret(
                f"secret {self.name!r} is {len(self.material)} bytes; "
                f"minimum is {MIN_KEY_BYTES}"
            )
        block = self.material
        if len(block) > _BLOCK_BYTES:
            block = hashlib.sha256(block).digest()
        block = block.ljust(_BLOCK_BYTES, b"\0")
        object.__setattr__(self, "_inner", hashlib.sha256(block.translate(_IPAD)))
        object.__setattr__(self, "_outer", hashlib.sha256(block.translate(_OPAD)))


@dataclass(frozen=True)
class CaseToken:
    """64-character lowercase-hex pseudonymous token."""

    hex: str

    def __post_init__(self) -> None:
        check_token_hex(self.hex)

    def __str__(self) -> str:
        return self.hex


def check_token_hex(value: str) -> str:
    """``value``, if it is 64 lowercase hex characters; else ``ValueError``."""
    if not TOKEN_RE.fullmatch(value):
        raise ValueError("token must be 64 lowercase hex characters")
    return value


def canonical_id(raw: str) -> str:
    """The canonical form of an identifier: trimmed, then uppercased."""
    value = raw.strip().upper()
    if not value:
        raise InvalidIdentifier("identifier is empty after trimming")
    return value


def normalize_id(raw: str) -> CanonicalId:
    """Trim and uppercase an identifier; idempotent on canonical input."""
    return CanonicalId(canonical_id(raw))


def token_hexes(key: SecretKey, canonical_ids: Iterable[str]) -> list[str]:
    """The lowercase-hex HMAC-SHA256 of each canonical identifier's UTF-8,
    in order, each from copies of the key's inner and outer states."""
    inner_copy, outer_copy = key._inner.copy, key._outer.copy
    hexes: list[str] = []
    for value in canonical_ids:
        inner = inner_copy()
        inner.update(value.encode("utf-8"))
        outer = outer_copy()
        outer.update(inner.digest())
        hexes.append(outer.hexdigest())
    return hexes


def derive_token(key: SecretKey, cid: CanonicalId) -> CaseToken:
    """HMAC-SHA256 of the UTF-8 canonical identifier, rendered lowercase hex."""
    return CaseToken(token_hexes(key, (cid.value,))[0])


@dataclass(frozen=True)
class SecretSource:
    """Node-local secret resolution.

    A name resolves to a configured key file when one is declared, else to
    the ``FEDMESH_SECRET_<NAME>`` environment variable. Key files may end
    with a trailing newline, which is stripped.
    """

    files: Mapping[str, Path] = field(default_factory=dict)
    env: Mapping[str, str] | None = None

    def resolve(self, name: str) -> bytes:
        path = self.files.get(name)
        if path is not None:
            if not Path(path).is_file():
                raise SecretNotFound(f"secret {name!r}: key file not found")
            return Path(path).read_bytes().rstrip(b"\r\n")
        env = os.environ if self.env is None else self.env
        var = ENV_PREFIX + name.upper()
        if var not in env:
            raise SecretNotFound(f"secret {name!r} not found (no key file, no ${var})")
        return env[var].encode("utf-8")


def load_secret(name: str, source: SecretSource) -> SecretKey:
    """Resolve named key material from the node-local source."""
    return SecretKey(name=name, material=source.resolve(name))
