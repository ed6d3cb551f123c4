from __future__ import annotations

import hashlib

import pytest

from fedmesh.datastore import MatchMode, ProtectedValueIndex
from fedmesh.fixtures import write_demo_workspace
from fedmesh.locality import Finding, ViolationKind

# Pinned before implementation against two independent HMAC-SHA256
# references (openssl dgst and the RFC 2104 construction below), key
# "demo-secret-key-000".
GOLDEN_TOKENS = {
    "CLN-0001": "e5aa44dc52f67331c3022c00653efaf0e5a307dc0a2df5bae51efc198d7d35bf",
    "CLN-0002": "de8cd9d927a8d3d12dd5d4600ebd5e2ee73b3b536372f0fa01d98a4e76781c8c",
    "CLN-0003": "faa02e0f0d2c706bf2e298ee6668130522f66c69edfa44e821915996f558f3e9",
    "CLN-0004": "d9a53fdfcc5da50f9f84e5823144d6249f86d5b1e6f0b2ba19737fdfc4e5f4a8",
    "CLN-0005": "e559fbf8cb01fd815220af8aa5bcccf1b73d1b80f0120ff45026ff8863eec189",
}


def hmac_sha256_reference(key: bytes, message: bytes) -> str:
    """Independent HMAC oracle: RFC 2104 built from raw SHA-256 only."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\x00")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + message).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).hexdigest()


def oracle_scan(body: str, index: ProtectedValueIndex, edge: tuple[str, str]) -> list[Finding]:
    """Reference protected-value rule: one substring test per index entry,
    in index order, skipping entries whitelisted for the destination. The
    compiled matcher behind ``scan_outbound`` must find exactly this."""
    _, to_node = edge
    findings: list[Finding] = []
    folded = body.casefold()
    for entry in index.entries:
        if to_node in entry.allowed_to:
            continue
        if entry.match is MatchMode.TEXT:
            hit = entry.value.casefold() in folded
        else:
            hit = entry.value in body
        if hit:
            findings.append(Finding(ViolationKind.PROTECTED_VALUE, entry.source_column, entry.value))
    return findings


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    return write_demo_workspace(tmp_path_factory.mktemp("workspace"))
