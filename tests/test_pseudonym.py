from __future__ import annotations

import re
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from fedmesh.errors import InvalidIdentifier, SecretNotFound, WeakSecret
from fedmesh.pseudonym import (
    CanonicalId,
    CaseToken,
    SecretKey,
    SecretSource,
    canonical_id,
    derive_token,
    load_secret,
    normalize_id,
)

from conftest import GOLDEN_TOKENS, hmac_sha256_reference

KEY = SecretKey(name="fixture", material=b"demo-secret-key-000")

TOKEN_SHAPE = re.compile(r"^[0-9a-f]{64}$")


def test_normalize_trims_and_uppercases():
    assert normalize_id(" cln-0001 ").value == "CLN-0001"


def test_normalize_identity_on_canonical_input():
    assert normalize_id("CLN-0001").value == "CLN-0001"


@pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
def test_normalize_rejects_blank(raw):
    with pytest.raises(InvalidIdentifier):
        normalize_id(raw)


def test_canonical_id_rejects_non_canonical_value():
    with pytest.raises(InvalidIdentifier):
        CanonicalId(" cln-0001 ")


def test_derive_token_golden():
    token = derive_token(KEY, normalize_id("CLN-0001"))
    assert token.hex == GOLDEN_TOKENS["CLN-0001"]


def test_derive_token_deterministic():
    cid = normalize_id("CLN-0002")
    assert derive_token(KEY, cid) == derive_token(KEY, cid)


def test_derive_token_normalization_invariance():
    assert derive_token(KEY, normalize_id(" cln-0001 ")) == derive_token(
        KEY, normalize_id("CLN-0001")
    )


def test_case_token_validates_shape():
    with pytest.raises(ValueError):
        CaseToken("ABC")
    with pytest.raises(ValueError):
        CaseToken(GOLDEN_TOKENS["CLN-0001"].upper())


nonblank_ids = st.text(min_size=1, max_size=40).filter(lambda s: s.strip())


@given(nonblank_ids)
def test_token_shape_property(raw):
    assert TOKEN_SHAPE.fullmatch(derive_token(KEY, normalize_id(raw)).hex)


@given(nonblank_ids)
def test_matches_independent_oracle(raw):
    cid = normalize_id(raw)
    expected = hmac_sha256_reference(KEY.material, cid.value.encode("utf-8"))
    assert derive_token(KEY, cid).hex == expected


@given(nonblank_ids)
def test_canonical_id_maps_its_results_to_themselves(raw):
    """The clinic load takes a cell that is already a canonical id as its
    own canonical form, which holds because this does."""
    canonical = canonical_id(raw)
    assert canonical_id(canonical) == canonical


@given(nonblank_ids)
def test_raw_and_canonical_agree(raw):
    canonical = raw.strip().upper()
    assert derive_token(KEY, normalize_id(raw)) == derive_token(KEY, normalize_id(canonical))


# --- secret handling ---


def test_secret_key_repr_redacts_material():
    assert "demo-secret-key-000" not in repr(KEY)
    assert "demo-secret-key-000" not in str(KEY)


def test_keyed_state_and_material_stay_out_of_repr_and_errors():
    """The HMAC inner and outer hash states a key keeps are as hidden as
    its material: only the name shows in repr, the states take no part in
    ``==`` or ``hash``, and no error met while resolving a key or deriving
    a token quotes the material, raw or in hex."""
    assert [f.name for f in fields(SecretKey) if f.repr] == ["name"]
    states = [f.name for f in fields(SecretKey) if not f.init]
    assert states == ["_inner", "_outer"]
    assert [f.name for f in fields(SecretKey) if f.compare] == ["name", "material"]
    material = "demo-secret-key-000"
    weak_material = material[:12]  # also a part of the full material
    key = load_secret("k", SecretSource(env={"FEDMESH_SECRET_K": material}))
    twin = load_secret("k", SecretSource(env={"FEDMESH_SECRET_K": material}))
    assert key._inner is not twin._inner and key == twin and hash(key) == hash(twin)
    # A key that differs only in its states is still the same key.
    object.__setattr__(twin, "_inner", twin._outer)
    assert key == twin and hash(key) == hash(twin)
    texts = [repr(key), str(key)]
    with pytest.raises(WeakSecret) as weak:
        load_secret("k", SecretSource(env={"FEDMESH_SECRET_K": weak_material}))
    with pytest.raises(InvalidIdentifier) as blank:
        derive_token(key, normalize_id(" "))
    with pytest.raises(UnicodeEncodeError) as unencodable:
        derive_token(key, normalize_id("\ud800"))
    texts += [str(weak.value), str(blank.value), str(unencodable.value)]
    for text in texts:
        assert weak_material not in text
        assert weak_material.encode().hex() not in text


def test_weak_secret_rejected():
    with pytest.raises(WeakSecret):
        SecretKey(name="short", material=b"8bytes!!")


def test_load_secret_from_env():
    source = SecretSource(env={"FEDMESH_SECRET_CLINIC_HMAC_KEY": "demo-secret-key-000"})
    key = load_secret("clinic_hmac_key", source)
    assert key.material == b"demo-secret-key-000"


def test_load_secret_from_file_strips_newline(tmp_path):
    path = tmp_path / "hmac.key"
    path.write_text("demo-secret-key-000\n")
    key = load_secret("clinic_hmac_key", SecretSource(files={"clinic_hmac_key": path}))
    assert key.material == b"demo-secret-key-000"


def test_load_secret_missing():
    with pytest.raises(SecretNotFound):
        load_secret("clinic_hmac_key", SecretSource(env={}))


def test_load_secret_missing_file(tmp_path):
    source = SecretSource(files={"clinic_hmac_key": tmp_path / "absent.key"}, env={})
    with pytest.raises(SecretNotFound):
        load_secret("clinic_hmac_key", source)


def test_load_secret_weak_material():
    source = SecretSource(env={"FEDMESH_SECRET_K": "tiny"})
    with pytest.raises(WeakSecret):
        load_secret("k", source)


def test_key_material_never_serialised(workspace):
    """The fixture secret must not appear in traces, transcripts, or logs."""
    import logging

    from fedmesh.fixtures import CANONICAL_REQUEST, FIXTURE_SECRET
    from fedmesh.scenario import run_scenario

    records: list[str] = []

    class Collector(logging.Handler):
        def emit(self, record):
            records.append(self.format(record))

    handler = Collector(level=logging.DEBUG)
    root = logging.getLogger("fedmesh")
    old_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.DEBUG)
    try:
        result = run_scenario(workspace.node_configs, CANONICAL_REQUEST, run_id="run-secrecy")
    finally:
        root.removeHandler(handler)
        root.setLevel(old_level)

    assert result.exit_code == 0
    assert FIXTURE_SECRET not in result.trace.to_jsonl()
    assert FIXTURE_SECRET not in result.transcript
    assert all(FIXTURE_SECRET not in line for line in records)
