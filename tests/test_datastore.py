from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fedmesh.datastore import (
    EnrollmentStatus,
    MatchMode,
    ProtectedSpec,
    SymptomClass,
    Table,
    coverage_rule,
    load_clinic_store,
    load_guidance,
    load_insurer_store,
    lookup_observation,
    match_enrollment,
    parse_guidance_text,
    protected_values,
    read_table,
)
from fedmesh.errors import ConfigError, RowError, SchemaError
from fedmesh.locality import scan_outbound
from fedmesh.pseudonym import CaseToken, SecretSource, normalize_id

from conftest import GOLDEN_TOKENS, oracle_scan

# The published enrolment table's first token, usable only as an opaque
# replay value since its source key was never published.
OPAQUE_TOKEN = "08528e90b4b32ee32f2a92a2cb33e1c1e2f382e98ab9e78e65d6d361456f0a97"


@pytest.fixture(scope="module")
def clinic_loaded(workspace):
    root = workspace.root / "clinic"
    return load_clinic_store(root / "clinical_observations.csv", root / "patients.csv")


@pytest.fixture(scope="module")
def clinic(clinic_loaded):
    return clinic_loaded[0]


@pytest.fixture(scope="module")
def clinic_tables(clinic_loaded):
    return clinic_loaded[1]


@pytest.fixture(scope="module")
def insurer_loaded(workspace):
    root = workspace.root / "insurer"
    return load_insurer_store(root / "enrollment.csv", root / "coverage_rules.csv")


@pytest.fixture(scope="module")
def insurer(insurer_loaded):
    return insurer_loaded[0]


def test_clinic_store_counts(clinic, clinic_tables):
    assert len(clinic.observations) == 5
    assert len(clinic_tables["patients"].rows) == 5


def test_lookup_observation_cln0001(clinic):
    obs = lookup_observation(clinic, normalize_id("CLN-0001"))
    assert obs is not None
    assert obs.symptom_class is SymptomClass.MODERATE
    assert obs.duration_weeks == 12
    assert obs.functional_limitation == "difficulty stairs and prolonged standing"
    assert obs.prior_conservative_tx == ("NSAID_2_weeks", "home_exercises")


def test_lookup_observation_cln0003(clinic):
    obs = lookup_observation(clinic, normalize_id("CLN-0003"))
    assert obs is not None
    assert obs.symptom_class is SymptomClass.SEVERE
    assert obs.duration_weeks == 24
    assert obs.functional_limitation == "pain at rest; limited ROM"
    assert obs.prior_conservative_tx == ("NSAID_3_weeks", "physio_4_weeks")


def test_lookup_observation_absent(clinic):
    assert lookup_observation(clinic, normalize_id("CLN-9999")) is None


def test_header_only_files_give_empty_store(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text(
        "patient_id,symptom_class,duration_weeks,functional_limitation,prior_conservative_tx\n"
    )
    patients = tmp_path / "patients.csv"
    patients.write_text("patient_id,full_name,dob,notes\n")
    store, tables = load_clinic_store(obs, patients)
    assert store.observations == {}
    assert tables["patients"].rows == ()


def test_missing_column_names_it(tmp_path, workspace):
    broken = tmp_path / "obs.csv"
    broken.write_text("patient_id,duration_weeks,functional_limitation,prior_conservative_tx\n")
    with pytest.raises(SchemaError) as err:
        load_clinic_store(broken, workspace.root / "clinic" / "patients.csv")
    assert err.value.name == "symptom_class"


def test_row_error_carries_line_number(tmp_path, workspace):
    broken = tmp_path / "obs.csv"
    broken.write_text(
        "patient_id,symptom_class,duration_weeks,functional_limitation,prior_conservative_tx\n"
        "CLN-0001,moderate,12,stairs,NSAID_2_weeks\n"
        "CLN-0002,mild,not_a_number,walks,acetaminophen_2_weeks\n"
    )
    with pytest.raises(RowError) as err:
        load_clinic_store(broken, workspace.root / "clinic" / "patients.csv")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "before",
    [
        "PLAN-A,physio,yes,—\n\n",
        'PLAN-A,physio,yes,"physiotherapy_6_weeks;\nfailed_simple_analgesia"\n',
    ],
    ids=["after-blank-line", "after-two-line-cell"],
)
def test_row_error_line_counts_every_source_line(tmp_path, workspace, before):
    rules = tmp_path / "rules.csv"
    rules.write_text("plan_id,treatment_code,covered,prerequisites\n" + before + "PLAN-B,physio,maybe,—\n")
    with pytest.raises(RowError) as err:
        load_insurer_store(workspace.root / "insurer" / "enrollment.csv", rules)
    assert err.value.line == 4


def test_observation_without_patient_record(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text(
        "patient_id,symptom_class,duration_weeks,functional_limitation,prior_conservative_tx\n"
        "CLN-0009,mild,4,walks,NSAID_2_weeks\n"
    )
    patients = tmp_path / "patients.csv"
    patients.write_text("patient_id,full_name,dob,notes\n")
    with pytest.raises(RowError):
        load_clinic_store(obs, patients)


_TOKEN = "ab" * 32
_LOAD_ERROR_SITES = {
    # site: (table, rows after its header, column the error names, cell it must not quote, line)
    "invalid-dob": ("patients", "CLN-0001,Ann Lee,1968-02-30,n\n", "dob", "1968-02-30", 2),
    "duplicate-patient": (
        "patients", "CLN-0042,Ann Lee,1968-02-03,n\nCLN-0042,Bo Lee,1970-01-01,n\n",
        "patient_id", "CLN-0042", 3,
    ),
    "duplicate-observation": (
        "observations", "CLN-0002,mild,4,walks,x\nCLN-0002,mild,4,walks,x\n", "patient_id", "CLN-0002", 3,
    ),
    "orphan-observation": ("observations", "CLN-0009,mild,4,walks,x\n", "patient_id", "CLN-0009", 2),
    "invalid-symptom-class": (
        "observations", "CLN-0001,catastrophic,4,walks,x\n", "symptom_class", "catastrophic", 2,
    ),
    "invalid-duration": ("observations", "CLN-0001,mild,twelve,walks,x\n", "duration_weeks", "twelve", 2),
    "negative-duration": ("observations", "CLN-0001,mild,-7,walks,x\n", "duration_weeks", "-7", 2),
    "invalid-token": ("enrollment", "zz-not-a-token,INS-1,PLAN-A,active\n", "subject_token", "zz-not-a-token", 2),
    "invalid-status": ("enrollment", f"{_TOKEN},INS-1,PLAN-A,suspended\n", "status", "suspended", 2),
    "invalid-covered": ("coverage_rules", "PLAN-A,physio,maybe,—\n", "covered", "maybe", 2),
    "duplicate-rule": (
        "coverage_rules", "PLAN-Q,massage_q,yes,—\nPLAN-Q,massage_q,no,—\n", "plan_id", "massage_q", 3,
    ),
}
_LOAD_HEADERS = {
    "patients": "patient_id,full_name,dob,notes\n",
    "observations": "patient_id,symptom_class,duration_weeks,functional_limitation,prior_conservative_tx\n",
    "enrollment": "subject_token,insurance_number,plan_id,status\n",
    "coverage_rules": "plan_id,treatment_code,covered,prerequisites\n",
}


@pytest.mark.parametrize("site", list(_LOAD_ERROR_SITES))
def test_row_errors_name_the_column_never_the_cell(tmp_path, workspace, site):
    table, rows, column, cell, line = _LOAD_ERROR_SITES[site]
    paths = {
        "patients": workspace.root / "clinic" / "patients.csv",
        "observations": workspace.root / "clinic" / "clinical_observations.csv",
        "enrollment": workspace.root / "insurer" / "enrollment.csv",
        "coverage_rules": workspace.root / "insurer" / "coverage_rules.csv",
    }
    paths[table] = tmp_path / f"{table}.csv"
    paths[table].write_text(_LOAD_HEADERS[table] + rows, encoding="utf-8")
    with pytest.raises(RowError) as err:
        if table in ("patients", "observations"):
            load_clinic_store(paths["observations"], paths["patients"])
        else:
            load_insurer_store(paths["enrollment"], paths["coverage_rules"])
    assert column in str(err.value)
    assert cell not in str(err.value)
    assert err.value.line == line


def test_match_enrollment_by_fixture_token(insurer):
    row = match_enrollment(insurer, GOLDEN_TOKENS["CLN-0001"])
    assert row is not None
    assert row.insurance_number == "INS-441122"
    assert row.plan_id == "PLAN-A"
    assert row.status is EnrollmentStatus.ACTIVE


def test_match_enrollment_opaque_replay_token(tmp_path, workspace):
    # exact-match works on any opaque 64-hex value that is in the table
    enrollment = tmp_path / "enrollment.csv"
    enrollment.write_text(
        "subject_token,insurance_number,plan_id,status\n"
        f"{OPAQUE_TOKEN},INS-441122,PLAN-A,active\n"
    )
    store, _ = load_insurer_store(enrollment, workspace.root / "insurer" / "coverage_rules.csv")
    row = match_enrollment(store, OPAQUE_TOKEN)
    assert row is not None and row.plan_id == "PLAN-A"


def test_match_enrollment_absent(insurer):
    assert match_enrollment(insurer, "0" * 64) is None


def test_match_enrollment_is_case_sensitive(insurer):
    assert match_enrollment(insurer, GOLDEN_TOKENS["CLN-0001"].upper()) is None


def test_coverage_rule_plan_a_injection(insurer):
    rule = coverage_rule(insurer, "PLAN-A", "knee_hyaluronic_injection")
    assert rule is not None
    assert rule.covered is True
    assert rule.prerequisites == ("physiotherapy_6_weeks", "failed_simple_analgesia")


def test_coverage_rule_plan_c_injection_not_covered(insurer):
    rule = coverage_rule(insurer, "PLAN-C", "knee_hyaluronic_injection")
    assert rule is not None
    assert rule.covered is False
    assert rule.prerequisites == ()


def test_coverage_rule_absent_means_not_covered(insurer):
    assert coverage_rule(insurer, "PLAN-A", "conservative_management") is None


def test_em_dash_parses_as_empty_prerequisites(insurer):
    rule = coverage_rule(insurer, "PLAN-A", "physiotherapy_course")
    assert rule is not None
    assert rule.prerequisites == ()


_HEX = "0123456789abcdef"


@settings(deadline=None, max_examples=60)
@given(
    ids=st.sets(st.integers(0, 30), max_size=8),
    lower_ids=st.booleans(),
    tokens=st.sets(st.text(_HEX, min_size=64, max_size=64), max_size=6),
    rules=st.sets(st.tuples(st.sampled_from(["PLAN-A", "PLAN-B", "plan-a"]),
                            st.sampled_from(["physio", "injection", "surgery"])), max_size=9),
    probe_ids=st.lists(st.integers(0, 30), max_size=4),
    probe_tokens=st.lists(st.text(_HEX, min_size=64, max_size=64), max_size=3),
)
def test_dict_lookups_agree_with_linear_scan(ids, lower_ids, tokens, rules, probe_ids, probe_tokens):
    """Each keyed lookup returns what a scan over the store's rows finds."""
    raw_ids = [f"cln-{i:04d}" if lower_ids else f"CLN-{i:04d}" for i in sorted(ids)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "patients.csv").write_text("patient_id,full_name,dob,notes\n" + "".join(
            f"{pid},Name {n},1970-01-01,\n" for n, pid in enumerate(raw_ids)))
        (root / "obs.csv").write_text(
            "patient_id,symptom_class,duration_weeks,functional_limitation,prior_conservative_tx\n"
            + "".join(f"{pid},mild,{n},walks,—\n" for n, pid in enumerate(raw_ids[::2])))
        (root / "enrollment.csv").write_text("subject_token,insurance_number,plan_id,status\n" + "".join(
            f"{token},INS-{n},PLAN-A,active\n" for n, token in enumerate(sorted(tokens))))
        (root / "rules.csv").write_text("plan_id,treatment_code,covered,prerequisites\n" + "".join(
            f"{plan},{code},{'yes' if n % 2 else 'no'},—\n" for n, (plan, code) in enumerate(sorted(rules))))
        clinic, _ = load_clinic_store(root / "obs.csv", root / "patients.csv")
        insurer, _ = load_insurer_store(root / "enrollment.csv", root / "rules.csv")

    for i in sorted(ids) + probe_ids:
        cid = normalize_id(f"CLN-{i:04d}")
        linear = next((obs for obs in clinic.observations.values() if obs.patient_id == cid), None)
        assert lookup_observation(clinic, cid) == linear
    for token in sorted(tokens) + probe_tokens:
        linear = next((row for row in insurer.enrollment.values() if row.subject_token.hex == token), None)
        assert match_enrollment(insurer, token) == linear
        assert match_enrollment(insurer, CaseToken(token)) == linear
        assert match_enrollment(insurer, token.upper()) == (linear if token == token.upper() else None)
    for plan in ("PLAN-A", "PLAN-B", "plan-a", "PLAN-C"):
        for code in ("physio", "injection", "surgery"):
            linear = next((rule for rule in insurer.rules.values()
                           if (rule.plan_id, rule.treatment_code) == (plan, code)), None)
            assert coverage_rule(insurer, plan, code) == linear


# --- guidance ---


def test_load_guidance_fixture_docs(workspace):
    docs = load_guidance(workspace.root / "specialist")
    by_id = {doc.doc_id: doc for doc in docs}
    guidance = by_id["osteoarthritis_knee_guidance.md"]
    assert len(guidance.ladder) == 4
    assert set(guidance.severity_bands) == {"mild", "moderate", "severe"}
    red = by_id["osteoarthritis_knee_red_flags.md"]
    assert len(red.red_flags) == 4
    assert "Locked knee" in red.red_flags


def test_guidance_missing_heading(tmp_path):
    bad = tmp_path / "note.md"
    bad.write_text("# Just a title\n\nSome prose without any recognised section.\n")
    with pytest.raises(SchemaError):
        load_guidance(tmp_path)


def test_guidance_empty_directory(tmp_path):
    assert load_guidance(tmp_path) == []


def test_guidance_ladder_preserves_order():
    doc = parse_guidance_text(
        "ladder.md",
        "# T\n\n## Management Ladder\n1. first\n2. second\n3. third\n",
    )
    assert doc.ladder == ("first", "second", "third")


# --- round trip ---


@pytest.mark.parametrize(
    "relpath,table,required",
    [
        ("clinic/clinical_observations.csv", "observations", None),
        ("clinic/patients.csv", "patients", None),
        ("insurer/enrollment.csv", "enrollment", None),
        ("insurer/coverage_rules.csv", "coverage_rules", None),
    ],
)
def test_csv_round_trip_byte_for_byte(workspace, relpath, table, required):
    path = workspace.root / relpath
    loaded = read_table(path, table, [])
    assert loaded.to_csv() == path.read_text(encoding="utf-8")


# --- protected values ---


def test_protected_values_clinic_defaults(clinic_tables):
    specs = (
        ProtectedSpec(store="patients", columns=("patient_id", "dob", "notes")),
        ProtectedSpec(store="patients", columns=("full_name",), match=MatchMode.TEXT),
        ProtectedSpec(store="observations", columns=("patient_id",)),
    )
    index = protected_values("clinic", specs, clinic_tables)
    values = index.values()
    assert {"Marina Kovacs", "1968-08-12", "CLN-0001"} <= values


@pytest.mark.parametrize("first", list(MatchMode), ids=lambda mode: f"{mode.value}-first")
def test_protected_values_index_a_column_under_each_match_mode(clinic_tables, first):
    """A column declared once as ``exact`` and once as ``text`` is indexed
    under both, in either order, so the case-insensitive match holds."""
    (second,) = set(MatchMode) - {first}
    specs = tuple(
        ProtectedSpec(store="patients", columns=("full_name",), match=mode) for mode in (first, second)
    )
    index = protected_values("clinic", specs, clinic_tables)
    edge = ("clinic", "insurer")
    verdict = scan_outbound("about MARINA KOVACS", index, edge)
    assert verdict == oracle_scan("about MARINA KOVACS", index, edge)
    assert [finding.source_column for finding in verdict.findings] == ["full_name"]


def test_protected_values_insurer_defaults(insurer_loaded):
    specs = (
        ProtectedSpec(store="enrollment", columns=("insurance_number",)),
        ProtectedSpec(
            store="enrollment", columns=("subject_token",), allowed_to=frozenset({"clinic"})
        ),
    )
    index = protected_values("insurer", specs, insurer_loaded[1])
    values = index.values()
    assert "INS-441122" in values
    assert set(GOLDEN_TOKENS.values()) <= values
    token_entries = [e for e in index.entries if e.source_column == "subject_token"]
    assert all(e.allowed_to == frozenset({"clinic"}) for e in token_entries)


def test_protected_values_derived_tokens(clinic_tables, workspace):
    secrets = SecretSource(files={"clinic_hmac_key": workspace.root / "clinic" / "hmac.key"})
    specs = (
        ProtectedSpec(
            derived="case_tokens",
            store="patients",
            column="patient_id",
            secret="clinic_hmac_key",
            allowed_to=frozenset({"insurer"}),
        ),
    )
    index = protected_values("clinic", specs, clinic_tables, secrets)
    assert index.values() == set(GOLDEN_TOKENS.values())


def test_protected_values_empty_store():
    table = Table(name="patients", header=("patient_id", "full_name"), rows=(), lines=())
    index = protected_values(
        "clinic", (ProtectedSpec(store="patients", columns=("full_name",)),), {"patients": table}
    )
    assert index.entries == ()


def test_protected_values_unknown_column(clinic_tables):
    with pytest.raises(ConfigError):
        protected_values(
            "clinic",
            (ProtectedSpec(store="patients", columns=("no_such_column",)),),
            clinic_tables,
        )


def test_protected_values_unknown_store(clinic_tables):
    with pytest.raises(ConfigError):
        protected_values(
            "clinic",
            (ProtectedSpec(store="nope", columns=("patient_id",)),),
            clinic_tables,
        )


def test_protected_values_monotone(clinic_tables):
    """Adding rows never removes an index entry."""
    table = clinic_tables["patients"]
    spec = (ProtectedSpec(store="patients", columns=("full_name", "dob")),)
    previous: set[str] = set()
    for k in range(len(table.rows) + 1):
        prefix = Table(name="patients", header=table.header, rows=table.rows[:k], lines=table.lines[:k])
        values = protected_values("clinic", spec, {"patients": prefix}).values()
        assert previous <= values
        previous = values
