from __future__ import annotations

import csv
import importlib.util
import string
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fedmesh import datastore
from fedmesh.datastore import (
    Q,
    ClinicalObservation,
    CoverageRule,
    EnrollmentRow,
    EnrollmentStatus,
    MatchMode,
    ProtectedSpec,
    ProtectedValue,
    ProtectedValueIndex,
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
from fedmesh.locality import Topology, scan_outbound
from fedmesh.pseudonym import CanonicalId, CaseToken, SecretSource, derive_token, load_secret, normalize_id
from fedmesh.scenario import boot_scenario, load_audit_context

from conftest import GOLDEN_TOKENS, hmac_sha256_reference, oracle_scan

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


def test_repeated_column_is_a_schema_error(tmp_path, workspace):
    """A header that names a column twice is refused: either copy could be
    the one meant, and keeping one would leave the other's cells unchecked
    and, for a protected column, unindexed."""
    patients = tmp_path / "patients.csv"
    patients.write_text("patient_id,full_name,dob,notes,full_name\nCLN-0001,Ann Lee,1968-02-03,n,x\n")
    with pytest.raises(SchemaError) as err:
        load_clinic_store(workspace.root / "clinic" / "clinical_observations.csv", patients)
    assert err.value.name == "full_name"
    assert "Ann Lee" not in str(err.value)


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
    "blank-patient-id": ("patients", "CLN-0001,Ann Lee,1968-02-03,n\n \t ,Bo Lee,1970-01-01,n\n", "patient_id", " \t ", 3),
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
    "underscored-duration": ("observations", "CLN-0001,mild,1_0,walks,x\n", "duration_weeks", "1_0", 2),
    "non-ascii-duration": ("observations", "CLN-0001,mild, \u0663 ,walks,x\n", "duration_weeks", "\u0663", 2),
    # More digits than int() takes (4300 by default).
    "long-duration": ("observations", f"CLN-0001,mild,{'7' * 5000},walks,x\n", "duration_weeks", "7777", 2),
    "blank-observation-patient-id": ("observations", " \t ,mild,4,walks,x\n", "patient_id", " \t ", 2),
    "limitation-with-line-feed": (
        "observations", 'CLN-0001,mild,4,"difficulty stairs\nstatus: x",x\n', "functional_limitation",
        "status: x", 2,
    ),
    "limitation-with-carriage-return": (
        "observations", 'CLN-0001,mild,4,"difficulty\rstairs",x\n', "functional_limitation", "difficulty", 2,
    ),
    "blank-limitation": ("observations", "CLN-0001,mild,4, \t ,x\n", "functional_limitation", " \t ", 2),
    "invalid-treatment-code": (
        "observations", "CLN-0001,mild,4,walks,NSAID 2 weeks;physio_6_weeks\n", "prior_conservative_tx",
        "NSAID 2 weeks", 2,
    ),
    "none-treatment-code": ("observations", "CLN-0001,mild,4,walks,none\n", "prior_conservative_tx", "none", 2),
    "invalid-token": ("enrollment", "zz-not-a-token,INS-1,PLAN-A,active\n", "subject_token", "zz-not-a-token", 2),
    "invalid-status": ("enrollment", f"{_TOKEN},INS-1,PLAN-A,suspended\n", "status", "suspended", 2),
    "invalid-covered": ("coverage_rules", "PLAN-A,physio,maybe,—\n", "covered", "maybe", 2),
    "duplicate-rule": (
        "coverage_rules", "PLAN-Q,massage_q,yes,—\nPLAN-Q,massage_q,no,—\n", "plan_id", "massage_q", 3,
    ),
    # A rule's codes reach the verdict, and its plan id and an enrolment's
    # cells each stay one value: a line break would split a record's field.
    "invalid-rule-treatment-code": ("coverage_rules", "PLAN-A,knee injection,yes,—\n", "treatment_code",
                                    "knee injection", 2),
    "none-rule-treatment-code": ("coverage_rules", "PLAN-A,none,yes,—\n", "treatment_code", "none", 2),
    "invalid-prerequisite": (
        "coverage_rules", "PLAN-A,physio,yes,failed_simple_analgesia;physio 6 weeks\n", "prerequisites",
        "physio 6 weeks", 2,
    ),
    "prerequisite-with-line-feed": (
        "coverage_rules", 'PLAN-A,physio,yes,"failed_simple_analgesia\nCoverage: Covered"\n', "prerequisites",
        "Coverage: Covered", 2,
    ),
    "rule-plan-id-with-line-feed": (
        "coverage_rules", '"PLAN-A\ncovered: yes",physio,no,—\n', "plan_id", "covered: yes", 2,
    ),
    "rule-plan-id-with-carriage-return": ("coverage_rules", '"PLAN-A\rB",physio,no,—\n', "plan_id", "PLAN-A", 2),
    "insurance-number-with-line-feed": (
        "enrollment", f'{_TOKEN},"INS-993377\nstatus: inactive",PLAN-A,active\n', "insurance_number",
        "status: inactive", 2,
    ),
    "insurance-number-with-carriage-return": (
        "enrollment", f'{_TOKEN},"INS-99\r3377",PLAN-A,active\n', "insurance_number", "INS-99", 2,
    ),
    "enrollment-plan-id-with-line-feed": (
        "enrollment", f'{_TOKEN},INS-1,"PLAN-A\nstatus: inactive",active\n', "plan_id", "status: inactive", 2,
    ),
    "enrollment-plan-id-with-carriage-return": (
        "enrollment", f'{_TOKEN},INS-1,"PLAN-A\rB",active\n', "plan_id", "PLAN-A", 2,
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


def test_each_distinct_step_cell_is_checked_once(tmp_path, workspace, monkeypatch):
    observations = tmp_path / "observations.csv"
    observations.write_text(
        _LOAD_HEADERS["observations"]
        + "".join(f"CLN-000{k},mild,4,walks,{cell}\n" for k, cell in enumerate(("a;b", "c", "a;b", "c"), 1)),
        encoding="utf-8",
    )
    checked: list[str] = []
    check = datastore.check_treatment_code

    def counted(code: str, what: str) -> None:
        checked.append(code)
        check(code, what)

    monkeypatch.setattr(datastore, "check_treatment_code", counted)
    store, _ = load_clinic_store(observations, workspace.root / "clinic" / "patients.csv")
    assert checked == ["a", "b", "c"]
    assert [store.observations[f"CLN-000{k}"][3] for k in range(1, 5)] == [("a", "b"), ("c",), ("a", "b"), ("c",)]


_WORKSPACE_TABLES = (
    "clinic/clinical_observations.csv",
    "clinic/patients.csv",
    "insurer/enrollment.csv",
    "insurer/coverage_rules.csv",
)


def test_byte_order_mark_is_skipped(tmp_path, workspace):
    """Spreadsheet tools save "CSV UTF-8" with a leading byte-order mark;
    each file then loads as it does without one."""
    for relpath in _WORKSPACE_TABLES:
        copy = tmp_path / relpath
        copy.parent.mkdir(exist_ok=True)
        copy.write_text("\ufeff" + (workspace.root / relpath).read_text(encoding="utf-8"), encoding="utf-8")

    def load(root):
        observations, patients, enrollment, rules = (root / relpath for relpath in _WORKSPACE_TABLES)
        return load_clinic_store(observations, patients), load_insurer_store(enrollment, rules)

    assert load(tmp_path) == load(workspace.root)


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
    """Each keyed lookup returns the record a scan over records built from
    the CSV files by plain reference code finds."""
    raw_ids = [f"cln-{i:04d}" if lower_ids else f"CLN-{i:04d}" for i in sorted(ids)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "patients.csv").write_text("patient_id,full_name,dob,notes\n" + "".join(
            f"{pid},Name {n},1970-01-01,\n" for n, pid in enumerate(raw_ids)))
        (root / "obs.csv").write_text(
            "patient_id,symptom_class,duration_weeks,functional_limitation,prior_conservative_tx\n"
            + "".join(f"{pid}, {('mild', 'severe')[n % 2]} ,{n}, walks ,{('—', ' a; b ;')[n % 2]}\n"
                      for n, pid in enumerate(raw_ids[::2])))
        (root / "enrollment.csv").write_text("subject_token,insurance_number,plan_id,status\n" + "".join(
            f"{token},INS-{n},PLAN-A,{('active', 'inactive')[n % 2]}\n"
            for n, token in enumerate(sorted(tokens))))
        (root / "rules.csv").write_text("plan_id,treatment_code,covered,prerequisites\n" + "".join(
            f"{plan},{code},{'yes' if n % 2 else 'no'},—\n" for n, (plan, code) in enumerate(sorted(rules))))
        clinic, _ = load_clinic_store(root / "obs.csv", root / "patients.csv")
        insurer, _ = load_insurer_store(root / "enrollment.csv", root / "rules.csv")
        observations, enrollment, coverage = _reference_records(root)

    for i in sorted(ids) + probe_ids:
        cid = normalize_id(f"CLN-{i:04d}")
        linear = next((obs for obs in observations if obs.patient_id == cid), None)
        assert lookup_observation(clinic, cid) == linear
    for token in sorted(tokens) + probe_tokens:
        linear = next((row for row in enrollment if row.subject_token.hex == token), None)
        assert match_enrollment(insurer, token) == linear
        assert match_enrollment(insurer, CaseToken(token)) == linear
        assert match_enrollment(insurer, token.upper()) == (linear if token == token.upper() else None)
    for plan in ("PLAN-A", "PLAN-B", "plan-a", "PLAN-C"):
        for code in ("physio", "injection", "surgery"):
            linear = next(
                (rule for rule in coverage if (rule.plan_id, rule.treatment_code) == (plan, code)), None
            )
            assert coverage_rule(insurer, plan, code) == linear


def _codes(cell: str) -> tuple[str, ...]:
    cell = cell.strip()
    return () if cell in ("", "—") else tuple(code.strip() for code in cell.split(";") if code.strip())


def _reference_records(root: Path):
    """Every row of ``obs.csv``, ``enrollment.csv`` and ``rules.csv`` under
    ``root`` as its typed record, in file order."""

    def rows(name):
        with (root / name).open(newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    observations = [
        ClinicalObservation(
            patient_id=CanonicalId(row["patient_id"].strip().upper()),
            symptom_class=SymptomClass(row["symptom_class"].strip()),
            duration_weeks=int(row["duration_weeks"]),
            functional_limitation=row["functional_limitation"].strip(),
            prior_conservative_tx=_codes(row["prior_conservative_tx"]),
        )
        for row in rows("obs.csv")
    ]
    enrollment = [
        EnrollmentRow(
            subject_token=CaseToken(row["subject_token"].strip()),
            insurance_number=row["insurance_number"].strip(),
            plan_id=row["plan_id"].strip(),
            status=EnrollmentStatus(row["status"].strip()),
        )
        for row in rows("enrollment.csv")
    ]
    coverage = [
        CoverageRule(
            plan_id=row["plan_id"].strip(),
            treatment_code=row["treatment_code"].strip(),
            covered=row["covered"].strip().lower() == "yes",
            prerequisites=_codes(row["prerequisites"]),
        )
        for row in rows("rules.csv")
    ]
    return observations, enrollment, coverage


_GENERATOR_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workspace.py"


def test_loading_builds_no_per_row_record(tmp_path, monkeypatch):
    """Boot and audit set-up validate every row of a 200-patient workspace
    without building a typed record or identifier per row; a lookup builds
    the one record it returns."""
    spec = importlib.util.spec_from_file_location("perfbench_workspace", _GENERATOR_PATH)
    generator = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, generator)  # its dataclasses look it up
    spec.loader.exec_module(generator)
    demo = generator.generate_workspace(tmp_path, 200, seed=3).demo

    built: Counter[str] = Counter()
    for cls in (ClinicalObservation, CanonicalId, EnrollmentRow, CaseToken):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    scenario = boot_scenario(demo.node_configs, run_id="run-no-records")
    scenario.close()
    load_audit_context(demo.topology_config)
    assert built == Counter()

    clinic, insurer = scenario.nodes["clinic"].datasets["clinic"], scenario.nodes["insurer"].datasets["insurer"]
    assert lookup_observation(clinic, normalize_id("CLN-0200")) is not None
    assert match_enrollment(insurer, GOLDEN_TOKENS["CLN-0001"]) is not None
    assert built == Counter(CanonicalId=1, ClinicalObservation=1, EnrollmentRow=1, CaseToken=1)


# --- totality of the dataset loaders ---

_TABLE_PATHS = {
    "observations": "clinic/clinical_observations.csv",
    "patients": "clinic/patients.csv",
    "enrollment": "insurer/enrollment.csv",
    "coverage_rules": "insurer/coverage_rules.csv",
}
_CELL_TEXTS = (
    st.integers(1, 6000).map(lambda n: "7" * n)  # a digit run, past int()'s 4300 digits
    | st.integers(1, 140_000).map(lambda n: "x" * n)  # past the CSV reader's field limit
    | st.text(max_size=8).map(lambda t: f"{t}\0{t}")
    | st.text(max_size=8).map(lambda t: f"{t}\r{t}")  # a lone carriage return
    | st.text(max_size=12)
)
# An edit of a table's text, by line and cell index (each taken modulo the
# count there is): set a cell, copy a line to another place (the header
# too), or repeat a cell at the end of its line (a header's: a column
# named twice).
_EDITS = (
    st.tuples(st.just("cell"), st.integers(0, 7), st.integers(0, 4), _CELL_TEXTS)
    | st.tuples(st.just("copy-line"), st.integers(0, 7), st.integers(0, 7))
    | st.tuples(st.just("repeat-cell"), st.integers(0, 7), st.integers(0, 4))
)


def _edited(text: str, edits) -> str:
    lines = text.split("\n")
    for kind, i, j, *value in edits:
        i %= len(lines)
        cells = lines[i].split(",")
        if kind == "cell":
            cells[j % len(cells)] = value[0]
            lines[i] = ",".join(cells)
        elif kind == "copy-line":
            lines.insert(j % len(lines), lines[i])
        else:
            lines[i] += "," + cells[j % len(cells)]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def loader_dir(tmp_path_factory, workspace):
    """A writable copy of the fixture tables, their texts, and the fixture's indexes."""
    root = tmp_path_factory.mktemp("tables")
    texts = {}
    for table, rel in _TABLE_PATHS.items():
        texts[table] = (workspace.root / rel).read_text(encoding="utf-8")
        (root / rel).parent.mkdir(exist_ok=True)
    return root, texts, load_audit_context(workspace.topology_config)[1]


@settings(deadline=None, max_examples=300)
@given(
    table=st.sampled_from(list(_TABLE_PATHS)),
    change=st.binary(max_size=300) | st.lists(_EDITS, min_size=1, max_size=3),
)
# A column named twice, whose name is longer than an error text may be.
@example(table="patients", change=[("repeat-cell", 0, 3), ("cell", 0, 4, "n" * 514), ("repeat-cell", 0, 4)])
def test_dataset_loaders_refuse_any_edit_with_a_row_or_schema_error(loader_dir, table, change):
    """Each load succeeds or raises a SchemaError or RowError whose text is
    short and repeats no protected value."""
    root, texts, indexes = loader_dir
    for other, rel in _TABLE_PATHS.items():
        (root / rel).write_text(texts[other], encoding="utf-8")
    path = root / _TABLE_PATHS[table]
    if isinstance(change, bytes):
        path.write_bytes(change)
    else:
        path.write_text(_edited(texts[table], change), encoding="utf-8")
    try:
        if table in ("observations", "patients"):
            load_clinic_store(root / _TABLE_PATHS["observations"], root / _TABLE_PATHS["patients"])
        else:
            load_insurer_store(root / _TABLE_PATHS["enrollment"], root / _TABLE_PATHS["coverage_rules"])
    except (SchemaError, RowError) as exc:
        text = str(exc)
        assert len(text) <= 300, text[:400]
        for node_id, index in indexes.items():
            assert oracle_scan(text, index, (node_id, "nowhere")) == [], text


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


def test_guidance_bands_are_read_only(workspace):
    """Tools hand policies the store's own documents, which must not change."""
    doc = load_guidance(workspace.root / "specialist")[0]
    with pytest.raises(TypeError):
        doc.severity_bands["mild"] = "anything"


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
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert (loaded.header, loaded.rows) == (tuple(header), tuple(map(tuple, rows)))


# --- protected values ---


def test_protected_values_clinic_defaults(clinic_tables):
    specs = (
        ProtectedSpec(store="patients", columns=("patient_id", "dob", "notes")),
        ProtectedSpec(store="patients", columns=("full_name",), match=MatchMode.TEXT),
        ProtectedSpec(store="observations", columns=("patient_id",)),
    )
    index = protected_values("clinic", specs, clinic_tables)
    values = {e.value for e in index.entries}
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
    findings = scan_outbound("about MARINA KOVACS", index, edge, Topology(edges=frozenset({edge})))
    assert findings == oracle_scan("about MARINA KOVACS", index, edge)
    assert [finding.source_column for finding in findings] == ["full_name"]


def test_protected_values_insurer_defaults(insurer_loaded):
    specs = (
        ProtectedSpec(store="enrollment", columns=("insurance_number",)),
        ProtectedSpec(
            store="enrollment", columns=("subject_token",), allowed_to=frozenset({"clinic"})
        ),
    )
    index = protected_values("insurer", specs, insurer_loaded[1])
    values = {e.value for e in index.entries}
    assert "INS-441122" in values
    assert set(GOLDEN_TOKENS.values()) <= values
    token_entries = [e for e in index.entries if e.source_column == "subject_token"]
    assert all(e.allowed_to == frozenset({"clinic"}) for e in token_entries)


def test_protected_values_derived_tokens(clinic_tables, workspace):
    secrets = SecretSource(files={"clinic_hmac_key": workspace.root / "clinic" / "hmac.key"})
    specs = (ProtectedSpec(store="patients", derived="case_tokens", allowed_to=frozenset({"insurer"})),)
    index = protected_values("clinic", specs, clinic_tables, load_secret("clinic_hmac_key", secrets))
    assert {e.value for e in index.entries} == set(GOLDEN_TOKENS.values())


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


def test_gram_width_is_the_cast_item_size():
    """Long needles are found through Q-byte grams, which a scan reads from
    the body as the items of a memoryview cast to unsigned 64-bit ints."""
    assert memoryview(bytes(Q)).cast("Q").itemsize == Q


def test_protected_values_monotone(clinic_tables):
    """Adding rows never removes an index entry."""
    table = clinic_tables["patients"]
    spec = (ProtectedSpec(store="patients", columns=("full_name", "dob")),)
    previous: set[str] = set()
    for k in range(len(table.rows) + 1):
        prefix = Table(name="patients", header=table.header, rows=table.rows[:k], lines=table.lines[:k])
        index = protected_values("clinic", spec, {"patients": prefix})
        values = {e.value for e in index.entries}
        assert previous <= values
        previous = values


# --- the load path against per-cell reference code ---

_ID_CELLS = st.one_of(
    st.sampled_from(["CLN-0001", "cln-0001", " CLN-0001\t", "", " \t ", "straße", "STRASSE", "Ωmega-7", "ǆ-2"]),
    st.text(max_size=10),
)
# HMAC pads a key shorter than SHA-256's 64-byte block and hashes a longer one first.
_KEY_MATERIAL = st.sampled_from([16, 64, 100]).flatmap(
    lambda size: st.text(string.ascii_letters + string.digits, min_size=size, max_size=size)
)
_SPECS = (
    ProtectedSpec(store="patients", columns=("patient_id", "full_name")),
    ProtectedSpec(store="patients", columns=("full_name",), match=MatchMode.TEXT),
    ProtectedSpec(store="patients", columns=("patient_id",), allowed_to=frozenset({"insurer"})),
    ProtectedSpec(store="patients", derived="case_tokens", allowed_to=frozenset({"insurer"})),
    ProtectedSpec(store="patients", derived="case_tokens"),
)


def _entries_cell_by_cell(specs, table, key):
    """Reference: each spec's cells in order, one at a time, each derived
    token on its own, each entry kept the first time its value and kind come."""
    entries: list[ProtectedValue] = []
    for spec in specs:
        if spec.derived is None:
            cells = [(column, cell.strip()) for column in spec.columns for cell in table.column(column)]
            match = spec.match
        else:
            cells = [("case_token", derive_token(key, normalize_id(cell)).hex)
                     for cell in table.column("patient_id") if cell.strip()]
            match = MatchMode.EXACT
        for column, value in cells:
            entry = ProtectedValue(value, column, match, spec.allowed_to)
            if value and entry not in entries:
                entries.append(entry)
    return tuple(entries)


@settings(deadline=None, max_examples=150)
@given(
    ids=st.lists(_ID_CELLS, max_size=16),
    names=st.lists(_ID_CELLS, max_size=16),
    specs=st.lists(st.sampled_from(_SPECS), min_size=1, max_size=6),
    material=_KEY_MATERIAL,
)
def test_protected_entries_agree_with_cell_by_cell_reference(ids, names, specs, material):
    """Padded, lower-case, non-ASCII, repeated and blank id cells, under keys
    below, at and above the HMAC block size: the index holds the entries
    the per-cell reference builds, in its order, and every derived token is
    ``derive_token`` of the cell and the independent RFC 2104 oracle's."""
    rows = tuple(zip(ids, names))
    table = Table("patients", ("patient_id", "full_name"), rows, tuple(range(2, 2 + len(rows))))
    key = load_secret("k", SecretSource(env={"FEDMESH_SECRET_K": material}))

    index = protected_values("clinic", specs, {"patients": table}, key)

    assert index.entries == _entries_cell_by_cell(specs, table, key)
    oracle = {
        hmac_sha256_reference(material.encode(), normalize_id(cell).value.encode("utf-8"))
        for spec in specs if spec.derived
        for cell in table.column("patient_id") if cell.strip()
    }
    assert {entry.value for entry in index.entries if entry.source_column == "case_token"} == oracle


def _tables_entry_by_entry(index):
    """Reference: the filing rule ``ProtectedValueIndex`` states, applied one
    entry at a time: a short value under itself; a long one under the first
    of its grams, from its UTF-8's end, under which nothing is filed yet,
    else the first with the fewest positions."""
    kind_ids = index.entries._kind_ids
    tables: dict[int, tuple[dict, dict]] = {}
    for pos, entry in enumerate(index.entries):
        folded = entry.value.casefold()
        filed, by_kind = tables.setdefault(min(len(folded), Q), ({}, {}))
        by_kind.setdefault(kind_ids[pos], []).append(pos)
        key = folded
        if len(folded) >= Q:
            raw = folded.encode("utf-8", "surrogatepass")
            grams = [int.from_bytes(raw[i:i + Q], sys.byteorder) for i in range(len(raw) - Q, -1, -1)]
            key = next((gram for gram in grams if gram not in filed), None)
            if key is None:
                key = min(grams, key=lambda gram: len(filed[gram]))
        filed[key] = filed.get(key, ()) + (pos,)
    return {
        width: ({key: shared[0] if len(shared) == 1 else shared for key, shared in filed.items()},
                by_kind, sum(map(len, by_kind.values())))
        for width, (filed, by_kind) in tables.items()
    }


@settings(deadline=None, max_examples=200)
@given(
    cells=st.lists(
        st.tuples(st.text("aAbß€Σς", min_size=1, max_size=14), st.sampled_from(list(MatchMode)), st.booleans()),
        max_size=40,
    ),
    build_slice=st.sampled_from([1, 3, 1024]),
)
# The second value's last gram is the first's, so it is filed under its own
# next gram, which is the third value's last: the third must find it taken.
@example([(value, MatchMode.EXACT, False) for value in ("aaaaaaaa", "baaaaaaaa", "abaaaaaaa")], 1024)
def test_index_files_entries_by_its_stated_rule(cells, build_slice):
    """Values over a few letters, some multi-byte and some folding to two,
    so last grams are often shared and often not ASCII, built a slice of
    entries at a time: every table holds what the rule, applied one entry
    at a time, files."""
    entries = [ProtectedValue(value, "c", match, frozenset({"insurer"}) if allowed else frozenset())
               for value, match, allowed in cells]
    with mock.patch.object(datastore, "_BUILD_SLICE", build_slice):
        built = ProtectedValueIndex("clinic", entries)
    assert {width: (filed, by_kind, size) for width, filed, by_kind, size in built._tables} == \
        _tables_entry_by_entry(built)
