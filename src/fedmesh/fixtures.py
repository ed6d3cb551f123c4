"""Built-in synthetic dataset and demo workspace writer.

The CSV tables, guidance extracts, and enrolment template triples below are
the package's canonical demo data. Enrolment tokens are derived at write
time from the fixture secret, pairing patient row k with the k-th template
triple, so the whole workspace regenerates deterministically.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ConfigError
from .pseudonym import SecretKey, derive_token, normalize_id

FIXTURE_SECRET = "demo-secret-key-000"

CANONICAL_REQUEST = "Confirm coverage for CLN-0001"

OBSERVATIONS_CSV = """\
patient_id,symptom_class,duration_weeks,functional_limitation,prior_conservative_tx
CLN-0001,moderate,12,difficulty stairs and prolonged standing,NSAID_2_weeks;home_exercises
CLN-0002,mild,6,pain after long walks,acetaminophen_2_weeks
CLN-0003,severe,24,pain at rest; limited ROM,NSAID_3_weeks;physio_4_weeks
CLN-0004,moderate,10,difficulty rising from chair,NSAID_2_weeks
CLN-0005,moderate,14,stairs; standing >20min,NSAID_2_weeks;physio_6_weeks
"""

PATIENTS_CSV = """\
patient_id,full_name,dob,notes
CLN-0001,Marina Kovacs,1968-08-12,"Right knee pain, gradual onset"
CLN-0002,John Armitage,1975-04-03,Knee discomfort after long walks
CLN-0003,Sofia Patel,1982-11-19,Chronic knee pain with reduced ROM
CLN-0004,Luca Meier,1961-02-07,Difficulty rising from chair
CLN-0005,Elena Rossi,1990-06-28,Pain with stairs and prolonged standing
"""

COVERAGE_RULES_CSV = """\
plan_id,treatment_code,covered,prerequisites
PLAN-A,knee_hyaluronic_injection,yes,physiotherapy_6_weeks;failed_simple_analgesia
PLAN-B,knee_hyaluronic_injection,yes,failed_simple_analgesia
PLAN-C,knee_hyaluronic_injection,no,—
PLAN-A,physiotherapy_course,yes,—
PLAN-B,physiotherapy_course,yes,—
PLAN-C,physiotherapy_course,yes,—
"""

# (insurance_number, plan_id, status) triples paired with patient rows in order.
ENROLLMENT_TEMPLATE: tuple[tuple[str, str, str], ...] = (
    ("INS-441122", "PLAN-A", "active"),
    ("INS-771102", "PLAN-B", "active"),
    ("INS-555901", "PLAN-C", "active"),
    ("INS-880014", "PLAN-A", "active"),
    ("INS-993377", "PLAN-B", "active"),
)

GUIDANCE_MD = """\
# Knee Osteoarthritis – Practical Guidance

## Symptom Severity Bands
- Mild: intermittent pain, minimal function impact
- Moderate: persistent pain >= 6–8 weeks, functional limitation
- Severe: pain at rest, substantial functional loss

## Conservative Management Ladder
1. Education, activity modification, weight optimisation
2. Simple analgesia 2–3 weeks
3. Physiotherapy 6 weeks
4. Consider intra-articular options if function remains impaired

## Intra-Articular Hyaluronic Acid (HA) Injection
- Consider after steps 1–3 when pain/function remain limiting

## Notes
- Document adherence to home programmes
- Functional limitation weighs toward escalation
"""

RED_FLAGS_MD = """\
# Red Flags – Knee Pain
- Acute trauma with inability to bear weight
- Suspected infection
- Locked knee
- Suspected fracture or major ligament injury
"""

PATIENT_IDS = ("CLN-0001", "CLN-0002", "CLN-0003", "CLN-0004", "CLN-0005")


def build_enrollment_csv(
    patient_ids: Sequence[str],
    template: Sequence[tuple[str, str, str]],
    key: SecretKey,
) -> str:
    """Derive one enrolment row per patient, in row order."""
    if len(patient_ids) != len(template):
        raise ConfigError(
            f"{len(patient_ids)} patient row(s) but {len(template)} enrolment template triple(s)"
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subject_token", "insurance_number", "plan_id", "status"])
    for patient_id, (insurance_number, plan_id, status) in zip(patient_ids, template):
        token = derive_token(key, normalize_id(patient_id))
        writer.writerow([token.hex, insurance_number, plan_id, status])
    return buf.getvalue()


def _clinic_config() -> dict:
    return {
        "node_id": "clinic",
        "datasets": {
            "clinic": {
                "observations": "../clinic/clinical_observations.csv",
                "patients": "../clinic/patients.csv",
            }
        },
        "secrets": {"clinic_hmac_key": {"file": "../clinic/hmac.key"}},
        "hmac_secret": "clinic_hmac_key",
        "protected": [
            {"store": "patients", "columns": ["patient_id", "dob", "notes"]},
            {"store": "patients", "columns": ["full_name"], "match": "text"},
            {"store": "observations", "columns": ["patient_id"]},
            {
                "derived": "case_tokens",
                "store": "patients",
                "column": "patient_id",
                "secret": "clinic_hmac_key",
                "allowed_to": ["insurer"],
            },
        ],
        "operations": {
            "coverage_request": {
                "policy": "clinic",
                "tools": ["csv_lookup", "hmac_token", "relay_call"],
                "access_key": "clinic-demo-key-0001",
            }
        },
        "relay_targets": {
            "insurer": {
                "operation_id": "coverage_inquiry",
                "access_key": "insurer-demo-key-0002",
            }
        },
        "bind": {"host": "127.0.0.1", "port": 0},
    }


def _insurer_config() -> dict:
    return {
        "node_id": "insurer",
        "datasets": {
            "insurer": {
                "enrollment": "../insurer/enrollment.csv",
                "coverage_rules": "../insurer/coverage_rules.csv",
            }
        },
        "protected": [
            {"store": "enrollment", "columns": ["insurance_number"]},
            {"store": "enrollment", "columns": ["subject_token"], "allowed_to": ["clinic"]},
            {"store": "enrollment", "columns": ["plan_id"], "allowed_to": ["clinic"]},
            {"store": "coverage_rules", "columns": ["plan_id"], "allowed_to": ["clinic"]},
        ],
        "operations": {
            "coverage_inquiry": {
                "policy": "insurer",
                "tools": ["enrollment_match", "coverage_lookup", "relay_call"],
                "access_key": "insurer-demo-key-0002",
            }
        },
        "relay_targets": {
            "specialist": {
                "operation_id": "specialist_consult",
                "access_key": "specialist-demo-key-0003",
            }
        },
        "bind": {"host": "127.0.0.1", "port": 0},
    }


def _specialist_config() -> dict:
    return {
        "node_id": "specialist",
        "datasets": {"guidance": {"dir": "../specialist"}},
        "protected": [],
        "operations": {
            "specialist_consult": {
                "policy": "specialist",
                "tools": ["guidance_search"],
                "access_key": "specialist-demo-key-0003",
            }
        },
        "token_free": True,
        "bind": {"host": "127.0.0.1", "port": 0},
    }


def _topology_config() -> dict:
    return {"nodes": ["clinic.json", "insurer.json", "specialist.json"]}


@dataclass(frozen=True)
class DemoWorkspace:
    root: Path
    clinic_config: Path
    insurer_config: Path
    specialist_config: Path
    topology_config: Path

    @property
    def node_configs(self) -> tuple[Path, Path, Path]:
        return (self.clinic_config, self.insurer_config, self.specialist_config)


def write_demo_workspace(root: Path | str) -> DemoWorkspace:
    """Materialise datasets, key file, and node configs under ``root``."""
    root = Path(root)
    clinic_dir = root / "clinic"
    insurer_dir = root / "insurer"
    specialist_dir = root / "specialist"
    configs_dir = root / "configs"
    for directory in (clinic_dir, insurer_dir, specialist_dir, configs_dir):
        directory.mkdir(parents=True, exist_ok=True)

    (clinic_dir / "clinical_observations.csv").write_text(OBSERVATIONS_CSV, encoding="utf-8")
    (clinic_dir / "patients.csv").write_text(PATIENTS_CSV, encoding="utf-8")
    (clinic_dir / "hmac.key").write_text(FIXTURE_SECRET + "\n", encoding="utf-8")

    key = SecretKey(name="clinic_hmac_key", material=FIXTURE_SECRET.encode("utf-8"))
    (insurer_dir / "enrollment.csv").write_text(
        build_enrollment_csv(PATIENT_IDS, ENROLLMENT_TEMPLATE, key), encoding="utf-8"
    )
    (insurer_dir / "coverage_rules.csv").write_text(COVERAGE_RULES_CSV, encoding="utf-8")

    (specialist_dir / "osteoarthritis_knee_guidance.md").write_text(GUIDANCE_MD, encoding="utf-8")
    (specialist_dir / "osteoarthritis_knee_red_flags.md").write_text(RED_FLAGS_MD, encoding="utf-8")

    for name, config in (
        ("clinic.json", _clinic_config()),
        ("insurer.json", _insurer_config()),
        ("specialist.json", _specialist_config()),
        ("topology.json", _topology_config()),
    ):
        (configs_dir / name).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    return DemoWorkspace(
        root=root,
        clinic_config=configs_dir / "clinic.json",
        insurer_config=configs_dir / "insurer.json",
        specialist_config=configs_dir / "specialist.json",
        topology_config=configs_dir / "topology.json",
    )
