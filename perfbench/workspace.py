"""Seeded workspace generator for the benchmark.

``generate_workspace(root, patients, seed)`` writes a complete three-node
workspace under ``root`` using only public ``fedmesh`` functions: the demo
writer supplies configs, key, coverage rules and guidance, and the three
patient-sized tables are then rewritten with ``patients`` rows.

- Row ``i`` has patient id ``CLN-{(i + 1) % 10000:04d}``, so 5 rows give
  ``CLN-0001``..``CLN-0005`` and 10,000 rows give every id the clinic's
  ``CLN-\\d{4}`` pattern can address.
- The first five rows are the shipped demo patients. With ``patients=5``
  the workspace equals ``fixtures/`` byte for byte (``assert_matches``).
- Later rows get a distinct name, date of birth, notes and insurance number
  drawn from ``seed``. Observation rows and enrolment plan and status cycle
  the five shipped templates (row ``i`` uses template ``i % 5``), so every
  request's verdict is one of the golden verdicts of template ``i % 5``.
"""

from __future__ import annotations

import csv
import datetime
import filecmp
import io
import random
from dataclasses import dataclass
from pathlib import Path

from fedmesh.fixtures import (
    ENROLLMENT_TEMPLATE,
    FIXTURE_SECRET,
    OBSERVATIONS_CSV,
    PATIENTS_CSV,
    DemoWorkspace,
    build_enrollment_csv,
    write_demo_workspace,
)
from fedmesh.pseudonym import SecretKey

MAX_PATIENTS = 10_000
TEMPLATES = len(ENROLLMENT_TEMPLATE)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_DOB_FIRST = datetime.date(1935, 1, 1)
_DOB_DAYS = 25_000  # up to mid-2003


@dataclass(frozen=True)
class Patient:
    patient_id: str
    full_name: str
    dob: str
    notes: str
    template: int  # index of the shipped observation/enrolment row it copies


@dataclass(frozen=True)
class Workspace:
    demo: DemoWorkspace
    patients: tuple[Patient, ...]


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _word(rng: random.Random, syllables: int) -> str:
    word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
    return word.capitalize()


def make_patients(count: int, seed: int) -> tuple[Patient, ...]:
    """The shipped five patients followed by ``count - 5`` seeded ones."""
    if not TEMPLATES <= count <= MAX_PATIENTS:
        raise ValueError(f"patients must be between {TEMPLATES} and {MAX_PATIENTS}")
    header, *shipped = _rows(PATIENTS_CSV)
    assert header == ["patient_id", "full_name", "dob", "notes"]
    patients = [Patient(*row, template=i) for i, row in enumerate(shipped)]

    rng = random.Random(seed)
    names = {p.full_name.casefold() for p in patients}
    used_dobs = {p.dob for p in patients}
    day_offsets = iter(rng.sample(range(_DOB_DAYS), count + TEMPLATES))
    for i in range(TEMPLATES, count):
        while True:
            name = f"{_word(rng, 2)} {_word(rng, 3)}"
            if name.casefold() not in names:
                names.add(name.casefold())
                break
        while True:
            dob = (_DOB_FIRST + datetime.timedelta(days=next(day_offsets))).isoformat()
            if dob not in used_dobs:
                used_dobs.add(dob)
                break
        template = i % TEMPLATES
        notes = f"{patients[template].notes}; visit {i:05d}"
        patients.append(Patient(f"CLN-{(i + 1) % MAX_PATIENTS:04d}", name, dob, notes, template))
    return tuple(patients)


def generate_workspace(root: Path | str, patients: int, seed: int) -> Workspace:
    """Write a ``patients``-row workspace under ``root`` (never ``fixtures/``)."""
    demo = write_demo_workspace(root)
    rows = make_patients(patients, seed)

    obs_header, *obs_templates = _rows(OBSERVATIONS_CSV)
    observations = [obs_header] + [
        [p.patient_id, *obs_templates[p.template][1:]] for p in rows
    ]
    enrollment = [
        (f"INS-{100000 + i:06d}",) + ENROLLMENT_TEMPLATE[p.template][1:]
        if i >= TEMPLATES
        else ENROLLMENT_TEMPLATE[i]
        for i, p in enumerate(rows)
    ]
    key = SecretKey(name="clinic_hmac_key", material=FIXTURE_SECRET.encode("utf-8"))

    clinic = demo.root / "clinic"
    (clinic / "patients.csv").write_text(
        _csv([["patient_id", "full_name", "dob", "notes"]]
             + [[p.patient_id, p.full_name, p.dob, p.notes] for p in rows]),
        encoding="utf-8",
    )
    (clinic / "clinical_observations.csv").write_text(_csv(observations), encoding="utf-8")
    (demo.root / "insurer" / "enrollment.csv").write_text(
        build_enrollment_csv([p.patient_id for p in rows], enrollment, key), encoding="utf-8"
    )
    return Workspace(demo=demo, patients=rows)


def differing_files(root: Path | str, fixtures_dir: Path | str) -> list[str]:
    """Relative paths that differ between a workspace and ``fixtures/``,
    in either direction (missing files count as differing)."""
    root, fixtures_dir = Path(root), Path(fixtures_dir)
    ours = {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
    shipped = {p.relative_to(fixtures_dir) for p in fixtures_dir.rglob("*") if p.is_file()}
    differing = ours ^ shipped
    differing |= {
        rel for rel in ours & shipped
        if not filecmp.cmp(root / rel, fixtures_dir / rel, shallow=False)
    }
    return sorted(str(rel) for rel in differing)


def assert_matches(root: Path | str, fixtures_dir: Path | str) -> None:
    """Raise unless the workspace under ``root`` equals ``fixtures/``."""
    differing = differing_files(root, fixtures_dir)
    if differing:
        raise AssertionError(f"generated workspace differs from fixtures/: {differing}")
