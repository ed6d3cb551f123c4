"""Self-tests of the benchmark: the generator and the output checks.

Run from the repository root with ``python3 -m pytest -q perfbench``.
They show that the workspace generator reproduces ``fixtures/`` and that the
output checks can fail: on a tampered golden verdict, and on injected leaks
that reach the wire because the guard is switched off.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from driver import (  # noqa: E402
    WORKLOADS,
    Calibrator,
    Run,
    SetupTimes,
    load_golden,
    request_stream,
    timed_setup,
)
from workspace import differing_files, generate_workspace, make_patients  # noqa: E402


@pytest.fixture
def work_dir():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(workload, golden, work_dir: Path, requests: int, enforce_guard: bool = True):
    ws = generate_workspace(work_dir / "workspace", workload.patients, seed=7)
    calibrator = Calibrator(network=workload.transport == "network")
    try:
        run = Run(*timed_setup(workload, ws, calibrator, SetupTimes()),
                  request_stream(workload, ws, golden, seed=7), work_dir, calibrator)
        try:
            for node in run.scenario.nodes.values():
                node.enforce_guard = enforce_guard
            stats = run.loop(seconds=60, max_requests=requests)
        finally:
            run.close()
    finally:
        calibrator.close()
    return stats, run.audit


def test_generator_reproduces_fixtures(work_dir):
    generate_workspace(work_dir / "ws", 5, seed=123)
    assert differing_files(work_dir / "ws", ROOT / "fixtures") == []


def test_generator_gives_distinct_patients():
    patients = make_patients(2000, seed=3)
    for column in ("patient_id", "full_name", "dob", "notes"):
        values = [getattr(p, column).casefold() for p in patients]
        assert len(set(values)) == len(values), column
    assert make_patients(2000, seed=3) == patients
    assert make_patients(2000, seed=4) != patients


def test_fixture_requests_match_golden(work_dir):
    stats, audit = _run(WORKLOADS["fixture-loopback"], load_golden(), work_dir, requests=15)
    assert (stats.attempted, stats.failed) == (15, 0)
    assert audit.envelopes == 60 and audit.violations == 0


def test_tampered_golden_verdict_fails(work_dir):
    golden = load_golden()
    golden["CLN-0003"]["plain"] = golden["CLN-0003"]["plain"].replace("Not covered", "Covered")
    stats, _ = _run(WORKLOADS["fixture-loopback"], golden, work_dir, requests=15)
    assert stats.attempted == 15 and stats.failed == 1


def test_injected_leaks_are_blocked(work_dir):
    workload = replace(WORKLOADS["clinic10k-loopback"], patients=40, leak_every=2)
    stats, audit = _run(workload, load_golden(), work_dir, requests=16)
    assert (stats.attempted, stats.failed, stats.blocked) == (16, 0, 8)
    assert audit.violations == 0


def test_leaks_past_a_disabled_guard_fail(work_dir):
    workload = replace(WORKLOADS["clinic10k-loopback"], patients=40, leak_every=2)
    stats, audit = _run(workload, load_golden(), work_dir, requests=16, enforce_guard=False)
    assert (stats.attempted, stats.failed, stats.blocked) == (16, 8, 0)
    assert audit.violations >= 8
