"""Byte-identity pin: each case's transcript and trace, as ``run_scenario``
writes them in process, must equal the copy in ``golden_transcripts.json``.

The pinned copy was written by the code before a refactor of the request
path; a refactor that keeps behaviour must keep every byte. To rewrite it
after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden_transcripts.py --write

and review the diff of the JSON file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from fedmesh.fixtures import CANONICAL_REQUEST, write_demo_workspace
from fedmesh.scenario import run_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_transcripts.json")

# case name -> (request body, run_scenario keyword arguments)
CASES: dict[str, tuple[str, dict]] = {
    **{pid: (f"Confirm coverage for {pid}", {}) for pid in (f"CLN-000{k}" for k in range(1, 6))},
    "explicit-treatment": ("Confirm coverage for CLN-0002 for physiotherapy_course", {}),
    "no-id": ("Confirm coverage for the patient", {}),
    "unknown-id": ("Confirm coverage for CLN-9999", {}),
    "forward-token": (CANONICAL_REQUEST, {"forward_token": True}),
    "forward-token-bypass": (CANONICAL_REQUEST, {"forward_token": True, "bypass_guard": True}),
    "inject-leak": (CANONICAL_REQUEST, {"inject_leak": "Marina Kovacs"}),
    "inject-leak-bypass": (CANONICAL_REQUEST, {"inject_leak": "Marina Kovacs", "bypass_guard": True}),
}


def run_case(configs, name: str) -> dict[str, str]:
    body, kwargs = CASES[name]
    result = run_scenario(configs, body, run_id=f"golden-{name}", **kwargs)
    return {"transcript": result.transcript, "trace": result.trace.to_jsonl()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_and_trace_are_byte_identical(workspace, name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    assert run_case(workspace.node_configs, name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_transcripts.py --write")
    with tempfile.TemporaryDirectory() as root:
        configs = write_demo_workspace(root).node_configs
        golden = {name: run_case(configs, name) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
