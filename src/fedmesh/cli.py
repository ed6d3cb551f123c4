"""Operator command line.

Subcommands: run-scenario, token, gen-fixtures, check-trace. Exit codes are
a stable contract: 0 success/clean, 1 operational failure, 2 locality
violations found.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .datastore import PATIENT_COLUMNS, read_table
from .errors import FedmeshError, TraceFormatError
from .fixtures import CANONICAL_REQUEST, ENROLLMENT_TEMPLATE, build_enrollment_csv
from .locality import check_trace, read_trace
from .pseudonym import SecretSource, derive_token, load_secret, normalize_id
from .scenario import TRANSPORTS, load_audit_context, run_scenario


def _secret_source(name: str, key_file: str | None) -> SecretSource:
    files = {name: Path(key_file)} if key_file else {}
    return SecretSource(files=files)


def cmd_run_scenario(args: argparse.Namespace) -> int:
    result = run_scenario(
        [args.clinic_config, args.insurer_config, args.specialist_config],
        args.request,
        transport=args.transport,
        run_id=args.run_id,
        trace_path=args.trace,
        inject_leak=args.inject_leak,
        forward_token=args.forward_token,
        bypass_guard=args.bypass_guard,
    )
    sys.stdout.write(result.transcript)
    if result.error is not None:
        print(f"run failed: {result.error}", file=sys.stderr)
    return result.exit_code


def cmd_token(args: argparse.Namespace) -> int:
    key = load_secret(args.secret, _secret_source(args.secret, args.key_file))
    print(derive_token(key, normalize_id(args.id)).hex)
    return 0


def cmd_gen_fixtures(args: argparse.Namespace) -> int:
    patients = read_table(args.patients, "patients", PATIENT_COLUMNS)
    patient_ids = patients.column("patient_id")
    key = load_secret(args.secret, _secret_source(args.secret, args.key_file))
    Path(args.out).write_text(
        build_enrollment_csv(patient_ids, ENROLLMENT_TEMPLATE, key), encoding="utf-8"
    )
    print(f"wrote {len(patient_ids)} enrolment row(s) to {args.out}", file=sys.stderr)
    return 0


def cmd_check_trace(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    topology, indexes = load_audit_context(args.topology)
    violations = check_trace(trace, topology, indexes)
    for violation in violations:
        print(violation.to_json())
    print(
        f"checked {len(trace.envelopes)} envelope(s): {len(violations)} violation(s)",
        file=sys.stderr,
    )
    return 2 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmesh")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run-scenario", help="boot the three nodes and submit one request")
    run.add_argument("--clinic-config", required=True)
    run.add_argument("--insurer-config", required=True)
    run.add_argument("--specialist-config", required=True)
    run.add_argument("--request", default=CANONICAL_REQUEST)
    run.add_argument("--transport", choices=TRANSPORTS, default="inprocess")
    run.add_argument("--trace", help="write the JSONL message trace here")
    run.add_argument("--run-id")
    run.add_argument("--inject-leak", metavar="TEXT", help="fault injection: append TEXT to outbound clinic bodies")
    run.add_argument("--forward-token", action="store_true", help="fault injection: insurer forwards the case token")
    run.add_argument("--bypass-guard", action="store_true", help="test hook: disable the runtime leak guard")
    run.set_defaults(func=cmd_run_scenario)

    token = sub.add_parser("token", help="derive the case token for an identifier")
    token.add_argument("id")
    token.add_argument("--secret", required=True, help="secret name (FEDMESH_SECRET_<NAME> or --key-file)")
    token.add_argument("--key-file")
    token.set_defaults(func=cmd_token)

    gen = sub.add_parser("gen-fixtures", help="regenerate enrollment.csv from patients and built-in template triples")
    gen.add_argument("--patients", required=True)
    gen.add_argument("--secret", required=True)
    gen.add_argument("--key-file")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_fixtures)

    check = sub.add_parser("check-trace", help="audit a JSONL trace against the topology")
    check.add_argument("--trace", required=True)
    check.add_argument("--topology", required=True)
    check.set_defaults(func=cmd_check_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceFormatError as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return 1
    except FedmeshError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
