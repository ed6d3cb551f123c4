"""fedmesh benchmark: coverage-request latency, set-up and audit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fixture-loopback --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` instead installs the timing wrappers of ``spans.py``, runs the
same steps traced (at most ``TRACED_REQUESTS`` measured requests), reports
the per-layer metrics and writes the spans to
``.perfbench_out/spans-<workload>.jsonl``. Its ``trace.request_p50_ms``
is scaled like the untraced ``request_p50_ms``; the difference of the two
over runs of the same seed is the tracing overhead.

Every request's outcome is checked (golden verdict, or ``LeakBlocked``
naming the injected column with nothing sent) and every run's trace must
audit clean. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every check passed. The program is imported from ``src/``
of the checkout this script sits in; without it the script fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_REQUESTS = 3000
# String hashing is randomised per process, and the program's speed moves
# with it by up to a fifth from one process to the next. Runs use one fixed
# hash seed so that only the program and the machine vary.
HASH_SEED = "0"

E2E_UNITS = {
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "throughput_rps": "req/s",
    "setup_s": "s",
    "audit_setup_s": "s",
    "audit_envelopes_per_s": "env/s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    if not (SRC / "fedmesh" / "__init__.py").is_file():
        raise SystemExit(f"error: no fedmesh package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fedmesh

    if Path(fedmesh.__file__).resolve().parent != SRC / "fedmesh":
        raise SystemExit(f"error: imported fedmesh from {fedmesh.__file__}, not from {SRC}")


def _prepare(workload, seed: int, work_dir: Path):
    from driver import load_golden, request_stream
    from workspace import assert_matches, generate_workspace

    ws = generate_workspace(work_dir / "workspace", workload.patients, seed)
    if workload.patients == 5:
        assert_matches(ws.demo.root, ROOT / "fixtures")
    return ws, request_stream(workload, ws, load_golden(), seed)


def measure_end_to_end(workload, seed: int, seconds: float, work_dir: Path):
    from driver import (WARMUP_SECONDS, Calibrator, Run, SetupTimes, peak_rss_mb, repeat_setup,
                        timed_setup)

    ws, requests = _prepare(workload, seed, work_dir)
    calibrator, setup = Calibrator(network=workload.transport == "network"), SetupTimes()
    try:
        run = Run(*timed_setup(workload, ws, calibrator, setup), requests, work_dir,
                  calibrator)
        try:
            warmup = run.loop(WARMUP_SECONDS)
            gc.collect()
            stats = run.loop(seconds)
        finally:
            run.close()
        repeat_setup(workload, ws, workload.boots - 1, calibrator, setup)
    finally:
        calibrator.close()
    audit = run.audit
    metrics = {
        "request_p50_ms": stats.latency_ms(50),
        "request_p90_ms": stats.latency_ms(90),
        "throughput_rps": stats.throughput(),
        "setup_s": statistics.median(setup.boot_scaled),
        "audit_setup_s": statistics.median(setup.audit_scaled),
        "audit_envelopes_per_s": audit.rate(),
        "peak_rss_mb": peak_rss_mb(),
    }
    unscaled = {
        "request_p50_ms": stats.latency_ms(50, scaled=False),
        "request_p90_ms": stats.latency_ms(90, scaled=False),
        "throughput_rps": stats.throughput(scaled=False),
        "setup_s": statistics.median(setup.boot),
        "audit_setup_s": statistics.median(setup.audit),
        "audit_envelopes_per_s": audit.rate(scaled=False),
    }
    notes = [
        f"requests timed: {stats.attempted} ({stats.blocked} blocked as injected leaks, "
        f"{stats.attempted // 10} beyond p90) in {stats.seconds:.2f} s of loop time",
        f"set-up repetitions: {len(setup.boot)}; envelopes audited: {audit.envelopes}, "
        f"violations: {audit.violations}",
        f"loop reference slowdown: p50 {stats.slowdown(50):.3f}, p90 {stats.slowdown(90):.3f}, "
        f"mean {stats.slowdown('mean'):.3f} over {len(stats.reference_s)} samples; "
        f"CPU bursts: median {statistics.median(calibrator.samples):.3f} "
        f"over {len(calibrator.samples)} runs",
        "unscaled: " + ", ".join(f"{name}={value:.6g}" for name, value in unscaled.items()),
    ]
    return metrics, [warmup, stats], [audit], notes


def measure_per_layer(workload, seed: int, seconds: float, work_dir: Path):
    import layers
    from driver import WARMUP_SECONDS, Calibrator, Run
    from fedmesh.scenario import boot_scenario, load_audit_context
    from spans import Patches, Tracer, install_module_wrappers, install_node_wrappers

    ws, requests = _prepare(workload, seed, work_dir)
    calibrator = Calibrator(network=workload.transport == "network")
    tracer, patches = Tracer(), Patches()
    install_module_wrappers(tracer, patches)
    try:
        # The same order as the untraced run: one boot before the loop,
        # the other set-up repetitions after it.
        with tracer.phase(layers.BOOT):
            scenario = boot_scenario(ws.demo.node_configs, transport=workload.transport)
        with tracer.phase(layers.AUDIT):
            audit_context = load_audit_context(ws.demo.topology_config)
        index_entries = sum(len(n.protected_index.entries) for n in scenario.nodes.values())
        install_node_wrappers(tracer, patches, scenario.nodes)
        run = Run(scenario, audit_context, requests, work_dir, calibrator)
        del scenario, audit_context
        try:
            warmup = run.loop(WARMUP_SECONDS)

            def around_request(conversation_id):
                span = tracer.start(layers.REQUEST, conversation_id, root=True)
                span.is_request = True

                def done(outcome):
                    span.outcome = outcome
                    tracer.finish(span)

                return done

            run.around_request = around_request
            transports = [node.transport for node in run.scenario.nodes.values()]
            sends0 = sum(t.sends for t in transports)
            bytes0 = sum(t.bytes_sent for t in transports)
            gc.collect()
            traced = run.loop(seconds, max_requests=TRACED_REQUESTS)
            sends = sum(t.sends for t in transports) - sends0
            sent_bytes = sum(t.bytes_sent for t in transports) - bytes0
        finally:
            run.close()
        for _ in range(workload.boots - 1):
            with tracer.phase(layers.BOOT):
                scenario = boot_scenario(ws.demo.node_configs, transport=workload.transport)
            scenario.close()
            with tracer.phase(layers.AUDIT):
                load_audit_context(ws.demo.topology_config)
    finally:
        patches.restore()
        calibrator.close()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}.jsonl")

    metrics = layers.timing_metrics(tracer.spans)
    metrics.update(layers.request_counts(tracer.spans))
    audit = run.audit
    metrics.update({
        "datastore.index_entries": index_entries,
        "relay.bytes_per_request": sent_bytes / traced.attempted,
        "relay.sends_per_request": sends / traced.attempted,
        "locality.read_trace_us_per_envelope": audit.read_ns / 1e3 / audit.envelopes,
        "locality.check_trace_us_per_envelope": audit.check_ns / 1e3 / audit.envelopes,
        "trace.request_p50_ms": traced.latency_ms(50),
    })
    dominant = layers.dominant_layer(metrics)
    notes = [
        f"traced requests: {traced.attempted}, spans: {len(tracer.spans)}; "
        f"blocked: {traced.blocked} (ratio {traced.blocked / traced.attempted:.4f}; "
        f"every outcome is checked, so this is every request that carried a leak)",
        "samples per timing: " + ", ".join(
            f"{name[:-2]}={metrics[name]:g}" for name in metrics if name.endswith(".n")),
        f"largest self-time share: {dominant} ({metrics[dominant + '.share']:.2f}); "
        f"expected {workload.stressed_layer}: "
        + ("yes" if dominant == workload.stressed_layer else "NO"),
    ]
    return metrics, [warmup, traced], [audit], notes


def _with_fixed_hash_seed() -> None:
    """Re-execute this script in place with ``PYTHONHASHSEED=HASH_SEED``."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from driver import WORKLOADS
    from layers import PER_LAYER_UNITS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, loops, audits, notes = measure(workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    violations = sum(a.violations for a in audits)
    correct = failed == 0 and violations == 0 and all(a.envelopes for a in audits)

    units = E2E_UNITS if not args.trace else PER_LAYER_UNITS
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for loop in loops:
        for error in loop.errors:
            print(f"  FAILED {error}")
    if violations:
        print(f"  FAILED audit: {violations} violation(s)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    _with_fixed_hash_seed()
    sys.exit(main())
