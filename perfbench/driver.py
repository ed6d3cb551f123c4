"""Workloads, the closed request loop, output checks and the audit.

One run of a workload:

1. generates its workspace from the seed (``workspace.py``);
2. boots the three nodes through ``boot_scenario`` and loads the audit
   context (``load_audit_context``);
3. warms up, then drives coverage requests through ``Scenario.submit`` in a
   closed loop (one client) for the measured seconds, checking every outcome;
4. audits the run's trace the way ``fedmesh check-trace`` does;
5. repeats step 2 until it has run ``boots`` times; ``setup_s`` and
   ``audit_setup_s`` are the medians.

The loop runs in slices of at most ``CHUNK`` requests and ``SLICE_NS``. At
each slice boundary the loop stops, the clock pauses, the nodes get a
fresh ``TraceLog`` and the finished chunk of trace is written, read back
and checked. The audit covers every envelope of the run, and memory does
not grow with the number of requests a faster program completes.

The machine's speed drifts by tens of percent from one second to the next
when other work shares it, so times are scaled by fixed reference tasks
that never call ``fedmesh`` (``Calibrator``); they read as on a machine
where each reference takes exactly its nominal time.

- A single interval (a boot, an audit-context load, the audit of one
  chunk) is bracketed by short bursts of a CPU task and divided by the
  bursts' mean slowdown.
- The request loop runs a reference sample every ``SAMPLE_EVERY_NS`` of
  loop time, outside the timed requests: the CPU task on in-process
  workloads, a loopback HTTP exchange through the standard library on
  network ones. Each latency percentile is divided by the slowdown of the
  same percentile of the samples against its nominal value, and throughput
  is multiplied by the slowdown of their mean. Every request of the loop
  counts; none is dropped.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import hmac
import io
import threading
import urllib.request
import json
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import cycle
from pathlib import Path
from typing import Callable, Iterator

from fedmesh.errors import LeakBlocked
from fedmesh.locality import TraceLog, check_trace, read_trace
from fedmesh.scenario import Scenario, boot_scenario, load_audit_context

from workspace import TEMPLATES, Patient, Workspace

CHUNK = 500  # requests per trace chunk
SLICE_NS = 500_000_000  # a chunk also ends after this much loop time
SAMPLE_EVERY_NS = 30_000_000  # loop time between two reference samples
WARMUP_SECONDS = 1.0
GOLDEN_PATH = Path(__file__).with_name("golden_verdicts.json")

FORMS = {
    "plain": "Confirm coverage for {pid}",
    "physiotherapy_course": "Confirm coverage for {pid} for physiotherapy_course",
    "knee_hyaluronic_injection": "Confirm coverage for {pid} for knee_hyaluronic_injection",
}
LEAK_COLUMNS = ("patient_id", "dob", "notes", "full_name")
# Nominal times (s) of the reference tasks on a quiet machine: median,
# p90 and mean. Only their ratios between runs matter.
CPU_REFERENCE_S = {50: 0.005, 90: 0.006, "mean": 0.005}
HTTP_REFERENCE_S = {50: 0.003, 90: 0.0045, "mean": 0.0035}
CALIBRATION_REPEATS = 3  # task runs per calibration burst


@dataclass(frozen=True)
class Workload:
    name: str
    patients: int
    transport: str
    leak_every: int  # every n-th request carries an injected leak; 0 = none
    boots: int  # set-up repetitions whose median is setup_s / audit_setup_s
    stressed_layer: str  # the per-layer timing expected to dominate self time


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture-loopback", 5, "inprocess", 0, 41, "policies.decide_us"),
        Workload("clinic10k-loopback", 10_000, "inprocess", 8, 7, "locality.scan_us"),
        Workload("fixture-http", 5, "network", 0, 15, "relay.transport_self_us"),
    )
}


@dataclass(frozen=True)
class Request:
    body: str
    expected_verdict: str | None  # None when a leak is injected
    leak_value: str | None = None
    leak_column: str | None = None


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, dict[str, str]]:
    """``{template patient id: {request form: verdict}}``."""
    return json.loads(path.read_text(encoding="utf-8"))


def request_stream(
    workload: Workload, ws: Workspace, golden: dict[str, dict[str, str]], seed: int
) -> Iterator[Request]:
    """The seeded, endless request sequence of a workload.

    Fixture workloads cycle the 5 patients x 3 forms in a seeded order.
    Larger workspaces draw patient and form uniformly; every
    ``leak_every``-th request appends an exact protected value of another
    patient to the clinic's outbound body.
    """
    rng = random.Random(seed)
    templates = [p.patient_id for p in ws.patients[:TEMPLATES]]

    def clean(patient: Patient, form: str) -> Request:
        return Request(FORMS[form].format(pid=patient.patient_id),
                       golden[templates[patient.template]][form])

    if len(ws.patients) == TEMPLATES:
        combos = [clean(p, f) for p in ws.patients for f in FORMS]
        rng.shuffle(combos)
        yield from cycle(combos)
    forms = list(FORMS)
    n = 0
    while True:
        n += 1
        patient = ws.patients[rng.randrange(len(ws.patients))]
        request = clean(patient, rng.choice(forms))
        if workload.leak_every and n % workload.leak_every == 0:
            other = patient
            while other is patient:
                other = ws.patients[rng.randrange(len(ws.patients))]
            column = rng.choice(LEAK_COLUMNS)
            value = getattr(other, column)
            request = Request(request.body, None,
                              value.upper() if column == "full_name" else value, column)
        yield request


def outcome_ok(request: Request, outcome: object, sends_before: int, sends_after: int) -> bool:
    """A clean request must return its golden verdict byte for byte; a leak
    must raise ``LeakBlocked`` naming the injected column with nothing
    sent by the clinic."""
    if request.expected_verdict is not None:
        return outcome == request.expected_verdict
    if not isinstance(outcome, LeakBlocked):
        return False
    columns = {finding.source_column for finding in outcome.findings}
    return (
        request.leak_column in columns
        and request.leak_column in str(outcome)
        and sends_before == sends_after
    )


@dataclass
class LoopStats:
    attempted: int = 0
    failed: int = 0
    blocked: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    seconds: float = 0.0  # loop time, reference samples excluded
    reference_s: list[float] = field(default_factory=list)  # time of each reference sample
    nominal_s: dict[int | str, float] = field(default_factory=lambda: CPU_REFERENCE_S)
    errors: list[str] = field(default_factory=list)  # the first few failures

    def slowdown(self, statistic: int | str) -> float:
        """A percentile (or "mean") of the reference times over its nominal value."""
        value = (statistics.fmean(self.reference_s) if statistic == "mean"
                 else quantile(self.reference_s, statistic))
        return value / self.nominal_s[statistic]

    def latency_ms(self, percentile: int, scaled: bool = True) -> float:
        """A latency percentile over every request, divided by the same
        percentile's slowdown unless ``scaled`` is false."""
        return quantile(self.latencies_ms, percentile) / (
            self.slowdown(percentile) if scaled else 1.0)

    def throughput(self, scaled: bool = True) -> float:
        """Completed requests per second of loop time, multiplied by the
        mean's slowdown unless ``scaled`` is false."""
        return self.attempted / self.seconds * (self.slowdown("mean") if scaled else 1.0)


@dataclass
class AuditStats:
    envelopes: int = 0
    read_ns: int = 0
    check_ns: int = 0
    # (envelopes, seconds, slowdown) of each audited chunk
    chunks: list[tuple[int, float, float]] = field(default_factory=list)
    violations: int = 0

    def rate(self, scaled: bool = True) -> float:
        """Envelopes per second of ``read_trace`` + ``check_trace``, each
        chunk's time divided by its slowdown unless ``scaled`` is false."""
        return self.envelopes / sum(seconds / (slowdown if scaled else 1.0)
                                    for _, seconds, slowdown in self.chunks)


@dataclass(frozen=True)
class _CalibrationRow:
    patient_id: str
    symptom_class: str
    weeks: int
    limitation: str
    prior: tuple[str, ...]


@dataclass(frozen=True)
class _CalibrationEntry:
    value: str
    text: bool


_CALIBRATION_TABLE = "patient_id,symptom_class,weeks,limitation,prior\n" + "".join(
    f"CLN-{i:04d},moderate,{i % 30},difficulty stairs and standing,NSAID_2_weeks;physio_{i % 7}_weeks\n"
    for i in range(60)
)
_CALIBRATION_PATTERNS = tuple(re.compile(p) for p in (
    r"\bCLN-\d{4}\b", r"^(\w+)_(\d+)_weeks$", r"\bfor\s+([A-Za-z][A-Za-z0-9_]*)",
))


class _EchoHandler(BaseHTTPRequestHandler):
    """Decodes a JSON body and answers with part of it, as a relay would."""

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.dumps({"ok": True, "echo": json.loads(raw)["body"][:300]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        pass


class Calibrator:
    """Times fixed reference tasks that never call ``fedmesh``, so a change
    to the program never moves them. A slowdown is a task's time over its
    nominal time.

    The CPU task imitates the program's kind of work with the standard
    library alone: CSV rows into frozen dataclasses, key=value text, regex,
    JSON, HMAC, substring search, and a scan over many small objects. It
    touches much code, as the program does, because a busy neighbour slows
    such code more than a tight loop. With ``network``, loop samples are
    instead two JSON POSTs through ``urllib`` to a ``ThreadingHTTPServer``
    on loopback: a new connection and a handler thread each, as in the
    program's HTTP transport. The garbage collector is off while a task
    runs, so the program's heap does not slow the reference.
    """

    def __init__(self, network: bool = False) -> None:
        self.samples: list[float] = []  # slowdown of each CPU task run
        self._entries = [_CalibrationEntry(f"value-{i:06d}", i % 4 == 0) for i in range(20_000)]
        self._server: ThreadingHTTPServer | None = None
        if network:
            self._server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
            self._server.daemon_threads = True
            self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
            self._thread.start()
            host, port = self._server.server_address[:2]
            self._url = f"http://{host}:{port}/echo"
            self._payload = json.dumps({"body": _CALIBRATION_TABLE[:800]}).encode()

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join()

    def task(self) -> int:
        rows = [
            _CalibrationRow(r["patient_id"], r["symptom_class"], int(r["weeks"]), r["limitation"],
                            tuple(r["prior"].split(";")))
            for r in csv.DictReader(io.StringIO(_CALIBRATION_TABLE))
        ]
        encoded = []
        for row in rows:
            text = (f"symptom_class={row.symptom_class}\nduration_weeks={row.weeks}\n"
                    f"functional_limitation={row.limitation}\nprior={';'.join(row.prior)}")
            fields = dict(line.split("=", 1) for line in text.split("\n"))
            for pattern in _CALIBRATION_PATTERNS:
                pattern.search(text + " for physiotherapy_course CLN-0001")
            for step in row.prior:
                _CALIBRATION_PATTERNS[1].fullmatch(step)
            encoded.append(json.dumps({"body": text, "fields": fields, "id": row.patient_id}))
        decoded = [json.loads(raw) for raw in encoded]
        for record in decoded[:20]:
            hmac.new(b"calibration-key-0", record["id"].encode(), hashlib.sha256).hexdigest()
        folded = "".join(encoded).casefold()
        found = sum(1 for row in rows if row.patient_id.casefold() + "x" in folded)
        body = encoded[0]
        return found + sum(1 for entry in self._entries if entry.text and entry.value in body)

    def exchange(self) -> None:
        for _ in range(2):
            request = urllib.request.Request(self._url, data=self._payload, method="POST",
                                             headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                json.loads(response.read())

    def _timed(self, task: Callable[[], object]) -> float:
        gc.disable()
        try:
            started = time.perf_counter()
            task()
            return time.perf_counter() - started
        finally:
            gc.enable()

    @property
    def nominal_s(self) -> dict[int | str, float]:
        """The nominal times of ``sample``."""
        return HTTP_REFERENCE_S if self._server is not None else CPU_REFERENCE_S

    def sample(self) -> float:
        """Time one loop sample (s)."""
        return self._timed(self.exchange if self._server is not None else self.task)

    def mark(self) -> float:
        """The median slowdown of a burst of CPU task runs."""
        burst = [self._timed(self.task) / CPU_REFERENCE_S[50] for _ in range(CALIBRATION_REPEATS)]
        self.samples += burst
        return statistics.median(burst)

    def bracket(self, before: float) -> float:
        """Mark, and return the factor for the interval since ``before``."""
        return (before + self.mark()) / 2


class Run:
    """A booted workload: scenario, request source and audit state."""

    def __init__(self, scenario: Scenario, audit_context, requests: Iterator[Request],
                 work_dir: Path, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.scenario = scenario
        self.requests = requests
        self.work_dir = work_dir
        self.topology, self.indexes = audit_context
        self.audit = AuditStats()
        self._leak: str | None = None  # the value injected into the current request
        self._chunks = 0
        clinic = scenario.nodes[scenario.entry_node]
        clinic.outbound_mutators.append(self._inject)
        # Hook for timing each request (the traced run opens a span here).
        self.around_request: Callable[[str], Callable[[str], None]] | None = None

    def _inject(self, target: str, body: str) -> str:
        return body if self._leak is None else f"{body}\n{self._leak}"

    def _submit(self, request: Request, conversation_id: str, stats: LoopStats) -> float:
        """Send one request, check its outcome and return its latency in ms."""
        clinic_transport = self.scenario.nodes[self.scenario.entry_node].transport
        self._leak = request.leak_value
        sends_before = clinic_transport.sends
        done = self.around_request(conversation_id) if self.around_request else None
        started = time.perf_counter_ns()
        try:
            outcome: object = self.scenario.submit(request.body, conversation_id)
        except Exception as exc:  # every failure is counted, not raised
            outcome = exc
        elapsed = time.perf_counter_ns() - started
        ok = outcome_ok(request, outcome, sends_before, clinic_transport.sends)
        if done is not None:
            done("failed" if not ok else "blocked" if request.leak_value else "verdict")
        stats.attempted += 1
        if not ok:
            stats.failed += 1
            if len(stats.errors) < 3:
                stats.errors.append(f"{request.body!r}: {type(outcome).__name__}: {outcome}"[:300])
        stats.blocked += isinstance(outcome, LeakBlocked)
        return elapsed / 1e6

    def loop(self, seconds: float, max_requests: int | None = None) -> LoopStats:
        """Closed loop: the next request is sent when the last one has been
        answered, until ``seconds`` of loop time or ``max_requests``. The
        loop stops at each slice boundary to audit the trace so far."""
        stats = LoopStats(nominal_s=self.calibrator.nominal_s)
        conversation_id = f"{self.scenario.run_id}-client0"
        limit_ns, next_sample_ns = int(seconds * 1e9), 0
        while stats.seconds * 1e9 < limit_ns and stats.attempted != max_requests:
            slice_limit_ns = min(limit_ns - int(stats.seconds * 1e9), SLICE_NS)
            taken, paused_ns = 0, 0
            started = time.perf_counter_ns()
            while (taken < CHUNK and stats.attempted != max_requests
                   and time.perf_counter_ns() - started - paused_ns < slice_limit_ns):
                stats.latencies_ms.append(self._submit(next(self.requests), conversation_id, stats))
                taken += 1
                now = time.perf_counter_ns()
                if now >= next_sample_ns:
                    stats.reference_s.append(self.calibrator.sample())
                    next_sample_ns = time.perf_counter_ns()
                    paused_ns += next_sample_ns - now
                    next_sample_ns += SAMPLE_EVERY_NS
            stats.seconds += (time.perf_counter_ns() - started - paused_ns) / 1e9
            self.flush_trace()
        return stats

    def close(self) -> None:
        """Stop the deployment and let go of it and of the audit indexes."""
        self.scenario.close()
        del self.scenario, self.indexes

    def flush_trace(self) -> None:
        """Swap in a fresh trace and audit the finished chunk from disk."""
        finished = self.scenario.trace
        fresh = TraceLog(self.scenario.run_id)
        self.scenario.trace = fresh
        for node in self.scenario.nodes.values():
            node.trace = fresh
        if not finished.envelopes:
            return
        path = self.work_dir / f"trace-{self._chunks}.jsonl"
        self._chunks += 1
        finished.write(path)
        del finished
        speed_before = self.calibrator.mark()
        started = time.perf_counter_ns()
        trace = read_trace(path)
        read_done = time.perf_counter_ns()
        violations = check_trace(trace, self.topology, self.indexes)
        checked = time.perf_counter_ns()
        self.audit.chunks.append(
            (len(trace.envelopes), (checked - started) / 1e9, self.calibrator.bracket(speed_before)))
        self.audit.check_ns += checked - read_done
        self.audit.read_ns += read_done - started
        self.audit.envelopes += len(trace.envelopes)
        self.audit.violations += len(violations)
        path.unlink()


@dataclass
class SetupTimes:
    """Wall times (s) of each set-up repetition, unscaled and scaled."""

    boot: list[float] = field(default_factory=list)
    audit: list[float] = field(default_factory=list)
    boot_scaled: list[float] = field(default_factory=list)
    audit_scaled: list[float] = field(default_factory=list)


def timed_setup(workload: Workload, ws: Workspace, calibrator: Calibrator,
                times: SetupTimes) -> tuple[Scenario, tuple]:
    """Boot the nodes and load the audit context, timing each."""
    gc.collect()
    speed = calibrator.mark()
    started = time.perf_counter()
    scenario = boot_scenario(ws.demo.node_configs, transport=workload.transport)
    boot = time.perf_counter() - started
    speed_between = calibrator.mark()
    started = time.perf_counter()
    audit_context = load_audit_context(ws.demo.topology_config)
    audit = time.perf_counter() - started
    times.boot.append(boot)
    times.audit.append(audit)
    times.boot_scaled.append(boot / ((speed + speed_between) / 2))
    times.audit_scaled.append(audit / calibrator.bracket(speed_between))
    return scenario, audit_context


def repeat_setup(workload: Workload, ws: Workspace, repeats: int, calibrator: Calibrator,
                 times: SetupTimes) -> None:
    """Further set-up repetitions, each scenario closed at once. They run
    after the measured loop, so the loop's heap holds one deployment."""
    for _ in range(repeats):
        scenario, audit_context = timed_setup(workload, ws, calibrator, times)
        scenario.close()
        del scenario, audit_context


def quantile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile of ``samples`` (``statistics.quantiles``)."""
    return statistics.median(samples) if q == 50 else statistics.quantiles(samples, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
