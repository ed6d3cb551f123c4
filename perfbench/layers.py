"""Per-layer metrics of the traced run, computed from its spans.

A timing is reported as the median self time of its spans, with ``.p90``;
its sample count ``.n`` is printed beside the metrics, not reported as one. Request-path timings also give ``.share``:
their summed self time over the summed duration of the request roots, so
the layer with the largest share is where request time goes. Counts per
request are means over clean requests (those answered with a verdict).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from spans import Span

# (metric, phase, span names); phase is the root the span hangs under.
BOOT, AUDIT, REQUEST = "boot", "audit_setup", "request"
TIMINGS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("config.load_node_config_ms", BOOT, ("config.load_node_config_ms",)),
    ("datastore.load_stores_ms", BOOT, ("datastore.load_stores_ms",)),
    ("datastore.protected_values_ms", BOOT, ("datastore.protected_values_ms",)),
    ("relay.serve_ms", BOOT, ("relay.serve_ms",)),
    ("datastore.audit_load_stores_ms", AUDIT, ("datastore.load_stores_ms",)),
    ("datastore.audit_protected_values_ms", AUDIT, ("datastore.protected_values_ms",)),
) + tuple(
    (name, REQUEST, (name,) if name != "runtime.loop_self_us" else (name, REQUEST))
    for name in (
        "policies.decide_us",
        "runtime.tool_us.csv_lookup",
        "runtime.tool_us.enrollment_match",
        "runtime.tool_us.coverage_lookup",
        "runtime.tool_us.hmac_token",
        "runtime.tool_us.guidance_search",
        "runtime.tool_us.relay_call",
        "locality.scan_us",
        "relay.encode_us",
        "relay.decode_us",
        "relay.transport_self_us",
        "locality.trace_append_us",
        "runtime.loop_self_us",
    )
)

# Per clean request: metric -> predicate on span names.
PER_REQUEST_COUNTS = {
    "policies.decide_calls_per_request": lambda n: n == "policies.decide_us",
    "policies.parse_inquiry_calls_per_request": lambda n: n == "policies.parse_inquiry",
    "runtime.tool_calls_per_request": lambda n: n.startswith("runtime.tool_us."),
    "pseudonym.secret_reads_per_request": lambda n: n == "pseudonym.secret_read",
    "locality.scans_per_request": lambda n: n == "locality.scan_us",
}


def _phase(span: Span) -> str:
    root = span.root
    return REQUEST if root.is_request else root.name


def timing_metrics(spans: list[Span]) -> dict[str, float]:
    by_phase_name: dict[tuple[str, str], list[Span]] = defaultdict(list)
    request_ns = 0
    for span in spans:
        phase = _phase(span)
        by_phase_name[phase, span.name].append(span)
        if span.is_request:
            request_ns += span.duration_ns
    metrics: dict[str, float] = {}
    for metric, phase, names in TIMINGS:
        selected = [s for name in names for s in by_phase_name[phase, name]]
        scale = 1e6 if metric.endswith("_ms") else 1e3
        values = sorted(s.self_ns / scale for s in selected)
        metrics[metric] = statistics.median(values) if values else 0.0
        metrics[f"{metric}.p90"] = values[int(0.9 * (len(values) - 1))] if values else 0.0
        metrics[f"{metric}.n"] = len(values)
        if phase == REQUEST:
            total = sum(s.self_ns for s in selected)
            metrics[f"{metric}.share"] = total / request_ns if request_ns else 0.0
    return metrics


def request_counts(spans: list[Span]) -> dict[str, float]:
    counts: dict[Span, Counter] = defaultdict(Counter)
    scanned = []
    for span in spans:
        root = span.root
        if not root.is_request:
            continue
        if span.name == "locality.scan_us":
            scanned.append(span.count)
        if root.outcome == "verdict":
            counts[root][span.name] += 1
    clean = list(counts.values())
    metrics = {
        metric: statistics.fmean(sum(c for name, c in counter.items() if matches(name))
                                 for counter in clean) if clean else 0.0
        for metric, matches in PER_REQUEST_COUNTS.items()
    }
    metrics["locality.scan_entries_per_message"] = statistics.fmean(scanned) if scanned else 0.0
    return metrics


def dominant_layer(metrics: dict[str, float]) -> str:
    """The request-path timing with the largest self-time share."""
    shares = {k[: -len(".share")]: v for k, v in metrics.items() if k.endswith(".share")}
    return max(shares, key=shares.__getitem__)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for metric, phase, _ in TIMINGS:
        unit = "ms" if metric.endswith("_ms") else "us"
        units.update({metric: unit, f"{metric}.p90": unit})
        if phase == REQUEST:
            units[f"{metric}.share"] = "ratio"
    units.update({name: "count" for name in PER_REQUEST_COUNTS})
    units.update({
        "locality.scan_entries_per_message": "count",
        "datastore.index_entries": "count",
        "relay.bytes_per_request": "B",
        "relay.sends_per_request": "count",
        "locality.read_trace_us_per_envelope": "us",
        "locality.check_trace_us_per_envelope": "us",
        "trace.request_p50_ms": "ms",
    })
    return units


# Every metric of a traced run, in output order, with its unit.
PER_LAYER_UNITS = _per_layer_units()
