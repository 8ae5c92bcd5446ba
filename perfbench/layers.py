"""Per-layer metrics from a traced phase.

Each timed layer metric is reported as ``<span>_ms`` (median busy time
per call) and ``<span>_tail_ms`` (p99/p95/p90, the highest that leaves
ten calls beyond it, else the maximum).  A layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

from . import common

# span (or phase.extra key) -> where its samples come from
TIMED = (
    "envelope.unwrap_key",
    "envelope.open_blob",
    "envelope.seal",
    "envelope.wrap_key",
    "envelope.from_private_pem",
    "audit.append",
    "audit.fsync",
    "audit.replay",
    "stores.save_private",
    "stores.to_doc",
    "stores.validate_state",
    "stores.put_blob",
    "stores.get_blob",
    "stores.load_private",
    "policy.dump_state",
    "policy.revoke_permission",
    "policy.check_access",
    "policy.effective_roles",
    "gateway.authenticate_token",
    "gateway.status",
    "gateway.download.self",
    "gateway.upload.self",
    "gateway.mutation.self",
    "httpapi.dispatch",
    "httpapi.lock_wait",
    "cli.import",
    "cli.command",
)

COUNTS = {
    "audit.entries": "count",
    "policy.delegations": "count",
    "gateway.deny_count": "count",
    "stores.save_private_calls_per_op": "1/op",
    "stores.save_private_bytes_per_op": "B/op",
    "fsync_per_op": "1/op",
    "trace.overhead_pct": "%",
}


def names_and_units() -> dict[str, str]:
    units = {}
    for span in TIMED:
        units[f"{span}_ms"] = "ms"
        units[f"{span}_tail_ms"] = "ms"
    units.update(COUNTS)
    return units


def _samples(trace: dict, extra: dict, span: str) -> list[float]:
    spans = trace["spans"]
    if span.endswith(".self"):
        return spans.get(span[: -len(".self")], {}).get("self_ms", [])
    if span in spans:
        return spans[span]["dur_ms"]
    return extra.get(span, [])


def per_layer(phase, overhead: float, home) -> dict[str, float]:
    from .workloads import count_lines

    trace, extra = phase.trace, phase.extra
    metrics: dict[str, float] = {}
    for span in TIMED:
        samples = _samples(trace, extra, span)
        if samples:
            metrics[f"{span}_ms"] = common.median(samples)
            metrics[f"{span}_tail_ms"] = common.tail_value(
                samples, common.tail_label(len(samples))
            )
        else:
            metrics[f"{span}_ms"] = metrics[f"{span}_tail_ms"] = 0.0
    ops = max(phase.timed_ops, 1)
    counts, spans = trace["counts"], trace["spans"]
    metrics["audit.entries"] = count_lines(home.audit_path)
    metrics["policy.delegations"] = len(home.model.delegations)
    metrics["gateway.deny_count"] = counts.get("gateway.deny", 0)
    metrics["stores.save_private_calls_per_op"] = (
        len(spans.get("stores.save_private", {}).get("dur_ms", [])) / ops
    )
    metrics["stores.save_private_bytes_per_op"] = counts.get("stores.save_private_bytes", 0) / ops
    metrics["fsync_per_op"] = len(spans.get("os.fsync", {}).get("dur_ms", [])) / ops
    metrics["trace.overhead_pct"] = overhead * 100.0
    return metrics
