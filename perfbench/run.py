"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload write-heavy --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics from a
traced phase.  The full record with provenance is written to
.bench_out/<workload>-seed<seed>-trace<trace>.json.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3  # set-ups per run; setup_s is their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "download_p50_ms": "ms",
    "download_tail_ms": "ms",
    "upload_p50_ms": "ms",
    "upload_tail_ms": "ms",
    "mutation_p50_ms": "ms",
    "mutation_tail_ms": "ms",
    "status_p50_ms": "ms",
    "capacity_rps": "1/s",
    "write_amp": "ratio",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}


def _finite(value: float) -> float:
    # JSON has no infinity; a failed sample still has to read as huge
    return value if math.isfinite(value) else sys.float_info.max


def end_to_end(workload, phase, setup_times, space: dict) -> tuple[dict, dict]:
    from perfbench import common

    metrics = {
        "setup_s": common.median(setup_times),
        "ops_per_s": phase.timed_ops / phase.elapsed,
        "capacity_rps": phase.capacity_rps,
        "write_amp": phase.wchar_bytes / phase.payload_bytes,
        "space_amp": space["disk_bytes"] / space["live_bytes"],
        "peak_rss_mb": phase.peak_rss_mb,
    }
    tails = {}
    for op_type in ("download", "upload", "mutation", "status"):
        samples = phase.samples[op_type]
        if not samples:
            raise common.BenchError(f"{workload.name} produced no {op_type} samples")
        metrics[f"{op_type}_p50_ms"] = common.median(samples)
        label = workload.tails.get(op_type)
        if label is not None:
            metrics[f"{op_type}_tail_ms"] = common.tail_value(samples, label)
        tails[op_type] = {"percentile": label, "n": len(samples)}
    return metrics, tails


def measure(workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    from perfbench import common, layers, workloads

    setup_times = []
    homes = 1 if trace else SETUPS
    for k in range(homes):
        start = time.perf_counter()
        home = workload.setup(os.path.join(work, f"home{k}"), seed)
        setup_times.append(time.perf_counter() - start)
        if k < homes - 1:
            # deleted with the work directory after the run, so that freeing
            # their blocks does not share the disk with the timed phase
            workload.teardown(home)
    entries_before = workloads.count_lines(home.audit_path)
    phases = []
    try:
        if trace:
            phases.append(workload.run(home, seconds / 2, seed, traced=False))
            phases.append(workload.run(home, seconds / 2, seed, traced=True))
        else:
            phases.append(workload.run(home, seconds, seed, traced=False))
    finally:
        workload.teardown(home)
    # before the gate, whose read-back sweep appends audit entries
    space = {"disk_bytes": common.disk_bytes(home.path), "live_bytes": home.model.live_bytes()}
    violations = workloads.gate(home, entries_before, sum(p.audited for p in phases))
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "gate_violations": violations,
        "failures": [f for p in phases for f in p.failures],
        "setup_times_s": setup_times,
        "space": space,
    }
    if trace:
        untraced, traced = phases
        overhead = common.median(traced.samples["download"]) / common.median(
            untraced.samples["download"]) - 1.0
        record["tracing_overhead_pct"] = overhead * 100.0
        record["metrics"] = layers.per_layer(traced, overhead, home)
    else:
        metrics, tails = end_to_end(workload, phases[0], setup_times, space)
        record["metrics"] = metrics
        record["tails"] = tails
        record["extra"] = phases[0].extra
    record["correct"] = not violations and failed == 0
    return record


def _workload(name: str, toy: bool):
    from perfbench import common
    from perfbench.clicold import CliCold
    from perfbench.httpmixed import HttpMixed
    from perfbench.workloads import WriteHeavy

    classes = {cls.name: cls for cls in (WriteHeavy, HttpMixed, CliCold)}
    if name not in classes:
        raise common.BenchError(f"unknown workload {name!r}; choose from {sorted(classes)}")
    return classes[name](toy=toy)


def provenance(work: str) -> dict:
    import cryptography

    from perfbench import common

    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "bench_home_fs": common.fs_type(work),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny corpus, for the benchmark's self-test")
    args = parser.parse_args(argv)

    sys.path.insert(0, ROOT)
    from perfbench import common

    try:
        common.use_source_tree()
        workload = _workload(args.workload, toy=args.toy)
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
        try:
            record = measure(workload, args.seed, args.seconds, bool(args.trace), work)
            record["provenance"] = provenance(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    from perfbench import layers

    units = layers.names_and_units() if args.trace else END_TO_END_UNITS
    metrics = {}
    for name, value in record["metrics"].items():
        unit = units[name]
        metrics[name] = {"value": _finite(float(value)), "unit": unit}
        print(f"{name:40s} {value:14.4f} {unit}", file=sys.stderr)
    for line in record["gate_violations"] + record["failures"]:
        print(f"GATE: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
