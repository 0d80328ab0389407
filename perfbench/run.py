"""DHF benchmark: three workloads against the public API, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synth-table2 --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after the other, each in
its own process.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs the same workload untraced, then again with span
wrappers around every layer's public functions (``perfbench/tracer.py``)
for the same operations, and reports the per-layer metrics, the
attribution of the untraced busy time to layer self times, and the
tracing overhead on every end-to-end metric.  Metric names and units are
the ones ``BENCHMARK.json`` declares; ``perfbench/METRICS.md`` explains
them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
before it is a human-readable log; the full result (with the
environment, per-source SDR and exact counts) and, when traced, the
spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def load_program() -> None:
    """Import the package from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
                 f"not from {src}")


def source_digest(*dirs: str) -> str:
    """SHA-256 over the ``.py`` files under ``dirs`` (default ``src``)."""
    h = hashlib.sha256()
    for top in dirs or ("src",):
        for path in sorted((ROOT / top).rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def ledger_key(meta: Dict[str, object]) -> str:
    """Names one program, benchmark and numeric environment: exact counts
    are only compared between runs that share all three (a numpy or BLAS
    change can move the digits of the estimates, and so the wire bytes)."""
    h = hashlib.sha256(source_digest("src", "perfbench").encode())
    h.update(json.dumps([meta["numpy"], meta["blas"]], sort_keys=True).encode())
    return h.hexdigest()[:16]


def environment(seed: int) -> Dict[str, object]:
    """What makes later ledger rows comparable."""
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_sha = out.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_sha": git_sha,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def end_to_end(phase, setup_s: float) -> Dict[str, float]:
    from analysis import percentile

    latency_ms = [op.latency_s * 1e3 for op in phase.ops if op.ok]
    attempted, failed = tally(phase)
    return {
        "setup_s": setup_s,
        "records_per_s": phase.records / phase.wall_s,
        "op_latency_ms.p50": percentile(latency_ms, 50),
        "op_latency_ms.p95": percentile(latency_ms, 95),
        "sdr_linear": phase.sdr_linear,
        "success_ratio": (attempted - failed) / attempted,
    }


def tally(phase) -> tuple:
    ops = phase.ops + phase.checks
    return len(ops), sum(not op.ok for op in ops)


def log_phase(label: str, phase, metrics: Dict[str, float],
              units: Dict[str, str]) -> None:
    from analysis import percentile

    attempted, failed = tally(phase)
    print(f"[{label}] attempted {attempted}, succeeded {attempted - failed}, "
          f"failed {failed}")
    print(f"[{label}] failed_ratio = {failed / attempted:.6g} 1")
    for name, value in metrics.items():
        print(f"[{label}] {name} = {value:.6g} {units[name]}")
    for source, sdr in phase.sdr_by_source.items():
        print(f"[{label}] sdr {source} = {sdr:.4f} dB")
    print(f"[{label}] sdr average (paper rule) = "
          f"{10 * math.log10(phase.sdr_linear):.4f} dB")
    if phase.spo2_corr is not None:
        print(f"[{label}] spo2_corr (mean over subjects) = "
              f"{phase.spo2_corr:.4f} 1")
    lateness = [op.lateness_s * 1e3 for op in phase.ops]
    if any(lateness):
        print(f"[{label}] generator lateness ms p50 "
              f"{percentile(lateness, 50):.3f} p99 {percentile(lateness, 99):.3f}")
    for op in phase.ops + phase.checks:
        if not op.ok:
            print(f"[{label}] FAILED {op.key}: {op.error}")


def check_tracing(untraced, traced, tree, ledger: Path) -> List[str]:
    """Tracing must not change outputs; exact counts must repeat."""
    import analysis

    problems = []
    reference = {}
    for op in untraced.ops + untraced.checks:
        reference.setdefault(op.key, op.digest)
    for op in traced.ops + traced.checks:
        if op.ok and reference.get(op.key) != op.digest:
            problems.append(f"{op.key}: traced output differs from untraced")
    seen = json.loads(ledger.read_text()) if ledger.exists() else {}
    this_run: Dict[str, dict] = {}
    for request, exact in analysis.exact_counts(tree):
        first = this_run.setdefault(request, exact)
        if first != exact:
            problems.append(f"{request}: counts {exact} != {first} in this run")
        if request in seen and seen[request] != exact:
            problems.append(
                f"{request}: counts {exact} != {seen[request]} in an earlier "
                f"run with this seed"
            )
    ledger.write_text(json.dumps({**seen, **this_run}, sort_keys=True))
    return problems


def traced_metrics(workload, inputs, args, meta, untraced, e2e_untraced,
                   units):
    """Per-layer metrics from a traced re-run of the same operations."""
    import analysis
    import tracer as tracing
    from workloads import Op

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        setups = workload.setup(ROOT, True, inputs)
        traced = workload.run(inputs, args.seconds, tracer=tracer,
                              n_ops=len(untraced.ops))
        setup_s = statistics.median(
            setups + workload.setup_again(ROOT, True, inputs)
        )
    finally:
        tracer.restore()
    spans = tracer.finalize() + traced.spans
    tree = analysis.SpanTree(spans)
    n_units = workload.units(traced)
    metrics = analysis.layer_metrics(tree, n_units)

    busy_untraced = sum(op.latency_s - op.lateness_s for op in untraced.ops)
    attributed = analysis.attributed_s(tree)
    metrics["trace.attributed_s"] = attributed / n_units
    metrics["trace.unattributed_s"] = (busy_untraced - attributed) / n_units
    gateway_ms = (metrics["gateway.transport_ms.p50"]
                  + metrics["gateway.session.push_ms.p50"])
    metrics["trace.unattributed_ms.p50"] = (
        e2e_untraced["op_latency_ms.p50"] - gateway_ms if gateway_ms else 0.0
    )
    metrics["bench.lateness_ms.p99"] = analysis.percentile(
        (op.lateness_s * 1e3 for op in traced.ops), 99
    )
    e2e_traced = end_to_end(traced, setup_s)
    for name, value in e2e_traced.items():
        metrics[f"trace.overhead.{name}"] = value - e2e_untraced[name]
    log_phase("traced", traced, e2e_traced, units)

    (OUT / f"spans-{workload.name}-seed{args.seed}.json").write_text(
        json.dumps(spans)
    )
    ledger = OUT / (f"counts-{workload.name}-seed{args.seed}-"
                    f"{ledger_key(meta)}.json")
    problems = check_tracing(untraced, traced, tree, ledger)
    traced.checks.append(Op("tracing", 0.0, not problems,
                            error="; ".join(problems)))
    for problem in problems:
        print(f"[traced] FAILED {problem}")
    return metrics, traced


def run_all(names: List[str], args) -> int:
    """Every workload, each in its own process; the last line sums their
    results, metric names prefixed by the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        *log, last = out.stdout.strip().splitlines()
        print("\n".join(f"{name} {line}" for line in log), flush=True)
        result = json.loads(last)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(names, args)

    load_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    meta = environment(args.seed)
    print("perfbench environment " + json.dumps(meta, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.make_inputs(args.seed, args.seconds)
    try:
        setups = workload.setup(ROOT, False, inputs)
        untraced = workload.run(inputs, args.seconds)
        setups += workload.setup_again(ROOT, False, inputs)
        setup_s = statistics.median(setups)
        e2e = end_to_end(untraced, setup_s)
        e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        log_phase("untraced", untraced, e2e, e2e_units)
        phases = [untraced]
        metrics = e2e
        declared = spec["end_to_end"]
        if args.trace:
            metrics, traced = traced_metrics(workload, inputs, args, meta,
                                             untraced, e2e, e2e_units)
            phases.append(traced)
            declared = spec["per_layer"]
    finally:
        workload.close()

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 f"disagree with BENCHMARK.json")
    attempted = sum(tally(p)[0] for p in phases)
    failed = sum(tally(p)[1] for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "environment": meta, **result,
        "sdr_by_source": untraced.sdr_by_source,
        "spo2_corr": untraced.spo2_corr,
        "end_to_end_untraced": e2e,
        "setup_samples_s": setups,
        "ops_untraced": [
            [op.key, op.latency_s * 1e3, op.lateness_s * 1e3, op.ok]
            for op in untraced.ops
        ],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
