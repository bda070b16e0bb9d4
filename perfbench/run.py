"""Run one loadcast benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
A fuller record, with an environment block (and the spans, when traced),
is written under `perfbench/out/`.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads: the matrices are at most
# 32 x 1536, and a single thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("train-anlf", "train-edbilstm", "forecast-anlf", "verify")
SETUP_REPEATS = 5
# Kernel time, in seconds, on the machine the bounds were set on (2-core
# shared VM, OpenBLAS).  `setup_s` is scaled to it, as set-up is too short
# for a ratio of means to average over the machine's fast and slow phases
# any other way.
KERNEL_REFERENCE_S = 0.020


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    blas["threads"] = BLAS_THREADS
    source = ROOT / "src" / "loadcast"
    return {"commit": commit,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "source_lines": {path.name: len(path.read_text().splitlines())
                             for path in sorted(source.glob("*.py"))}}


def end_to_end(setup_s, ops, measured_s):
    kernel = float(np.mean(ops.kernel_times))
    busy = measured_s - sum(ops.kernel_times)
    return {"setup_s": (setup_s, "s"),
            "run_cost_per_op": (busy / kernel / ops.attempted, "kernels"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}


def per_layer(tracer, phases, notes, ops):
    table, forwards, taped, checked = tracer.summary()

    def row(name, field):
        return table.get(name, {}).get(field, 0)

    def per(value, count):
        return value / count if count else 0.0

    def window(name, field="inclusive"):
        return per(row(name, field), forwards)

    def per_call(name):
        return per(row(name, "inclusive"), row(name, "calls"))

    attention = ("attention.feature", "attention.temporal", "attention.context",
                 "attention.similar_day")
    norms = tracer.grad_norms
    epochs = row("training.eval", "calls") / 2
    metrics = {name: (phases.get(name, 0.0), unit) for name, unit in (
        ("data.generate_s", "s"), ("data.ingest_s", "s"), ("data.features_s", "s"),
        ("data.windows_s", "s"), ("checkpoint.load_s", "s"), ("checkpoint.bytes", "bytes"))}
    metrics.update({
        "params.bind_s": (window("params.bind"), "s"),
        "params.zero_grad_share": (tracer.zero_grad_share(), "ratio"),
        "model.encode_s": (window("model.encode"), "s"),
        "model.decode_s": (window("model.decode"), "s"),
        "model.self_s": (per(row("model.encode", "self") + row("model.decode", "self"),
                             forwards), "s"),
        "lstm.cell_s": (window("lstm.cell"), "s"),
        "lstm.cell_calls": (window("lstm.cell", "calls"), "count"),
        "lstm.cell_nodes": (per(row("lstm.cell", "nodes"), taped), "count"),
        "lstm.sequence_s": (window("lstm.sequence", "self"), "s"),
        "lstm.head_s": (window("lstm.head"), "s"),
        "attention.feature_s": (window("attention.feature"), "s"),
        "attention.feature_nodes": (per(row("attention.feature", "nodes"), taped), "count"),
        "attention.temporal_s": (window("attention.temporal"), "s"),
        "attention.context_s": (window("attention.context"), "s"),
        "attention.similar_day_s": (window("attention.similar_day"), "s"),
        "attention.nodes": (per(sum(row(n, "nodes") for n in attention), taped), "count"),
        "tensor.backward_s": (per_call("tensor.backward"), "s"),
        "tensor.nodes_per_window": (percentile(tracer.backward_lengths, 50), "count"),
        "training.batch_gradients_s": (per_call("training.batch_gradients"), "s"),
        "training.adam_s": (per_call("training.adam"), "s"),
        "training.clip_s": (per_call("training.clip"), "s"),
        "training.eval_s": (per(row("training.eval", "inclusive"), epochs), "s"),
        "training.epoch_s": (percentile(notes.get("epoch_s", []), 50), "s"),
        "training.grad_norm_p50": (percentile(norms, 50), "norm"),
        "training.clip_share": (per(sum(n > tracer.clip_norm for n in norms), len(norms)),
                                "ratio"),
        "training.val_mse_ratio": (notes.get("val_mse_ratio", 0.0), "ratio"),
        "training.test_mape_pct": (notes.get("test_mape_pct", 0.0), "%"),
        "metrics.compute_s": (row("metrics.compute", "inclusive"), "s"),
        "verify.model_gradients_s": (row("verify.model_gradients", "inclusive"), "s"),
        "verify.oracle_s": (row("verify.oracle", "inclusive"), "s"),
        "verify.forward_passes": (checked, "count"),
        "gc.pause_s": (tracer.gc_pause, "s"),
        "gc.collections": (tracer.gc_collections, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.op_ms_p50": (percentile([s * 1000.0 for s in ops.latencies], 50), "ms"),
    })
    return metrics


def run(args):
    import tracing
    import workloads
    from loadcast import lstm, model, tensor, training, verify

    imports_s = time.perf_counter() - STARTED
    workload = workloads.WORKLOADS[args.workload]()
    label = f"{args.workload}-seed{args.seed}"
    work_dir = OUT / label
    OUT.mkdir(parents=True, exist_ok=True)

    phases = workload.prepare(args.seed, work_dir)
    kernel = tracing.Kernel()
    setups, setup_kernel = [], []
    for _ in range(SETUP_REPEATS):
        setup_kernel.append(kernel.time())
        started = time.perf_counter()
        state, setup_phases = workload.setup(args.seed, work_dir)
        setups.append((time.perf_counter() - started, setup_phases))
    raw_setup_s = imports_s + statistics.median(total for total, _ in setups)
    setup_s = raw_setup_s * KERNEL_REFERENCE_S / statistics.mean(setup_kernel)
    for name in setups[0][1]:
        phases[name] = statistics.median(p[name] for _, p in setups)

    tracer = tracing.Tracer() if args.trace else None
    ops = tracing.Ops(tracer, kernel=None if tracer else kernel)
    patches = tracing.Patches()
    try:
        if tracer is not None:
            tracer.install({"lstm": lstm, "model": model, "tensor": tensor,
                            "training": training, "verify": verify})
        else:
            for module, name in ((model, "forward"), (training, "forward"),
                                 (verify, "forward"), (lstm, "lstm_cell_step")):
                patches.replace(module, name, lambda fn: tracing.sampled(fn, ops))
        ops.sample()
        started = time.perf_counter()
        check = workload.measure(state, args.seed, args.seconds, ops, patches)
        measured_s = time.perf_counter() - started
    finally:
        patches.restore()
        if tracer is not None:
            tracer.restore()
    correct, notes = check()

    if tracer is None:
        metrics = end_to_end(setup_s, ops, measured_s)
    else:
        metrics = per_layer(tracer, phases, notes, ops)
    result = {"correct": bool(correct) and ops.failed == 0,
              "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    latencies_ms = [s * 1000.0 for s in ops.latencies]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "imports_s": imports_s, "raw_setup_s": raw_setup_s,
              "setup_kernel_ms": [k * 1000.0 for k in setup_kernel],
              "measured_s": measured_s, "phases": phases,
              "op_ms": {"p50": percentile(latencies_ms, 50), "p90": percentile(latencies_ms, 90),
                        "samples": len(latencies_ms)},
              "latencies_ms": latencies_ms,
              "kernel_ms": [s * 1000.0 for s in ops.kernel_times],
              "ops_per_s": ops.attempted / measured_s, "notes": notes, "result": result}
    if tracer is not None:
        untraced = OUT / f"{label}-trace0.json"
        if untraced.exists():
            base = percentile(json.loads(untraced.read_text())["latencies_ms"], 50)
            record["trace_overhead_ms_p50"] = metrics["trace.op_ms_p50"][0] - base
        (OUT / f"{label}-spans.json").write_text(json.dumps(tracer.dump()))
    (OUT / f"{label}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "loadcast" / "__init__.py").is_file():
        print(f"error: no loadcast source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
