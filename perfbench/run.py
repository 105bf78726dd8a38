"""Benchmark of reciprange: census, curves, ranges and verify workloads.

    python3 perfbench/run.py --workload ranges --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run starts fresh worker interpreters from ``src/`` of this checkout:
eight set-up probes and one measuring worker.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  ``--workload all`` runs every workload untraced and
traced and prints a table with the tracing overhead.  Run records and traces
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("census", "curves", "ranges", "verify")
SETUP_PROBES = 8  # fresh interpreters that only set up; the measuring worker adds a ninth sample
DEADLINE_S = 170  # a run ends within 180 s, or fails

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    # one BLAS thread (at most nproc); fixed str hashing for steadier layouts;
    # no bytecode writes, so every set-up sample compiles the same sources and
    # nothing is written under src/
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def start_worker(args, deadline):
    """Start a worker and wait for READY; returns (process, seconds from spawn to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=child_env(), cwd=str(ROOT))
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not get ready (exit {proc.poll()}): {line.strip()!r}")
        return proc, ready, killer
    except BaseException:
        killer.cancel()
        proc.kill()
        proc.wait()
        raise


def finish_worker(proc, killer):
    """Wait for a started worker; returns what it printed after READY."""
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return out


def run_workload(workload, seed, seconds, trace, deadline):
    """The measuring worker between two halves of the set-up probes, so the
    set-up samples span the run; returns the worker's summary plus setup_s."""
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--outdir", str(OUT)]
    setup = []

    def probes(count):
        for _ in range(count):
            proc, ready, killer = start_worker(base + ["--probe"], deadline)
            finish_worker(proc, killer)
            setup.append(ready)

    probes(SETUP_PROBES // 2)
    proc, ready, killer = start_worker(
        base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    lines = finish_worker(proc, killer).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no summary")
    summary = json.loads(lines[-1])
    setup.append(ready)
    probes(SETUP_PROBES - SETUP_PROBES // 2)
    summary["setup_samples_s"] = setup
    summary["setup_s"] = statistics.median(setup)
    with open(OUT / f"run-{workload}-s{seed}-t{trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def result_line(summary):
    if summary["trace"]:
        metrics = summary["layers"]
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def describe(summary):
    """Human-readable lines: the tail, the range error, failures and problems."""
    lines = [f"workload {summary['workload']} seed {summary['seed']} trace {summary['trace']}: "
             f"{summary['rounds']} rounds of {summary['round_size']} operations, "
             f"{summary['measured_s']:.2f} s measured"]
    t = summary["op_tail"]
    if t is None:
        lines.append(f"op_tail_ms: not reported ({summary['completed']} operations, fewer than 40)")
    else:
        lines.append(f"op_tail_ms = {t['ms']:.6g} ms (p{t['percentile']:g} of {t['samples']} "
                     f"operations, {t['beyond']} beyond)")
    if "region_err_max" in summary["extras"]:
        lines.append(f"region_err_max = {summary['extras']['region_err_max']:.6g} plane units")
    if summary["failed"]:
        lines.append(f"failed operations ({summary['failed']} of {summary['attempted']}): "
                     + "; ".join(summary["failed_operations"]))
    for p in summary["problems"]:
        lines.append(f"CHECK FAILED: {p}")
    return lines


def run_all(seed, seconds):
    rows, overhead, correct = [], {}, True
    for name in WORKLOAD_NAMES:
        plain = run_workload(name, seed, seconds, 0, time.monotonic() + DEADLINE_S)
        traced = run_workload(name, seed, seconds, 1, time.monotonic() + DEADLINE_S)
        correct = correct and plain["correct"] and traced["correct"]
        for line in describe(plain):
            print(line)
        for metric, unit in END_TO_END:
            rows.append(f"{name:8s} {metric:14s} {plain[metric]:12.6g} {unit}")
        if plain["op_tail"]:
            rows.append(f"{name:8s} {'op_tail_ms':14s} {plain['op_tail']['ms']:12.6g} ms "
                        f"(p{plain['op_tail']['percentile']:g})")
        if "region_err_max" in plain["extras"]:
            rows.append(f"{name:8s} {'region_err_max':14s} {plain['extras']['region_err_max']:12.6g} plane")
        rows.append(f"{name:8s} {'attempted':14s} {plain['attempted']:12d}")
        rows.append(f"{name:8s} {'failed':14s} {plain['failed']:12d}")
        overhead[name] = {
            "ops_per_s": plain["ops_per_s"], "traced_ops_per_s": traced["ops_per_s"],
            "op_p50_ms": plain["op_p50_ms"], "traced_op_p50_ms": traced["op_p50_ms"],
            "overhead_p50": traced["op_p50_ms"] / plain["op_p50_ms"] - 1,
        }
        rows.append(f"{name:8s} {'trace overhead':14s} {overhead[name]['overhead_p50']:12.2%} of op_p50_ms")
        for metric, m in traced["layers"].items():
            if m["value"]:
                rows.append(f"{name:8s}   {metric:44s} {m['value']:12.6g} {m['unit']}")
    print("\n".join(rows))
    print(json.dumps({"correct": correct, "overhead": overhead}))
    return correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "reciprange" / "__init__.py").is_file():
        print(f"error: no reciprange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds) else 1
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace,
                               time.monotonic() + DEADLINE_S)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in describe(summary):
        print(line)
    print(json.dumps(result_line(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
