"""One workload in a fresh interpreter: set up, measure, check, summarise.

Started by ``run.py``.  Prints ``READY`` once reciprange is imported and every
layer the workload uses has been called once; a probe (``--probe``) exits
there.  Otherwise it runs whole rounds of the workload's operations until the
time spent inside operations reaches ``--seconds``, checks the outputs, and
prints one JSON summary line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("bipoly", "cli", "concentric6", "conics", "ellipses", "errors", "geometry",
           "jsonio", "kippenhahn", "matrices", "numberfield", "ranges", "svgplot")
#: tail percentiles to choose from: the highest with at least ten samples beyond it.
#: Each rung covers a decade or more of operation counts (p75 from 40 to 199
#: operations, p95 to 999, ...), so run-to-run changes in the count do not
#: switch the percentile a workload reports.
TAIL_LADDER = (75.0, 95.0, 99.0, 99.9, 99.99)


def import_package():
    """reciprange from this checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("reciprange")
        mods = {m: importlib.import_module(f"reciprange.{m}") for m in MODULES}
    except ImportError as e:
        raise SystemExit(f"error: cannot import reciprange from {SRC}: {e}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: reciprange resolved to {pkg.__file__}, outside {SRC}")
    return SimpleNamespace(**mods)


def tail(sorted_ms):
    """(percentile, value, samples beyond it) by nearest rank, or None below 40 samples."""
    n = len(sorted_ms)
    best = None
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            best = (q, sorted_ms[rank - 1], n - rank)
    return best


def measure(wl, ops, seconds, tracer):
    """Whole rounds until the time inside operations reaches ``seconds``."""
    m = {"times": [], "by_label": {op.label: [] for op in ops}, "failed_first": [False] * len(ops),
         "failed_labels": set(), "attempted": 0, "failed": 0, "rounds": 0, "measured_ns": 0}
    budget = seconds * 1_000_000_000
    while m["rounds"] == 0 or m["measured_ns"] < budget:
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op()
            t0 = perf_counter_ns()
            try:
                bad, out = wl.run(op)
            except Exception as e:  # an operation that raises counts as failed
                bad, out = True, repr(e)
                if op.label not in m["failed_labels"]:
                    traceback.print_exc()
            t1 = perf_counter_ns()
            if tracer:
                tracer.end_op()
            m["attempted"] += 1
            m["measured_ns"] += t1 - t0
            if bad:
                m["failed"] += 1
                m["failed_labels"].add(op.label)
                if m["rounds"] == 0:
                    m["failed_first"][i] = True
            else:
                m["times"].append(t1 - t0)
                m["by_label"][op.label].append(t1 - t0)
            wl.observe(i, op, out)
        m["rounds"] += 1
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set up")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    R = import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    tmpdir = Path(args.outdir) / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](R, args.seed, str(tmpdir))
        wl.warm()
        print("READY", flush=True)
        if args.probe:
            return 0
        ops = wl.round()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(keep_spans_for=len(ops))
            tracer.install()
        m = measure(wl, ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if m["rounds"] < 2 and wl.compare_rounds:
            # one round only: run it again so every output is still compared once
            for i, op in enumerate(ops):
                if not m["failed_first"][i]:
                    wl.observe(i, op, wl.run(op)[1])
        t_check = perf_counter_ns()
        wl.check(ops, m["failed_first"])
        check_s = (perf_counter_ns() - t_check) / 1e9
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    ms = sorted(t / 1e6 for t in m["times"])
    tl = tail(ms)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failed_operations": sorted(m["failed_labels"]),
        "completed": len(ms),
        "rounds": m["rounds"],
        "round_size": len(ops),
        "measured_s": m["measured_ns"] / 1e9,
        "ops_per_s": len(ms) / (m["measured_ns"] / 1e9),
        "op_p50_ms": statistics.median(ms) if ms else None,
        "op_tail": None if tl is None else {"percentile": tl[0], "ms": tl[1], "beyond": tl[2],
                                            "samples": len(ms)},
        "peak_rss_mb": peak_rss_mb,
        "correct": not wl.problems,
        "problems": wl.problems[:20],
        "extras": wl.extras,
        "check_s": check_s,
        "op_ms_by_label": {k: statistics.median(v) / 1e6 for k, v in m["by_label"].items() if v},
    }
    if tracer:
        summary["layers"] = tracer.layer_metrics()
        with open(Path(args.outdir) / f"trace-{args.workload}-s{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
