"""One run of one workload, in one process.

Imports geogate from ``src/`` of the checkout, writes the seeded configs,
then repeats whole rounds of the workload's operations through
``geogate.cli.main(argv)`` until ``--seconds`` have passed. The first
round warms caches and writes the reference artifacts; every later round
must write byte-identical CSV and manifest files. Each operation is
checked after it returns, outside its timing.

Prints one JSON line: the perf_counter time at which set-up ended
(``ready``), the operation counts and the metrics. With ``--probe`` it
stops after set-up and prints only that time.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import geogate.cli  # noqa: E402  (set-up cost is part of what the run measures)
import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_MEASURED = 3   # rounds after the first, whatever --seconds says
MAX_FAILURES_SHOWN = 5
# seconds the calibration loop takes on a quiet core of the reference host
# (2-vCPU VM, Python 3.11.7, numpy 2.4.6); wall_s is scaled to that speed
CALIBRATION_REF_S = 0.05
CALIBRATION_SHARE = 0.2   # calibration time kept at this share of operation time


def calibration_loop():
    """Seconds for a fixed loop that uses numpy the way geogate does, but not geogate.

    Small batched matrix products in an RK4 step loop, then vectorized
    elementwise work on a 4001-point grid. The host's speed drifts by tens
    of percent from one minute to the next (the same CLI call has taken
    0.87 s and 1.73 s of CPU time); timing this loop between operations,
    for a fifth of their time, measures that speed, and each round's
    operation time is scaled by it.
    """
    t0 = time.perf_counter()
    H = np.array([[0.1, 0.2j, 0.0], [-0.2j, 0.3, 0.1], [0.0, 0.1, -1.4]])
    L = np.zeros((3, 3), dtype=complex)
    L[0, 1] = 1.0
    A = L.conj().T @ L
    rho = np.broadcast_to(np.eye(3, dtype=complex), (4, 3, 3)).copy()
    h = 1e-3

    def rhs(r):
        return -1j * (H @ r - r @ H) + 0.01 * (L @ r @ L.conj().T) - 0.005 * (A @ r + r @ A)

    for _ in range(300):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    x = np.linspace(0.0, 1.0, 4001)
    for _ in range(60):
        a = np.arctan(0.3 * np.sin(np.pi * x))
        x = x + 1e-9 * np.sqrt(np.cos(a) ** 2 + (x * np.sin(a)) ** 2)
    return time.perf_counter() - t0


def setup(workload, seed, run_dir):
    """Generate and write the inputs; return (op, config path) pairs."""
    ops = workloads.build(workload, seed)
    inputs = os.path.join(run_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    plan = []
    for op in ops:
        path = os.path.join(inputs, f"{op.name}.json")
        with open(path, "w") as fh:
            json.dump(op.config, fh, indent=2, sort_keys=True)
        plan.append((op, path))
    return plan


def run_op(op, config_path, out_dir, tracer=None):
    """One CLI call; returns (seconds, stdout, error message or None)."""
    buf = io.StringIO()
    error = None
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = geogate.cli.main(op.argv(config_path, out_dir))
        if code != 0:
            error = f"exit code {code}"
    except Exception:  # an operation that raises is counted as failed, the run goes on
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return seconds, buf.getvalue(), error


def differing_artifacts(out_dir, ref_dir):
    """Names of files that differ from the first round's, or are missing or extra."""
    names = sorted({name for d in (out_dir, ref_dir) if os.path.isdir(d)
                    for name in os.listdir(d)})
    _, mismatch, errors = filecmp.cmpfiles(ref_dir, out_dir, names, shallow=False)
    return mismatch + errors


def run_rounds(plan, run_dir, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed; odd rounds are traced when tracing."""
    refs, rounds, failures = {}, [], []
    attempted = failed = 0
    unexpected = False
    start = time.perf_counter()
    op_total = calibration_total = 0.0
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        times, calibration, cpu = {}, [], 0.0
        for op, config_path in plan:
            out_dir = os.path.join(run_dir, f"round{k}", op.name)
            ref_dir = os.path.join(run_dir, "round0", op.name)
            cpu0 = tracing.cpu_seconds()
            times[op.name], stdout, error = run_op(op, config_path, out_dir,
                                                   tracer if traced else None)
            cpu += tracing.cpu_seconds() - cpu0
            op_total += times[op.name]
            while calibration_total < CALIBRATION_SHARE * op_total:
                calibration.append(calibration_loop())
                calibration_total += calibration[-1]
            if error is None:
                try:
                    problems = op.check(op, out_dir, stdout, refs)
                except Exception:  # unreadable or missing output fails the check
                    problems = [traceback.format_exc(limit=3)]
                if k > 0:
                    differ = differing_artifacts(out_dir, ref_dir)
                    if differ:
                        problems.append(f"artifacts differ from round 0: {differ}")
            else:
                problems = [error]
            attempted += 1
            if problems:
                failed += 1
                unexpected = unexpected or not op.known_fault
                if len(failures) < MAX_FAILURES_SHOWN:
                    failures.append(f"round {k} {op.name}: {'; '.join(problems)}")
        if not calibration:
            calibration.append(calibration_loop())
            calibration_total += calibration[-1]
        rounds.append({"times": times, "traced": traced, "calibration_s": calibration,
                       "cpu_s": cpu,
                       "spans": tracer.take() if traced else None})
        if k > 0:
            shutil.rmtree(os.path.join(run_dir, f"round{k}"))
        k += 1
        enough = (k - 1 >= MIN_MEASURED) if tracer is None else k >= 3
        if enough and time.perf_counter() - start >= seconds:
            break
    return rounds[1:], attempted, failed, unexpected, failures


def scaled_wall(r):
    """A round's operation time scaled to the reference host speed."""
    return sum(r["times"].values()) * CALIBRATION_REF_S / statistics.fmean(r["calibration_s"])


def end_to_end(rounds, plan):
    """wall_s: median over measured rounds of the round's scaled operation time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    width = max(op.config.get("workers", 1) for op, _ in plan)
    return {"wall_s": {"value": statistics.median(map(scaled_wall, rounds)), "unit": "s"},
            "peak_rss_mb": {"value": (own + width * kids) / 1024.0, "unit": "MB"}}


def per_layer(rounds):
    """Median over traced rounds of each layer metric, plus tracing overhead and CPU."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    layers = [tracing.layer_metrics(r["spans"]) for r in traced]
    metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
               for name, unit, _, _ in tracing.LAYER_METRICS}
    overhead = (statistics.median(map(scaled_wall, traced))
                - statistics.median(map(scaled_wall, plain)))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["run.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in plain), "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    plan = setup(args.workload, args.seed, args.run_dir)
    ready = time.perf_counter()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(os.path.join(args.run_dir, "spool"))
        os.makedirs(tracer.spool_dir, exist_ok=True)
        tracer.install()
    try:
        rounds, attempted, failed, unexpected, failures = run_rounds(
            plan, args.run_dir, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for line in failures:
        print(line, file=sys.stderr)
    with open(os.path.join(args.run_dir, "rounds.json"), "w") as fh:
        json.dump([{k: r[k] for k in ("times", "traced", "cpu_s", "calibration_s")}
                   for r in rounds], fh, indent=1)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, plan)
    print(json.dumps({"ready": ready, "correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
