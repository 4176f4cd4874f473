"""geogate benchmark: one run of one workload.

    python3 geobench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Set-up is timed in fresh interpreters:
``PROBES`` processes that only import geogate and write the seeded inputs,
then the worker process (``worker.py``) that also runs the workload. The
median of their set-up times is ``setup_s``. The last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Everything the run writes goes under ``geobench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PROBES = 2            # set-up-only processes per run, besides the worker's own set-up
PROBE_TIMEOUT = 30    # s
RUN_LIMIT = 175       # s; the whole run, probes included, stays under this


def spawn(args, timeout):
    """Run a worker process; return (perf_counter at spawn, its parsed last line)."""
    env = dict(os.environ)
    env.pop("GG_THREADS", None)   # the scan worker count comes from the config
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                          text=True, env=env, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "geogate", "cli.py")):
        print("geobench: no geogate sources under src/ of this checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    run_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        for i in range(PROBES):
            t0, probe = spawn(common + ["--seconds", "0", "--probe",
                                        "--run-dir", os.path.join(run_dir, f"probe{i}")],
                              PROBE_TIMEOUT)
            setups.append(probe["ready"] - t0)
        remaining = RUN_LIMIT - (time.perf_counter() - start)
        t0, result = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                     "--run-dir", run_dir], remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"geobench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(result["ready"] - t0)
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
