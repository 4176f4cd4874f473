"""BENCHMARK.json matches the code, and a run without geogate sources fails cleanly."""

import json
import os
import shutil
import subprocess
import sys

import tracer as tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert layer == [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS] + [
        ("trace.overhead_s", "s", "lower"), ("run.cpu_s", "s", "lower")]


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "geobench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "geobench/run.py", "--workload", "design",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
