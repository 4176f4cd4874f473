"""The tracer wraps and restores every name, changes no artifact, and sees pool workers."""

import filecmp
import json
import os
import sys

import pytest

import tracer as tracing
import worker
from workloads import Op

def geogate_bindings():
    import geogate.cli  # noqa: F401  (loads every geogate module)

    return {(name, key): value for name, module in sys.modules.items()
            if name == "geogate" or name.startswith("geogate.")
            for key, value in vars(module).items() if callable(value)}


def test_install_wraps_every_binding_and_uninstall_restores_them(tmp_path):
    import geogate
    import geogate.dynamics
    import geogate.fidelity

    before = geogate_bindings()
    t = tracing.Tracer(str(tmp_path))
    t.install()
    try:
        # bound by "from .dynamics import ..." and reached through sys.modules
        wrapped = geogate.fidelity.evolve_lindblad
        assert wrapped is not before[("geogate.fidelity", "evolve_lindblad")]
        assert wrapped is geogate.dynamics.evolve_lindblad
        assert geogate.optimize is sys.modules["geogate.optimize"].optimize
        assert geogate.optimize is not before[("geogate", "optimize")]
        for module, attr in tracing.TARGETS:
            assert vars(sys.modules[module])[attr] is not before[(module, attr)]
    finally:
        t.uninstall()
    after = geogate_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def small_ops():
    scan = {"gate": "pi8", "n_theta": 11, "dt_ns": 0.05, "gamma_khz": 3.0, "kappa_khz": 3.0,
            "scan": {"axes": ["epsilon"], "points": 5}, "workers": 2}
    return [Op("synth", "synth", {"gate": "hadamard", "drag": True}, None),
            Op("scan", "scan", scan, None)]


def run(ops, tmp_path, label, t=None):
    for op in ops:
        path = tmp_path / f"{op.name}.json"
        path.write_text(json.dumps(op.config))
        _, _, error = worker.run_op(op, str(path), str(tmp_path / label / op.name), t)
        assert error is None


def test_traced_run_writes_the_same_artifacts_and_records_pool_spans(tmp_path):
    ops = small_ops()
    run(ops, tmp_path, "plain")
    t = tracing.Tracer(str(tmp_path))
    t.install()
    try:
        run(ops, tmp_path, "traced", t)
    finally:
        t.uninstall()
    for op in ops:
        names = os.listdir(tmp_path / "plain" / op.name)
        _, mismatch, errors = filecmp.cmpfiles(tmp_path / "plain" / op.name,
                                               tmp_path / "traced" / op.name, names,
                                               shallow=False)
        assert mismatch == errors == []
    spans = t.take()
    pids = {s["id"][0] for s in spans}
    # the parent, and a pool of two forked workers for each of the three variants
    assert len(pids) == 1 + 2 * 3
    assert not [p for p in os.listdir(tmp_path) if p.startswith("spans-")]
    m = tracing.layer_metrics(spans)
    assert m["dynamics.lindblad_d2.matrix_steps"] > 0
    assert m["dynamics.grid_d2.self_s"] > 0
    assert m["paths.hadamard_alpha_of_beta.self_s"] > 0
    assert m["pulses.drag_correct.self_s"] > 0
    assert m["fidelity.robustness_scan.points_per_s"] > 0
    assert m["csv.write_csv.bytes"] > 0
    scan = [s for s in spans if s["name"] == "fidelity.robustness_scan"][0]
    assert scan["points"] == 5 * 3
    steps = sum(s["steps"] * s["matrices"] for s in spans if s["name"] == "dynamics.lindblad_d2")
    assert steps == m["dynamics.lindblad_d2.matrix_steps"]


def test_self_time_excludes_children_once():
    spans = [
        {"id": [1, 1], "parent": None, "name": "a", "t0": 0.0, "t1": 10.0},
        {"id": [1, 2], "parent": [1, 1], "name": "b", "t0": 1.0, "t1": 4.0},
        # two workers overlapping in time count once
        {"id": [2, 1], "parent": [1, 1], "name": "b", "t0": 5.0, "t1": 8.0},
        {"id": [3, 1], "parent": [1, 1], "name": "b", "t0": 6.0, "t1": 9.0},
    ]
    agg = tracing.aggregate(spans)
    assert agg["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert agg["b"]["calls"] == 3
