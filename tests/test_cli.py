import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import geogate
from geogate.cli import KEYS, config_hash, load_config, main, read_config
from geogate.dynamics import evolve_lindblad

# the directory holding the imported package, so that subprocesses started
# in a temporary working directory import the same geogate
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(geogate.__file__)))


def subprocess_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(args, tmp_path):
    return subprocess.run([sys.executable, "-m", "geogate.cli", *args],
                          capture_output=True, text=True, cwd=tmp_path, env=subprocess_env())


# runs CLI commands in one fresh interpreter, then prints the scipy modules it loaded
LOADED_SCIPY = """
import json, sys
import geogate, geogate.cli
for argv in json.loads(sys.argv[1]):
    assert geogate.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_loaded_by(commands, tmp_path):
    r = subprocess.run([sys.executable, "-c", LOADED_SCIPY, json.dumps(commands)],
                       capture_output=True, text=True, cwd=tmp_path, env=subprocess_env())
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSynth:
    def test_pi8_duration_and_csv(self, tmp_path):
        r = run_cli(["synth", "--gate", "pi8", "--out", str(tmp_path)], tmp_path)
        assert r.returncode == 0
        tau = float([l for l in r.stdout.splitlines() if l.startswith("tau_ns=")][0][7:])
        assert abs(tau - 19.66) < 0.05
        lines = (tmp_path / "pulse_pi8.csv").read_text().splitlines()
        assert lines[0] == ("t_ns,delta_rad_per_ns,omega_s_rad_per_ns,phase_rad,"
                            "drag_re_rad_per_ns,drag_im_rad_per_ns")

    def test_coeffs_flag(self, tmp_path):
        r = run_cli(["synth", "--gate", "hadamard", "--coeffs", "0.095,0.022,-0.046",
                     "--out", str(tmp_path)], tmp_path)
        assert r.returncode == 0
        tau = float(r.stdout.splitlines()[0].split("=")[1])
        assert abs(tau - 20.0) < 0.1

    def test_negative_first_coefficient(self, tmp_path):
        # "-0.05,0.08" as its own argument, which argparse would read as an option
        for sub, coeffs in (("lone", ["--coeffs", "-0.05,0.08"]),
                            ("bound", ["--coeffs=-0.05,0.08"])):
            assert main(["synth", "--gate", "pi8", *coeffs, "--out", str(tmp_path / sub)]) == 0
        assert ((tmp_path / "lone" / "pulse_pi8.csv").read_bytes()
                == (tmp_path / "bound" / "pulse_pi8.csv").read_bytes())

    def test_budget_flag_halves_duration(self, tmp_path):
        r1 = run_cli(["synth", "--gate", "phase", "--out", str(tmp_path / "a")], tmp_path)
        r2 = run_cli(["synth", "--gate", "phase", "--omega0", "0.37699111843",
                      "--out", str(tmp_path / "b")], tmp_path)
        t1 = float(r1.stdout.splitlines()[0].split("=")[1])
        t2 = float(r2.stdout.splitlines()[0].split("=")[1])
        assert t2 == pytest.approx(t1 / 2, rel=1e-6)

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("x", "y"):
            r = run_cli(["synth", "--gate", "pi8", "--drag", "--out",
                         str(tmp_path / sub)], tmp_path)
            assert r.returncode == 0
        a = (tmp_path / "x" / "pulse_pi8.csv").read_bytes()
        b = (tmp_path / "y" / "pulse_pi8.csv").read_bytes()
        assert a == b
        ma = (tmp_path / "x" / "manifest.json").read_bytes()
        mb = (tmp_path / "y" / "manifest.json").read_bytes()
        assert ma == mb


class TestSimulate:
    def test_two_level_noiseless(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "gate": "pi8", "model": "two_level", "omega0_mhz": 30.0,
            "dt_ns": 0.005, "n_theta": 101, "out_dir": str(tmp_path / "out"),
        })
        r = run_cli(["simulate", "--config", cfg], tmp_path)
        assert r.returncode == 0
        fid = float(r.stdout.splitlines()[0].split("=")[1])
        assert fid >= 0.99999
        trace = (tmp_path / "out" / "trace_pi8_two_level.csv").read_text().splitlines()
        assert trace[0] == "t_ns,pop_0,pop_1,fidelity"
        first = [float(v) for v in trace[1].split(",")]
        assert first[-1] == pytest.approx(1.0, abs=1e-9)

    def test_three_level_drag(self, tmp_path):
        cfg = write_config(tmp_path, "sim3.json", {
            "gate": "hadamard", "model": "three_level", "omega0_mhz": 30.0,
            "gamma_khz": 3.0, "kappa_khz": 3.0, "anharmonicity_mhz": 220.0,
            "drag": True, "dt_ns": 0.005, "n_theta": 101,
            "out_dir": str(tmp_path / "out3"),
        })
        r = run_cli(["simulate", "--config", cfg], tmp_path)
        assert r.returncode == 0
        fid = float(r.stdout.splitlines()[0].split("=")[1])
        assert 0.994 < fid < 1.0


    def test_one_lindblad_integration(self, tmp_path, monkeypatch):
        # the printed F and the trace come from one evolution of |a><b|
        import geogate.fidelity as fid_mod
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return evolve_lindblad(*args, **kwargs)

        monkeypatch.setattr(fid_mod, "evolve_lindblad", spy)
        cfg = write_config(tmp_path, "once.json", {
            "gate": "pi8", "gamma_khz": 3.0, "kappa_khz": 3.0, "dt_ns": 0.05,
            "out_dir": str(tmp_path / "once"),
        })
        assert main(["simulate", "--config", cfg]) == 0
        assert len(calls) == 1
        assert (tmp_path / "once" / "trace_pi8_three_level.csv").is_file()

    @pytest.mark.parametrize("ket, error", [
        ([0, 0], "ValueError"), ([1.0], "ValueError"), ([1.0, 0.0, 0.5], "ValueError"),
        ([[1.0, 0.0]], "ConfigError"), ([True, False], "ConfigError"), ([1, "x"], "ConfigError"),
    ])
    def test_bad_initial_state_writes_nothing(self, tmp_path, capsys, ket, error):
        out = tmp_path / "bad_ket"
        cfg = write_config(tmp_path, "bad_ket.json", {
            "gate": "pi8", "dt_ns": 0.05, "initial_state": ket, "out_dir": str(out),
        })
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == error and "initial_state" in payload["message"]
        assert not out.exists()


class TestScan:
    def test_reruns_write_identical_csv(self, tmp_path):
        # "workers" is still accepted and has no effect
        csvs = []
        for run in ("s1", "s2"):
            cfg = write_config(tmp_path, f"{run}.json", {
                "gate": "pi8", "omega0_mhz": 30.0, "gamma_khz": 3.0, "kappa_khz": 3.0,
                "n_theta": 51, "dt_ns": 0.05, "workers": 2,
                "scan": {"axis": "epsilon", "points": 8, "variants": ["geometric"]},
                "out_dir": str(tmp_path / run),
            })
            r = run_cli(["scan", "--config", cfg], tmp_path)
            assert r.returncode == 0, r.stderr
            csvs.append((tmp_path / run / "scan_pi8_epsilon.csv").read_bytes())
        assert csvs[0] == csvs[1]
        header = csvs[0].decode().splitlines()[0]
        assert header == "epsilon_fraction,fidelity_geometric"

    def test_printed_value_nearest_zero(self, tmp_path, capsys):
        # with an even number of points no grid point sits at zero; the
        # summary names the nearest one and prints its CSV fidelity
        cfg = write_config(tmp_path, "scan_even.json", {
            "gate": "pi8", "n_theta": 51, "dt_ns": 0.05, "workers": 1,
            "scan": {"axis": "delta", "points": 8, "variants": ["geometric"]},
            "out_dir": str(tmp_path / "even"),
        })
        assert main(["scan", "--config", cfg]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("delta geometric:")][0]
        label, printed = line.split()[-1].split("=")
        point = float(label[2:-1])
        rows = [[float(v) for v in l.split(",")] for l in
                (tmp_path / "even" / "scan_pi8_delta.csv").read_text().splitlines()[1:]]
        nearest = min(rows, key=lambda r: abs(r[0]))
        assert point == pytest.approx(nearest[0], abs=1e-6)
        assert abs(nearest[0]) > 0.01
        assert float(printed) == pytest.approx(nearest[1], abs=5e-7)


class TestTwoQubit:
    def test_effective_model(self, tmp_path):
        cfg = write_config(tmp_path, "tq.json", {
            "dt_ns": 0.005,
            "two_qubit": {"model": "effective", "n_theta": 11},
            "out_dir": str(tmp_path / "tq"),
        })
        r = run_cli(["two-qubit", "--config", cfg], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = dict(l.split("=") for l in r.stdout.splitlines() if "=" in l)
        assert float(lines["fidelity"]) >= 0.9999
        assert abs(float(lines["tau_ns"]) - 43.5) < 0.5

    def test_effective_model_rejects_rates(self, tmp_path):
        cfg = write_config(tmp_path, "tqr.json", {
            "gamma_khz": 300.0, "kappa_khz": 300.0, "dt_ns": 0.005,
            "two_qubit": {"model": "effective"},
            "out_dir": str(tmp_path / "tqr"),
        })
        r = run_cli(["two-qubit", "--config", cfg], tmp_path)
        assert r.returncode == 1
        payload = json.loads(r.stderr[len("error: "):])
        assert payload["type"] == "ValueError"
        assert "closed-system" in payload["message"]

    def test_zero_phase_is_identity(self, tmp_path):
        cfg = write_config(tmp_path, "tq0.json", {
            "two_qubit": {"gamma_g_prime_over_pi": 0.0},
            "out_dir": str(tmp_path / "tq0"),
        })
        r = run_cli(["two-qubit", "--config", cfg], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "fidelity=1.000000" in r.stdout
        manifest = json.loads((tmp_path / "tq0" / "manifest.json").read_text())
        assert manifest["command"] == "two-qubit"
        assert manifest["outputs"] == []

    def test_zero_phase_effective_model_rejects_rates(self, tmp_path):
        cfg = write_config(tmp_path, "tq0r.json", {
            "gamma_khz": 300.0, "kappa_khz": 300.0,
            "two_qubit": {"model": "effective", "gamma_g_prime_over_pi": 0.0},
            "out_dir": str(tmp_path / "tq0r"),
        })
        r = run_cli(["two-qubit", "--config", cfg], tmp_path)
        assert r.returncode == 1
        payload = json.loads(r.stderr[len("error: "):])
        assert payload["type"] == "ValueError"
        assert "closed-system" in payload["message"]
        assert not (tmp_path / "tq0r").exists()

    def test_full_model_coarse(self, tmp_path):
        # coarse step keeps the smoke test quick; the benchmark-grade run
        # lives in the acceptance suite
        cfg = write_config(tmp_path, "tqf.json", {
            "gamma_khz": 3.0, "kappa_khz": 3.0, "dt_ns": 0.005,
            "grid_points": 2001,
            "two_qubit": {"model": "full", "n_theta": 11},
            "out_dir": str(tmp_path / "tqf"),
        })
        r = run_cli(["two-qubit", "--config", cfg], tmp_path)
        assert r.returncode == 0, r.stderr
        lines = dict(l.split("=") for l in r.stdout.splitlines() if "=" in l)
        assert 0.98 < float(lines["fidelity"]) < 1.0
        trace = (tmp_path / "tqf" / "trace_two_qubit_full.csv").read_text().splitlines()
        assert trace[0] == "t_ns,pop_11,pop_02,pop_20,pop_other"
        last = [float(v) for v in trace[-1].split(",")]
        assert last[1] > 0.98  # |11> population returns


class TestOptimize:
    def test_seeded_determinism(self, tmp_path):
        payload = {
            "gate": "pi8", "omega0_mhz": 30.0, "grid_points": 1001,
            "optimize": {"starts": 2, "evals_per_start": 50},
        }
        outs = []
        for sub in ("o1", "o2"):
            payload["out_dir"] = str(tmp_path / sub)
            cfg = write_config(tmp_path, f"opt_{sub}.json", payload)
            r = run_cli(["optimize", "--config", cfg, "--seed", "11"], tmp_path)
            assert r.returncode == 0, r.stderr
            outs.append((tmp_path / sub / "optimize_pi8.csv").read_text())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "gate,a1,a2,a3,tau_ns"

    def test_improves_baseline(self, tmp_path):
        cfg = write_config(tmp_path, "opt.json", {
            "gate": "pi8", "omega0_mhz": 30.0, "grid_points": 1001,
            "optimize": {"starts": 2, "evals_per_start": 60},
            "seed": 5, "out_dir": str(tmp_path / "opt"),
        })
        r = run_cli(["optimize", "--config", cfg], tmp_path)
        line = [l for l in r.stdout.splitlines() if l.startswith("tau_ns=")][0]
        tau = float(line.split("=")[1].split()[0])
        assert tau < 19.0


CONFIGS = os.path.join(os.path.dirname(SRC_DIR), "configs")


class TestOneHamiltonianForm:
    def test_no_shipped_run_converts_dense_samples(self, tmp_path, monkeypatch):
        # every sampler hands the integrators tracks; dense samples would be
        # converted by _hermitian_tracks
        from geogate import acceptance, dynamics

        def refuse(*args, **kwargs):
            raise AssertionError("dense samples were converted to tracks")

        monkeypatch.setattr(dynamics, "_hermitian_tracks", refuse)
        two_qubit = load_config(os.path.join(CONFIGS, "two_qubit_cphase.json"))
        effective = {"two_qubit": {**two_qubit["two_qubit"], "model": "effective"}}
        runs = [
            ["simulate", "--config", os.path.join(CONFIGS, "leakage_simulation.json"),
             "--dt", "0.01"],
            ["simulate", "--config", os.path.join(CONFIGS, "leakage_simulation.json"),
             "--model", "two_level", "--dt", "0.01"],
            ["scan", "--config", os.path.join(CONFIGS, "robustness_scan.json"), "--dt", "0.05"],
            ["two-qubit", "--config", os.path.join(CONFIGS, "two_qubit_cphase.json"),
             "--dt", "0.02"],
            ["two-qubit", "--config", write_config(tmp_path, "effective.json", effective),
             "--dt", "0.02"],
        ]
        for n, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / str(n))]) == 0, argv
        assert acceptance.criterion_4_unitary_oracle().passed
        assert acceptance.criterion_5_transport_and_cyclicity().passed


# one mistyped value per integer, number and boolean key the commands read
MISTYPED = [
    ("synth", {"gate": "pi8", "grid_points": "4001"}, "grid_points", "an integer"),
    ("optimize", {"gate": "pi8", "grid_points": 1001.0}, "grid_points", "an integer"),
    ("two-qubit", {"grid_points": [4001]}, "grid_points", "an integer"),
    ("simulate", {"gate": "pi8", "record_stride": "20"}, "record_stride", "an integer"),
    ("two-qubit", {"record_stride": 200.5}, "record_stride", "an integer"),
    ("scan", {"gate": "pi8", "scan": {"points": "3"}}, "points", "an integer"),
    ("optimize", {"gate": "pi8", "optimize": {"starts": 2.0}}, "starts", "an integer"),
    ("optimize", {"gate": "pi8", "optimize": {"evals_per_start": "500"}},
     "evals_per_start", "an integer"),
    ("optimize", {"gate": "pi8", "seed": True}, "seed", "an integer"),
    ("scan", {"gate": "pi8", "scan": {"min": "-0.1"}}, "min", "a number"),
    ("scan", {"gate": "pi8", "scan": {"max": None}}, "max", "a number"),
    ("optimize", {"gate": "pi8", "optimize": {"bound": "0.2"}}, "bound", "a number"),
    ("optimize", {"gate": "pi8", "optimize": {"monotone": "false"}}, "monotone",
     "true or false"),
    ("synth", {"gate": "pi8", "drag": "true"}, "drag", "true or false"),
    ("simulate", {"gate": "pi8", "model": "two_level", "drag": 1}, "drag", "true or false"),
    ("scan", {"gate": "pi8", "scan": 5}, "scan", "an object"),
    ("optimize", {"gate": "pi8", "optimize": [16]}, "optimize", "an object"),
    ("two-qubit", {"two_qubit": "full"}, "two_qubit", "an object"),
    ("synth", {"gate": "pi8", "coeffs": 0.1}, "coeffs", "a list of numbers"),
    ("simulate", {"gate": "pi8", "coeffs": [0.1, "0.2"]}, "coeffs", "a list of numbers"),
    ("two-qubit", {"two_qubit": {"coeffs": 0.1}}, "coeffs", "a list of numbers"),
    ("scan", {"gate": "pi8", "scan": {"axes": "epsilon"}}, "axes", "a list of strings"),
    ("scan", {"gate": "pi8", "scan": {"variants": "geometric"}}, "variants",
     "a list of strings"),
    ("scan", {"gate": "pi8", "scan": {"comparator_style": 1}}, "comparator_style", "a string"),
    ("synth", {"gate": 8}, "gate", "a string"),
    ("simulate", {"gate": "pi8", "model": ["two_level"]}, "model", "a string"),
    ("two-qubit", {"two_qubit": {"model": None}}, "model", "a string"),
]

OUT_OF_RANGE = [
    ("scan", {"gate": "pi8", "dt_ns": 0.05, "scan": {"points": 0}}, "points", "at least 1, got 0"),
    ("simulate", {"gate": "pi8", "dt_ns": 0.05, "record_stride": 0}, "record_stride",
     "at least 1, got 0"),
    ("two-qubit", {"dt_ns": 0.05, "record_stride": 0}, "record_stride", "at least 1, got 0"),
    ("synth", {"gate": "pi8", "grid_points": 1}, "grid_points", "at least 2, got 1"),
    ("simulate", {"gate": "pi8", "grid_points": 1}, "grid_points", "at least 2, got 1"),
    ("two-qubit", {"grid_points": 1}, "grid_points", "at least 2, got 1"),
    ("optimize", {"gate": "pi8", "grid_points": 1}, "grid_points", "at least 2, got 1"),
    ("optimize", {"gate": "pi8", "optimize": {"starts": -3}}, "starts", "at least 1, got -3"),
    ("optimize", {"gate": "pi8", "optimize": {"evals_per_start": -1}}, "evals_per_start",
     "at least 1, got -1"),
    ("simulate", {"gate": "pi8", "dt_ns": -0.01}, "dt_ns", "greater than 0, got -0.01"),
    ("scan", {"gate": "pi8", "dt_ns": 0.0}, "dt_ns", "greater than 0, got 0.0"),
    ("two-qubit", {"dt_ns": 0}, "dt_ns", "greater than 0, got 0"),
    ("simulate", {"gate": "pi8", "gamma_khz": -3}, "gamma_khz", "at least 0, got -3"),
    ("scan", {"gate": "pi8", "kappa_khz": -0.5}, "kappa_khz", "at least 0, got -0.5"),
    ("two-qubit", {"gamma_khz": 3.0, "kappa_khz": -3.0}, "kappa_khz", "at least 0, got -3.0"),
    ("synth", {"gate": "pi8", "omega0_mhz": -30}, "omega0_mhz", "greater than 0, got -30"),
    ("optimize", {"gate": "pi8", "omega0_mhz": 0.0}, "omega0_mhz", "greater than 0, got 0.0"),
    ("two-qubit", {"two_qubit": {"g_mhz": 0}}, "g_mhz", "greater than 0, got 0"),
    ("two-qubit", {"two_qubit": {"gprime_max_mhz": -15.0}}, "gprime_max_mhz",
     "greater than 0, got -15.0"),
    ("optimize", {"gate": "pi8", "seed": -1}, "seed", "at least 0, got -1"),
]

# Python's JSON reader accepts NaN, Infinity, -Infinity and integers of any size
NON_FINITE = [
    ("synth", {"gate": "pi8", "omega0_mhz": math.nan}, "omega0_mhz", "a number", "NaN"),
    ("simulate", {"gate": "pi8", "gamma_khz": math.inf}, "gamma_khz", "a number", "Infinity"),
    ("scan", {"gate": "pi8", "scan": {"min": -math.inf}}, "min", "a number", "-Infinity"),
    ("two-qubit", {"two_qubit": {"g_mhz": math.nan}}, "g_mhz", "a number", "NaN"),
    ("simulate", {"gate": "pi8", "coeffs": [0.1, math.nan]}, "coeffs", "a list of numbers",
     "[0.1, NaN]"),
    ("simulate", {"gate": "pi8", "initial_state": [1.0, -math.inf]}, "initial_state",
     "a list of numbers", "[1.0, -Infinity]"),
    ("optimize", {"gate": "pi8", "omega0_mhz": 10 ** 400}, "omega0_mhz", "a number",
     str(10 ** 400)),  # an integer beyond every float
]


# a misspelt key at the top level and in each block; "omega0" is the flag's name
UNKNOWN = [
    ("synth", {"gate": "pi8", "grid_pionts": 201}, "grid_pionts"),
    ("synth", {"gate": "pi8", "omega0": 60.0}, "omega0"),
    ("scan", {"gate": "pi8", "scan": {"pionts": 3}}, "scan.pionts"),
    ("optimize", {"gate": "pi8", "optimize": {"start": 2}}, "optimize.start"),
    ("two-qubit", {"two_qubit": {"g_mz": 10.0}}, "two_qubit.g_mz"),
]


@pytest.fixture
def no_work(monkeypatch):
    """Make every command's first piece of work fail the test if it starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the config was checked")
    for name in ("synthesize", "gate_variants", "optimize"):
        monkeypatch.setattr(f"geogate.cli.{name}", refuse)


class TestErrors:
    def test_bad_config_json_is_machine_readable(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json }")
        r = run_cli(["synth", "--config", str(bad), "--gate", "pi8"], tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("error: ")
        payload = json.loads(r.stderr[len("error: "):])
        assert "line 1" in payload["message"]

    def test_unknown_gate(self, tmp_path):
        r = run_cli(["synth", "--gate", "cnot"], tmp_path)
        assert r.returncode == 1
        payload = json.loads(r.stderr[len("error: "):])
        assert payload["type"] == "KeyError"

    def test_missing_gate(self, tmp_path):
        r = run_cli(["synth"], tmp_path)
        assert r.returncode == 1

    def test_unknown_scan_axis_names_the_allowed_axes(self, tmp_path):
        cfg = write_config(tmp_path, "grid.json", {
            "gate": "pi8", "dt_ns": 0.05,
            "scan": {"axes": ["grid2d"], "points": 3, "variants": ["geometric"]},
            "out_dir": str(tmp_path / "grid"),
        })
        r = run_cli(["scan", "--config", cfg], tmp_path)
        assert r.returncode == 1
        payload = json.loads(r.stderr[len("error: "):])
        assert payload["type"] == "ValueError"
        assert "'epsilon'" in payload["message"] and "'delta'" in payload["message"]

    def test_bad_second_axis_writes_nothing(self, tmp_path):
        out = tmp_path / "partial"
        out.mkdir()
        cfg = write_config(tmp_path, "partial.json", {
            "gate": "pi8", "dt_ns": 0.05,
            "scan": {"axes": ["epsilon", "grid2d"], "points": 3, "variants": ["geometric"]},
            "out_dir": str(out),
        })
        r = run_cli(["scan", "--config", cfg], tmp_path)
        assert r.returncode == 1
        assert json.loads(r.stderr[len("error: "):])["type"] == "ValueError"
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("command, payload, key", [
        ("synth", {"gate": "pi8", "omega0_mhz": "30"}, "omega0_mhz"),
        ("synth", {"gate": "pi8", "drag": True, "anharmonicity_mhz": [220]}, "anharmonicity_mhz"),
        ("simulate", {"gate": "pi8", "gamma_khz": True}, "gamma_khz"),
        ("simulate", {"gate": "pi8", "epsilon": None}, "epsilon"),
        ("scan", {"gate": "pi8", "dt_ns": "0.05"}, "dt_ns"),
        ("two-qubit", {"two_qubit": {"g_mhz": "10"}}, "g_mhz"),
    ])
    def test_non_numeric_value_names_the_key(self, tmp_path, capsys, command, payload, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "typed.json", {**payload, "out_dir": str(out)})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert repr(key) in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, key, kind", MISTYPED,
                             ids=[f"{c[0]}-{c[2]}" for c in MISTYPED])
    def test_mistyped_value_names_the_key(self, tmp_path, capsys, command, payload, key, kind):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "typed.json", {**payload, "out_dir": str(out)})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert payload["message"].startswith(f"config key {key!r} must be {kind}, got ")
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, key, bound", OUT_OF_RANGE,
                             ids=[f"{c[0]}-{c[2]}" for c in OUT_OF_RANGE])
    def test_out_of_range_value_names_the_key(self, tmp_path, capsys, no_work, command,
                                              payload, key, bound):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "range.json", {**payload, "out_dir": str(out)})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert payload["message"] == f"config key {key!r} must be {bound}"
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, key, kind, got", NON_FINITE,
                             ids=[f"{c[0]}-{c[2]}" for c in NON_FINITE])
    def test_non_finite_value_names_the_key(self, tmp_path, capsys, no_work, command,
                                            payload, key, kind, got):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "finite.json", {**payload, "out_dir": str(out)})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert payload["message"] == f"config key {key!r} must be {kind}, got {got}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "scan", "optimize"])
    def test_non_positive_omega0_flag_names_the_flag(self, tmp_path, capsys, no_work, command):
        out = tmp_path / "out"
        assert main([command, "--gate", "pi8", "--omega0", "-0.1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        payload = json.loads(err[0][len("error: "):])
        assert payload == {"type": "ConfigError",
                           "message": "flag --omega0 must be greater than 0, got -0.1"}
        assert not out.exists()

    @pytest.mark.parametrize("command, dt", [("simulate", "-0.01"), ("scan", "0"),
                                             ("two-qubit", "0")])
    def test_non_positive_dt_flag_names_the_flag(self, tmp_path, capsys, no_work, command, dt):
        out = tmp_path / "out"
        assert main([command, "--gate", "pi8", "--dt", dt, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert payload["message"] == f"flag --dt must be greater than 0, got {float(dt)}"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command, flag", [("simulate", "--dt"), ("scan", "--dt"),
                                               ("two-qubit", "--dt"), ("synth", "--omega0"),
                                               ("scan", "--omega0"), ("optimize", "--omega0"),
                                               ("synth", "--coeffs"), ("simulate", "--coeffs")])
    def test_non_finite_flag_names_the_flag(self, tmp_path, capsys, no_work, command, flag,
                                            value):
        out = tmp_path / "out"
        # "--dt=-inf": argparse reads a lone "-inf" as an option
        assert main([command, "--gate", "pi8", f"{flag}={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload == {"type": "ConfigError",
                           "message": f"flag {flag} must be a finite number, got {float(value)}"}
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("-inf", "must be a finite number, got -inf"), ("-nan", "must be a finite number, got nan"),
        ("-1e-3", "must be greater than 0, got -0.001")])
    @pytest.mark.parametrize("command, flag", [("simulate", "--dt"), ("scan", "--omega0")])
    def test_lone_negative_flag_value_reaches_the_check(self, tmp_path, capsys, no_work,
                                                        command, flag, value, message):
        # "-inf" as its own argument, which argparse would read as an option
        out = tmp_path / "out"
        assert main([command, "--gate", "pi8", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload == {"type": "ConfigError", "message": f"flag {flag} {message}"}
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--coeffs", "nan,0,0"], "flag --coeffs must be a finite number, got nan"),
        (["simulate", "--coeffs", "0.1,x"], "flag --coeffs must be a finite number, got x"),
        (["synth", "--coeffs", "-0.05,inf"], "flag --coeffs must be a finite number, got inf"),
        (["optimize", "--seed", "-1"], "flag --seed must be at least 0, got -1"),
    ])
    def test_bad_coeffs_or_seed_flag_names_the_flag(self, tmp_path, capsys, no_work, argv,
                                                    message):
        out = tmp_path / "out"
        assert main(argv + ["--gate", "pi8", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert json.loads(err[0][len("error: "):]) == {"type": "ConfigError",
                                                       "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, key", UNKNOWN,
                             ids=[f"{c[0]}-{c[2]}" for c in UNKNOWN])
    def test_unknown_key_names_the_key(self, tmp_path, capsys, no_work, command, payload, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "unknown.json", {**payload, "out_dir": str(out)})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert payload["message"].startswith(f"unknown config key {key!r}, expected one of ")
        assert not out.exists()

    @pytest.mark.parametrize("variants", [["geometrc"], ["geometric", "dynamic"], []])
    def test_unknown_variant_names_the_key(self, tmp_path, capsys, no_work, variants):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "variants.json", {
            "gate": "pi8", "scan": {"variants": variants}, "out_dir": str(out)})
        assert main(["scan", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert payload["message"] == (
            "config key 'variants' must name one or more of geometric, geometric_po, "
            f"dynamical, got {json.dumps(variants)}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "simulate", "scan", "two-qubit", "optimize"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "list.json", [1, 2])
        assert main([command, "--config", cfg, "--gate", "pi8"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        payload = json.loads(err[0][len("error: "):])
        assert payload["type"] == "ConfigError"
        assert payload["message"] == f"{cfg}: a config must be a JSON object, got [1, 2]"
        assert os.listdir(tmp_path) == ["list.json"]

    def test_seed_flag_does_not_hide_a_mistyped_config_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "seed.json", {"gate": "pi8", "seed": "7",
                                                   "out_dir": str(out)})
        assert main(["optimize", "--config", cfg, "--seed", "7"]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()


class TestStartup:
    def test_synth_simulate_scan_never_load_scipy(self, tmp_path):
        sim = write_config(tmp_path, "sim.json", {
            "gate": "pi8", "omega0_mhz": 30.0, "gamma_khz": 3.0, "kappa_khz": 3.0,
            "dt_ns": 0.05, "out_dir": str(tmp_path / "sim"),
        })
        scan = write_config(tmp_path, "scan.json", {
            "gate": "pi8", "dt_ns": 0.05, "out_dir": str(tmp_path / "scan"),
            "scan": {"axis": "epsilon", "points": 3, "variants": ["geometric"]},
        })
        opt = write_config(tmp_path, "opt.json", {
            "gate": "pi8", "grid_points": 1001, "out_dir": str(tmp_path / "opt"),
            "optimize": {"starts": 2, "evals_per_start": 20},
        })
        loaded = scipy_loaded_by([["synth", "--gate", "hadamard", "--drag",
                                   "--out", str(tmp_path / "synth")],
                                  ["simulate", "--config", sim],
                                  ["scan", "--config", scan],
                                  ["optimize", "--config", opt]], tmp_path)
        assert loaded == []
        for out in ("synth", "sim", "scan", "opt"):
            assert (tmp_path / out / "manifest.json").is_file()

    def test_two_qubit_never_loads_scipy(self, tmp_path):
        # the Bessel inversion of the drive runs on the series of J1, not on scipy's j1
        cfg = write_config(tmp_path, "cfg.json", {
            "dt_ns": 0.02, "grid_points": 2001, "two_qubit": {"model": "full"},
            "out_dir": str(tmp_path / "out"),
        })
        assert scipy_loaded_by([["two-qubit", "--config", cfg]], tmp_path) == []
        assert (tmp_path / "out" / "manifest.json").is_file()


class TestConfigHelpers:
    def test_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_load_missing_file(self):
        with pytest.raises(ValueError):
            load_config("/nonexistent/config.json")

    def test_main_returns_int(self, tmp_path):
        assert main(["synth", "--gate", "pi8", "--out", str(tmp_path)]) == 0


README = os.path.join(os.path.dirname(SRC_DIR), "README.md")
CONFIG_COMMANDS = {"hadamard_pulse_optimized.json": "synth", "pi8_pulse.json": "synth",
                   "leakage_simulation.json": "simulate", "robustness_scan.json": "scan",
                   "two_qubit_cphase.json": "two-qubit", "optimize_durations.json": "optimize"}


def flat_keys(keys, block=""):
    """A table of KEYS as {dotted key: (kind, default as JSON reads it, *range)}."""
    flat = {}
    for key, entry in keys.items():
        if isinstance(entry, dict):
            flat.update(flat_keys(entry, f"{block}{key}."))
        else:
            kind, default, *bound = entry
            flat[block + key] = (kind, json.loads(json.dumps(default)), *bound)
    return flat


def readme_keys():
    """README's "Config keys" tables in the form of ``flat_keys``."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n### Config keys\n")[1].split("\n## ")[0]
    tables = {}
    for part in section.split("\n#### ")[1:]:
        heading, *lines = part.splitlines()
        rows = tables[heading.strip("`")] = {}
        for line in lines:
            if not line.startswith("| `"):
                continue
            key, kind, default, bound = (c.strip().strip("`") for c in line.strip("|").split("|"))
            op, _, minimum = bound.partition(" ")  # "", "≥ m" or "> m"
            rows[key] = (kind, json.loads(default)) + (
                () if not op else (json.loads(minimum),) + ((True,) if op == ">" else ()))
    return tables


class TestKeyTable:
    def test_readme_tables_match_the_code(self):
        assert readme_keys() == {command: flat_keys(keys) for command, keys in KEYS.items()}

    def test_retired_keys_are_accepted_and_do_nothing(self):
        for command, config in [("simulate", {"n_theta": 5}),
                                ("scan", {"n_theta": "any", "workers": 2}),
                                ("two-qubit", {"two_qubit": {"n_theta": 5}})]:
            assert read_config(config, KEYS[command]) == read_config({}, KEYS[command])

    def test_shipped_configs_pass_the_reader(self):
        assert sorted(os.listdir(CONFIGS)) == sorted(CONFIG_COMMANDS)
        for name, command in CONFIG_COMMANDS.items():
            config = load_config(os.path.join(CONFIGS, name))
            assert read_config(config, KEYS[command])["out_dir"] == config["out_dir"]

    def test_benchmark_configs_pass_the_reader(self, monkeypatch):
        # the configs the benchmark's operations send; geobench/ is read, not changed
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(SRC_DIR), "geobench"))
        import workloads
        for workload in workloads.WORKLOADS:
            for seed in (0, 1):
                for op in workloads.build(workload, seed):
                    read_config(op.config, KEYS[op.command])
