"""Each correctness check passes geogate's real output and rejects a wrong one."""

import contextlib
import io
import math
import os

import numpy as np
import pytest

import checks
import worker
import workloads

OMEGA0 = 2 * math.pi * 0.030


def cli(tmp_path, *argv):
    import geogate.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert geogate.cli.main(list(argv) + ["--out", str(tmp_path)]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def pi8_pulse(tmp_path_factory):
    out = tmp_path_factory.mktemp("pi8")
    stdout = cli(out, "synth", "--gate", "pi8")
    return checks.read_csv(os.path.join(out, "pulse_pi8.csv")), checks.printed(stdout, "tau_ns")


@pytest.fixture(scope="module")
def hadamard_pulse(tmp_path_factory):
    out = tmp_path_factory.mktemp("hadamard")
    cli(out, "synth", "--gate", "hadamard", "--coeffs", "0.095,0.022,-0.046")
    return checks.read_csv(os.path.join(out, "pulse_hadamard.csv"))


def copy(cols):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in cols.items()}


# -- design -----------------------------------------------------------------

def test_hadamard_closed_form_solves_the_constraint():
    beta = np.linspace(0.0, 2 * math.pi, 1001)
    alpha = checks.hadamard_alpha(beta)
    res = (2 * checks.SIN_PI_12 * np.sin(alpha) * np.cos(beta)
           - 2 * checks.COS_PI_12 * np.cos(alpha) + 1.0)
    assert np.abs(res).max() < 1e-14
    assert alpha[0] == pytest.approx(math.pi / 4, abs=1e-15)
    assert np.all((alpha > 0) & (alpha < math.pi / 2))


def test_pulse_passes(pi8_pulse):
    cols, tau = pi8_pulse
    assert checks.check_pulse("pi8", cols, OMEGA0, paper=(19.66, 0.05), printed_tau=tau) == []


@pytest.mark.parametrize("column, index, factor, message", [
    ("omega_s_rad_per_ns", slice(None), 1.001, "envelope peaks"),
    ("t_ns", slice(None), 1.001, "circle equations give"),
    ("delta_rad_per_ns", 2000, 1.0 + 1e-6, "detuning differs"),
])
def test_pulse_rejects_wrong_output(pi8_pulse, column, index, factor, message):
    cols, _ = pi8_pulse
    bad = copy(cols)
    bad[column][index] *= factor
    assert any(message in f for f in checks.check_pulse("pi8", bad, OMEGA0))


def test_pulse_rejects_wrong_duration_and_drag(pi8_pulse):
    cols, tau = pi8_pulse
    fails = checks.check_pulse("pi8", cols, OMEGA0, drag=True, paper=(16.71, 0.1),
                               printed_tau=tau + 1e-5)
    assert len(fails) == 3


def test_hadamard_residual(hadamard_pulse):
    coeffs = checks.PAPER_COEFFS["hadamard"]
    assert checks.check_pulse("hadamard", hadamard_pulse, OMEGA0, coeffs) == []
    bad = copy(hadamard_pulse)
    bad["delta_rad_per_ns"][1500] *= 1.0 + 1e-8
    assert checks.hadamard_residual(bad, coeffs) > 1e-10


def test_optimize(tmp_path):
    config = tmp_path / "opt.json"
    config.write_text('{"gate": "pi8", "seed": 3, '
                      '"optimize": {"starts": 2, "evals_per_start": 20, "bound": 0.2}}')
    cli(tmp_path, "optimize", "--config", str(config))
    result = checks.read_csv(tmp_path / "optimize_pi8.csv")
    history = checks.read_csv(tmp_path / "optimize_pi8_history.csv")

    def run(result=result, history=history, evals=41):
        return checks.check_optimize("pi8", result, history, OMEGA0, 0.2, evals)

    assert run() == []
    assert any("evaluations" in f for f in run(evals=42))
    bad = copy(result)
    bad["tau_ns"] = bad["tau_ns"] * (1 + 1e-6)
    assert any("re-synthesis" in f for f in run(result=bad))
    bad = copy(result)
    bad["a1"] = np.array([0.25])
    assert any("bound" in f for f in run(result=bad))
    bad = copy(history)
    bad["tau_ns"][0] = result["tau_ns"][0] - 1.0
    assert any("baseline" in f for f in run(history=bad))


# -- transmon -----------------------------------------------------------------

def trace_cols(n=50):
    p2 = np.linspace(0.0, 1e-4, n)
    p1 = np.linspace(0.5, 0.3, n)
    return {"pop_0": 1.0 - p1 - p2, "pop_1": p1, "pop_2": p2}


def test_simulate_rejects_moved_fidelity_and_lost_population():
    cols = trace_cols()
    assert checks.check_simulate("pi8", 0.99949, cols) == []
    assert checks.check_simulate("pi8", 0.99949 - 1e-3, cols) != []
    bad = copy(cols)
    bad["pop_1"][10] += 1e-7
    assert checks.check_simulate("pi8", 0.99949, bad) != []


def test_scaled_drive():
    cols = trace_cols()
    assert checks.check_scaled_drive(0.997932, cols, 0.9979321234, cols) == []
    assert checks.check_scaled_drive(0.997647, cols, 0.9979321234, cols) != []
    bad = copy(cols)
    bad["pop_2"][-1] += 1e-8
    bad["pop_0"][-1] -= 1e-8
    assert any("scaled-drive trace" in f for f in
               checks.check_scaled_drive(0.997932, cols, 0.9979321234, bad))


# -- robustness ---------------------------------------------------------------

GRID = np.linspace(-0.1, 0.1, 9)


def scan_cols(axis):
    v2 = GRID**2
    return {f"{axis}_fraction": GRID.copy(),
            "fidelity_geometric": 0.9995 - 0.3 * v2,
            "fidelity_geometric_po": 0.9996 - 0.2 * v2,
            "fidelity_dynamical": 0.9990 - 0.8 * v2}


def scans():
    return {axis: scan_cols(axis) for axis in ("epsilon", "delta")}


def test_scan_passes():
    assert checks.check_scan(scans(), GRID) == []


def test_scan_rejects_swapped_columns():
    bad = scans()
    cols = bad["delta"]
    cols["fidelity_geometric"], cols["fidelity_dynamical"] = (
        cols["fidelity_dynamical"], cols["fidelity_geometric"])
    assert any("not above dynamical" in f for f in checks.check_scan(bad, GRID))


def test_scan_rejects_zero_rows_apart_and_fidelity_above_one():
    bad = scans()
    bad["epsilon"]["fidelity_geometric_po"][4] += 1e-11
    assert any("error-free rows" in f for f in checks.check_scan(bad, GRID))
    bad = scans()
    bad["delta"]["fidelity_geometric"][3] = 1.0 + 1e-9
    assert any("outside (0, 1]" in f for f in checks.check_scan(bad, GRID))
    assert any("grid" in f for f in checks.check_scan(scans(), np.linspace(-0.1, 0.1, 11)))


# -- coupled ------------------------------------------------------------------

def two_qubit_cols():
    return {"t_ns": np.linspace(0.0, 43.05, 20), "pop_other": np.full(20, 1e-9)}


def test_two_qubit():
    assert checks.check_two_qubit(0.997217, two_qubit_cols()) == []
    assert checks.check_two_qubit(0.9981 - 0.002, two_qubit_cols()) != []
    bad = two_qubit_cols()
    bad["pop_other"][5] = -1e-7
    assert checks.check_two_qubit(0.997217, bad) != []
    bad = two_qubit_cols()
    bad["t_ns"] = bad["t_ns"] * 1.03
    assert checks.check_two_qubit(0.997217, bad) != []


def test_bessel_rejects_perturbed_eta():
    config = workloads.build("coupled", 0)[0].config
    eta, g_prime, g = workloads.two_qubit_drive(config)
    assert checks.check_bessel(eta, g_prime, g) == []
    assert checks.check_bessel(eta * (1 + 1e-6), g_prime, g) != []


# -- determinism --------------------------------------------------------------

def test_artifacts_that_differ_between_rounds_are_named(tmp_path):
    ref, out = tmp_path / "round0", tmp_path / "round1"
    for d in (ref, out):
        d.mkdir()
        (d / "scan.csv").write_text("x,f\n0,0.999\n")
        (d / "manifest.json").write_text("{}\n")
    assert worker.differing_artifacts(out, ref) == []
    (out / "scan.csv").write_text("x,f\n0,0.998\n")
    assert worker.differing_artifacts(out, ref) == ["scan.csv"]
    (out / "extra.csv").write_text("")
    assert sorted(worker.differing_artifacts(out, ref)) == ["extra.csv", "scan.csv"]


def test_inputs_depend_on_the_seed_only():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 5), workloads.build(name, 5)
        assert [(op.name, op.config) for op in a] == [(op.name, op.config) for op in b]
        c = workloads.build(name, 6)
        assert [op.name for op in a] == [op.name for op in c]
    eps = [op for op in workloads.build("transmon", 5) if op.known_fault]
    assert [op.config for op in eps] == [op.config for op in workloads.build("transmon", 6)
                                         if op.known_fault]
