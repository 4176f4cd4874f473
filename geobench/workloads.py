"""Benchmark workloads: operations, their seeded inputs and their checks.

An operation is one geogate CLI call, ``geogate.cli.main(argv)``, on a
config generated here from the benchmark seed. The seed only moves inputs
that leave the amount of work unchanged (initial kets, the optimizer seed,
decoherence rates), so every seed costs the same and fails the same
operations. Sizes are chosen so that one round of a workload takes a few
seconds on a 2-core machine; README.md gives the figures.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("design", "transmon", "robustness", "coupled")

MHZ = 2 * math.pi * 1e-3   # MHz -> rad/ns
KHZ = 2 * math.pi * 1e-6   # kHz -> rad/ns
OMEGA0_MHZ = 30.0
GRID_POINTS = 4001

# design: the evaluation budget of every optimizer start is spent in full
# (no start meets Nelder-Mead's xatol/fatol within it), so the number of
# objective evaluations is 1 + starts * evals on every seed
OPT_BUDGET = {"pi8": {"starts": 4, "evals_per_start": 60},
              "hadamard": {"starts": 4, "evals_per_start": 40}}
OPT_BOUND = 0.2

# transmon
TRANSMON_DT = 0.01    # ns; printed fidelities equal the 1 ps values
N_THETA = 1001
ANH_MHZ = 220.0
PAPER_RATE_KHZ = 3.0
EPSILON = 0.1

# robustness
SCAN_POINTS = 11      # odd, so the grid holds 0 as well as the +-0.1 ends
SCAN_DT = 0.05        # ns; few steps over a wide batch of points x 4 matrices
SCAN_WORKERS = 2

# coupled
COUPLED_DT = 0.02     # ns; F = 0.9971-0.9973 over the seeded rates, inside the paper tolerance
TWO_QUBIT = {"model": "full", "g_mhz": 10.0, "delta_mhz": 500.0, "anh_a_mhz": 220.0,
             "anh_b_mhz": 200.0, "gprime_max_mhz": 15.0, "gamma_g_prime_over_pi": 0.25,
             "coeffs": [-0.05, 0.08, -0.03139], "n_theta": 51}


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of what it wrote and printed.

    ``check(op, out_dir, stdout, refs)`` returns failure messages; ``refs``
    caches reference values that do not change from round to round.
    ``known_fault`` names the program fault an operation is expected to
    fail on; any other failure makes the run incorrect.
    """

    name: str
    command: str
    config: dict
    check: Callable = field(compare=False)
    known_fault: str = ""

    def argv(self, config_path, out_dir):
        return [self.command, "--config", config_path, "--out", out_dir]


def build(workload: str, seed: int) -> list:
    """The operations of one round of ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"design": _design, "transmon": _transmon, "robustness": _robustness,
            "coupled": _coupled}[workload](rng)


# ---------------------------------------------------------------------------
# design

def _design(rng) -> list:
    ops = []
    for gate in ("phase", "pi8", "hadamard"):
        base = {"gate": gate, "omega0_mhz": OMEGA0_MHZ, "grid_points": GRID_POINTS}
        ops.append(Op(f"synth_{gate}", "synth", base, _check_synth))
        if gate in checks.PAPER_COEFFS:
            ops.append(Op(f"synth_{gate}_ref", "synth",
                          {**base, "coeffs": list(checks.PAPER_COEFFS[gate])}, _check_synth))
        ops.append(Op(f"synth_{gate}_drag", "synth",
                      {**base, "drag": True, "anharmonicity_mhz": ANH_MHZ}, _check_synth))
    for gate in ("pi8", "hadamard"):
        config = {"gate": gate, "omega0_mhz": OMEGA0_MHZ, "grid_points": GRID_POINTS,
                  "optimize": {**OPT_BUDGET[gate], "bound": OPT_BOUND, "monotone": True},
                  "seed": int(rng.integers(2**31))}
        ops.append(Op(f"optimize_{gate}", "optimize", config, _check_optimize))
    return ops


def _check_synth(op, out_dir, stdout, refs):
    gate, coeffs = op.config["gate"], tuple(op.config.get("coeffs", ()))
    drag = bool(op.config.get("drag"))
    paper = None if drag else checks.PAPER_TAU.get((gate, "ref" if coeffs else "plain"))
    cols = checks.read_csv(os.path.join(out_dir, f"pulse_{gate}.csv"))
    return checks.check_pulse(gate, cols, op.config["omega0_mhz"] * MHZ, coeffs, drag=drag,
                              paper=paper, printed_tau=checks.printed(stdout, "tau_ns"))


def _check_optimize(op, out_dir, stdout, refs):
    gate, opt = op.config["gate"], op.config["optimize"]
    return checks.check_optimize(
        gate, checks.read_csv(os.path.join(out_dir, f"optimize_{gate}.csv")),
        checks.read_csv(os.path.join(out_dir, f"optimize_{gate}_history.csv")),
        op.config["omega0_mhz"] * MHZ, opt["bound"],
        1 + opt["starts"] * opt["evals_per_start"], op.config["grid_points"])


# ---------------------------------------------------------------------------
# transmon

def _transmon(rng) -> list:
    base = {"model": "three_level", "omega0_mhz": OMEGA0_MHZ, "gamma_khz": PAPER_RATE_KHZ,
            "kappa_khz": PAPER_RATE_KHZ, "anharmonicity_mhz": ANH_MHZ, "drag": True,
            "dt_ns": TRANSMON_DT, "n_theta": N_THETA, "grid_points": GRID_POINTS}
    ops = []
    for gate in ("pi8", "hadamard"):
        theta = rng.uniform(0.0, 2 * math.pi)
        ket = [math.cos(theta), math.sin(theta)]
        ops.append(Op(gate, "simulate", {**base, "gate": gate, "initial_state": ket},
                      _check_simulate))
    # fixed inputs: this operation fails on every seed until the fault is mended
    ops.append(Op("pi8_eps", "simulate",
                  {**base, "gate": "pi8", "initial_state": [1.0, 1.0], "epsilon": EPSILON},
                  _check_pi8_eps,
                  known_fault="three-level amplitude error does not scale the applied DRAG drive"))
    return ops


def _trace(out_dir, gate):
    return checks.read_csv(os.path.join(out_dir, f"trace_{gate}_three_level.csv"))


def _check_simulate(op, out_dir, stdout, refs):
    gate = op.config["gate"]
    return checks.check_simulate(gate, checks.printed(stdout, "fidelity"), _trace(out_dir, gate))


def _check_pi8_eps(op, out_dir, stdout, refs):
    if op.name not in refs:
        refs[op.name] = scaled_drive_reference(op.config)
    ref_fidelity, ref_cols = refs[op.name]
    return checks.check_scaled_drive(checks.printed(stdout, "fidelity"),
                                     _trace(out_dir, op.config["gate"]), ref_fidelity, ref_cols)


def scaled_drive_reference(config):
    """F and trace populations with the applied drive scaled by 1 + epsilon, no error term."""
    from geogate import (CATALOG, AmplitudeBudget, DecoherenceRates, average_gate_fidelity_1q,
                         drag_correct, fidelity_dynamics, synthesize, target_unitary)

    spec = CATALOG[config["gate"]]
    anh = config["anharmonicity_mhz"] * MHZ
    pulse = drag_correct(synthesize(spec, budget=AmplitudeBudget(config["omega0_mhz"] * MHZ),
                                    grid_points=config["grid_points"]), anh)
    scale = 1.0 + config["epsilon"]
    pulse = replace(pulse, omega=scale * pulse.omega, drag=scale * pulse.drag)
    rates = DecoherenceRates(gamma_decay=config["gamma_khz"] * KHZ,
                             kappa_dephase=config["kappa_khz"] * KHZ)
    kw = {"model": "three_level", "anharmonicity": anh, "rates": rates, "dt": config["dt_ns"]}
    fidelity = average_gate_fidelity_1q(pulse, target_unitary(spec), n_theta=config["n_theta"],
                                        method="channel", **kw)
    trace = fidelity_dynamics(pulse, config["initial_state"], **kw)
    return fidelity, {f"pop_{k}": trace.populations[:, k] for k in range(3)}


# ---------------------------------------------------------------------------
# robustness

def _robustness(rng) -> list:
    workers = min(SCAN_WORKERS, os.cpu_count() or 1)
    ops = []
    for gate in ("pi8", "hadamard"):
        gamma, kappa = rng.uniform(2.0, 4.0, 2)
        config = {"gate": gate, "omega0_mhz": OMEGA0_MHZ, "gamma_khz": float(gamma),
                  "kappa_khz": float(kappa), "n_theta": N_THETA, "dt_ns": SCAN_DT,
                  "scan": {"axes": ["epsilon", "delta"], "min": -0.1, "max": 0.1,
                           "points": SCAN_POINTS,
                           "variants": ["geometric", "geometric_po", "dynamical"],
                           "comparator_style": "canonical"},
                  "workers": workers}
        ops.append(Op(f"scan_{gate}", "scan", config, _check_scan))
    return ops


def _check_scan(op, out_dir, stdout, refs):
    gate, scan = op.config["gate"], op.config["scan"]
    grid = np.linspace(scan["min"], scan["max"], scan["points"])
    scans = {axis: checks.read_csv(os.path.join(out_dir, f"scan_{gate}_{axis}.csv"))
             for axis in scan["axes"]}
    return checks.check_scan(scans, grid)


# ---------------------------------------------------------------------------
# coupled

def _coupled(rng) -> list:
    gamma, kappa = rng.uniform(2.8, 3.2, 2)
    config = {"gamma_khz": float(gamma), "kappa_khz": float(kappa), "dt_ns": COUPLED_DT,
              "grid_points": GRID_POINTS, "two_qubit": dict(TWO_QUBIT)}
    return [Op("cphase", "two-qubit", config, _check_coupled)]


def _check_coupled(op, out_dir, stdout, refs):
    if "eta" not in refs:
        refs["eta"] = checks.check_bessel(*two_qubit_drive(op.config))
    cols = checks.read_csv(os.path.join(out_dir, "trace_two_qubit_full.csv"))
    return refs["eta"] + checks.check_two_qubit(checks.printed(stdout, "fidelity"), cols)


def two_qubit_drive(config):
    """eta, g' and g of the flux modulation the two-qubit command builds from ``config``."""
    from geogate import (AmplitudeBudget, PathKind, PathSpec, TransmonParams,
                         build_two_qubit_drive, default_schedule, synthesize)

    tq = config["two_qubit"]
    params = TransmonParams(g=tq["g_mhz"] * MHZ, Delta=tq["delta_mhz"] * MHZ,
                            anh_a=tq["anh_a_mhz"] * MHZ, anh_b=tq["anh_b_mhz"] * MHZ)
    gamma = tq["gamma_g_prime_over_pi"] * math.pi
    spec = PathSpec(gamma_g=gamma, alpha0=0.0, beta0=math.pi / 2, kind=PathKind.POLE_START)
    pulse = synthesize(spec, default_schedule(spec, tq["coeffs"]),
                       AmplitudeBudget(tq["gprime_max_mhz"] * MHZ), config["grid_points"])
    drive = build_two_qubit_drive(params, pulse, gamma)
    return drive.eta, drive.g_prime, params.g
