"""Correctness checks for every benchmark operation.

Each check takes what an operation wrote (parsed CSV columns, printed
values) and returns a list of failure messages; an empty list is a pass.
The loop geometry is recomputed here from the paper's circle equations
with this module's own closed forms and quadrature, so a check never
compares the program against a saved copy of its own output.

Tolerances that sit at the CSV resolution add ``CSV_ULP``: geogate writes
12 significant digits, so two equal values below one can differ by one
unit in the twelfth digit after formatting.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

SIN_PI_12 = math.sin(math.pi / 12)
COS_PI_12 = math.cos(math.pi / 12)
CSV_ULP = 1e-12
PRINT_ULP = 5e-7   # half a unit in the sixth decimal printed by the CLI

# loop phase and loop family of the catalog gates
GATES = {
    "phase": {"gamma": math.pi / 4, "kind": "pole"},
    "pi8": {"gamma": math.pi / 8, "kind": "pole"},
    "hadamard": {"gamma": math.pi / 2, "kind": "hadamard"},
}
# reference schedule coefficients quoted in the paper
PAPER_COEFFS = {"pi8": (0.007, 0.033, -0.024), "hadamard": (0.095, 0.022, -0.046)}
# paper durations, ns, with the tolerances the checks allow
PAPER_TAU = {("pi8", "plain"): (19.66, 0.05), ("hadamard", "plain"): (23.49, 0.05),
             ("pi8", "ref"): (16.71, 0.1)}
PAPER_FIDELITY = {"pi8": (0.9996, 0.0003), "hadamard": (0.9997, 0.0003)}
PAPER_TWO_QUBIT = {"fidelity": (0.9981, 0.0015), "tau": (43.50, 0.5)}


# ---------------------------------------------------------------------------
# reading outputs

def read_csv(path) -> dict:
    """Columns of a geogate CSV by header; numeric columns as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        values = [r[j] for r in body]
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError:
            cols[name] = values
    return cols


def printed(stdout: str, key: str) -> float:
    """Value of a ``key=value`` line printed by the CLI."""
    match = re.search(rf"^{re.escape(key)}=([-+0-9.eE]+)", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"no {key}= line in the command output")
    return float(match.group(1))


# ---------------------------------------------------------------------------
# loop geometry, independent of geogate

def schedule(s, kind, coeffs=()):
    """Azimuth beta(s) and d(beta)/ds: half turn for pole loops, full turn otherwise."""
    s = np.asarray(s, dtype=float)
    if kind == "pole":
        beta = math.pi / 2 + math.pi * np.sin(math.pi * s / 2) ** 2
        dbeta = 0.5 * math.pi**2 * np.sin(math.pi * s)
    else:
        beta = 2 * math.pi * np.sin(math.pi * s / 2) ** 2
        dbeta = math.pi**2 * np.sin(math.pi * s)
    for k, a in enumerate(coeffs, start=1):
        beta = beta + a * np.sin(2 * k * math.pi * s)
        dbeta = dbeta + 2 * k * math.pi * a * np.cos(2 * k * math.pi * s)
    return beta, dbeta


def hadamard_alpha(beta):
    """Closed-form root in (0, pi/2) of 2 sin(pi/12) sin a cos b - 2 cos(pi/12) cos a + 1 = 0.

    Written as A sin a + B cos a = R sin(a + phi) = -1 with R > 1.
    """
    A = 2 * SIN_PI_12 * np.cos(beta)
    B = -2 * COS_PI_12
    R = np.hypot(A, B)
    phi = np.arctan2(B, A)
    base = np.arcsin(-1.0 / R)
    first = np.mod(base - phi, 2 * math.pi)
    second = np.mod(math.pi - base - phi, 2 * math.pi)
    return np.where((first > 0) & (first < math.pi / 2), first, second)


def loop(gate, s, coeffs=()):
    """alpha, d(alpha)/ds, beta, d(beta)/ds on the grid ``s``."""
    g = GATES[gate]
    beta, dbeta = schedule(s, g["kind"], coeffs)
    if g["kind"] == "pole":
        gamma = g["gamma"]
        C = math.sqrt(2 * math.pi * gamma - gamma**2) / (math.pi - gamma)
        x = C * np.sin(beta - math.pi / 2)
        alpha = 2 * np.arctan(x)     # signed; every use below is even in alpha
        dalpha = 2 * C * np.cos(beta - math.pi / 2) / (1 + x**2) * dbeta
    else:
        alpha = hadamard_alpha(beta)
        dadb = (SIN_PI_12 * np.sin(alpha) * np.sin(beta)
                / (SIN_PI_12 * np.cos(alpha) * np.cos(beta) + COS_PI_12 * np.sin(alpha)))
        dalpha = dadb * dbeta
    return alpha, dalpha, beta, dbeta


def gate_duration(gate, omega0, coeffs=(), grid_points=4001) -> float:
    """Duration at which the drive envelope peaks at the budget, on the synthesis grid."""
    s = np.linspace(0.0, 1.0, grid_points)
    alpha, dalpha, _, dbeta = loop(gate, s, coeffs)
    xi = np.sqrt(dalpha**2 + (dbeta * np.sin(alpha) * np.cos(alpha)) ** 2)
    return float(xi.max() / omega0)


def loop_phase(gate, coeffs=(), panels=64, order=24) -> float:
    """(1/2) * integral of (1 - cos alpha) d(beta), by composite Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)
    s = (edges[:-1, None] + half[:, None] * (nodes[None, :] + 1.0)).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    alpha, _, _, dbeta = loop(gate, s, coeffs)
    return float(0.5 * np.sum(w * (1.0 - np.cos(alpha)) * dbeta))


# ---------------------------------------------------------------------------
# design

def check_pulse(gate, cols, omega0, coeffs=(), drag=False, paper=None,
                printed_tau=None) -> list:
    """A synthesized pulse CSV against the circle equations and the budget."""
    fails = []
    t, delta, omega = cols["t_ns"], cols["delta_rad_per_ns"], cols["omega_s_rad_per_ns"]
    tau = float(t[-1])
    own_tau = gate_duration(gate, omega0, coeffs, len(t))
    if abs(tau / own_tau - 1.0) > 1e-9:
        fails.append(f"tau {tau:.9f} ns, circle equations give {own_tau:.9f} ns")
    if printed_tau is not None and abs(printed_tau - tau) > PRINT_ULP:
        fails.append(f"printed tau {printed_tau} differs from the CSV {tau}")
    if paper is not None and abs(tau - paper[0]) > paper[1]:
        fails.append(f"tau {tau:.4f} ns outside the paper's {paper[0]} ± {paper[1]} ns")
    if abs(omega.max() / omega0 - 1.0) > 1e-9:
        fails.append(f"envelope peaks at {omega.max():.12g}, budget {omega0:.12g} rad/ns")
    grid = np.linspace(0.0, 1.0, len(t))   # the synthesis grid, exact
    if np.abs(t / tau - grid).max() > 1e-9:
        fails.append("time column is not a uniform grid on [0, tau]")
    alpha, _, beta, dbeta = loop(gate, grid, coeffs)
    own_delta = -(dbeta / tau) * np.sin(alpha) ** 2
    err = float(np.abs(delta - own_delta).max())
    if err > 1e-8 * omega0:
        fails.append(f"detuning differs from the circle equations by {err:.3e} rad/ns")
    phase = loop_phase(gate, coeffs)
    if abs(phase - GATES[gate]["gamma"]) > 1e-6:
        fails.append(f"loop phase {phase:.9f}, target {GATES[gate]['gamma']:.9f}")
    if GATES[gate]["kind"] == "hadamard":
        res = hadamard_residual(cols, coeffs)
        if res > 1e-10:
            fails.append(f"Hadamard constraint residual {res:.3e} > 1e-10")
    has_drag = bool(np.any(cols["drag_im_rad_per_ns"] != 0.0))
    if has_drag != drag:
        fails.append(f"DRAG columns {'set' if has_drag else 'empty'}, requested drag={drag}")
    return fails


def hadamard_residual(cols, coeffs=()) -> float:
    """Constraint residual of the polar angle implied by the CSV detuning.

    Delta = -beta_dot sin^2(alpha) gives sin^2(alpha) wherever the azimuth
    moves; alpha stays inside (0, pi/2), so cos(alpha) is the positive root.
    """
    t = cols["t_ns"]
    tau = float(t[-1])
    beta, dbeta = schedule(np.linspace(0.0, 1.0, len(t)), "hadamard", coeffs)
    moving = dbeta > 0.05 * dbeta.max()
    sin2 = -cols["delta_rad_per_ns"][moving] * tau / dbeta[moving]
    sin_a = np.sqrt(np.clip(sin2, 0.0, 1.0))
    cos_a = np.sqrt(np.clip(1.0 - sin2, 0.0, 1.0))
    res = 2 * SIN_PI_12 * sin_a * np.cos(beta[moving]) - 2 * COS_PI_12 * cos_a + 1.0
    return float(np.abs(res).max())


def check_optimize(gate, result, history, omega0, bound, expected_evals,
                   grid_points=4001) -> list:
    """Optimizer result and history CSVs: budget use, bound, re-synthesis, loop phase."""
    fails = []
    coeffs = tuple(float(result[f"a{k}"][0]) for k in (1, 2, 3))
    tau = float(result["tau_ns"][0])
    baseline = float(history["tau_ns"][0])
    evals = len(history["tau_ns"])
    if evals != expected_evals:
        fails.append(f"{evals} objective evaluations, budget {expected_evals}")
    if not tau <= baseline:
        fails.append(f"tau {tau:.6f} ns above the baseline {baseline:.6f} ns")
    if any(abs(a) > bound for a in coeffs):
        fails.append(f"coefficients {coeffs} outside the bound {bound}")
    own_tau = gate_duration(gate, omega0, coeffs, grid_points)
    if abs(tau / own_tau - 1.0) > 1e-8:
        fails.append(f"re-synthesis gives {own_tau:.9f} ns, reported {tau:.9f} ns")
    phase = loop_phase(gate, coeffs)
    if abs(phase - GATES[gate]["gamma"]) > 1e-6:
        fails.append(f"loop phase {phase:.9f} at the reported coefficients")
    return fails


# ---------------------------------------------------------------------------
# transmon

def check_trace_populations(cols, levels=3) -> list:
    pops = sum(cols[f"pop_{k}"] for k in range(levels))
    drift = float(np.abs(pops - 1.0).max())
    return [] if drift <= 1e-8 else [f"trace populations sum to 1 only within {drift:.3e}"]


def check_simulate(gate, fidelity, cols) -> list:
    center, tol = PAPER_FIDELITY[gate]
    fails = check_trace_populations(cols)
    if abs(fidelity - center) > tol:
        fails.append(f"F = {fidelity:.6f} outside the paper's {center} ± {tol}")
    return fails


def check_scaled_drive(fidelity, cols, ref_fidelity, ref_cols) -> list:
    """An amplitude error eps must act as the applied drive scaled by 1 + eps."""
    fails = check_trace_populations(cols)
    if abs(fidelity - ref_fidelity) > 1e-9 + PRINT_ULP:
        fails.append(f"F = {fidelity:.6f} with eps injected, {ref_fidelity:.9f} "
                     "with the applied drive scaled")
    err = max(float(np.abs(cols[f"pop_{k}"] - ref_cols[f"pop_{k}"]).max()) for k in range(3))
    if err > 1e-9:
        fails.append(f"trace populations differ from the scaled-drive trace by {err:.3e}")
    return fails


# ---------------------------------------------------------------------------
# robustness

def check_scan(scans, grid) -> list:
    """``scans`` maps "epsilon"/"delta" to the parsed scan CSV of one gate."""
    fails = []
    zero = len(grid) // 2
    for axis, cols in scans.items():
        values = cols[f"{axis}_fraction"]
        if len(values) != len(grid) or np.abs(values - grid).max() > 1e-12:
            fails.append(f"{axis} grid differs from the requested {len(grid)} points")
            continue
        for name in ("geometric", "geometric_po", "dynamical"):
            f = cols[f"fidelity_{name}"]
            if not np.all((f > 0.0) & (f <= 1.0)):
                fails.append(f"{axis} {name}: fidelity outside (0, 1]")
        geo, dyn = cols["fidelity_geometric"], cols["fidelity_dynamical"]
        for i in (0, -1):
            if not geo[i] > dyn[i]:
                fails.append(f"{axis} = {values[i]:+.2f}: geometric {geo[i]:.6f} "
                             f"not above dynamical {dyn[i]:.6f}")
    if {"epsilon", "delta"} <= set(scans):
        for name in ("geometric", "geometric_po", "dynamical"):
            a = scans["epsilon"][f"fidelity_{name}"][zero]
            b = scans["delta"][f"fidelity_{name}"][zero]
            if abs(a - b) > 1e-12 + CSV_ULP:
                fails.append(f"{name}: error-free rows differ, {a!r} vs {b!r}")
    return fails


# ---------------------------------------------------------------------------
# coupled

def check_two_qubit(fidelity, cols) -> list:
    fails = []
    for key, value in (("fidelity", fidelity), ("tau", float(cols["t_ns"][-1]))):
        center, tol = PAPER_TWO_QUBIT[key]
        if abs(value - center) > tol:
            fails.append(f"{key} {value:.6f} outside the paper's {center} ± {tol}")
    low = float(cols["pop_other"].min())
    if low < -1e-8:
        fails.append(f"pop_other reaches {low:.3e} < -1e-8")
    return fails


def check_bessel(eta, g_prime, g) -> list:
    """2 sqrt(2) g J1(eta) must reproduce the coupling g' (scipy's J1)."""
    from scipy.special import j1

    err = float(np.abs(2 * math.sqrt(2) * g * j1(eta) - g_prime).max())
    return [] if err <= 1e-9 else [f"2*sqrt(2)*g*J1(eta) misses g' by {err:.3e} rad/ns"]
