"""State and gate fidelities, robustness scans, and comparators.

The single-qubit gate fidelity is the average of <nu_f| rho(tau) |nu_f>
over initial states cos(theta)|0> + sin(theta)|1> with theta uniform on
[0, 2*pi] (trapezoid rule, 1001 samples by default).  The two-qubit
version averages over product states on a 51x51 theta grid.

Both are evaluated on the channel route: the computational-basis
matrices |a><b| evolve once, and every initial state's final density
matrix follows by linearity, so the cost does not grow with the number
of theta samples.  Robustness scans evolve all error points of a variant
as one batch on the same route.

Dynamical comparator gates compile the same target unitaries into
sequences of resonant rotations about equatorial axes, every segment at
the shared amplitude budget.  The default "canonical" style compiles any
z rotation as x(-90) y(angle) x(90); the Hadamard comparator is
z(90) x(90) z(90) with the z rotations expanded the same way.  A
"minimal" style (fewest segments) and a single tilted-axis rotation are
also available; the robustness ordering against geometric gates depends
on this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._csv import write_csv
from .dynamics import (
    DEFAULT_DT,
    COMPUTATIONAL_IDX,
    _drive_hamiltonian,
    _half_step_grid,
    _warn_if_out_of_range,
    DecoherenceRates,
    ErrorFractions,
    TransmonParams,
    TwoQubitDrive,
    effective_two_qubit_hamiltonian,
    evolve_lindblad,
    evolve_schrodinger,
    qubit_collapse,
    subspace_frame_unitary,
    three_level_hamiltonian,
    trace_to_csv,
    two_level_hamiltonian,
    two_qubit_collapse,
    two_qubit_full_hamiltonian,
)
from .pulses import (
    CATALOG,
    DEFAULT_BUDGET,
    OPTIMIZED_COEFFS,
    AmplitudeBudget,
    DrivePulse,
    PathKind,
    composite_drive_pulse,
    constant_drive_pulse,
    default_schedule,
    segment_unitary,
    synthesize,
    target_unitary,
    target_unitary_2q,
)

DEFAULT_N_THETA = 1001
SCAN_DT = 0.01  # ns; convergence-guard verified for the driven qubit models


def state_fidelity(rho, target_ket) -> float:
    """<nu|rho|nu> with the target zero-padded into the model space."""
    rho = np.asarray(rho, dtype=complex)
    ket = np.asarray(target_ket, dtype=complex)
    if ket.shape[0] > rho.shape[-1]:
        raise ValueError("target dimension exceeds the state dimension")
    if ket.shape[0] < rho.shape[-1]:
        padded = np.zeros(rho.shape[-1], dtype=complex)
        padded[:ket.shape[0]] = ket
        ket = padded
    return float(np.real(np.einsum("i,...ij,j->...", ket.conj(), rho, ket)))


def theta_kets(n_theta: int) -> np.ndarray:
    theta = np.linspace(0.0, 2 * math.pi, n_theta)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _builder(model, pulse, anharmonicity, err):
    if model == "two_level":
        return two_level_hamiltonian(pulse, err), 2
    if model == "three_level":
        if anharmonicity is None:
            raise ValueError("three_level model needs an anharmonicity")
        return three_level_hamiltonian(pulse, anharmonicity, err), 3
    raise ValueError(f"unknown single-qubit model {model!r}")


def average_gate_fidelity_1q(pulse: DrivePulse, target: np.ndarray,
                             model: str = "two_level",
                             anharmonicity: float | None = None,
                             rates: DecoherenceRates | None = None,
                             err: ErrorFractions | None = None,
                             n_theta: int = DEFAULT_N_THETA,
                             dt: float = DEFAULT_DT,
                             method: str = "channel") -> float:
    """Equatorial-average gate fidelity for one driven qubit (channel route)."""
    if method != "channel":
        raise ValueError(f"unknown method {method!r}; only 'channel' is available")
    sampler, dim = _builder(model, pulse, anharmonicity, err)
    rates = rates or DecoherenceRates()
    evolved = evolve_lindblad(sampler, _channel_basis(dim), qubit_collapse(rates, dim),
                              (0.0, pulse.tau), dt).final
    return float(_channel_fidelities(evolved, target, n_theta))


def _channel_basis(dim: int) -> np.ndarray:
    """The qubit-block matrices |a><b| (index 2a + b) embedded in dimension dim."""
    basis = np.zeros((4, dim, dim), dtype=complex)
    for a in range(2):
        for b in range(2):
            basis[2 * a + b, a, b] = 1.0
    return basis


def _channel_fidelities(evolved, target, n_theta: int):
    """Trapezoid theta-average fidelity from the evolved basis (..., 4, d, d)."""
    kets2 = theta_kets(n_theta)
    fin = np.zeros((n_theta, evolved.shape[-1]), dtype=complex)
    fin[:, :2] = kets2 @ np.asarray(target, dtype=complex).T
    overlaps = np.einsum("ni,...kij,nj->...nk", fin.conj(), evolved, fin)
    coeff = np.einsum("na,nb->nab", kets2, kets2).reshape(n_theta, 4)
    f = np.einsum("nk,...nk->...n", coeff, overlaps).real
    w = np.ones(n_theta)
    w[0] = w[-1] = 0.5
    return (f @ w) / w.sum()


def product_theta_kets(n_theta: int) -> np.ndarray:
    theta = np.linspace(0.0, 2 * math.pi, n_theta)
    c, s = np.cos(theta), np.sin(theta)
    kets = np.zeros((n_theta, n_theta, 4))
    kets[:, :, 0] = np.outer(c, c)
    kets[:, :, 1] = np.outer(c, s)
    kets[:, :, 2] = np.outer(s, c)
    kets[:, :, 3] = np.outer(s, s)
    return kets


def average_gate_fidelity_2q(params: TransmonParams, drive: TwoQubitDrive,
                             rates: DecoherenceRates | None = None,
                             model: str = "full", n_theta: int = 51,
                             dt: float = DEFAULT_DT) -> float:
    """Product-state average fidelity of the control-phase gate."""
    rates = rates or DecoherenceRates()
    target = target_unitary_2q(drive.gamma_g_prime)
    kets = product_theta_kets(n_theta)
    finals = kets @ target.T
    w1 = np.ones(n_theta)
    w1[0] = w1[-1] = 0.5
    weights = np.outer(w1, w1)

    if model == "effective":
        if not rates.is_zero:
            raise ValueError("the effective two-level model is closed-system")
        sampler = effective_two_qubit_hamiltonian(drive)
        psi = evolve_schrodinger(sampler, np.array([1.0, 0.0], dtype=complex),
                                 (0.0, drive.tau), dt).final
        out = kets.astype(complex).copy()
        out[:, :, 3] *= psi[0]
        overlap = np.einsum("xyi,xyi->xy", finals.conj(), out)
        return float(np.sum(np.abs(overlap) ** 2 * weights) / weights.sum())

    if model == "full":
        sampler = two_qubit_full_hamiltonian(params, drive)
        basis = np.zeros((16, 9, 9), dtype=complex)
        for a in range(4):
            for b in range(4):
                basis[4 * a + b, COMPUTATIONAL_IDX[a], COMPUTATIONAL_IDX[b]] = 1.0
        evolved = evolve_lindblad(sampler, basis, two_qubit_collapse(rates),
                                  (0.0, drive.tau), dt).final
        ts, _, _ = _half_step_grid((0.0, drive.tau), dt)
        U = subspace_frame_unitary(drive, ts)
        evolved = np.einsum("ij,njk,kl->nil", U.conj().T, evolved, U)
        fin9 = np.zeros(finals.shape[:2] + (9,), dtype=complex)
        fin9[:, :, list(COMPUTATIONAL_IDX)] = finals
        overlaps = np.einsum("xyi,nij,xyj->xyn", fin9.conj(), evolved, fin9)
        overlaps = overlaps.reshape(n_theta, n_theta, 4, 4)
        f = np.einsum("xya,xyb,xyab->xy", kets, kets, overlaps).real
        return float(np.sum(f * weights) / weights.sum())

    raise ValueError(f"unknown two-qubit model {model!r}")


# ---------------------------------------------------------------------------
# dynamical comparators

def _rz_segments(angle):
    return [(-math.pi / 2, 0.0), (angle, math.pi / 2), (math.pi / 2, 0.0)]


def comparator_segments(spec, style: str = "canonical"):
    """Resonant-rotation decomposition of the catalog targets."""
    if spec.kind is PathKind.POLE_START:
        # diagonal target: a z rotation by twice the loop phase
        return _rz_segments(2 * spec.gamma_g)
    if style == "canonical":
        return _rz_segments(math.pi / 2) + [(math.pi / 2, 0.0)] + _rz_segments(math.pi / 2)
    if style == "minimal":
        return [(math.pi / 2, math.pi / 2), (math.pi, 0.0)]
    raise ValueError(f"unknown comparator style {style!r}")


def dynamical_comparator(spec, budget: AmplitudeBudget = DEFAULT_BUDGET,
                         style: str = "canonical"):
    """Budget-saturating dynamical realization of a catalog gate.

    Returns the composite pulse and its exact target unitary (identical,
    up to global phase, to the geometric target for the same spec).
    """
    if style == "single":
        if spec.kind is PathKind.POLE_START:
            raise ValueError("a single tilted-axis rotation cannot realize a z-axis target")
        n = (math.sin(spec.alpha0) * math.cos(spec.beta0),
             math.sin(spec.alpha0) * math.sin(spec.beta0),
             math.cos(spec.alpha0))
        pulse = constant_drive_pulse(n, 2 * spec.gamma_g, budget)
        return pulse, target_unitary(spec)
    segments = comparator_segments(spec, style)
    pulse = composite_drive_pulse(segments, budget)
    realized = segment_unitary(segments)
    ideal = target_unitary(spec)
    phase = np.angle(np.trace(ideal.conj().T @ realized))
    if np.linalg.norm(realized - np.exp(1j * phase) * ideal) > 1e-9:
        raise AssertionError("comparator decomposition does not realize the target")
    return pulse, ideal


def _coeff_key(gate_name: str) -> str:
    key = gate_name.lower().replace("-", "_")
    return {"pi_over_8": "pi8", "t": "pi8", "h": "hadamard"}.get(key, key)


def gate_variants(gate_name: str, budget: AmplitudeBudget = DEFAULT_BUDGET,
                  include=("geometric", "geometric_po", "dynamical"),
                  comparator_style: str = "canonical"):
    """Named (pulse, target) pairs entering a robustness scan."""
    spec = CATALOG[gate_name]
    target = target_unitary(spec)
    out = {}
    if "geometric" in include:
        out["geometric"] = (synthesize(spec, budget=budget), target)
    if "geometric_po" in include:
        coeffs = OPTIMIZED_COEFFS.get(_coeff_key(gate_name))
        if coeffs is None:
            raise KeyError(f"no reference optimized coefficients for gate {gate_name!r}")
        out["geometric_po"] = (synthesize(spec, default_schedule(spec, coeffs), budget=budget), target)
    if "dynamical" in include:
        out["dynamical"] = dynamical_comparator(spec, budget, comparator_style)
    return out


# ---------------------------------------------------------------------------
# robustness scans

@dataclass
class ScanResult:
    axis: str                 # "epsilon", "delta" or "grid2d"
    values: np.ndarray        # (P,) error fractions, or (P, 2) (eps, delta) pairs
    fidelities: dict

    def to_csv(self, path):
        names = sorted(self.fidelities)
        if self.axis == "grid2d":
            write_csv(path,
                      ["epsilon_fraction", "delta_fraction"] + [f"fidelity_{n}" for n in names],
                      [self.values[:, 0], self.values[:, 1]]
                      + [self.fidelities[n] for n in names])
        else:
            write_csv(path, [f"{self.axis}_fraction"] + [f"fidelity_{n}" for n in names],
                      [self.values] + [self.fidelities[n] for n in names])


def _scan_variant(pulse, target, axis, values, rates, n_theta, dt):
    """Channel-route fidelities of one variant at every error value.

    All error points evolve together: the sampler gets the error values as
    arrays, so the Hamiltonian grid gains a point axis that broadcasts
    against the shared channel basis.  ``values`` is a 1-D array for a
    single axis, or (P, 2) (epsilon, delta) pairs.
    """
    if axis == "grid2d":
        epsilon, delta = values[:, 0], values[:, 1]
    else:
        epsilon, delta = (values, 0.0) if axis == "epsilon" else (0.0, values)

    def sampler(ts):
        return _drive_hamiltonian(pulse, ts, epsilon, delta)[:, :, None]

    rho0 = np.broadcast_to(_channel_basis(2), (len(values), 4, 2, 2))
    evolved = evolve_lindblad(sampler, rho0, qubit_collapse(rates, 2), (0.0, pulse.tau), dt).final
    return _channel_fidelities(evolved, target, n_theta)


def robustness_scan(variants: dict, axis: str, values=None,
                    rates: DecoherenceRates | None = None,
                    n_theta: int = DEFAULT_N_THETA, dt: float = SCAN_DT) -> ScanResult:
    """Fidelity-versus-error curves for each gate variant.

    ``axis`` is "epsilon" (drive amplitude) or "delta" (detuning offset).
    Each variant evolves all error points as one batch.
    """
    if axis not in ("epsilon", "delta", "grid2d"):
        raise ValueError("axis must be 'epsilon', 'delta' or 'grid2d'")
    if values is None:
        values = np.linspace(-0.1, 0.1, 41)
    values = np.asarray(values, dtype=float)
    _warn_if_out_of_range(values)
    rates = rates or DecoherenceRates()
    fidelities = {name: _scan_variant(pulse, target, axis, values, rates, n_theta, dt)
                  for name, (pulse, target) in variants.items()}
    return ScanResult(axis=axis, values=values, fidelities=fidelities)


def robustness_grid(variants: dict, eps_values, delta_values,
                    rates: DecoherenceRates | None = None,
                    n_theta: int = DEFAULT_N_THETA, dt: float = SCAN_DT) -> ScanResult:
    """Two-dimensional fidelity grid over (epsilon, delta) pairs."""
    eps_values = np.asarray(eps_values, dtype=float)
    delta_values = np.asarray(delta_values, dtype=float)
    pairs = np.array([(e, d) for e in eps_values for d in delta_values])
    return robustness_scan(variants, "grid2d", pairs, rates=rates,
                           n_theta=n_theta, dt=dt)


# ---------------------------------------------------------------------------
# time-resolved fidelity

@dataclass
class FidelityTrace:
    times: np.ndarray
    fidelity: np.ndarray
    populations: np.ndarray

    def to_csv(self, path):
        trace_to_csv(path, self.times, self.populations, self.fidelity)


def fidelity_dynamics(pulse: DrivePulse, ket0, model: str = "three_level",
                      anharmonicity: float | None = None,
                      rates: DecoherenceRates | None = None,
                      err: ErrorFractions | None = None,
                      dt: float = DEFAULT_DT, record_stride: int = 20) -> FidelityTrace:
    """F(t) against the ideal closed two-level evolution, plus populations."""
    sampler, dim = _builder(model, pulse, anharmonicity, err)
    rates = rates or DecoherenceRates()
    ket0 = np.asarray(ket0, dtype=complex)
    ket0 = ket0 / np.linalg.norm(ket0)
    full0 = np.zeros(dim, dtype=complex)
    full0[:len(ket0)] = ket0
    rho0 = np.outer(full0, full0.conj())
    res = evolve_lindblad(sampler, rho0, qubit_collapse(rates, dim),
                          (0.0, pulse.tau), dt, record_stride=record_stride)

    ideal_pulse = replace(pulse, drag=None)
    ref = evolve_schrodinger(two_level_hamiltonian(ideal_pulse), ket0[:2],
                             (0.0, pulse.tau), dt, record_stride=record_stride)
    ref_full = np.zeros((len(ref.times), dim), dtype=complex)
    ref_full[:, :2] = ref.states
    fid = np.einsum("ti,tij,tj->t", ref_full.conj(), res.states, ref_full).real
    pops = np.einsum("tii->ti", res.states).real
    return FidelityTrace(times=res.times, fidelity=fid, populations=pops)
