"""Benchmark acceptance suite: one check per headline claim.

Each criterion function returns a ``CriterionResult``; ``run_all`` prints a
single PASS/FAIL line per criterion.  Tolerances are fixed here and mirror
the quoted reference values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import j1

from .dynamics import (
    DecoherenceRates,
    TransmonParams,
    build_two_qubit_drive,
    evolve_lindblad,
    parallel_transport_check,
    propagator,
    qubit_collapse,
    three_level_hamiltonian,
    two_level_hamiltonian,
)
from .fidelity import (
    average_gate_fidelity_1q,
    average_gate_fidelity_2q,
    gate_variants,
    robustness_scan,
)
from .optimize import (
    J1_MAX,
    OptimizationProblem,
    invert_bessel_j1,
    objective,
    optimize,
)
from .paths import geometric_phase, path_length, sample_trajectory
from .pulses import (
    CATALOG,
    DEFAULT_BUDGET,
    OPTIMIZED_COEFFS,
    TWO_QUBIT_COEFFS,
    AmplitudeBudget,
    default_schedule,
    drag_correct,
    synthesize,
    target_unitary,
)

TWO_PI = 2 * math.pi
BENCH_RATES = DecoherenceRates(gamma_decay=TWO_PI * 3e-6, kappa_dephase=TWO_PI * 3e-6)
ANHARMONICITY = TWO_PI * 0.220
TWO_QUBIT_PARAMS = TransmonParams(g=TWO_PI * 0.010, Delta=TWO_PI * 0.500,
                                  anh_a=TWO_PI * 0.220, anh_b=TWO_PI * 0.200)
GPRIME_BUDGET = AmplitudeBudget(TWO_PI * 0.015)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} [{status}] {self.name}: {self.detail}"


def _within(value, center, tol):
    return abs(value - center) <= tol


def criterion_1_unoptimized_durations() -> CriterionResult:
    tau_t = synthesize(CATALOG["pi8"]).tau
    tau_h = synthesize(CATALOG["hadamard"]).tau
    ok = _within(tau_t, 19.66, 0.05) and _within(tau_h, 23.49, 0.05)
    detail = f"tau_pi8={tau_t:.4f} ns (19.66±0.05), tau_hadamard={tau_h:.4f} ns (23.49±0.05)"
    return CriterionResult(1, "unoptimized gate durations", ok, detail)


def criterion_2_reference_optimized_durations() -> CriterionResult:
    tau_t = objective(OPTIMIZED_COEFFS["pi8"], CATALOG["pi8"], DEFAULT_BUDGET)
    tau_h = objective(OPTIMIZED_COEFFS["hadamard"], CATALOG["hadamard"], DEFAULT_BUDGET)
    ok_t = _within(tau_t, 16.71, 0.1)
    ok_h = _within(tau_h, 19.57, 0.1)
    detail = (f"tau_pi8={tau_t:.4f} ns (16.71±0.1: {'ok' if ok_t else 'out'}), "
              f"tau_hadamard={tau_h:.4f} ns (19.57±0.1: {'ok' if ok_h else 'out'})")
    return CriterionResult(2, "reference-coefficient durations", ok_t and ok_h, detail)


def criterion_3_optimizer_from_scratch(seed: int = 7) -> CriterionResult:
    taus = {}
    for name, cap in (("pi8", 16.8), ("hadamard", 19.7)):
        problem = OptimizationProblem(CATALOG[name], DEFAULT_BUDGET)
        result = optimize(problem, seed=seed, n_starts=16, max_evals_per_start=500)
        taus[name] = (result.tau, cap)
    ok = all(tau <= cap for tau, cap in taus.values())
    detail = ", ".join(f"tau_{n}={t:.4f} ns (<= {c})" for n, (t, c) in taus.items())
    return CriterionResult(3, "optimizer reaches reference durations", ok, detail)


def _gate_distance(u, v):
    phase = np.angle(np.trace(np.asarray(v).conj().T @ np.asarray(u)))
    return float(np.linalg.norm(u - np.exp(1j * phase) * v))


def criterion_4_unitary_oracle() -> CriterionResult:
    devs = {}
    for name in ("phase", "pi8", "hadamard"):
        spec = CATALOG[name]
        pulse = synthesize(spec)
        u_num = propagator(two_level_hamiltonian(pulse), 2, (0.0, pulse.tau), dt=0.001)
        devs[name] = _gate_distance(u_num, target_unitary(spec))
    ok = all(d < 1e-5 for d in devs.values())
    detail = ", ".join(f"{n}: dev={d:.2e}" for n, d in devs.items()) + " (< 1e-5)"
    return CriterionResult(4, "propagated unitaries match targets", ok, detail)


def criterion_5_transport_and_cyclicity() -> CriterionResult:
    worst_v, worst_c = 0.0, 0.0
    for name in ("phase", "pi8", "hadamard"):
        spec = CATALOG[name]
        traj = sample_trajectory(spec, default_schedule(spec), 40001)
        pulse = synthesize(spec, grid_points=40001)
        violation, cyclic = parallel_transport_check(traj, pulse, dt=0.002)
        worst_v = max(worst_v, violation / pulse.omega0)
        worst_c = max(worst_c, cyclic)
    ok = worst_v < 1e-8 and worst_c < 1e-6
    detail = f"max |<psi|H|psi>|/omega0={worst_v:.2e} (< 1e-8), cyclic deficit={worst_c:.2e} (< 1e-6)"
    return CriterionResult(5, "parallel transport and cyclic return", ok, detail)


def criterion_6_three_level_fidelities(dt: float = 0.001) -> CriterionResult:
    fids = {}
    for name, center in (("pi8", 0.9996), ("hadamard", 0.9997)):
        spec = CATALOG[name]
        pulse = drag_correct(synthesize(spec), ANHARMONICITY)
        f = average_gate_fidelity_1q(pulse, target_unitary(spec), model="three_level",
                                     anharmonicity=ANHARMONICITY, rates=BENCH_RATES, dt=dt)
        fids[name] = (f, center)
    ok = all(_within(f, c, 0.0003) for f, c in fids.values())
    detail = ", ".join(f"F_{n}={f:.5f} ({c}±0.0003)" for n, (f, c) in fids.items())
    return CriterionResult(6, "leakage-corrected transmon fidelities", ok, detail)


def criterion_7_two_qubit_gate(dt: float = 0.001) -> CriterionResult:
    spec = CATALOG["phase"]
    pulse = synthesize(spec, default_schedule(spec, TWO_QUBIT_COEFFS), GPRIME_BUDGET)
    drive = build_two_qubit_drive(TWO_QUBIT_PARAMS, pulse, math.pi / 4)
    f = average_gate_fidelity_2q(TWO_QUBIT_PARAMS, drive, rates=BENCH_RATES,
                                 model="full", dt=dt)
    ok = _within(f, 0.9981, 0.0015) and _within(drive.tau, 43.50, 0.5)
    detail = f"F={f:.5f} (0.9981±0.0015), tau'={drive.tau:.3f} ns (43.50±0.5)"
    return CriterionResult(7, "coupled-transmon control-phase gate", ok, detail)


def criterion_8_robustness_ordering(n_points: int = 41, dt: float = 0.01) -> CriterionResult:
    values = np.linspace(-0.1, 0.1, n_points)
    edges = [0, n_points - 1]
    checks = []
    for gate in ("pi8", "hadamard"):
        variants = gate_variants(gate, include=("geometric", "dynamical"))
        for scan in robustness_scan(variants, ("epsilon", "delta"), values,
                                    rates=BENCH_RATES, dt=dt):
            geo = scan.fidelities["geometric"]
            dyn = scan.fidelities["dynamical"]
            for e in edges:
                checks.append((f"{gate}/{scan.axis}{'+' if values[e] > 0 else '-'}",
                               geo[e], dyn[e]))
    ok = all(g > d for _, g, d in checks)
    worst = min(checks, key=lambda c: c[1] - c[2])
    detail = (f"geometric > dynamical at all {len(checks)} probes; "
              f"smallest margin {worst[1] - worst[2]:+.4f} at {worst[0]}")
    if not ok:
        bad = [f"{n} (geo={g:.4f} <= dyn={d:.4f})" for n, g, d in checks if g <= d]
        detail = "ordering violated at: " + "; ".join(bad)
    return CriterionResult(8, "geometric beats dynamical at error extremes", ok, detail)


def criterion_9_phase_invariance(seed: int = 42) -> CriterionResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        coeffs = tuple(rng.uniform(-0.2, 0.2, 3))
        for name in ("pi8", "hadamard"):
            spec = CATALOG[name]
            traj = sample_trajectory(spec, default_schedule(spec, coeffs))
            worst = max(worst, abs(geometric_phase(traj) - spec.gamma_g))
    ok = worst < 1e-6
    detail = f"max |phase - target| = {worst:.2e} rad over 20 random schedules (< 1e-6)"
    return CriterionResult(9, "loop phase is schedule independent", ok, detail)


def _orange_slice_length(spec):
    from .paths import trajectory_from_samples
    s = np.linspace(0.0, 1.0, 4001)
    alpha = np.where(s <= 0.5, 2 * math.pi * s, 2 * math.pi * (1 - s))
    dalpha = np.where(s <= 0.5, 2 * math.pi, -2 * math.pi)
    beta = np.where(s <= 0.5, spec.beta0, spec.beta0 + spec.gamma_g)
    traj = trajectory_from_samples(spec, s, alpha, beta, dalpha, np.zeros_like(s))
    return path_length(traj)


def criterion_10_numerical_hygiene() -> CriterionResult:
    problems = []

    # trace preservation along a dissipative three-level evolution
    spec = CATALOG["pi8"]
    pulse = drag_correct(synthesize(spec), ANHARMONICITY)
    sampler = three_level_hamiltonian(pulse, ANHARMONICITY)
    ket = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
    rho0 = np.outer(ket, ket.conj())
    res = evolve_lindblad(sampler, rho0, qubit_collapse(BENCH_RATES, 3),
                          (0.0, pulse.tau), dt=0.001, record_stride=200)
    trace_dev = float(np.abs(np.einsum("tii->t", res.states).real - 1.0).max())
    if trace_dev >= 1e-8:
        problems.append(f"trace deviation {trace_dev:.2e}")

    # RK4 convergence of a reported fidelity under dt halving
    target = target_unitary(spec)
    f_a = average_gate_fidelity_1q(pulse, target, model="three_level",
                                   anharmonicity=ANHARMONICITY, rates=BENCH_RATES, dt=0.002)
    f_b = average_gate_fidelity_1q(pulse, target, model="three_level",
                                   anharmonicity=ANHARMONICITY, rates=BENCH_RATES, dt=0.001)
    fid_dev = abs(f_a - f_b)
    if fid_dev >= 1e-6:
        problems.append(f"dt-halving fidelity change {fid_dev:.2e}")

    # Bessel inversion round trip
    y = np.linspace(0.0, J1_MAX * 0.9999, 1000)
    bessel_dev = float(np.abs(j1(invert_bessel_j1(y)) - y).max())
    if bessel_dev >= 1e-10:
        problems.append(f"bessel round-trip error {bessel_dev:.2e}")

    # circle loops strictly shorter than the meridian-pair loop
    for name in ("pi8", "phase", "hadamard"):
        gate = CATALOG[name]
        circle = path_length(sample_trajectory(gate, default_schedule(gate)))
        slice_len = _orange_slice_length(gate)
        if not circle < slice_len:
            problems.append(f"{name}: circle {circle:.4f} !< slice {slice_len:.4f}")

    ok = not problems
    detail = ("trace/convergence/bessel/length checks all within bounds"
              if ok else "; ".join(problems))
    return CriterionResult(10, "numerical hygiene", ok, detail)


ALL_CRITERIA = [
    criterion_1_unoptimized_durations,
    criterion_2_reference_optimized_durations,
    criterion_3_optimizer_from_scratch,
    criterion_4_unitary_oracle,
    criterion_5_transport_and_cyclicity,
    criterion_6_three_level_fidelities,
    criterion_7_two_qubit_gate,
    criterion_8_robustness_ordering,
    criterion_9_phase_invariance,
    criterion_10_numerical_hygiene,
]


def run_all(printer=print):
    results = []
    for fn in ALL_CRITERIA:
        start = time.perf_counter()
        result = fn()
        result.elapsed_s = time.perf_counter() - start
        results.append(result)
        if printer:
            printer(result.line() + f"  [{result.elapsed_s:.1f}s]")
    return results
