"""Drive synthesis: from a sampled loop to detuning, envelope and phase.

Inverse engineering of the two-level Hamiltonian

    H(t) = (Delta(t)/2) (|1><1| - |0><0|) + (Omega(t)/2) |1><0| + h.c.

with Delta = -beta_dot sin^2(alpha) and Omega = Omega_s e^{i(beta - zeta + pi)},
where the envelope and auxiliary phase follow from the loop derivatives:

    Omega_s = sqrt(alpha_dot^2 + (beta_dot sin(alpha) cos(alpha))^2)
    zeta    = atan2(alpha_dot, beta_dot sin(alpha) cos(alpha))   (unwrapped)

Durations are normalized so the envelope peaks exactly at the amplitude
budget.  The quadrature leakage correction replaces the real envelope with

    Omega_d = Omega_s - [i Omega_s_dot + (beta_dot - zeta_dot + Delta) Omega_s] / (2 anh)

for a transmon of anharmonicity ``anh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._csv import write_csv
from .paths import (
    DEFAULT_GRID_POINTS,
    BetaSchedule,
    PathKind,
    PathSpec,
    PathTrajectory,
    ScheduleBase,
    sample_trajectory,
)

TWO_PI = 2 * math.pi

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class AmplitudeBudget:
    """Maximum drive amplitude in rad/ns."""

    omega0: float

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("amplitude budget must be positive")


DEFAULT_BUDGET = AmplitudeBudget(omega0=TWO_PI * 0.030)


@dataclass(frozen=True)
class GateCatalog:
    phase: PathSpec
    pi_over_8: PathSpec
    hadamard: PathSpec

    def __getitem__(self, name: str) -> PathSpec:
        key = name.lower().replace("-", "_")
        aliases = {"phase": "phase", "pi8": "pi_over_8", "pi_over_8": "pi_over_8",
                   "t": "pi_over_8", "hadamard": "hadamard", "h": "hadamard"}
        if key not in aliases:
            raise KeyError(f"unknown gate {name!r}")
        return getattr(self, aliases[key])


CATALOG = GateCatalog(
    phase=PathSpec(gamma_g=math.pi / 4, alpha0=0.0, beta0=math.pi / 2, kind=PathKind.POLE_START),
    pi_over_8=PathSpec(gamma_g=math.pi / 8, alpha0=0.0, beta0=math.pi / 2, kind=PathKind.POLE_START),
    hadamard=PathSpec(gamma_g=math.pi / 2, alpha0=math.pi / 4, beta0=0.0, kind=PathKind.HADAMARD_START),
)

# reference schedule coefficients that shorten the catalog gates
OPTIMIZED_COEFFS = {
    "pi8": (0.007, 0.033, -0.024),
    "hadamard": (0.095, 0.022, -0.046),
}

# schedule used by the two-qubit control-phase scenario; calibrated so the
# synthesized duration lands on the reference 43.5 ns at the 2pi*15 MHz
# coupling budget while keeping spectator excitation low
TWO_QUBIT_COEFFS = (-0.05, 0.08, -0.03139)


def default_schedule(spec: PathSpec, coeffs=()) -> BetaSchedule:
    base = ScheduleBase.HALF_TURN if spec.kind is PathKind.POLE_START else ScheduleBase.FULL_TURN
    return BetaSchedule(base=base, coeffs=tuple(coeffs))


@dataclass(frozen=True)
class DrivePulse:
    """Sampled drive on a uniform time grid.

    All rates are rad/ns; ``phase`` is the continuous (unwrapped) drive
    phase.  ``beta_dot`` and ``zeta`` are kept for the leakage correction.
    ``drag`` holds the complex corrected envelope once applied.
    """

    tau: float
    t: np.ndarray
    delta: np.ndarray
    omega: np.ndarray
    phase: np.ndarray
    beta_dot: np.ndarray
    zeta: np.ndarray
    omega0: float
    drag: np.ndarray | None = None

    def __len__(self):
        return len(self.t)

    def to_csv(self, path):
        drag = self.drag if self.drag is not None else np.zeros(len(self), dtype=complex)
        write_csv(path,
                  ["t_ns", "delta_rad_per_ns", "omega_s_rad_per_ns", "phase_rad",
                   "drag_re_rad_per_ns", "drag_im_rad_per_ns"],
                  [self.t, self.delta, self.omega, self.phase, drag.real, drag.imag])


def _envelope_squared(sin_alpha, cos_alpha, dalpha_ds, dbeta_ds) -> np.ndarray:
    """Xi(s)^2; sqrt is correctly rounded and monotone, so sqrt(max Xi^2) = max Xi."""
    return dalpha_ds**2 + (dbeta_ds * sin_alpha * cos_alpha) ** 2


def dimensionless_envelope(traj: PathTrajectory) -> np.ndarray:
    """Xi(s): the drive envelope before the duration is fixed."""
    return np.sqrt(_envelope_squared(traj.sin_alpha, traj.cos_alpha, traj.dalpha_ds, traj.dbeta_ds))


def normalize_duration(traj: PathTrajectory, budget: AmplitudeBudget = DEFAULT_BUDGET) -> float:
    """Duration (ns) at which the envelope peaks exactly at the budget."""
    xi2 = _envelope_squared(traj.sin_alpha, traj.cos_alpha, traj.dalpha_ds, traj.dbeta_ds)
    return math.sqrt(xi2.max()) / budget.omega0


def rabi_envelope(traj: PathTrajectory, tau: float):
    """Envelope Omega_s(t) and unwrapped auxiliary phase zeta(t).

    Where both arctangent arguments vanish (loop endpoints at the pole)
    zeta is filled by interpolation from the neighbouring samples.
    """
    xi = dimensionless_envelope(traj)
    envelope = xi / tau
    quad = traj.dbeta_ds * traj.sin_alpha * traj.cos_alpha
    zeta = np.arctan2(traj.dalpha_ds, quad)
    degenerate = (np.abs(traj.dalpha_ds) < 1e-13) & (np.abs(quad) < 1e-13)
    if degenerate.all():
        return envelope, np.zeros_like(zeta)
    idx = np.arange(len(zeta), dtype=float)
    good = ~degenerate
    zeta = np.interp(idx, idx[good], np.unwrap(zeta[good]))
    return envelope, zeta


def synthesize(spec: PathSpec, schedule: BetaSchedule | None = None,
               budget: AmplitudeBudget = DEFAULT_BUDGET,
               grid_points: int = DEFAULT_GRID_POINTS) -> DrivePulse:
    """Build the full drive for a gate: trajectory, duration, envelope, phase."""
    if schedule is None:
        schedule = default_schedule(spec)
    traj = sample_trajectory(spec, schedule, grid_points)
    tau = normalize_duration(traj, budget)
    envelope, zeta = rabi_envelope(traj, tau)
    delta = -(traj.dbeta_ds / tau) * traj.sin_alpha ** 2
    phase = traj.beta - zeta + math.pi
    return DrivePulse(tau=tau, t=traj.s * tau, delta=delta, omega=envelope,
                      phase=phase, beta_dot=traj.dbeta_ds / tau, zeta=zeta,
                      omega0=budget.omega0)


def drag_correct(pulse: DrivePulse, anharmonicity: float) -> DrivePulse:
    """Attach the complex quadrature-corrected envelope for a 3-level transmon.

    Envelope and zeta derivatives use centered differences on the synthesis
    grid with one-sided stencils at the ends.
    """
    if anharmonicity == 0:
        raise ValueError("anharmonicity must be nonzero")
    omega_dot = np.gradient(pulse.omega, pulse.t)
    zeta_dot = np.gradient(pulse.zeta, pulse.t)
    corr = (1j * omega_dot + (pulse.beta_dot - zeta_dot + pulse.delta) * pulse.omega)
    return replace(pulse, drag=pulse.omega - corr / (2 * anharmonicity))


def rotation_unitary(axis, angle) -> np.ndarray:
    """exp(-i * angle/2 * n.sigma) for a unit axis n."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    gen = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * gen


def target_unitary(spec: PathSpec) -> np.ndarray:
    """Ideal gate: rotation by twice the loop phase about the start axis."""
    n = (math.sin(spec.alpha0) * math.cos(spec.beta0),
         math.sin(spec.alpha0) * math.sin(spec.beta0),
         math.cos(spec.alpha0))
    return rotation_unitary(n, 2 * spec.gamma_g)


def target_unitary_2q(gamma_g_prime: float) -> np.ndarray:
    """Control-phase gate diag(1, 1, 1, e^{-i gamma'})."""
    return np.diag([1.0, 1.0, 1.0, np.exp(-1j * gamma_g_prime)]).astype(complex)


def composite_drive_pulse(segments, budget: AmplitudeBudget = DEFAULT_BUDGET,
                          points_per_segment: int = 600) -> DrivePulse:
    """Sequence of resonant rotations about equatorial axes, each at budget.

    ``segments`` is a list of (angle, axis_phi); negative angles flip the
    drive phase by pi.  Time-ordered: the first segment acts first.
    """
    durations = [abs(a) / budget.omega0 for a, _ in segments]
    tau = sum(durations)
    ts, phases = [], []
    t0 = 0.0
    for (angle, axis_phi), d in zip(segments, durations):
        seg_t = np.linspace(t0, t0 + d, points_per_segment, endpoint=False)
        ts.append(seg_t)
        phases.append(np.full(points_per_segment, axis_phi + (math.pi if angle < 0 else 0.0)))
        t0 += d
    ts.append(np.array([tau]))
    phases.append(np.array([phases[-1][-1]]))
    t = np.concatenate(ts)
    phase = np.concatenate(phases)
    n = len(t)
    return DrivePulse(tau=tau, t=t, delta=np.zeros(n),
                      omega=np.full(n, budget.omega0), phase=phase,
                      beta_dot=np.zeros(n), zeta=np.zeros(n), omega0=budget.omega0)


def segment_unitary(segments) -> np.ndarray:
    """Exact product of the rotations realized by ``composite_drive_pulse``."""
    U = np.eye(2, dtype=complex)
    for angle, axis_phi in segments:
        U = rotation_unitary((math.cos(axis_phi), math.sin(axis_phi), 0.0), angle) @ U
    return U
