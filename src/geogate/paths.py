"""Closed circle trajectories on the Bloch sphere for geometric gates.

A gate is identified by a target loop phase and a starting point
(``PathSpec``).  The loop itself is the shortest smooth circle compatible
with those data; its polar angle is slaved to the azimuth through

    tan(alpha/2) = C * sin(beta - pi/2),   C = sqrt(2*pi*g - g^2)/(pi - g)

for loops through the north pole, and through the implicit constraint

    2 sin(pi/12) sin(alpha) cos(beta) - 2 cos(pi/12) cos(alpha) + 1 = 0

for the Hadamard loop that starts at (pi/4, 0), whose closed-form root
``hadamard_alpha_of_beta`` derives.

A trajectory is algebraic in the azimuth: its sin and cos come from one
half-angle tangent, then sin(alpha), cos(alpha) and d(alpha)/ds follow in
closed form (no sin, cos, arctan or hypot); alpha is derived on demand.

The azimuth schedule (``BetaSchedule``) fixes how fast the loop is
traversed and carries the optional sine-series correction terms used to
reshape the drive envelope.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

SIN_PI_12 = math.sin(math.pi / 12)
COS_PI_12 = math.cos(math.pi / 12)

DEFAULT_GRID_POINTS = 4001


class PathKind(enum.Enum):
    POLE_START = "pole_start"
    HADAMARD_START = "hadamard_start"


class ScheduleBase(enum.Enum):
    HALF_TURN = "half_turn"      # beta: pi/2 -> 3pi/2
    FULL_TURN = "full_turn"      # beta: 0 -> 2pi


@dataclass(frozen=True)
class PathSpec:
    """Target loop phase and starting point identifying a gate."""

    gamma_g: float
    alpha0: float
    beta0: float
    kind: PathKind

    def __post_init__(self):
        if self.kind is PathKind.POLE_START:
            if not 0.0 < self.gamma_g < math.pi:
                raise ValueError(f"pole-start loop phase must lie in (0, pi), got {self.gamma_g}")
            if self.alpha0 != 0.0:
                raise ValueError("pole-start trajectories begin at the north pole (alpha0 = 0)")
        elif self.kind is PathKind.HADAMARD_START:
            if not math.isclose(self.gamma_g, math.pi / 2, rel_tol=0, abs_tol=1e-12):
                raise ValueError("Hadamard-start loop phase is fixed at pi/2")
            if not (math.isclose(self.alpha0, math.pi / 4, abs_tol=1e-12) and self.beta0 == 0.0):
                raise ValueError("Hadamard-start trajectories begin at (pi/4, 0)")


@dataclass(frozen=True)
class BetaSchedule:
    """Azimuth schedule: base profile plus sine-series corrections.

    The corrections vanish at s = 0 and s = 1, so the endpoints always
    match the base profile exactly.
    """

    base: ScheduleBase
    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        if len(self.coeffs) > 3:
            raise ValueError("at most three correction coefficients are supported")


@dataclass(frozen=True)
class PathTrajectory:
    """Sampled loop on a uniform grid in normalized time s = t/tau."""

    spec: PathSpec
    schedule: BetaSchedule | None
    s: np.ndarray
    sin_alpha: np.ndarray
    cos_alpha: np.ndarray
    beta: np.ndarray
    dalpha_ds: np.ndarray
    dbeta_ds: np.ndarray

    def __len__(self):
        return len(self.s)

    @property
    def alpha(self) -> np.ndarray:
        """Polar angle from the stored sine and cosine; in [0, pi] where sin(alpha) >= 0."""
        return np.arctan2(self.sin_alpha, self.cos_alpha)


def circle_constant(gamma_g: float) -> float:
    """Radius constant C of the pole-start circle for a loop phase."""
    if not 0.0 <= gamma_g < math.pi:
        raise ValueError(f"loop phase must lie in [0, pi), got {gamma_g}")
    if gamma_g == 0.0:
        return 0.0
    return math.sqrt(2 * math.pi * gamma_g - gamma_g**2) / (math.pi - gamma_g)


def _half_angle(x):
    """sin(x) and cos(x) from one tangent: t = tan(x/2), 2t/(1+t^2), (1-t^2)/(1+t^2)."""
    t = np.tan(0.5 * x)
    w = 1.0 + t * t
    return 2.0 * t / w, (1.0 - t * t) / w


def _hadamard_root(cos_beta):
    """sin(alpha), cos(alpha) and q = sqrt(R^2 - 1) of the Hadamard loop."""
    a = 2 * SIN_PI_12 * cos_beta
    r2 = a * a + (2 * COS_PI_12) ** 2
    q = np.sqrt(r2 - 1.0)
    return (2 * COS_PI_12 * q - a) / r2, (2 * COS_PI_12 + a * q) / r2, q


def hadamard_alpha_of_beta(beta):
    """Polar angle of the Hadamard loop at azimuth ``beta``.

    The constraint is A sin(alpha) - c cos(alpha) = -1 with
    A = 2 sin(pi/12) cos(beta) and c = 2 cos(pi/12).  Writing A = R sin(psi)
    and c = R cos(psi) turns it into cos(alpha + psi) = 1/R, and R >= c > 1
    keeps 1/R below 1, so a root exists for every azimuth.  The roots are
    alpha = -psi +- arccos(1/R) (mod 2 pi).  Since |psi| <= pi/12 and
    arccos(1/R) lies in [1.02, pi/3], the minus root is negative (above pi
    once wrapped), so the branch in (0, pi/2) is unique: alpha = arccos(1/R) - psi,
    of sine (c q - A)/R^2 and cosine (c + A q)/R^2, q = sqrt(R^2 - 1).  It
    runs from alpha(0) = pi/4 to alpha(pi) = 5 pi/12.
    """
    sin_alpha, cos_alpha, _ = _hadamard_root(_half_angle(np.asarray(beta, dtype=float))[1])
    alpha = np.arctan2(sin_alpha, cos_alpha)
    return float(alpha) if alpha.ndim == 0 else alpha


@functools.lru_cache(maxsize=8)
def _schedule_basis(base: ScheduleBase, grid_points: int):
    """Grid s, the base azimuth and its derivative, and sin, cos(2 k pi s) for k = 1..3.

    Cached per (base, grid); every array is read-only, so no caller can
    change what the next one reads.
    """
    s = np.linspace(0.0, 1.0, grid_points)
    if base is ScheduleBase.HALF_TURN:
        beta = math.pi / 2 + math.pi * np.sin(math.pi * s / 2) ** 2
        dbeta = (math.pi**2 / 2) * np.sin(math.pi * s)
    else:
        beta = 2 * math.pi * np.sin(math.pi * s / 2) ** 2
        dbeta = math.pi**2 * np.sin(math.pi * s)
    sin_k = tuple(np.sin(2 * k * math.pi * s) for k in (1, 2, 3))
    cos_k = tuple(np.cos(2 * k * math.pi * s) for k in (1, 2, 3))
    for array in (s, beta, dbeta, *sin_k, *cos_k):
        array.flags.writeable = False
    return s, beta, dbeta, sin_k, cos_k


def beta_schedule(schedule: BetaSchedule, grid_points: int = DEFAULT_GRID_POINTS):
    """Uniform grid s in [0, 1], the azimuth on it and its derivative d(beta)/ds.

    Half turn:  beta = pi/2 + pi sin^2(pi s / 2) + sum_k a_k sin(2 k pi s)
    Full turn:  beta = 2 pi sin^2(pi s / 2) + sum_k a_k sin(2 k pi s)
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    s, beta, dbeta, sin_k, cos_k = _schedule_basis(schedule.base, grid_points)
    for k, a_k in enumerate(schedule.coeffs, start=1):
        beta = beta + a_k * sin_k[k - 1]
        dbeta = dbeta + 2 * k * math.pi * a_k * cos_k[k - 1]
    return s, beta, dbeta


def sample_trajectory(spec: PathSpec, schedule: BetaSchedule,
                      grid_points: int = DEFAULT_GRID_POINTS) -> PathTrajectory:
    """Sample the loop on a uniform grid in s with analytic derivatives.

    Pole-start loops tolerate schedules that retrace past the pole: the
    signed polar coordinate folds to |alpha|.  Loop integrals are even in
    alpha, so the accumulated phase is unaffected by the fold.
    """
    return _trajectory(spec, schedule, *beta_schedule(schedule, grid_points))


def _polar(spec: PathSpec, beta, dbeta):
    """sin(alpha), cos(alpha) and d(alpha)/ds at samples (beta, dbeta).  Pole start: alpha =
    2 arctan u, u = C sin(beta - pi/2), left signed.  Hadamard, by implicit differentiation:
    d(alpha)/d(beta) = 2 sin(pi/12) sin(beta) sin(alpha) / q."""
    if spec.kind is PathKind.POLE_START:
        C = circle_constant(spec.gamma_g)
        sin_phi, cos_phi = _half_angle(beta - math.pi / 2)
        u = C * sin_phi
        w = 1.0 + u * u
        return 2.0 * u / w, (1.0 - u * u) / w, 2.0 * C * cos_phi / w * dbeta
    sin_beta, cos_beta = _half_angle(beta)
    sin_alpha, cos_alpha, q = _hadamard_root(cos_beta)
    return sin_alpha, cos_alpha, 2 * SIN_PI_12 * sin_beta * sin_alpha / q * dbeta


def _trajectory(spec: PathSpec, schedule: BetaSchedule, s, beta, dbeta) -> PathTrajectory:
    """The loop on samples (s, beta, dbeta) that ``beta_schedule(schedule, ...)`` returned;
    a pole-start loop folds to alpha = 2 arctan|u|, so d(alpha)/ds flips where u < 0."""
    if spec.kind is PathKind.POLE_START and schedule.base is not ScheduleBase.HALF_TURN:
        raise ValueError("pole-start loops pair with the half-turn schedule")
    if spec.kind is PathKind.HADAMARD_START and schedule.base is not ScheduleBase.FULL_TURN:
        raise ValueError("Hadamard-start loops pair with the full-turn schedule")
    sin_alpha, cos_alpha, dalpha = _polar(spec, beta, dbeta)
    if spec.kind is PathKind.POLE_START:  # the sign of u is the sign of 2u/(1 + u^2)
        sin_alpha, dalpha = np.abs(sin_alpha), np.where(sin_alpha < 0.0, -1.0, 1.0) * dalpha

    return PathTrajectory(spec=spec, schedule=schedule, s=s, sin_alpha=sin_alpha,
                          cos_alpha=cos_alpha, beta=beta, dalpha_ds=dalpha, dbeta_ds=dbeta)


def trajectory_from_samples(spec: PathSpec, s, alpha, beta, dalpha_ds, dbeta_ds) -> PathTrajectory:
    """Wrap externally constructed samples (comparison loops, ad-hoc paths)."""
    s, alpha, beta, dalpha_ds, dbeta_ds = (np.asarray(a, dtype=float)
                                           for a in (s, alpha, beta, dalpha_ds, dbeta_ds))
    return PathTrajectory(spec, None, s, np.sin(alpha), np.cos(alpha), beta, dalpha_ds, dbeta_ds)


def geometric_phase(traj: PathTrajectory) -> float:
    """Loop phase (1/2) * integral of (1 - cos alpha) d(beta)."""
    from scipy.integrate import simpson

    integrand = 0.5 * (1.0 - traj.cos_alpha) * traj.dbeta_ds
    return float(simpson(integrand, x=traj.s))


def path_length(traj: PathTrajectory) -> float:
    """Arc length of the sampled loop on the unit sphere."""
    from scipy.integrate import simpson

    speed = np.sqrt(traj.dalpha_ds**2 + (traj.sin_alpha * traj.dbeta_ds) ** 2)
    return float(simpson(speed, x=traj.s))
