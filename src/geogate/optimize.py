"""Duration optimization over azimuth-schedule coefficients, and the
first-kind Bessel inversion used by the two-qubit drive construction.

The objective is the normalized gate duration: sample the loop for a trial
coefficient vector, take the peak of the dimensionless envelope, divide by
the amplitude budget.  Trials outside the coefficient box score +inf, and
so, with ``monotone`` set, do trials whose azimuth turns back (beta_dot < 0
somewhere, tested before the polar angle is computed).  The loop phase is
not checked: it is (1/2) * integral of (1 - cos alpha) d(beta) over a fixed
azimuth window, so no schedule can change it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._csv import write_csv
from .paths import (
    DEFAULT_GRID_POINTS,
    BetaSchedule,
    PathSpec,
    _trajectory,
    beta_schedule,
)

# location of the first maximum of J1 and the value there, float(j1(J1_ARGMAX))
# written out so that importing geogate does not load scipy
J1_ARGMAX = 1.8411837813406593
J1_MAX = 0.5818652242815964


def invert_bessel_j1(y, tol: float = 1e-12):
    """Unique x in [0, argmax) with J1(x) = y, by bracketed bisection."""
    from scipy.special import j1

    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    vals = np.atleast_1d(y)
    if np.any(vals < 0.0) or np.any(vals > J1_MAX):
        raise ValueError(f"value outside the invertible branch [0, {J1_MAX:.6f}]")
    lo = np.zeros_like(vals)
    hi = np.full_like(vals, J1_ARGMAX)
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        below = j1(mid) < vals
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    return float(x[0]) if scalar else x


@dataclass(frozen=True)
class OptimizationProblem:
    spec: PathSpec
    budget: "AmplitudeBudget"
    n: int = 3
    bound: float = 0.2
    monotone: bool = True
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.n > 3:
            raise ValueError("at most three correction coefficients")
        if self.bound <= 0:
            raise ValueError("coefficient bound must be positive")


@dataclass
class OptimizationResult:
    coeffs: tuple
    tau: float
    baseline_tau: float
    history: list = field(default_factory=list)

    def to_csv(self, path, gate_name="gate"):
        coeffs = list(self.coeffs) + [0.0] * (3 - len(self.coeffs))
        write_csv(path, ["gate", "a1", "a2", "a3", "tau_ns"],
                  [[gate_name], [coeffs[0]], [coeffs[1]], [coeffs[2]], [self.tau]])

    def history_to_csv(self, path):
        hist = np.array([list(c) + [t] for c, t in self.history])
        write_csv(path, [f"a{k+1}" for k in range(hist.shape[1] - 1)] + ["tau_ns"],
                  [hist[:, k] for k in range(hist.shape[1])])


def objective(coeffs, spec: PathSpec, budget, bound: float = 0.2,
              monotone: bool = True, grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """Normalized duration for a trial coefficient vector; +inf on rejection."""
    from .pulses import default_schedule, normalize_duration

    coeffs = tuple(float(a) for a in np.atleast_1d(coeffs))
    if any(abs(a) > bound for a in coeffs):
        return math.inf
    schedule = default_schedule(spec, coeffs)
    s, beta, dbeta = beta_schedule(schedule, grid_points)
    if monotone and dbeta.min() < 0.0:
        return math.inf
    return normalize_duration(_trajectory(spec, schedule, s, beta, dbeta), budget)


def optimize(problem: OptimizationProblem, seed: int = 0, n_starts: int = 16,
             max_evals_per_start: int = 500) -> OptimizationResult:
    """Multi-start simplex descent over the coefficient box.

    Start 0 is the zero vector; the remaining starts are drawn uniformly
    inside the box from a seeded generator, so results are reproducible.
    Returns the zero-coefficient baseline if no trial improves on it.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    history: list = []

    def recorded_objective(x):
        tau = objective(x, problem.spec, problem.budget, problem.bound,
                        problem.monotone, problem.grid_points)
        history.append((tuple(float(v) for v in x), tau))
        return tau

    baseline = recorded_objective(np.zeros(problem.n))
    best_tau = baseline
    best_coeffs = (0.0,) * problem.n
    for start in range(n_starts):
        if start == 0:
            x0 = np.zeros(problem.n)
        else:
            x0 = rng.uniform(-problem.bound / 2, problem.bound / 2, problem.n)
        with warnings.catch_warnings():
            # rejected trials return inf; the simplex bookkeeping subtracts them
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(recorded_objective, x0, method="Nelder-Mead",
                           options={"maxfev": max_evals_per_start,
                                    "xatol": 1e-6, "fatol": 1e-9})
        if np.isfinite(res.fun) and res.fun < best_tau:
            best_tau = float(res.fun)
            best_coeffs = tuple(float(v) for v in res.x)
    return OptimizationResult(coeffs=best_coeffs, tau=best_tau,
                              baseline_tau=baseline, history=history)
