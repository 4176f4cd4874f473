"""Duration optimization over azimuth-schedule coefficients, and the
first-kind Bessel inversion used by the two-qubit drive construction.

The objective is the normalized gate duration: sample the loop for a trial
coefficient vector, take the peak of the dimensionless envelope, divide by
the amplitude budget.  Trials outside the coefficient box score +inf, and
so, with ``monotone`` set, do trials whose azimuth turns back (beta_dot < 0
somewhere: at s = 0 before the grid is built, then on it).  The loop phase is
not checked: it is (1/2) * integral of (1 - cos alpha) d(beta) over a fixed
azimuth window, so no schedule can change it.

The search is a multi-start Nelder-Mead simplex, run by ``_nelder_mead``: a
port of scipy's default unbounded rules, so ``optimize`` loads no scipy
module; nor does ``invert_bessel_j1``, which runs on the series of J1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._csv import write_csv
from .paths import (
    DEFAULT_GRID_POINTS,
    BetaSchedule,
    PathSpec,
    _polar,
    beta_schedule,
)

# location of the first maximum of J1 and the value there, float(scipy.special.j1(J1_ARGMAX))
J1_ARGMAX = 1.8411837813406593
J1_MAX = 0.5818652242815964

# J1(x) = (x/2) sum_k a_k u^k, J1'(x) = sum_k (k + 1/2) a_k u^k, u = -x^2/4 and
# a_k = 1/(k! (k+1)!) (Abramowitz and Stegun 9.1.10), 14 terms, highest power first
_J1_SERIES = np.array([[[1 / n], [(2 * k + 1) / (2 * n)]] for k in reversed(range(14))
                       for n in [math.factorial(k) * math.factorial(k + 1)]])


def _j1_and_derivative(x):
    """J1 and J1' at ``x`` from the series, both polynomials in one Horner pass."""
    u = -0.25 * x * x
    acc = _J1_SERIES[0] * u + _J1_SERIES[1]
    for a in _J1_SERIES[2:]:
        acc *= u
        acc += a
    return 0.5 * x * acc[0], acc[1]


def invert_bessel_j1(y, tol: float = 1e-12):
    """Unique x in [0, J1_ARGMAX] with J1(x) = y, by Newton steps until none exceeds
    ``tol``.  J1 rises and is concave on the branch and J1(2y) <= y, so the steps
    from x = 2y climb to the root; a step the rounding makes negative counts as
    zero, and x stops at J1_ARGMAX, where J1' vanishes and steps halve the gap."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    vals = np.atleast_1d(y)
    if np.any(vals < 0.0) or np.any(vals > J1_MAX):
        raise ValueError(f"value outside the invertible branch [0, {J1_MAX:.6f}]")
    x = 2 * vals
    step = np.inf
    while np.max(step, initial=0.0) > tol:
        j, dj = _j1_and_derivative(x)
        step = np.maximum(vals - j, 0.0) / np.maximum(dj, np.finfo(float).tiny)
        x = np.minimum(x + step, J1_ARGMAX)
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
    from .pulses import _envelope_squared, default_schedule

    coeffs = tuple(float(a) for a in np.atleast_1d(coeffs))
    rate = 0.0  # d(beta)/ds at s = 0, summed as beta_schedule sums it there
    for k, a_k in enumerate(coeffs, start=1):
        rate += 2 * k * math.pi * a_k
    if any(abs(a) > bound for a in coeffs) or monotone and rate < 0.0:
        return math.inf
    _, beta, dbeta = beta_schedule(default_schedule(spec, coeffs), grid_points)
    if monotone and dbeta.min() < 0.0:
        return math.inf
    return math.sqrt(_envelope_squared(*_polar(spec, beta, dbeta), dbeta).max()) / budget.omega0


class _Exhausted(Exception):
    """Raised in place of an objective call once ``maxfev`` calls are spent."""


def _ordered(sim, fsim):
    """Simplex vertices and values, sorted by value."""
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float):
    """Minimize ``f`` from ``x0`` by the Nelder-Mead simplex (Comput. J. 7, 308, 1965).

    A port of ``scipy.optimize.minimize(f, x0, method="Nelder-Mead")`` with
    no bounds, ``adaptive=False`` and no ``maxiter``: the same first simplex,
    trial points, ordering, ``maxfev`` count and ``xatol``/``fatol`` stop, in
    the same order of floating-point operations, so ``f`` sees the same
    points.  Returns the best vertex and the smallest simplex value.
    """
    n = len(x0)
    calls = 0

    def call(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return f(np.copy(x))

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _Exhausted:
        pass
    # scipy orders the first simplex twice; argsort need not keep ties in place
    sim, fsim = _ordered(*_ordered(sim, fsim))
    while calls < maxfev:
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol:
            with np.errstate(invalid="ignore"):  # inf - inf between rejected vertices
                if np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                    break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    keep = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
        except _Exhausted:
            pass
        sim, fsim = _ordered(sim, fsim)
    return sim[0], np.min(fsim)


def optimize(problem: OptimizationProblem, seed: int = 0, n_starts: int = 16,
             max_evals_per_start: int = 500) -> OptimizationResult:
    """Multi-start simplex descent over the coefficient box.

    Start 0 is the zero vector; the remaining starts are drawn uniformly
    inside the box from a seeded generator, so results are reproducible.
    Returns the zero-coefficient baseline if no trial improves on it.
    """
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
        x, fun = _nelder_mead(recorded_objective, x0, max_evals_per_start,
                              xatol=1e-6, fatol=1e-9)
        if np.isfinite(fun) and fun < best_tau:
            best_tau = float(fun)
            best_coeffs = tuple(float(v) for v in x)
    return OptimizationResult(coeffs=best_coeffs, tau=best_tau,
                              baseline_tau=baseline, history=history)
