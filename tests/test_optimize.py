import importlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import j1 as scipy_j1

from geogate.optimize import (
    J1_ARGMAX,
    J1_MAX,
    OptimizationProblem,
    OptimizationResult,
    _j1_and_derivative,
    _nelder_mead,
    invert_bessel_j1,
    objective,
    optimize,
)
from geogate.paths import (
    BetaSchedule,
    PathKind,
    ScheduleBase,
    beta_schedule,
    circle_constant,
    geometric_phase,
    sample_trajectory,
)
from geogate.pulses import CATALOG, DEFAULT_BUDGET, OPTIMIZED_COEFFS, default_schedule

TWO_PI = 2 * math.pi
SIN_PI_12 = math.sin(math.pi / 12)
COS_PI_12 = math.cos(math.pi / 12)


def reference_objective(coeffs, spec, budget, bound=0.2, grid_points=4001):
    """The objective written out per call: a fresh grid and fresh sines, then
    sin(alpha), cos(alpha) and d(alpha)/ds from one half-angle tangent of the
    azimuth, then the envelope peak."""
    coeffs = tuple(float(a) for a in coeffs)
    if any(abs(a) > bound for a in coeffs):
        return math.inf
    s = np.linspace(0.0, 1.0, grid_points)
    if spec.kind is PathKind.POLE_START:
        beta = math.pi / 2 + math.pi * np.sin(math.pi * s / 2) ** 2
        dbeta = (math.pi**2 / 2) * np.sin(math.pi * s)
    else:
        beta = 2 * math.pi * np.sin(math.pi * s / 2) ** 2
        dbeta = math.pi**2 * np.sin(math.pi * s)
    for k, a_k in enumerate(coeffs, start=1):
        beta = beta + a_k * np.sin(2 * k * math.pi * s)
        dbeta = dbeta + 2 * k * math.pi * a_k * np.cos(2 * k * math.pi * s)
    if dbeta.min() < 0.0:
        return math.inf
    x = beta - math.pi / 2 if spec.kind is PathKind.POLE_START else beta
    t = np.tan(0.5 * x)
    sin_x, cos_x = 2.0 * t / (1.0 + t * t), (1.0 - t * t) / (1.0 + t * t)
    if spec.kind is PathKind.POLE_START:
        C = circle_constant(spec.gamma_g)
        u = C * sin_x
        w = 1.0 + u * u
        sin_alpha, cos_alpha = 2.0 * np.abs(u) / w, (1.0 - u * u) / w
        dalpha = np.where(u < 0.0, -1.0, 1.0) * (2.0 * C * cos_x / w * dbeta)
    else:
        a = 2 * SIN_PI_12 * cos_x
        r2 = a * a + (2 * COS_PI_12) ** 2
        q = np.sqrt(r2 - 1.0)
        sin_alpha, cos_alpha = (2 * COS_PI_12 * q - a) / r2, (2 * COS_PI_12 + a * q) / r2
        dalpha = 2 * SIN_PI_12 * sin_x * sin_alpha / q * dbeta
    xi = np.sqrt(dalpha**2 + (dbeta * sin_alpha * cos_alpha) ** 2)
    return float(xi.max() / budget.omega0)


def envelope_per_azimuth(spec):
    """g(beta) = hypot(d alpha / d beta, sin alpha cos alpha) on the loop and its
    beta window, from closed forms independent of the library."""
    if spec.kind is PathKind.POLE_START:
        C = circle_constant(spec.gamma_g)

        def g(beta):
            x = C * math.sin(beta - math.pi / 2)
            alpha = 2 * math.atan(x)
            dalpha = 2 * C * math.cos(beta - math.pi / 2) / (1 + x * x)
            return math.hypot(dalpha, math.sin(alpha) * math.cos(alpha))
        return g, (math.pi / 2, 3 * math.pi / 2)

    def g(beta):
        # A sin(alpha) - B cos(alpha) = -1, A = 2 sin(pi/12) cos(beta), B = 2 cos(pi/12)
        A, B = 2 * SIN_PI_12 * math.cos(beta), 2 * COS_PI_12
        alpha = math.atan2(B, A) - math.asin(1 / math.hypot(A, B))
        # implicit derivative of the constraint with respect to beta
        dalpha = (2 * SIN_PI_12 * math.sin(alpha) * math.sin(beta)
                  / (A * math.cos(alpha) + B * math.sin(alpha)))
        return math.hypot(dalpha, math.sin(alpha) * math.cos(alpha))
    return g, (0.0, 2 * math.pi)


def minimum_duration(spec, budget):
    """tau_min = integral of g(beta) d(beta) / Omega0: with Omega_s = beta_dot g(beta)
    capped at Omega0, no monotone schedule of the loop is faster."""
    g, (lo, hi) = envelope_per_azimuth(spec)
    value, _ = quad(g, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value / budget.omega0


class TestBesselJ1:
    def test_peak_location(self):
        # J1_MAX is a literal so that importing geogate does not load scipy; pin it bit for bit
        assert J1_MAX == float(scipy_j1(J1_ARGMAX))
        # derivative vanishes at the branch maximum
        h = 1e-6
        assert abs(scipy_j1(J1_ARGMAX + h) - scipy_j1(J1_ARGMAX - h)) / (2 * h) < 1e-5


class TestInvertBesselJ1:
    def test_zero(self):
        assert invert_bessel_j1(0.0) == 0.0
        assert np.array_equal(invert_bessel_j1(np.zeros(3)), np.zeros(3))

    def test_series_matches_scipy(self):
        x = np.linspace(0.0, J1_ARGMAX, 10001)
        j, dj = _j1_and_derivative(x)
        assert np.abs(j - scipy_j1(x)).max() <= 4e-16
        h = 1e-6  # J1' against a central difference of scipy's J1
        assert np.abs(dj - (scipy_j1(x + h) - scipy_j1(x - h)) / (2 * h)).max() <= 1e-9

    def test_round_trip_to_the_last_bits(self):
        y = np.linspace(0.0, 0.999 * J1_MAX, 10001)
        assert np.abs(scipy_j1(invert_bessel_j1(y)) - y).max() <= 1e-15

    def test_branch_maximum(self):
        # J1' vanishes at the root; the safeguarded steps still end there
        x = invert_bessel_j1(J1_MAX)
        assert math.isfinite(x) and abs(x - J1_ARGMAX) <= 1e-7
        assert x <= J1_ARGMAX

    def test_coupled_drive_takes_six_newton_steps(self, monkeypatch):
        # the two-qubit drive's ratios g'/(2 sqrt(2) g) reach 0.5303
        module = importlib.import_module("geogate.optimize")  # geogate.optimize is the function
        calls = []

        def spy(x):
            calls.append(len(x))
            return series(x)

        series = module._j1_and_derivative
        monkeypatch.setattr(module, "_j1_and_derivative", spy)
        invert_bessel_j1(np.linspace(0.0, 0.5303300858899106, 4001))
        assert calls == [4001] * 6

    def test_round_trip_at_unity(self):
        assert invert_bessel_j1(scipy_j1(1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_reference_ratio(self):
        x = invert_bessel_j1(0.5303300858899106)
        assert 1.0 < x < J1_ARGMAX
        assert scipy_j1(x) == pytest.approx(0.5303300858899106, abs=1e-10)

    def test_round_trip_batch(self):
        y = np.linspace(0.0, J1_MAX * 0.999, 1000)
        x = invert_bessel_j1(y)
        assert np.abs(scipy_j1(x) - y).max() < 1e-10

    def test_above_branch_rejected(self):
        with pytest.raises(ValueError):
            invert_bessel_j1(0.59)
        with pytest.raises(ValueError):
            invert_bessel_j1(-0.01)


class TestObjective:
    def test_baseline_duration_pi8(self):
        tau = objective(np.zeros(3), CATALOG["pi8"], DEFAULT_BUDGET)
        assert tau == pytest.approx(19.66, abs=0.05)

    def test_reference_coeffs_pi8(self):
        tau = objective(OPTIMIZED_COEFFS["pi8"], CATALOG["pi8"], DEFAULT_BUDGET)
        assert tau == pytest.approx(16.71, abs=0.1)

    def test_reference_coeffs_hadamard_measured_value(self):
        # regression guard on what these coefficients actually produce;
        # finite-difference cross-checks of the synthesis pin this number
        tau = objective(OPTIMIZED_COEFFS["hadamard"], CATALOG["hadamard"], DEFAULT_BUDGET)
        assert tau == pytest.approx(20.006, abs=0.05)

    def test_out_of_bounds_rejected(self):
        assert objective([0.3, 0.0, 0.0], CATALOG["pi8"], DEFAULT_BUDGET) == math.inf

    def test_retracing_schedule_rejected(self):
        # strongly negative first coefficient drives beta_dot negative at s=0
        assert objective([-0.2, 0.0, 0.0], CATALOG["pi8"], DEFAULT_BUDGET) == math.inf

    def test_phase_preserved_for_accepted(self):
        coeffs = OPTIMIZED_COEFFS["hadamard"]
        spec = CATALOG["hadamard"]
        tau = objective(coeffs, spec, DEFAULT_BUDGET)
        assert math.isfinite(tau)
        traj = sample_trajectory(spec, default_schedule(spec, coeffs))
        assert geometric_phase(traj) == pytest.approx(spec.gamma_g, abs=1e-6)


class TestObjectiveBitExact:
    """The cached-basis objective returns the same float, bit for bit, as the
    per-call reference, inf included."""

    @pytest.mark.parametrize("gate,tau", [("pi8", 19.6485905054839),
                                          ("hadamard", 23.501571084789195)])
    def test_endpoint_rate_on_rounding_is_accepted(self, gate, tau):
        # d(beta)/ds(0) = 2 pi (a1 + 2 a2 + 3 a3) is zero only up to rounding;
        # the schedule's term-by-term sum lands on exactly 0.0, so the monotone
        # test accepts the trial. A differently ordered sum can tip it to inf.
        coeffs = (1.25e-4, 1.25e-4, -1.25e-4)
        spec = CATALOG[gate]
        _, _, dbeta = beta_schedule(default_schedule(spec, coeffs))
        assert dbeta[0] == 0.0
        assert objective(coeffs, spec, DEFAULT_BUDGET) == pytest.approx(tau, rel=1e-14)

    @pytest.mark.parametrize("gate", ["phase", "pi8", "hadamard"])
    def test_random_in_box_vectors(self, gate):
        spec = CATALOG[gate]
        rng = np.random.default_rng(20261018)
        X = rng.uniform(-0.2, 0.2, (200, 3))
        got = [objective(x, spec, DEFAULT_BUDGET) for x in X]
        want = [reference_objective(x, spec, DEFAULT_BUDGET) for x in X]
        assert got == want
        finite = sum(math.isfinite(v) for v in got)
        assert 0 < finite < len(X)

    def test_short_vectors_grids_and_box_edges(self):
        cases = [((), 4001), ((0.05,), 1001), ((0.2, -0.03), 2001),
                 ((0.21, 0.0, 0.0), 4001), ((0.0, 0.0, -0.2), 4001)]
        for gate in ("pi8", "hadamard"):
            for coeffs, n in cases:
                got = objective(coeffs, CATALOG[gate], DEFAULT_BUDGET, grid_points=n)
                want = reference_objective(coeffs, CATALOG[gate], DEFAULT_BUDGET, grid_points=n)
                assert got == want


class TestOptimizerAudit:
    """Dropping the loop-phase check from the objective rejects nothing it
    should, and no optimizer result beats the path-parameterisation bound."""

    @pytest.mark.parametrize("gate,expected", [("pi8", 13.53), ("hadamard", 14.94),
                                               ("phase", 16.35)])
    def test_minimum_duration_reference_values(self, gate, expected):
        assert minimum_duration(CATALOG[gate], DEFAULT_BUDGET) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("gate", ["phase", "pi8", "hadamard"])
    @pytest.mark.parametrize("seed", [4, 11])
    def test_history_keeps_phase_and_bound(self, gate, seed):
        spec = CATALOG[gate]
        problem = OptimizationProblem(spec, DEFAULT_BUDGET, grid_points=2001)
        result = optimize(problem, seed=seed, n_starts=3, max_evals_per_start=60)
        tau_min = minimum_duration(spec, DEFAULT_BUDGET)
        finite = [(c, tau) for c, tau in result.history if math.isfinite(tau)]
        assert len(finite) > 20
        for coeffs, tau in finite:
            traj = sample_trajectory(spec, default_schedule(spec, coeffs), 2001)
            assert geometric_phase(traj) == pytest.approx(spec.gamma_g, abs=1e-6)
            assert tau >= tau_min
        assert tau_min <= result.tau <= result.baseline_tau


class TestOptimize:
    def test_collapsed_bounds_return_baseline(self):
        problem = OptimizationProblem(CATALOG["pi8"], DEFAULT_BUDGET, bound=1e-12,
                                      grid_points=2001)
        result = optimize(problem, seed=1, n_starts=2, max_evals_per_start=40)
        assert result.coeffs == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
        assert result.tau == pytest.approx(result.baseline_tau, rel=1e-9)

    def test_improves_baseline_and_is_sound(self):
        problem = OptimizationProblem(CATALOG["pi8"], DEFAULT_BUDGET, grid_points=2001)
        result = optimize(problem, seed=7, n_starts=4, max_evals_per_start=200)
        assert result.tau < result.baseline_tau
        # re-evaluating the returned coefficients reproduces the duration
        re_tau = objective(result.coeffs, CATALOG["pi8"], DEFAULT_BUDGET, grid_points=2001)
        assert re_tau == pytest.approx(result.tau, abs=1e-9)

    def test_deterministic_under_seed(self):
        problem = OptimizationProblem(CATALOG["pi8"], DEFAULT_BUDGET, grid_points=1001)
        r1 = optimize(problem, seed=3, n_starts=3, max_evals_per_start=80)
        r2 = optimize(problem, seed=3, n_starts=3, max_evals_per_start=80)
        assert r1.coeffs == r2.coeffs
        assert r1.tau == r2.tau

    def test_monotone_validity_of_result(self):
        problem = OptimizationProblem(CATALOG["hadamard"], DEFAULT_BUDGET, grid_points=1001)
        result = optimize(problem, seed=5, n_starts=3, max_evals_per_start=150)
        sched = BetaSchedule(ScheduleBase.FULL_TURN, result.coeffs)
        traj = sample_trajectory(CATALOG["hadamard"], sched, 2001)
        assert traj.dbeta_ds.min() >= 0.0

    def test_history_recorded(self):
        problem = OptimizationProblem(CATALOG["pi8"], DEFAULT_BUDGET, grid_points=1001)
        result = optimize(problem, seed=2, n_starts=2, max_evals_per_start=50)
        assert len(result.history) > 50
        coeffs, tau = result.history[0]
        assert coeffs == (0.0, 0.0, 0.0)

    def test_result_csv(self, tmp_path):
        result = OptimizationResult(coeffs=(0.1, -0.02, 0.0), tau=17.5, baseline_tau=19.7)
        path = tmp_path / "opt.csv"
        result.to_csv(path, gate_name="pi8")
        text = path.read_text().splitlines()
        assert text[0] == "gate,a1,a2,a3,tau_ns"
        assert text[1].startswith("pi8,0.1,-0.02,0,17.5")


def scipy_nelder_mead(f, x0, maxfev, xatol=1e-6, fatol=1e-9):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return minimize(f, x0, method="Nelder-Mead",
                        options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})


def both_simplexes(f, x0, maxfev, xatol=1e-6, fatol=1e-9):
    """The points each Nelder-Mead asked for, and what each returned."""
    ported, reference = [], []

    def spy(calls):
        def g(x):
            calls.append(x.tolist())
            return f(x)
        return g

    x, fun = _nelder_mead(spy(ported), x0, maxfev, xatol, fatol)
    res = scipy_nelder_mead(spy(reference), x0, maxfev, xatol, fatol)
    return ported, reference, (x.tolist(), float(fun)), (res.x.tolist(), float(res.fun))


def only_the_origin(x):
    """0 at the origin, 1 elsewhere: every contraction fails, so the simplex shrinks."""
    return 0.0 if not np.any(x) else 1.0


class TestNelderMeadPort:
    """``_nelder_mead`` calls ``f`` on the points scipy's Nelder-Mead does."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gate", ["pi8", "hadamard"])
    def test_seeded_objectives(self, gate, n):
        rng = np.random.default_rng([n, len(gate)])
        f = lambda x: objective(x, CATALOG[gate], DEFAULT_BUDGET, grid_points=1001)
        for x0 in [np.zeros(n)] + [rng.uniform(-0.1, 0.1, n) for _ in range(3)]:
            ported, reference, got, want = both_simplexes(f, x0, 150)
            assert ported == reference
            assert got == want

    @pytest.mark.parametrize("maxfev", [1, 2, 3, 4])
    def test_budget_smaller_than_the_first_simplex(self, maxfev):
        f = lambda x: objective(x, CATALOG["pi8"], DEFAULT_BUDGET, grid_points=1001)
        ported, reference, got, want = both_simplexes(f, np.array([0.05, 0.0, -0.02]), maxfev)
        assert len(ported) == maxfev
        assert ported == reference
        assert got == want

    def test_every_vertex_rejected(self):
        ported, reference, got, want = both_simplexes(lambda x: math.inf,
                                                      np.array([0.3, 0.0, -0.3]), 40)
        assert len(ported) == 40
        assert ported == reference
        assert got == want and got[1] == math.inf

    def test_quadratic_stops_on_tolerance(self):
        f = lambda x: float(np.sum((x - np.array([0.3, -0.1])) ** 2))
        ported, reference, got, want = both_simplexes(f, np.array([1.0, -2.0]), 5000)
        assert len(ported) < 5000
        assert ported == reference
        assert got == want
        assert got[0] == pytest.approx([0.3, -0.1], abs=1e-5)

    def test_objective_may_write_to_its_argument(self):
        def scribbling(x):
            value = float(np.sum((x - 0.3) ** 2))
            x[:] = 1e3
            return value

        ported, reference, got, want = both_simplexes(scribbling, np.array([1.0, -2.0]), 300)
        assert ported == reference
        assert got == want

    @pytest.mark.parametrize("x0", [[0.0], [0.0, 0.0]])
    def test_plateau_ties(self, x0):
        # 0 up to a step, 1 beyond it: trial values tie with the vertices they test
        ported, reference, got, want = both_simplexes(
            lambda x: float(np.sum(x) > 1e-4), np.array(x0), 60)
        assert ported == reference
        assert got == want

    def test_nan_vertex_is_the_returned_value(self):
        ported, reference, got, want = both_simplexes(
            lambda x: 1.0 if x[0] == 0.0 else math.nan, np.array([0.0]), 2)
        assert ported == reference
        assert got[0] == want[0] == [0.0]
        assert math.isnan(got[1]) and math.isnan(want[1])

    @pytest.mark.parametrize("x0", [[0.0], [0.0, 0.0]])
    def test_shrink(self, x0):
        ported, reference, got, want = both_simplexes(only_the_origin, np.array(x0), 30)
        # the first reflection and inside contraction fail, so the next n calls
        # are the first simplex shrunk by half toward the origin
        n = len(x0)
        shrunk = [[0.5 * v for v in vertex] for vertex in ported[1:n + 1]]
        assert sorted(ported[n + 3:2 * n + 3]) == sorted(shrunk)
        assert ported == reference
        assert got == want == (x0, 0.0)

    @pytest.mark.parametrize("gate, seed", [("pi8", 3), ("hadamard", 7)])
    def test_optimize_end_to_end(self, gate, seed, monkeypatch):
        problem = OptimizationProblem(CATALOG[gate], DEFAULT_BUDGET, grid_points=1001)
        got = optimize(problem, seed=seed, n_starts=4, max_evals_per_start=120)

        def on_scipy(f, x0, maxfev, xatol, fatol):
            res = scipy_nelder_mead(f, x0, maxfev, xatol, fatol)
            return res.x, res.fun

        monkeypatch.setitem(optimize.__globals__, "_nelder_mead", on_scipy)
        want = optimize(problem, seed=seed, n_starts=4, max_evals_per_start=120)
        assert len(got.history) == 1 + 4 * 120
        assert got.history == want.history
        assert (got.coeffs, got.tau, got.baseline_tau) == (want.coeffs, want.tau,
                                                           want.baseline_tau)
