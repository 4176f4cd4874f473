import math

import numpy as np
import pytest
from scipy.optimize import brentq

from geogate.pulses import dimensionless_envelope
from geogate.paths import (
    BetaSchedule,
    PathKind,
    PathSpec,
    ScheduleBase,
    _schedule_basis,
    _trajectory,
    beta_schedule,
    circle_constant,
    geometric_phase,
    hadamard_alpha_of_beta,
    path_length,
    sample_trajectory,
    trajectory_from_samples,
)

PI8 = PathSpec(math.pi / 8, 0.0, math.pi / 2, PathKind.POLE_START)
PHASE = PathSpec(math.pi / 4, 0.0, math.pi / 2, PathKind.POLE_START)
HADAMARD = PathSpec(math.pi / 2, math.pi / 4, 0.0, PathKind.HADAMARD_START)
HALF = BetaSchedule(ScheduleBase.HALF_TURN)
FULL = BetaSchedule(ScheduleBase.FULL_TURN)


def alpha_max(gamma_g):
    """Largest polar angle of the pole-start circle: cos(alpha_m / 2) = 1 - gamma_g / pi."""
    return 2.0 * math.acos(1.0 - gamma_g / math.pi)


def pole_alpha(gamma_g, beta):
    """Signed polar angle of the pole-start circle, tan(alpha/2) = C sin(beta - pi/2)."""
    return 2.0 * np.arctan(circle_constant(gamma_g) * np.sin(beta - math.pi / 2))


def great_circle_distance(traj):
    """Angle between the first and last samples of a loop."""
    a0, b0, a1, b1 = traj.alpha[0], traj.beta[0], traj.alpha[-1], traj.beta[-1]
    cosd = math.cos(a0) * math.cos(a1) + math.sin(a0) * math.sin(a1) * math.cos(b1 - b0)
    return math.acos(min(1.0, max(-1.0, cosd)))


def hadamard_residual(alpha, beta):
    return (2 * math.sin(math.pi / 12) * np.sin(alpha) * np.cos(beta)
            - 2 * math.cos(math.pi / 12) * np.cos(alpha) + 1.0)


def hadamard_alpha_closed_form(beta):
    """Independent solution of the Hadamard loop constraint.

    Writing the constraint as A sin(a) - B cos(a) = -1 with
    A = 2 sin(pi/12) cos(beta), B = 2 cos(pi/12) gives
    a = atan2(B, A) - asin(1/R), R = hypot(A, B).
    """
    A = 2 * math.sin(math.pi / 12) * np.cos(beta)
    B = 2 * math.cos(math.pi / 12)
    R = np.hypot(A, B)
    return np.arctan2(B, A) - np.arcsin(1.0 / R)


def trig_loop(spec, beta, dbeta):
    """sin(alpha), cos(alpha) and d(alpha)/ds from the trigonometric formulas:
    the polar angle by arctan (pole start) or arctan2, arccos and hypot
    (Hadamard), the Hadamard derivative by implicit differentiation."""
    if spec.kind is PathKind.POLE_START:
        C = circle_constant(spec.gamma_g)
        phi = beta - math.pi / 2
        signed = 2.0 * np.arctan(C * np.sin(phi))
        dsigned = 2.0 * C * np.cos(phi) / (1.0 + (C * np.sin(phi)) ** 2) * dbeta
        alpha = np.abs(signed)
        dalpha = np.where(signed < 0.0, -1.0, 1.0) * dsigned
    else:
        s12, c12 = math.sin(math.pi / 12), math.cos(math.pi / 12)
        a = 2 * s12 * np.cos(beta)
        alpha = math.pi - np.arctan2(a, 2 * c12) - np.arccos(-1.0 / np.hypot(a, 2 * c12))
        dalpha = (s12 * np.sin(alpha) * np.sin(beta)
                  / (s12 * np.cos(alpha) * np.cos(beta) + c12 * np.sin(alpha)) * dbeta)
    return np.sin(alpha), np.cos(alpha), dalpha


class TestCircleConstant:
    def test_zero_phase_degenerates(self):
        assert circle_constant(1e-15) == pytest.approx(0.0, abs=1e-7)

    def test_quarter_pi(self):
        # closed form sqrt(7)/3; cross-check against tan(alpha_m / 2)
        assert circle_constant(math.pi / 4) == pytest.approx(math.sqrt(7) / 3, rel=1e-14)
        assert circle_constant(math.pi / 4) == pytest.approx(
            math.tan(alpha_max(math.pi / 4) / 2), rel=1e-12)

    def test_eighth_pi(self):
        assert circle_constant(math.pi / 8) == pytest.approx(
            math.tan(alpha_max(math.pi / 8) / 2), rel=1e-12)
        assert circle_constant(math.pi / 8) == pytest.approx(0.5533, abs=5e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            circle_constant(-0.1)
        with pytest.raises(ValueError):
            circle_constant(math.pi)


class TestAlphaMax:
    """The sampled pole-start loop peaks at alpha_max, reached at s = 1/2 (beta = pi)."""

    def test_endpoints(self):
        # the peak tends to 0 and to pi at the ends of the loop-phase range
        for g, peak in ((1e-9, 0.0), (math.pi * (1 - 1e-9), math.pi)):
            spec = PathSpec(g, 0.0, math.pi / 2, PathKind.POLE_START)
            assert sample_trajectory(spec, HALF, 3).alpha[1] == pytest.approx(peak, abs=1e-4)

    def test_eighth_pi_against_numeric_inversion(self):
        root = brentq(lambda a: math.cos(a / 2) - 7 / 8, 0.0, math.pi, xtol=1e-14)
        assert sample_trajectory(PI8, HALF, 3).alpha[1] == pytest.approx(root, abs=1e-12)
        assert alpha_max(math.pi / 8) == pytest.approx(root, abs=1e-12)
        assert root == pytest.approx(1.0107, abs=5e-5)


class TestAlphaOfBeta:
    """Pole-start polar angles sampled by ``sample_trajectory``."""

    def test_starts_at_pole(self):
        for g in (0.3, math.pi / 8, math.pi / 4):
            spec = PathSpec(g, 0.0, math.pi / 2, PathKind.POLE_START)
            assert sample_trajectory(spec, HALF, 101).alpha[0] == pytest.approx(0.0, abs=1e-12)

    def test_reaches_alpha_max(self):
        assert sample_trajectory(PI8, HALF, 3).alpha[1] == pytest.approx(
            alpha_max(math.pi / 8), rel=1e-13)

    def test_closes_at_pole(self):
        assert sample_trajectory(PHASE, HALF, 101).alpha[-1] == pytest.approx(0.0, abs=1e-12)

    def test_outside_window(self):
        # a1 = -0.2 pulls beta below pi/2 just after the start: the signed
        # angle turns negative there and the sample folds to |alpha|
        traj = sample_trajectory(PI8, BetaSchedule(ScheduleBase.HALF_TURN, (-0.2,)), 401)
        signed = pole_alpha(math.pi / 8, traj.beta)
        assert signed.min() < 0.0
        assert np.allclose(traj.alpha, np.abs(signed), rtol=0, atol=1e-15)


class TestHadamardAlpha:
    def test_start_point(self):
        assert hadamard_alpha_of_beta(0.0) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_closure(self):
        assert hadamard_alpha_of_beta(2 * math.pi) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_antipode(self):
        # at cos(beta) = -1 the constraint reads 2 cos(alpha - pi/12) = 1
        assert hadamard_alpha_of_beta(math.pi) == pytest.approx(5 * math.pi / 12, abs=1e-12)

    def test_matches_closed_form_everywhere(self):
        beta = np.linspace(0.0, 2 * math.pi, 733)
        assert np.allclose(hadamard_alpha_of_beta(beta),
                           hadamard_alpha_closed_form(beta), atol=1e-12)

    def test_residual_below_tolerance(self):
        beta = np.linspace(0.0, 2 * math.pi, 211)
        assert np.abs(hadamard_residual(hadamard_alpha_of_beta(beta), beta)).max() < 1e-12

    def test_dense_branch_in_open_quarter_and_periodic(self):
        beta = np.linspace(0.0, 2 * math.pi, 40001)
        alpha = hadamard_alpha_of_beta(beta)
        assert np.abs(hadamard_residual(alpha, beta)).max() <= 1e-14
        assert np.all((alpha > 0.0) & (alpha < math.pi / 2))
        assert alpha[-1] == alpha[0]

    def test_scalar_returns_float(self):
        alpha = hadamard_alpha_of_beta(0.3)
        assert type(alpha) is float
        assert alpha == pytest.approx(hadamard_alpha_of_beta(np.array([0.3]))[0], abs=1e-15)


class TestAlgebraicLoop:
    """The half-angle trajectory against the trigonometric formulas it replaces."""

    @pytest.mark.parametrize("spec,base", [(PHASE, ScheduleBase.HALF_TURN),
                                           (PI8, ScheduleBase.HALF_TURN),
                                           (HADAMARD, ScheduleBase.FULL_TURN)])
    def test_random_in_box_vectors(self, spec, base):
        rng = np.random.default_rng(15)
        folded = 0
        for coeffs in [()] + [tuple(rng.uniform(-0.2, 0.2, 3)) for _ in range(40)]:
            traj = sample_trajectory(spec, BetaSchedule(base, coeffs))
            want = trig_loop(spec, traj.beta, traj.dbeta_ds)
            for got, ref in zip((traj.sin_alpha, traj.cos_alpha, traj.dalpha_ds), want):
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            xi = np.sqrt(want[2] ** 2 + (traj.dbeta_ds * want[0] * want[1]) ** 2)
            assert dimensionless_envelope(traj).max() == pytest.approx(xi.max(), rel=1e-14, abs=0)
            if spec.kind is PathKind.POLE_START:
                folded += bool((np.sin(traj.beta - math.pi / 2) < 0.0).any())
        assert folded > 0 or spec.kind is PathKind.HADAMARD_START

    @pytest.mark.parametrize("spec", [PHASE, PI8])
    def test_pole_start_fold_and_end_points(self, spec):
        # u = 0 at the start, u < 0 before it, phi = pi at the end, where the
        # half-angle tangent is about 1.6e16, and beyond the end
        beta = np.array([math.pi / 2, math.pi / 2 - 0.3, math.pi, 3 * math.pi / 2,
                         3 * math.pi / 2 + 0.2])
        dbeta = np.full_like(beta, 2.5)
        traj = _trajectory(spec, HALF, np.linspace(0, 1, 5), beta, dbeta)
        want = trig_loop(spec, beta, dbeta)
        for got, ref in zip((traj.sin_alpha, traj.cos_alpha, traj.dalpha_ds), want):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        # at phi = pi the tiny sin(alpha) keeps its relative accuracy
        assert 0.0 < traj.sin_alpha[3] == pytest.approx(want[0][3], rel=1e-14, abs=0)
        # the fold sign is +1 at u = 0 (not np.sign's 0) and -1 where u < 0
        assert traj.dalpha_ds[0] == 2.0 * circle_constant(spec.gamma_g) * 2.5
        assert traj.dalpha_ds[1] < 0.0 and traj.sin_alpha[1] > 0.0

    def test_hadamard_start_mid_and_closure(self):
        beta = np.array([0.0, math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi])
        dbeta = np.full_like(beta, 2.5)
        traj = _trajectory(HADAMARD, FULL, np.linspace(0, 1, 5), beta, dbeta)
        for got, ref in zip((traj.sin_alpha, traj.cos_alpha, traj.dalpha_ds),
                            trig_loop(HADAMARD, beta, dbeta)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert traj.alpha[2] == pytest.approx(5 * math.pi / 12, abs=1e-15)
        assert traj.dalpha_ds[2] == pytest.approx(0.0, abs=1e-15)


class TestBetaSchedule:
    def test_endpoints_half_turn(self):
        sched = BetaSchedule(ScheduleBase.HALF_TURN, (0.1, -0.05, 0.2))
        s, b, _ = beta_schedule(sched, 101)
        assert (s[0], s[-1]) == (0.0, 1.0)
        assert b[0] == pytest.approx(math.pi / 2, abs=1e-12)
        assert b[-1] == pytest.approx(3 * math.pi / 2, abs=1e-12)

    def test_endpoints_full_turn(self):
        sched = BetaSchedule(ScheduleBase.FULL_TURN, (0.2, 0.2, 0.2))
        _, b, _ = beta_schedule(sched, 101)
        assert b[0] == pytest.approx(0.0, abs=1e-12)
        assert b[-1] == pytest.approx(2 * math.pi, abs=1e-12)

    def test_midpoint_derivative(self):
        # analytic differentiation of the base profile at s = 1/2
        s, b, db = beta_schedule(HALF, 3)
        assert s[1] == 0.5
        assert b[1] == pytest.approx(math.pi, rel=1e-14)
        assert db[1] == pytest.approx(math.pi**2 / 2, rel=1e-14)

    def test_derivative_against_finite_differences(self):
        sched = BetaSchedule(ScheduleBase.FULL_TURN, (0.08, -0.03, 0.05))
        s, b, db = beta_schedule(sched, 40001)
        h = s[1] - s[0]
        assert np.allclose(db[1:-1], (b[2:] - b[:-2]) / (2 * h), rtol=0, atol=1e-7)

    def test_cached_basis_is_read_only(self):
        for base in ScheduleBase:
            s, b, db = beta_schedule(BetaSchedule(base), 11)
            s_k, b_k, db_k, sin_k, cos_k = _schedule_basis(base, 11)
            assert s is s_k and b is b_k and db is db_k
            for array in (s, b, db, *sin_k, *cos_k):
                with pytest.raises(ValueError):
                    array[0] = 1.0
        traj = sample_trajectory(PI8, BetaSchedule(ScheduleBase.HALF_TURN, (0.01,)), 11)
        with pytest.raises(ValueError):
            traj.s[0] = 1.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            beta_schedule(HALF, 1)

    def test_too_many_coeffs(self):
        with pytest.raises(ValueError):
            BetaSchedule(ScheduleBase.HALF_TURN, (0.1, 0.1, 0.1, 0.1))


class TestPathSpecValidation:
    def test_pole_start_requires_pole(self):
        with pytest.raises(ValueError):
            PathSpec(math.pi / 8, 0.1, math.pi / 2, PathKind.POLE_START)

    def test_pole_start_phase_range(self):
        with pytest.raises(ValueError):
            PathSpec(0.0, 0.0, math.pi / 2, PathKind.POLE_START)
        with pytest.raises(ValueError):
            PathSpec(math.pi, 0.0, math.pi / 2, PathKind.POLE_START)

    def test_hadamard_start_fixed(self):
        with pytest.raises(ValueError):
            PathSpec(math.pi / 2, 0.3, 0.0, PathKind.HADAMARD_START)
        with pytest.raises(ValueError):
            PathSpec(math.pi / 4, math.pi / 4, 0.0, PathKind.HADAMARD_START)


class TestSampleTrajectory:
    def test_pole_start_max_alpha(self):
        traj = sample_trajectory(PI8, HALF, 1001)
        assert traj.alpha.max() == pytest.approx(alpha_max(math.pi / 8), abs=1e-6)

    def test_hadamard_closure_through_start(self):
        traj = sample_trajectory(HADAMARD, FULL, 1001)
        assert traj.alpha[0] == pytest.approx(math.pi / 4, abs=1e-12)
        assert great_circle_distance(traj) < 1e-9

    def test_two_point_degenerate(self):
        traj = sample_trajectory(PHASE, HALF, 2)
        assert len(traj) == 2
        assert traj.alpha[0] == pytest.approx(0.0, abs=1e-12)
        assert traj.alpha[-1] == pytest.approx(0.0, abs=1e-9)

    def test_closure_all_catalog(self):
        for spec, sched in ((PI8, HALF), (PHASE, HALF), (HADAMARD, FULL)):
            traj = sample_trajectory(spec, sched, 801)
            assert great_circle_distance(traj) < 1e-9

    def test_mismatched_pairing(self):
        with pytest.raises(ValueError):
            sample_trajectory(PI8, FULL)
        with pytest.raises(ValueError):
            sample_trajectory(HADAMARD, HALF)

    def test_hadamard_derivative_against_finite_difference(self):
        traj = sample_trajectory(HADAMARD, FULL, 4001)
        ds = traj.s[1] - traj.s[0]
        interior = slice(1, -1)
        fd = (traj.alpha[2:] - traj.alpha[:-2]) / (2 * ds)
        assert np.allclose(traj.dalpha_ds[interior], fd, atol=5e-6)


class TestGeometricPhase:
    def test_zero_for_pole_point(self):
        spec = PI8
        s = np.linspace(0, 1, 101)
        traj = trajectory_from_samples(spec, s, np.zeros_like(s), np.full_like(s, 1.0),
                                       np.zeros_like(s), np.zeros_like(s))
        assert geometric_phase(traj) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("spec,sched,target", [
        (PI8, HALF, math.pi / 8),
        (PHASE, HALF, math.pi / 4),
        (HADAMARD, FULL, math.pi / 2),
    ])
    def test_catalog_loop_phases(self, spec, sched, target):
        traj = sample_trajectory(spec, sched, 4001)
        assert geometric_phase(traj) == pytest.approx(target, abs=1e-6)

    def test_schedule_independence_random_coeffs(self):
        # the loop phase depends on the loop alone, not on the traversal
        rng = np.random.default_rng(42)
        for _ in range(20):
            coeffs = tuple(rng.uniform(-0.2, 0.2, 3))
            for spec, base in ((PI8, ScheduleBase.HALF_TURN),
                               (HADAMARD, ScheduleBase.FULL_TURN)):
                traj = sample_trajectory(spec, BetaSchedule(base, coeffs), 4001)
                assert geometric_phase(traj) == pytest.approx(spec.gamma_g, abs=1e-6)


def orange_slice(spec, n=4001):
    """Two meridians through both poles separated by the loop phase."""
    s = np.linspace(0.0, 1.0, n)
    alpha = np.where(s <= 0.5, 2 * math.pi * s, 2 * math.pi * (1 - s))
    dalpha = np.where(s <= 0.5, 2 * math.pi, -2 * math.pi)
    beta = np.where(s <= 0.5, spec.beta0, spec.beta0 + spec.gamma_g)
    return trajectory_from_samples(spec, s, alpha, beta, dalpha, np.zeros_like(s))


class TestPathLength:
    def test_zero_for_pole_point(self):
        s = np.linspace(0, 1, 101)
        traj = trajectory_from_samples(PI8, s, np.zeros_like(s), s * 2 * math.pi,
                                       np.zeros_like(s), np.full_like(s, 2 * math.pi))
        assert path_length(traj) == pytest.approx(0.0, abs=1e-12)

    def test_circle_against_closed_form(self):
        # circle through the pole with maximal polar angle a_m has angular
        # radius a_m/2 and circumference 2 pi sin(a_m / 2)
        traj = sample_trajectory(PI8, HALF, 4001)
        expected = 2 * math.pi * math.sin(alpha_max(math.pi / 8) / 2)
        assert path_length(traj) == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(3.042, abs=5e-4)

    def test_orange_slice_is_two_pi(self):
        assert path_length(orange_slice(PI8)) == pytest.approx(2 * math.pi, rel=1e-9)

    @pytest.mark.parametrize("spec,sched", [(PI8, HALF), (PHASE, HALF), (HADAMARD, FULL)])
    def test_circle_shorter_than_orange_slice(self, spec, sched):
        circle = path_length(sample_trajectory(spec, sched, 4001))
        slice_len = path_length(orange_slice(spec))
        assert circle < slice_len
