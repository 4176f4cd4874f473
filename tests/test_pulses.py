import math

import numpy as np
import pytest
from scipy.linalg import expm

from geogate.paths import BetaSchedule, PathKind, PathSpec, ScheduleBase, sample_trajectory
from geogate.pulses import (
    CATALOG,
    DEFAULT_BUDGET,
    OPTIMIZED_COEFFS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    AmplitudeBudget,
    composite_drive_pulse,
    default_schedule,
    dimensionless_envelope,
    drag_correct,
    normalize_duration,
    rabi_envelope,
    rotation_unitary,
    segment_unitary,
    synthesize,
    target_unitary,
    target_unitary_2q,
)

TWO_PI = 2 * math.pi


def alpha_max(gamma_g):
    """Largest polar angle of the pole-start circle: cos(alpha_m / 2) = 1 - gamma_g / pi."""
    return 2.0 * math.acos(1.0 - gamma_g / math.pi)


def half_turn_beta(s):
    """Uncorrected half-turn azimuth pi/2 + pi sin^2(pi s / 2)."""
    return math.pi / 2 + math.pi * math.sin(math.pi * s / 2) ** 2


def gate_distance(u, v):
    """Frobenius distance minimized over a global phase."""
    phase = np.angle(np.trace(np.asarray(v).conj().T @ np.asarray(u)))
    return np.linalg.norm(u - np.exp(1j * phase) * v)


class TestCatalog:
    def test_entries(self):
        assert CATALOG["pi8"].gamma_g == pytest.approx(math.pi / 8)
        assert CATALOG["pi8"].beta0 == pytest.approx(math.pi / 2)
        assert CATALOG["phase"].gamma_g == pytest.approx(math.pi / 4)
        assert CATALOG["hadamard"].alpha0 == pytest.approx(math.pi / 4)
        assert CATALOG["hadamard"].beta0 == 0.0

    def test_aliases(self):
        assert CATALOG["T"] is CATALOG["pi8"]
        assert CATALOG["h"] is CATALOG["hadamard"]
        with pytest.raises(KeyError):
            CATALOG["cnot"]


class TestDetuning:
    """``synthesize`` sets the detuning to -beta_dot sin^2(alpha) / tau."""

    def test_zero_at_pole(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=101)
        assert pulse.delta[0] == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_value_composed_from_parts(self):
        # at s = 1/2 the half-turn derivative is pi^2/2 and alpha = alpha_max;
        # cross-check the sampled derivative against finite differences
        pulse = synthesize(CATALOG["pi8"], grid_points=4001)
        traj = sample_trajectory(CATALOG["pi8"], default_schedule(CATALOG["pi8"]), 4001)
        tau = pulse.tau
        mid = len(traj) // 2
        expected = -(math.pi**2 / 2 / tau) * math.sin(alpha_max(math.pi / 8)) ** 2
        assert pulse.delta[mid] == pytest.approx(expected, rel=1e-10)
        assert pulse.delta == pytest.approx(-(traj.dbeta_ds / tau) * np.sin(traj.alpha) ** 2,
                                            rel=1e-15, abs=1e-15)

        h = 1e-6
        fd = (half_turn_beta(0.5 + h) - half_turn_beta(0.5 - h)) / (2 * h)
        assert -(fd / tau) * math.sin(traj.alpha[mid]) ** 2 == pytest.approx(
            pulse.delta[mid], rel=1e-8)

    def test_hadamard_endpoints_zero(self):
        pulse = synthesize(CATALOG["hadamard"], grid_points=101)
        assert pulse.delta[0] == pytest.approx(0.0, abs=1e-12)
        assert pulse.delta[-1] == pytest.approx(0.0, abs=1e-9)

    def test_bad_tau(self):
        # the duration is the peak envelope over the budget, so it can only
        # be non-positive through a non-positive budget, which is refused
        for omega0 in (0.0, -DEFAULT_BUDGET.omega0):
            with pytest.raises(ValueError):
                synthesize(CATALOG["pi8"], budget=AmplitudeBudget(omega0), grid_points=3)


class TestRabiEnvelope:
    def test_stationary_point_zero(self):
        traj = sample_trajectory(CATALOG["pi8"], default_schedule(CATALOG["pi8"]), 1001)
        env, _ = rabi_envelope(traj, 19.66)
        assert env[0] == pytest.approx(0.0, abs=1e-12)
        assert env[-1] == pytest.approx(0.0, abs=1e-9)

    def test_pi8_midpoint(self):
        tau = 19.66
        traj = sample_trajectory(CATALOG["pi8"], default_schedule(CATALOG["pi8"]), 4001)
        env, zeta = rabi_envelope(traj, tau)
        mid = len(traj) // 2
        am = alpha_max(math.pi / 8)
        assert env[mid] == pytest.approx((math.pi**2 / 2 / tau) * math.sin(am) * math.cos(am),
                                         rel=1e-9)
        assert zeta[mid] == pytest.approx(0.0, abs=1e-9)

    def test_hadamard_against_finite_differences(self):
        spec = CATALOG["hadamard"]
        tau = 23.49
        traj = sample_trajectory(spec, default_schedule(spec), 8001)
        env, zeta = rabi_envelope(traj, tau)
        ds = traj.s[1] - traj.s[0]
        fd_alpha = np.gradient(traj.alpha, ds)
        fd_beta = np.gradient(traj.beta, ds)
        fd_env = np.sqrt(fd_alpha**2 + (fd_beta * np.sin(traj.alpha) * np.cos(traj.alpha))**2) / tau
        interior = slice(10, -10)
        assert np.allclose(env[interior], fd_env[interior], rtol=1e-6, atol=1e-9)

    def test_zeta_continuous(self):
        for name in ("pi8", "hadamard"):
            spec = CATALOG[name]
            traj = sample_trajectory(spec, default_schedule(spec), 4001)
            _, zeta = rabi_envelope(traj, 20.0)
            assert np.abs(np.diff(zeta)).max() < 0.1


class TestNormalizeDuration:
    def test_pi8_duration(self):
        traj = sample_trajectory(CATALOG["pi8"], default_schedule(CATALOG["pi8"]), 4001)
        assert normalize_duration(traj, DEFAULT_BUDGET) == pytest.approx(19.66, abs=0.05)

    def test_hadamard_duration(self):
        traj = sample_trajectory(CATALOG["hadamard"], default_schedule(CATALOG["hadamard"]), 4001)
        assert normalize_duration(traj, DEFAULT_BUDGET) == pytest.approx(23.49, abs=0.05)

    def test_budget_scaling_exact(self):
        traj = sample_trajectory(CATALOG["phase"], default_schedule(CATALOG["phase"]), 2001)
        t1 = normalize_duration(traj, AmplitudeBudget(TWO_PI * 0.030))
        t2 = normalize_duration(traj, AmplitudeBudget(TWO_PI * 0.060))
        assert t1 == pytest.approx(2 * t2, rel=1e-14)

    @pytest.mark.parametrize("gate,coeffs", [("phase", ()), ("pi8", ()), ("hadamard", ()),
                                             *OPTIMIZED_COEFFS.items()])
    def test_root_of_the_peak_is_the_peak_of_the_root(self, gate, coeffs):
        spec = CATALOG[gate]
        traj = sample_trajectory(spec, default_schedule(spec, coeffs), 4001)
        want = float(dimensionless_envelope(traj).max() / DEFAULT_BUDGET.omega0)
        assert normalize_duration(traj, DEFAULT_BUDGET).hex() == want.hex()

    def test_envelope_peaks_at_budget(self):
        pulse = synthesize(CATALOG["pi8"])
        assert pulse.omega.max() == pytest.approx(DEFAULT_BUDGET.omega0, rel=1e-9)
        assert pulse.omega.min() >= 0.0


class TestSynthesize:
    def test_grid_and_tau(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=2001)
        assert len(pulse) == 2001
        assert pulse.t[0] == 0.0
        assert pulse.t[-1] == pytest.approx(pulse.tau)

    def test_endpoint_envelope_below_budget_fraction(self):
        for name in ("pi8", "phase"):
            pulse = synthesize(CATALOG[name])
            assert pulse.omega[0] < 1e-6 * pulse.omega0
            assert pulse.omega[-1] < 1e-6 * pulse.omega0

    def test_optimized_coeffs_shorten(self):
        for name in ("pi8", "hadamard"):
            spec = CATALOG[name]
            base = synthesize(spec)
            opt = synthesize(spec, default_schedule(spec, OPTIMIZED_COEFFS[name]))
            assert opt.tau < base.tau

    def test_phase_is_continuous(self):
        pulse = synthesize(CATALOG["hadamard"])
        assert np.abs(np.diff(pulse.phase)).max() < 0.1


class TestDragCorrect:
    def test_large_anharmonicity_limit(self):
        pulse = synthesize(CATALOG["pi8"])
        corrected = drag_correct(pulse, 1e9)
        assert np.allclose(corrected.drag, pulse.omega, atol=1e-9)

    def test_static_drive_uncorrected(self):
        n = 101
        from geogate.pulses import DrivePulse
        t = np.linspace(0, 10, n)
        pulse = DrivePulse(tau=10.0, t=t, delta=np.zeros(n),
                           omega=np.full(n, 0.1), phase=np.zeros(n),
                           beta_dot=np.zeros(n), zeta=np.zeros(n), omega0=0.1)
        corrected = drag_correct(pulse, TWO_PI * 0.220)
        assert np.allclose(corrected.drag, pulse.omega, atol=1e-12)

    def test_zero_anharmonicity_rejected(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=101)
        with pytest.raises(ValueError):
            drag_correct(pulse, 0.0)

    def test_quadrature_tracks_envelope_slope(self):
        anh = TWO_PI * 0.220
        pulse = drag_correct(synthesize(CATALOG["pi8"]), anh)
        om_dot = np.gradient(pulse.omega, pulse.t)
        assert np.allclose(pulse.drag.imag, -om_dot / (2 * anh), atol=1e-12)


class TestTargetUnitaries:
    def test_identity_at_zero_phase(self):
        spec = PathSpec(1e-9, 0.0, math.pi / 2, PathKind.POLE_START)
        assert gate_distance(target_unitary(spec), np.eye(2)) < 1e-8

    def test_pi8_relative_phase(self):
        u = target_unitary(CATALOG["pi8"])
        assert abs(u[0, 1]) < 1e-14 and abs(u[1, 0]) < 1e-14
        rel = np.angle(u[1, 1] / u[0, 0])
        assert abs(rel) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_hadamard_matches_hadamard_matrix(self):
        u = target_unitary(CATALOG["hadamard"])
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        assert gate_distance(u, hadamard) < 1e-12
        assert np.allclose(u, -1j * (SIGMA_X + SIGMA_Z) / math.sqrt(2), atol=1e-12)

    def test_target_matches_exponential_oracle(self):
        for name in ("phase", "pi8", "hadamard"):
            spec = CATALOG[name]
            n = np.array([math.sin(spec.alpha0) * math.cos(spec.beta0),
                          math.sin(spec.alpha0) * math.sin(spec.beta0),
                          math.cos(spec.alpha0)])
            gen = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
            expected = expm(-1j * spec.gamma_g * gen)
            assert np.allclose(target_unitary(spec), expected, atol=1e-12)

    def test_2q_identity(self):
        assert np.allclose(target_unitary_2q(0.0), np.eye(4), atol=1e-15)

    def test_2q_control_phase(self):
        u = target_unitary_2q(math.pi / 4)
        assert np.allclose(np.diag(u), [1, 1, 1, np.exp(-1j * math.pi / 4)], atol=1e-15)

    def test_2q_control_z(self):
        u = target_unitary_2q(math.pi)
        assert u[3, 3] == pytest.approx(-1.0, abs=1e-15)


class TestConstantAndCompositePulses:
    def test_rotation_unitary_against_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            ang = rng.uniform(-2 * math.pi, 2 * math.pi)
            gen = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
            assert np.allclose(rotation_unitary(axis, ang), expm(-1j * ang / 2 * gen),
                               atol=1e-12)

    def test_composite_total_duration(self):
        segs = [(-math.pi / 2, 0.0), (math.pi / 4, math.pi / 2), (math.pi / 2, 0.0)]
        pulse = composite_drive_pulse(segs, DEFAULT_BUDGET)
        assert pulse.tau == pytest.approx((5 * math.pi / 4) / DEFAULT_BUDGET.omega0, rel=1e-12)
        assert np.all(pulse.omega == DEFAULT_BUDGET.omega0)

    def test_segment_unitary_z_rotation(self):
        segs = [(-math.pi / 2, 0.0), (math.pi / 4, math.pi / 2), (math.pi / 2, 0.0)]
        assert gate_distance(segment_unitary(segs), target_unitary(CATALOG["pi8"])) < 1e-12
