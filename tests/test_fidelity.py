import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from geogate.dynamics import (
    COMPUTATIONAL_IDX,
    DecoherenceRates,
    ErrorFractions,
    TransmonParams,
    TwoQubitDrive,
    build_two_qubit_drive,
    evolve_lindblad,
    evolve_schrodinger,
    qubit_collapse,
    subspace_frame_unitary,
    three_level_hamiltonian,
    two_level_hamiltonian,
    two_qubit_collapse,
    two_qubit_full_hamiltonian,
)
from geogate.fidelity import (
    QUBIT_IDX,
    VARIANTS,
    FidelityTrace,
    _average_fidelity,
    _channel_basis,
    average_gate_fidelity_1q,
    average_gate_fidelity_2q,
    comparator_segments,
    dynamical_comparator,
    fidelity_dynamics,
    gate_variants,
    robustness_scan,
)
from dense_reference import drive_hamiltonian
from geogate.pulses import (
    CATALOG,
    DEFAULT_BUDGET,
    AmplitudeBudget,
    DrivePulse,
    TWO_QUBIT_COEFFS,
    default_schedule,
    drag_correct,
    segment_unitary,
    synthesize,
    target_unitary,
    target_unitary_2q,
)

TWO_PI = 2 * math.pi
RATES = DecoherenceRates(gamma_decay=TWO_PI * 3e-6, kappa_dephase=TWO_PI * 3e-6)
ANH = TWO_PI * 0.220


def theta_kets(n_theta):
    """Kets cos(theta)|0> + sin(theta)|1> on a trapezoid grid over [0, 2*pi], with weights."""
    theta = np.linspace(0.0, 2 * math.pi, n_theta)
    w = np.ones(n_theta)
    w[0] = w[-1] = 0.5
    return np.stack([np.cos(theta), np.sin(theta)], axis=1), w / w.sum()


def product_theta_kets(n_theta):
    """Product kets (n^2, 4), index 2 * (first qubit) + second, and their weights."""
    kets, w = theta_kets(n_theta)
    return (np.einsum("xa,yb->xyab", kets, kets).reshape(-1, 4),
            np.outer(w, w).ravel())


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestExactAverage:
    @pytest.mark.parametrize("idx", [(0, 1), (0, 1, 2, 3)])
    def test_unitary_channel_on_its_target_is_perfect(self, idx):
        # E(X) = U X U^dag with target U, including the identity channel
        n = len(idx)
        basis = _channel_basis(idx, n)
        for U in (np.eye(n), random_unitary(np.random.default_rng(n), n)):
            evolved = U @ basis @ U.conj().T
            assert _average_fidelity(evolved, U, idx) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("idx, expected", [((0, 1), 0.5), ((0, 1, 2, 3), 0.25)])
    def test_fully_depolarising_channel(self, idx, expected):
        # E(X) = tr(X) I/n gives F = 1/n for any target
        n = len(idx)
        basis = _channel_basis(idx, n)
        evolved = np.einsum("kii->k", basis)[:, None, None] * np.eye(n) / n
        target = random_unitary(np.random.default_rng(7), n)
        assert _average_fidelity(evolved, target, idx) == pytest.approx(expected, abs=1e-15)


class TestAverageGateFidelity1q:
    def test_closed_system_near_unity(self):
        pulse = synthesize(CATALOG["pi8"])
        target = target_unitary(CATALOG["pi8"])
        f = average_gate_fidelity_1q(pulse, target, dt=0.005)
        assert f >= 0.99999

    def test_channel_route_matches_states_route(self):
        # reference: evolve every theta state and average by the trapezoid rule
        pulse = synthesize(CATALOG["hadamard"], grid_points=1001)
        target = target_unitary(CATALOG["hadamard"])
        err = ErrorFractions(epsilon=0.05)
        kets, w = theta_kets(101)
        kets = kets.astype(complex)
        rho0 = np.einsum("ni,nj->nij", kets, kets.conj())
        rho = evolve_lindblad(two_level_hamiltonian(pulse, err), rho0, qubit_collapse(RATES),
                              (0.0, pulse.tau), dt=0.01).final
        finals = kets @ target.T
        f = np.einsum("ni,nij,nj->n", finals.conj(), rho, finals).real
        f_states = float(f @ w)
        f_channel = average_gate_fidelity_1q(pulse, target, rates=RATES, err=err, dt=0.01)
        assert f_channel == pytest.approx(f_states, abs=1e-12)

    def test_only_channel_method(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=201)
        with pytest.raises(ValueError):
            average_gate_fidelity_1q(pulse, target_unitary(CATALOG["pi8"]), method="states")

    def test_n_theta_has_no_effect(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=1001)
        target = target_unitary(CATALOG["pi8"])
        fs = {average_gate_fidelity_1q(pulse, target, rates=RATES, n_theta=n, dt=0.01)
              for n in (6, 51, 1001)}
        assert len(fs) == 1

    def test_fidelity_bounded(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=1001)
        target = target_unitary(CATALOG["pi8"])
        f = average_gate_fidelity_1q(pulse, target, rates=RATES,
                                     err=ErrorFractions(epsilon=0.1, delta=-0.1), dt=0.01)
        assert 0.0 <= f <= 1.0 + 1e-9


class TestDriveConvention:
    KW = dict(model="three_level", anharmonicity=ANH, rates=RATES, dt=0.01)

    def test_epsilon_scales_applied_drag_drive(self):
        # the amplitude error acts on the drive the transmon actually sees
        spec = CATALOG["pi8"]
        pulse = drag_correct(synthesize(spec), ANH)
        f_err = average_gate_fidelity_1q(pulse, target_unitary(spec),
                                         err=ErrorFractions(epsilon=0.1), **self.KW)
        scaled = replace(pulse, omega=1.1 * pulse.omega, drag=1.1 * pulse.drag)
        f_scaled = average_gate_fidelity_1q(scaled, target_unitary(spec), **self.KW)
        assert f_err == pytest.approx(f_scaled, abs=1e-12)

    def test_drag_quadrature_sign(self):
        # flipping the DRAG quadrature on |1><0| costs three parts in a thousand
        spec = CATALOG["pi8"]
        pulse = drag_correct(synthesize(spec), ANH)
        f = average_gate_fidelity_1q(pulse, target_unitary(spec), **self.KW)
        flipped = replace(pulse, drag=np.conj(pulse.drag))
        f_flipped = average_gate_fidelity_1q(flipped, target_unitary(spec), **self.KW)
        assert f == pytest.approx(0.999490, abs=1e-6)
        assert f_flipped == pytest.approx(0.996404, abs=1e-6)


class TestComparators:
    @pytest.mark.parametrize("name", ["phase", "pi8", "hadamard"])
    @pytest.mark.parametrize("style", ["canonical", "minimal"])
    def test_segments_realize_target(self, name, style):
        spec = CATALOG[name]
        segs = comparator_segments(spec, style)
        realized = segment_unitary(segs)
        ideal = target_unitary(spec)
        phase = np.angle(np.trace(ideal.conj().T @ realized))
        assert np.linalg.norm(realized - np.exp(1j * phase) * ideal) < 1e-12

    def test_canonical_durations(self):
        pulse_t, _ = dynamical_comparator(CATALOG["pi8"])
        assert pulse_t.tau == pytest.approx((math.pi + math.pi / 4) / DEFAULT_BUDGET.omega0,
                                            rel=1e-12)
        pulse_h, _ = dynamical_comparator(CATALOG["hadamard"])
        assert pulse_h.tau == pytest.approx((7 * math.pi / 2) / DEFAULT_BUDGET.omega0,
                                            rel=1e-12)

    def test_comparator_zero_error_fidelity(self):
        pulse, target = dynamical_comparator(CATALOG["pi8"])
        f = average_gate_fidelity_1q(pulse, target, dt=0.005)
        assert f >= 0.99999


class TestGateVariants:
    @pytest.mark.parametrize("alias, name", [("t", "pi8"), ("pi_over_8", "pi8"),
                                             ("pi-over-8", "pi8"), ("H", "hadamard")])
    def test_aliases_give_the_canonical_optimized_pulse(self, alias, name):
        got, target = gate_variants(alias, include=("geometric_po",))["geometric_po"]
        want, want_target = gate_variants(name, include=("geometric_po",))["geometric_po"]
        assert got.tau == want.tau
        assert np.array_equal(got.omega, want.omega) and np.array_equal(got.phase, want.phase)
        assert np.array_equal(target, want_target)

    def test_gate_without_reference_coefficients(self):
        with pytest.raises(KeyError):
            gate_variants("phase", include=("geometric_po",))

    @pytest.mark.parametrize("include", [("geometrc",), ("geometric", "dynamic"), "geometric"])
    def test_unknown_variant_is_rejected(self, include):
        with pytest.raises(ValueError, match="unknown variants"):
            gate_variants("pi8", include=include)


class TestRobustnessScan:
    def test_zero_point_matches_direct_evaluation(self):
        variants = gate_variants("pi8", include=("geometric",))
        scan, = robustness_scan(variants, ("epsilon",), np.array([-0.05, 0.0, 0.05]),
                                rates=RATES, dt=0.02)
        pulse, target = variants["geometric"]
        direct = average_gate_fidelity_1q(pulse, target, rates=RATES, dt=0.02)
        mid = scan.fidelities["geometric"][1]
        assert mid == pytest.approx(direct, abs=1e-12)

    def test_scan_direction_invariance(self):
        variants = gate_variants("pi8", include=("geometric",))
        values = np.linspace(-0.1, 0.1, 5)
        fwd, = robustness_scan(variants, ("delta",), values, rates=RATES, dt=0.02)
        bwd, = robustness_scan(variants, ("delta",), values[::-1], rates=RATES, dt=0.02)
        assert np.allclose(fwd.fidelities["geometric"],
                           bwd.fidelities["geometric"][::-1], atol=1e-13)

    def test_curve_single_peaked_near_zero(self):
        variants = gate_variants("pi8", include=("geometric",))
        values = np.linspace(-0.1, 0.1, 9)
        scan, = robustness_scan(variants, ("delta",), values, rates=RATES, dt=0.02)
        f = scan.fidelities["geometric"]
        peak = np.argmax(f)
        assert values[peak] == pytest.approx(0.0, abs=0.03)
        assert np.all(np.diff(f[:peak + 1]) > 0)
        assert np.all(np.diff(f[peak:]) < 0)

    @pytest.mark.parametrize("gate", ["pi8", "hadamard"])
    def test_joint_axes_are_the_per_axis_scans_bit_for_bit(self, gate):
        variants = gate_variants(gate)  # the dynamical comparator included
        values = np.linspace(-0.1, 0.1, 11)
        joint = robustness_scan(variants, ("delta", "epsilon"), values, rates=RATES, dt=0.05)
        assert [scan.axis for scan in joint] == ["delta", "epsilon"]
        for scan in joint:
            alone, = robustness_scan(variants, (scan.axis,), values, rates=RATES, dt=0.05)
            assert sorted(scan.fidelities) == sorted(VARIANTS)
            for name, f in scan.fidelities.items():
                assert np.array_equal(f.view(np.int64), alone.fidelities[name].view(np.int64))

    def test_joint_comparator_scan_peaks_no_higher_than_one_dense_axis(self):
        # both axes as one batch of tracks against one axis evolved from dense samples
        variants = gate_variants("hadamard", include=("dynamical",))
        pulse, _ = variants["dynamical"]
        values = np.linspace(-0.1, 0.1, 11)

        def dense_axis():
            def sampler(ts):
                return drive_hamiltonian(pulse, ts, values, 0.0)[..., None, :, :]
            evolve_lindblad(sampler, _channel_basis(QUBIT_IDX, 2), qubit_collapse(RATES),
                            (0.0, pulse.tau), 0.05)

        def joint():
            robustness_scan(variants, ("epsilon", "delta"), values, rates=RATES, dt=0.05)

        def traced_peak(run):
            run()  # caches filled
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(joint) <= 1.15 * traced_peak(dense_axis)

    def test_a_bare_axis_name_is_rejected(self):
        variants = gate_variants("pi8", include=("geometric",))
        with pytest.raises(ValueError, match="not the string 'epsilon'"):
            robustness_scan(variants, "epsilon", [0.0])

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="unknown scan axis 'sigma'"):
            robustness_scan({}, ("epsilon", "sigma"), np.array([0.0]))

    def test_no_values(self):
        variants = gate_variants("pi8", include=("geometric",))
        with pytest.raises(ValueError, match="at least one error value"):
            robustness_scan(variants, ("epsilon",), [])


class TestFidelityDynamics:
    def test_starts_at_unity(self):
        pulse = drag_correct(synthesize(CATALOG["pi8"], grid_points=1001), ANH)
        trace = fidelity_dynamics(pulse, [1.0, 1.0], model="three_level",
                                  anharmonicity=ANH, rates=RATES, dt=0.01)
        assert trace.fidelity[0] == pytest.approx(1.0, abs=1e-12)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(pulse.tau)

    def test_populations_sum_to_trace(self):
        pulse = drag_correct(synthesize(CATALOG["hadamard"], grid_points=1001), ANH)
        trace = fidelity_dynamics(pulse, [1.0, 0.0], model="three_level",
                                  anharmonicity=ANH, rates=RATES, dt=0.01)
        assert np.allclose(trace.populations.sum(axis=1), 1.0, atol=1e-8)

    def test_hadamard_final_populations(self):
        pulse = drag_correct(synthesize(CATALOG["hadamard"]), ANH)
        trace = fidelity_dynamics(pulse, [1.0, 0.0], model="three_level",
                                  anharmonicity=ANH, rates=RATES, dt=0.005)
        assert trace.populations[-1, 0] == pytest.approx(0.5, abs=5e-3)
        assert trace.populations[-1, 1] == pytest.approx(0.5, abs=5e-3)
        assert trace.populations[-1, 2] < 1e-3
        assert trace.fidelity[-1] > 0.999

    def test_recorded_states_are_density_matrices(self, monkeypatch):
        # no step symmetrizes the state: RK4 of the Hermiticity-preserving
        # generator keeps every recorded rho(t) = sum k_a k_b* E_t(|a><b|)
        # a density matrix by itself
        import geogate.fidelity as fid_mod
        runs = []

        def spy(*args, **kwargs):
            runs.append(evolve_lindblad(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(fid_mod, "evolve_lindblad", spy)
        pulse = drag_correct(synthesize(CATALOG["pi8"]), ANH)
        fidelity_dynamics(pulse, [1.0, 1.0], model="three_level", anharmonicity=ANH,
                          rates=RATES, dt=0.01)
        ket = np.array([1.0, 1.0]) / math.sqrt(2)
        states = np.einsum("k,tkij->tij", np.outer(ket, ket).ravel(), runs[0].states)
        assert len(states) > 90
        assert np.abs(states - states.conj().swapaxes(-1, -2)).max() <= 1e-13
        assert np.abs(np.einsum("tii->t", states) - 1.0).max() <= 1e-12
        assert np.linalg.eigvalsh(states).min() >= -1e-12

    @pytest.mark.parametrize("model, ket", [("two_level", [1.0, 1.0]),
                                            ("three_level", [1.0, 1.0]),
                                            ("three_level", [0.6, 0.8j])])
    def test_matches_padded_state_route(self, model, ket):
        # reference: the padded initial state evolved by itself, F(t) against
        # the ideal two-level ket padded with zeros
        pulse = synthesize(CATALOG["hadamard"], grid_points=1001)
        dim = 2 if model == "two_level" else 3
        if dim == 3:
            pulse = drag_correct(pulse, ANH)
        rates = DecoherenceRates(gamma_decay=TWO_PI * 3e-4, kappa_dephase=TWO_PI * 3e-4)
        err = ErrorFractions(epsilon=0.05, delta=-0.03)
        sampler = (two_level_hamiltonian(pulse, err) if dim == 2
                   else three_level_hamiltonian(pulse, ANH, err))
        k = np.asarray(ket, dtype=complex) / np.linalg.norm(ket)
        full = np.zeros(dim, dtype=complex)
        full[:2] = k
        res = evolve_lindblad(sampler, np.outer(full, full.conj()), qubit_collapse(rates, dim),
                              (0.0, pulse.tau), 0.01, record_stride=20)
        ref = evolve_schrodinger(two_level_hamiltonian(replace(pulse, drag=None)), k,
                                 (0.0, pulse.tau), 0.01, record_stride=20).states
        ref_full = np.zeros((len(ref), dim), dtype=complex)
        ref_full[:, :2] = ref
        fid = np.einsum("ti,tij,tj->t", ref_full.conj(), res.states, ref_full).real
        trace = fidelity_dynamics(pulse, ket, model=model, anharmonicity=ANH, rates=rates,
                                  err=err, dt=0.01, record_stride=20)
        assert np.array_equal(trace.times, res.times)
        assert np.abs(trace.fidelity - fid).max() <= 1e-13
        assert np.abs(trace.populations - np.einsum("tii->ti", res.states).real).max() <= 1e-13
        assert fid.min() < 0.999

    @pytest.mark.parametrize("model", ["two_level", "three_level"])
    def test_gate_fidelity_is_the_average_gate_fidelity(self, model):
        spec = CATALOG["pi8"]
        pulse = drag_correct(synthesize(spec, grid_points=1001), ANH)
        kw = dict(model=model, anharmonicity=ANH, rates=RATES,
                  err=ErrorFractions(epsilon=0.04), dt=0.01)
        trace = fidelity_dynamics(pulse, [1.0, 0.0], **kw)
        target = target_unitary(spec)
        assert trace.gate_fidelity(target) == pytest.approx(
            average_gate_fidelity_1q(pulse, target, **kw), abs=1e-14)


def paper_params():
    return TransmonParams(g=TWO_PI * 0.010, Delta=TWO_PI * 0.500,
                          anh_a=TWO_PI * 0.220, anh_b=TWO_PI * 0.200)


class TestAverageGateFidelity2q:
    def test_effective_model_closed_system(self):
        params = paper_params()
        spec = CATALOG["phase"]
        pulse = synthesize(spec, default_schedule(spec, TWO_QUBIT_COEFFS),
                           AmplitudeBudget(TWO_PI * 0.015), 4001)
        drive = build_two_qubit_drive(params, pulse, math.pi / 4)
        f = average_gate_fidelity_2q(params, drive, model="effective", dt=0.005)
        assert f >= 0.9999

    def test_identity_drive_perfect(self):
        params = paper_params()
        t = np.linspace(0, 5.0, 51)
        zeros = np.zeros(51)
        pulse = DrivePulse(tau=5.0, t=t, delta=zeros, omega=zeros, phase=zeros,
                           beta_dot=zeros, zeta=zeros, omega0=0.0)
        drive = TwoQubitDrive(pulse=pulse, eta=zeros, gamma_g_prime=0.0)
        f = average_gate_fidelity_2q(params, drive, model="effective", dt=0.005)
        assert f == pytest.approx(1.0, abs=1e-8)

    def test_effective_model_rejects_rates(self):
        params = paper_params()
        spec = CATALOG["phase"]
        pulse = synthesize(spec, default_schedule(spec, TWO_QUBIT_COEFFS),
                           AmplitudeBudget(TWO_PI * 0.015), 1001)
        drive = build_two_qubit_drive(params, pulse, math.pi / 4)
        with pytest.raises(ValueError):
            average_gate_fidelity_2q(params, drive, rates=RATES, model="effective")

    def test_full_model_matches_product_state_trapezoid(self):
        # reference: evolve every product state of a 7x7 theta grid in the
        # six-level model and average by the trapezoid rule
        params = paper_params()
        spec = CATALOG["phase"]
        pulse = synthesize(spec, default_schedule(spec, TWO_QUBIT_COEFFS),
                           AmplitudeBudget(TWO_PI * 0.015), 1001)
        drive = build_two_qubit_drive(params, pulse, math.pi / 4)
        rates = DecoherenceRates(gamma_decay=TWO_PI * 3e-4, kappa_dephase=TWO_PI * 2e-4)
        dt = 0.05
        kets, w = product_theta_kets(7)
        kets6 = np.zeros((len(kets), 6), dtype=complex)
        kets6[:, list(COMPUTATIONAL_IDX)] = kets
        rho = evolve_lindblad(two_qubit_full_hamiltonian(params, drive),
                              np.einsum("ni,nj->nij", kets6, kets6.conj()),
                              two_qubit_collapse(rates), (0.0, drive.tau), dt).final
        U = subspace_frame_unitary(drive)
        rho = U.conj().T @ rho @ U
        finals = np.zeros_like(kets6)
        finals[:, list(COMPUTATIONAL_IDX)] = kets @ target_unitary_2q(drive.gamma_g_prime).T
        f = np.einsum("ni,nij,nj->n", finals.conj(), rho, finals).real
        exact = average_gate_fidelity_2q(params, drive, rates=rates, model="full", dt=dt)
        assert exact == pytest.approx(float(f @ w), abs=1e-12)
        assert exact < 0.999

    def test_effective_model_matches_product_state_trapezoid(self):
        params = paper_params()
        spec = CATALOG["phase"]
        pulse = synthesize(spec, default_schedule(spec, TWO_QUBIT_COEFFS),
                           AmplitudeBudget(TWO_PI * 0.015), 1001)
        # a phase away from the loop's own makes the average nontrivial
        drive = replace(build_two_qubit_drive(params, pulse, math.pi / 4), gamma_g_prime=1.0)
        dt = 0.02
        psi = evolve_schrodinger(two_level_hamiltonian(drive.pulse),
                                 np.array([1.0, 0.0], dtype=complex), (0.0, drive.tau), dt).final
        kets, w = product_theta_kets(7)
        out = kets.astype(complex)
        out[:, 3] *= psi[0]
        finals = kets @ target_unitary_2q(drive.gamma_g_prime).T
        f = np.abs(np.einsum("ni,ni->n", finals.conj(), out)) ** 2
        exact = average_gate_fidelity_2q(params, drive, model="effective", dt=dt)
        assert exact == pytest.approx(float(f @ w), abs=1e-12)
        assert exact < 0.999

    def test_full_model_matches_the_full_vec_space_channel(self):
        # the sector-split channel against the 16 |a><b| evolved together
        # in the 36-dimensional vec space, through the same reduction
        params = paper_params()
        spec = CATALOG["phase"]
        pulse = synthesize(spec, default_schedule(spec, TWO_QUBIT_COEFFS),
                           AmplitudeBudget(TWO_PI * 0.015), 1001)
        drive = build_two_qubit_drive(params, pulse, math.pi / 4)
        rates = DecoherenceRates(gamma_decay=0.02, kappa_dephase=0.03)
        evolved = evolve_lindblad(two_qubit_full_hamiltonian(params, drive),
                                  _channel_basis(COMPUTATIONAL_IDX, 6),
                                  two_qubit_collapse(rates), (0.0, drive.tau), 0.02).final
        U = subspace_frame_unitary(drive)
        ref = _average_fidelity(U.conj().T @ evolved @ U,
                                target_unitary_2q(drive.gamma_g_prime), COMPUTATIONAL_IDX)
        f = average_gate_fidelity_2q(params, drive, rates=rates, model="full", dt=0.02)
        assert f == pytest.approx(float(ref), abs=1e-13)
        assert f < 0.5

    def test_reference_drive_values(self):
        # the criterion-7 drive: full model at a coarse step, effective model
        # at the step its control-phase test uses
        params = paper_params()
        spec = CATALOG["phase"]
        pulse = synthesize(spec, default_schedule(spec, TWO_QUBIT_COEFFS),
                           AmplitudeBudget(TWO_PI * 0.015))
        drive = build_two_qubit_drive(params, pulse, math.pi / 4)
        full = average_gate_fidelity_2q(params, drive, rates=RATES, model="full", dt=0.02)
        assert full == pytest.approx(0.9972166072253797, abs=1e-13)
        eff = average_gate_fidelity_2q(params, drive, model="effective", dt=0.002)
        assert eff == pytest.approx(0.9999999999999865, abs=1e-15)
