import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j1 as scipy_j1

from geogate import dynamics
from geogate.dynamics import (
    COMPUTATIONAL_IDX,
    DecoherenceRates,
    ErrorFractions,
    HermitianTracks,
    TransmonParams,
    _drive_tracks,
    aux_states,
    TwoQubitDrive,
    _half_step_grid,
    build_two_qubit_drive,
    eta_waveform,
    evolve_lindblad,
    evolve_schrodinger,
    parallel_transport_check,
    propagator,
    qubit_collapse,
    subspace_frame_phase,
    subspace_frame_unitary,
    three_level_hamiltonian,
    two_level_hamiltonian,
    two_qubit_collapse,
    two_qubit_full_hamiltonian,
    IDX_01, IDX_02, IDX_10, IDX_11, IDX_20, LEVELS,
)
from geogate.fidelity import dynamical_comparator, fidelity_dynamics
from dense_reference import coupled_hamiltonian, drive_hamiltonian
from geogate.paths import sample_trajectory
from geogate.pulses import (
    CATALOG,
    DEFAULT_BUDGET,
    AmplitudeBudget,
    DrivePulse,
    TWO_QUBIT_COEFFS,
    default_schedule,
    drag_correct,
    synthesize,
    target_unitary,
)

TWO_PI = 2 * math.pi
RATES = DecoherenceRates(gamma_decay=TWO_PI * 3e-6, kappa_dephase=TWO_PI * 3e-6)
ANH = TWO_PI * 0.220


def ket_dm(ket):
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def zero_hamiltonian(dim):
    def sample(ts):
        ts = np.asarray(ts, dtype=float)
        return np.zeros(ts.shape + (dim, dim), dtype=complex)
    return sample


class TestLindbladBasics:
    def test_free_evolution_is_identity(self):
        rho0 = ket_dm([1.0, 1.0j])
        res = evolve_lindblad(zero_hamiltonian(2), rho0, [], (0.0, 5.0), dt=0.01)
        assert np.allclose(res.final, rho0, atol=1e-14)

    def test_amplitude_damping_closed_form(self):
        # under (Gamma/2) L(sigma_-) the excited population decays as
        # exp(-Gamma t) and the coherence as exp(-Gamma t / 2)
        gamma = TWO_PI * 3e-6
        rho0 = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
        t_end = 40.0
        res = evolve_lindblad(zero_hamiltonian(2), rho0,
                              qubit_collapse(DecoherenceRates(gamma_decay=gamma)),
                              (0.0, t_end), dt=0.01)
        assert res.final[1, 1].real == pytest.approx(0.75 * math.exp(-gamma * t_end), rel=1e-9)
        assert abs(res.final[0, 1]) == pytest.approx(0.25 * math.exp(-gamma * t_end / 2), rel=1e-9)

    def test_dephasing_closed_form(self):
        # (kappa/2) L(sigma_z) damps coherences at rate 2 kappa
        kappa = 1e-4
        rho0 = ket_dm([1.0, 1.0])
        t_end = 30.0
        res = evolve_lindblad(zero_hamiltonian(2), rho0,
                              qubit_collapse(DecoherenceRates(kappa_dephase=kappa)),
                              (0.0, t_end), dt=0.01)
        assert abs(res.final[0, 1]) == pytest.approx(0.5 * math.exp(-2 * kappa * t_end), rel=1e-9)
        assert res.final[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        pulse = synthesize(CATALOG["pi8"])
        sampler = two_level_hamiltonian(pulse)
        rho0 = ket_dm([1.0, 0.5])
        res = evolve_lindblad(sampler, rho0, qubit_collapse(RATES), (0.0, pulse.tau), dt=0.005)
        assert abs(np.trace(res.final).real - 1.0) < 1e-8
        assert np.abs(res.final - res.final.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(res.final).min() > -1e-9

    def test_batched_matches_loop(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=801)
        sampler = two_level_hamiltonian(pulse)
        kets = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], dtype=complex)
        rho0 = np.einsum("ni,nj->nij", kets, kets.conj())
        batched = evolve_lindblad(sampler, rho0, qubit_collapse(RATES),
                                  (0.0, pulse.tau), dt=0.01).final
        for i in range(3):
            single = evolve_lindblad(sampler, rho0[i], qubit_collapse(RATES),
                                     (0.0, pulse.tau), dt=0.01).final
            assert np.allclose(batched[i], single, atol=1e-14)

    def test_recorded_trajectory_endpoints(self):
        rho0 = ket_dm([0.0, 1.0])
        res = evolve_lindblad(zero_hamiltonian(2), rho0,
                              qubit_collapse(DecoherenceRates(gamma_decay=1e-3)),
                              (0.0, 10.0), dt=0.1, record_stride=10)
        assert res.recorded
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(10.0)
        assert np.allclose(res.states[0], rho0)


def dense(H):
    """Dense samples of a sampler's output, tracks or dense."""
    return H.dense() if isinstance(H, HermitianTracks) else H


def reference_rk4(hamiltonian, y0, rhs, t_span, dt, record_stride=None):
    """Plain per-step RK4 on the half-step grid, recording like the integrators."""
    t0, t1 = t_span
    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    ts = np.linspace(t0, t1, 2 * n_steps + 1)
    H = dense(hamiltonian(ts))
    y = np.array(y0, dtype=complex)
    times, states = [ts[0]], [y]
    for k in range(n_steps):
        k1 = rhs(H[2 * k], y)
        k2 = rhs(H[2 * k + 1], y + 0.5 * h * k1)
        k3 = rhs(H[2 * k + 1], y + 0.5 * h * k2)
        k4 = rhs(H[2 * k + 2], y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if record_stride and ((k + 1) % record_stride == 0 or k == n_steps - 1):
            times.append(ts[2 * k + 2])
            states.append(y)
    return (np.array(times), np.array(states)) if record_stride else y


def lindblad_rhs(collapse):
    def rhs(H, rho):
        out = -1j * (H @ rho - rho @ H)
        for r, L in collapse:
            Ld = L.conj().T
            out = out + r * (L @ rho @ Ld - 0.5 * (Ld @ L @ rho + rho @ Ld @ L))
        return out
    return rhs


def schrodinger_rhs(H, psi):
    return -1j * np.einsum("...ij,...j->...i", H, psi)


STRONG = DecoherenceRates(gamma_decay=0.02, kappa_dephase=0.03)


def two_qubit_inputs():
    params, drive = two_qubit_drive(grid_points=801)
    basis = np.zeros((3, 6, 6), dtype=complex)
    basis[0, IDX_11, IDX_11] = 1.0
    basis[1, IDX_01, IDX_11] = 1.0
    basis[2] = ket_dm(np.eye(6)[0] + np.eye(6)[IDX_10])
    return two_qubit_full_hamiltonian(params, drive), basis


def chunk_steps(d):
    """Steps per chunk of the real d^2 x d^2 generator of one unbatched density matrix."""
    return dynamics._chunk_steps(d * d, 1)


class TestRK4Core:
    """The composed core against a plain per-step RK4."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_lindblad_decay_and_dephasing(self, dim):
        pulse = drag_correct(synthesize(CATALOG["pi8"], grid_points=801), ANH)
        sampler = (two_level_hamiltonian(pulse) if dim == 2
                   else three_level_hamiltonian(pulse, ANH))
        collapse = qubit_collapse(STRONG, dim)
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[:2, :2] = ket_dm([0.6, 0.8j])
        got = evolve_lindblad(sampler, rho0, collapse, (0.0, pulse.tau), dt=0.02).final
        ref = reference_rk4(sampler, rho0, lindblad_rhs(collapse), (0.0, pulse.tau), 0.02)
        assert np.abs(got - ref).max() <= 1e-12

    def test_scan_point_axis(self):
        pulse = synthesize(CATALOG["hadamard"], grid_points=801)
        eps = np.linspace(-0.1, 0.1, 5)

        def sampler(ts):
            return drive_hamiltonian(pulse, ts, eps, 0.0)[:, :, None]

        basis = np.zeros((4, 2, 2), dtype=complex)
        for k in range(4):
            basis[k].flat[k] = 1.0
        collapse = qubit_collapse(STRONG, 2)
        got = evolve_lindblad(sampler, basis, collapse, (0.0, pulse.tau), dt=0.05).final
        ref = reference_rk4(sampler, np.broadcast_to(basis, (5, 4, 2, 2)),
                            lindblad_rhs(collapse), (0.0, pulse.tau), 0.05)
        assert got.shape == (5, 4, 2, 2)
        assert np.abs(got - ref).max() <= 1e-12

    def test_six_level_lindblad(self):
        sampler, rho0 = two_qubit_inputs()
        collapse = two_qubit_collapse(STRONG)
        got = evolve_lindblad(sampler, rho0, collapse, (0.0, 3.0), dt=0.01,
                              record_stride=40)
        times, ref = reference_rk4(sampler, rho0, lindblad_rhs(collapse), (0.0, 3.0), 0.01,
                                   record_stride=40)
        assert np.array_equal(got.times, times)
        assert np.abs(got.states - ref).max() <= 1e-12

    def test_six_level_schrodinger(self):
        sampler, _ = two_qubit_inputs()
        psi0 = np.eye(6, dtype=complex)[[IDX_11, IDX_01]]
        got = evolve_schrodinger(sampler, psi0, (0.0, 20.0), dt=0.01).final
        ref = reference_rk4(sampler, psi0, schrodinger_rhs, (0.0, 20.0), 0.01)
        assert np.abs(got - ref).max() <= 1e-12

    def test_span_longer_than_one_chunk(self):
        pulse = drag_correct(synthesize(CATALOG["pi8"], grid_points=801), ANH)
        sampler = three_level_hamiltonian(pulse, ANH)
        n_steps = round(pulse.tau / 0.005)
        assert n_steps > 3 * chunk_steps(3)
        collapse = qubit_collapse(STRONG, 3)
        rho0 = ket_dm([1.0, 0.0, 0.0])
        got = evolve_lindblad(sampler, rho0, collapse, (0.0, pulse.tau), dt=0.005).final
        ref = reference_rk4(sampler, rho0, lindblad_rhs(collapse), (0.0, pulse.tau), 0.005)
        assert np.abs(got - ref).max() <= 1e-12

    # 1 and 6 steps fit in one chunk of the d = 3 generator; 300 spans three
    @pytest.mark.parametrize("stride", [1, 6, 300])
    def test_record_stride_not_dividing_steps(self, stride):
        pulse = drag_correct(synthesize(CATALOG["pi8"], grid_points=801), ANH)
        sampler = three_level_hamiltonian(pulse, ANH)
        n_steps = round(pulse.tau / 0.01)
        assert n_steps % stride != 0 or stride == 1
        assert (stride < chunk_steps(3)) == (stride < 300)
        assert 2 * chunk_steps(3) < 300 < 3 * chunk_steps(3)
        collapse = qubit_collapse(STRONG, 3)
        rho0 = ket_dm([1.0, 1.0, 0.0])
        got = evolve_lindblad(sampler, rho0, collapse, (0.0, pulse.tau), dt=0.01,
                              record_stride=stride)
        times, ref = reference_rk4(sampler, rho0, lindblad_rhs(collapse), (0.0, pulse.tau),
                                   0.01, record_stride=stride)
        assert len(got.times) == n_steps // stride + 1 + (n_steps % stride != 0)
        assert np.array_equal(got.times, times)
        assert np.abs(got.states - ref).max() <= 1e-12

    def test_recorded_kets(self):
        pulse = synthesize(CATALOG["hadamard"], grid_points=801)
        sampler = two_level_hamiltonian(pulse)
        psi0 = np.stack(aux_states(0.4, 1.1))
        got = evolve_schrodinger(sampler, psi0, (0.0, pulse.tau), dt=0.01, record_stride=9)
        times, ref = reference_rk4(sampler, psi0, schrodinger_rhs, (0.0, pulse.tau), 0.01,
                                   record_stride=9)
        assert np.array_equal(got.times, times)
        assert np.abs(got.states - ref).max() <= 1e-12


class TestSchrodinger:
    def test_unitarity(self):
        pulse = synthesize(CATALOG["hadamard"])
        U = propagator(two_level_hamiltonian(pulse), 2, (0.0, pulse.tau), dt=0.002)
        assert np.linalg.norm(U.conj().T @ U - np.eye(2)) < 1e-9

    def test_rabi_half_period_inverts_population(self):
        om = 0.05
        def sampler(ts):
            ts = np.asarray(ts, dtype=float)
            H = np.zeros(ts.shape + (2, 2), dtype=complex)
            H[..., 0, 1] = om / 2
            H[..., 1, 0] = om / 2
            return H
        psi = evolve_schrodinger(sampler, np.array([1.0, 0.0], dtype=complex),
                                 (0.0, math.pi / om), dt=0.01).final
        assert abs(psi[1]) == pytest.approx(1.0, abs=1e-9)


class TestErrorInjection:
    def test_zero_errors_identity(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=401)
        ts = np.linspace(0, pulse.tau, 7)
        h0 = two_level_hamiltonian(pulse)(ts).h
        assert np.array_equal(two_level_hamiltonian(pulse, ErrorFractions())(ts).h, h0)

    def test_epsilon_scales_drive(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=401)
        ts = np.linspace(0, pulse.tau, 7)
        H0 = two_level_hamiltonian(pulse)(ts).dense()
        H1 = two_level_hamiltonian(pulse, ErrorFractions(epsilon=0.1))(ts).dense()
        assert np.allclose(H1[..., 1, 0], 1.1 * H0[..., 1, 0], atol=1e-15)
        assert np.allclose(H1[..., 0, 0], H0[..., 0, 0], atol=1e-15)

    def test_delta_offsets_splitting(self):
        pulse = synthesize(CATALOG["pi8"], grid_points=401)
        ts = np.array([0.0, pulse.tau / 3])
        dH = (two_level_hamiltonian(pulse, ErrorFractions(delta=-0.1))(ts).dense()
              - two_level_hamiltonian(pulse)(ts).dense())
        assert np.allclose(dH[..., 1, 1], -0.05 * pulse.omega0, atol=1e-15)
        assert np.allclose(dH[..., 0, 0], +0.05 * pulse.omega0, atol=1e-15)

    def test_out_of_range_warns(self):
        with pytest.warns(UserWarning):
            ErrorFractions(epsilon=0.5)


TRACK_PULSES = {
    "plain": lambda: synthesize(CATALOG["pi8"]),
    "drag": lambda: drag_correct(synthesize(CATALOG["pi8"]), ANH),
    # constant segments at zero detuning: the samples hold signed zeros
    "comparator": lambda: dynamical_comparator(CATALOG["hadamard"])[0],
}
TRACK_ERRORS = {
    "none": (0.0, 0.0),
    "epsilon": (np.linspace(-0.1, 0.1, 11), 0.0),
    "delta": (0.0, np.linspace(-0.1, 0.1, 11)),
    "both": (np.linspace(-0.1, 0.1, 5), np.linspace(0.1, -0.1, 5)),
}


def assert_tracks_project(tracks, H):
    """``tracks`` hold ``_hermitian_tracks`` of the dense samples H bit for bit,
    signed zeros included; the track of an entry H leaves zero everywhere is +0.0."""
    ref = dynamics._hermitian_tracks(H)
    assert not (ref.on & ~tracks.on).any()  # every entry nonzero somewhere has a track
    active = np.flatnonzero(tracks.on.ravel()).tolist()
    columns = [active.index(nu) for nu in np.flatnonzero(ref.on.ravel())]
    assert np.array_equal(tracks.h[..., columns].view(np.int64), ref.h.view(np.int64))
    assert not np.delete(tracks.h, columns, axis=-1).view(np.int64).any()


def dense_tolerance(H):
    """A few ulp of the largest entry: the rounding of sum_nu h_nu B_nu."""
    return 4 * np.finfo(float).eps * np.abs(H).max()


class TestDriveTracks:
    """``_drive_tracks`` writes the h_nu of the drive directly; they are the
    projection of the dense reference samples, bit for bit."""

    @pytest.mark.parametrize("errors", TRACK_ERRORS)
    @pytest.mark.parametrize("kind", TRACK_PULSES)
    @pytest.mark.parametrize("d", [2, 3])
    def test_tracks_are_the_projection_of_the_dense_samples(self, d, kind, errors):
        pulse = TRACK_PULSES[kind]()
        ts = _half_step_grid((0.0, pulse.tau), 0.01)[0]
        anh = ANH if d == 3 else None
        tracks = _drive_tracks(pulse, ts, *TRACK_ERRORS[errors], anharmonicity=anh)
        H = drive_hamiltonian(pulse, ts, *TRACK_ERRORS[errors], anharmonicity=anh)
        assert tracks.shape == H.shape and tracks.nbytes == tracks.h.nbytes
        assert_tracks_project(tracks, H)
        assert np.abs(tracks.dense() - H).max() <= dense_tolerance(H)

    @pytest.mark.parametrize("rates", [STRONG, DecoherenceRates()], ids=["strong", "closed"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_evolution_from_tracks_is_the_dense_evolution(self, d, rates, monkeypatch):
        pulse = TRACK_PULSES["drag"]()
        eps, anh = np.linspace(-0.1, 0.1, 3), (ANH if d == 3 else None)
        basis = computational_basis(d, (0, 1))

        def dense_samples(ts):
            return drive_hamiltonian(pulse, ts, eps, 0.0, anh)[:, :, None]

        def tracked(ts):
            tracks = _drive_tracks(pulse, ts, eps, 0.0, anh)
            return replace(tracks, h=tracks.h[:, :, None])

        def run(sampler):
            return evolve_lindblad(sampler, basis, qubit_collapse(rates, d), (0.0, pulse.tau),
                                   dt=0.02, record_stride=100)

        want = run(dense_samples)
        monkeypatch.setattr(dynamics, "_hermitian_tracks", refuse_dense)
        got = run(tracked)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.states.view(np.int64), want.states.view(np.int64))


def refuse_dense(*args):
    raise AssertionError("dense samples were converted to tracks")


def exchange_on():
    """The entries of the three exchange terms of the coupled pair."""
    on = np.zeros((6, 6), dtype=bool)
    for i, j in [(IDX_10, IDX_01), (IDX_11, IDX_02), (IDX_20, IDX_11)]:
        on[i, j] = on[j, i] = True
    return on


COUPLED_DRIVES = {
    "criterion_7": lambda: two_qubit_drive(grid_points=4001),
    # eta = 0 and zero phases: the samples at t = 0 hold signed zeros
    "unmodulated": lambda: (paper_params(), constant_subspace_drive(10.0, 101)),
}


class TestCoupledTracks:
    """``two_qubit_full_hamiltonian`` writes the tracks of its three exchange terms
    directly; they are the projection of the dense reference samples, bit for bit."""

    @pytest.mark.parametrize("drive", COUPLED_DRIVES)
    def test_tracks_are_the_projection_of_the_dense_samples(self, drive):
        params, drive = COUPLED_DRIVES[drive]()
        ts = _half_step_grid((0.0, drive.tau), 0.02)[0]
        tracks = two_qubit_full_hamiltonian(params, drive)(ts)
        H = coupled_hamiltonian(params, drive)(ts)
        assert tracks.shape == H.shape == (len(ts), 6, 6) and tracks.nbytes == tracks.h.nbytes
        assert np.array_equal(tracks.on, exchange_on()) and tracks.h.shape == (len(ts), 6)
        assert_tracks_project(tracks, H)
        assert np.array_equal(dynamics._hermitian_tracks(H).on, tracks.on)
        assert np.abs(tracks.dense() - H).max() <= dense_tolerance(H)

    @pytest.mark.parametrize("rates", [STRONG, DecoherenceRates()], ids=["strong", "closed"])
    def test_evolution_from_tracks_is_the_dense_evolution(self, rates, monkeypatch):
        params, drive = two_qubit_drive(grid_points=801)
        basis = computational_basis(6, COMPUTATIONAL_IDX)
        psi0 = np.eye(6, dtype=complex)[[IDX_11, IDX_01]]
        span = (0.0, drive.tau)

        def run(sampler):
            rho = evolve_lindblad(sampler, basis, two_qubit_collapse(rates), span, dt=0.02,
                                  record_stride=100)
            psi = evolve_schrodinger(sampler, psi0, span, dt=0.02, record_stride=100)
            return np.concatenate([rho.states.ravel(), psi.states.ravel()])

        want = run(coupled_hamiltonian(params, drive))
        monkeypatch.setattr(dynamics, "_hermitian_tracks", refuse_dense)
        got = run(two_qubit_full_hamiltonian(params, drive))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestThreeLevel:
    def test_diagonal_without_drive(self):
        from geogate.pulses import DrivePulse
        n = 11
        t = np.linspace(0, 10, n)
        pulse = DrivePulse(tau=10.0, t=t, delta=np.zeros(n), omega=np.zeros(n),
                           phase=np.zeros(n), beta_dot=np.zeros(n),
                           zeta=np.zeros(n), omega0=0.1)
        H = three_level_hamiltonian(pulse, ANH)(np.array([1.0])).dense()[0]
        assert np.allclose(H, np.diag([0, 0, -ANH]), atol=1e-15)

    def test_qubit_block_matches_two_level(self):
        pulse = drag_correct(synthesize(CATALOG["pi8"], grid_points=801), ANH)
        ts = np.linspace(0, pulse.tau, 9)
        err = ErrorFractions(epsilon=0.05, delta=-0.03)
        for e in (None, err):
            h3 = three_level_hamiltonian(pulse, ANH, e)(ts).h
            h2 = two_level_hamiltonian(pulse, e)(ts).h
            # the qubit block: nu = 0, 1, 3, 4 of 3 x 3 and nu = 0, 1, 2, 3 of 2 x 2
            assert np.array_equal(h3[..., :4], h2)
            # H[2, 1] = sqrt(2) H[1, 0] on nu = 5, 7 (Re and -Im of H[2, 1])
            assert np.array_equal(h3[..., 4:6], math.sqrt(2) * h2[..., 1:3])
            assert np.array_equal(h3[..., 6], 3 * h2[..., 3] - ANH)

    def test_drive_element_convention(self):
        # |1><0| carries conj(drag) exp(i phi) / 2; on the pulse grid the
        # interpolation is exact
        pulse = drag_correct(synthesize(CATALOG["pi8"], grid_points=801), ANH)
        idx = np.arange(0, len(pulse), 50)
        expected = np.conj(pulse.drag[idx]) * np.exp(1j * pulse.phase[idx]) / 2
        for H in (two_level_hamiltonian(pulse)(pulse.t[idx]).dense(),
                  three_level_hamiltonian(pulse, ANH)(pulse.t[idx]).dense()):
            assert np.allclose(H[..., 1, 0], expected, rtol=0, atol=1e-15)
            assert np.allclose(H[..., 0, 1], np.conj(expected), rtol=0, atol=1e-15)
        assert np.abs(pulse.drag[idx].imag).max() > 1e-3 * pulse.omega0

    def test_leakage_stays_small_with_correction(self):
        pulse = drag_correct(synthesize(CATALOG["pi8"]), ANH)
        sampler = three_level_hamiltonian(pulse, ANH)
        ket = np.zeros(3, dtype=complex)
        ket[0] = ket[1] = 1 / math.sqrt(2)
        rho0 = np.outer(ket, ket.conj())
        res = evolve_lindblad(sampler, rho0, [], (0.0, pulse.tau), dt=0.002)
        assert res.final[2, 2].real < 5e-4


class TestParallelTransport:
    @pytest.mark.parametrize("name", ["phase", "pi8", "hadamard"])
    def test_catalog_gates_transport(self, name):
        # the expectation vanishes identically on the synthesis grid; the
        # residual is set by pulse interpolation, so use a dense grid
        spec = CATALOG[name]
        traj = sample_trajectory(spec, default_schedule(spec), 40001)
        pulse = synthesize(spec, grid_points=40001)
        violation, cyclic = parallel_transport_check(traj, pulse, dt=0.002)
        assert violation < 1e-8 * pulse.omega0
        assert cyclic < 1e-6

    def test_detuning_error_breaks_transport(self):
        spec = CATALOG["pi8"]
        traj = sample_trajectory(spec, default_schedule(spec))
        pulse = synthesize(spec)
        import dataclasses
        bad = dataclasses.replace(pulse, delta=pulse.delta + 0.1 * pulse.omega0)
        violation, _ = parallel_transport_check(traj, bad, dt=0.002)
        assert violation > 1e-3 * pulse.omega0

    def test_aux_states_orthonormal(self):
        plus, minus = aux_states(0.7, 1.3)
        assert abs(np.vdot(plus, plus) - 1) < 1e-15
        assert abs(np.vdot(minus, minus) - 1) < 1e-15
        assert abs(np.vdot(plus, minus)) < 1e-15

    @pytest.mark.parametrize("name", ["pi8", "hadamard"])
    def test_accumulated_frame_phases(self, name):
        # both auxiliary states end with opposite phases equal in
        # magnitude to the loop phase
        spec = CATALOG[name]
        traj = sample_trajectory(spec, default_schedule(spec))
        pulse = synthesize(spec)
        psi0 = np.stack(aux_states(traj.alpha[0], traj.beta[0]))
        res = evolve_schrodinger(two_level_hamiltonian(pulse), psi0, (0.0, pulse.tau),
                                 dt=0.002, record_stride=100)
        s_grid = res.times / pulse.tau
        alpha = np.interp(s_grid, traj.s, traj.alpha)
        beta = np.interp(s_grid, traj.s, traj.beta)
        refs = np.stack([np.stack(aux_states(a, b)) for a, b in zip(alpha, beta)])
        overlaps = np.einsum("tni,tni->tn", refs.conj(), res.states)
        phases = np.unwrap(np.angle(overlaps), axis=0)
        assert phases[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert phases[-1, 0] == pytest.approx(-spec.gamma_g, abs=1e-5)
        assert phases[-1, 1] == pytest.approx(+spec.gamma_g, abs=1e-5)


def paper_params():
    return TransmonParams(g=TWO_PI * 0.010, Delta=TWO_PI * 0.500,
                          anh_a=TWO_PI * 0.220, anh_b=TWO_PI * 0.200)


def two_qubit_drive(coeffs=TWO_QUBIT_COEFFS, grid_points=2001):
    params = paper_params()
    spec = CATALOG["phase"]
    pulse = synthesize(spec, default_schedule(spec, coeffs),
                       AmplitudeBudget(TWO_PI * 0.015), grid_points)
    return params, build_two_qubit_drive(params, pulse, math.pi / 4)


def constant_subspace_drive(tau, n, g_prime=0.0):
    """A resonant subspace pulse of constant coupling g_prime, unmodulated."""
    t = np.linspace(0, tau, n)
    zeros = np.zeros(n)
    pulse = DrivePulse(tau=tau, t=t, delta=zeros, omega=np.full(n, g_prime), phase=zeros,
                       beta_dot=zeros, zeta=zeros, omega0=g_prime)
    return TwoQubitDrive(pulse=pulse, eta=zeros, gamma_g_prime=0.0)


class TestEtaWaveform:
    def test_zero_maps_to_zero(self):
        assert eta_waveform(0.0, TWO_PI * 0.010) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_at_unity(self):
        g = TWO_PI * 0.010
        gp = 2 * math.sqrt(2) * g * scipy_j1(1.0)
        assert eta_waveform(gp, g) == pytest.approx(1.0, abs=1e-10)

    def test_reference_budget_ratio(self):
        g = TWO_PI * 0.010
        eta = eta_waveform(TWO_PI * 0.015, g)
        assert 1.0 < eta < 1.8412
        assert scipy_j1(eta) == pytest.approx(0.015 / (2 * math.sqrt(2) * 0.010), abs=1e-10)

    def test_unrealizable_drive_rejected(self):
        g = TWO_PI * 0.010
        with pytest.raises(ValueError):
            eta_waveform(2 * math.sqrt(2) * g * 0.6, g)


class TestTwoQubitHamiltonians:
    def test_drive_record_is_the_subspace_pulse(self):
        params, drive = two_qubit_drive()
        assert drive.tau == drive.pulse.tau
        assert drive.g_prime is drive.pulse.omega
        assert np.array_equal(drive.eta, eta_waveform(drive.pulse.omega, params.g))

    def test_frequency_matching_exact(self):
        # dividing the bare exchange rotation out of |11><02| leaves
        # exp(-i eta sin theta), theta the integral of the modulation
        # frequency nu = Delta' + anh_b + Delta plus the phase varphi
        from scipy.integrate import cumulative_trapezoid
        params, drive = two_qubit_drive()
        pulse = drive.pulse
        H = two_qubit_full_hamiltonian(params, drive)(pulse.t).dense()
        bare = math.sqrt(2) * params.g * np.exp(1j * (params.Delta + params.anh_b) * pulse.t)
        nu = pulse.delta + params.anh_b + params.Delta
        theta = cumulative_trapezoid(nu, pulse.t, initial=0.0) + pulse.phase
        mod = np.exp(-1j * drive.eta * np.sin(theta))
        assert np.abs(H[:, IDX_11, IDX_02] / bare - mod).max() < 1e-6
        assert np.abs(drive.eta).max() > 1.0

    def test_zero_modulation_leaves_bare_coupling(self):
        params = paper_params()
        drive = constant_subspace_drive(10.0, 101)
        H = two_qubit_full_hamiltonian(params, drive)(np.array([0.0, 1.0])).dense()
        assert abs(H[0, IDX_10, IDX_01] - params.g) < 1e-12
        assert abs(H[1, IDX_10, IDX_01] - params.g * np.exp(1j * params.Delta)) < 1e-12
        assert abs(H[1, IDX_11, IDX_02]) == pytest.approx(math.sqrt(2) * params.g, rel=1e-12)

    def test_zero_coupling_zero_hamiltonian(self):
        params = TransmonParams(g=0.0, Delta=TWO_PI * 0.5,
                                anh_a=TWO_PI * 0.22, anh_b=TWO_PI * 0.2)
        _, drive = two_qubit_drive()
        drive_params_zero_g = params
        H = two_qubit_full_hamiltonian(drive_params_zero_g, drive)(np.linspace(0, 1, 5))
        assert not H.h.view(np.int64).any()  # +0.0 everywhere
        assert np.abs(H.dense()).max() == 0.0

    def test_effective_rabi_oscillation(self):
        # constant coupling, zero detuning: full population transfer at
        # half the Rabi period
        gp = 0.05
        drive = constant_subspace_drive(200.0, 41, gp)
        sampler = two_level_hamiltonian(drive.pulse)
        psi = evolve_schrodinger(sampler, np.array([1.0, 0.0], dtype=complex),
                                 (0.0, math.pi / gp), dt=0.01).final
        assert abs(psi[1]) == pytest.approx(1.0, abs=1e-9)

    def test_effective_control_phase(self):
        # the subspace pulse returns |11> with exactly the target phase
        _, drive = two_qubit_drive(grid_points=4001)
        sampler = two_level_hamiltonian(drive.pulse)
        psi = evolve_schrodinger(sampler, np.array([1.0, 0.0], dtype=complex),
                                 (0.0, drive.tau), dt=0.002).final
        assert abs(psi[0]) == pytest.approx(1.0, abs=1e-6)
        assert np.angle(psi[0]) == pytest.approx(-math.pi / 4, abs=1e-5)

    def test_jacobi_anger_first_sideband(self):
        # Fourier component of exp(-i eta sin(theta)) at exp(-i theta)
        # equals J1(eta)
        for eta in (0.3, 0.9, 1.3):
            theta = np.linspace(0, 2 * math.pi, 20001)
            f = np.exp(-1j * eta * np.sin(theta)) * np.exp(1j * theta)
            c1 = np.trapezoid(f, theta) / (2 * math.pi)
            assert abs(c1 - scipy_j1(eta)) < 1e-6

    def test_full_model_tracks_effective_populations(self):
        # counter-rotating residuals at the reference parameters produce
        # transient ripples of a few percent; a frequency-matching bug
        # would decohere the transfer entirely (see control below)
        params, drive = two_qubit_drive(grid_points=4001)
        full = two_qubit_full_hamiltonian(params, drive)
        eff = two_level_hamiltonian(drive.pulse)
        psi6 = np.zeros(6, dtype=complex)
        psi6[IDX_11] = 1.0
        res_full = evolve_schrodinger(full, psi6, (0.0, drive.tau), dt=0.001,
                                      record_stride=500)
        res_eff = evolve_schrodinger(eff, np.array([1.0, 0.0], dtype=complex),
                                     (0.0, drive.tau), dt=0.001, record_stride=500)
        p11_full = np.abs(res_full.states[:, IDX_11]) ** 2
        p02_full = np.abs(res_full.states[:, IDX_02]) ** 2
        p11_eff = np.abs(res_eff.states[:, 0]) ** 2
        p02_eff = np.abs(res_eff.states[:, 1]) ** 2
        assert np.abs(p11_full - p11_eff).max() < 5e-2
        assert np.abs(p02_full - p02_eff).max() < 5e-2
        assert abs(p11_full[-1] - p11_eff[-1]) < 1e-2

    def test_broken_frequency_matching_loses_tracking(self):
        import dataclasses
        params, drive = two_qubit_drive(grid_points=4001)
        # drop the time-dependent part of the matching condition
        broken = dataclasses.replace(
            drive, pulse=dataclasses.replace(drive.pulse, delta=np.zeros_like(drive.pulse.delta)))
        full = two_qubit_full_hamiltonian(params, broken)
        psi6 = np.zeros(6, dtype=complex)
        psi6[IDX_11] = 1.0
        res_full = evolve_schrodinger(full, psi6, (0.0, drive.tau), dt=0.001,
                                      record_stride=2000)
        eff = two_level_hamiltonian(drive.pulse)
        res_eff = evolve_schrodinger(eff, np.array([1.0, 0.0], dtype=complex),
                                     (0.0, drive.tau), dt=0.001, record_stride=2000)
        p11_full = np.abs(res_full.states[:, IDX_11]) ** 2
        p11_eff = np.abs(res_eff.states[:, 0]) ** 2
        assert np.abs(p11_full - p11_eff).max() > 0.2

    def test_frame_phase_accumulates_detuning_integral(self):
        _, drive = two_qubit_drive(grid_points=4001)
        ts = np.linspace(0.0, drive.tau, 5001)
        S = subspace_frame_phase(drive, ts)
        assert S[0] == 0.0
        # independent quadrature of the sampled detuning
        from scipy.integrate import simpson
        expected = simpson(np.interp(ts, drive.pulse.t, drive.pulse.delta), x=ts)
        assert S[-1] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("dt", [0.001, 0.02, 0.05])
    def test_frame_unitary_phase_matches_integrator_grid(self, dt):
        # the frame change integrates Delta' on the pulse grid, the full
        # sampler on the integrator's half-step grid; the two agree
        _, drive = two_qubit_drive(grid_points=4001)
        S = subspace_frame_phase(drive, drive.pulse.t)[-1]
        S_grid = subspace_frame_phase(drive, _half_step_grid((0.0, drive.tau), dt)[0])[-1]
        assert abs(S - S_grid) <= 1e-11
        U = subspace_frame_unitary(drive)
        assert U[IDX_11, IDX_11] == np.exp(-1j * S / 2)
        assert U[IDX_02, IDX_02] == np.exp(1j * S / 2)

    def test_six_levels_are_the_exact_block_of_nine(self):
        # the coupled pair on all nine product levels |k_a k_b> (index
        # 3 k_a + k_b), with its exchange terms and collapse operators built
        # from np.kron; the three exchange coefficients come from the
        # six-level sampler
        params, drive = two_qubit_drive(grid_points=801)
        six = two_qubit_full_hamiltonian(params, drive)

        def unit(i, j):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1.0
            return e

        exchange = [(IDX_10, IDX_01, np.kron(unit(1, 0), unit(0, 1))),
                    (IDX_11, IDX_02, np.kron(unit(1, 0), unit(1, 2))),
                    (IDX_20, IDX_11, np.kron(unit(2, 1), unit(0, 1)))]

        def nine(ts):
            H6 = six(ts).dense()
            H = sum(H6[:, i, j, None, None] * op for i, j, op in exchange)
            return H + np.conj(np.swapaxes(H, -1, -2))

        I3, sm, sz = np.eye(3), unit(0, 1), np.diag([-1.0, 1.0, 0.0])
        collapse9 = [(STRONG.gamma_decay, np.kron(sm, I3)), (STRONG.gamma_decay, np.kron(I3, sm)),
                     (STRONG.kappa_dephase, np.kron(sz, I3)),
                     (STRONG.kappa_dephase, np.kron(I3, sz))]
        kept = [3 * a + b for a, b in LEVELS]
        assert LEVELS == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))

        # no exchange term couples one excitation number to another, and the
        # six-level sampler is the kept block of the nine-level Hamiltonian
        ts = np.linspace(0.0, drive.tau, 41)
        H9 = nine(ts)
        n9 = np.add.outer(np.arange(3), np.arange(3)).ravel()
        assert np.all(H9[:, n9[:, None] != n9[None, :]] == 0.0)
        assert np.array_equal(six(ts).dense(), H9[:, kept][:, :, kept])

        # the 16 computational |a><b| evolve identically, and the dropped
        # levels stay exactly empty
        comp9 = [kept[i] for i in COMPUTATIONAL_IDX]
        rho9 = np.zeros((16, 9, 9), dtype=complex)
        rho6 = np.zeros((16, 6, 6), dtype=complex)
        for n, (a, b) in enumerate((a, b) for a in range(4) for b in range(4)):
            rho9[n, comp9[a], comp9[b]] = 1.0
            rho6[n, COMPUTATIONAL_IDX[a], COMPUTATIONAL_IDX[b]] = 1.0
        ref = reference_rk4(nine, rho9, lindblad_rhs(collapse9), (0.0, 3.0), 0.01)
        got = evolve_lindblad(six, rho6, two_qubit_collapse(STRONG), (0.0, 3.0), dt=0.01).final
        assert np.abs(got - ref[:, kept][:, :, kept]).max() <= 1e-12
        dropped = [k for k in range(9) if k not in kept]
        assert np.all(ref[:, dropped, :] == 0.0) and np.all(ref[:, :, dropped] == 0.0)
        assert np.abs(ref[:, kept][:, :, kept] - rho9[:, kept][:, :, kept]).max() > 1e-3

    def test_collapse_sets(self):
        ops2 = two_qubit_collapse(RATES)
        assert len(ops2) == 4
        for rate, L in ops2:
            assert L.shape == (6, 6)
        ops1 = qubit_collapse(RATES, 3)
        assert ops1[0][1][0, 1] == 1.0
        assert ops1[1][1][2, 2] == 0.0


def reference_hermitian_basis(d):
    """The Hermitian basis from its definition: E_ii, (E_ij + E_ji)/sqrt(2) for
    i < j and i (E_ji - E_ij)/sqrt(2) for i > j, at index d i + j."""
    r = math.sqrt(0.5)  # 1/sqrt(2) correctly rounded
    B = np.zeros((d * d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = 1.0
            if i == j:
                B[d * i + j] = E
            elif i < j:
                B[d * i + j] = r * (E + E.T)
            else:
                B[d * i + j] = 1j * r * (E.T - E)
    return B


def random_hermitian(rng, d):
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (X + X.conj().T) / 2


def vec_liouvillian(H, collapse):
    """Row-major vec-form generator, vec(X rho Y) = (X kron Y^T) vec(rho)."""
    eye = np.eye(len(H))
    A = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for r, L in collapse:
        LdL = L.conj().T @ L
        A += r * (np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return A


def liouvillian(D, d, keep):
    """The generator of ``evolve_lindblad`` on the coordinates ``keep``, summed over
    the nu of the entries the dense samples H fill, as a builder that takes H."""
    def generator(H):
        tracks = dynamics._hermitian_tracks(H)
        active = np.flatnonzero(tracks.on.ravel())
        return dynamics._generator(dynamics._commutator_generators(d), D, active, keep)(tracks.h)
    return generator


COLLAPSE_SETS = [(2, "qubit"), (3, "qubit"), (6, "qubit"), (6, "two_qubit")]


def collapse_set(d, kind):
    return qubit_collapse(STRONG, d) if kind == "qubit" else two_qubit_collapse(STRONG)


class TestHermitianCoordinates:
    """Density matrices evolve in the real coordinates Tr(B_nu rho)."""

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_basis(self, d):
        B = reference_hermitian_basis(d)
        T = dynamics._hermitian_basis(d)
        assert np.array_equal(T, B.conj().reshape(d * d, d * d))
        assert np.array_equal(B, B.conj().swapaxes(-1, -2))
        assert np.abs(T @ T.conj().T - np.eye(d * d)).max() <= 1e-15
        assert not T.flags.writeable
        assert not dynamics._commutator_generators(d).flags.writeable

    @pytest.mark.parametrize("d, kind", COLLAPSE_SETS)
    def test_generator_is_the_rotated_vec_form(self, d, kind):
        rng = np.random.default_rng(d)
        H = np.stack([random_hermitian(rng, d) for _ in range(3)])
        collapse = collapse_set(d, kind)
        T = reference_hermitian_basis(d).conj().reshape(d * d, d * d)
        A = liouvillian(dynamics._dissipator(collapse, d), d, np.arange(d * d))(H)
        assert A.shape == (3, d * d, d * d) and A.dtype == np.float64
        for Hk, Ak in zip(H, A):
            rotated = T @ vec_liouvillian(Hk, collapse) @ T.conj().T
            assert np.abs(rotated.imag).max() <= 1e-13
            assert np.abs(Ak - rotated.real).max() <= 1e-13
        # the coordinates of the identity are a left null vector: trace is kept
        identity = (T @ np.eye(d).ravel()).real
        assert np.abs(identity @ A).max() <= 1e-15

    @pytest.mark.parametrize("d, kind", COLLAPSE_SETS)
    def test_dissipator_is_the_rotated_kron_form_bit_for_bit(self, d, kind):
        T, eye = dynamics._hermitian_basis(d), np.eye(d)
        D = np.zeros((d * d, d * d), dtype=complex)
        for r, L in collapse_set(d, kind):
            K = L.conj().T @ L
            D += r * (np.kron(L, L.conj()) - 0.5 * (np.kron(K, eye) + np.kron(eye, K.T)))
        assert np.array_equal(dynamics._dissipator(collapse_set(d, kind), d),
                              (T @ D @ T.conj().T).real)

    @pytest.mark.parametrize("d, kind", COLLAPSE_SETS)
    def test_cached_dissipator_is_a_fresh_build_bit_for_bit(self, d, kind):
        cached = dynamics._dissipator(collapse_set(d, kind), d)
        assert dynamics._dissipator(collapse_set(d, kind), d) is cached
        assert not cached.flags.writeable
        dynamics._cached_dissipator.cache_clear()
        fresh = dynamics._dissipator(collapse_set(d, kind), d)
        assert fresh is not cached
        assert np.array_equal(fresh.view(np.int64), cached.view(np.int64))
        other = collapse_set(d, kind)[:1]  # other rates, another dissipator
        assert not np.array_equal(dynamics._dissipator(other, d), cached)

    @pytest.mark.parametrize("d, kind", COLLAPSE_SETS)
    def test_hermitian_state_has_real_coordinates_at_every_record(self, d, kind):
        rng = np.random.default_rng(10 + d)
        H0, H1 = random_hermitian(rng, d), random_hermitian(rng, d)

        def sampler(ts):
            return H0 + np.cos(ts)[:, None, None] * H1

        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho0 = X @ X.conj().T
        rho0 /= np.trace(rho0).real
        res = evolve_lindblad(sampler, rho0, collapse_set(d, kind), (0.0, 2.0), dt=0.01,
                              record_stride=20)
        assert len(res.times) == 11
        T = reference_hermitian_basis(d).conj().reshape(d * d, d * d)
        coords = res.states.reshape(-1, d * d) @ T.T
        assert np.abs(coords.imag).max() <= 1e-15
        assert np.abs(res.states[-1] - rho0).max() > 1e-2


def found_sectors(H, G, D):
    """The sectors the integrators find for the dense samples H under the generators G."""
    return dynamics._sectors(G, D, np.flatnonzero(dynamics._hermitian_tracks(H).on.ravel()))


def liouvillian_sectors(H, D):
    return found_sectors(H, dynamics._commutator_generators(H.shape[-1]), D)


def excitation_sectors():
    """|K| = |N(i) - N(j)| of the Hermitian basis index 6 i + j, which spans |i><j| and |j><i|."""
    N = np.sum(LEVELS, axis=1)
    return np.abs(np.subtract.outer(N, N)).ravel()


class TestExcitationSectors:
    """The coupled pair's real generator splits exactly by |K|, K = N(ket) - N(bra)."""

    def criterion_7_generator(self, rates=STRONG):
        params, drive = two_qubit_drive(grid_points=4001)
        ts = _half_step_grid((0.0, drive.tau), 0.02)[0]
        H = coupled_hamiltonian(params, drive)(ts)
        D = dynamics._dissipator(two_qubit_collapse(rates), 6)
        return H, D, previous_liouvillian(D, 6, np.arange(36), H)  # every nu in the sum

    def test_no_entries_across_sectors(self):
        _, _, A = self.criterion_7_generator()
        K = excitation_sectors()
        assert len(two_qubit_collapse(STRONG)) == 4
        assert A.dtype == np.float64
        assert np.all(A[:, K[:, None] != K[None, :]] == 0.0)
        assert np.abs(A[:, K[:, None] == K[None, :]]).max() > 0.0
        assert [int(np.sum(K == k)) for k in range(3)] == [14, 16, 6]

    def test_found_sectors_are_the_k_sets(self):
        H, D, _ = self.criterion_7_generator()
        K = excitation_sectors()
        found = liouvillian_sectors(H, D)
        assert [len(keep) for keep in found] == [14, 16, 6]
        for k, keep in enumerate(found):
            assert np.array_equal(keep, np.flatnonzero(K == k))

    def test_sector_generator_is_the_sliced_one(self):
        H, D, _ = self.criterion_7_generator()
        A = liouvillian(D, 6, np.arange(36))(H)
        K = excitation_sectors()
        for k in range(3):
            keep = np.flatnonzero(K == k)
            block = liouvillian(D, 6, keep)(H)
            assert np.array_equal(block, A[:, keep][:, :, keep])

    def test_sector_channel_matches_the_full_vec_space(self):
        # the 16 evolved |a><b|, sector by sector, against one unsplit run of
        # all 36 coordinates under the full generator, with and without rates
        params, drive = two_qubit_drive(grid_points=4001)
        basis = np.zeros((16, 6, 6), dtype=complex)
        for n, (a, b) in enumerate((a, b) for a in COMPUTATIONAL_IDX for b in COMPUTATIONAL_IDX):
            basis[n, a, b] = 1.0
        sampler = two_qubit_full_hamiltonian(params, drive)
        grid = _half_step_grid((0.0, drive.tau), 0.02)
        tracks = sampler(grid[0])
        T, C = dynamics._hermitian_basis(6), dynamics._commutator_generators(6)
        for rates in (STRONG, DecoherenceRates()):
            collapse = two_qubit_collapse(rates)
            every = np.arange(36)
            full = dynamics._generator(C, dynamics._dissipator(collapse, 6),
                                       np.flatnonzero(tracks.on.ravel()), every)
            ref = dynamics._evolve(grid, tracks.h, basis.reshape(16, 36) @ T.T, None, full)[0]
            ref = (ref @ T.conj()).reshape(16, 6, 6)
            got = evolve_lindblad(sampler, basis, collapse, (0.0, drive.tau), 0.02).final
            assert got.shape == (16, 6, 6)
            assert np.abs(got - ref).max() <= 1e-12
            assert np.abs(ref - basis).max() > 1e-2


def drive_samples(d, batched=False):
    """The pi/8 drive on the grid of its 10 ps steps: qubit (d = 2) or transmon
    (d = 3), with a point axis of eleven amplitude errors when batched."""
    pulse = drag_correct(synthesize(CATALOG["pi8"]), ANH) if d == 3 else synthesize(CATALOG["pi8"])
    ts = _half_step_grid((0.0, pulse.tau), 0.01)[0]
    epsilon = np.linspace(-0.1, 0.1, 11) if batched else 0.0
    H = drive_hamiltonian(pulse, ts, epsilon, anharmonicity=ANH if d == 3 else None)
    return H[..., None, :, :] if batched else H


def coupled_samples():
    params, drive = two_qubit_drive()
    return coupled_hamiltonian(params, drive)(_half_step_grid((0.0, drive.tau), 0.02)[0])


SECTOR_MODELS = {
    "qubit": lambda: drive_samples(2),
    "transmon": lambda: drive_samples(3),
    "scan_batch": lambda: drive_samples(2, batched=True),
    "coupled": coupled_samples,
}


def model_collapse(H, rates):
    d = H.shape[-1]
    return two_qubit_collapse(rates) if d == 6 else qubit_collapse(rates, d)


class TestSectors:
    """``_sectors`` partitions the Hermitian coordinates into sets the generator keeps closed."""

    @pytest.mark.parametrize("rates", [STRONG, DecoherenceRates()], ids=["strong", "closed"])
    @pytest.mark.parametrize("model", sorted(SECTOR_MODELS))
    def test_no_generator_entry_crosses_a_sector(self, model, rates):
        H = SECTOR_MODELS[model]()
        d = H.shape[-1]
        D = dynamics._dissipator(model_collapse(H, rates), d)
        found = liouvillian_sectors(H, D)
        assert np.array_equal(np.sort(np.concatenate(found)), np.arange(d * d))
        label = np.empty(d * d, dtype=int)
        for k, keep in enumerate(found):
            assert np.array_equal(keep, np.sort(keep))
            label[keep] = k
        A = previous_liouvillian(D, d, np.arange(d * d), H).reshape(-1, d * d, d * d)
        assert np.all(A[:, label[:, None] != label[None, :]] == 0.0)
        if model != "coupled":
            assert len(found) == 1  # the drive links every coordinate

    def test_no_hamiltonian_and_no_collapse_leaves_every_coordinate_alone(self):
        H = zero_hamiltonian(3)(np.linspace(0.0, 1.0, 5))
        found = liouvillian_sectors(H, dynamics._dissipator([], 3))
        assert [list(keep) for keep in found] == [[k] for k in range(9)]

    def test_a_coupling_after_the_first_block_joins_sectors(self):
        # the drive starts after more samples than one block of the projection holds
        ts = np.linspace(0.0, 4.0, 8001)
        H = np.zeros((len(ts), 2, 2), dtype=complex)
        H[ts > 3.0, 0, 1] = H[ts > 3.0, 1, 0] = 0.5
        rows = dynamics._CHUNK_BYTES // H[0].view(float).nbytes
        assert np.flatnonzero(ts > 3.0)[0] > rows
        D = dynamics._dissipator([], 2)
        assert len(liouvillian_sectors(H[ts <= 3.0], D)) == 4
        found = [list(keep) for keep in liouvillian_sectors(H, D)]
        assert found == [list(keep) for keep in liouvillian_sectors(H[ts > 3.0], D)]
        assert found == [[0, 1, 2, 3]]


def ket_sectors(H):
    """Sectors of the ket coordinates (Re psi, Im psi) for the dense samples H."""
    d = H.shape[-1]
    return found_sectors(H, dynamics._ket_generators(d), np.zeros((2 * d, 2 * d)))


def random_drive(seed, d):
    """H0 + cos(w t) H1 with random Hermitian H0, H1 and a random w."""
    rng = np.random.default_rng(seed)
    H0, H1 = random_hermitian(rng, d), random_hermitian(rng, d)
    w = rng.uniform(0.5, 2.0)
    return lambda ts: H0 + np.cos(w * np.asarray(ts))[:, None, None] * H1


class TestKetCoordinates:
    """Kets evolve in the real coordinates (Re psi, Im psi), sector by sector,
    against a plain per-step complex RK4 (``reference_rk4``)."""

    def test_driven_qubit(self):
        pulse = synthesize(CATALOG["pi8"])
        sampler = two_level_hamiltonian(pulse)
        psi0 = np.array([1.0, 1.0j]) / math.sqrt(2)
        got = evolve_schrodinger(sampler, psi0, (0.0, pulse.tau), dt=0.01, record_stride=20)
        times, ref = reference_rk4(sampler, psi0, schrodinger_rhs, (0.0, pulse.tau), 0.01,
                                   record_stride=20)
        assert np.array_equal(got.times, times)
        assert np.abs(got.states - ref).max() <= 1e-14

    def test_coupled_pair_from_11(self):
        params, drive = two_qubit_drive(grid_points=4001)
        sampler = two_qubit_full_hamiltonian(params, drive)
        psi0 = np.eye(6, dtype=complex)[IDX_11]
        got = evolve_schrodinger(sampler, psi0, (0.0, drive.tau), dt=0.02, record_stride=100)
        times, ref = reference_rk4(sampler, psi0, schrodinger_rhs, (0.0, drive.tau), 0.02,
                                   record_stride=100)
        assert np.array_equal(got.times, times)
        assert np.abs(got.states - ref).max() <= 1e-14
        assert np.abs(ref[-1] - psi0).max() > 1e-2

    @pytest.mark.parametrize("d", [2, 3])
    def test_propagator_rows(self, d):
        pulse = drag_correct(synthesize(CATALOG["pi8"], grid_points=801), ANH)
        sampler = two_level_hamiltonian(pulse) if d == 2 else three_level_hamiltonian(pulse, ANH)
        U = propagator(sampler, d, (0.0, pulse.tau), dt=0.005)
        ref = reference_rk4(sampler, np.eye(d, dtype=complex), schrodinger_rhs,
                            (0.0, pulse.tau), 0.005)
        assert np.abs(U - ref.T).max() <= 1e-14

    def test_generator_is_minus_i_h_for_real_and_imaginary_parts(self):
        B = reference_hermitian_basis(3)
        K = dynamics._ket_generators(3)
        assert np.array_equal(K, np.block([[B.imag, B.real], [-B.real, B.imag]]))
        assert not K.flags.writeable
        rng = np.random.default_rng(5)
        H = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        tracks = dynamics._hermitian_tracks(H)
        active, zero = np.flatnonzero(tracks.on.ravel()), np.zeros((6, 6))
        assert len(active) == 9
        A = dynamics._generator(K, zero, active, np.arange(6))(tracks.h)
        assert np.abs(A - np.block([[H.imag, H.real], [-H.real, H.imag]])).max() <= 1e-15
        keep = np.array([0, 2, 3, 5])  # levels 0 and 2
        assert np.array_equal(dynamics._generator(K, zero, active, keep)(tracks.h),
                              A[:, keep][:, :, keep])
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        dz = A[0] @ np.concatenate([psi.real, psi.imag])
        assert np.abs(dz[:3] + 1j * dz[3:] - (-1j * H[0] @ psi)).max() <= 1e-14

    def test_coupled_sectors_are_the_excitation_numbers(self):
        # x and y of the levels of one excitation number; H has no diagonal, so
        # the x and y of |00> are not linked
        found = ket_sectors(coupled_samples())
        assert [list(keep) for keep in found] == [[0], [1, 2, 7, 8], [3, 4, 5, 9, 10, 11], [6]]
        assert [sorted({LEVELS[k % 6] for k in keep}) for keep in found] == [
            [(0, 0)], [(0, 1), (1, 0)], [(0, 2), (1, 1), (2, 0)], [(0, 0)]]

    @pytest.mark.parametrize("level", [IDX_11, IDX_01])
    def test_a_ket_in_one_sector_leaves_the_others_at_zero(self, level, monkeypatch):
        params, drive = two_qubit_drive(grid_points=4001)
        sampler = two_qubit_full_hamiltonian(params, drive)
        built = []

        def spy(G, D, active, keep):
            built.append(list(keep))
            return generator(G, D, active, keep)

        generator = dynamics._generator
        monkeypatch.setattr(dynamics, "_generator", spy)
        res = evolve_schrodinger(sampler, np.eye(6, dtype=complex)[level], (0.0, drive.tau),
                                 dt=0.02, record_stride=50)
        inside = next(keep for keep in ket_sectors(coupled_samples()) if level in keep)
        assert built == [list(inside)]  # only that sector is evolved
        levels = np.unique(inside % 6)
        outside = np.setdiff1d(np.arange(6), levels)
        assert np.all(res.states[:, outside] == 0.0)
        assert np.abs(res.states[-1, levels]).max() < 1.0

    def test_kets_do_not_evolve_through_evolve_lindblad(self, monkeypatch):
        # the benchmark's tracer counts every evolve_lindblad call as Lindblad work
        def refuse(*args, **kwargs):
            raise AssertionError("a ket evolution called evolve_lindblad")

        monkeypatch.setattr(dynamics, "evolve_lindblad", refuse)
        params, drive = two_qubit_drive(grid_points=801)
        psi = evolve_schrodinger(two_qubit_full_hamiltonian(params, drive),
                                 np.eye(6, dtype=complex)[IDX_11], (0.0, drive.tau), dt=0.02)
        assert abs(np.linalg.norm(psi.final) - 1.0) <= 1e-7  # RK4 at 20 ps
        U = propagator(random_drive(0, 3), 3, (0.0, 3.0), dt=0.01)
        assert np.abs(U.conj().T @ U - np.eye(3)).max() <= 1e-7

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_propagator_is_unitary(self, d, seed):
        U = propagator(random_drive(seed, d), d, (0.0, 3.0), dt=0.01)
        assert np.abs(U.conj().T @ U - np.eye(d)).max() <= 1e-7
        assert np.abs(U - np.eye(d)).max() > 1e-1

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_dt_halving_converges_at_fourth_order(self, d, seed):
        U = [propagator(random_drive(seed, d), d, (0.0, 3.0), dt) for dt in (0.04, 0.02, 0.01)]
        coarse, fine = np.abs(U[0] - U[1]).max(), np.abs(U[1] - U[2]).max()
        assert fine <= 1e-5
        assert 14.0 <= coarse / fine <= 18.0

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_real_projection_is_the_complex_one_bit_for_bit(self, d):
        # h = Re(T vec H) as one real product of H's (re, im) pairs
        rng = np.random.default_rng(30 + d)
        H = np.stack([random_hermitian(rng, d) for _ in range(257)])
        D = dynamics._dissipator(qubit_collapse(STRONG, d), d)
        T, C = dynamics._hermitian_basis(d), dynamics._commutator_generators(d)
        h = (H.reshape(-1, d * d) @ T.T).real
        A = h @ C.reshape(d * d, d ** 4)
        A += D.ravel()
        got = liouvillian(D, d, np.arange(d * d))(H)
        assert np.array_equal(got, A.reshape(-1, d * d, d * d))


def scan_batch_sampler(pulse, points=11):
    """The qubit drive with a point axis of amplitude errors, as a robustness scan batches it."""
    eps = np.linspace(-0.1, 0.1, points)

    def sampler(ts):
        tracks = _drive_tracks(pulse, ts, eps, 0.0)
        return replace(tracks, h=tracks.h[:, :, None])

    return sampler


def computational_basis(d, levels):
    """|a><b| for a, b in ``levels``, shape (len(levels)^2, d, d)."""
    basis = np.zeros((len(levels) ** 2, d, d), dtype=complex)
    for n, (a, b) in enumerate((a, b) for a in levels for b in levels):
        basis[n, a, b] = 1.0
    return basis


class TestChunks:
    """Chunking changes how the step maps are grouped, not what they give."""

    def coupled_channel(self):
        params, drive = two_qubit_drive(grid_points=4001)
        return evolve_lindblad(two_qubit_full_hamiltonian(params, drive),
                               computational_basis(6, COMPUTATIONAL_IDX),
                               two_qubit_collapse(STRONG), (0.0, drive.tau), dt=0.02).final

    def transmon_trace(self):
        pulse = drag_correct(synthesize(CATALOG["pi8"]), ANH)
        trace = fidelity_dynamics(pulse, [1.0, 1.0], model="three_level", anharmonicity=ANH,
                                  rates=STRONG, dt=0.01, record_stride=20)
        return np.concatenate([trace.fidelity, trace.populations.ravel(), trace.times])

    def scan_batch(self):
        pulse = synthesize(CATALOG["pi8"])
        basis = computational_basis(2, (0, 1))
        return evolve_lindblad(scan_batch_sampler(pulse), basis, qubit_collapse(STRONG, 2),
                               (0.0, pulse.tau), dt=0.05).final

    def comparator_batch(self, record_stride=None):
        """The Hadamard comparator's constant segments: nearly every step repeats."""
        pulse, _ = dynamical_comparator(CATALOG["hadamard"])
        basis = computational_basis(2, (0, 1))
        res = evolve_lindblad(scan_batch_sampler(pulse), basis, qubit_collapse(STRONG, 2),
                              (0.0, pulse.tau), dt=0.05, record_stride=record_stride)
        return res.states

    def comparator_trace(self):
        return self.comparator_batch(record_stride=20)

    @pytest.mark.parametrize("steps", [1, 3, 7, 40])
    @pytest.mark.parametrize("run", ["coupled_channel", "transmon_trace", "scan_batch",
                                     "comparator_batch", "comparator_trace"])
    def test_a_few_steps_per_chunk_give_the_default_result(self, run, steps, monkeypatch):
        default = getattr(self, run)()
        monkeypatch.setattr(dynamics, "_chunk_steps", lambda n, width: steps)
        forced = getattr(self, run)()
        assert forced.shape == default.shape
        assert np.abs(forced - default).max() <= 1e-12

    def test_coupled_sectors_take_at_least_128_steps_per_chunk(self, monkeypatch):
        chunks = {}

        def spy(A1, *args):
            chunks.setdefault(A1.shape[-1], []).append(len(A1))
            return increment(A1, *args)

        increment = dynamics._rk4_increment
        monkeypatch.setattr(dynamics, "_rk4_increment", spy)
        self.coupled_channel()
        n_steps = _half_step_grid((0.0, two_qubit_drive()[1].tau), 0.02)[1]
        assert sorted(chunks) == [6, 14, 16]  # the |K| = 2, 0 and 1 sectors
        assert dynamics._MIN_CHUNK_STEPS == 128
        for lengths in chunks.values():
            assert sum(lengths) == n_steps
            assert min(lengths[:-1]) >= 128
        assert len(chunks[16]) == -(-n_steps // 128)  # the budget alone gave 32 steps

    @pytest.mark.parametrize("run", ["coupled_channel", "transmon_trace", "scan_batch"])
    def test_distinct_steps_keep_the_chunks_of_the_plain_rule(self, run, monkeypatch):
        seen = []

        def spy(n_steps, stride, c, fresh):
            seen.append(fresh.all())
            starts = chunk_starts(n_steps, stride, c, fresh)
            assert starts == plain_chunk_starts(n_steps, stride, c)
            return starts

        chunk_starts = dynamics._chunk_starts
        monkeypatch.setattr(dynamics, "_chunk_starts", spy)
        getattr(self, run)()
        assert seen and all(seen)  # smooth drives repeat no step

    @pytest.mark.parametrize("n_steps", [1, 2, 5, 128, 300, 1001])
    @pytest.mark.parametrize("stride", [1, 6, 20, 128, 300, 5000])
    @pytest.mark.parametrize("c", [1, 7, 128, 512])
    def test_plain_rule_without_repeats(self, n_steps, stride, c):
        stride = min(stride, n_steps)  # as _evolve passes it for a final state alone
        fresh = np.ones(n_steps, dtype=bool)
        plain = plain_chunk_starts(n_steps, stride, c)
        assert dynamics._chunk_starts(n_steps, stride, c, fresh) == plain
        assert greedy_chunk_starts(n_steps, stride, c, fresh) == plain  # the same rule

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("stride", [1, 3, 20, 10_000])
    @pytest.mark.parametrize("c", [1, 4, 40])
    def test_repeats_stretch_chunks_over_distinct_steps(self, seed, stride, c):
        rng = np.random.default_rng(seed)
        n_steps = int(rng.integers(1, 400))
        fresh = rng.random(n_steps) >= [0.0, 0.5, 0.9, 0.97, 0.99, 1.0][seed]
        fresh[0] = True
        stride = min(stride, n_steps)
        starts = dynamics._chunk_starts(n_steps, stride, c, fresh)
        assert starts == greedy_chunk_starts(n_steps, stride, c, fresh)
        if not fresh[1:].any() and stride == n_steps:
            assert len(starts) == 1


def plain_chunk_starts(n_steps, stride, c):
    """Chunks of c steps (whole record intervals), the rule for evolutions without repeats."""
    c = c // stride * stride or c
    period = max(c, stride)
    return [k for p in range(0, n_steps, period) for k in range(p, min(p + period, n_steps), c)]


def greedy_chunk_starts(n_steps, stride, c, fresh):
    """Step-by-step reference: a chunk grows while it builds at most c maps (its first
    step's and each fresh step's), in whole record intervals and at most c of them
    when c holds an interval, else within one interval."""
    c = c // stride * stride or c
    starts, k = [], 0
    while k < n_steps:
        starts.append(k)
        stop = min(n_steps, k + c * stride if stride <= c else (k // stride + 1) * stride)
        built, end = 0, None
        for j in range(k, stop):
            built += j == k or fresh[j]
            if built > c:
                break
            if stride > c or (j + 1) % stride == 0 or j + 1 == n_steps:
                end = j + 1
        k = end
    return starts


def reference_fresh_steps(X, n_steps):
    """Step k is fresh unless its three sample rows repeat the previous step's byte
    for byte, none of them holding a NaN."""
    rows = X.reshape(len(X), -1)

    def same(i):
        return rows[i].tobytes() == rows[i - 2].tobytes() and not np.isnan(rows[i]).any()

    return [k == 0 or not all(same(2 * k + d) for d in range(3)) for k in range(n_steps)]


def plain_interval_maps(E, stride):
    return dynamics._interval_maps(E.copy(), stride)


class TestRepeatedSteps:
    """A step whose samples repeat the previous step's reuses its map, bit for bit."""

    def grid(self, runs, width=5, seed=0):
        """Samples with the given run lengths of equal rows."""
        rng = np.random.default_rng(seed)
        return np.concatenate([np.repeat(rng.normal(size=(1, 2, width)), r, axis=0) for r in runs])

    def test_runs_of_equal_samples(self):
        X = self.grid([5, 7])  # 12 samples, rows 0-4 equal, rows 5-11 equal
        X = np.concatenate([X, X[-1:]])  # 13 samples: 6 steps
        fresh = dynamics._fresh_steps(X, 6)
        # step k reads rows 2k..2k+2; it repeats k-1 when rows 2k-2..2k+2 lie in one run
        assert fresh.tolist() == [True, False, True, True, False, False]

    @pytest.mark.parametrize("column", [0, 3, 9])
    def test_every_word_of_a_row_counts(self, column):
        X = np.zeros((9, 2, 5))
        X.reshape(9, -1)[6, column] = 1e-300
        assert dynamics._fresh_steps(X, 4).tolist() == [True, False, True, True]

    @pytest.mark.parametrize("column", [0, 1])
    def test_signed_zeros_are_distinct(self, column):
        X = np.zeros((9, 3))
        X[6, column] = -0.0
        assert np.array_equal(X[6], X[4])  # equal as floats, not as bits
        assert dynamics._fresh_steps(X, 4).tolist() == [True, False, True, True]

    @pytest.mark.parametrize("column", [0, 2])
    def test_nan_samples_never_match(self, column):
        X = np.ones((9, 3))
        X[:, column] = np.nan  # the same NaN bits in every row
        assert dynamics._fresh_steps(X, 4).all()
        X[:5, column] = 1.0  # steps 0 and 1 read no NaN
        assert dynamics._fresh_steps(X, 4).tolist() == [True, False, True, True]

    @pytest.mark.parametrize("seed", range(8))
    def test_flags_match_a_row_by_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        palette = rng.normal(size=(3, 4, 3))
        palette[:, :, 0] = 0.0  # a word that never changes
        palette[1, 2, 1] = -0.0 if seed % 2 else np.nan
        runs = rng.integers(1, 6, size=40)
        X = np.concatenate([np.repeat(palette[rng.integers(3)][None], r, axis=0) for r in runs])
        X = X[:len(X) - (len(X) % 2 == 0)]  # an odd number of samples
        n_steps = (len(X) - 1) // 2
        assert dynamics._fresh_steps(X, n_steps).tolist() == reference_fresh_steps(X, n_steps)

    def test_no_tracks_repeat_every_step(self):
        assert dynamics._fresh_steps(np.zeros((9, 2, 0)), 4).tolist() == [True, False, False, False]

    @pytest.mark.parametrize("stride", [1, 7, 57, 1000])
    @pytest.mark.parametrize("ids", [
        [0] * 57,
        [0] * 20 + [1] * 3 + [2] + [0] * 33,
        [0, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 2] * 2 + [3] * 5,
        list(range(5)) * 11 + [0, 0]])
    def test_memoized_tree_is_the_plain_tree(self, ids, stride):
        ids = np.array(ids)
        assert len(ids) == 57 and len(ids) % 7  # a short last interval at stride 7
        rng = np.random.default_rng(len(set(ids.tolist())))
        E = 0.05 * rng.normal(size=(ids.max() + 1, 3, 4, 4))
        E[rng.random(E.shape) < 0.2] = 0.0
        got = dynamics._interval_maps(E.copy(), stride, ids.copy())
        assert np.array_equal(got, plain_interval_maps(E[ids], stride))

    def test_memoized_tree_composes_each_run_once(self, monkeypatch):
        pairs = []

        def spy(E2, E1):
            pairs.append(len(E2))
            return then(E2, E1)

        then = dynamics._then
        monkeypatch.setattr(dynamics, "_then", spy)
        E = 0.05 * np.random.default_rng(3).normal(size=(2, 4, 4))
        dynamics._interval_maps(E, 1024, np.r_[np.zeros(512, int), np.ones(512, int)])
        assert pairs == [2] * 9 + [1]  # M M and N N at each level, then the last pair

    def step_maps_formed(self, pulse, monkeypatch):
        formed = []

        def spy(A1, *args):
            formed.append(len(A1))
            return increment(A1, *args)

        increment = dynamics._rk4_increment
        monkeypatch.setattr(dynamics, "_rk4_increment", spy)
        evolve_lindblad(scan_batch_sampler(pulse), computational_basis(2, (0, 1)),
                        qubit_collapse(STRONG, 2), (0.0, pulse.tau), dt=0.05)
        return sum(formed), _half_step_grid((0.0, pulse.tau), 0.05)[1]

    def test_comparator_forms_only_its_distinct_step_maps(self, monkeypatch):
        formed, n_steps = self.step_maps_formed(dynamical_comparator(CATALOG["hadamard"])[0],
                                                monkeypatch)
        assert n_steps == 1167
        assert formed <= 0.02 * n_steps

    def test_geometric_pulse_forms_every_step_map(self, monkeypatch):
        formed, n_steps = self.step_maps_formed(synthesize(CATALOG["hadamard"]), monkeypatch)
        assert formed == n_steps

    @pytest.mark.parametrize("record_stride", [None, 20])
    @pytest.mark.parametrize("gate", ["pi8", "hadamard"])
    def test_comparator_matches_the_step_by_step_reference(self, gate, record_stride):
        pulse, _ = dynamical_comparator(CATALOG[gate])
        sampler, basis = scan_batch_sampler(pulse), computational_basis(2, (0, 1))
        collapse, span = qubit_collapse(STRONG, 2), (0.0, pulse.tau)
        res = evolve_lindblad(sampler, basis, collapse, span, dt=0.05,
                              record_stride=record_stride)
        ref = reference_rk4(sampler, np.broadcast_to(basis, (11, 4, 2, 2)), lindblad_rhs(collapse),
                            span, 0.05, record_stride)
        if record_stride:
            times, ref = ref
            assert np.array_equal(res.times, times)
        assert res.states.shape == ref.shape
        assert np.abs(res.states - ref).max() <= 1e-13


def previous_rk4_increment(A1, A2, A3, h):
    eye = np.eye(A1.shape[-1])
    k2 = A2 @ (eye + 0.5 * h * A1)
    k3 = A2 @ (eye + 0.5 * h * k2)
    k4 = A3 @ (eye + h * k3)
    return (h / 6) * (A1 + 2 * k2 + 2 * k3 + k4)


def previous_liouvillian(D, d, keep, H):
    """All d^2 coordinates in the sum over nu."""
    T = dynamics._hermitian_basis(d)
    R = np.stack([T.real.T, -T.imag.T], axis=1).reshape(2 * d * d, d * d)
    n = len(keep)
    C = dynamics._commutator_generators(d)[:, keep][:, :, keep].reshape(d * d, n * n)
    A = H.reshape(-1, d * d).view(float) @ R @ C
    A += D[np.ix_(keep, keep)].ravel()
    return A.reshape(H.shape[:-2] + (n, n))


def active_coordinates(on):
    return list(np.flatnonzero((on | on.T).ravel()))


class TestKernelBits:
    """The in-place RK4 kernels and the generator on H's nonzero coordinates give
    the bits of the expressions they replace."""

    # scan batch of the qubit channel, one transmon sector, the coupled |K| = 0 sector
    @pytest.mark.parametrize("shape", [(11, 1, 4, 4), (9, 9), (14, 14)])
    def test_rk4_increment_and_then_on_the_strided_views(self, shape):
        rng = np.random.default_rng(shape[-1])
        c = 37
        A = rng.normal(size=(2 * c + 1,) + shape)
        A[rng.random(A.shape) < 0.3] = 0.0  # generators are sparse
        h = 0.01
        E = dynamics._rk4_increment(A[:-1:2], A[1::2], A[2::2], h, [])
        assert np.array_equal(E, previous_rk4_increment(A[:-1:2], A[1::2], A[2::2], h))
        work = []
        for k in (c, c - 5, c):  # the chunks of one evolution share the buffers
            steps = (A[:2 * k:2], A[1:2 * k:2], A[2:2 * k + 1:2])
            got = dynamics._rk4_increment(*steps, h, work)
            assert np.array_equal(got, previous_rk4_increment(*steps, h))
            assert len(work) == 3 and len(work[0]) == c and np.shares_memory(got, work[1])
        for X in (A, E):
            assert np.array_equal(dynamics._then(X[1::2], X[:-1:2]),
                                  X[1::2] + X[:-1:2] + X[1::2] @ X[:-1:2])

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_generator_on_the_nonzero_coordinates(self, d):
        rng = np.random.default_rng(50 + d)
        rows = dynamics._CHUNK_BYTES // (16 * d * d)  # samples in one block of the projection
        H = np.stack([random_hermitian(rng, d) for _ in range(rows + 40)])
        H[:, 0, 0] = 0.0
        zero = {0}
        if d > 2:
            H[:, 0, d - 1] = H[:, d - 1, 0] = 0.0
            zero |= {d - 1, d * (d - 1)}
        # the first block is diagonal: the off-diagonal entries start after it
        late = (1, 0)
        H[:rows] *= np.eye(d)
        on = np.abs(H).max(axis=0) > 0
        assert active_coordinates(on) == [nu for nu in range(d * d) if nu not in zero]

        found = dynamics._hermitian_tracks(H).on
        assert found[late] and found[late[::-1]]
        assert np.array_equal(found, on)
        sectors = liouvillian_sectors(H, np.zeros((d * d, d * d)))
        D = dynamics._dissipator(qubit_collapse(STRONG, d), d)
        for keep in [np.arange(d * d)] + sectors:
            assert np.array_equal(liouvillian(D, d, keep)(H), previous_liouvillian(D, d, keep, H))

    @pytest.mark.parametrize("rates", [STRONG, DecoherenceRates()], ids=["strong", "closed"])
    def test_coupled_generator_reads_six_coordinates(self, rates, monkeypatch):
        params, drive = two_qubit_drive(grid_points=4001)
        sampler = two_qubit_full_hamiltonian(params, drive)
        built = []

        def spy(G, D, active, keep):
            built.append(list(active))
            return generator(G, D, active, keep)

        generator = dynamics._generator
        monkeypatch.setattr(dynamics, "_generator", spy)
        basis = np.zeros((2, 6, 6), dtype=complex)
        basis[0, IDX_11, IDX_11] = basis[1, IDX_01, IDX_11] = basis[1, 0, 0] = 1.0
        evolve_lindblad(sampler, basis, two_qubit_collapse(rates), (0.0, drive.tau), dt=0.02)
        evolve_schrodinger(sampler, np.eye(6, dtype=complex)[[IDX_11, IDX_01]], (0.0, drive.tau),
                           dt=0.02)
        exchange = [(IDX_10, IDX_01), (IDX_11, IDX_02), (IDX_20, IDX_11)]
        six = sorted(6 * i + j for a, b in exchange for i, j in ((a, b), (b, a)))
        assert built and all(active == six for active in built)

    @pytest.mark.parametrize("model", ["qubit", "transmon", "scan_batch"])
    def test_one_sector_keeps_every_coordinate(self, model):
        H = SECTOR_MODELS[model]()
        d = H.shape[-1]
        D = dynamics._dissipator(model_collapse(H, STRONG), d)
        assert len(liouvillian_sectors(H, D)) == 1
        # the entries the drive fills
        filled = abs(np.subtract.outer(np.arange(d), np.arange(d))) <= 1
        assert np.array_equal(dynamics._hermitian_tracks(H).on, filled)
