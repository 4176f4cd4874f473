"""Dense reference Hamiltonians: the samples H (samples, *points, d, d) that the
samplers of ``geogate.dynamics`` hand over as tracks, assembled entry by entry.
The tests project them onto tracks and compare bit for bit."""

import math

import numpy as np

from geogate.dynamics import IDX_01, IDX_02, IDX_10, IDX_11, IDX_20, LEVELS, subspace_frame_phase


def drive_hamiltonian(pulse, ts, epsilon=0.0, delta=0.0, anharmonicity=None):
    """The driven qubit (or, with an ``anharmonicity``, transmon) in the frame
    rotating at the drive frequency; error arrays add a point axis."""
    ts = np.asarray(ts, dtype=float)
    env = pulse.drag if pulse.drag is not None else pulse.omega.astype(complex)
    om = np.interp(ts, pulse.t, env.real) + 1j * np.interp(ts, pulse.t, env.imag)
    d10 = 0.5 * np.conj(om) * np.exp(1j * np.interp(ts, pulse.t, pulse.phase))
    Delta = np.interp(ts, pulse.t, pulse.delta)
    epsilon, delta = np.broadcast_arrays(epsilon, delta)
    d10 = np.multiply.outer(d10, 1.0 + epsilon)
    de = np.add.outer(Delta, delta * pulse.omega0)
    dim = 2 if anharmonicity is None else 3
    H = np.zeros(d10.shape + (dim, dim), dtype=complex)
    H[..., 0, 0] = -de / 2
    H[..., 1, 1] = de / 2
    H[..., 1, 0] = d10
    H[..., 0, 1] = np.conj(d10)
    if anharmonicity is not None:
        H[..., 2, 2] = 3 * de / 2 - anharmonicity
        H[..., 2, 1] = math.sqrt(2) * d10
        H[..., 1, 2] = np.conj(H[..., 2, 1])
    return H


def coupled_hamiltonian(params, drive):
    """Dense interaction-picture sampler of the coupled pair on the six ``LEVELS``."""
    def sample(ts):
        ts = np.asarray(ts, dtype=float)
        eta = np.interp(ts, drive.pulse.t, drive.eta)
        phi = np.interp(ts, drive.pulse.t, drive.pulse.phase)
        S = subspace_frame_phase(drive, ts)
        theta = S + (params.anh_b + params.Delta) * ts + phi
        mod = np.exp(-1j * eta * np.sin(theta))
        c1 = params.g * np.exp(1j * params.Delta * ts) * mod
        c2 = math.sqrt(2) * params.g * np.exp(1j * (params.Delta + params.anh_b) * ts) * mod
        c3 = math.sqrt(2) * params.g * np.exp(1j * (params.Delta - params.anh_a) * ts) * mod
        H = np.zeros(ts.shape + (len(LEVELS),) * 2, dtype=complex)
        H[..., IDX_10, IDX_01] = c1
        H[..., IDX_01, IDX_10] = np.conj(c1)
        H[..., IDX_11, IDX_02] = c2
        H[..., IDX_02, IDX_11] = np.conj(c2)
        H[..., IDX_20, IDX_11] = c3
        H[..., IDX_11, IDX_20] = np.conj(c3)
        return H

    return sample
