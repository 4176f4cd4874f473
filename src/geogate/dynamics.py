"""Closed- and open-system time evolution for the gate models.

Four models share one fixed-step RK4 core (see "Integrator" below):

* two-level qubit driven by a synthesized pulse,
* three-level transmon with the second excited state as leakage target,
* two capacitively coupled transmons (interaction picture) with a flux
  modulation on the second qubit, on the six levels |k_a k_b> with
  k_a + k_b <= 2,
* the effective two-level reduction of the coupled pair in the
  {|11>, |02>} subspace, which is the qubit model driven by the subspace
  pulse: g', Delta' and varphi take the places of Omega, Delta and phi.

Open-system evolution follows

    rho_dot = -i [H(t), rho] + sum_k (r_k/2) (2 L_k rho L_k^+ - {L_k^+ L_k, rho})

with decay sigma_- = |0><1| and dephasing sigma_z = |1><1| - |0><0| embedded
per qubit (higher levels undamped).

Six levels of the coupled pair are exact, not a truncation.  Every
exchange term of its Hamiltonian (|10><01|, |11><02|, |20><11|) conserves
the excitation number N = k_a + k_b, decay lowers N and dephasing is
diagonal, so no input with N <= 2 (the computational states among them)
ever reaches |12>, |21> or |22>.  The same terms conserve K = N(i) - N(j)
on |i><j|, and the integrators find the closed N and |K| sectors themselves.

Drive convention and error model (one source: the track builder
``_drive_tracks``).  In the frame rotating at the drive frequency a
``DrivePulse`` with detuning Delta(t), phase phi(t) and complex envelope
Omega_env(t) -- ``drag`` once the leakage correction is attached, the real
``omega`` otherwise -- gives

    H[1,0] = (1 + epsilon) * conj(Omega_env) * exp(i phi) / 2,  H[0,1] = H[1,0]*
    H[0,0] = -Delta_e / 2,  H[1,1] = Delta_e / 2,  Delta_e = Delta + delta * omega0

with the amplitude error epsilon scaling the applied drive and the
detuning error delta offsetting Delta by a fraction of the amplitude budget
omega0.  The three-level transmon adds only the |2> row and column:
H[2,2] = 3 Delta_e / 2 - anharmonicity and H[2,1] = sqrt(2) H[1,0].

Hamiltonian samplers are vectorized callables ``H(ts)`` that return the
samples on the grid ``ts`` as ``HermitianTracks``: the coordinates
h_nu = Tr(B_nu H) (see below), (len(ts), *batch, m), of the m entries the
model fills.  Every sampler here does; ``dense()`` gives H itself.  A
sampler may also return dense samples (len(ts), *batch, d, d); they are
turned into tracks at one point (``_hermitian_tracks``), for the entries
nonzero at some sample.  The integrators evaluate a sampler once on their
half-step grid.  Batched states (leading batch axes) evolve simultaneously
through numpy broadcasting.

Integrator.  Both equations are linear, y' = A(t) y, in real coordinates
with the real generator A = D + sum_nu h_nu G_nu, and one RK4 formula
(``_rk4_increment``) serves both.  A density matrix has the coordinates
Tr(B_nu rho) in an orthonormal basis B of Hermitian d x d matrices
(``_hermitian_basis``): a Lindblad generator, which keeps Hermiticity,
becomes a real d^2 x d^2 matrix (the coherence-vector form; Alicki and
Lendi, Quantum Dynamical Semigroups and Applications, 1987), with G_nu = C_nu
the generator of -i [B_nu, rho], cached per d, and the dissipator D cached
per d and collapse operators.  A ket psi = x + i y has the coordinates
(x, y), G_nu = K_nu = [[Im B_nu, Re B_nu], [-Re B_nu, Im B_nu]], which is
-i B_nu written for x and y, cached per d, and D = 0.  The sum over nu runs
over the nu = d i + j of the entries the tracks fill (6 of 36 for the
coupled pair, 7 of 9 for the transmon).  Each closed sector of A
(``_sectors``: coordinates linked by D or by one of the summed G_nu)
evolves under its block of A, and a sector whose initial coordinates are
all zero stays zero without being evolved.  Complex coordinates such as
those of |a><b| evolve as their real and imaginary columns.  The generators
are built from the tracks per chunk of steps.  The formula
applied to the identity gives every step map of a chunk of steps at once,
held as its difference from the identity; a pairwise tree product composes
them and the product acts on the states.  Chunks hold whole record
intervals, so recorded states come from running products of the interval
maps.  A step whose three samples equal the previous step's bit for bit
(``_fresh_steps``: the constant segments of a dynamical comparator; the
shipped smooth pulses repeat none) reuses its map, so the generator and
the formula run on the distinct steps only, and the tree composes each
run of equal operand pairs once.  A chunk builds what a byte budget of
generator samples allows, but at least 128 maps, as every chunk costs the
same few dozen numpy calls.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .optimize import invert_bessel_j1
from .paths import PathTrajectory
from .pulses import DrivePulse

DEFAULT_DT = 0.001  # ns
_CHUNK_BYTES = 1 << 17   # bytes of generator samples built at once
_MIN_CHUNK_STEPS = 128   # fewer steps per chunk cost more in numpy calls than they save


@dataclass(frozen=True)
class DecoherenceRates:
    """Decay and pure-dephasing rates, rad/ns."""

    gamma_decay: float = 0.0
    kappa_dephase: float = 0.0

    def __post_init__(self):
        if self.gamma_decay < 0 or self.kappa_dephase < 0:
            raise ValueError("rates must be non-negative")

    @property
    def is_zero(self):
        return self.gamma_decay == 0.0 and self.kappa_dephase == 0.0


@dataclass(frozen=True)
class ErrorFractions:
    """Relative drive-amplitude and detuning offsets used in robustness scans."""

    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        _warn_if_out_of_range([self.epsilon, self.delta])


def _warn_if_out_of_range(fractions):
    if np.abs(fractions).max(initial=0.0) > 0.1 + 1e-12:
        warnings.warn("error fraction outside the benchmark range [-0.1, 0.1]",
                      stacklevel=3)


@dataclass(frozen=True)
class TransmonParams:
    """Coupled transmon pair: exchange coupling g, qubit detuning Delta and
    both anharmonicities, rad/ns."""

    g: float = 0.0
    Delta: float = 0.0
    anh_a: float = 0.0
    anh_b: float = 0.0


def aux_states(alpha: float, beta: float):
    """Orthonormal pair of Bloch states at (alpha, beta) and its antipode."""
    plus = np.array([math.cos(alpha / 2),
                     math.sin(alpha / 2) * np.exp(1j * beta)], dtype=complex)
    minus = np.array([math.sin(alpha / 2) * np.exp(-1j * beta),
                      -math.cos(alpha / 2)], dtype=complex)
    return plus, minus


# ---------------------------------------------------------------------------
# samplers

@dataclass(frozen=True)
class HermitianTracks:
    """A Hamiltonian's samples as their tracks h_nu = Tr(B_nu H) (``_hermitian_basis``):
    ``h`` is (samples, *batch, m), for the nu = d i + j, in order, of the entries
    ``on`` (a symmetric (d, d) boolean) that H fills.  ``shape`` and ``nbytes`` are
    those of the dense samples they stand for and of the tracks."""

    h: np.ndarray
    on: np.ndarray

    @property
    def shape(self):
        return self.h.shape[:-1] + self.on.shape

    @property
    def nbytes(self):
        return self.h.nbytes

    def dense(self):
        """The samples H = sum_nu h_nu B_nu, (samples, *batch, d, d) complex."""
        return (self.h @ _hermitian_basis(len(self.on)).conj()[self.on.ravel()]).reshape(self.shape)


def _drive_tracks(pulse: DrivePulse, ts, epsilon=0.0, delta=0.0,
                  anharmonicity: float | None = None) -> HermitianTracks:
    """Rotating-frame Hamiltonian of ``pulse`` on the grid ``ts``, as its tracks.

    The single source of the drive convention and the error model (see the
    module docstring).  ``epsilon`` and ``delta`` may be arrays over error
    points; they broadcast against each other and add a point axis after
    the time axis.  With an ``anharmonicity`` the second excited state is
    appended (three levels), otherwise the model is the qubit alone.

    The h_nu of the filled entries are written in place into one (samples,
    *points, m) array with the per-element arithmetic of ``_hermitian_tracks``
    on the dense samples: H[i, i] on |i><i|, and for H[j, i] = x + i y (j > i)
    sqrt(2) x on (|i><j| + |j><i|)/sqrt(2) and -sqrt(2) y on
    i(|i><j| - |j><i|)/sqrt(2), which equal x r + x r and -y r - y r for
    r = sqrt(1/2); zeros are +0.0, as a sum from +0.0 gives.
    """
    ts = np.asarray(ts, dtype=float)
    env = pulse.drag if pulse.drag is not None else pulse.omega.astype(complex)
    om = np.interp(ts, pulse.t, env.real) + 1j * np.interp(ts, pulse.t, env.imag)
    d10 = 0.5 * np.conj(om) * np.exp(1j * np.interp(ts, pulse.t, pulse.phase))
    epsilon, delta = np.broadcast_arrays(epsilon, delta)
    d = 2 if anharmonicity is None else 3
    on = abs(np.subtract.outer(np.arange(d), np.arange(d))) <= 1  # the entries the drive fills
    active = np.flatnonzero(on.ravel())
    h = np.empty(d10.shape + epsilon.shape + (len(active),))
    track = dict(zip(active.tolist(), np.moveaxis(h, -1, 0)))
    de = track[0]
    np.add.outer(np.interp(ts, pulse.t, pulse.delta), delta * pulse.omega0, out=de)  # Delta_e
    if anharmonicity is not None:
        np.multiply(de, 1.5, out=track[8])
        track[8] -= anharmonicity
    np.multiply(de, 0.5, out=track[d + 1])
    de *= -0.5
    x, y, scale = track[1], track[d], 1.0 + epsilon
    np.multiply.outer(d10.real, scale, out=x)
    np.multiply.outer(d10.imag, scale, out=y)
    s = math.sqrt(2)
    if anharmonicity is not None:  # H[2, 1] = sqrt(2) H[1, 0]
        np.multiply(x, s, out=track[5])
        track[5] *= s
        np.multiply(y, s, out=track[7])
        track[7] *= -s
    x *= s
    y *= -s
    h += 0.0
    return HermitianTracks(h, on)


def _fractions(err: ErrorFractions | None):
    return (err.epsilon, err.delta) if err is not None else (0.0, 0.0)


def two_level_hamiltonian(pulse: DrivePulse, err: ErrorFractions | None = None):
    """Rotating-frame qubit Hamiltonian sampler for a synthesized pulse."""
    epsilon, delta = _fractions(err)
    return lambda ts: _drive_tracks(pulse, ts, epsilon, delta)


def three_level_hamiltonian(pulse: DrivePulse, anharmonicity: float,
                            err: ErrorFractions | None = None):
    """Transmon sampler in the frame rotating at the drive frequency.

    The qubit block is the two-level Hamiltonian; the second excited state
    sits at 3*Delta/2 - anharmonicity and shares the drive with a sqrt(2)
    matrix element.
    """
    epsilon, delta = _fractions(err)
    return lambda ts: _drive_tracks(pulse, ts, epsilon, delta, anharmonicity)


# ---------------------------------------------------------------------------
# two-qubit models

@dataclass(frozen=True)
class TwoQubitDrive:
    """Flux modulation realizing a subspace pulse for the control-phase gate.

    ``pulse`` is the geometric pulse of the {|11>, |02>} subspace: its
    ``omega``, ``delta`` and ``phase`` are g', Delta' and varphi.  ``eta``
    is the modulation amplitude on ``pulse.t``.  The modulation frequency
    nu = Delta' + anh_b + Delta is matched at every instant by
    ``two_qubit_full_hamiltonian``.
    """

    pulse: DrivePulse
    eta: np.ndarray
    gamma_g_prime: float

    @property
    def tau(self) -> float:
        return self.pulse.tau

    @property
    def g_prime(self) -> np.ndarray:
        return self.pulse.omega


def eta_waveform(g_prime, g: float):
    """Modulation amplitude solving 2*sqrt(2)*g*J1(eta) = g_prime pointwise."""
    ratio = np.asarray(g_prime, dtype=float) / (2 * math.sqrt(2) * g)
    return invert_bessel_j1(ratio)


def build_two_qubit_drive(params: TransmonParams, pulse: DrivePulse,
                          gamma_g_prime: float) -> TwoQubitDrive:
    """Map a synthesized subspace pulse onto the physical flux modulation."""
    return TwoQubitDrive(pulse=pulse, eta=eta_waveform(pulse.omega, params.g),
                         gamma_g_prime=gamma_g_prime)


def subspace_frame_phase(drive: TwoQubitDrive, ts) -> np.ndarray:
    """Integral of Delta' accumulated on the supplied grid by the trapezoid rule."""
    y = np.interp(ts, drive.pulse.t, drive.pulse.delta)
    out = np.zeros_like(y)
    np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(ts), out=out[1:])
    return out


def subspace_frame_unitary(drive: TwoQubitDrive) -> np.ndarray:
    """Diagonal frame change aligning the interaction picture with the
    effective-model frame in which the control phase is defined.

    The frame phase is the integral of Delta' over the pulse's own grid.
    """
    S = subspace_frame_phase(drive, drive.pulse.t)[-1]
    U = np.eye(len(LEVELS), dtype=complex)
    U[IDX_11, IDX_11] = np.exp(-1j * S / 2)
    U[IDX_02, IDX_02] = np.exp(+1j * S / 2)
    return U


# levels |k_a k_b> of the coupled pair, in state-index order: all with k_a + k_b <= 2
LEVELS = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
IDX_01, IDX_10, IDX_02, IDX_11, IDX_20 = map(LEVELS.index, ((0, 1), (1, 0), (0, 2), (1, 1), (2, 0)))
COMPUTATIONAL_IDX = (0, IDX_01, IDX_10, IDX_11)
# the level pairs (i, j), i < j, of the exchange terms c1, c2 and c3 on H[j, i]
EXCHANGE = ((IDX_01, IDX_10), (IDX_02, IDX_11), (IDX_11, IDX_20))


def two_qubit_full_hamiltonian(params: TransmonParams, drive: TwoQubitDrive):
    """Interaction-picture sampler for the coupled pair (the six ``LEVELS``).

    Exchange terms |10><01|, sqrt(2)|11><02| and sqrt(2)|20><11| rotate at
    Delta, Delta + anh_b and Delta - anh_a respectively, all modulated by
    exp(-i eta sin(integral nu + varphi)).  The modulation phase integral
    is accumulated by trapezoid quadrature on the grid handed to the
    sampler, so it shares the integrator's time resolution.

    The tracks of H[j, i] = c = x + i y are sqrt(2) x on nu = 6 i + j and
    -sqrt(2) y on nu = 6 j + i, with the arithmetic of ``_drive_tracks``.
    """
    d = len(LEVELS)
    on = np.zeros((d, d), dtype=bool)
    for i, j in EXCHANGE:
        on[i, j] = on[j, i] = True
    active = np.flatnonzero(on.ravel()).tolist()

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
        h = np.empty(ts.shape + (len(active),))
        track = dict(zip(active, np.moveaxis(h, -1, 0)))
        s = math.sqrt(2)
        for (i, j), c in zip(EXCHANGE, (c1, c2, c3)):
            np.multiply(c.real, s, out=track[d * i + j])
            np.multiply(c.imag, -s, out=track[d * j + i])
        h += 0.0
        return HermitianTracks(h, on)

    return sample


# ---------------------------------------------------------------------------
# collapse operators

def qubit_collapse(rates: DecoherenceRates, dim: int = 2):
    """Decay and dephasing embedded in the qubit subspace of a d-level system."""
    sm = np.zeros((dim, dim), dtype=complex)
    sm[0, 1] = 1.0
    sz = np.diag([-1.0, 1.0] + [0.0] * (dim - 2)).astype(complex)
    return [(r, L) for r, L in ((rates.gamma_decay, sm), (rates.kappa_dephase, sz)) if r]


def two_qubit_collapse(rates: DecoherenceRates):
    """Per-qubit decay and dephasing on the six ``LEVELS``.

    The operators of the product space (index 3 k_a + k_b), restricted to
    the kept levels; exact, because none of them raises k_a + k_b.
    """
    kept = [3 * a + b for a, b in LEVELS]
    kept, I3 = np.ix_(kept, kept), np.eye(3, dtype=complex)
    return [(r, np.kron(*ops)[kept])
            for r, L in qubit_collapse(rates, 3) for ops in ((L, I3), (I3, L))]


# ---------------------------------------------------------------------------
# integrators

def _half_step_grid(t_span, dt):
    if t_span is None:
        raise ValueError("t_span (t0, t1) is required")
    t0, t1 = t_span
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(round((t1 - t0) / dt)))
    ts = np.linspace(t0, t1, 2 * n_steps + 1)
    return ts, n_steps, (t1 - t0) / n_steps


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray  # final state, or (n_records, ...) when recording
    recorded: bool = False

    @property
    def final(self):
        return self.states[-1] if self.recorded else self.states


def _rk4_increment(A1, A2, A3, h, work):
    """Step map minus the identity of one classical RK4 step of Y' = A(t) Y.

    A1, A2, A3 are A at t, t + h/2 and t + h; the step starts from Y = I,
    so k1 = A1 I = A1.  ``work`` is a list that keeps the three buffers
    between calls on maps of one shape (the chunks of one evolution); the
    result is one of them, valid until the next call.  A fresh allocation
    per chunk would fault its pages in every time.
    """
    n = A1.shape[-1]
    if not work or len(work[0]) < len(A1):
        work[:] = [np.empty(A1.shape) for _ in range(3)]
    F, k2, k3 = (w[:len(A1)] for w in work)
    np.multiply(A1, 0.5 * h, out=F)  # one buffer for the three factors I + c k
    ones = F.reshape(F.shape[:-2] + (n * n,))[..., ::n + 1]
    ones += 1.0
    np.matmul(A2, F, out=k2)
    np.multiply(k2, 0.5 * h, out=F)
    ones += 1.0
    np.matmul(A2, F, out=k3)
    np.multiply(k3, h, out=F)
    ones += 1.0
    k2 *= 2  # A1 + 2 k2 + 2 k3 + k4, summed in that order
    k2 += A1
    k3 *= 2
    k2 += k3
    k2 += np.matmul(A3, F, out=k3)  # k4, in k3's buffer
    k2 *= h / 6
    return k2


def _then(E2, E1):
    """(I + E2)(I + E1) - I.  Maps are held as their difference from the
    identity, which keeps the rounding of the ones off the small increments."""
    E = np.add(E2, E1)
    E += E2 @ E1
    return E


def _runs(new):
    """First entries of the runs that start where ``new`` is set (it is at 0),
    and the run of each entry."""
    first = np.flatnonzero(new)
    return first, np.repeat(np.arange(len(first)), np.diff(first, append=len(new)))


def _then_once(E, left, right):
    """``E`` with each distinct product E[left] E[right] appended once, and the
    ids of the products.  Equal pairs come in runs that are consecutive in time
    (column-major order), so each pair is compared with its neighbour only."""
    a, b = left.ravel("F"), right.ravel("F")
    new = np.empty(len(a), dtype=bool)
    new[0] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    new[1:] |= b[1:] != b[:-1]
    first, ids = _runs(new)
    ids += len(E)
    return np.concatenate([E, _then(E[a[first]], E[b[first]])]), ids.reshape(left.shape, order="F")


def _interval_maps(E, stride, ids=None):
    """Maps from the first step to the end of each ``stride``-step record interval:
    the maps of each interval composed by a pairwise tree (later maps to the
    left), then running products by doubling; zero maps (identities) pad a
    short last interval.  ``E`` may be overwritten.

    With ``ids``, step k's map is E[ids[k]] and equal ids mean equal maps: each
    level of the tree and of the doubling composes every run of equal operand
    pairs once, which gives the maps of the plain tree on E[ids] bit for bit."""
    n = len(E) if ids is None else len(ids)
    s = min(stride, n)
    if ids is None:
        if n % s:
            E = np.concatenate([E, np.zeros((-n % s,) + E.shape[1:], dtype=E.dtype)])
        X, then = E.reshape((-1, s) + E.shape[1:]).swapaxes(0, 1), _then
    else:
        if n % s:
            E = np.concatenate([E, np.zeros_like(E[:1])])
            ids = np.concatenate([ids, np.full(-n % s, len(E) - 1)])
        X = ids.reshape(-1, s).T  # the tree runs on the ids

        def then(left, right):
            nonlocal E
            E, out = _then_once(E, left, right)
            return out
    while len(X) > 1:
        paired = then(X[1::2], X[:-1:2])
        X = np.concatenate([paired, X[-1:]]) if len(X) % 2 else paired
    P, k = X[0], 1
    while k < len(P):
        P[k:] = then(P[k:], P[:-k])
        k *= 2
    return P if ids is None else E[P]


def _chunk_steps(n, width):
    """Step maps built per chunk of n x n generators (two float64 samples a
    step) on ``width`` points."""
    return max(_MIN_CHUNK_STEPS, _CHUNK_BYTES // (16 * n * n * width))


def _fresh_steps(X, n_steps):
    """Flags of the steps whose samples X[2k], X[2k + 1], X[2k + 2] differ from
    the previous step's in some bit (step 0 is flagged): a step that is not
    flagged repeats the one before, -0.0 is not 0.0 and a NaN never matches.
    Rows are compared as int64 words: in every row the first word that changes
    mid-grid, then every word from the first to the last row where that one
    matched within each block of rows of the chunk budget."""
    V = np.ascontiguousarray(X.reshape(len(X), -1)) if X[0].size else np.zeros((len(X), 1))
    bits = V.view(np.int64)
    m = (len(V) - 3) // 2
    moved = np.flatnonzero(bits[m + 2] != bits[m])
    j = moved[0] if len(moved) else 0
    same = bits[2:, j] == bits[:-2, j]
    if not same.any():
        return np.ones(n_steps, dtype=bool)
    rows = max(1, _CHUNK_BYTES // V[0].nbytes)
    for k in range(0, len(same), rows):
        hit = np.flatnonzero(same[k:k + rows])
        if len(hit):
            a, b = k + hit[0], k + hit[-1] + 1
            same[a:b] &= (bits[a + 2:b + 2] == bits[a:b]).all(axis=1)
    if same.any() and math.isnan(V.max()):
        same &= ~np.isnan(V[2:]).any(axis=1)
    fresh = np.ones(n_steps, dtype=bool)
    fresh[1 + np.flatnonzero(same[:-2:2] & same[1:-1:2] & same[2::2])] = False
    return fresh


def _chunk_starts(n_steps, stride, c, fresh):
    """First steps of the chunks.  A chunk builds at most ``c`` step maps, its
    first step's and those of the ``fresh`` steps (``_fresh_steps``), in whole
    record intervals and at most ``c`` of them, or it splits an interval of
    more than ``c`` distinct steps.  When every step is fresh that is every c
    steps."""
    c = c // stride * stride or c
    if fresh.all():
        period = max(c, stride)
        return [k for p in range(0, n_steps, period) for k in range(p, min(p + period, n_steps), c)]
    F = np.flatnonzero(fresh).tolist()
    starts, k = [], 0
    while k < n_steps:
        starts.append(k)
        i = bisect.bisect_left(F, k)
        last = i + c - (i == len(F) or F[i] != k)  # the first fresh step left out
        e = F[last] if last < len(F) else n_steps
        if stride <= c:
            e = min(e, k + c * stride)
            k = e if e == n_steps else e // stride * stride
        else:
            k = min(e, k // stride * stride + stride)
    return starts


def _evolve(grid, X, y0, record_stride, generator):
    """Fixed-step RK4 of y' = A(t) y under the real generator A = generator(X),
    X the tracks of H on ``grid``, (n_samples, *batch, m): the states at the
    record times, shape (n_records, *batch, n), or the final state alone.

    States lie on the last axis of ``y0``; its other axes broadcast against
    the batch axes of X.  A complex state evolves as two real columns.  A step
    that repeats the one before reuses its map.
    """
    ts, n_steps, h = grid
    hb = X.shape[1:-1]
    batch = np.broadcast_shapes(hb, y0.shape[:-1])
    X = X.reshape(X.shape[:1] + (1,) * (len(batch) - len(hb)) + X.shape[1:])
    y = np.broadcast_to(y0, batch + y0.shape[-1:])
    split = np.iscomplexobj(y)
    Y = np.stack([y.real, y.imag], axis=-1) if split else y[..., None]
    n = y.shape[-1]
    # chunks hold whole record intervals, or split one longer than a chunk
    stride = record_stride or n_steps
    fresh = _fresh_steps(X, n_steps)
    starts = _chunk_starts(n_steps, stride, _chunk_steps(n, math.prod(hb)), fresh)
    memo = not fresh.all()
    records, work = [Y[None]], []  # work: the RK4 buffers every chunk reuses
    for k0, k1 in zip(starts, starts[1:] + [n_steps]):
        if memo and not fresh[k0 + 1:k1].all():
            new = fresh[k0:k1].copy()
            new[0] = True
            built, ids = _runs(new)
            A = generator(X[2 * (k0 + built) + np.arange(3)[:, None]])
            E = _rk4_increment(*A, h, work)
        else:
            A = generator(X[2 * k0:2 * k1 + 1])
            E = _rk4_increment(A[:-1:2], A[1::2], A[2::2], h, work)
            ids = None
        del A  # freed before the maps are composed
        P = _interval_maps(E, stride, ids)
        Ys = Y + P @ Y
        steps = k0 + np.minimum(np.arange(1, len(P) + 1) * stride, k1 - k0)
        Y = Ys[-1]
        records.append(Ys[(steps % stride == 0) | (steps == n_steps)])
    Ys = np.concatenate(records) if record_stride else Y[None]
    return Ys[..., 0] + 1j * Ys[..., 1] if split else Ys[..., 0]


def _evolve_sectors(grid, X, coords, record_stride, sectors, generator):
    """Each closed sector ``keep`` of the coordinates evolves on its own under
    ``generator(keep)``; a sector whose initial coordinates are all zero is
    not evolved and stays exactly zero.  The evolved coordinates come in the
    order of ``np.concatenate(sectors)``."""
    ts, n_steps, _ = grid
    times = ts[2 * np.r_[0:n_steps:record_stride, n_steps]] if record_stride else ts[-1:]
    shape = (len(times),) + np.broadcast_shapes(X.shape[1:-1], coords.shape[:-1])
    parts = [_evolve(grid, X, coords[..., keep], record_stride, generator(keep))
             if coords[..., keep].any() else np.zeros(shape + keep.shape, dtype=coords.dtype)
             for keep in sectors]
    states = np.concatenate(parts, axis=-1)
    return EvolutionResult(times, states if record_stride else states[0], bool(record_stride))


@functools.cache
def _hermitian_basis(d):
    """Rows T = conj(vec B) of the orthonormal Hermitian basis B of d x d matrices.

    Index d i + j holds E_ii for i = j, (E_ij + E_ji)/sqrt(2) for i < j and
    i (E_ji - E_ij)/sqrt(2) for i > j, so a basis index and the row-major vec
    index of |i><j| name the same (i, j).  T is unitary, and the coordinates
    T vec(rho) of a Hermitian rho are real.  Cached per d and read-only.
    """
    i, j = np.divmod(np.arange(d * d), d)
    n, mirror, r = np.arange(d * d), d * j + i, math.sqrt(0.5)
    T = np.zeros((d * d, d * d), dtype=complex)
    T[n, n] = np.where(i == j, 1.0, np.where(i < j, r, 1j * r))
    T[n[i != j], mirror[i != j]] = np.where(i < j, r, -1j * r)[i != j]
    T.flags.writeable = False
    return T


@functools.cache
def _commutator_generators(d):
    """C[nu] = T (-i (B_nu kron I - I kron B_nu^T)) T^+, the real generator of
    -i [B_nu, rho] in Hermitian coordinates; shape (d^2, d^2, d^2).

    Entry [nu, m, l] is Tr(B_m (-i [B_nu, B_l])) = 2 Im Tr(B_m B_nu B_l), and
    Tr(X B_l) = vec(X) . T[l].  Built one nu at a time, which keeps the
    transient memory at one slice.  Cached per d and read-only.
    """
    T = _hermitian_basis(d)
    B = T.conj().reshape(d * d, d, d)
    C = np.empty((d * d,) * 3)
    for nu, b in enumerate(B):
        C[nu] = 2 * ((B @ b).reshape(d * d, d * d) @ T.T).imag
    C.flags.writeable = False
    return C


def _dissipator(collapse, d):
    """The dissipator D of ``collapse`` in Hermitian coordinates, real d^2 x d^2.
    Cached per d and (rate, operator) pairs, and read-only."""
    return _cached_dissipator(d, tuple((float(r), np.asarray(L, dtype=complex).tobytes())
                                       for r, L in collapse))


@functools.lru_cache(maxsize=16)
def _cached_dissipator(d, collapse):
    T = _hermitian_basis(d)
    outer, eye = np.multiply.outer, np.eye(d)
    D = np.zeros((d,) * 4, dtype=complex)  # X kron Y is outer(X, Y) with axes 0, 2, 1, 3
    for r, L in collapse:
        L = np.frombuffer(L, dtype=complex).reshape(d, d)
        K = L.conj().T @ L
        D += r * (outer(L, L.conj()) - 0.5 * (outer(K, eye) + outer(eye, K.T)))
    D = (T @ D.transpose(0, 2, 1, 3).reshape(d * d, d * d) @ T.conj().T).real
    D.flags.writeable = False
    return D


@functools.cache
def _ket_generators(d):
    """K[nu] = [[Im B_nu, Re B_nu], [-Re B_nu, Im B_nu]], the real generator of
    -i B_nu acting on kets psi = x + i y in the coordinates (x, y); shape
    (d^2, 2d, 2d).  Cached per d and read-only."""
    B = _hermitian_basis(d).conj().reshape(d * d, d, d)
    K = np.block([[B.imag, B.real], [-B.real, B.imag]])
    K.flags.writeable = False
    return K


def _hermitian_tracks(H) -> HermitianTracks:
    """The tracks of dense samples H (samples, *batch, d, d), for the entries
    nonzero at some sample: h_nu = Re Tr(B_nu H) as vec H's (Re, Im) pairs times
    rows (Re T, -Im T), in blocks that keep one BLAS thread.  The one point where
    dense samples become tracks."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[-1]
    on = (H != 0).reshape(-1, d, d).any(axis=0)
    T = _hermitian_basis(d)
    R = np.stack([T.real.T, -T.imag.T], axis=1).reshape(2 * d * d, d * d)[:, on.ravel()]
    X = H.reshape(-1, d * d).view(float)
    h = np.empty((len(X), R.shape[1]))
    rows = max(1, _CHUNK_BYTES // X[0].nbytes)
    for k in range(0, len(X), rows):
        np.matmul(X[k:k + rows], R, out=h[k:k + rows])
    return HermitianTracks(h.reshape(H.shape[:-2] + (R.shape[1],)), on)


def _generator(G, D, active, keep):
    """Builder of the real generator A(t) = D + sum_nu h_nu(t) G[nu] from the
    tracks h of the basis indices ``active``, on the sorted coordinates ``keep``
    of a closed sector (``_sectors``).  The sum runs over the nu of H's filled
    entries; the terms it leaves out are exact zeros."""
    n = len(keep)
    D = D[np.ix_(keep, keep)].ravel()
    G = G[np.ix_(active, keep, keep)].reshape(len(active), n * n)

    def generator(h):
        A = h.reshape(math.prod(h.shape[:-1]), len(active)) @ G
        A += D
        return A.reshape(h.shape[:-1] + (n, n))

    return generator


def _components(link):
    """The smallest index in the connected component of each index of the
    boolean adjacency ``link``."""
    reach = (link | link.T | np.eye(len(link), dtype=bool)).astype(float)
    while not np.array_equal(grown := (reach @ reach > 0).astype(float), reach):
        reach = grown  # squaring doubles the path lengths covered
    return reach.argmax(axis=1)


def _sectors(G, D, active):
    """Closed sectors of A = D + sum_nu h_nu G[nu] over the nu in ``active``: the
    connected components of the coordinates that D or one of those G[nu] link,
    as sorted indices in the order of their first."""
    first = _components((D != 0) | (G[active] != 0).any(axis=0))
    return [np.flatnonzero(first == k) for k in np.flatnonzero(first == np.arange(len(first)))]


def _evolve_tracks(hamiltonian, coords, t_span, dt, record_stride, G, D):
    """The one path of both integrators: the sampler's tracks on the half-step
    grid, and each closed sector of A = D + sum_nu h_nu G[nu] evolved on its own
    from ``coords``.  Returns the result and the coordinates its states hold."""
    grid = _half_step_grid(t_span, dt)
    H = hamiltonian(grid[0])
    if not isinstance(H, HermitianTracks):
        H = _hermitian_tracks(H)
    active = np.flatnonzero(H.on.ravel())
    sectors = _sectors(G, D, active)
    res = _evolve_sectors(grid, H.h, coords, record_stride, sectors,
                          functools.partial(_generator, G, D, active))
    return res, np.concatenate(sectors)


def evolve_lindblad(hamiltonian, rho0, collapse=(), t_span=None, dt=DEFAULT_DT,
                    record_stride: int | None = None) -> EvolutionResult:
    """Fixed-step RK4 integration of the master equation.

    ``rho0`` may carry leading batch axes; ``hamiltonian(ts)`` may return
    matching batch axes (broadcast rules apply).  ``collapse`` is a list of
    (rate, operator) pairs entering as (rate/2) * (2 L rho L+ - {L+L, rho}).
    rho evolves in its Hermitian coordinates under D + sum_nu h_nu C_nu
    (``_commutator_generators``, ``_dissipator``), each closed sector on its
    own.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[-1]
    T = _hermitian_basis(d)
    coords = rho0.reshape(rho0.shape[:-2] + (d * d,)) @ T.T
    res, order = _evolve_tracks(hamiltonian, coords, t_span, dt, record_stride,
                                _commutator_generators(d), _dissipator(collapse, d))
    states = res.states @ T.conj()[order]
    res.states = states.reshape(states.shape[:-1] + (d, d))
    return res


def evolve_schrodinger(hamiltonian, psi0, t_span, dt=DEFAULT_DT,
                       record_stride: int | None = None) -> EvolutionResult:
    """Fixed-step RK4 for kets (last axis is the state index).

    A ket psi = x + i y evolves in its real coordinates (x, y) under
    sum_nu h_nu K_nu (``_ket_generators``), the generator builder of
    ``evolve_lindblad`` with D = 0, each closed sector on its own.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    d = psi0.shape[-1]
    res, order = _evolve_tracks(hamiltonian, np.concatenate([psi0.real, psi0.imag], axis=-1),
                                t_span, dt, record_stride, _ket_generators(d),
                                np.zeros((2 * d, 2 * d)))
    coords = np.empty_like(res.states)
    coords[..., order] = res.states
    res.states = coords[..., :d] + 1j * coords[..., d:]
    return res


def propagator(hamiltonian, dim, t_span, dt=DEFAULT_DT) -> np.ndarray:
    """Closed-system unitary: the identity rows evolve as kets, U is their transpose."""
    return evolve_schrodinger(hamiltonian, np.eye(dim, dtype=complex), t_span, dt).final.T


# ---------------------------------------------------------------------------
# invariants

def parallel_transport_check(traj: PathTrajectory, pulse: DrivePulse,
                             dt: float = DEFAULT_DT):
    """Max |<psi|H|psi>| along the evolution of both auxiliary states.

    Also returns the worst cyclic-return deficit 1 - |<phi(0)|psi(tau)>|.
    """
    sampler = two_level_hamiltonian(pulse)
    plus, minus = aux_states(traj.alpha[0], traj.beta[0])
    psi0 = np.stack([plus, minus])
    res = evolve_schrodinger(sampler, psi0, (0.0, pulse.tau), dt, record_stride=1)
    H = sampler(res.times)
    rho = np.einsum("tni,tnj->tnij", res.states, res.states.conj()).reshape(-1, 2, 4)
    # <psi|H|psi> = sum_nu h_nu Tr(B_nu psi psi^+), and Tr(B_nu rho) = T[nu] vec(rho)
    expval = np.einsum("tm,tnm->tn", H.h, (rho @ _hermitian_basis(2)[H.on.ravel()].T).real)
    overlap = np.abs(np.einsum("ni,ni->n", psi0.conj(), res.states[-1]))
    return float(np.abs(expval).max()), float(np.abs(1.0 - overlap).max())

