"""Gate fidelities, robustness scans, and comparators.

The single-qubit gate fidelity is the average of <nu_f| rho(tau) |nu_f>
over initial states cos(theta)|0> + sin(theta)|1> with theta uniform on
[0, 2*pi].  The two-qubit version averages over products of two such
states.

One reduction serves every fidelity.  The computational-basis matrices
|a><b| evolve once, in one ``evolve_lindblad`` call; by linearity the
fidelity of every input is a degree-4 polynomial in
k = (cos theta, sin theta), so its average is an exact contraction with
the equatorial moments E[c^4] = E[s^4] = 3/8, E[c^2 s^2] = 1/8
(qubit-wise for product states).  No theta is sampled.
One evolution of |a><b| (``_evolve_channel``) serves the driven qubit:
the average fidelity and the robustness scans (the error points of every
axis of a variant in one batch) reduce its final value, and the F(t) and
population trace of a ket k read rho(t) = sum k_a k_b* E_t(|a><b|) from
the recorded channel.

Dynamical comparator gates compile the same target unitaries into
sequences of resonant rotations about equatorial axes, every segment at
the shared amplitude budget.  The default "canonical" style compiles any
z rotation as x(-90) y(angle) x(90); the Hadamard comparator is
z(90) x(90) z(90) with the z rotations expanded the same way.  A
"minimal" style (fewest segments) is also available; the robustness
ordering against geometric gates depends on this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._csv import write_csv
from .dynamics import (
    DEFAULT_DT,
    COMPUTATIONAL_IDX,
    _drive_tracks,
    _fractions,
    _warn_if_out_of_range,
    DecoherenceRates,
    ErrorFractions,
    TransmonParams,
    TwoQubitDrive,
    evolve_lindblad,
    evolve_schrodinger,
    qubit_collapse,
    subspace_frame_unitary,
    two_level_hamiltonian,
    two_qubit_collapse,
    two_qubit_full_hamiltonian,
)
from .pulses import (
    CATALOG,
    DEFAULT_BUDGET,
    OPTIMIZED_COEFFS,
    AmplitudeBudget,
    DrivePulse,
    PathKind,
    composite_drive_pulse,
    default_schedule,
    segment_unitary,
    synthesize,
    target_unitary,
    target_unitary_2q,
)

SCAN_DT = 0.01  # ns; convergence-guard verified for the driven qubit models

QUBIT_IDX = (0, 1)

# E[k_a k_b k_i k_j] for k = (cos theta, sin theta), theta uniform:
# E[c^4] = E[s^4] = 3/8, E[c^2 s^2] = 1/8, odd moments vanish.
_I2 = np.eye(2)
_M1 = (np.einsum("ab,ij->abij", _I2, _I2) + np.einsum("ai,bj->abij", _I2, _I2)
       + np.einsum("aj,bi->abij", _I2, _I2)) / 8
# product states: qubit-wise moments, index 2 * (first qubit) + second
_MOMENTS = {2: _M1,
            4: np.einsum("abij,cdkl->acbdikjl", _M1, _M1).reshape(4, 4, 4, 4)}


def _channel_basis(idx, dim: int) -> np.ndarray:
    """The matrices |a><b| (index n*a + b) on the computational indices idx, in dimension dim."""
    n = len(idx)
    basis = np.zeros((n * n, dim, dim), dtype=complex)
    basis[np.arange(n * n), np.repeat(idx, n), np.tile(idx, n)] = 1.0
    return basis


def _average_fidelity(evolved, target, idx):
    """Exact equatorial average of <nu_f|rho(tau)|nu_f> from the evolved basis (..., n*n, d, d).

    With G[a,b] = T^dag E(|a><b|) T on the computational block, the fidelity
    of input k is sum k_a k_b k_p k_q G[a,b,p,q]; its average contracts G
    with the fourth moments of k.
    """
    n = len(idx)
    idx = list(idx)
    block = evolved[..., idx, :][..., idx]
    T = np.asarray(target, dtype=complex)
    G = np.einsum("ip,...kij,jq->...kpq", T.conj(), block, T)
    G = G.reshape(G.shape[:-3] + (n, n, n, n))
    return np.einsum("abpq,...abpq->...", _MOMENTS[n], G).real


def _evolve_channel(pulse, model, anharmonicity, rates, epsilon, delta, dt,
                    record_stride=None):
    """E_t(|a><b|) of the driven qubit on its levels 0 and 1, index 2a + b.

    The only single-qubit evolution, on the drive's tracks: error values
    given as arrays add a point axis to them that broadcasts against the
    basis.
    """
    if model == "two_level":
        anharmonicity = None
    elif model != "three_level":
        raise ValueError(f"unknown single-qubit model {model!r}")
    elif anharmonicity is None:
        raise ValueError("three_level model needs an anharmonicity")
    dim = 2 if anharmonicity is None else 3

    def sampler(ts):
        tracks = _drive_tracks(pulse, ts, epsilon, delta, anharmonicity)
        return replace(tracks, h=tracks.h[..., None, :])

    return evolve_lindblad(sampler, _channel_basis(QUBIT_IDX, dim),
                           qubit_collapse(rates or DecoherenceRates(), dim),
                           (0.0, pulse.tau), dt, record_stride)


def average_gate_fidelity_1q(pulse: DrivePulse, target: np.ndarray,
                             model: str = "two_level",
                             anharmonicity: float | None = None,
                             rates: DecoherenceRates | None = None,
                             err: ErrorFractions | None = None,
                             n_theta: int | None = None,
                             dt: float = DEFAULT_DT,
                             method: str = "channel") -> float:
    """Equatorial-average gate fidelity for one driven qubit.

    ``n_theta`` is accepted and has no effect: the average is exact.
    """
    if method != "channel":
        raise ValueError(f"unknown method {method!r}; only 'channel' is available")
    evolved = _evolve_channel(pulse, model, anharmonicity, rates, *_fractions(err), dt).final
    return float(_average_fidelity(evolved, target, QUBIT_IDX))


def check_two_qubit_model(model: str, rates: DecoherenceRates):
    """Reject an unknown two-qubit model, and rates on the closed-system one."""
    if model not in ("full", "effective"):
        raise ValueError(f"unknown two-qubit model {model!r}")
    if model == "effective" and not rates.is_zero:
        raise ValueError("the effective two-level model is closed-system")


def average_gate_fidelity_2q(params: TransmonParams, drive: TwoQubitDrive,
                             rates: DecoherenceRates | None = None,
                             model: str = "full", dt: float = DEFAULT_DT) -> float:
    """Product-state average fidelity of the control-phase gate."""
    rates = rates or DecoherenceRates()
    check_two_qubit_model(model, rates)
    target = target_unitary_2q(drive.gamma_g_prime)

    if model == "effective":
        psi = evolve_schrodinger(two_level_hamiltonian(drive.pulse),
                                 np.array([1.0, 0.0], dtype=complex), (0.0, drive.tau), dt).final
        idx = tuple(range(4))
        V = np.diag([1.0, 1.0, 1.0, psi[0]])
        evolved = V @ _channel_basis(idx, 4) @ V.conj().T
        return float(_average_fidelity(evolved, target, idx))

    evolved = evolve_lindblad(two_qubit_full_hamiltonian(params, drive),
                              _channel_basis(COMPUTATIONAL_IDX, 6),
                              two_qubit_collapse(rates), (0.0, drive.tau), dt).final
    U = subspace_frame_unitary(drive)
    evolved = U.conj().T @ evolved @ U
    return float(_average_fidelity(evolved, target, COMPUTATIONAL_IDX))


# ---------------------------------------------------------------------------
# dynamical comparators

def _rz_segments(angle):
    return [(-math.pi / 2, 0.0), (angle, math.pi / 2), (math.pi / 2, 0.0)]


def comparator_segments(spec, style: str = "canonical"):
    """Resonant-rotation decomposition of the catalog targets."""
    if spec.kind is PathKind.POLE_START:
        # diagonal target: a z rotation by twice the loop phase
        return _rz_segments(2 * spec.gamma_g)
    if style == "canonical":
        return _rz_segments(math.pi / 2) + [(math.pi / 2, 0.0)] + _rz_segments(math.pi / 2)
    if style == "minimal":
        return [(math.pi / 2, math.pi / 2), (math.pi, 0.0)]
    raise ValueError(f"unknown comparator style {style!r}")


def dynamical_comparator(spec, budget: AmplitudeBudget = DEFAULT_BUDGET,
                         style: str = "canonical"):
    """Budget-saturating dynamical realization of a catalog gate.

    Returns the composite pulse and its exact target unitary (identical,
    up to global phase, to the geometric target for the same spec).
    """
    segments = comparator_segments(spec, style)
    pulse = composite_drive_pulse(segments, budget)
    realized = segment_unitary(segments)
    ideal = target_unitary(spec)
    phase = np.angle(np.trace(ideal.conj().T @ realized))
    if np.linalg.norm(realized - np.exp(1j * phase) * ideal) > 1e-9:
        raise AssertionError("comparator decomposition does not realize the target")
    return pulse, ideal


VARIANTS = ("geometric", "geometric_po", "dynamical")


def gate_variants(gate_name: str, budget: AmplitudeBudget = DEFAULT_BUDGET,
                  include=VARIANTS, comparator_style: str = "canonical"):
    """Named (pulse, target) pairs entering a robustness scan; ``include``
    selects among ``VARIANTS`` and may name no other."""
    unknown = sorted(set(include) - set(VARIANTS))
    if unknown:
        raise ValueError(f"unknown variants {unknown}; known: {', '.join(VARIANTS)}")
    spec = CATALOG[gate_name]
    target = target_unitary(spec)
    out = {}
    if "geometric" in include:
        out["geometric"] = (synthesize(spec, budget=budget), target)
    if "geometric_po" in include:
        coeffs = next((c for name, c in OPTIMIZED_COEFFS.items() if CATALOG[name] is spec), None)
        if coeffs is None:
            raise KeyError(f"no reference optimized coefficients for gate {gate_name!r}")
        out["geometric_po"] = (synthesize(spec, default_schedule(spec, coeffs), budget=budget), target)
    if "dynamical" in include:
        out["dynamical"] = dynamical_comparator(spec, budget, comparator_style)
    return out


# ---------------------------------------------------------------------------
# robustness scans

@dataclass
class ScanResult:
    axis: str                 # "epsilon" or "delta"
    values: np.ndarray        # (P,) error fractions
    fidelities: dict

    def to_csv(self, path):
        names = sorted(self.fidelities)
        write_csv(path, [f"{self.axis}_fraction"] + [f"fidelity_{n}" for n in names],
                  [self.values] + [self.fidelities[n] for n in names])


AXES = ("epsilon", "delta")


def robustness_scan(variants: dict, axes, values=None,
                    rates: DecoherenceRates | None = None,
                    n_theta: int | None = None, dt: float = SCAN_DT) -> list:
    """Fidelity-versus-error curves for each gate variant, one ``ScanResult``
    per name in ``axes``, in order.

    An axis is "epsilon" (drive amplitude) or "delta" (detuning offset);
    ``axes`` is a sequence of them, not one name.  Each variant evolves the
    error points of every axis as one batch, epsilon = (values, 0, ...) and
    delta = (0, ..., values) for ``("epsilon", "delta")``, and each axis reads
    its slice.  ``n_theta`` is accepted and has no effect.
    """
    if isinstance(axes, str):
        raise ValueError(f"axes must be a sequence of axis names, not the string {axes!r}")
    axes = list(axes)
    for axis in axes:
        if axis not in AXES:
            raise ValueError(f"unknown scan axis {axis!r}; axis must be 'epsilon' or 'delta'")
    if values is None:
        values = np.linspace(-0.1, 0.1, 41)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("a robustness scan needs at least one error value")
    _warn_if_out_of_range(values)
    if not axes:
        return []
    rates = rates or DecoherenceRates()
    zero = np.zeros_like(values)
    epsilon, delta = (np.concatenate([values if axis == name else zero for axis in axes])
                      for name in AXES)
    fidelities = {}
    for name, (pulse, target) in variants.items():
        evolved = _evolve_channel(pulse, "two_level", None, rates, epsilon, delta, dt).final
        fidelities[name] = _average_fidelity(evolved, target, QUBIT_IDX).reshape(len(axes), -1)
    return [ScanResult(axis=axis, values=values,
                       fidelities={name: f[k] for name, f in fidelities.items()})
            for k, axis in enumerate(axes)]


# ---------------------------------------------------------------------------
# time-resolved fidelity

@dataclass
class FidelityTrace:
    times: np.ndarray
    fidelity: np.ndarray
    populations: np.ndarray
    channel: np.ndarray  # final E(|a><b|), index 2a + b

    def gate_fidelity(self, target) -> float:
        """Average gate fidelity of the final channel against ``target``."""
        return float(_average_fidelity(self.channel, target, QUBIT_IDX))

    def to_csv(self, path):
        pops = list(self.populations.T)
        write_csv(path, ["t_ns"] + [f"pop_{i}" for i in range(len(pops))] + ["fidelity"],
                  [self.times] + pops + [self.fidelity])


def fidelity_dynamics(pulse: DrivePulse, ket0, model: str = "three_level",
                      anharmonicity: float | None = None,
                      rates: DecoherenceRates | None = None,
                      err: ErrorFractions | None = None,
                      dt: float = DEFAULT_DT, record_stride: int = 20) -> FidelityTrace:
    """F(t) against the ideal closed two-level evolution, plus populations.

    rho(t) = sum k_a k_b* E_t(|a><b|) is read from the recorded channel, so
    the trace also carries the gate's average fidelity.
    """
    ket0 = np.asarray(ket0, dtype=complex)
    norm = np.linalg.norm(ket0)
    if ket0.shape != (2,) or not 0 < norm < np.inf:
        raise ValueError("initial_state must be two finite amplitudes, not both zero")
    ket0 = ket0 / norm
    res = _evolve_channel(pulse, model, anharmonicity, rates, *_fractions(err), dt, record_stride)
    rho = np.einsum("k,tkij->tij", np.outer(ket0, ket0.conj()).ravel(), res.states)
    ref = evolve_schrodinger(two_level_hamiltonian(replace(pulse, drag=None)), ket0,
                             (0.0, pulse.tau), dt, record_stride=record_stride).states
    fid = np.einsum("ti,tij,tj->t", ref.conj(), rho[:, :2, :2], ref).real
    pops = np.einsum("tii->ti", rho).real
    return FidelityTrace(times=res.times, fidelity=fid, populations=pops, channel=res.final)
