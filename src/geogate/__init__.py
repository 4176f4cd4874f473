"""Shortest-path geometric gate toolkit for driven transmon models.

Synthesizes drive pulses for single-loop geometric gates, integrates the
resulting closed- and open-system dynamics for one- and two-transmon
models, and benchmarks durations, fidelities and error robustness.
"""

from .paths import (
    BetaSchedule,
    PathKind,
    PathSpec,
    PathTrajectory,
    ScheduleBase,
    beta_schedule,
    circle_constant,
    geometric_phase,
    hadamard_alpha_of_beta,
    path_length,
    sample_trajectory,
)
from .pulses import (
    CATALOG,
    DEFAULT_BUDGET,
    OPTIMIZED_COEFFS,
    TWO_QUBIT_COEFFS,
    AmplitudeBudget,
    DrivePulse,
    GateCatalog,
    default_schedule,
    drag_correct,
    normalize_duration,
    rabi_envelope,
    synthesize,
    target_unitary,
    target_unitary_2q,
)
from .dynamics import (
    DecoherenceRates,
    ErrorFractions,
    TransmonParams,
    TwoQubitDrive,
    build_two_qubit_drive,
    eta_waveform,
    evolve_lindblad,
    evolve_schrodinger,
    parallel_transport_check,
    three_level_hamiltonian,
    two_level_hamiltonian,
    two_qubit_full_hamiltonian,
)
from .fidelity import (
    FidelityTrace,
    ScanResult,
    average_gate_fidelity_1q,
    average_gate_fidelity_2q,
    dynamical_comparator,
    fidelity_dynamics,
    gate_variants,
    robustness_scan,
)
from .optimize import (
    OptimizationProblem,
    OptimizationResult,
    invert_bessel_j1,
    objective,
    optimize,
)

__version__ = "0.1.0"
