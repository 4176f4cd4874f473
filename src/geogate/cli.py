"""Config-driven command line front end.

Subcommands: synth, simulate, scan, two-qubit, optimize, accept.  Scenario
configs are JSON; frequencies are given in MHz (rates in kHz) and converted
to angular units internally.  Every run writes deterministic CSV artifacts
plus a manifest recording the config hash, seed and library versions.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dynamics import (
    DecoherenceRates,
    ErrorFractions,
    TransmonParams,
    build_two_qubit_drive,
    evolve_schrodinger,
    two_qubit_full_hamiltonian,
    IDX_02, IDX_11, IDX_20, LEVELS,
)
from .fidelity import (
    average_gate_fidelity_2q,
    check_two_qubit_model,
    fidelity_dynamics,
    gate_variants,
    robustness_scan,
    VARIANTS,
)
from ._csv import write_csv
from .optimize import OptimizationProblem, optimize
from .pulses import (
    CATALOG,
    TWO_QUBIT_COEFFS,
    AmplitudeBudget,
    default_schedule,
    drag_correct,
    synthesize,
    target_unitary,
)

TWO_PI = 2 * math.pi
MHZ = TWO_PI * 1e-3   # MHz -> rad/ns
KHZ = TWO_PI * 1e-6   # kHz -> rad/ns


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: a config must be a JSON object, got {json.dumps(config)}")
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@functools.cache
def _scipy_version() -> str:
    """scipy's version from its installed metadata, without importing scipy."""
    from importlib.metadata import version
    return version("scipy")


def write_manifest(out_dir, command, config, seed, outputs):
    manifest = {
        "command": command,
        "config_sha256": config_hash(config),
        "seed": seed,
        "versions": {
            "geogate": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _typed(config, key, default, kind, accepts):
    """``config[key]`` (``default`` when absent), which ``accepts`` must pass."""
    value = config.get(key, default)
    if not accepts(value):
        raise ConfigError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    return value


def _is_number(value) -> bool:  # finite as a float; JSON may also give NaN, Infinity, 10**400
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _in_range(name, value, minimum, strict=False):
    """``value`` of the key or flag ``name``, which must be at least ``minimum``
    (above it when ``strict``)."""
    if not (value > minimum if strict else value >= minimum):
        raise ConfigError(f"{name} must be {'greater than' if strict else 'at least'} "
                          f"{minimum}, got {value}")
    return value


def _positive_flag(name, value) -> float:
    """The value of the number flag ``name``, which must be finite and above 0."""
    if not math.isfinite(value):
        raise ConfigError(f"flag {name} must be a finite number, got {value}")
    return _in_range(f"flag {name}", value, 0, strict=True)


def _number(config, key, default, minimum=None, strict=False) -> float:
    value = _typed(config, key, default, "a number", _is_number)
    if minimum is not None:
        _in_range(f"config key {key!r}", value, minimum, strict)
    return float(value)


def _integer(config, key, default, minimum=None) -> int:
    value = _typed(config, key, default, "an integer",
                   lambda v: isinstance(v, int) and not isinstance(v, bool))
    if minimum is not None:
        _in_range(f"config key {key!r}", value, minimum)
    return value


def _flag(config, key, default) -> bool:
    return _typed(config, key, default, "true or false", lambda v: isinstance(v, bool))


def _string(config, key, default) -> str:
    return _typed(config, key, default, "a string", lambda v: isinstance(v, str))


def _strings(config, key, default) -> list:
    return _typed(config, key, default, "a list of strings",
                  lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))


def _numbers(config, key, default) -> tuple:
    return tuple(float(x) for x in _typed(
        config, key, default, "a list of numbers",
        lambda v: isinstance(v, list) and all(map(_is_number, v))))


def _names(config, key, known) -> tuple:
    """One or more of the names ``known`` (all of them when the key is absent)."""
    names = _strings(config, key, list(known))
    if not names or not set(names) <= set(known):
        raise ConfigError(f"config key {key!r} must name one or more of {', '.join(known)}, "
                          f"got {json.dumps(names)}")
    return tuple(names)


def _block(config, key) -> dict:
    return _typed(config, key, {}, "an object", lambda v: isinstance(v, dict))


def _budget(config, args) -> AmplitudeBudget:
    omega0 = _number(config, "omega0_mhz", 30.0, minimum=0, strict=True) * MHZ
    if getattr(args, "omega0", None) is not None:  # flag value already in rad/ns
        omega0 = _positive_flag("--omega0", args.omega0)
    return AmplitudeBudget(omega0)


def _rates(config) -> DecoherenceRates:
    return DecoherenceRates(gamma_decay=_number(config, "gamma_khz", 0.0, minimum=0) * KHZ,
                            kappa_dephase=_number(config, "kappa_khz", 0.0, minimum=0) * KHZ)


def _coeffs(config, args):
    coeffs = _numbers(config, "coeffs", [])
    if getattr(args, "coeffs", None):
        return tuple(float(c) for c in args.coeffs.split(","))
    return coeffs


def _gate_name(config, args) -> str:
    name = _string(config, "gate", "")
    name = getattr(args, "gate", None) or name
    if not name:
        raise ConfigError("no gate selected (flag --gate or config key 'gate')")
    return name


def _dt(config, args, default=0.001) -> float:
    dt = _number(config, "dt_ns", default, minimum=0, strict=True)
    if getattr(args, "dt", None) is not None:
        return _positive_flag("--dt", args.dt)
    return dt


def _out_dir(config, args) -> str:
    out_dir = _string(config, "out_dir", ".")
    return getattr(args, "out", None) or out_dir


def cmd_synth(args) -> int:
    config = load_config(args.config)
    gate = _gate_name(config, args)
    spec = CATALOG[gate]
    budget = _budget(config, args)
    coeffs = _coeffs(config, args)
    grid = _integer(config, "grid_points", 4001, minimum=2)
    drag = _flag(config, "drag", False) or args.drag
    out_dir = _out_dir(config, args)
    pulse = synthesize(spec, default_schedule(spec, coeffs), budget, grid)
    if drag:
        anh = _number(config, "anharmonicity_mhz", 220.0) * MHZ
        pulse = drag_correct(pulse, anh)
    out = os.path.join(out_dir, f"pulse_{gate}.csv")
    pulse.to_csv(out)
    write_manifest(out_dir, "synth", config, args.seed, [out])
    print(f"tau_ns={pulse.tau:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    gate = _gate_name(config, args)
    spec = CATALOG[gate]
    budget = _budget(config, args)
    model = _string(config, "model", "three_level")
    model = args.model or model
    rates = _rates(config)
    err = ErrorFractions(epsilon=_number(config, "epsilon", 0.0),
                         delta=_number(config, "delta", 0.0))
    dt = _dt(config, args)
    anh = _number(config, "anharmonicity_mhz", 220.0) * MHZ
    grid = _integer(config, "grid_points", 4001, minimum=2)
    stride = _integer(config, "record_stride", 20, minimum=1)
    drag = _flag(config, "drag", True)
    coeffs = _coeffs(config, args)
    defaults = {"pi8": [1.0, 1.0], "phase": [1.0, 1.0], "hadamard": [1.0, 0.0]}
    ket0 = _numbers(config, "initial_state", defaults.get(gate, [1.0, 0.0]))
    out_dir = _out_dir(config, args)
    pulse = synthesize(spec, default_schedule(spec, coeffs), budget, grid)
    if model == "three_level" and drag:
        pulse = drag_correct(pulse, anh)
        if coeffs:
            print("note: reshaped schedules pair poorly with the leakage correction")
    trace = fidelity_dynamics(pulse, ket0, model=model, anharmonicity=anh,
                              rates=rates, err=err, dt=dt, record_stride=stride)
    fid = trace.gate_fidelity(target_unitary(spec))
    out = os.path.join(out_dir, f"trace_{gate}_{model}.csv")
    trace.to_csv(out)
    write_manifest(out_dir, "simulate", config, args.seed, [out])
    print(f"fidelity={fid:.6f}")
    print(f"tau_ns={pulse.tau:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_scan(args) -> int:
    config = load_config(args.config)
    gate = _gate_name(config, args)
    scan_cfg = _block(config, "scan")
    axes = _strings(scan_cfg, "axes", [_string(scan_cfg, "axis", "epsilon")])
    n_points = _integer(scan_cfg, "points", 41, minimum=1)
    lo, hi = _number(scan_cfg, "min", -0.1), _number(scan_cfg, "max", 0.1)
    include = _names(scan_cfg, "variants", VARIANTS)
    style = _string(scan_cfg, "comparator_style", "canonical")
    rates = _rates(config)
    dt = _dt(config, args, default=0.01)
    out_dir = _out_dir(config, args)
    variants = gate_variants(gate, _budget(config, args), include, style)
    values = np.linspace(lo, hi, n_points)
    # every axis is scanned before any file is written, so a bad axis leaves no output
    scans = robustness_scan(variants, axes, values, rates=rates, dt=dt)
    outputs = []
    i0 = int(np.argmin(np.abs(values)))  # the grid point nearest zero error
    for axis, scan in zip(axes, scans):
        out = os.path.join(out_dir, f"scan_{gate}_{axis}.csv")
        scan.to_csv(out)
        outputs.append(out)
        for name, fids in sorted(scan.fidelities.items()):
            print(f"{axis} {name}: F(min)={fids.min():.6f} "
                  f"F({values[i0]:.6g})={fids[i0]:.6f}")
    write_manifest(out_dir, "scan", config, args.seed, outputs)
    for out in outputs:
        print(f"wrote {out}")
    return 0


def cmd_two_qubit(args) -> int:
    config = load_config(args.config)
    tq = _block(config, "two_qubit")
    params = TransmonParams(g=_number(tq, "g_mhz", 10.0) * MHZ,
                            Delta=_number(tq, "delta_mhz", 500.0) * MHZ,
                            anh_a=_number(tq, "anh_a_mhz", 220.0) * MHZ,
                            anh_b=_number(tq, "anh_b_mhz", 200.0) * MHZ)
    budget = AmplitudeBudget(_number(tq, "gprime_max_mhz", 15.0) * MHZ)
    gamma_prime = _number(tq, "gamma_g_prime_over_pi", 0.25) * math.pi
    coeffs = _numbers(tq, "coeffs", list(TWO_QUBIT_COEFFS))
    model = _string(tq, "model", "full")
    model = args.model or model
    rates = _rates(config)
    check_two_qubit_model(model, rates)
    dt = _dt(config, args)
    grid = _integer(config, "grid_points", 4001, minimum=2)
    stride = _integer(config, "record_stride", 200, minimum=1)
    out_dir = _out_dir(config, args)
    if gamma_prime == 0.0:
        # a zero phase is the identity gate: no drive, nothing to evolve
        write_manifest(out_dir, "two-qubit", config, args.seed, [])
        print("fidelity=1.000000")
        print("tau_ns=0.000000")
        return 0
    from .paths import PathKind, PathSpec
    spec = PathSpec(gamma_g=gamma_prime, alpha0=0.0, beta0=math.pi / 2,
                    kind=PathKind.POLE_START)
    pulse = synthesize(spec, default_schedule(spec, coeffs), budget, grid)
    drive = build_two_qubit_drive(params, pulse, gamma_prime)
    fid = average_gate_fidelity_2q(params, drive, rates=rates, model=model, dt=dt)
    outputs = []
    if model == "full":
        sampler = two_qubit_full_hamiltonian(params, drive)
        psi0 = np.zeros(len(LEVELS), dtype=complex)
        psi0[IDX_11] = 1.0
        res = evolve_schrodinger(sampler, psi0, (0.0, drive.tau), dt, record_stride=stride)
        pops = np.abs(res.states) ** 2
        out = os.path.join(out_dir, "trace_two_qubit_full.csv")
        write_csv(out, ["t_ns", "pop_11", "pop_02", "pop_20", "pop_other"],
                  [res.times, pops[:, IDX_11], pops[:, IDX_02], pops[:, IDX_20],
                   1.0 - pops[:, IDX_11] - pops[:, IDX_02] - pops[:, IDX_20]])
        outputs.append(out)
    write_manifest(out_dir, "two-qubit", config, args.seed, outputs)
    print(f"fidelity={fid:.6f}")
    print(f"tau_ns={drive.tau:.6f}")
    for out in outputs:
        print(f"wrote {out}")
    return 0


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    gate = _gate_name(config, args)
    budget = _budget(config, args)
    seed = _integer(config, "seed", 0)
    if args.seed is not None:
        seed = args.seed
    grid = _integer(config, "grid_points", 4001, minimum=2)
    opt_cfg = _block(config, "optimize")
    problem = OptimizationProblem(CATALOG[gate], budget,
                                  bound=_number(opt_cfg, "bound", 0.2),
                                  monotone=_flag(opt_cfg, "monotone", True),
                                  grid_points=grid)
    n_starts = _integer(opt_cfg, "starts", 16, minimum=1)
    max_evals = _integer(opt_cfg, "evals_per_start", 500, minimum=1)
    out_dir = _out_dir(config, args)
    result = optimize(problem, seed=seed, n_starts=n_starts, max_evals_per_start=max_evals)
    out = os.path.join(out_dir, f"optimize_{gate}.csv")
    result.to_csv(out, gate_name=gate)
    hist = os.path.join(out_dir, f"optimize_{gate}_history.csv")
    result.history_to_csv(hist)
    write_manifest(out_dir, "optimize", config, seed, [out, hist])
    print(f"coeffs={','.join(f'{c:.6f}' for c in result.coeffs)}")
    print(f"tau_ns={result.tau:.6f} (baseline {result.baseline_tau:.6f})")
    print(f"wrote {out}")
    return 0


def cmd_accept(args) -> int:
    from .acceptance import run_all
    results = run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geogate",
        description="Shortest-path geometric gate synthesis and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_choices=None):
        p.add_argument("--config", help="scenario JSON")
        p.add_argument("--out", help="output directory (default: config out_dir or '.')")
        p.add_argument("--seed", type=int, default=None, help="optimizer seed")
        p.add_argument("--dt", type=float, default=None, help="integrator step, ns")
        p.add_argument("--gate", help="catalog gate: phase, pi8, hadamard")
        p.add_argument("--omega0", type=float, default=None,
                       help="amplitude budget, rad/ns (configs use omega0_mhz)")
        p.add_argument("--coeffs", help="comma-separated schedule coefficients")
        if model_choices:
            p.add_argument("--model", choices=model_choices, default=None)

    p = sub.add_parser("synth", help="synthesize a drive pulse CSV")
    common(p)
    p.add_argument("--drag", action="store_true", help="attach the leakage correction")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("simulate", help="open-system gate simulation and trace CSV")
    common(p, model_choices=("two_level", "three_level"))
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("scan", help="robustness scan CSV over error fractions")
    common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("two-qubit", help="coupled-transmon control-phase benchmark")
    common(p, model_choices=("full", "effective"))
    p.set_defaults(fn=cmd_two_qubit)

    p = sub.add_parser("optimize", help="search schedule coefficients for shorter gates")
    common(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.set_defaults(fn=cmd_accept)
    return parser


def _bound_number_flags(argv) -> list:
    """``--dt -inf`` as ``--dt=-inf``, and so for ``--omega0``: argparse takes a lone
    argument that starts with '-' and is no plain negative number (-inf, -nan,
    -1e-3) for an option, and the flag's own check would never see it."""
    argv, out = list(sys.argv[1:] if argv is None else argv), []
    while argv:
        arg = argv.pop(0)
        if arg in ("--dt", "--omega0") and argv and argv[0].startswith("-"):
            try:
                float(argv[0])
            except ValueError:
                pass
            else:
                arg = f"{arg}={argv.pop(0)}"
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bound_number_flags(argv))
    try:
        return args.fn(args)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print("error: " + json.dumps({"type": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
