"""Config-driven command line front end.

Subcommands: synth, simulate, scan, two-qubit, optimize, accept.  Scenario
configs are JSON objects holding only the keys ``KEYS`` declares for the
command; frequencies are given in MHz (rates in kHz) and converted to
angular units internally.  Every run writes deterministic CSV artifacts
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


def _is_number(value) -> bool:  # finite as a float; JSON may also give NaN, Infinity, 10**400
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# kind -> (what a value must be, the test it must pass, its conversion)
KINDS = {
    "number": ("a number", _is_number, float),
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    "flag": ("true or false", lambda v: isinstance(v, bool), bool),
    "string": ("a string", lambda v: isinstance(v, str), str),
    "strings": ("a list of strings", _is_strings, tuple),
    "names": ("a list of strings", _is_strings, tuple),
    "numbers": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
                lambda v: tuple(map(float, v))),
    "retired": ("anything", lambda v: True, lambda v: None),
}

# Every key each command reads: key -> (kind, default[, minimum[, strict]]), a
# value of at least ``minimum`` (above it when ``strict``); a nested table is a
# block. A "names" value is one or more of the names its default lists; a "retired"
# key takes any value and has no effect; a default of None is filled in by the command.
# README's "Config keys" tables list the same, and a test holds them equal.
KEYS = {
    "synth": {"gate": ("string", ""), "omega0_mhz": ("number", 30.0, 0, True),
              "coeffs": ("numbers", ()), "grid_points": ("integer", 4001, 2),
              "drag": ("flag", False), "anharmonicity_mhz": ("number", 220.0),
              "out_dir": ("string", ".")},
    "simulate": {"gate": ("string", ""), "omega0_mhz": ("number", 30.0, 0, True),
                 "model": ("string", "three_level"), "gamma_khz": ("number", 0.0, 0),
                 "kappa_khz": ("number", 0.0, 0), "epsilon": ("number", 0.0),
                 "delta": ("number", 0.0), "dt_ns": ("number", 0.001, 0, True),
                 "anharmonicity_mhz": ("number", 220.0), "grid_points": ("integer", 4001, 2),
                 "record_stride": ("integer", 20, 1), "drag": ("flag", True),
                 "coeffs": ("numbers", ()), "initial_state": ("numbers", None),
                 "n_theta": ("retired", None), "out_dir": ("string", ".")},
    "scan": {"gate": ("string", ""), "omega0_mhz": ("number", 30.0, 0, True),
             "gamma_khz": ("number", 0.0, 0), "kappa_khz": ("number", 0.0, 0),
             "dt_ns": ("number", 0.01, 0, True),
             "scan": {"axis": ("string", "epsilon"), "axes": ("strings", None),
                      "points": ("integer", 41, 1), "min": ("number", -0.1),
                      "max": ("number", 0.1), "variants": ("names", VARIANTS),
                      "comparator_style": ("string", "canonical")},
             "n_theta": ("retired", None), "workers": ("retired", None),
             "out_dir": ("string", ".")},
    "two-qubit": {"gamma_khz": ("number", 0.0, 0), "kappa_khz": ("number", 0.0, 0),
                  "dt_ns": ("number", 0.001, 0, True), "grid_points": ("integer", 4001, 2),
                  "record_stride": ("integer", 200, 1),
                  "two_qubit": {"g_mhz": ("number", 10.0, 0, True), "delta_mhz": ("number", 500.0),
                                "anh_a_mhz": ("number", 220.0), "anh_b_mhz": ("number", 200.0),
                                "gprime_max_mhz": ("number", 15.0, 0, True),
                                "gamma_g_prime_over_pi": ("number", 0.25),
                                "coeffs": ("numbers", TWO_QUBIT_COEFFS),
                                "model": ("string", "full"), "n_theta": ("retired", None)},
                  "out_dir": ("string", ".")},
    "optimize": {"gate": ("string", ""), "omega0_mhz": ("number", 30.0, 0, True),
                 "seed": ("integer", 0, 0), "grid_points": ("integer", 4001, 2),
                 "optimize": {"bound": ("number", 0.2), "monotone": ("flag", True),
                              "starts": ("integer", 16, 1), "evals_per_start": ("integer", 500, 1)},
                 "out_dir": ("string", ".")},
}


def read_config(config: dict, keys: dict, block: str = "") -> dict:
    """Every key of ``keys``, a table of KEYS, with the value ``config`` gives it,
    checked, or else its default; ``block`` names the block ``config`` is."""
    for key in config:
        if key not in keys:
            raise ConfigError(f"unknown config key {block + key!r}, "
                              f"expected one of {', '.join(keys)}")
    values = {}
    for key, entry in keys.items():
        if isinstance(entry, dict):
            value = config.get(key, {})
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key!r} must be an object, got {json.dumps(value)}")
            values[key] = read_config(value, entry, f"{block}{key}.")
            continue
        kind, default, *bound = entry
        if key not in config:
            values[key] = default
            continue
        value = config[key]
        phrase, accepts, convert = KINDS[kind]
        if not accepts(value):
            raise ConfigError(f"config key {key!r} must be {phrase}, got {json.dumps(value)}")
        if bound:
            _in_range(f"config key {key!r}", value, *bound)
        if kind == "names" and not (value and set(value) <= set(default)):
            raise ConfigError(f"config key {key!r} must name one or more of "
                              f"{', '.join(default)}, got {json.dumps(value)}")
        values[key] = convert(value)
    return values


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


def _coeffs_flag(text) -> tuple:
    """The comma-separated numbers of flag --coeffs, each of which must be finite."""
    for item in text.split(","):
        try:
            finite = math.isfinite(float(item))
        except ValueError:
            finite = False
        if not finite:
            raise ConfigError(f"flag --coeffs must be a finite number, got {item}")
    return tuple(map(float, text.split(",")))


def _settings(args, command):
    """The config ``args.config`` and the values ``command`` reads from it, with the
    flags applied; ``budget`` and ``rates``, in rad/ns, join where their keys are."""
    config = load_config(args.config)
    v = read_config(config, KEYS[command])
    if "gate" in v:
        v["gate"] = args.gate or v["gate"]
        if not v["gate"]:
            raise ConfigError("no gate selected (flag --gate or config key 'gate')")
    if "omega0_mhz" in v:  # the flag's value is already in rad/ns
        v["budget"] = AmplitudeBudget(v["omega0_mhz"] * MHZ if args.omega0 is None
                                      else _positive_flag("--omega0", args.omega0))
    if "gamma_khz" in v:
        v["rates"] = DecoherenceRates(gamma_decay=v["gamma_khz"] * KHZ,
                                      kappa_dephase=v["kappa_khz"] * KHZ)
    if "dt_ns" in v and args.dt is not None:
        v["dt_ns"] = _positive_flag("--dt", args.dt)
    if "coeffs" in v and args.coeffs:
        v["coeffs"] = _coeffs_flag(args.coeffs)
    if getattr(args, "model", None):
        (v["two_qubit"] if command == "two-qubit" else v)["model"] = args.model
    v["seed"] = v.get("seed") if args.seed is None else _in_range("flag --seed", args.seed, 0)
    v["out_dir"] = args.out or v["out_dir"]
    return config, v


def cmd_synth(args) -> int:
    config, v = _settings(args, "synth")
    gate, out_dir = v["gate"], v["out_dir"]
    spec = CATALOG[gate]
    pulse = synthesize(spec, default_schedule(spec, v["coeffs"]), v["budget"], v["grid_points"])
    if v["drag"] or args.drag:
        pulse = drag_correct(pulse, v["anharmonicity_mhz"] * MHZ)
    out = os.path.join(out_dir, f"pulse_{gate}.csv")
    pulse.to_csv(out)
    write_manifest(out_dir, "synth", config, v["seed"], [out])
    print(f"tau_ns={pulse.tau:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    config, v = _settings(args, "simulate")
    gate, model, out_dir = v["gate"], v["model"], v["out_dir"]
    spec = CATALOG[gate]
    anh = v["anharmonicity_mhz"] * MHZ
    ket0 = v["initial_state"]
    if ket0 is None:
        ket0 = {"pi8": (1.0, 1.0), "phase": (1.0, 1.0)}.get(gate, (1.0, 0.0))
    pulse = synthesize(spec, default_schedule(spec, v["coeffs"]), v["budget"], v["grid_points"])
    if model == "three_level" and v["drag"]:
        pulse = drag_correct(pulse, anh)
        if v["coeffs"]:
            print("note: reshaped schedules pair poorly with the leakage correction")
    trace = fidelity_dynamics(pulse, ket0, model=model, anharmonicity=anh, rates=v["rates"],
                              err=ErrorFractions(epsilon=v["epsilon"], delta=v["delta"]),
                              dt=v["dt_ns"], record_stride=v["record_stride"])
    fid = trace.gate_fidelity(target_unitary(spec))
    out = os.path.join(out_dir, f"trace_{gate}_{model}.csv")
    trace.to_csv(out)
    write_manifest(out_dir, "simulate", config, v["seed"], [out])
    print(f"fidelity={fid:.6f}")
    print(f"tau_ns={pulse.tau:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_scan(args) -> int:
    config, v = _settings(args, "scan")
    gate, scan, out_dir = v["gate"], v["scan"], v["out_dir"]
    axes = (scan["axis"],) if scan["axes"] is None else scan["axes"]
    variants = gate_variants(gate, v["budget"], scan["variants"], scan["comparator_style"])
    values = np.linspace(scan["min"], scan["max"], scan["points"])
    # every axis is scanned before any file is written, so a bad axis leaves no output
    scans = robustness_scan(variants, axes, values, rates=v["rates"], dt=v["dt_ns"])
    outputs = []
    i0 = int(np.argmin(np.abs(values)))  # the grid point nearest zero error
    for axis, scan in zip(axes, scans):
        out = os.path.join(out_dir, f"scan_{gate}_{axis}.csv")
        scan.to_csv(out)
        outputs.append(out)
        for name, fids in sorted(scan.fidelities.items()):
            print(f"{axis} {name}: F(min)={fids.min():.6f} "
                  f"F({values[i0]:.6g})={fids[i0]:.6f}")
    write_manifest(out_dir, "scan", config, v["seed"], outputs)
    for out in outputs:
        print(f"wrote {out}")
    return 0


def cmd_two_qubit(args) -> int:
    config, v = _settings(args, "two-qubit")
    tq, rates, out_dir = v["two_qubit"], v["rates"], v["out_dir"]
    params = TransmonParams(g=tq["g_mhz"] * MHZ, Delta=tq["delta_mhz"] * MHZ,
                            anh_a=tq["anh_a_mhz"] * MHZ, anh_b=tq["anh_b_mhz"] * MHZ)
    gamma_prime = tq["gamma_g_prime_over_pi"] * math.pi
    model = tq["model"]
    check_two_qubit_model(model, rates)
    if gamma_prime == 0.0:
        # a zero phase is the identity gate: no drive, nothing to evolve
        write_manifest(out_dir, "two-qubit", config, v["seed"], [])
        print("fidelity=1.000000")
        print("tau_ns=0.000000")
        return 0
    from .paths import PathKind, PathSpec
    spec = PathSpec(gamma_g=gamma_prime, alpha0=0.0, beta0=math.pi / 2,
                    kind=PathKind.POLE_START)
    pulse = synthesize(spec, default_schedule(spec, tq["coeffs"]),
                       AmplitudeBudget(tq["gprime_max_mhz"] * MHZ), v["grid_points"])
    drive = build_two_qubit_drive(params, pulse, gamma_prime)
    fid = average_gate_fidelity_2q(params, drive, rates=rates, model=model, dt=v["dt_ns"])
    outputs = []
    if model == "full":
        sampler = two_qubit_full_hamiltonian(params, drive)
        psi0 = np.zeros(len(LEVELS), dtype=complex)
        psi0[IDX_11] = 1.0
        res = evolve_schrodinger(sampler, psi0, (0.0, drive.tau), v["dt_ns"],
                                 record_stride=v["record_stride"])
        pops = np.abs(res.states) ** 2
        out = os.path.join(out_dir, "trace_two_qubit_full.csv")
        write_csv(out, ["t_ns", "pop_11", "pop_02", "pop_20", "pop_other"],
                  [res.times, pops[:, IDX_11], pops[:, IDX_02], pops[:, IDX_20],
                   1.0 - pops[:, IDX_11] - pops[:, IDX_02] - pops[:, IDX_20]])
        outputs.append(out)
    write_manifest(out_dir, "two-qubit", config, v["seed"], outputs)
    print(f"fidelity={fid:.6f}")
    print(f"tau_ns={drive.tau:.6f}")
    for out in outputs:
        print(f"wrote {out}")
    return 0


def cmd_optimize(args) -> int:
    config, v = _settings(args, "optimize")
    gate, opt, out_dir = v["gate"], v["optimize"], v["out_dir"]
    problem = OptimizationProblem(CATALOG[gate], v["budget"], bound=opt["bound"],
                                  monotone=opt["monotone"], grid_points=v["grid_points"])
    result = optimize(problem, seed=v["seed"], n_starts=opt["starts"],
                      max_evals_per_start=opt["evals_per_start"])
    out = os.path.join(out_dir, f"optimize_{gate}.csv")
    result.to_csv(out, gate_name=gate)
    hist = os.path.join(out_dir, f"optimize_{gate}_history.csv")
    result.history_to_csv(hist)
    write_manifest(out_dir, "optimize", config, v["seed"], [out, hist])
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
    """``--dt -inf`` as ``--dt=-inf``, and so for ``--omega0`` and ``--coeffs``:
    argparse takes a lone argument that starts with '-' and is no plain negative
    number (-inf, -nan, -1e-3, -0.05,0.08) for an option, and the flag's own
    check would never see it."""
    argv, out = list(sys.argv[1:] if argv is None else argv), []
    while argv:
        arg = argv.pop(0)
        if arg in ("--dt", "--omega0", "--coeffs") and argv and argv[0].startswith("-"):
            try:
                float(argv[0].split(",")[0])
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
