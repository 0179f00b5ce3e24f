"""Config file loading and strict validation for the CLI.

Configs are JSON objects.  Unknown keys anywhere are rejected (schema
error), malformed structure is a schema error, and structurally valid but
physically inadmissible values (negative rates, non-Hermitian Hamiltonian
literals) are physics errors.  The two cases map to different process exit
codes, so they are distinct exception types here.  Every number must be
finite: NaN, Infinity and literals beyond the float range, all of which
Python's json reads, are schema errors.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .composite import DEFAULT_TAU_GRID
from .dynamics import check_density_matrix
from .liouville import hermitian_operator
from .validator import DEFAULT_THRESHOLDS

EXPERIMENTS = ("build", "validate", "evolve", "theorem1", "tau-scan", "transport")

# every --tol / tolerances key the CLI understands
TOLERANCE_NAMES = tuple(DEFAULT_THRESHOLDS)

STATE_PRESETS = ("ground", "excited", "maximally_mixed", "thermal", "superposition")

# the most points a times block may ask for: 500 times the largest count of
# any shipped or benchmark config, and few enough that np.linspace can
# always allocate them
MAX_TIME_COUNT = 100_000


class SchemaError(Exception):
    """Config is missing, unparseable, or structurally invalid (exit 2)."""

    exit_code = 2


class PhysicsError(Exception):
    """Config parses but asks for something inadmissible (exit 3)."""

    exit_code = 3


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SchemaError(f"{path}: unknown key(s) {', '.join(unknown)}")


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number")
    return number


def _entry(value, path):
    """A matrix entry: a real number or an [re, im] pair."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], path), _number(value[1], path))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, path))
    raise SchemaError(f"{path}: expected a number or [re, im] pair")


def parse_tolerance(name, value, path):
    """A threshold override: name must be in DEFAULT_THRESHOLDS and value a
    finite positive number (a JSON number, or a string from --tol)."""
    if name not in TOLERANCE_NAMES:
        raise SchemaError(f"{path}: unknown tolerance {name!r} (known: {', '.join(TOLERANCE_NAMES)})")
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise SchemaError(f"{path}: {value!r} is not a number") from None
    tol = _number(value, path)
    if tol <= 0:
        raise SchemaError(f"{path}: must be positive")
    return tol


def parse_matrix(value, path):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a non-empty list of rows")
    n = len(value)
    mat = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]: expected a row of length {n} (square matrix)")
        for j, cell in enumerate(row):
            mat[i, j] = _entry(cell, f"{path}[{i}][{j}]")
    try:
        return hermitian_operator(mat, path)
    except ValueError:
        raise PhysicsError(f"{path}: matrix literal is not Hermitian") from None


_PRESET_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*\((.*)\)\s*$")

_HAMILTONIAN_PRESETS = {
    "qubit": (presets.qubit, 0, 1),
    "qutrit": (presets.qutrit, 0, 3),
    "ladder": (presets.ladder, 1, 2),
    "coupled_qubits": (presets.coupled_qubits, 0, 3),
}


def parse_hamiltonian(value, path):
    """A Hamiltonian spec: preset call string like "qubit(1.0)" or a
    Hermitian matrix literal.  Returns (matrix, echo label)."""
    if isinstance(value, str):
        match = _PRESET_RE.match(value)
        if not match:
            raise SchemaError(f"{path}: expected 'name(args...)', got {value!r}")
        name, argstr = match.group(1), match.group(2).strip()
        if name not in _HAMILTONIAN_PRESETS:
            raise SchemaError(
                f"{path}: unknown preset {name!r} "
                f"(known: {', '.join(sorted(_HAMILTONIAN_PRESETS))})"
            )
        fn, min_args, max_args = _HAMILTONIAN_PRESETS[name]
        args = []
        if argstr:
            for k, piece in enumerate(argstr.split(",")):
                try:
                    arg = float(piece)
                except ValueError:
                    raise SchemaError(f"{path}: argument {k} of {name} is not a number") from None
                args.append(_number(arg, f"{path}: argument {k} of {name}"))
        if not min_args <= len(args) <= max_args:
            raise SchemaError(
                f"{path}: {name} takes {min_args}..{max_args} arguments, got {len(args)}"
            )
        if name == "ladder":
            if args[0] != int(args[0]) or args[0] < 2:
                raise SchemaError(f"{path}: ladder size must be an integer >= 2")
            args[0] = int(args[0])
        try:
            return fn(*args), value.strip()
        except ValueError as exc:
            raise PhysicsError(f"{path}: {exc}") from None
    return parse_matrix(value, path), "matrix"


_RATE_KEY_RE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*$")


def _parse_rates(value, path):
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object mapping 'i->j' to a rate")
    rates = {}
    for key, raw in value.items():
        match = _RATE_KEY_RE.match(key)
        if not match:
            raise SchemaError(f"{path}[{key!r}]: key must look like 'i->j'")
        n, m = int(match.group(1)), int(match.group(2))
        if not n < m:
            raise SchemaError(f"{path}[{key!r}]: need i < j (downward rate of the i<->j pair)")
        gamma = _number(raw, f"{path}[{key!r}]")
        if gamma < 0:
            raise PhysicsError(f"{path}[{key!r}]: rate must be nonnegative, got {gamma}")
        rates[(n, m)] = gamma
    return rates


def _parse_rate_function(value, path):
    _check_keys(value, ("kind", "kappa"), path)
    kind = value.get("kind")
    if kind not in ("flat", "ohmic"):
        raise SchemaError(f"{path}.kind: expected 'flat' or 'ohmic', got {kind!r}")
    kappa = _number(value.get("kappa", 1.0), f"{path}.kappa")
    if kappa < 0:
        raise PhysicsError(f"{path}.kappa: coupling strength must be nonnegative, got {kappa}")
    return kind, kappa


@dataclass
class BathConfig:
    beta: float
    rates: dict = field(default_factory=dict)
    rate_function: tuple | None = None  # (kind, kappa)
    alpha: np.ndarray | None = None
    label: str = "bath"


def _parse_bath(value, path, index):
    _check_keys(value, ("label", "beta", "rates", "rate_function", "alpha"), path)
    if "beta" not in value:
        raise SchemaError(f"{path}: missing required key 'beta'")
    beta = _number(value["beta"], f"{path}.beta")
    if beta < 0:
        raise PhysicsError(f"{path}.beta: inverse temperature must be nonnegative, got {beta}")
    rates = _parse_rates(value.get("rates", {}), f"{path}.rates")
    rate_function = None
    if "rate_function" in value:
        rate_function = _parse_rate_function(value["rate_function"], f"{path}.rate_function")
    alpha = None
    if "alpha" in value:
        alpha = parse_matrix(value["alpha"], f"{path}.alpha")
        if np.any(alpha.imag):
            raise PhysicsError(f"{path}.alpha: alpha must be real")
        alpha = alpha.real
    if not rates and rate_function is None and alpha is None:
        raise SchemaError(f"{path}: bath needs at least one of rates, rate_function, alpha")
    label = value.get("label", f"bath{index}")
    if not isinstance(label, str):
        raise SchemaError(f"{path}.label: expected a string")
    return BathConfig(beta=beta, rates=rates, rate_function=rate_function, alpha=alpha, label=label)


def _parse_times(value, path):
    if isinstance(value, list):
        times = np.array([_number(v, f"{path}[{k}]") for k, v in enumerate(value)])
    else:
        _check_keys(value, ("start", "stop", "count", "log"), path)
        start = _number(value.get("start", 0.0), f"{path}.start")
        if "stop" not in value:
            raise SchemaError(f"{path}: missing required key 'stop'")
        stop = _number(value["stop"], f"{path}.stop")
        count = value.get("count", 100)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise SchemaError(f"{path}.count: expected a positive integer")
        if count > MAX_TIME_COUNT:
            raise SchemaError(f"{path}.count: at most {MAX_TIME_COUNT} time points, got {count}")
        if value.get("log", False):
            if start <= 0 or stop <= 0:
                raise SchemaError(f"{path}: log spacing needs start > 0 and stop > 0")
            times = np.geomspace(start, stop, count)
        else:
            times = np.linspace(start, stop, count)
    # written so that a NaN, which compares false, fails it
    if len(times) == 0 or not np.all(np.diff(times) > 0):
        raise SchemaError(f"{path}: times must be non-empty and strictly ascending")
    return times


def _parse_choice(value, choices, path):
    """One of the named choices, or a Hermitian matrix literal."""
    if not isinstance(value, str):
        return parse_matrix(value, path)
    if value not in choices:
        raise SchemaError(f"{path}: expected {', '.join(map(repr, choices))}, or a matrix")
    return value


def resolve_state(spec, hamiltonian, beta, name="initial state"):
    """Turn a state spec (preset name or matrix literal) into a density
    matrix in the eigenbasis conventions of the given Hamiltonian; name
    labels the state in errors.  A literal that is not a density matrix,
    or "nonstationary" on a single level, is a PhysicsError."""
    if isinstance(spec, np.ndarray):
        try:
            return check_density_matrix(spec)
        except ValueError as exc:
            raise PhysicsError(f"{name} literal: {exc}") from None
    energies, vectors = np.linalg.eigh(np.asarray(hamiltonian, dtype=complex))
    n = len(energies)
    if spec == "ground":
        v = vectors[:, 0]
        return np.outer(v, v.conj())
    if spec == "excited":
        v = vectors[:, -1]
        return np.outer(v, v.conj())
    if spec == "maximally_mixed":
        return np.eye(n, dtype=complex) / n
    if spec == "superposition":
        v = vectors.sum(axis=1) / np.sqrt(n)
        return np.outer(v, v.conj())
    if spec == "thermal":
        return presets.thermal_state(hamiltonian, beta)
    if spec == "nonstationary":
        # equal superposition of the two lowest levels: stationary only if
        # they happen to be degenerate
        if n < 2:
            raise PhysicsError(f"{name}: 'nonstationary' needs at least two levels, got {n}")
        v = (vectors[:, 0] + vectors[:, 1]) / np.sqrt(2.0)
        return np.outer(v, v.conj())
    raise SchemaError(f"unknown state preset {spec!r}")


@dataclass
class EvolveConfig:
    initial_state: object = "excited"
    times: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 50.0, 200))


def _parse_evolve(value, path):
    _check_keys(value, ("initial_state", "times"), path)
    cfg = EvolveConfig()
    if "initial_state" in value:
        cfg.initial_state = _parse_choice(value["initial_state"], STATE_PRESETS, f"{path}.initial_state")
    if "times" in value:
        cfg.times = _parse_times(value["times"], f"{path}.times")
    if cfg.times[0] < 0:
        raise SchemaError(f"{path}.times: must start at t >= 0")
    return cfg


# The raw config section each composite experiment runs when the config
# has none; a given section overrides it key by key, and its keys are the
# only ones allowed.  The two-qubit exchange model is the canonical scan
# target.
_COMPOSITE_COMMON = {
    "env_beta": 1.0,
    "env_state": "thermal",
    "coupling_scale": 0.5,
    "times": [0.1, 1.0, 10.0],
    "taus": list(DEFAULT_TAU_GRID),
    "initial_state": "superposition",
}
COMPOSITE_DEFAULTS = {
    "theorem1": {"environment": "ladder(4, 1.0)", "coupling": "strict", **_COMPOSITE_COMMON},
    "tau-scan": {"environment": "qubit(1.0)", "coupling": "nonconserving", **_COMPOSITE_COMMON},
}


@dataclass
class CompositeConfig:
    """Environment + coupling description shared by the theorem1 and
    tau-scan experiments."""

    env_hamiltonian: np.ndarray
    env_label: str
    env_beta: float
    env_state: object  # "thermal", "nonstationary", or a matrix
    coupling: object  # "strict", "nonconserving", or a matrix
    coupling_scale: float
    times: np.ndarray
    taus: np.ndarray
    initial_state: object


def _parse_composite(value, path, experiment):
    defaults = COMPOSITE_DEFAULTS[experiment]
    _check_keys(value, defaults, path)
    raw = {**defaults, **value}
    env_hamiltonian, env_label = parse_hamiltonian(raw["environment"], f"{path}.environment")
    env_beta = _number(raw["env_beta"], f"{path}.env_beta")
    if env_beta < 0:
        raise PhysicsError(f"{path}.env_beta: must be nonnegative")
    env_state = _parse_choice(raw["env_state"], ("thermal", "nonstationary"), f"{path}.env_state")
    coupling = _parse_choice(raw["coupling"], ("strict", "nonconserving"), f"{path}.coupling")
    coupling_scale = _number(raw["coupling_scale"], f"{path}.coupling_scale")
    if coupling_scale <= 0:
        raise PhysicsError(f"{path}.coupling_scale: must be positive")
    taus = _parse_times(raw["taus"], f"{path}.taus")
    if taus[0] < 0:
        raise SchemaError(f"{path}.taus: must start at tau >= 0")
    return CompositeConfig(
        env_hamiltonian=env_hamiltonian,
        env_label=env_label,
        env_beta=env_beta,
        env_state=env_state,
        coupling=coupling,
        coupling_scale=coupling_scale,
        times=_parse_times(raw["times"], f"{path}.times"),
        taus=taus,
        initial_state=_parse_choice(raw["initial_state"], STATE_PRESETS, f"{path}.initial_state"),
    )


@dataclass
class RunConfig:
    system_hamiltonian: np.ndarray
    system_label: str
    baths: list
    experiment: str | None
    evolve: EvolveConfig
    theorem1: CompositeConfig | None
    tau_scan: CompositeConfig | None
    tolerances: dict
    output: str | None
    seed: int

    def composite_for(self, experiment):
        """The composite section of experiment ("theorem1" or "tau-scan"),
        parsed from COMPOSITE_DEFAULTS when the config gives none."""
        section = self.tau_scan if experiment == "tau-scan" else self.theorem1
        return section if section is not None else _parse_composite({}, experiment, experiment)


_TOP_KEYS = (
    "system",
    "baths",
    "experiment",
    "evolve",
    "theorem1",
    "tau_scan",
    "tolerances",
    "output",
    "seed",
)


def parse_config(doc):
    """Validate a parsed JSON document into a RunConfig."""
    _check_keys(doc, _TOP_KEYS, "config")
    if "system" not in doc:
        raise SchemaError("config: missing required key 'system'")
    _check_keys(doc["system"], ("hamiltonian",), "config.system")
    if "hamiltonian" not in doc["system"]:
        raise SchemaError("config.system: missing required key 'hamiltonian'")
    h_sys, sys_label = parse_hamiltonian(doc["system"]["hamiltonian"], "config.system.hamiltonian")

    baths_raw = doc.get("baths", [])
    if not isinstance(baths_raw, list):
        raise SchemaError("config.baths: expected a list")
    baths = [_parse_bath(b, f"config.baths[{k}]", k) for k, b in enumerate(baths_raw)]

    experiment = doc.get("experiment")
    if experiment is not None and experiment not in EXPERIMENTS:
        raise SchemaError(
            f"config.experiment: unknown experiment {experiment!r} "
            f"(known: {', '.join(EXPERIMENTS)})"
        )

    evolve = _parse_evolve(doc.get("evolve", {}), "config.evolve")

    if "theorem1" in doc and "tau_scan" in doc:
        raise SchemaError("config: give at most one of 'theorem1' and 'tau_scan'")
    theorem1 = _parse_composite(doc["theorem1"], "config.theorem1", "theorem1") if "theorem1" in doc else None
    tau_scan = _parse_composite(doc["tau_scan"], "config.tau_scan", "tau-scan") if "tau_scan" in doc else None

    tol_raw = doc.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise SchemaError("config.tolerances: expected an object")
    tolerances = {name: parse_tolerance(name, val, f"config.tolerances.{name}") for name, val in tol_raw.items()}

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise SchemaError("config.output: expected a string path")

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SchemaError("config.seed: expected a nonnegative integer")

    return RunConfig(
        system_hamiltonian=h_sys,
        system_label=sys_label,
        baths=baths,
        experiment=experiment,
        evolve=evolve,
        theorem1=theorem1,
        tau_scan=tau_scan,
        tolerances=tolerances,
        output=output,
        seed=seed,
    )


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("config: top level must be a JSON object")
    return parse_config(doc)
