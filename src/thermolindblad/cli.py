"""Command-line front end.

Each subcommand loads a JSON config, runs one experiment, and writes
report.json (plus trajectory.csv or tauscan.csv where applicable) into
the output directory.  Exit codes: 0 all requested checks pass, 1 a
check failed (report still written), 2 config parse or schema error (a
non-finite number included), 3 physically inadmissible config, 4
numerical failure (partial report).  Every threshold defaults from
validator.DEFAULT_THRESHOLDS; the config's tolerances and --tol override
it by name.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import __version__, presets
from .composite import CompositeModel, build_strict_coupling, tau_expansion, theorem1_defect
from .config import (
    EXPERIMENTS,
    PhysicsError,
    RunConfig,
    SchemaError,
    load_config,
    parse_tolerance,
    resolve_state,
)
from .dynamics import BathSpec, Propagator, build_transport_model, propagate, steady_state, transport_steady_report
from .generator import flat_rate, ohmic_rate
from .liouville import hs_norm
from .reporting import write_csv, write_report
from .validator import DEFAULT_THRESHOLDS, CheckResult, check_commutation, run_standard_checks, spohn_monitor

log = logging.getLogger(__name__)


def _parse_tol_overrides(pairs):
    out = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SchemaError(f"--tol expects name=value, got {pair!r}")
        out[name] = parse_tolerance(name, value, f"--tol {name}")
    return out


def _bath_specs(cfg: RunConfig):
    specs = []
    for bath in cfg.baths:
        rate_function = None
        if bath.rate_function is not None:
            kind, kappa = bath.rate_function
            if kind == "flat":
                rate_function = flat_rate(kappa)
            else:
                try:
                    rate_function = ohmic_rate(kappa, bath.beta)
                except ValueError as exc:
                    raise PhysicsError(f"bath {bath.label!r}: {exc}") from None
        specs.append(
            BathSpec(
                beta=bath.beta,
                downward_rates=dict(bath.rates) or None,
                rate_function=rate_function,
                alpha=bath.alpha,
                label=bath.label,
            )
        )
    return specs


def _single_generator(cfg: RunConfig, command):
    if len(cfg.baths) != 1:
        raise SchemaError(
            f"{command} needs exactly one bath, got {len(cfg.baths)} "
            "(use the transport command for multi-bath configs)"
        )
    model = build_transport_model(cfg.system_hamiltonian, _bath_specs(cfg))
    return model.generators[0]


def _generator_summary(gen, evals):
    return {
        "dim": gen.dim,
        "beta": gen.beta,
        "positive_bohr_frequencies": sorted({t.omega for t in gen.basis.transitions if t.omega > 0}),
        "jump_terms": [{"omega": t.omega, "rate": t.rate} for t in gen.jump_terms],
        "dephasing_weights": [t.weight for t in gen.dephasing_terms],
        "eigenvalues": evals[np.lexsort((evals.imag, -evals.real))],
        "dissipator_norm": float(np.linalg.norm(gen.dissipator)),
    }


def _run_build(cfg, thresholds, seed, out_dir):
    gen = _single_generator(cfg, "build")
    return {"generator": _generator_summary(gen, Propagator(gen.superoperator, gen.basis).eigenvalues)}, []


def _run_validate(cfg, thresholds, seed, out_dir):
    gen = _single_generator(cfg, "validate")
    report = run_standard_checks(gen, thresholds=thresholds)
    evals = report.get("spectral").details["eigenvalues"]
    return {"generator": _generator_summary(gen, evals)}, report.checks


def _run_evolve(cfg, thresholds, seed, out_dir):
    gen = _single_generator(cfg, "evolve")
    bath = cfg.baths[0]
    rho0 = resolve_state(cfg.evolve.initial_state, cfg.system_hamiltonian, bath.beta)
    prop = Propagator(gen.superoperator, gen.basis)  # one sector split serves both
    trajectory = propagate(prop, rho0, cfg.evolve.times)
    steady = steady_state(prop)
    if steady.unique:
        reference, reference_label = steady.rho, "steady_state"
    else:
        reference = presets.thermal_state(cfg.system_hamiltonian, bath.beta)
        reference_label = "thermal"
    series, spohn = spohn_monitor(trajectory, reference, slack=thresholds["spohn"])

    n = gen.dim
    entries = [f"rho_{part}_{i}{j}" for i in range(n) for j in range(n) for part in ("re", "im")]
    header = ["t", *entries, "S_rel", "trace_defect"]
    states = trajectory.states
    interleaved = np.stack([states.real, states.imag], -1).reshape(len(states), -1)
    rows = [
        [t, *values, s_rel, abs(np.trace(state).real - 1.0)]
        for (t, s_rel), values, state in zip(series, interleaved, states)
    ]
    write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)

    sections = {
        "steady_state": steady,
        "entropy_reference": reference_label,
        "final_state": trajectory.states[-1],
        "max_hermitization_defect": float(np.max(trajectory.hermitization_defects)),
    }
    return sections, [spohn]


def _build_composite(cfg, comp, seed):
    h_sys = cfg.system_hamiltonian
    h_env = comp.env_hamiltonian
    ns, ne = h_sys.shape[0], h_env.shape[0]
    induces = None
    if isinstance(comp.coupling, np.ndarray):
        coupling = comp.coupling.astype(complex)
        if coupling.shape != (ns * ne, ns * ne):
            raise SchemaError(
                f"coupling literal must be {ns * ne}x{ns * ne} for this system/environment pair"
            )
        kind = "matrix"
    elif comp.coupling == "strict":
        coupling, induces = build_strict_coupling(
            h_sys, h_env, np.random.default_rng(seed), scale=comp.coupling_scale
        )
        kind = "strict"
    else:
        coupling = presets.adjacency_coupling(ns, ne, comp.coupling_scale)
        kind = "nonconserving"
    model = CompositeModel(
        system_hamiltonian=h_sys,
        env_hamiltonian=h_env,
        coupling=coupling,
        env_state=resolve_state(comp.env_state, h_env, comp.env_beta, "env_state"),
    )
    witnesses = {
        "coupling_kind": kind,
        "coupling_commutation_defect": model.coupling_commutation_defect(),
        "env_stationarity_defect": model.env_stationarity_defect(),
        "mean_field_norm": hs_norm(model.mean_field_hamiltonian()),
    }
    if induces is not None:
        witnesses["induces_transitions"] = induces
    return model, witnesses


def _run_theorem1(cfg, thresholds, seed, out_dir):
    comp = cfg.composite_for("theorem1")
    model, witnesses = _build_composite(cfg, comp, seed)
    defects = [(float(t), theorem1_defect(model, t)) for t in comp.times]
    check = CheckResult(
        name="theorem1",
        defect=max(d for _, d in defects),
        threshold=thresholds["theorem1"],
        details={"defects_by_time": defects},
    )
    sections = {"composite": witnesses, "defects": defects}
    return sections, [check]


def _run_tau_scan(cfg, thresholds, seed, out_dir):
    comp = cfg.composite_for("tau-scan")
    model, witnesses = _build_composite(cfg, comp, seed)
    rho_s = resolve_state(comp.initial_state, cfg.system_hamiltonian, comp.env_beta)
    scan = tau_expansion(model, rho_s, taus=comp.taus)
    write_csv(
        os.path.join(out_dir, "tauscan.csv"),
        ["tau", "defect"],
        list(zip(scan.taus, scan.defects)),
    )
    # a scan at the rounding floor has no slope to fit, and passes
    checks = [
        CheckResult(
            name="tau_slope",
            defect=0.0 if scan.at_floor else abs(scan.fitted_slope - 3.0),
            threshold=thresholds["tau_slope"],
            details={"fitted_slope": scan.fitted_slope, "all_defects_at_floor": scan.at_floor},
        ),
        CheckResult(
            name="tau_formula",
            defect=scan.upsilon_relative_error,
            threshold=thresholds["tau_formula"],
            details={
                "tau3_coefficient_norm": scan.tau3_coefficient,
                "upsilon_norm": float(np.linalg.norm(scan.upsilon)),
                "xi_norm": float(np.linalg.norm(scan.xi)),
                "xi_relative_error": scan.xi_relative_error,
            },
        ),
    ]
    sections = {
        "composite": witnesses,
        "scan": {
            "taus": scan.taus,
            "defects": scan.defects,
            "fitted_slope": scan.fitted_slope,
            "tau3_coefficient_norm": scan.tau3_coefficient,
            "upsilon_relative_error": scan.upsilon_relative_error,
            "xi_relative_error": scan.xi_relative_error,
        },
    }
    return sections, checks


def _run_transport(cfg, thresholds, seed, out_dir):
    if len(cfg.baths) < 2:
        raise SchemaError(f"transport needs at least two baths, got {len(cfg.baths)}")
    model = build_transport_model(cfg.system_hamiltonian, _bath_specs(cfg))
    report = transport_steady_report(model)
    tol = thresholds["transport"]
    commutation = check_commutation(model.superoperator, cfg.system_hamiltonian, thresholds["commutation"])
    first_law = CheckResult(
        name="first_law",
        defect=abs(report.current_sum),
        threshold=tol,
        details={"currents": dict(zip([b.label for b in model.baths], report.currents))},
    )
    coherence = CheckResult(name="energy_basis_coherence", defect=report.max_coherence, threshold=tol)
    checks = [commutation, first_law, coherence]
    sections = {
        "steady_state": {
            "rho": report.steady.rho,
            "unique": report.steady.unique,
            "residual": report.steady.residual,
        },
        "currents": {b.label: q for b, q in zip(model.baths, report.currents)},
        "current_sum": report.current_sum,
        "max_coherence": report.max_coherence,
    }
    return sections, checks


# each experiment's runner and help line; a runner returns the report
# sections and the checks, and the run passes iff every check does
_COMMANDS = {
    "build": (_run_build, "construct a restricted generator and report its structure"),
    "validate": (_run_validate, "run the full audit battery on a constructed generator"),
    "evolve": (_run_evolve, "propagate an initial state and monitor relative entropy"),
    "theorem1": (_run_theorem1, "composite-system commutation test of the reduced map"),
    "tau-scan": (_run_tau_scan, "small-time scaling of the map/free-evolution defect"),
    "transport": (_run_transport, "multi-bath steady state, currents, and coherence audit"),
}


def _execute(args):
    cfg = load_config(args.config)
    tolerances = dict(cfg.tolerances)
    tolerances.update(_parse_tol_overrides(args.tol))
    if args.seed is not None and args.seed < 0:
        raise SchemaError("--seed must be nonnegative")
    seed = args.seed if args.seed is not None else cfg.seed
    out_dir = args.out or cfg.output or "."
    os.makedirs(out_dir, exist_ok=True)

    report = {
        "version": __version__,
        "experiment": args.command,
        "seed": seed,
        "config": cfg,
        "tolerances_used": tolerances,
    }
    report_path = os.path.join(out_dir, "report.json")
    run, _ = _COMMANDS[args.command]
    try:
        sections, checks = run(cfg, {**DEFAULT_THRESHOLDS, **tolerances}, seed, out_dir)
    except np.linalg.LinAlgError as exc:
        report["error"] = str(exc)
        report["overall"] = False
        write_report(report_path, report)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    report.update(sections)
    report["checks"] = checks
    report["overall"] = all(c.passed for c in checks)
    write_report(report_path, report)
    for c in checks:
        log.info("%s: %s (defect %.3e, threshold %.3e)", c.name, "pass" if c.passed else "FAIL", c.defect, c.threshold)
    return 0 if report["overall"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermolindblad",
        description="Build, audit, and stress-test thermodynamically restricted GKLS generators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=_COMMANDS[name][1])
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output directory (default: config or cwd)")
        p.add_argument(
            "--tol",
            action="append",
            metavar="NAME=VALUE",
            help="override a tolerance; repeatable",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--verbose", action="store_true", help="log check results to stderr")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)

    try:
        return _execute(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"inadmissible config: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # library-level rejections (bad rates, non-Hermitian inputs, ...)
        print(f"inadmissible config: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
