"""Traced sweep behind the per-layer metrics.

The sweep calls each layer's public functions one by one, over
N in SWEEP_N and the composite sizes in SWEEP_COMPOSITE, and in process
runs the CLI on every config of the cli workload.  Per-layer times are
mean span self times per call, named <module>.<function>_s.<size>;
counts are recorded where the work happens.
"""
from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict

import thermolindblad as tl
from thermolindblad import presets
from thermolindblad.cli import main as cli_main
from thermolindblad.config import load_config

import workloads as wl
from workloads import Job, expect

SWEEP_N = (4, 8, 12, 16, 20)
SWEEP_COMPOSITE = ((2, 4), (3, 6), (4, 8))
SWEEP = "sweep"


def _audit_job(name, label, expected, make_input, built, counts):
    """Each check of the battery as its own call, on one input."""

    def run(tr):
        spec_or_gen = make_input()
        if isinstance(spec_or_gen, tl.GKLSGenerator):
            gen = spec_or_gen
            tr.call("liouville.eigenoperator_basis", tl.eigenoperator_basis, gen.hamiltonian)
        else:
            tr.call("liouville.eigenoperator_basis", tl.eigenoperator_basis, spec_or_gen.hamiltonian)
            gen = tr.call("generator.build_restricted_generator", tl.build_restricted_generator, spec_or_gen)
            counts[f"generator.jump_terms.{label}"] += len(gen.jump_terms)
            built[name] = (gen, spec_or_gen)
        l_mat = gen.superoperator
        checks = [
            tr.call("validator.check_commutation", tl.check_commutation, l_mat, gen.hamiltonian),
            tr.call("validator.check_fixed_point", tl.check_fixed_point, l_mat, gen.hamiltonian, gen.beta),
            tr.call("validator.check_cptp", tl.check_cptp, l_mat),
            tr.call("validator.check_spectral", tl.check_spectral, l_mat, gen.basis),
            tr.call("validator.check_structure_support", tl.check_structure_support, gen.dissipator, gen.basis),
            tr.call("validator.check_detailed_balance", tl.check_detailed_balance, gen),
        ]
        wrong = wl.verdict_mismatches(checks, expected)
        counts["validator.verdict_mismatches"] += len(wrong)
        expect(not wrong, f"wrong verdicts: {wrong}")

    return Job(name, SWEEP, label, run)


def _dynamics_job(name, label, source, rho0, built, counts):
    def run(tr):
        gen, spec = built[source]
        l_mat = gen.superoperator
        prop = tr.call("dynamics.Propagator", tl.Propagator, l_mat)
        counts["propagators"] += 1
        counts["eig_routes"] += bool(prop.diagonalizable)
        traj = tr.call("dynamics.propagate", tl.propagate, l_mat, rho0, wl.TIME_GRID)
        counts["dynamics.time_points"] = len(traj.times)
        steady = tr.call("dynamics.steady_state", tl.steady_state, l_mat)
        _, spohn = tr.call("validator.spohn_monitor", tl.spohn_monitor, traj, steady.rho)
        wl.check_trajectory(traj, steady, spohn, wl.gibbs_state(spec.hamiltonian, spec.beta))

    return Job(name, SWEEP, label, run)


def _transport_job(name, label, n, rng):
    def run(tr):
        model = tr.call("dynamics.build_transport_model", wl.transport_model, n, rng)
        wl.check_transport(tr.call("dynamics.transport_steady_report", tl.transport_steady_report, model))

    return Job(name, SWEEP, label, run)


def _reduced_map_job(name, label, inp):
    def run(tr):
        model = wl.CountingModel(inp.h_sys, inp.h_env, wl.strict_coupling(inp), inp.env_state)
        lam = tr.call("composite.reduced_map", model.reduced_map, 1.0)
        expect(lam.shape == (inp.h_sys.shape[0] ** 2,) * 2, f"reduced map shape {lam.shape}")

    return Job(name, SWEEP, label, run)


def _cli_job(name, label, ctx, path, expected_exit, reports):
    out_dir = os.path.join(ctx.out, "sweep-cli", name)

    def run(tr):
        cfg = tr.call("cli.load_config", load_config, path)
        code = tr.call("cli.main", cli_main, [cfg.experiment, "--config", path, "--out", out_dir])
        wl.check_cli(name, code, out_dir, expected_exit, reports)

    return Job(name, SWEEP, label, run)


def sweep_jobs(seed, ctx, counts, warm_up=False):
    """The sweep's jobs; with warm_up, only the smallest sizes."""
    built = {}
    jobs = []
    n_values, composite_sizes = (SWEEP_N[:1], SWEEP_COMPOSITE[:1]) if warm_up else (SWEEP_N, SWEEP_COMPOSITE)
    for n in n_values:
        label = wl.n_label(n)
        counts[f"liouville.superop_bytes.{label}"] = 16 * n**4
        counts[f"generator.jump_terms.{label}"] = 0
        inputs = (
            ("random", wl.RESTRICTED_VERDICTS, lambda n=n: wl.random_spec(n, wl.rng_for(seed, n, 11))),
            ("ladder", wl.RESTRICTED_VERDICTS, lambda n=n: wl.ladder_spec(n, wl.rng_for(seed, n, 12))),
            ("foreign", wl.FOREIGN_VERDICTS, lambda n=n: wl.foreign_generator(n, wl.rng_for(seed, n, 13))),
        )
        for kind, expected, make_input in inputs:
            jobs.append(_audit_job(f"sweep.audit.{kind}.{label}", label, expected, make_input, built, counts))
        rng = wl.rng_for(seed, n, 14)
        for kind in ("random", "ladder"):
            source = f"sweep.audit.{kind}.{label}"
            rho0 = presets.random_density_matrix(n, rng)
            jobs.append(_dynamics_job(f"sweep.dynamics.{kind}.{label}", label, source, rho0, built, counts))
        jobs.append(_transport_job(f"sweep.transport.{label}", label, n, wl.rng_for(seed, n, 16)))
    for ns, ne in composite_sizes:
        label = wl.composite_label(ns, ne)
        inp = wl.composite_inputs(ns, ne, wl.rng_for(seed, ns, ne, 15))
        jobs += [
            wl.theorem1_job(f"sweep.theorem1.{label}", SWEEP, label, inp),
            _reduced_map_job(f"sweep.reduced_map.{label}", label, inp),
            wl.tau_job(f"sweep.tau.{label}", SWEEP, label, inp, counts),
            wl.gks_job(f"sweep.gks.{label}", SWEEP, label, inp),
        ]
    reports = {}
    for name, size, path, code in wl.cli_configs(seed, ctx):
        with open(path, encoding="utf-8") as fh:
            experiment = json.load(fh)["experiment"]
        label = experiment if size == wl.SMALL else f"{experiment}_large"
        jobs.append(_cli_job(f"sweep.cli.{name}", label, ctx, path, code, reports))
    return jobs


def layer_metrics(tracer, counts):
    """Mean self time per call for every traced library function, by size
    and over all sizes, plus the counts taken during the sweep."""
    by_size, by_name = defaultdict(list), defaultdict(list)
    for name, size, seconds in tracer.self_times():
        if name.startswith(SWEEP + "."):
            continue
        by_size[f"{name}_s.{size}"].append(seconds)
        by_name[f"{name}_s"].append(seconds)
    metrics = {key: statistics.fmean(values) for key, values in {**by_size, **by_name}.items()}
    metrics.update(counts)
    if counts["propagators"]:
        metrics["dynamics.eig_route_frac"] = counts["eig_routes"] / counts["propagators"]
    return metrics


def new_counts():
    return defaultdict(int, {"validator.verdict_mismatches": 0, "propagators": 0, "eig_routes": 0})
