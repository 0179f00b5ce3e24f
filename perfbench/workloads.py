"""Inputs, jobs and output checks for the benchmark workloads.

Every input is generated from the run's seed; the library receives only
those inputs.  A job raises when the library raises or when an output
fails its check, and the harness counts either as a failed job.  Jobs
call the library through a tracer, so the same job code runs with
tracing off and on.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

import thermolindblad as tl
from thermolindblad import presets
from thermolindblad.liouville import assemble_superop

SMALL, LARGE = "small", "large"
SIZES_N = {SMALL: 6, LARGE: 8}
SIZES_COMPOSITE = {SMALL: (2, 4), LARGE: (4, 8)}
# Small jobs are repeated within a pass so that each has many runs to take
# the fastest of; CLI jobs take long enough without repeats.
SMALL_REPEATS = {"audit": 5, "trajectory": 5, "composite": 3, "cli": 1}

TIME_GRID = np.linspace(0.0, 20.0, 200)
THEOREM1_TIMES = (0.1, 1.0, 10.0)
CHECKS = ("commutation", "fixed_point", "cptp", "spectral", "structure_support", "detailed_balance")
RESTRICTED_VERDICTS = dict.fromkeys(CHECKS, True)
# The spectral verdict of a foreign generator depends on the draw, so it is
# not predicted; detailed balance holds because the jump list is built in
# Gibbs-ratio pairs.
FOREIGN_VERDICTS = {
    "commutation": False,
    "fixed_point": False,
    "cptp": True,
    "structure_support": False,
    "detailed_balance": True,
}

# Shipped configs with the exit code each must give (1 means a check fails
# by design, and the report's overall verdict is then false).
SHIPPED_CONFIGS = {
    "evolve_qubit": 0,
    "tau_scan_xx": 0,
    "theorem1_nonconserving": 1,
    "theorem1_strict": 0,
    "transport_cycle": 0,
    "validate_qutrit": 0,
}


class CheckFailed(Exception):
    """An output of the library is not what the inputs imply."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    size: str  # SMALL or LARGE
    label: str  # size label carried by spans, such as N8 or 4x8
    run: object  # run(tracer) raises on a wrong output


@dataclass
class Context:
    """Where a run reads and writes, and the environment for child processes."""

    root: str
    out: str
    env: dict


def rng_for(seed, *key):
    return np.random.default_rng([seed, *key])


def n_label(n):
    return f"N{n}"


def composite_label(ns, ne):
    return f"{ns}x{ne}"


def gibbs_state(hamiltonian, beta):
    """Reference thermal state, computed here rather than by the library."""
    energies, vectors = np.linalg.eigh(hamiltonian)
    weights = np.exp(-beta * (energies - energies.min()))
    return (vectors * (weights / weights.sum())) @ vectors.conj().T


# -- inputs ------------------------------------------------------------------


def random_spec(n, rng):
    """Nondegenerate random H, rates on all level pairs, alpha dephasing."""
    h = presets.random_hermitian(n, rng)
    rates = {(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, n)}
    a = rng.normal(size=(n, n))
    return tl.ThermoSpec(
        hamiltonian=h, beta=float(rng.uniform(0.5, 2.0)), downward_rates=rates, alpha=a @ a.T / n
    )


def ladder_spec(n, rng):
    """Exactly degenerate ladder, rates on the first two frequencies, and a
    random unitary mixing the whole unit-frequency group."""
    rates = {(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, min(i + 3, n))}
    return tl.ThermoSpec(
        hamiltonian=presets.ladder(n, 1.0),
        beta=float(rng.uniform(0.5, 2.0)),
        downward_rates=rates,
        degenerate_mixing={1.0: presets.random_unitary(n - 1, rng)},
    )


def foreign_generator(n, rng):
    """GKLS generator from random jump operators not aligned with its H."""
    h = presets.random_hermitian(n, rng)
    beta = float(rng.uniform(0.5, 2.0))
    terms = []
    for _ in range(n):
        op = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
        omega, down = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 1.0))
        terms.append(tl.JumpTerm(operator=op, rate=down, omega=omega))
        terms.append(tl.JumpTerm(operator=op.conj().T, rate=down * math.exp(-beta * omega), omega=-omega))
    return _generator_from_terms(h, beta, terms)


def _generator_from_terms(h, beta, terms):
    dissipator = sum(t.rate * assemble_superop("dissipator_term", t.operator) for t in terms)
    return tl.GKLSGenerator(
        basis=tl.eigenoperator_basis(h),
        hamiltonian=h,
        jump_terms=terms,
        dephasing_terms=[],
        dissipator=dissipator,
        superoperator=-1j * assemble_superop("commutator", h) + dissipator,
        beta=beta,
    )


def detuned_generator(gen):
    """Copy of a restricted generator whose first upward rate is 1 % high."""
    k = next(i for i, t in enumerate(gen.jump_terms) if t.omega < 0 and t.rate > 0)
    term = gen.jump_terms[k]
    extra = 0.01 * term.rate * assemble_superop("dissipator_term", term.operator)
    terms = list(gen.jump_terms)
    terms[k] = replace(term, rate=1.01 * term.rate)
    return replace(
        gen,
        jump_terms=terms,
        dissipator=gen.dissipator + extra,
        superoperator=gen.superoperator + extra,
    )


def transport_model(n, rng):
    """Random H with its level pairs dealt round-robin to three baths."""
    h = presets.random_hermitian(n, rng)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    baths = [
        tl.BathSpec(
            beta=beta,
            downward_rates={p: float(rng.uniform(0.5, 1.5)) for p in pairs[k::3]},
            label=f"bath{k}",
        )
        for k, beta in enumerate((0.5, 1.0, 2.0))
    ]
    return tl.build_transport_model(h, baths)


class CountingModel(tl.CompositeModel):
    """CompositeModel that counts its reduced_map calls."""

    def __post_init__(self):
        super().__post_init__()
        self.reduced_map_calls = 0

    def reduced_map(self, tau):
        self.reduced_map_calls += 1
        return super().reduced_map(tau)


@dataclass
class CompositeInputs:
    h_sys: np.ndarray
    h_env: np.ndarray
    env_state: np.ndarray
    coupling_seed: int
    strength: float
    rho_s: np.ndarray


def composite_inputs(ns, ne, rng):
    """Resonant ladders for system and environment, a thermal environment."""
    spacing = float(rng.uniform(0.8, 1.2))
    h_env = presets.ladder(ne, spacing)
    return CompositeInputs(
        h_sys=presets.ladder(ns, spacing),
        h_env=h_env,
        env_state=gibbs_state(h_env, float(rng.uniform(0.5, 2.0))),
        coupling_seed=int(rng.integers(2**32)),
        strength=float(rng.uniform(0.3, 0.7)),
        rho_s=presets.random_density_matrix(ns, rng),
    )


def mean_field(coupling, env_state, ns, ne):
    """tr_E(H_SE (I x rho_E)), computed here rather than by the library."""
    return np.einsum("ijkl,lj->ik", coupling.reshape(ns, ne, ns, ne), env_state)


def traceless(op):
    return op - np.trace(op) / op.shape[0] * np.eye(op.shape[0])


# -- output checks -------------------------------------------------------------


def verdict_mismatches(checks, expected):
    got = {c.name: bool(c.passed) for c in checks}
    return sorted(name for name, verdict in expected.items() if got.get(name) != verdict)


def check_trajectory(traj, steady, spohn, thermal):
    expect(len(traj.states) == len(TIME_GRID), f"{len(traj.states)} states for {len(TIME_GRID)} times")
    herm = float(np.max(traj.hermitization_defects))
    expect(herm <= 1e-10, f"hermiticity defect {herm:.3e}")
    trace = max(abs(np.trace(s) - 1.0) for s in traj.states)
    expect(trace <= 1e-10, f"trace defect {trace:.3e}")
    dist = float(np.linalg.norm(steady.rho - thermal))
    expect(dist <= 1e-8, f"steady state is {dist:.3e} from the thermal state")
    expect(spohn.passed, f"relative entropy rises by {spohn.defect:.3e}")


def check_transport(report):
    expect(abs(report.current_sum) <= 1e-10, f"heat currents sum to {report.current_sum:.3e}")
    expect(report.max_coherence <= 1e-10, f"steady-state coherence {report.max_coherence:.3e}")


def check_cli(name, returncode, out_dir, expected_exit, reports):
    expect(returncode == expected_exit, f"{name}: exit {returncode}, expected {expected_exit}")
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        data = fh.read()
    overall = json.loads(data)["overall"]
    expect(overall == (expected_exit == 0), f"{name}: overall is {overall}")
    expect(data == reports.setdefault(name, data), f"{name}: report.json bytes differ between runs")


# -- jobs --------------------------------------------------------------------


def audit_job(name, size, label, expected, spec=None, generator=None):
    """Build from spec (or take a prebuilt generator) and run the battery."""

    def run(tr):
        gen = generator
        if spec is not None:
            gen = tr.call("generator.build_restricted_generator", tl.build_restricted_generator, spec)
        report = tr.call("validator.run_standard_checks", tl.run_standard_checks, gen)
        wrong = verdict_mismatches(report.checks, expected)
        expect(not wrong, f"wrong verdicts: {wrong}")

    return Job(name, size, label, run)


def propagate_job(name, size, label, gen, rho0, thermal):
    def run(tr):
        traj = tr.call("dynamics.propagate", tl.propagate, gen.superoperator, rho0, TIME_GRID)
        steady = tr.call("dynamics.steady_state", tl.steady_state, gen.superoperator)
        _, spohn = tr.call("validator.spohn_monitor", tl.spohn_monitor, traj, steady.rho)
        check_trajectory(traj, steady, spohn, thermal)

    return Job(name, size, label, run)


def transport_job(name, size, label, model):
    def run(tr):
        check_transport(tr.call("dynamics.transport_steady_report", tl.transport_steady_report, model))

    return Job(name, size, label, run)


def strict_coupling(inp):
    coupling, _ = tl.build_strict_coupling(
        inp.h_sys, inp.h_env, np.random.default_rng(inp.coupling_seed), scale=inp.strength
    )
    return coupling


def theorem1_job(name, size, label, inp, make_coupling=strict_coupling):
    """Seeded strict coupling: the reduced map commutes with free evolution."""

    def run(tr):
        coupling = tr.call("composite.build_strict_coupling", make_coupling, inp)
        model = tr.call("composite.CompositeModel", CountingModel, inp.h_sys, inp.h_env, coupling, inp.env_state)
        defects = [tr.call("composite.theorem1_defect", tl.theorem1_defect, model, t) for t in THEOREM1_TIMES]
        kraus = [tr.call("composite.kraus_set", model.kraus_set, t).completeness_defect for t in THEOREM1_TIMES]
        expect(max(defects) <= 1e-10, f"strict defect {max(defects):.3e}")
        expect(max(kraus) <= 1e-10, f"Kraus completeness defect {max(kraus):.3e}")

    return Job(name, size, label, run)


def tau_job(name, size, label, inp, counts=None):
    """Nonconserving coupling: the defect starts at third order in tau."""
    ns, ne = inp.h_sys.shape[0], inp.h_env.shape[0]

    def run(tr):
        coupling = presets.adjacency_coupling(ns, ne, inp.strength)
        model = tr.call("composite.CompositeModel", CountingModel, inp.h_sys, inp.h_env, coupling, inp.env_state)
        scan = tr.call("composite.tau_expansion", tl.tau_expansion, model, inp.rho_s)
        if counts is not None:
            counts[f"composite.reduced_map_calls.{label}"] = model.reduced_map_calls
        expect(abs(scan.fitted_slope - 3.0) <= 0.05, f"fitted slope {scan.fitted_slope:.4f}")
        expect(scan.upsilon_relative_error <= 1e-6, f"upsilon error {scan.upsilon_relative_error:.3e}")

    return Job(name, size, label, run)


def gks_job(name, size, label, inp):
    """GKS coefficients of a strict reduced map: purely Hamiltonian at t = 0,
    with H_S plus the mean-field term as the Hamiltonian."""
    ns, ne = inp.h_sys.shape[0], inp.h_env.shape[0]
    coupling = strict_coupling(inp)
    model = CountingModel(inp.h_sys, inp.h_env, coupling, inp.env_state)
    basis = tl.eigenoperator_basis(inp.h_sys)
    expected_h = traceless(inp.h_sys + mean_field(coupling, inp.env_state, ns, ne))

    def run(tr):
        gks = tr.call("generator.gks_from_map", tl.gks_from_map, model.reduced_map, basis)
        a_max = float(np.max(np.abs(gks.a)))
        expect(a_max <= 1e-8, f"dissipative GKS entry {a_max:.3e}")
        expect(gks.hermiticity_defect <= 1e-8, f"GKS hermiticity defect {gks.hermiticity_defect:.3e}")
        h_err = float(np.max(np.abs(traceless(gks.hamiltonian) - expected_h)))
        expect(h_err <= 1e-8, f"GKS Hamiltonian off by {h_err:.3e}")

    return Job(name, size, label, run)


def cli_job(name, size, ctx, config_path, expected_exit, reports):
    """`python -m thermolindblad` in a child process, as a user runs it."""
    with open(config_path, encoding="utf-8") as fh:
        experiment = json.load(fh)["experiment"]
    out_dir = os.path.join(ctx.out, "cli", name)
    command = [sys.executable, "-m", "thermolindblad", experiment, "--config", config_path, "--out", out_dir]

    def run(tr):
        proc = tr.call(
            "cli.run", subprocess.run, command, cwd=ctx.root, env=ctx.env, capture_output=True, timeout=120
        )
        check_cli(name, proc.returncode, out_dir, expected_exit, reports)

    return Job(name, size, experiment, run)


# -- workloads -----------------------------------------------------------------


def _pass(small, large, repeats):
    return small * repeats + large


def audit_jobs(seed, ctx):
    jobs = {SMALL: [], LARGE: []}
    for size, n in SIZES_N.items():
        label = n_label(n)
        jobs[size] = [
            audit_job(f"audit.random.{label}", size, label, RESTRICTED_VERDICTS, spec=random_spec(n, rng_for(seed, n, 1))),
            audit_job(f"audit.ladder.{label}", size, label, RESTRICTED_VERDICTS, spec=ladder_spec(n, rng_for(seed, n, 2))),
            audit_job(
                f"audit.foreign.{label}", size, label, FOREIGN_VERDICTS, generator=foreign_generator(n, rng_for(seed, n, 3))
            ),
        ]
    return _pass(jobs[SMALL], jobs[LARGE], SMALL_REPEATS["audit"])


def trajectory_jobs(seed, ctx):
    jobs = {}
    for size, n in SIZES_N.items():
        label = n_label(n)
        rng = rng_for(seed, n, 4)
        jobs[size] = []
        for kind, make_spec in (("random", random_spec), ("ladder", ladder_spec)):
            spec = make_spec(n, rng)
            gen = tl.build_restricted_generator(spec)
            rho0 = presets.random_density_matrix(n, rng)
            thermal = gibbs_state(spec.hamiltonian, spec.beta)
            jobs[size].append(propagate_job(f"trajectory.{kind}.{label}", size, label, gen, rho0, thermal))
        jobs[size].append(transport_job(f"trajectory.transport.{label}", size, label, transport_model(n, rng)))
    return _pass(jobs[SMALL], jobs[LARGE], SMALL_REPEATS["trajectory"])


def composite_jobs(seed, ctx):
    jobs = {}
    for size, (ns, ne) in SIZES_COMPOSITE.items():
        label = composite_label(ns, ne)
        inp = composite_inputs(ns, ne, rng_for(seed, ns, ne, 5))
        jobs[size] = [
            theorem1_job(f"composite.theorem1.{label}", size, label, inp),
            tau_job(f"composite.tau.{label}", size, label, inp),
            gks_job(f"composite.gks.{label}", size, label, inp),
        ]
    return _pass(jobs[SMALL], jobs[LARGE], SMALL_REPEATS["composite"])


def large_cli_configs(seed, out_dir):
    """validate and evolve (200 time points) on ladder(8, 1.0), all-pair rates."""
    rng = rng_for(seed, 8, 6)
    bath = {
        "beta": round(float(rng.uniform(0.5, 2.0)), 6),
        "rates": {f"{i}->{j}": round(float(rng.uniform(0.5, 1.5)), 6) for i in range(8) for j in range(i + 1, 8)},
    }
    system = {"hamiltonian": "ladder(8, 1.0)"}
    configs = {
        "validate_ladder8": {"system": system, "baths": [bath], "experiment": "validate"},
        "evolve_ladder8": {
            "system": system,
            "baths": [bath],
            "experiment": "evolve",
            "evolve": {"initial_state": "excited", "times": {"start": 0.0, "stop": 20.0, "count": 200}},
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, doc in configs.items():
        paths[name] = os.path.join(out_dir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return paths


def cli_configs(seed, ctx):
    """[(name, size, path, expected exit)] for the shipped and generated configs."""
    shipped = [
        (name, SMALL, os.path.join(ctx.root, "configs", f"{name}.json"), code)
        for name, code in SHIPPED_CONFIGS.items()
    ]
    generated = large_cli_configs(seed, os.path.join(ctx.out, "configs"))
    return shipped + [(name, LARGE, path, 0) for name, path in generated.items()]


def cli_jobs(seed, ctx):
    reports = {}
    jobs = {SMALL: [], LARGE: []}
    for name, size, path, code in cli_configs(seed, ctx):
        jobs[size].append(cli_job(name, size, ctx, path, code, reports))
    return _pass(jobs[SMALL], jobs[LARGE], SMALL_REPEATS["cli"])


WORKLOADS = {
    "audit": audit_jobs,
    "trajectory": trajectory_jobs,
    "composite": composite_jobs,
    "cli": cli_jobs,
}


def selftest_jobs(seed, ctx):
    """(sound jobs, corrupted jobs): each corrupted input must fail its check."""
    n, (ns, ne) = SIZES_N[SMALL], SIZES_COMPOSITE[SMALL]
    label, clabel = n_label(n), composite_label(ns, ne)
    spec = random_spec(n, rng_for(seed, n, 7))
    detuned = detuned_generator(tl.build_restricted_generator(spec))
    inp = composite_inputs(ns, ne, rng_for(seed, ns, ne, 8))

    def leaky_coupling(inputs):
        return strict_coupling(inputs) + 1e-3 * presets.adjacency_coupling(ns, ne)

    bad_config = os.path.join(ctx.out, "configs", "negative_rate.json")
    os.makedirs(os.path.dirname(bad_config), exist_ok=True)
    with open(bad_config, "w", encoding="utf-8") as fh:
        json.dump({"system": {"hamiltonian": "qubit(1.0)"}, "baths": [{"beta": 1.0, "rates": {"0->1": -1.0}}],
                   "experiment": "validate"}, fh)

    corrupted = [
        audit_job("selftest.detuned_audit", SMALL, label, RESTRICTED_VERDICTS, generator=detuned),
        propagate_job(
            "selftest.detuned_trajectory", SMALL, label, detuned,
            presets.random_density_matrix(n, rng_for(seed, n, 9)), gibbs_state(spec.hamiltonian, spec.beta),
        ),
        theorem1_job("selftest.leaky_theorem1", SMALL, clabel, inp, make_coupling=leaky_coupling),
        cli_job("selftest.negative_rate", SMALL, ctx, bad_config, 0, {}),
    ]
    sound = []
    for workload, make in WORKLOADS.items():
        jobs = make(seed, ctx)
        small = [job for job in jobs if job.size == SMALL]
        sound += small[: len(small) // SMALL_REPEATS[workload]]
    return sound, corrupted
