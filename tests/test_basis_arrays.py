"""The array-backed eigenoperator basis: generators built from its arrays
equal the loop over Transition objects bit for bit, its object attributes
equal their direct definitions, and no caller that does not read them
makes a Transition or an invariant operator."""
import numpy as np
import pytest

from thermolindblad import (
    BathSpec,
    EigenoperatorBasis,
    Propagator,
    ThermoSpec,
    assemble_superop,
    build_restricted_generator,
    build_transport_model,
    dephasing_from_alpha,
    eigenoperator_basis,
    fix_detailed_balance,
    flat_rate,
    liouville,
    presets,
    propagate,
    run_standard_checks,
    steady_state,
    transport_steady_report,
)
from thermolindblad.liouville import gkls_dissipator


def all_pair_rates(n, rng):
    return {(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, n)}


def random_dephasing_spec(n, rng, beta=1.3):
    a = rng.normal(size=(n, n))
    return ThermoSpec(
        hamiltonian=presets.random_hermitian(n, rng),
        beta=beta,
        downward_rates=all_pair_rates(n, rng),
        alpha=a @ a.T / n,
    )


def ladder_mixing_spec(n, rng):
    return ThermoSpec(
        hamiltonian=presets.ladder(n, 1.0),
        beta=0.8,
        downward_rates={(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, min(i + 3, n))},
        degenerate_mixing={1.0: presets.random_unitary(n - 1, rng)},
    )


SPECS = {
    "random": lambda rng: ThermoSpec(
        hamiltonian=presets.random_hermitian(5, rng), beta=0.9, downward_rates=all_pair_rates(5, rng)
    ),
    "random-dephasing": lambda rng: random_dephasing_spec(6, rng),
    "ladder-mixing": lambda rng: ladder_mixing_spec(6, rng),
    "ladder-mixing-dephasing": lambda rng: ThermoSpec(
        hamiltonian=presets.ladder(4, 1.0),
        beta=1.1,
        downward_rates={(0, 1): 0.7, (0, 2): 0.4},
        alpha=np.diag([0.3, 0.2, 0.5, 0.1]),
        degenerate_mixing={1.0: presets.random_unitary(3, rng)},
    ),
    "n1": lambda rng: ThermoSpec(hamiltonian=presets.ladder(1, 1.0), beta=1.0, alpha=np.array([[0.8]])),
    "beta0": lambda rng: random_dephasing_spec(4, rng, beta=0.0),
}


def reference_build(spec):
    """The generator as the loop over basis.transitions assembles it: mixed
    groups first, then each rated transition and its adjoint in ascending
    transition index, rates completed by fix_detailed_balance."""
    basis = eigenoperator_basis(spec.hamiltonian, spec.degeneracy_tol)
    tol = basis.spectrum.degeneracy_tol
    rates = {basis.transition_index(*key): float(gamma) for key, gamma in spec.downward_rates.items()}
    mixing = {}
    for omega_key, y in (spec.degenerate_mixing or {}).items():
        (group,) = [
            tuple(g) for g in basis.positive_degeneracy_groups()
            if abs(basis.transitions[g[0]].omega - omega_key) <= max(tol, 1e-9 * abs(omega_key))
        ]
        mixing[group] = np.asarray(y, dtype=complex)
    jumps = []
    for group, y in mixing.items():
        y_ops = np.tensordot(y, np.stack([basis.transitions[k].operator for k in group]), axes=1)
        for k, y_op in zip(group, y_ops):
            pair = fix_detailed_balance(rates.get(k, 0.0), basis.transitions[k].omega, spec.beta)
            jumps += [(y_op, pair.gamma_down, pair.omega), (y_op.conj().T, pair.gamma_up, -pair.omega)]
    mixed = {k for group in mixing for k in group}
    for k, gamma in sorted(rates.items()):
        if k in mixed:
            continue
        tr, adjoint = basis.transitions[k], basis.transitions[basis.conjugate_index(k)]
        pair = fix_detailed_balance(gamma, tr.omega, spec.beta)
        jumps += [(tr.operator, pair.gamma_down, tr.omega), (adjoint.operator, pair.gamma_up, adjoint.omega)]
    dephasing = [] if spec.alpha is None else dephasing_from_alpha(spec.alpha, basis.projectors)
    n = basis.n_levels
    ops = [op for op, _, _ in jumps] + [t.operator for t in dephasing]
    gammas = [rate for _, rate, _ in jumps] + [2 * t.weight for t in dephasing]
    dissipator = gkls_dissipator(np.reshape(ops, (-1, n, n)), gammas)
    superoperator = -1j * assemble_superop("commutator", np.asarray(spec.hamiltonian, dtype=complex)) + dissipator
    return jumps, dissipator, superoperator


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generator_is_bitwise_equal_to_the_transition_loop(name, rng):
    spec = SPECS[name](rng)
    jumps, dissipator, superoperator = reference_build(spec)
    gen = build_restricted_generator(spec)
    assert same_bits(gen.dissipator, dissipator)
    assert same_bits(gen.superoperator, superoperator)
    assert len(gen.jump_terms) == len(jumps)
    for term, (op, rate, omega) in zip(gen.jump_terms, jumps):
        assert same_bits(term.operator, op)
        assert type(term.rate) is float and term.rate == rate
        assert type(term.omega) is float and term.omega == omega


def direct_definitions(hamiltonian):
    """(n, m, omega, operator) of every transition, the projectors and the
    invariants, each formed directly from eigh of H."""
    basis = eigenoperator_basis(hamiltonian)
    energies, vectors = basis.spectrum.energies, basis.spectrum.vectors
    n = energies.size
    outers = vectors.T[:, None, :, None] * vectors.T.conj()[None, :, None, :]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    transitions = [
        (i, j, float(energies[j] - energies[i]), outers[i, j]) for i, j in pairs + [(j, i) for i, j in pairs]
    ]
    projectors = [outers[i, i] for i in range(n)]
    invariants = []
    for l in range(1, n):
        coeffs = np.zeros(n)
        coeffs[:l] = 1.0
        coeffs[l] = -float(l)
        coeffs /= np.sqrt(l * (l + 1))
        invariants.append(vectors @ np.diag(coeffs) @ vectors.conj().T)
    invariants.append(np.eye(n, dtype=complex) / np.sqrt(n))
    return transitions, projectors, invariants


@pytest.mark.parametrize(
    "hamiltonian",
    [
        presets.ladder(1, 1.0),
        presets.qubit(1.0),
        presets.ladder(5, 1.0),
        np.diag([0.0, 0.0, 1.0, 2.5]),
        presets.random_hermitian(7, np.random.default_rng(7)),
    ],
    ids=["n1", "qubit", "ladder5", "degenerate", "random7"],
)
def test_object_attributes_equal_their_direct_definitions(hamiltonian):
    transitions, projectors, invariants = direct_definitions(hamiltonian)
    basis = eigenoperator_basis(hamiltonian)
    assert [(t.n, t.m) for t in basis.transitions] == [t[:2] for t in transitions]
    assert all(type(t.n) is int and type(t.m) is int and type(t.omega) is float for t in basis.transitions)
    assert [t.omega for t in basis.transitions] == [t[2] for t in transitions]
    assert basis.omegas.tolist() == [t[2] for t in transitions]
    assert all(same_bits(t.operator, ref[3]) for t, ref in zip(basis.transitions, transitions))
    assert len(basis.projectors) == len(projectors)
    assert all(same_bits(p, ref) for p, ref in zip(basis.projectors, projectors))
    assert len(basis.invariants) == len(invariants)
    assert all(same_bits(op, ref) for op, ref in zip(basis.invariants, invariants))
    # degeneracy groups: transition indices grouped by their sector label
    n = basis.n_levels
    labels = [int(basis.sector_labels[i + n * j]) for i, j, _, _ in transitions]
    assert basis.degeneracy_groups == [
        [k for k, label in enumerate(labels) if label == value] for value in sorted(set(labels))
    ]
    assert basis.n_positive == len(transitions) // 2


def test_object_attributes_are_made_once():
    basis = eigenoperator_basis(presets.ladder(4, 1.0))
    for name in ("transitions", "projectors", "invariants"):
        assert name not in vars(basis)
        assert getattr(basis, name) is getattr(basis, name)


@pytest.fixture
def no_basis_objects(monkeypatch):
    """Constructing a Transition raises; the returned list counts invariant builds."""

    def refused(*args, **kwargs):
        raise AssertionError("a Transition was constructed")

    built = []
    make_invariants = EigenoperatorBasis.invariants.func

    def counted(basis):
        built.append(basis)
        return make_invariants(basis)

    monkeypatch.setattr(liouville, "Transition", refused)
    monkeypatch.setattr(EigenoperatorBasis.invariants, "func", counted)
    return built


def test_fixture_sees_object_reads(no_basis_objects):
    basis = eigenoperator_basis(presets.qutrit(0.0, 1.0, 3.0))
    with pytest.raises(AssertionError, match="Transition was constructed"):
        basis.transitions
    basis.invariants
    assert no_basis_objects == [basis]


def test_builds_and_dynamics_make_no_basis_objects(no_basis_objects, rng):
    specs = [
        random_dephasing_spec(6, rng),
        ladder_mixing_spec(5, rng),
        ThermoSpec(hamiltonian=presets.ladder(1, 1.0), beta=1.0, alpha=np.array([[0.8]])),
        random_dephasing_spec(4, rng, beta=0.0),
    ]
    gens = [build_restricted_generator(spec) for spec in specs]
    h = presets.random_hermitian(4, rng)
    models = [
        build_transport_model(h, [BathSpec(beta=1.0, downward_rates={(0, 1): 1.0, (1, 3): 0.5}),
                                  BathSpec(beta=0.4, downward_rates={(0, 2): 0.8, (2, 3): 0.3})]),
        build_transport_model(h, [BathSpec(beta=1.0, rate_function=flat_rate(0.6)),
                                  BathSpec(beta=0.4, downward_rates={(0, 1): 0.2}, rate_function=flat_rate(0.3))]),
    ]
    times = np.linspace(0.0, 2.0, 5)
    for gen in gens:
        assert run_standard_checks(gen).passed
        n = gen.dim
        rho0 = np.eye(n, dtype=complex) / n
        propagate(gen, rho0, times)
        propagate(Propagator(gen.superoperator, gen.basis), rho0, times)
        steady_state(gen.superoperator)
    for model in models:
        assert transport_steady_report(model).steady.unique
    assert no_basis_objects == []
