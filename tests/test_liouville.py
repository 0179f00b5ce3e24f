"""Vectorization conventions, superoperator assembly, and the
eigenoperator decomposition."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolindblad import (
    assemble_superop,
    conjugation_superop,
    devectorize,
    eigenoperator_basis,
    hs_inner,
    hs_norm,
    presets,
    vectorize,
)
from thermolindblad.liouville import gkls_dissipator, sandwich_sum


def random_complex(shape, rng, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


# -- vectorization -----------------------------------------------------------


def test_vectorize_column_stacking_convention():
    op = np.outer([1.0, 0.0], [0.0, 1.0])  # |0><1|
    vec = vectorize(op)
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0  # index i + N*j = 0 + 2*1
    assert np.array_equal(vec, expected)


def test_devectorize_round_trip(rng):
    a = random_complex((3, 3), rng)
    assert np.allclose(devectorize(vectorize(a)), a, atol=0, rtol=0)


def test_devectorize_rejects_non_square_length():
    with pytest.raises(ValueError):
        devectorize(np.zeros(5, dtype=complex))


def test_vectorize_of_product_matches_kron(rng):
    a, x, b = (random_complex((3, 3), rng) for _ in range(3))
    lhs = vectorize(a @ x @ b)
    rhs = np.kron(b.T, a) @ vectorize(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_vectorize_is_norm_preserving(rng):
    a = random_complex((4, 4), rng)
    assert np.isclose(np.linalg.norm(vectorize(a)), np.linalg.norm(a))


@given(n=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_round_trip_property(n, seed):
    a = random_complex((n, n), np.random.default_rng(seed))
    assert np.array_equal(devectorize(vectorize(a)), a)


# -- inner product -----------------------------------------------------------


def test_hs_inner_pauli_values():
    assert hs_inner(presets.SIGMA_X, presets.SIGMA_X) == pytest.approx(2.0)
    assert hs_inner(presets.SIGMA_X, presets.SIGMA_Y) == pytest.approx(0.0)


def test_hs_inner_identity_traces_density_matrix(rng):
    rho = presets.random_density_matrix(3, rng)
    assert hs_inner(np.eye(3), rho) == pytest.approx(1.0)


def test_hs_inner_conjugate_symmetry(rng):
    a = random_complex((3, 3), rng)
    b = random_complex((3, 3), rng)
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_hs_inner_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        hs_inner(np.eye(2), np.eye(3))


# -- superoperator assembly --------------------------------------------------


def _apply(superop, x):
    return devectorize(superop @ vectorize(x))


def test_assemble_kinds_match_direct_products(rng):
    a, b, x = (random_complex((3, 3), rng) for _ in range(3))
    cases = {
        "left": a @ x,
        "right": x @ a,
        "commutator": a @ x - x @ a,
        "anticommutator": a @ x + x @ a,
        "dissipator_term": a @ x @ a.conj().T
        - 0.5 * (a.conj().T @ a @ x + x @ a.conj().T @ a),
    }
    for kind, expected in cases.items():
        assert np.allclose(_apply(assemble_superop(kind, a), x), expected, atol=1e-12), kind
    sandwich = assemble_superop("sandwich", a, b)
    assert np.allclose(_apply(sandwich, x), a @ x @ b, atol=1e-12)


def test_sandwich_requires_second_operator():
    with pytest.raises(ValueError):
        assemble_superop("sandwich", np.eye(2))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        assemble_superop("twirl", np.eye(2))


def test_assemble_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        assemble_superop("sandwich", np.eye(2), np.eye(3))


def test_commutator_annihilates_thermal_state():
    h = presets.qubit(1.0)
    rho_th = presets.thermal_state(h, 1.0)
    out = assemble_superop("commutator", h) @ vectorize(rho_th)
    assert np.linalg.norm(out) < 1e-14


def test_dissipator_term_amplitude_damping():
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = _apply(assemble_superop("dissipator_term", presets.LOWER), excited)
    assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_sandwich_sum_matches_kron_reference(n, k, rng):
    lefts = random_complex((k, n, n), rng)
    rights = random_complex((k, n, n), rng)
    weights = random_complex(k, rng)
    reference = np.zeros((n * n, n * n), dtype=complex)
    for w, left, right in zip(weights, lefts, rights):
        reference += w * np.kron(right.T, left)
    assert np.linalg.norm(sandwich_sum(lefts, rights, weights) - reference) < 1e-13 * max(
        1.0, np.linalg.norm(reference)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gkls_dissipator_matches_per_term_kron(n, rng):
    ops = random_complex((4, n, n), rng)
    rates = rng.uniform(0.0, 2.0, size=4)
    eye = np.eye(n)
    reference = np.zeros((n * n, n * n), dtype=complex)
    for gamma, a in zip(rates, ops):
        ada = a.conj().T @ a
        reference += gamma * (np.kron(a.conj(), a) - 0.5 * np.kron(ada.T, eye) - 0.5 * np.kron(eye, ada))
    assert np.linalg.norm(gkls_dissipator(ops, rates) - reference) < 1e-13 * max(
        1.0, np.linalg.norm(reference)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hermitian_term_at_double_rate_is_double_commutator(n, rng):
    v = presets.random_hermitian(n, rng)
    w = 0.7
    comm = np.kron(np.eye(n), v) - np.kron(v.T, np.eye(n))
    reference = -w * (comm @ comm)
    got = gkls_dissipator(v[None], [2 * w])
    assert np.linalg.norm(got - reference) < 1e-13 * max(1.0, np.linalg.norm(reference))


def test_conjugation_superop_matches_sandwich(rng):
    u = presets.random_unitary(3, rng)
    x = random_complex((3, 3), rng)
    assert np.allclose(_apply(conjugation_superop(u), x), u @ x @ u.conj().T, atol=1e-12)


# -- eigenoperator basis -----------------------------------------------------


def test_qubit_basis_contents():
    basis = eigenoperator_basis(presets.qubit(1.0))
    assert basis.n_levels == 2
    assert len(basis.transitions) == 2
    down = basis.transitions[0]
    assert (down.n, down.m) == (0, 1)
    assert down.omega == pytest.approx(1.0)
    assert np.allclose(down.operator, presets.LOWER)
    up = basis.transitions[1]
    assert up.omega == pytest.approx(-1.0)
    assert np.allclose(up.operator, down.operator.conj().T)
    # one traceless invariant proportional to diag(1, -1), identity last
    assert len(basis.invariants) == 2
    assert np.allclose(np.abs(basis.invariants[0]), np.diag([1, 1]) / np.sqrt(2))
    assert abs(np.trace(basis.invariants[0])) < 1e-14
    assert np.allclose(basis.invariants[-1], np.eye(2) / np.sqrt(2))


def test_qutrit_bohr_frequencies_are_singletons():
    basis = eigenoperator_basis(presets.qutrit(0.0, 1.0, 3.0))
    positive = sorted(t.omega for t in basis.transitions if t.omega > 0)
    assert positive == pytest.approx([1.0, 2.0, 3.0])
    assert all(len(g) == 1 for g in basis.degeneracy_groups)


def test_ladder_degeneracy_grouping():
    basis = eigenoperator_basis(presets.ladder(3, 1.0))
    positive = sorted(t.omega for t in basis.transitions if t.omega > 0)
    assert positive == pytest.approx([1.0, 1.0, 2.0])
    sizes = sorted(len(g) for g in basis.positive_degeneracy_groups())
    assert sizes == [1, 2]


def test_adjoint_pairing_indices():
    basis = eigenoperator_basis(presets.qutrit(0.0, 1.0, 3.0))
    for k, tr in enumerate(basis.transitions):
        partner = basis.transitions[basis.conjugate_index(k)]
        assert partner.omega == pytest.approx(-tr.omega)
        assert np.allclose(partner.operator, tr.operator.conj().T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_transition_index_matches_list_position(n, rng):
    basis = eigenoperator_basis(presets.random_hermitian(n, rng))
    for position, tr in enumerate(basis.transitions):
        assert basis.transition_index(tr.n, tr.m) == position
    for bad in [(0, 0), (n - 1, n - 1), (-1, 0), (0, n), (n, 0)]:
        with pytest.raises(ValueError, match="no transition"):
            basis.transition_index(*bad)


def test_spectrum_reconstructs_hamiltonian(rng):
    h = presets.random_hermitian(4, rng)
    basis = eigenoperator_basis(h)
    rebuilt = sum(
        e * p for e, p in zip(basis.spectrum.energies, basis.projectors)
    )
    assert np.allclose(rebuilt, h, atol=1e-12)
    v = basis.spectrum.vectors
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_transition_commutator_identity(rng):
    h = presets.random_hermitian(4, rng)
    basis = eigenoperator_basis(h)
    for tr in basis.transitions:
        lhs = h @ tr.operator - tr.operator @ h
        assert np.allclose(lhs, -tr.omega * tr.operator, atol=1e-12)


def test_free_evolution_eigenvalue_equation(rng):
    h = presets.random_hermitian(3, rng)
    basis = eigenoperator_basis(h)
    energies, vectors = np.linalg.eigh(h)
    for t in (0.3, 1.7):
        u = (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T
        for tr in basis.transitions:
            # interaction picture: e^{iHt} F e^{-iHt} = e^{-i omega t} F
            evolved = u.conj().T @ tr.operator @ u
            assert np.allclose(evolved, np.exp(-1j * tr.omega * t) * tr.operator, atol=1e-12)


def test_hamiltonian_superop_spectrum():
    h = presets.qutrit(0.0, 1.0, 3.0)
    basis = eigenoperator_basis(h)
    evals = np.linalg.eigvals(-1j * assemble_superop("commutator", h))
    expected = np.concatenate([[-1j * t.omega for t in basis.transitions], np.zeros(3)])
    assert np.allclose(np.sort_complex(evals), np.sort_complex(expected), atol=1e-10)


def test_basis_is_orthonormal_and_complete(rng):
    h = presets.random_hermitian(4, rng)
    basis = eigenoperator_basis(h)
    ops = basis.full_basis()
    assert len(ops) == 16
    gram = np.array([[hs_inner(a, b) for b in ops] for a in ops])
    assert np.allclose(gram, np.eye(16), atol=1e-12)
    x = random_complex((4, 4), rng)
    weight = sum(abs(hs_inner(op, x)) ** 2 for op in ops)
    assert weight == pytest.approx(np.linalg.norm(x) ** 2)


def test_non_hermitian_hamiltonian_rejected(rng):
    with pytest.raises(ValueError):
        eigenoperator_basis(random_complex((3, 3), rng))


def test_hs_norm_matches_frobenius(rng):
    a = random_complex((3, 3), rng)
    assert hs_norm(a) == pytest.approx(np.linalg.norm(a))
