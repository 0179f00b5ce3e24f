"""Vectorization conventions, superoperator assembly, and the
eigenoperator decomposition."""
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermolindblad import (
    Propagator,
    ThermoSpec,
    assemble_superop,
    build_restricted_generator,
    choi_matrix,
    conjugation_superop,
    devectorize,
    eigenoperator_basis,
    hs_inner,
    hs_norm,
    presets,
    run_standard_checks,
    vectorize,
)
from thermolindblad import dynamics, liouville
from thermolindblad.liouville import _cluster, gkls_dissipator, sandwich_sum


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


def test_devectorize_of_a_stack_matches_per_vector_calls(rng):
    vecs = random_complex((3, 2, 9), rng)
    stacked = devectorize(vecs)
    assert stacked.shape == (3, 2, 3, 3)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(stacked[idx], devectorize(vecs[idx]))


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


def f_order_choi(lam):
    """The column-stacking reshuffle as written before choi_matrix took stacks."""
    n = int(round(np.sqrt(lam.shape[0])))
    t = lam.reshape((n, n, n, n), order="F")
    return t.transpose(0, 2, 1, 3).reshape((n * n, n * n), order="F")


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 20])
def test_choi_matrix_equals_the_f_order_formula_and_stacks(n, rng):
    lam = random_complex((n * n, n * n), rng)
    assert np.array_equal(choi_matrix(lam), f_order_choi(lam))
    stack = random_complex((2, 3, n * n, n * n), rng)
    choi = choi_matrix(stack)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(choi[idx], choi_matrix(stack[idx]))


@pytest.mark.parametrize(
    "shape", [(), (4,), (3, 3), (4, 9), (9, 4), (2, 5, 5)], ids=["0-d", "1-d", "3x3", "4x9", "9x4", "stack-5x5"]
)
def test_choi_matrix_rejects_axes_that_are_not_n2_by_n2(shape):
    with pytest.raises(ValueError, match=re.escape(f"N^2 x N^2 in its last two axes, got shape {shape}")):
        choi_matrix(np.zeros(shape))


@pytest.mark.parametrize("n,k", [(1, 2), (2, 0), (2, 4), (3, 9), (4, 16)])
def test_sandwich_sum_of_a_stack_matches_per_item_calls(n, k, rng):
    lefts, rights = random_complex((5, k, n, n), rng), random_complex((5, k, n, n), rng)
    weights = rng.uniform(size=k)
    stacked = sandwich_sum(lefts, rights, weights)
    assert stacked.shape == (5, n * n, n * n)
    for i in range(5):
        assert np.array_equal(stacked[i], sandwich_sum(lefts[i], rights[i], weights))


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


# -- index-factor kernels against np.kron oracles ---------------------------


def drawn_array(shape, dtype, layout, rng):
    """A random complex, real or integer array in C order, F order or as the
    transposed view of a C-order array."""
    if dtype == "int":
        x = rng.integers(-5, 6, size=shape[::-1] if layout == "T" else shape)
    else:
        x = rng.normal(size=shape[::-1] if layout == "T" else shape)
        if dtype == "complex":
            x = x + 1j * rng.normal(size=x.shape)
    return {"C": x, "F": np.asfortranarray(x), "T": x.T}[layout]


KERNEL_INPUTS = dict(
    n=st.integers(min_value=1, max_value=7),
    dtype=st.sampled_from(["complex", "real", "int"]),
    layout=st.sampled_from(["C", "F", "T"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def frame_unitary(n, adjoint, rng):
    """A random unitary, or the adjoint view of one, as Propagator.to_standard passes it."""
    w = presets.random_unitary(n, rng)
    return w.conj().T if adjoint else w


@given(adjoint=st.booleans(), **KERNEL_INPUTS)
@settings(max_examples=60, deadline=None)
def test_conjugated_matches_the_kron_oracle(n, dtype, layout, adjoint, seed):
    rng = np.random.default_rng(seed)
    w = frame_unitary(n, adjoint, rng)
    m = drawn_array((n * n, n * n), dtype, layout, rng)
    k = np.kron(w.conj(), w)
    got = liouville._conjugated(m, w)
    assert got.shape == m.shape
    assert np.linalg.norm(got - k.conj().T @ m @ k) <= 1e-14 * max(1.0, np.linalg.norm(m))


@given(adjoint=st.booleans(), columns=st.integers(min_value=1, max_value=5), **KERNEL_INPUTS)
@settings(max_examples=60, deadline=None)
def test_to_frame_matches_the_kron_oracle(n, dtype, layout, adjoint, columns, seed):
    rng = np.random.default_rng(seed)
    w = frame_unitary(n, adjoint, rng)
    x = drawn_array((n * n, columns), dtype, layout, rng)
    expected = np.kron(w.conj(), w).conj().T @ x
    assert np.linalg.norm(liouville._to_frame(x, w) - expected) <= 1e-14 * max(1.0, np.linalg.norm(x))
    # a single vector takes the same path as a one-column stack
    assert np.array_equal(liouville._to_frame(x[:, 0], w), liouville._to_frame(x[:, :1], w)[:, 0])


def kron_sum(left, right):
    """np.kron form of X -> left X + X right; its main diagonal holds left_qq + right_pp
    as one sum, so out + kron_sum(left, right) is what _add_kronecker_sum writes."""
    eye = np.eye(len(left))
    return np.kron(eye, left) + np.kron(right.T, eye)


@given(**dict(KERNEL_INPUTS, n=st.integers(min_value=1, max_value=12)))
@settings(max_examples=60, deadline=None)
def test_superoperators_equal_their_kron_formulas(n, dtype, layout, seed):
    rng = np.random.default_rng(seed)
    a_in, b_in = (drawn_array((n, n), dtype, layout, rng) for _ in range(2))
    a, b = np.asarray(a_in, dtype=complex), np.asarray(b_in, dtype=complex)
    eye = np.eye(n)
    out = random_complex((n * n, n * n), rng)
    expected = out + kron_sum(a, b)
    liouville._add_kronecker_sum(out, a, b)
    assert np.array_equal(out, expected)
    formulas = {
        "left": np.kron(eye, a),
        "right": np.kron(a.T, eye),
        "commutator": np.kron(eye, a) - np.kron(a.T, eye),
        "anticommutator": np.kron(eye, a) + np.kron(a.T, eye),
    }
    for kind, expected in formulas.items():
        assert np.array_equal(assemble_superop(kind, a_in), expected), kind
    assert np.array_equal(assemble_superop("sandwich", a_in, b_in), np.kron(b.T, a))
    assert np.array_equal(conjugation_superop(a_in), np.kron(a.conj(), a))
    ops = np.stack([a, b])
    rates = [0.7, 1.3]
    jumps = sandwich_sum(ops, ops.conj().transpose(0, 2, 1), rates)
    decay = jumps[:: n + 1].sum(axis=0).reshape(n, n)
    expected = jumps - 0.5 * (np.kron(decay.T, eye) + np.kron(eye, decay))
    assert np.array_equal(gkls_dissipator(ops, rates), expected)
    # dissipator_term is its own broadcast product, with a^dag a read off its partial trace;
    # gkls_dissipator forms the same product by a K = 1 GEMM, equal to rounding only
    jump = np.kron(a.conj(), a)
    decay = -0.5 * jump[:: n + 1].sum(axis=0).reshape(n, n)
    term = assemble_superop("dissipator_term", a_in)
    assert np.array_equal(term, jump + kron_sum(decay, decay))
    assert np.linalg.norm(term - gkls_dissipator(a[None], [1.0])) <= 1e-15 * max(1.0, np.linalg.norm(a) ** 2)


@given(
    n=st.integers(min_value=1, max_value=12),
    dtype=st.sampled_from(["complex", "real"]),
    layout=st.sampled_from(["C", "F"]),
    dephasing=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_restricted_build_equals_its_kron_formulas(n, dtype, layout, dephasing, seed):
    rng = np.random.default_rng(seed)
    h = drawn_array((n, n), dtype, layout, rng)
    h = h + h.conj().T
    rates = {(i, j): float(rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 1, n)}
    alpha = np.eye(n) if dephasing else None
    gen = build_restricted_generator(ThermoSpec(h, float(rng.uniform(0, 2)), rates, alpha=alpha))
    ops = np.reshape([t.operator for t in gen.jump_terms] + [t.operator for t in gen.dephasing_terms], (-1, n, n))
    gammas = [t.rate for t in gen.jump_terms] + [2 * t.weight for t in gen.dephasing_terms]
    jumps = sandwich_sum(ops, ops.conj().transpose(0, 2, 1), gammas)
    decay = -0.5 * jumps[:: n + 1].sum(axis=0).reshape(n, n)
    h = np.asarray(h, dtype=complex)
    assert np.array_equal(gen.dissipator, jumps + kron_sum(decay, decay))
    assert np.array_equal(gen.superoperator, gen.dissipator + kron_sum(-1j * h, 1j * h))
    # heat_current's product and the report's norm sum D in memory order
    assert gen.dissipator.flags.c_contiguous and gen.superoperator.flags.c_contiguous


# the decay is taken off whole, not as two halves, so |a|^2 cancels even where
# |a|^2, or the rounding residue a complex product leaves in its imaginary
# part, is subnormal and half of it is inexact
PRODUCT_COMPONENT = st.floats(min_value=-1e100, max_value=1e100)


@given(re=PRODUCT_COMPONENT, im=PRODUCT_COMPONENT)
@settings(max_examples=100, deadline=None)
@example(re=2.4714302417588696, im=5.7401690355516135e-295)
@example(re=8.856e-308, im=1.5)
# conj(a) a finite, twice it not
@example(re=1.3e154, im=0.0)
@example(re=9e153, im=9e153)
def test_dissipator_term_of_one_level_is_zero(re, im):
    assert np.array_equal(assemble_superop("dissipator_term", [[complex(re, im)]]), [[0.0]])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_dissipator_term_preserves_the_trace_to_rounding(n, rng):
    a = random_complex((n, n), rng)
    term = assemble_superop("dissipator_term", a)
    defect = np.linalg.norm(term.conj().T @ vectorize(np.eye(n)))
    assert defect <= 1e-15 * n * np.linalg.norm(a) ** 2


def test_kronecker_sum_writer_refuses_an_array_it_cannot_write_through(rng):
    # an F-order out would reshape to a copy, and the sum would be lost
    out, a = np.asfortranarray(random_complex((9, 9), rng)), random_complex((3, 3), rng)
    with pytest.raises(ValueError):
        liouville._add_kronecker_sum(out, a, a)


def test_dissipator_term_is_one_product_and_gkls_dissipator_one_writer(monkeypatch, rng):
    calls = {"sandwich_sum": 0, "gkls_dissipator": 0, "assemble_superop": 0}

    def counting(name):
        original = getattr(liouville, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(liouville, name, wrapper)

    for name in calls:
        counting(name)
    a = random_complex((3, 3), rng)
    liouville.assemble_superop("dissipator_term", a)
    assert calls == {"sandwich_sum": 0, "gkls_dissipator": 0, "assemble_superop": 1}
    liouville.gkls_dissipator(a[None], [1.0])
    assert calls == {"sandwich_sum": 1, "gkls_dissipator": 1, "assemble_superop": 1}


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


def reference_cluster(values, tol):
    """The per-element loop _cluster replaced: chain sorted neighbours within tol."""
    order = np.argsort(values)
    groups = []
    current = [int(order[0])]
    for idx in order[1:]:
        if values[idx] - values[current[-1]] <= tol:
            current.append(int(idx))
        else:
            groups.append(current)
            current = [int(idx)]
    groups.append(current)
    return groups


def partition(groups):
    return {frozenset(g) for g in groups}


def bohr_frequencies(energies):
    return (energies[None, :] - energies[:, None]).ravel(order="F")


CLUSTER_INPUTS = {
    "random": lambda rng: (bohr_frequencies(np.sort(rng.normal(size=6))), 1e-9),
    "ladder": lambda rng: (bohr_frequencies(np.arange(7.0)), 1e-9),
    "degenerate": lambda rng: (bohr_frequencies(np.array([0.0, 0.0, 1.0, 1.0, 2.5])), 1e-9),
    # 1, 1 + 0.6t, 1 + 1.2t: the outer two differ by more than t but chain
    "chained": lambda rng: (np.array([1.0, 1.0 + 1.2e-9, 3.0, 1.0 + 0.6e-9, 3.0]), 1e-9),
    "n1": lambda rng: (np.array([0.0]), 1e-12),
    "shuffled": lambda rng: (rng.permutation(np.repeat(rng.normal(size=5), 4)), 1e-12),
}


@pytest.mark.parametrize("name", sorted(CLUSTER_INPUTS))
def test_cluster_matches_reference_loop(name, rng):
    values, tol = CLUSTER_INPUTS[name](rng)
    labels = _cluster(values, tol)
    reference = reference_cluster(values, tol)  # groups in ascending value
    assert labels.shape == values.shape
    assert [sorted(set(labels[g].tolist())) for g in reference] == [[k] for k in range(len(reference))]


@pytest.mark.parametrize("n", range(4, 21))
def test_degeneracy_groups_in_ascending_transition_order(n):
    basis = eigenoperator_basis(presets.ladder(n, 1.0))
    omegas = [basis.transitions[g[0]].omega for g in basis.degeneracy_groups]
    assert omegas == sorted(omegas)
    for group in basis.degeneracy_groups:
        assert group == sorted(group)
        assert all(isinstance(k, int) for k in group)
    # the unit-frequency group reads (0, 1), (1, 2), ... in level order
    unit = basis.positive_degeneracy_groups()[0]
    assert [(basis.transitions[k].n, basis.transitions[k].m) for k in unit] == [(i, i + 1) for i in range(n - 1)]


def test_sector_labels_hold_populations_and_degenerate_coherences():
    basis = eigenoperator_basis(np.diag([0.0, 1.0, 1.0]))
    labels = basis.sector_labels.reshape(3, 3, order="F")  # labels[a, b] is |a><b|
    zero = labels[0, 0]
    assert np.array_equal(labels == zero, np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1]], dtype=bool))
    assert labels[0, 1] == labels[0, 2] != labels[1, 0] == labels[2, 0]
    assert labels[1, 0] < zero < labels[0, 1]  # ascending with E_b - E_a
    # the degenerate coherences form the zero-frequency transition group
    zero_group = [g for g in basis.degeneracy_groups if basis.transitions[g[0]].omega == 0.0]
    assert [(basis.transitions[k].n, basis.transitions[k].m) for k in zero_group[0]] == [(1, 2), (2, 1)]


@pytest.mark.parametrize(
    "h",
    [
        presets.qutrit(0.0, 1.0, 3.0),
        presets.ladder(6, 1.0),
        np.diag([0.0, 0.0, 1.0, 2.5]),
        np.diag([0.0, 1.0, 1.0, 1.0, 3.0]),
        presets.random_hermitian(6, np.random.default_rng(5)),
    ],
)
def test_degeneracy_groups_match_transitions_only_clustering(h):
    basis = eigenoperator_basis(h)
    omegas = np.array([t.omega for t in basis.transitions])
    expected = reference_cluster(omegas, basis.spectrum.degeneracy_tol)
    assert partition(basis.degeneracy_groups) == partition(expected)


def test_near_zero_frequencies_chain_through_the_populations():
    # levels 0.6t apart: the transitions alone sit at -0.6t and +0.6t, more
    # than t apart; with the populations' zeros between them they chain
    t = 1e-6
    basis = eigenoperator_basis(np.diag([0.0, 0.6 * t, 1.0]), degeneracy_tol=t)
    omegas = np.array([tr.omega for tr in basis.transitions])
    near_zero = sorted(basis.transition_index(*pair) for pair in [(0, 1), (1, 0)])
    assert partition(reference_cluster(omegas, t)) >= {frozenset([near_zero[0]]), frozenset([near_zero[1]])}
    assert near_zero in basis.degeneracy_groups
    labels = basis.sector_labels.reshape(3, 3, order="F")
    assert labels[0, 1] == labels[1, 0] == labels[0, 0] == labels[1, 1] == labels[2, 2]


def test_one_cluster_call_per_basis(monkeypatch, rng):
    calls = []

    def counting(values, tol):
        calls.append(len(values))
        return _cluster(values, tol)

    monkeypatch.setattr(liouville, "_cluster", counting)
    monkeypatch.setattr(dynamics, "_cluster", counting, raising=False)
    spec = ThermoSpec(
        hamiltonian=presets.ladder(4, 1.0),
        beta=1.0,
        downward_rates={(0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.3},
        degenerate_mixing={1.0: presets.random_unitary(3, rng)},
    )
    gen = build_restricted_generator(spec)
    assert calls == [16]
    Propagator(gen.superoperator, gen.basis)
    run_standard_checks(gen)
    assert calls == [16]
    eigenoperator_basis(presets.random_hermitian(3, rng))
    assert calls == [16, 9]


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


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_basis_operators_equal_outer_products(n, rng):
    h = presets.random_hermitian(n, rng)
    energies, vectors = np.linalg.eigh((h + h.conj().T) / 2)
    for j in range(n):  # the per-column phase fix the basis replaced
        pivot = vectors[np.argmax(np.abs(vectors[:, j])), j]
        vectors[:, j] *= np.abs(pivot) / pivot
    basis = eigenoperator_basis(h)
    np.testing.assert_array_equal(basis.spectrum.vectors, vectors)
    for i, projector in enumerate(basis.projectors):
        np.testing.assert_array_equal(projector, np.outer(vectors[:, i], vectors[:, i].conj()))
    for tr in basis.transitions:
        np.testing.assert_array_equal(tr.operator, np.outer(vectors[:, tr.n], vectors[:, tr.m].conj()))


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
    rows, cols = basis.transition_pairs
    ops = list(basis.outers[rows, cols]) + basis.invariants
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
