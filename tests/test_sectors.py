"""The Bohr-frequency sector route of Propagator and the audit against the
dense route on the same generators, and the rule that picks the route."""
import types

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from thermolindblad import (
    Propagator,
    ThermoSpec,
    assemble_superop,
    build_restricted_generator,
    check_cptp,
    check_fixed_point,
    check_spectral,
    eigenoperator_basis,
    presets,
    propagate,
    run_standard_checks,
    vectorize,
)

ROUTED = ("fixed_point", "cptp", "spectral")


def restricted(h, beta, rng, alpha=True, mixing=None):
    basis = eigenoperator_basis(h)
    tol = basis.spectrum.degeneracy_tol
    n = h.shape[0]
    energies = basis.spectrum.energies
    rates = {
        (i, j): float(rng.uniform(0.5, 1.5))
        for i in range(n)
        for j in range(i + 1, n)
        if energies[j] - energies[i] > tol
    }
    a = rng.normal(size=(n, n))
    return build_restricted_generator(
        ThermoSpec(
            hamiltonian=h,
            beta=beta,
            downward_rates=rates,
            alpha=a @ a.T / n if alpha else None,
            degenerate_mixing=mixing,
        )
    )


def ladder_with_mixing(n, rng):
    return restricted(presets.ladder(n, 1.0), 1.3, rng, alpha=False, mixing={1.0: presets.random_unitary(n - 1, rng)})


INPUTS = {
    "qubit": lambda rng: restricted(presets.qubit(1.0), 1.0, rng),
    "qutrit": lambda rng: restricted(presets.qutrit(0.0, 1.0, 3.0), 1.0, rng, alpha=False),
    "n1": lambda rng: restricted(np.array([[0.7]]), 1.0, rng),
    "beta0": lambda rng: restricted(presets.random_hermitian(4, rng), 0.0, rng),
    "beta50": lambda rng: restricted(presets.random_hermitian(4, rng), 50.0, rng),
    # levels 0 and 1 coincide, so the zero sector also holds |0><1| and |1><0|
    "degenerate": lambda rng: restricted(np.diag([0.0, 0.0, 1.0, 2.5]), 0.8, rng),
    **{f"random{n}": (lambda rng, n=n: restricted(presets.random_hermitian(n, rng), 1.2, rng)) for n in range(2, 9)},
    **{f"ladder{n}": (lambda rng, n=n: ladder_with_mixing(n, rng)) for n in range(2, 9)},
}


def paired_distance(a, b):
    distance = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(distance)
    return distance[rows, cols].max()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_sector_route_matches_dense_route(name, rng):
    gen = INPUTS[name](rng)
    l_mat = gen.superoperator
    bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
    sector, dense = Propagator(l_mat, gen.basis), Propagator(l_mat)
    assert sector.route == "sector" and dense.route == "dense"
    assert sector.off_sector_norm <= bound
    assert paired_distance(sector.eigenvalues, dense.eigenvalues) <= bound
    assert abs(sector.condition_number - dense.condition_number) <= bound
    assert np.max(np.abs(sector(0.7) - dense(0.7))) <= bound

    cptp_s, cptp_d = check_cptp(sector), check_cptp(dense)
    for key in ("choi_eigenvalues_by_time", "trace_defects_by_time"):
        assert np.max(np.abs(np.subtract(cptp_s.details[key], cptp_d.details[key]))) <= bound
    assert cptp_s.passed == cptp_d.passed
    fixed_s = check_fixed_point(sector, gen.hamiltonian, gen.beta)
    fixed_d = check_fixed_point(l_mat, gen.hamiltonian, gen.beta)
    assert fixed_s.details["null_dimension"] == fixed_d.details["null_dimension"]
    assert fixed_s.details["route"] == "sector" and fixed_d.details["route"] == "dense"

    rho0 = presets.random_density_matrix(gen.dim, rng)
    times = np.linspace(0.0, 30.0, 16)
    states_s = propagate(gen, rho0, times).states
    states_d = propagate(l_mat, rho0, times).states
    assert np.max(np.abs(states_s - states_d)) <= bound


def test_degenerate_zero_sector_holds_coherences(rng):
    gen = INPUTS["degenerate"](rng)
    prop = Propagator(gen.superoperator, gen.basis)
    sizes = [idx.shape[-1] for idx in prop.sectors.indices]
    # 4 populations plus the two coherences between the coinciding levels
    assert max(sizes) == 6


def test_report_names_route_and_off_sector_norm(qutrit_generator):
    report = run_standard_checks(qutrit_generator)
    for name in ROUTED:
        details = report.get(name).details
        assert details["route"] == "sector"
        assert details["off_sector_norm"] == pytest.approx(0.0, abs=1e-14)
    # checks given a bare array measure nothing and stay dense
    details = check_spectral(qutrit_generator.superoperator).details
    assert details["route"] == "dense" and details["off_sector_norm"] is None


def foreign(n, rng):
    h = presets.random_hermitian(n, rng)
    diss = sum(
        assemble_superop("dissipator_term", rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for _ in range(n)
    )
    return types.SimpleNamespace(
        basis=eigenoperator_basis(h),
        hamiltonian=h,
        beta=1.0,
        jump_terms=[],
        dissipator=diss,
        superoperator=-1j * assemble_superop("commutator", h) + diss,
    )


def perturbed(gen, eps=1e-8):
    """gen with eps coupling |0><0| (zero sector) to |0><N-1| (top sector)
    in the energy frame."""
    n = gen.dim
    vectors = gen.basis.spectrum.vectors
    frame = np.zeros((n * n, n * n), dtype=complex)
    frame[0, n * (n - 1)] = eps
    u = np.kron(vectors.conj(), vectors)
    kick = u @ frame @ u.conj().T
    return types.SimpleNamespace(**{**vars(gen), "superoperator": gen.superoperator + kick})


def dense_checks(gen):
    """The routed checks as the dense code computes them from the bare array."""
    l_mat = gen.superoperator
    return {
        "fixed_point": check_fixed_point(l_mat, gen.hamiltonian, gen.beta),
        "cptp": check_cptp(l_mat),
        "spectral": check_spectral(l_mat, gen.basis),
    }


def without_route(result):
    details = {k: v for k, v in result.details.items() if k not in ("route", "off_sector_norm")}
    return result.passed, result.defect, result.threshold, details


def assert_same_results(a, b):
    pa, pb = without_route(a), without_route(b)
    assert pa[:3] == pb[:3]
    assert pa[3].keys() == pb[3].keys()
    for key, value in pa[3].items():
        np.testing.assert_array_equal(value, pb[3][key])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_off_sector_perturbation_takes_dense_route(n, rng):
    gen = perturbed(restricted(presets.random_hermitian(n, rng), 1.0, rng))
    report = run_standard_checks(gen)
    assert not report.get("commutation").passed  # the kick breaks the restriction
    expected = dense_checks(gen)
    for name in ROUTED:
        result = report.get(name)
        assert result.details["route"] == "dense"
        assert result.details["off_sector_norm"] == pytest.approx(1e-8, rel=1e-3)
        assert_same_results(result, expected[name])


def test_foreign_generator_takes_dense_route(rng):
    gen = foreign(4, rng)
    report = run_standard_checks(gen)
    expected = dense_checks(gen)
    for name in ROUTED:
        result = report.get(name)
        assert result.details["route"] == "dense"
        assert result.details["off_sector_norm"] > 0.1 * np.linalg.norm(gen.superoperator)
        assert_same_results(result, expected[name])


def test_frequencies_chained_past_tolerance_take_dense_route(rng):
    # at degeneracy_tol t the Bohr frequencies 1, 1 + 0.6t, 1 + 1.2t chain
    # into one label, but E_1 - E_3 and E_0 - E_2 differ by 1.2t and do not:
    # the labels would not split the Choi matrix
    t = 1e-6
    h = np.diag([0.0, 1.0, 2.0 + 0.6 * t, 3.0 + 1.8 * t])
    spec = ThermoSpec(hamiltonian=h, beta=1.0, downward_rates={(0, 1): 1.0, (1, 2): 0.7, (2, 3): 0.4}, degeneracy_tol=t)
    gen = build_restricted_generator(spec)
    prop = Propagator(gen.superoperator, gen.basis)
    assert prop.off_sector_norm == 0.0
    assert prop.route == "dense"
    assert run_standard_checks(gen).passed


def test_condition_number_covers_every_block():
    # H = diag(0, 0, 1): the zero sector has 5 indices, the sectors at -1
    # and +1 have 2 each; the worst-conditioned block is a 2x2 one, not the
    # largest block
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    basis = eigenoperator_basis(h)
    frame = np.diag(-np.arange(1.0, 10.0)).astype(complex)
    frame[2, 5] = 1.0  # |2><0| and |2><1| share the frequency E_2 - E_0
    frame[5, 5] = frame[2, 2] - 1e-3  # a near-defective 2x2 block
    u = np.kron(basis.spectrum.vectors.conj(), basis.spectrum.vectors)
    l_mat = u @ frame @ u.conj().T
    sector, dense = Propagator(l_mat, basis), Propagator(l_mat)
    assert sector.route == "sector"
    assert dense.condition_number > 1e3
    assert sector.condition_number == pytest.approx(dense.condition_number, rel=1e-6)


def test_basis_must_match_superoperator(qubit_generator, qutrit_generator):
    with pytest.raises(ValueError, match="levels"):
        Propagator(qubit_generator.superoperator, qutrit_generator.basis)


def test_sector_route_uses_vec_index_convention(rng):
    # vec index a + N b of the energy frame is |a><b|: the frame of L applied
    # to vec(|a><b|) must carry frequency E_a - E_b on the diagonal
    gen = INPUTS["random5"](rng)
    prop = Propagator(gen.superoperator, gen.basis)
    energies = gen.basis.spectrum.energies
    frame = prop.sectors.frame
    omegas = (energies[:, None] - energies[None, :]).ravel(order="F")
    coherences = ~np.eye(5, dtype=bool).ravel(order="F")
    assert np.allclose(frame.diagonal().imag[coherences], -omegas[coherences], atol=1e-8)
    vectors = gen.basis.spectrum.vectors
    op = np.outer(vectors[:, 1], vectors[:, 3].conj())
    image = gen.superoperator @ vectorize(op)
    frame_image = np.kron(vectors.conj(), vectors).conj().T @ image
    assert np.allclose(frame_image, frame[:, 1 + 5 * 3], atol=1e-12)
