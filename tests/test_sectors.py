"""The Bohr-frequency sector route of Propagator and the audit against the
dense route on the same generators, and the rule that picks the route."""
import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from thermolindblad import (
    Propagator,
    ThermoSpec,
    assemble_superop,
    build_restricted_generator,
    check_cptp,
    check_fixed_point,
    check_spectral,
    check_structure_support,
    choi_matrix,
    devectorize,
    eigenoperator_basis,
    presets,
    propagate,
    run_standard_checks,
    steady_state,
    vectorize,
)
from thermolindblad import dynamics, liouville, validator
from thermolindblad.dynamics import _hamiltonian_part, null_dimension
from thermolindblad.liouville import _hermitian_coords
from thermolindblad.reporting import emit_json, to_jsonable
from thermolindblad.validator import CPTP_TIME_GRID

ROUTED = ("fixed_point", "cptp", "spectral")
SRC = Path(__file__).resolve().parent.parent / "src"


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


def dense_cptp_details(l_mat, times=CPTP_TIME_GRID):
    """Choi minima and trace defects of expm(L t), from the whole L."""
    eye_vec = vectorize(np.eye(int(round(np.sqrt(l_mat.shape[0])))))
    min_eigs, tp_defects = [], []
    for lam in expm(l_mat * np.reshape(times, (-1, 1, 1))):
        choi = choi_matrix(lam)
        min_eigs.append(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
        tp_defects.append(np.linalg.norm(lam.conj().T @ eye_vec - eye_vec))
    return {"choi_eigenvalues_by_time": min_eigs, "trace_defects_by_time": tp_defects}


def dense_states(l_mat, rho0, times):
    """expm(L t) vec(rho0) for every t, Hermitized, from the whole L."""
    vecs = expm(l_mat * times[:, None, None]) @ vectorize(rho0)
    states = vecs.reshape(-1, *rho0.shape).swapaxes(1, 2)
    return (states + states.conj().swapaxes(1, 2)) / 2


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_sector_route_matches_dense_route(name, rng):
    gen = INPUTS[name](rng)
    l_mat = gen.superoperator
    bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
    sector = Propagator(l_mat, gen.basis)
    assert sector.route == "sector"
    assert sector.off_sector_norm <= bound
    dense_evals, dense_evecs = np.linalg.eig(l_mat)
    assert paired_distance(sector.eigenvalues, dense_evals) <= bound
    assert abs(sector.condition_number - np.linalg.cond(dense_evecs)) <= bound
    assert np.max(np.abs(sector(0.7) - expm(l_mat * 0.7))) <= bound

    cptp_s, cptp_d = check_cptp(sector), dense_cptp_details(l_mat)
    for key in ("choi_eigenvalues_by_time", "trace_defects_by_time"):
        assert np.max(np.abs(np.subtract(cptp_s.details[key], cptp_d[key]))) <= bound
    assert cptp_s.passed == (max(-min(cptp_d["choi_eigenvalues_by_time"]), max(cptp_d["trace_defects_by_time"])) <= 1e-10)
    fixed_s = check_fixed_point(sector, gen.hamiltonian, gen.beta)
    assert fixed_s.details["null_dimension"] == null_dimension(np.linalg.svd(l_mat, compute_uv=False))
    assert fixed_s.details["route"] == "sector"

    rho0 = presets.random_density_matrix(gen.dim, rng)
    times = np.linspace(0.0, 30.0, 16)
    states_s = propagate(gen, rho0, times).states
    assert np.max(np.abs(states_s - dense_states(l_mat, rho0, times))) <= bound


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_bare_restricted_array_takes_sector_route(name, rng):
    # the frame comes from L's own Hamiltonian part, not from gen.basis
    gen = INPUTS[name](rng)
    l_mat = gen.superoperator
    bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
    bare, given = Propagator(l_mat), Propagator(l_mat, gen.basis)
    assert bare.route == "sector"
    assert bare.off_sector_norm <= bound
    assert [idx.shape for idx in bare.indices] == [idx.shape for idx in given.indices]
    assert paired_distance(bare.eigenvalues, given.eigenvalues) <= bound
    assert np.max(np.abs(bare(0.7) - given(0.7))) <= bound
    rho0 = presets.random_density_matrix(gen.dim, rng)
    times = np.linspace(0.0, 30.0, 16)
    assert np.max(np.abs(propagate(l_mat, rho0, times).states - propagate(gen, rho0, times).states)) <= bound
    for check in (check_fixed_point(l_mat, gen.hamiltonian, gen.beta), check_cptp(l_mat), check_spectral(l_mat)):
        assert check.details["route"] == "sector"
    assert np.max(np.abs(steady_state(l_mat).rho - steady_state(gen).rho)) <= bound


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_hamiltonian_part_is_the_generator_hamiltonian(name, rng):
    gen = INPUTS[name](rng)
    derived = _hamiltonian_part(gen.superoperator, gen.dim)
    shift = derived - gen.hamiltonian
    bound = 1e-12 * max(1.0, np.linalg.norm(gen.superoperator))
    assert np.max(np.abs(shift - np.trace(shift) / gen.dim * np.eye(gen.dim))) <= bound


def test_degenerate_zero_sector_holds_coherences(rng):
    gen = INPUTS["degenerate"](rng)
    prop = Propagator(gen.superoperator, gen.basis)
    sizes = [idx.shape[-1] for idx in prop.indices]
    # 4 populations plus the two coherences between the coinciding levels
    assert max(sizes) == 6


def test_report_names_route_and_off_sector_norm(qutrit_generator):
    report = run_standard_checks(qutrit_generator)
    for name in ROUTED:
        details = report.get(name).details
        assert details["route"] == "sector"
        assert details["off_sector_norm"] == pytest.approx(0.0, abs=1e-14)
    # a bare array is measured in the frame of its own Hamiltonian part
    details = check_spectral(qutrit_generator.superoperator).details
    assert details["route"] == "sector"
    assert details["off_sector_norm"] <= 1e-12 * np.linalg.norm(qutrit_generator.superoperator)


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


def whole_l_steady_state(l_mat):
    """rho, null dimension and residual from one SVD of the whole L."""
    _, svals, vh = np.linalg.svd(l_mat)
    rho = devectorize(vh[-1].conj())
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    return rho, null_dimension(svals), float(np.linalg.norm(l_mat @ vectorize(rho)))


def whole_l_states(l_mat, rho0, times):
    """Hermitized states from one eigendecomposition of the whole L."""
    evals, evecs = np.linalg.eig(l_mat)
    vecs = evecs @ (np.exp(evals[:, None] * times) * (np.linalg.inv(evecs) @ vectorize(rho0)[:, None]))
    states = vecs.T.reshape(-1, *rho0.shape).swapaxes(1, 2)
    return (states + states.conj().swapaxes(1, 2)) / 2


def dephasing_only(h, rng):
    """No rates: every population, and every coherence between degenerate
    levels that the dephasing spares, is stationary."""
    n = h.shape[0]
    a = np.diag(rng.uniform(0.5, 1.5, n))
    return build_restricted_generator(ThermoSpec(hamiltonian=h, beta=1.0, alpha=a))


MANY_STATIONARY = {
    "qubit": lambda rng: dephasing_only(presets.qubit(1.0), rng),
    "qutrit": lambda rng: dephasing_only(presets.qutrit(0.0, 1.0, 3.0), rng),
    "degenerate": lambda rng: dephasing_only(np.diag([0.0, 0.0, 1.0, 2.5]), rng),
    "hamiltonian_only": lambda rng: build_restricted_generator(ThermoSpec(hamiltonian=presets.ladder(4, 1.0), beta=1.0)),
}


@pytest.mark.parametrize("name", sorted(INPUTS) + [f"many_{k}" for k in sorted(MANY_STATIONARY)])
def test_blockwise_steady_state_matches_whole_svd(name, rng):
    gen = MANY_STATIONARY[name[5:]](rng) if name.startswith("many_") else INPUTS[name](rng)
    l_mat = gen.superoperator
    ss = steady_state(l_mat)
    rho, null_dim, _ = whole_l_steady_state(l_mat)
    assert Propagator(l_mat).route == "sector"
    assert ss.null_dimension == null_dim and ss.unique == (null_dim == 1)
    assert ss.residual <= 1e-12 * max(1.0, np.linalg.norm(l_mat))
    assert np.trace(ss.rho) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_array_equal(ss.rho, ss.rho.conj().T)
    if null_dim == 1:
        assert np.max(np.abs(ss.rho - rho)) <= 1e-10
    else:
        assert null_dim > 1 and name.startswith("many_")


UNRESTRICTED = {
    "foreign": lambda rng: foreign(4, rng).superoperator,
    "kicked": lambda rng: perturbed(restricted(presets.random_hermitian(4, rng), 1.0, rng)).superoperator,
}


@pytest.mark.parametrize("name", sorted(UNRESTRICTED))
def test_unrestricted_bare_array_stays_dense(name, rng):
    l_mat = UNRESTRICTED[name](rng)
    prop = Propagator(l_mat)
    assert prop.route == "dense" and prop.off_sector_norm > 1e-9
    rho0 = presets.random_density_matrix(4, rng)
    times = np.linspace(0.0, 5.0, 7)
    states = propagate(l_mat, rho0, times).states
    ss = steady_state(l_mat)
    rho, null_dim, residual = whole_l_steady_state(l_mat)
    if name == "kicked":
        # the kick does not preserve Hermiticity: the complex path, to the bit
        assert prop.arithmetic == "complex"
        np.testing.assert_array_equal(prop.eigenvalues, np.linalg.eig(l_mat)[0])
        np.testing.assert_array_equal(states, whole_l_states(l_mat, rho0, times))
        np.testing.assert_array_equal(ss.rho, rho)
        assert (ss.null_dimension, ss.residual) == (null_dim, residual)
    else:
        # a GKLS generator preserves Hermiticity: real arithmetic, within
        # 1e-12 of the complex whole-L oracle
        bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
        assert prop.arithmetic == "real"
        assert paired_distance(prop.eigenvalues, np.linalg.eig(l_mat)[0]) <= bound
        assert np.max(np.abs(states - whole_l_states(l_mat, rho0, times))) <= bound
        assert np.max(np.abs(ss.rho - rho)) <= bound
        assert ss.null_dimension == null_dim and ss.residual <= bound


def test_jordan_arrays_stay_dense():
    # 2x2 is no N^2 x N^2 superoperator; the 4x4 block's own Hamiltonian
    # part does not block-diagonalize it
    for n2 in (2, 4):
        l_mat = np.zeros((n2, n2), dtype=complex)
        l_mat[0, 1] = 1.0
        prop = Propagator(l_mat)
        assert prop.route == "dense" and not prop.diagonalizable
        assert prop.arithmetic == "complex"
        assert (prop.off_sector_norm is None) == (n2 == 2)
        np.testing.assert_array_equal(prop.eigenvalues, np.linalg.eig(l_mat)[0])
        np.testing.assert_array_equal(prop(0.7), expm(l_mat * 0.7))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_bare_array_is_not_split(bad):
    l_mat = np.zeros((4, 4), dtype=complex)
    l_mat[0, 1] = bad
    sectors = Propagator._build(l_mat)
    assert sectors.route == "dense" and sectors.off_sector_norm is None
    assert sectors.arithmetic == "complex"
    with pytest.raises(np.linalg.LinAlgError):
        Propagator(l_mat)
    assert check_spectral(l_mat).details["inconclusive"]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_off_sector_perturbation_takes_dense_route(n, rng):
    gen = perturbed(restricted(presets.random_hermitian(n, rng), 1.0, rng))
    report = run_standard_checks(gen)
    assert not report.get("commutation").passed  # the kick breaks the restriction
    assert Propagator(gen.superoperator, gen.basis).arithmetic == "complex"  # and Hermiticity
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
    frame = prop.frame
    omegas = (energies[:, None] - energies[None, :]).ravel(order="F")
    coherences = ~np.eye(5, dtype=bool).ravel(order="F")
    assert np.allclose(frame.diagonal().imag[coherences], -omegas[coherences], atol=1e-8)
    vectors = gen.basis.spectrum.vectors
    op = np.outer(vectors[:, 1], vectors[:, 3].conj())
    image = gen.superoperator @ vectorize(op)
    frame_image = np.kron(vectors.conj(), vectors).conj().T @ image
    assert np.allclose(frame_image, frame[:, 1 + 5 * 3], atol=1e-12)


# -- check_cptp against the loop that assembled every map ---------------------


def assembled_cptp_details(prop, times):
    """Choi minima and trace defects from the loop check_cptp ran before it
    gathered Choi blocks: the N^2 x N^2 frame map at each time, its whole
    Choi matrix, and one eigvalsh per block size and time."""
    eye_vec = vectorize(np.eye(int(round(np.sqrt(prop.superoperator.shape[0])))))
    min_eigs, tp_defects = [], []
    for t in times:
        if prop.diagonalizable:
            stacks = [
                prop._part(evecs * np.exp(evals * t)[:, None, :]) @ inv
                for (evals, evecs), inv in zip(prop._eig, prop._inv)
            ]
        else:
            stacks = [expm(block * t) for block in prop._blocks]
        lam = prop.assemble(stacks)
        if prop.arithmetic == "real":  # exp(R t), back in the standard frame: T exp(R t) T^dag
            lam = prop.to_standard(prop.to_standard(lam).conj().T).conj().T
        choi = choi_matrix(lam)
        choi = (choi + choi.conj().T) / 2
        min_eigs.append(min(float(np.linalg.eigvalsh(b).min()) for b in prop.blocks(choi)))
        tp_defects.append(float(np.linalg.norm(lam.conj().T @ eye_vec - eye_vec)))
    return min_eigs, tp_defects


def near_defective_sector_propagator():
    """A sector-route L whose 2x2 block at Bohr frequency E_2 - E_0 is a
    Jordan block: cond is infinite, so every block takes expm."""
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    basis = eigenoperator_basis(h)
    frame = np.diag(-np.arange(1.0, 10.0)).astype(complex)
    frame[2, 5], frame[5, 5] = 1.0, frame[2, 2]
    u = np.kron(basis.spectrum.vectors.conj(), basis.spectrum.vectors)
    return Propagator(u @ frame @ u.conj().T, basis)


def with_basis(name):
    def make(rng):
        gen = INPUTS[name](rng)
        return Propagator(gen.superoperator, gen.basis)

    return make


CPTP_ROUTES = {
    "sector_ladder8": (with_basis("ladder8"), CPTP_TIME_GRID),
    "sector_random8": (with_basis("random8"), CPTP_TIME_GRID),
    "sector_bare_qutrit": (lambda rng: Propagator(INPUTS["qutrit"](rng).superoperator), CPTP_TIME_GRID),
    "dense_foreign": (lambda rng: Propagator(foreign(4, rng).superoperator), CPTP_TIME_GRID),
    "dense_kicked": (lambda rng: Propagator(UNRESTRICTED["kicked"](rng)), CPTP_TIME_GRID),
    "expm_sector": (lambda rng: near_defective_sector_propagator(), CPTP_TIME_GRID),
    "expm_dense": (lambda rng: Propagator(np.diag([0.0, 0.0, 0.0, -1.0]) + np.eye(4, k=1)), CPTP_TIME_GRID),
    "n1": (with_basis("n1"), CPTP_TIME_GRID),
    "beta0": (with_basis("beta0"), CPTP_TIME_GRID),
    "degenerate": (with_basis("degenerate"), CPTP_TIME_GRID),
    "one_time": (with_basis("ladder5"), (0.3,)),
    "time_zero": (with_basis("random4"), (0.0,)),
}


@pytest.mark.parametrize("name", sorted(CPTP_ROUTES))
def test_gathered_choi_blocks_match_assembled_maps(name, rng):
    make, times = CPTP_ROUTES[name]
    prop = make(rng)
    assert prop.diagonalizable == (not name.startswith("expm"))
    assert prop.route == ("dense" if name.startswith(("dense", "expm_dense")) else "sector")
    result = check_cptp(prop, times=times)
    min_eigs, tp_defects = assembled_cptp_details(prop, times)
    assert result.details["choi_eigenvalues_by_time"] == min_eigs
    assert result.details["min_choi_eigenvalue"] == min(min_eigs)
    assert np.max(np.abs(np.subtract(result.details["trace_defects_by_time"], tp_defects))) <= 1e-15


def test_sector_cptp_makes_one_eigvalsh_per_block_size(monkeypatch, rng):
    prop = with_basis("ladder4")(rng)
    assert prop.route == "sector"
    sizes = [idx.shape for idx in prop.indices]
    assert len(sizes) > 1
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(matrix):
        calls.append(np.shape(matrix))
        return eigvalsh(matrix)

    def forbidden(*args):
        raise AssertionError("the sector route forms an N^2 x N^2 map")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr("thermolindblad.validator.choi_matrix", forbidden)
    monkeypatch.setattr(Propagator, "_frame_map", forbidden)
    monkeypatch.setattr(Propagator, "assemble", forbidden)
    result = check_cptp(prop)
    t = len(CPTP_TIME_GRID)
    assert calls == [(t * k, s, s) for k, s in sizes]
    assert result.passed


# -- real arithmetic on the dense route ----------------------------------------


def hermitian_basis_matrix(n):
    """The unitary T of the Hermitian operator basis as a dense matrix, from
    its definition: column k = a + N b is vec of E_aa (a = b),
    (E_ab + E_ba)/sqrt2 (a < b) or i(E_ba - E_ab)/sqrt2 (a > b)."""
    t = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            op = np.zeros((n, n), dtype=complex)
            if a == b:
                op[a, a] = 1.0
            elif a < b:
                op[a, b] = op[b, a] = np.sqrt(0.5)
            else:
                op[b, a], op[a, b] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
            t[:, a + n * b] = vectorize(op)
    return t


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hermitian_coords_match_dense_basis(n, rng):
    t = hermitian_basis_matrix(n)
    assert np.max(np.abs(t.conj().T @ t - np.eye(n * n))) <= 1e-15
    x = rng.normal(size=(n * n, 3)) + 1j * rng.normal(size=(n * n, 3))
    assert np.max(np.abs(_hermitian_coords(x) - t.conj().T @ x)) <= 1e-14
    assert np.max(np.abs(_hermitian_coords(x, inverse=True) - t @ x)) <= 1e-14
    m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    # rows, then the rows of the adjoint: T^dag M T, as Propagator._build forms it
    conjugated = _hermitian_coords(_hermitian_coords(m.conj().T).conj().T)
    assert np.max(np.abs(conjugated - t.conj().T @ m @ t)) <= 1e-14 * n * n
    # a Hermitian X has real coordinates, and real coordinates give a Hermitian X, exactly
    h = presets.random_hermitian(n, rng)
    coords = _hermitian_coords(vectorize(h))
    assert not coords.imag.any()
    back = devectorize(_hermitian_coords(coords.real, inverse=True))
    np.testing.assert_array_equal(back, back.conj().T)
    assert np.max(np.abs(back - h)) <= 1e-14 * max(1.0, np.linalg.norm(h))


def complex_path(monkeypatch):
    """Make every route measurement fail, so that L is decomposed whole and
    complex, as the dense route did before it had a real arithmetic; the
    kept splits of bare arrays were measured before, so they go too."""
    monkeypatch.setattr(dynamics, "_ROUTE_BOUND", -1.0)
    dynamics._kept.clear()


def verdicts(gen, with_basis):
    """All six verdicts of the battery, or the three routed checks of the bare array."""
    if with_basis:
        return [c.passed for c in run_standard_checks(gen).checks]
    return [c.passed for c in dense_checks(gen).values()]


@pytest.mark.parametrize("with_basis", [True, False], ids=["basis", "bare"])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
def test_real_dense_route_matches_complex_oracle(n, with_basis, rng, monkeypatch):
    gen = foreign(n, rng)
    l_mat = gen.superoperator
    target = gen if with_basis else l_mat
    bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
    prop = Propagator(l_mat, gen.basis if with_basis else None)
    # N = 1 is one sector; at N > 1 the random jumps mix every sector
    assert (prop.route, prop.arithmetic) == (("sector", "complex") if n == 1 else ("dense", "real"))
    evals, evecs = np.linalg.eig(l_mat)
    assert paired_distance(prop.eigenvalues, evals) <= bound
    assert abs(prop.condition_number - np.linalg.cond(evecs)) <= 1e-12 * np.linalg.cond(evecs)
    assert np.max(np.abs(prop(0.7) - expm(l_mat * 0.7))) <= bound

    rho0 = presets.random_density_matrix(n, rng)
    times = np.linspace(0.0, 30.0, 16)
    traj = propagate(target, rho0, times)
    assert np.max(np.abs(traj.states - dense_states(l_mat, rho0, times))) <= bound
    if prop.arithmetic == "real":
        assert not traj.hermitization_defects.any()

    ss = steady_state(target)
    rho, null_dim, _ = whole_l_steady_state(l_mat)
    assert ss.null_dimension == null_dim
    assert np.max(np.abs(ss.rho - rho)) <= bound

    cptp, expected = check_cptp(target), dense_cptp_details(l_mat)
    for key in ("choi_eigenvalues_by_time", "trace_defects_by_time"):
        assert np.max(np.abs(np.subtract(cptp.details[key], expected[key]))) <= bound

    real_verdicts = verdicts(gen, with_basis)
    complex_path(monkeypatch)
    assert Propagator(l_mat).arithmetic == "complex"
    assert verdicts(gen, with_basis) == real_verdicts


def near_defective_hermiticity_preserving(n, rng, delta=1e-10):
    """T R T^dag for a real R = S J S^-1 whose J has the eigenvalues -1 and
    -1 - delta in one 2x2 block: Hermiticity preserving, eigenvector cond
    about 1/delta."""
    j = np.diag(-np.linspace(1.0, 3.0, n * n))
    j[0, 1], j[1, 1] = 1.0, -1.0 - delta
    s = rng.normal(size=(n * n, n * n))
    t = hermitian_basis_matrix(n)
    return t @ (s @ j @ np.linalg.inv(s)) @ t.conj().T


def test_near_defective_hermiticity_preserving_input_takes_real_expm_route(rng, monkeypatch):
    l_mat = near_defective_hermiticity_preserving(3, rng)
    bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
    prop = Propagator(l_mat)
    assert (prop.route, prop.arithmetic, prop.diagonalizable) == ("dense", "real", False)
    assert np.linalg.cond(np.linalg.eig(l_mat)[1]) >= 1e8
    assert np.max(np.abs(prop(0.7) - expm(l_mat * 0.7))) <= bound
    rho0 = presets.random_density_matrix(3, rng)
    times = np.linspace(0.0, 5.0, 6)
    traj = propagate(l_mat, rho0, times)
    assert np.max(np.abs(traj.states - dense_states(l_mat, rho0, times))) <= bound
    assert not traj.hermitization_defects.any()
    cptp, expected = check_cptp(l_mat), dense_cptp_details(l_mat)
    for key in ("choi_eigenvalues_by_time", "trace_defects_by_time"):
        assert np.max(np.abs(np.subtract(cptp.details[key], expected[key]))) <= bound
    spectral = check_spectral(l_mat)
    real_verdicts = [spectral.passed, spectral.details["near_defective"], cptp.passed]
    complex_path(monkeypatch)
    spectral = check_spectral(l_mat)
    assert [spectral.passed, spectral.details["near_defective"], check_cptp(l_mat).passed] == real_verdicts


# -- one energy frame per audit --------------------------------------------------


FRAME_INPUTS = {
    "random8": INPUTS["random8"],
    "ladder8": INPUTS["ladder8"],
    "n1": INPUTS["n1"],
    "foreign": lambda rng: foreign(4, rng),
    "kicked": lambda rng: perturbed(restricted(presets.random_hermitian(4, rng), 1.0, rng)),
}


@pytest.mark.parametrize("name", sorted(FRAME_INPUTS))
def test_audit_forms_one_energy_frame(name, rng, monkeypatch):
    gen = FRAME_INPUTS[name](rng)
    calls = []

    def counted(fname, original):
        def wrapper(*args):
            calls.append(fname)
            return original(*args)

        return wrapper

    # the validator may import any of them; one frame is one _conjugated call
    for module in (liouville, dynamics, validator):
        for fname in ("_to_frame", "_conjugated"):
            if hasattr(module, fname):
                monkeypatch.setattr(module, fname, counted(fname, getattr(module, fname)))
    report = run_standard_checks(gen)
    assert report.get("spectral").details["route"] == ("dense" if name in ("foreign", "kicked") else "sector")
    assert sorted(calls) == ["_conjugated"]


def degenerate_mixing_generator(rng):
    # the two transitions at frequency 1 are mixed, so the split depends on
    # the basis chosen in the degenerate eigenspace of H = diag(0, 1, 1)
    return restricted(np.diag([0.0, 1.0, 1.0]), 0.8, rng, mixing={1.0: presets.random_unitary(2, rng)})


def basis_matrix(superop, ops):
    """B^dag M B, where column k of B is vectorize(ops[k]): entry (i, j) is tr(ops[i]^dag M[ops[j]])."""
    b = np.stack([vectorize(op) for op in ops], axis=1)
    return b.conj().T @ superop @ b


RESPLIT = {
    # no basis: the frame of L's own Hamiltonian part
    "bare": lambda gen, rng: Propagator(gen.superoperator),
    # an equal basis object that is not the one passed to the checks
    "twin": lambda gen, rng: Propagator(gen.superoperator, eigenoperator_basis(gen.hamiltonian)),
    # the frame of an unrelated Hamiltonian
    "other": lambda gen, rng: Propagator(gen.superoperator, eigenoperator_basis(presets.random_hermitian(3, rng))),
}


@pytest.mark.parametrize("split", sorted(RESPLIT))
def test_propagator_split_elsewhere_is_resplit_in_the_basis(split, rng, monkeypatch):
    gen = degenerate_mixing_generator(rng)
    prop = RESPLIT[split](gen, rng)
    basis, l_mat = gen.basis, gen.superoperator
    scale = max(1.0, np.linalg.norm(l_mat))
    expected = Propagator._build(l_mat, basis)
    splits = count_splits(monkeypatch)
    spectral = check_spectral(prop, basis)
    support = check_structure_support(prop, basis)
    # one split in basis, kept for L's copy: the second check reads it
    assert len(splits) == 1 and splits[0] is basis

    block = basis_matrix(l_mat, basis.projectors)
    distance = np.abs(spectral.details["population_eigenvalues"][:, None] - np.linalg.eigvals(block)[None, :])
    assert max(distance.min(axis=0).max(), distance.min(axis=1).max()) <= 1e-12 * scale
    assert spectral.details["off_sector_norm"] == expected.off_sector_norm
    assert support.defect == expected.off_sector_norm
    allowed = basis.sector_labels[:, None] == basis.sector_labels[None, :]
    assert support.details["on_support_norm"] == np.linalg.norm(expected.energy_frame[allowed])


def test_propagator_split_in_the_basis_is_reused(rng, monkeypatch):
    gen = degenerate_mixing_generator(rng)
    prop = Propagator(gen.superoperator, gen.basis)

    def forbidden(*args):
        raise AssertionError("the split was made again")

    monkeypatch.setattr(Propagator, "_build", forbidden)
    monkeypatch.setattr(Propagator, "__new__", forbidden)
    for basis in (gen.basis, None):
        spectral = check_spectral(prop, basis)
        assert spectral.details["off_sector_norm"] == prop.off_sector_norm
    assert check_structure_support(prop, gen.basis).defect == prop.off_sector_norm


# -- one split per bare array ----------------------------------------------------


def outcomes(call, l_mat, gen, rho0):
    """What call gives for the bare array l_mat, as a flat list of values."""
    if call == "propagate":
        traj = propagate(l_mat, rho0, np.linspace(0.0, 10.0, 7))
        return [traj.states, traj.hermitization_defects]
    if call == "steady_state":
        ss = steady_state(l_mat)
        return [ss.rho, ss.unique, ss.residual, ss.null_dimension]
    if call == "fixed_point":
        result = check_fixed_point(l_mat, gen.hamiltonian, gen.beta)
    else:
        result = check_cptp(l_mat)
    return [result.passed, result.defect, *result.details.values()]


def assert_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def without_kept_split(call, l_mat, gen, rho0):
    """outcomes(...) from a fresh split; the kept entries are left as they were."""
    kept = dict(dynamics._kept)
    dynamics._kept.clear()
    try:
        return outcomes(call, l_mat, gen, rho0)
    finally:
        dynamics._kept.clear()
        dynamics._kept.update(kept)


def count_splits(monkeypatch):
    splits = []
    build = Propagator._build.__func__

    def counting(cls, l_mat, basis=None):
        splits.append(basis)
        return build(cls, l_mat, basis)

    monkeypatch.setattr(Propagator, "_build", classmethod(counting))
    return splits


CALLS = ("propagate", "steady_state", "fixed_point", "cptp")
MEMO_INPUTS = {
    "random": INPUTS["random5"],
    "ladder": INPUTS["ladder4"],
    "n1": INPUTS["n1"],
    "foreign": lambda rng: foreign(3, rng),
    "kicked": lambda rng: perturbed(restricted(presets.random_hermitian(3, rng), 1.0, rng)),
}


@pytest.mark.parametrize("name", sorted(MEMO_INPUTS))
def test_kept_split_serves_every_caller_of_the_same_array(name, rng, monkeypatch):
    gen = MEMO_INPUTS[name](rng)
    l_mat, rho0 = gen.superoperator, presets.random_density_matrix(gen.basis.n_levels, rng)
    expected = {call: without_kept_split(call, l_mat, gen, rho0) for call in CALLS}
    splits = count_splits(monkeypatch)
    dynamics._kept.clear()
    for call in CALLS:
        assert_identical(outcomes(call, l_mat, gen, rho0), expected[call])
    assert splits == [None]


def test_array_changed_in_place_is_split_again(rng, monkeypatch):
    gen = INPUTS["random4"](rng)
    l_mat, rho0 = gen.superoperator.copy(), presets.random_density_matrix(4, rng)
    splits = count_splits(monkeypatch)
    steady_state(l_mat)
    l_mat *= 2.0
    changed = outcomes("propagate", l_mat, gen, rho0)
    assert len(splits) == 2
    assert_identical(changed, without_kept_split("propagate", l_mat, gen, rho0))
    np.testing.assert_array_equal(dynamics._kept[id(l_mat)].copy, l_mat)


def test_alternating_arrays_each_give_their_own_results(rng):
    gens = [INPUTS["random4"](rng), INPUTS["ladder4"](rng)]
    rho0 = presets.random_density_matrix(4, rng)
    for gen in gens + gens + gens[::-1]:
        for call in CALLS:
            expected = without_kept_split(call, gen.superoperator, gen, rho0)
            assert_identical(outcomes(call, gen.superoperator, gen, rho0), expected)


_POOL_RNG = np.random.default_rng(7)
MEMO_POOL = [MEMO_INPUTS[name](_POOL_RNG) for name in ("random", "ladder", "foreign")]


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(CALLS), st.integers(0, len(MEMO_POOL) - 1), st.sampled_from([None, 0.5, 2.0])),
        min_size=1,
        max_size=8,
    )
)
def test_interleaved_callers_get_fresh_split_results(steps):
    # each step calls on one array of the pool, then may scale one in place
    dynamics._kept.clear()
    arrays = [gen.superoperator.copy() for gen in MEMO_POOL]
    rng = np.random.default_rng(0)
    states = [presets.random_density_matrix(gen.basis.n_levels, rng) for gen in MEMO_POOL]
    for call, k, factor in steps:
        result = outcomes(call, arrays[k], MEMO_POOL[k], states[k])
        assert_identical(result, without_kept_split(call, arrays[k], MEMO_POOL[k], states[k]))
        if factor is not None:
            arrays[k] *= factor


@pytest.mark.parametrize("name", ["random", "foreign"])
def test_kept_split_is_read_only_and_owns_its_arrays(name, rng):
    gen = MEMO_INPUTS[name](rng)
    l_mat = gen.superoperator
    steady_state(l_mat)
    steady_state(gen)
    entry = dynamics._kept[id(l_mat)]
    for kept in (entry.own, entry.framed):
        arrays = [kept.superoperator, kept.frame, kept.energy_frame, kept.labels, kept.vectors, *kept.indices]
        arrays += [array for pair in kept.singular_pairs for array in pair]
        assert (kept.route == "sector") == (name == "random")
        for array in arrays:
            if array is not None:
                assert not array.flags.writeable
                assert not np.shares_memory(array, l_mat)
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]


def test_splits_in_a_basis_are_kept_apart_from_the_own_frame_split(rng, monkeypatch):
    gen = INPUTS["random4"](rng)
    rho0 = presets.random_density_matrix(4, rng)
    propagate(gen, rho0, [1.0])
    run_standard_checks(gen)
    Propagator(gen.superoperator, gen.basis)
    entry = dynamics._kept[id(gen.superoperator)]
    assert entry.own is None and entry.framed.basis is gen.basis
    framed = entry.framed
    steady_state(gen.superoperator)
    own = entry.own
    splits = count_splits(monkeypatch)
    # the array in its basis reads the basis split, and the own-frame split stays
    assert Propagator(gen.superoperator, gen.basis) is framed
    assert Propagator(gen.superoperator) is own and own.basis is None
    assert splits == [] and list(dynamics._kept) == [id(gen.superoperator)]
    assert (entry.own, entry.framed) == (own, framed)


def test_audits_do_not_measure_hermiticity_preservation(rng):
    gen = INPUTS["random4"](rng)
    for prop in (Propagator(gen.superoperator, gen.basis), Propagator(gen.superoperator)):
        check_cptp(prop)
        check_spectral(prop)
        assert "hermiticity_defect" not in vars(prop)


def count_linalg(monkeypatch, names):
    """Record every call of the named np.linalg routines."""
    calls = []
    for name in names:
        def counting(*args, _name=name, _routine=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("name", sorted(MEMO_INPUTS))
def test_second_propagate_of_a_live_array_decomposes_nothing(name, rng, monkeypatch):
    gen = MEMO_INPUTS[name](rng)
    l_mat, rho0 = gen.superoperator, presets.random_density_matrix(gen.basis.n_levels, rng)
    first = propagate(l_mat, rho0, CPTP_TIME_GRID)
    splits, calls = count_splits(monkeypatch), count_linalg(monkeypatch, ("eig", "svd", "inv"))
    second = propagate(l_mat, rho0, CPTP_TIME_GRID)
    assert splits == [] and calls == []
    assert_identical([second.states, second.hermitization_defects], [first.states, first.hermitization_defects])


def test_interleaved_arrays_each_keep_their_decomposition(rng, monkeypatch):
    gens = [MEMO_INPUTS[name](rng) for name in ("random", "ladder", "foreign")]
    arrays = [gen.superoperator for gen in gens]
    states = [presets.random_density_matrix(gen.basis.n_levels, rng) for gen in gens]
    expected = {(call, k): without_kept_split(call, arrays[k], gens[k], states[k]) for call in CALLS for k in range(3)}
    for k in range(3):
        Propagator(arrays[k])
    splits, calls = count_splits(monkeypatch), count_linalg(monkeypatch, ("eig", "inv"))
    for call in CALLS * 2:
        for k in (0, 2, 1):
            assert_identical(outcomes(call, arrays[k], gens[k], states[k]), expected[call, k])
    assert splits == [] and calls == []
    assert sorted(dynamics._kept) == sorted(map(id, arrays))


def test_kept_entry_goes_with_its_array(rng):
    gen = INPUTS["random4"](rng)
    l_mat, rho0 = gen.superoperator.copy(), presets.random_density_matrix(4, rng)
    propagate(l_mat, rho0, [1.0])
    steady_state(l_mat)
    prop = Propagator(l_mat)
    check_spectral(l_mat)
    assert list(dynamics._kept) == [id(l_mat)]
    expected, alive = prop(1.0), weakref.ref(l_mat)
    del l_mat
    gc.collect()
    # nothing kept held the array, and the Propagator still works on its copy
    assert alive() is None and not dynamics._kept
    np.testing.assert_array_equal(prop(1.0), expected)


@pytest.mark.parametrize("name", ["random", "foreign"])
def test_kept_propagator_is_read_only_and_owns_its_arrays(name, rng):
    gen = MEMO_INPUTS[name](rng)
    l_mat = gen.superoperator
    eigenvalues = check_spectral(l_mat).details["eigenvalues"]
    prop = Propagator(l_mat)
    assert prop.eigenvalues is eigenvalues and prop is dynamics._kept[id(l_mat)].own
    assert prop.superoperator is dynamics._kept[id(l_mat)].copy
    arrays = [prop.superoperator, prop.eigenvalues, *prop._blocks, *(a for pair in prop._eig for a in pair), *prop._inv]
    # the singular values and the SVD, first read here
    arrays += [*prop.singular_values, *(array for pair in prop.singular_pairs for array in pair)]
    for array in arrays:
        assert not array.flags.writeable
        assert not np.shares_memory(array, l_mat)
        with pytest.raises(ValueError):
            array.flat[0] = array.flat[0]


def test_threads_sharing_arrays_get_fresh_results(rng):
    # live arrays and short-lived copies from more threads than cores, switching often
    gens = [MEMO_INPUTS[name](rng) for name in ("random", "ladder", "foreign")]
    states = [presets.random_density_matrix(gen.basis.n_levels, rng) for gen in gens]
    expected = [without_kept_split("propagate", gen.superoperator, gen, rho) for gen, rho in zip(gens, states)]
    errors = []

    def worker(seed):
        draw = np.random.default_rng(seed)
        try:
            for _ in range(30):
                k = int(draw.integers(len(gens)))
                l_mat = gens[k].superoperator if draw.random() < 0.5 else gens[k].superoperator.copy()
                assert_identical(outcomes("propagate", l_mat, gens[k], states[k]), expected[k])
        except Exception as exc:  # a failed comparison or a crash, reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    gc.collect()
    assert sorted(dynamics._kept) == sorted(id(gen.superoperator) for gen in gens)


def test_kept_entry_is_dropped_by_a_callback_that_reads_no_global(rng):
    # at exit the interpreter sets a module's globals to None before it frees what they held
    wiped = {name: None for name in vars(dynamics) if name != "__builtins__"}
    forget = types.FunctionType(dynamics._forget.__code__, wiped, "_forget", dynamics._forget.__defaults__)
    l_mat = INPUTS["random4"](rng).superoperator
    entry = dynamics._kept_entry(l_mat)
    forget(id(l_mat), entry.ref)
    assert not dynamics._kept


# numpy's modules are wiped after this package's at exit, so the array and
# the dynamics module held there outlive dynamics' globals and the entry's
# callback runs after they are set to None
EXIT_WITH_A_KEPT_ARRAY = """
import numpy as np
import thermolindblad as tl
spec = tl.ThermoSpec(hamiltonian=tl.presets.qutrit(0.0, 1.0, 3.0), beta=1.0, downward_rates={(0, 1): 1.0, (1, 2): 0.5})
L = tl.build_restricted_generator(spec).superoperator
tl.propagate(L, np.eye(3) / 3, [0.0, 1.0])
tl.steady_state(L)
np.kept_generator = (tl.dynamics, L)
"""


def test_exit_with_a_kept_array_writes_nothing_to_stderr():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", EXIT_WITH_A_KEPT_ARRAY], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""


# -- kept splits in a basis --------------------------------------------------------


def jordan_sector_generator():
    """The Jordan input below as an audit input: every block takes expm."""
    gen = near_defective_hermitian_sector_propagator()
    return types.SimpleNamespace(**vars(gen), hamiltonian=np.diag([0.0, 0.0, 1.0]).astype(complex), beta=1.0,
                                 jump_terms=[])


AUDIT_ROUTES = {  # route, arithmetic and diagonalizable of each input's Propagator in its basis
    "sector": (INPUTS["random5"], ("sector", "complex", True)),
    "dense_real": (lambda rng: foreign(4, rng), ("dense", "real", True)),
    "dense_complex": (lambda rng: kicked_foreign(4, rng), ("dense", "complex", True)),
    "expm": (lambda rng: jordan_sector_generator(), ("sector", "complex", False)),
}


def audit_bytes(gen):
    return emit_json(to_jsonable(run_standard_checks(gen)))


@pytest.mark.parametrize("name", sorted(AUDIT_ROUTES))
def test_second_audit_of_an_unchanged_generator_decomposes_nothing(name, rng, monkeypatch):
    make, route = AUDIT_ROUTES[name]
    gen = make(rng)
    first = audit_bytes(gen)
    prop = Propagator(gen.superoperator, gen.basis)
    assert (prop.route, prop.arithmetic, prop.diagonalizable) == route
    splits, calls = count_splits(monkeypatch), count_linalg(monkeypatch, ("eig", "svd", "inv"))
    second = audit_bytes(gen)
    assert splits == [] and calls == []
    monkeypatch.undo()
    dynamics._kept.clear()
    assert second == first == audit_bytes(gen)


@pytest.mark.parametrize("name", sorted(MEMO_INPUTS))
def test_second_steady_state_of_a_live_array_makes_no_svd(name, rng, monkeypatch):
    gen = MEMO_INPUTS[name](rng)
    for target in (gen.superoperator, gen):
        def results():
            fixed_point = check_fixed_point(target, gen.hamiltonian, gen.beta)
            return emit_json(to_jsonable([steady_state(target), fixed_point]))

        first = results()
        calls = count_linalg(monkeypatch, ("svd",))
        assert results() == first and calls == []
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["random", "foreign"])
def test_store_aliases_no_caller_array_and_leaves_them_writeable(name, rng):
    gen = MEMO_INPUTS[name](rng)
    l_mat, vectors, labels = gen.superoperator, gen.basis.spectrum.vectors, gen.basis.sector_labels
    rho0 = presets.random_density_matrix(gen.basis.n_levels, rng)
    run_standard_checks(gen)
    for target in (gen, l_mat):
        propagate(target, rho0, [0.0, 1.0])
        steady_state(target)
    entry = dynamics._kept[id(l_mat)]
    kept = [entry.copy]
    for prop in (entry.own, entry.framed):
        kept += [prop.frame, prop.energy_frame, prop.labels, prop.vectors, *prop.indices]
        kept += [*prop.singular_values, *(array for pair in prop.singular_pairs for array in pair)]
        kept += [prop.superoperator, prop.eigenvalues, *prop._blocks, *(a for pair in prop._eig for a in pair), *prop._inv]
    for caller in (l_mat, vectors, labels):
        assert caller.flags.writeable
        assert not any(np.shares_memory(caller, array) for array in kept if array is not None)


def test_array_changed_in_place_fails_the_audit_it_passed(rng, monkeypatch):
    gen = INPUTS["random4"](rng)
    assert run_standard_checks(gen).passed
    splits = count_splits(monkeypatch)
    # X -> -0.1 X is not trace preserving: the Gibbs state is no longer fixed
    gen.superoperator -= 0.1 * np.eye(16)
    changed = audit_bytes(gen)
    assert not run_standard_checks(gen).get("fixed_point").passed
    assert splits == [gen.basis]
    dynamics._kept.clear()
    assert audit_bytes(gen) == changed


def test_basis_changed_in_place_is_split_again(rng, monkeypatch):
    gen = foreign(3, rng)
    assert not run_standard_checks(gen).get("structure_support").passed
    splits = count_splits(monkeypatch)
    # one sector: no entry of L lies outside it
    gen.basis.sector_labels[:] = 0
    report = run_standard_checks(gen)
    assert report.get("structure_support").passed and report.get("spectral").details["route"] == "sector"
    gen.basis.spectrum.vectors[:, 0] *= -1
    changed = audit_bytes(gen)
    assert audit_bytes(gen) == changed
    assert splits == [gen.basis, gen.basis]
    dynamics._kept.clear()
    assert audit_bytes(gen) == changed


def test_fresh_bases_for_one_array_keep_one_basis_split(rng):
    gen = INPUTS["random4"](rng)
    l_mat = gen.superoperator
    splits = []
    for k in range(100):
        basis = eigenoperator_basis(gen.hamiltonian)
        split = Propagator(l_mat, basis) if k % 2 else dynamics._kept_propagator(l_mat, basis)
        assert split.basis is basis
        splits.append(weakref.ref(split))
    del basis, split
    gc.collect()
    alive = [ref() for ref in splits if ref() is not None]
    assert len(alive) == 1 and alive[0] is dynamics._kept[id(l_mat)].framed


def test_threads_sharing_a_generator_and_fresh_bases_get_fresh_results(rng):
    # the basis split is read and replaced from more threads than cores, switching often
    gens = [MEMO_INPUTS[name](rng) for name in ("random", "ladder", "foreign")]
    states = [presets.random_density_matrix(gen.basis.n_levels, rng) for gen in gens]

    def results(target, rho0):
        traj = propagate(target, rho0, [0.0, 1.0])
        return emit_json(to_jsonable([traj.states, steady_state(target), check_structure_support(target, target.basis)]))

    # a basis object of its own each time, of the generator's H or of another: the kept split is replaced
    hamiltonians = [(gen.hamiltonian, presets.random_hermitian(gen.basis.n_levels, rng)) for gen in gens]

    def in_basis(k, j):
        return types.SimpleNamespace(superoperator=gens[k].superoperator, basis=eigenoperator_basis(hamiltonians[k][j]))

    expected = [[results(in_basis(k, j), states[k]) for j in range(2)] for k in range(len(gens))]
    dynamics._kept.clear()
    errors = []

    def worker(seed):
        draw = np.random.default_rng(seed)
        try:
            for _ in range(30):
                k, j = int(draw.integers(len(gens))), int(draw.integers(3))
                target = gens[k] if j == 2 else in_basis(k, j)
                assert results(target, states[k]) == expected[k][j % 2]
        except Exception as exc:  # a failed comparison or a crash, reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert sorted(dynamics._kept) == sorted(id(gen.superoperator) for gen in gens)


def test_kept_entry_goes_with_its_generator(rng):
    gen = INPUTS["random4"](rng)
    rho0 = presets.random_density_matrix(4, rng)
    report = run_standard_checks(gen)
    propagate(gen, rho0, [1.0])
    steady_state(gen)
    steady_state(gen.superoperator)
    entry = dynamics._kept[id(gen.superoperator)]
    objects = (gen, gen.superoperator, gen.basis, entry.own, entry.framed)
    alive = [weakref.ref(obj) for obj in objects]
    del gen, entry, objects
    gc.collect()
    assert not dynamics._kept and all(ref() is None for ref in alive)
    assert report.passed


# -- one kept Propagator per split, decomposed when first read ---------------------


def test_propagator_of_a_live_array_is_its_kept_instance(rng):
    gen = INPUTS["random4"](rng)
    l_mat = gen.superoperator
    entry = dynamics._kept_entry(l_mat)
    assert Propagator(l_mat) is Propagator(l_mat) is entry.own
    assert Propagator(l_mat, gen.basis) is Propagator(l_mat, gen.basis) is entry.framed
    assert entry.own is not entry.framed and entry.own.basis is None and entry.framed.basis is gen.basis


@pytest.mark.parametrize("with_basis", [False, True], ids=["bare", "basis"])
def test_propagator_survives_copy_and_pickle(with_basis, rng):
    gen = INPUTS["random4"](rng)
    prop = Propagator(gen.superoperator, gen.basis if with_basis else None)
    for duplicate in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
        other = duplicate(prop)
        for name in ("route", "arithmetic", "off_sector_norm"):
            assert getattr(other, name) == getattr(prop, name)
        np.testing.assert_array_equal(other.eigenvalues, prop.eigenvalues)
        np.testing.assert_array_equal(other(0.7), prop(0.7))


@pytest.mark.parametrize("with_basis", [False, True], ids=["bare", "basis"])
@pytest.mark.parametrize("name", sorted(MEMO_INPUTS))
def test_split_is_decomposed_when_first_read(name, with_basis, rng, monkeypatch):
    gen = MEMO_INPUTS[name](rng)
    l_mat = gen.superoperator.copy()  # an array never split before
    basis = gen.basis if with_basis else None
    target = types.SimpleNamespace(superoperator=l_mat, basis=basis) if with_basis else l_mat

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.eig was called")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    steady_state(target)
    check_fixed_point(target, gen.hamiltonian, gen.beta)
    check_structure_support(target, gen.basis)
    monkeypatch.undo()
    shapes, eig = [], np.linalg.eig

    def counting(matrix):
        shapes.append(matrix.shape)
        return eig(matrix)

    monkeypatch.setattr(np.linalg, "eig", counting)
    prop = Propagator(l_mat, basis)
    entry = dynamics._kept[id(l_mat)]
    assert prop is (entry.framed if with_basis else entry.own)
    # one batched eig per block size, none for the 1x1 blocks
    expected = [block.shape for block in prop._blocks if block.shape[-1] > 1]
    assert shapes == expected
    assert Propagator(l_mat, basis) is prop and shapes == expected  # nothing is decomposed again


# -- states Hermitian by construction on the sector route -------------------------


def near_defective_hermitian_sector_propagator():
    """As near_defective_sector_propagator, with the mirror Jordan block in
    the mirror sector, so that L preserves Hermiticity and every block
    takes expm."""
    n = 3
    basis = eigenoperator_basis(np.diag([0.0, 0.0, 1.0]).astype(complex))
    swap = np.arange(n * n).reshape(n, n).T.ravel()
    frame = np.diag(-1.0 - np.minimum(np.arange(n * n), swap)).astype(complex)
    # |2><0| and |2><1| at frequency -1, |0><2| and |1><2| at +1
    frame[2, 5], frame[6, 7] = 1.0, 1.0
    frame[5, 5] = frame[6, 6] = frame[7, 7] = frame[2, 2]
    u = np.kron(basis.spectrum.vectors.conj(), basis.spectrum.vectors)
    return types.SimpleNamespace(basis=basis, superoperator=u @ frame @ u.conj().T)


HERMITIAN_SECTOR_INPUTS = {
    "random": INPUTS["random6"],
    "ladder": lambda rng: restricted(presets.ladder(5, 1.0), 0.9, rng, alpha=False),
    "mixing": INPUTS["ladder6"],
    "dephasing": lambda rng: dephasing_only(np.diag([0.0, 0.0, 1.0, 2.5]), rng),
    "n1": INPUTS["n1"],
    "beta0": INPUTS["beta0"],
    "expm": lambda rng: near_defective_hermitian_sector_propagator(),
}


@pytest.mark.parametrize(
    "name, with_basis",
    # the Jordan input has no Hamiltonian part to find its frame by
    [(name, True) for name in sorted(HERMITIAN_SECTOR_INPUTS)]
    + [(name, False) for name in sorted(HERMITIAN_SECTOR_INPUTS) if name != "expm"],
)
def test_sector_states_are_hermitian_by_construction(name, with_basis, rng):
    gen = HERMITIAN_SECTOR_INPUTS[name](rng)
    l_mat = gen.superoperator
    n = gen.basis.n_levels
    prop = Propagator(l_mat, gen.basis if with_basis else None)
    assert prop.route == "sector" and prop._preserves_hermiticity()
    assert prop.diagonalizable == (name != "expm")
    rho0 = presets.random_density_matrix(n, rng)
    times = np.linspace(0.0, 30.0, 16)
    traj = propagate(prop, rho0, times)
    np.testing.assert_array_equal(traj.states, traj.states.conj().swapaxes(1, 2))
    assert not traj.hermitization_defects.any()
    bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
    assert np.max(np.abs(traj.states - dense_states(l_mat, rho0, times))) <= bound
    assert propagate(prop, rho0, []).states.shape == (0, n, n)


def sector_breaking(n, rng):
    """A restricted generator plus X -> A X, A diagonal and complex in the
    energy basis: it keeps every Bohr-frequency sector but maps a Hermitian
    X to a non-Hermitian one."""
    gen = restricted(presets.random_hermitian(n, rng), 1.2, rng)
    vectors = gen.basis.spectrum.vectors
    a = vectors @ np.diag(0.3j * rng.normal(size=n)) @ vectors.conj().T
    return types.SimpleNamespace(basis=gen.basis, superoperator=gen.superoperator + assemble_superop("left", a))


def kicked_foreign(n, rng):
    """A foreign generator plus X -> 0.3i H X, which breaks Hermiticity: the complex dense route."""
    gen = foreign(n, rng)
    kick = assemble_superop("left", 0.3j * gen.hamiltonian)
    return types.SimpleNamespace(**{**vars(gen), "superoperator": gen.superoperator + kick})


def test_sector_l_that_breaks_hermiticity_keeps_the_pass(rng):
    gen = sector_breaking(4, rng)
    l_mat = gen.superoperator
    for prop in (Propagator(l_mat, gen.basis), Propagator(l_mat)):
        assert prop.route == "sector" and not prop._preserves_hermiticity()
        rho0 = presets.random_density_matrix(4, rng)
        times = np.linspace(0.0, 3.0, 7)
        traj = propagate(prop, rho0, times)
        vecs = expm(l_mat * times[:, None, None]) @ vectorize(rho0)
        raw = vecs.reshape(-1, 4, 4).swapaxes(1, 2)
        defects = np.linalg.norm(raw - raw.conj().swapaxes(1, 2), axis=(1, 2)) / 2
        bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
        assert defects.max() > 1e-3
        assert np.max(np.abs(traj.hermitization_defects - defects)) <= bound
        assert np.max(np.abs(traj.states - dense_states(l_mat, rho0, times))) <= bound


# -- one Hermiticity measurement per split ---------------------------------------


def test_complex_dense_split_forms_no_real_frame(rng, monkeypatch):
    gen = kicked_foreign(4, rng)
    calls = []
    coords = dynamics._hermitian_coords

    def counting_coords(*args, **kwargs):
        calls.append(args[0].shape)
        return coords(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_hermitian_coords", counting_coords)
    for basis in (gen.basis, None):
        sectors = Propagator._build(gen.superoperator, basis)
        assert calls == []
        assert (sectors.route, sectors.arithmetic) == ("dense", "complex")
        assert sectors.hermiticity_defect > 1e-3
    # a Hermiticity-preserving dense L forms R = T^dag L T with two passes
    sectors = Propagator._build(foreign(4, rng).superoperator)
    assert sectors.arithmetic == "real" and len(calls) == 2


@pytest.mark.parametrize("with_basis", [True, False], ids=["basis", "bare"])
def test_propagate_measures_a_sector_split_once(with_basis, rng, monkeypatch):
    gen = INPUTS["random4"](rng)
    l_mat = gen.superoperator
    prop = Propagator(l_mat, gen.basis if with_basis else None)
    target = prop if with_basis else l_mat
    rho0 = presets.random_density_matrix(4, rng)
    assert prop.route == "sector" and "hermiticity_defect" not in vars(prop)
    first = propagate(target, rho0, [0.0, 1.0])
    assert vars(prop)["hermiticity_defect"] <= 1e-12 * max(1.0, np.linalg.norm(l_mat))

    def forbidden(*args):
        raise AssertionError("Hermiticity preservation measured again")

    monkeypatch.setattr(dynamics, "_hermitian_pairs", forbidden)
    second = propagate(target, rho0, [0.0, 1.0])
    np.testing.assert_array_equal(second.states, first.states)


HERMITICITY_FAMILIES = {
    "restricted": lambda n, rng: restricted(presets.random_hermitian(n, rng), 1.2, rng),
    "foreign": foreign,
    "kicked_foreign": kicked_foreign,
    "sector_breaking": sector_breaking,
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(HERMITICITY_FAMILIES)),
    n=st.integers(1, 6),
    with_basis=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermiticity_decision_and_state_contract(name, n, with_basis, seed):
    dynamics._kept.clear()
    rng = np.random.default_rng(seed)
    gen = HERMITICITY_FAMILIES[name](n, rng)
    l_mat = gen.superoperator
    bound = 1e-12 * max(1.0, np.linalg.norm(l_mat))
    t = hermitian_basis_matrix(n)
    preserves = np.linalg.norm((t.conj().T @ l_mat @ t).imag) <= bound
    prop = Propagator(l_mat, gen.basis if with_basis else None)
    if name == "restricted":
        assert prop.route == "sector"
    elif name == "foreign" and n > 1:
        assert (prop.route, prop.arithmetic) == ("dense", "real")
    assert prop._preserves_hermiticity() == preserves
    if prop.route == "dense":
        assert (prop.arithmetic == "real") == preserves

    rho0 = presets.random_density_matrix(n, rng)
    times = np.linspace(0.0, 5.0, 6)
    traj = propagate(prop, rho0, times)
    vecs = expm(l_mat * times[:, None, None]) @ vectorize(rho0)
    raw = vecs.reshape(-1, n, n).swapaxes(1, 2)
    if preserves:
        np.testing.assert_array_equal(traj.states, traj.states.conj().swapaxes(1, 2))
        assert not traj.hermitization_defects.any()
    else:
        defects = np.linalg.norm(raw - raw.conj().swapaxes(1, 2), axis=(1, 2)) / 2
        assert np.max(np.abs(traj.hermitization_defects - defects)) <= bound
    assert np.max(np.abs(traj.states - (raw + raw.conj().swapaxes(1, 2)) / 2)) <= bound
