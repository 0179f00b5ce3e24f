"""One rule per numerical decision: the fixed tolerances, the one Hermiticity
test every input operator goes through, and the degeneracy tolerance's
admissible values."""
import inspect
import math

import numpy as np
import pytest

from thermolindblad import (
    CompositeModel,
    ThermoSpec,
    build_restricted_generator,
    build_strict_coupling,
    build_transport_model,
    contour_coefficient,
    dephasing_from_alpha,
    eigenoperator_basis,
    presets,
    relative_entropy,
    run_standard_checks,
    steady_state,
    tau_expansion,
)
from thermolindblad.config import PhysicsError, parse_matrix
from thermolindblad.dynamics import check_density_matrix, null_dimension
from thermolindblad.liouville import hermitian_operator

# each function and the tolerance argument it no longer takes
FIXED_TOLERANCES = [
    (check_density_matrix, "tol"),
    (null_dimension, "rel_tol"),
    (steady_state, "null_tol"),
    (relative_entropy, "support_cutoff"),
    (build_transport_model, "degeneracy_tol"),
    (build_strict_coupling, "degeneracy_tol"),
    (contour_coefficient, "radius"),
    (tau_expansion, "contour_radius"),
    (run_standard_checks, "times"),
    (parse_matrix, "hermitian"),
]


@pytest.mark.parametrize("fn, name", FIXED_TOLERANCES, ids=[f"{f.__name__}-{n}" for f, n in FIXED_TOLERANCES])
def test_fixed_tolerance_is_not_a_parameter(fn, name):
    assert name not in inspect.signature(fn).parameters


# -- one Hermiticity test ----------------------------------------------------

NORMS = [1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6, 1e8]


def rotated(eigenvalues, q):
    """q diag(eigenvalues) q^dag, Hermitian only to rounding."""
    return q @ np.diag(eigenvalues) @ q.conj().T


def hermitian_at_norm(norm, rng, n=3):
    h = rotated(rng.uniform(-1.0, 1.0, n), presets.random_unitary(n, rng))
    return h * (norm / np.linalg.norm(h))


def psd_alpha_at_norm(norm, rng, n=3):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    alpha = rotated(rng.uniform(0.0, 1.0, n), q).real
    return alpha * (norm / np.linalg.norm(alpha))


def perturbed(a, skew):
    """a plus skew scaled to 1e-8 ||a||_F: a relative Hermiticity defect of
    2e-8, far above the 1e-12 bound at every norm."""
    return a + 1e-8 * np.linalg.norm(a) * skew / np.linalg.norm(skew)


def literal(a):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(a, dtype=complex)]


def composite_with_system(h):
    n = h.shape[0]
    qubit = presets.qubit(1.0)
    return CompositeModel(h, qubit, np.zeros((2 * n, 2 * n)), np.eye(2) / 2)


@pytest.mark.parametrize("norm", NORMS)
def test_every_entry_point_accepts_rounded_hermitian_inputs(norm, rng):
    h = hermitian_at_norm(norm, rng)
    assert np.linalg.norm(h - h.conj().T) > 0  # Hermitian only to rounding
    assert eigenoperator_basis(h).n_levels == 3
    assert composite_with_system(h).n_sys == 3
    assert np.array_equal(parse_matrix(literal(h), "m"), h)
    alpha = psd_alpha_at_norm(norm, rng)
    projectors = eigenoperator_basis(presets.qutrit()).projectors
    assert len(dephasing_from_alpha(alpha, projectors)) == 3
    assert np.array_equal(parse_matrix(literal(alpha), "alpha"), alpha)


@pytest.mark.parametrize("norm", NORMS)
def test_every_entry_point_rejects_a_relative_defect_of_1e_8(norm, rng):
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = perturbed(hermitian_at_norm(norm, rng), 1j * (b + b.conj().T))  # i times Hermitian
    with pytest.raises(ValueError, match="hamiltonian is not Hermitian"):
        eigenoperator_basis(h)
    with pytest.raises(ValueError, match="system_hamiltonian is not Hermitian"):
        composite_with_system(h)
    with pytest.raises(PhysicsError, match="m: matrix literal is not Hermitian"):
        parse_matrix(literal(h), "m")
    alpha = perturbed(psd_alpha_at_norm(norm, rng), b.real - b.real.T)
    projectors = eigenoperator_basis(presets.qutrit()).projectors
    with pytest.raises(ValueError, match="alpha is not Hermitian"):
        dephasing_from_alpha(alpha, projectors)
    with pytest.raises(PhysicsError, match="alpha: matrix literal is not Hermitian"):
        parse_matrix(literal(alpha), "alpha")


def test_large_norm_witness_builds_everywhere():
    # a relative defect of 1.4e-16 that an absolute 1e-12 bound rejected
    u = presets.random_unitary(6, np.random.default_rng(0))
    h = u @ np.diag(1e5 * np.linspace(-1, 1, 6)) @ u.conj().T
    assert np.linalg.norm(h - h.conj().T) > 1e-12
    gen = build_restricted_generator(ThermoSpec(h, beta=1.0, downward_rates={(0, 1): 1.0}))
    assert gen.dim == 6
    assert composite_with_system(h).n_sys == 6


def test_hermitian_operator_names_the_input_and_fails_on_nan():
    with pytest.raises(ValueError, match="coupling is not Hermitian"):
        hermitian_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), "coupling")
    with pytest.raises(ValueError, match="h is not Hermitian"):
        hermitian_operator(np.array([[math.nan, 0.0], [0.0, 1.0]]), "h")
    with pytest.raises(ValueError, match="square"):
        hermitian_operator(np.zeros((2, 3)), "h")
    out = hermitian_operator([[1, 0], [0, 2]])
    assert out.dtype == complex and out.shape == (2, 2)


# -- the degeneracy tolerance ------------------------------------------------


def qutrit_spec(degeneracy_tol):
    return ThermoSpec(
        presets.qutrit(),
        beta=1.0,
        downward_rates={(0, 1): 1.0, (1, 2): 0.5},
        degeneracy_tol=degeneracy_tol,
    )


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_inadmissible_degeneracy_tol_is_rejected(tol):
    with pytest.raises(ValueError, match="degeneracy_tol"):
        eigenoperator_basis(presets.qutrit(), degeneracy_tol=tol)
    with pytest.raises(ValueError, match="degeneracy_tol"):
        build_restricted_generator(qutrit_spec(tol))


@pytest.mark.parametrize("tol", [0.0, None])
def test_zero_and_default_degeneracy_tol_build(tol):
    gen = build_restricted_generator(qutrit_spec(tol))
    # populations share the zero label; each coherence has its own frequency
    assert len(set(gen.basis.sector_labels.tolist())) == 7
    assert run_standard_checks(gen).passed
