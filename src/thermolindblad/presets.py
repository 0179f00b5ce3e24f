"""Stock operators, Hamiltonian presets, and thermal states.

Level 0 is the ground state in every preset: qubit(omega) is
diag(-omega/2, +omega/2), so the lowering operator is |0><1|.
"""
from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1| in energy order


def qubit(omega=1.0):
    """Two-level system with splitting omega, ground state at index 0."""
    return np.diag([-omega / 2, omega / 2]).astype(complex)


def qutrit(e0=0.0, e1=1.0, e2=3.0):
    return np.diag([float(e0), float(e1), float(e2)]).astype(complex)


def ladder(n, spacing=1.0):
    """Equally spaced n-level ladder diag(0, spacing, 2*spacing, ...)."""
    return np.diag(spacing * np.arange(n, dtype=float)).astype(complex)


def coupled_qubits(omega_1=1.0, omega_2=1.0, g=0.2):
    """Two qubits with an exchange-breaking sigma_x sigma_x coupling.

    H = (omega_1/2) sz(1) + (omega_2/2) sz(2) + g sx sx, written so that
    |00> is the bare ground state.
    """
    sz_ground_first = -SIGMA_Z  # diag(-1, +1)
    eye = np.eye(2)
    h = 0.5 * omega_1 * np.kron(sz_ground_first, eye)
    h += 0.5 * omega_2 * np.kron(eye, sz_ground_first)
    h += g * np.kron(SIGMA_X, SIGMA_X)
    return h.astype(complex)


def thermal_state(hamiltonian, beta):
    """Gibbs state exp(-beta H)/Z, computed stably in the eigenbasis."""
    h = np.asarray(hamiltonian, dtype=complex)
    if not 0 <= beta < np.inf:
        raise ValueError(f"inverse temperature must be finite and nonnegative, got {beta}")
    energies, vectors = np.linalg.eigh(h)
    weights = np.exp(-beta * (energies - energies.min()))
    weights /= weights.sum()
    return (vectors * weights) @ vectors.conj().T


def random_hermitian(n, rng, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def random_density_matrix(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def adjacency_coupling(n_sys, n_env, strength=1.0):
    """Nearest-level exchange coupling X_S kron X_E with X = sum |i><i+1| + h.c.

    Generically breaks strict energy conservation; for two qubits it
    reduces to strength * sigma_x kron sigma_x.
    """

    def shift(n):
        x = np.zeros((n, n), dtype=complex)
        for i in range(n - 1):
            x[i, i + 1] = 1.0
            x[i + 1, i] = 1.0
        return x

    return strength * np.kron(shift(n_sys), shift(n_env))
