"""Propagation, stationary states, entropy production, and heat transport."""
from __future__ import annotations

import functools
import logging
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .generator import ThermoSpec, _build_restricted_generator, kms_rates
from .liouville import (
    _as_square,
    _conjugated,
    _energy_frame,
    _hermitian_coords,
    _hermitian_pairs,
    _label_groups,
    _to_frame,
    devectorize,
    eigenoperator_basis,
    vectorize,
)

log = logging.getLogger(__name__)

_DIAGONALIZABLE_COND = 1e8
# Relative singular-value level at or below which a direction counts as null
NULL_TOL = 1e-10
STATE_TOL = 1e-10  # bound on each defect check_density_matrix allows a state
SUPPORT_CUTOFF = 1e-12  # eigenvalues at or below it lie outside a reference state's support
# Largest measured defect, relative to max(1, ||L||_F), at which L counts as
# block diagonal by Bohr frequency (its off-sector norm; restricted
# generators measure below 1.9e-16 * N * ||L||_F) or as Hermiticity
# preserving (its hermiticity_defect, see _Sectors).
_ROUTE_BOUND = 1e-12


class _Sectors:
    """A superoperator L split into the blocks the audit and Propagator work on.

    L is taken to the energy frame U^dag L U, U = kron(conj(V), V), whose
    index a + N b is |a><b|, and split by Bohr-frequency labels.  The frame
    V and the labels come from the basis when one is given (its
    sector_labels), else from L's own Hamiltonian part (see
    _hamiltonian_part), through the same clustering at the default
    degeneracy_tol.  When the norm of everything between different labels
    (off_sector_norm) is at most _ROUTE_BOUND * max(1, ||L||_F), and the
    labels also split the Choi matrix (index i + N k of a Choi matrix
    carries E_k - E_i), the route is "sector": the diagonal blocks are kept
    and the rest is dropped.  Otherwise the route is "dense", L as one
    block, and the arithmetic is "real" when L measurably preserves
    Hermiticity (see hermiticity_defect), with the real R = T^dag L T of
    the Hermitian operator basis T (see liouville._hermitian_coords) as the
    frame; else "complex", with L itself as the frame.  The sector route
    measures Hermiticity preservation only when asked (propagate does, an
    audit never).  Without a basis, an L that is not finite or whose size
    is not a perfect square is not measured: dense and complex.  indices
    holds one (K, s) array of frame indices per block size s.  basis is the
    basis passed, whose vectors and labels are copied, so no split aliases
    them; vectors (V), labels and energy_frame = U^dag L U are kept on
    every route that was measured.  superoperator is L itself.  The
    singular values of the frame blocks, and their SVD with vectors, are
    computed when first read and kept (see _block_svd).
    """

    def __init__(self, l_mat, basis=None):
        n2 = l_mat.shape[0]
        self.superoperator = l_mat
        self.route, self.arithmetic, self.vectors, self.off_sector_norm = "dense", "complex", None, None
        self.frame, self.indices = l_mat, [np.arange(n2)[None]]
        self.basis, self.labels, self.energy_frame = basis, None, None
        if basis is not None:
            if l_mat.shape != (basis.n_levels**2,) * 2:
                raise ValueError(f"basis has {basis.n_levels} levels, superoperator is {l_mat.shape}")
            n, vectors, labels = basis.n_levels, basis.spectrum.vectors.copy(), basis.sector_labels.copy()
        else:
            n = math.isqrt(n2)
            if n == 0 or n * n != n2 or not np.isfinite(l_mat).all():
                return
            spectrum, labels = _energy_frame(_hamiltonian_part(l_mat, n))
            vectors = spectrum.vectors
        self._bound = _ROUTE_BOUND * max(1.0, np.linalg.norm(l_mat))
        frame = _conjugated(l_mat, vectors)
        self.vectors, self.labels, self.energy_frame = vectors, labels, frame
        self.off_sector_norm = float(np.linalg.norm(frame[labels[:, None] != labels[None, :]]))
        if self.off_sector_norm <= self._bound and _choi_closed(labels, n):
            groups = _label_groups(labels)
            sizes = sorted({len(g) for g in groups})
            self.indices = [np.array([g for g in groups if len(g) == s]) for s in sizes]
            self.route, self.frame = "sector", frame
        elif self._preserves_hermiticity():
            real = _hermitian_coords(_hermitian_coords(l_mat.conj().T).conj().T)  # T^dag L T
            self.arithmetic, self.frame = "real", real.real

    @functools.cached_property
    def hermiticity_defect(self):
        """1/2 ||L - P conj(L) P||_F = ||Im T^dag L T||_F, P the swap a + N b
        <-> b + N a (vec(X^dag) = P conj(vec X)); measured when first read."""
        l_mat = self.superoperator
        _, _, swap = _hermitian_pairs(math.isqrt(l_mat.shape[0]), False)
        return float(np.linalg.norm(l_mat - l_mat.conj()[swap[:, None], swap[None, :]])) / 2

    @functools.cached_property
    def singular_values(self):
        """The singular values of each frame block stack, (K, s) per size."""
        values = [_block_svd(block) for block in self.blocks(self.frame)]
        _read_only(*values)
        return values

    @functools.cached_property
    def singular_pairs(self):
        """(s, vh) of each frame block stack, from its SVD with vectors: kept
        apart from singular_values, whose LAPACK mode gives other bits."""
        pairs = [_block_svd(block, vectors=True) for block in self.blocks(self.frame)]
        _read_only(*(array for pair in pairs for array in pair))
        return pairs

    def _preserves_hermiticity(self):
        """The one rule: hermiticity_defect at most _ROUTE_BOUND * max(1, ||L||_F)."""
        return self.hermiticity_defect <= self._bound

    def to_frame(self, x):
        """Standard-frame vectors (the columns of x) in the frame of the route."""
        if self.arithmetic == "real":
            return _hermitian_coords(x)
        return x if self.route == "dense" else _to_frame(x, self.vectors)

    def to_standard(self, x):
        """Frame vectors (the columns of x) back in the standard frame."""
        if self.arithmetic == "real":
            return _hermitian_coords(x, inverse=True)
        return x if self.route == "dense" else _to_frame(x, self.vectors.conj().T)

    def blocks(self, mat):
        """The diagonal blocks of a frame matrix, one (K, s, s) stack per size."""
        if self.route == "dense":
            return [mat[None]]
        return [mat[idx[:, :, None], idx[:, None, :]] for idx in self.indices]

    def assemble(self, stacks):
        """The frame matrix with the given diagonal blocks and zeros elsewhere."""
        if self.route == "dense":
            return stacks[0][0]
        n2 = self.frame.shape[0]
        out = np.zeros((n2, n2), dtype=complex)
        for idx, stack in zip(self.indices, stacks):
            out[idx[:, :, None], idx[:, None, :]] = stack
        return out


# One kept entry per live caller array, keyed by id(array): a private
# read-only copy of its L and up to two splits of that copy, each with the
# Propagator built of it once there is one (see _kept_slot).  A weak
# reference to the array drops the entry when the array is collected, so
# the array's lifetime bounds what is kept.
_kept = {}


class _Kept:
    """The kept entry of one caller array: a weak reference to it, the copy
    of L, and two _Slot or None: own, split in the frame of L's own
    Hamiltonian part, and framed, split in the last basis asked for."""

    __slots__ = ("ref", "copy", "own", "framed")

    def __init__(self, ref, copy):
        self.ref, self.copy, self.own, self.framed = ref, copy, None, None


class _Slot:
    """One kept split, its arrays read-only, and its Propagator or None."""

    __slots__ = ("sectors", "propagator")

    def __init__(self, sectors):
        _read_only(sectors.frame, sectors.energy_frame, sectors.labels, sectors.vectors, *sectors.indices)
        self.sectors, self.propagator = sectors, None


def _forget(key, ref, store=_kept):
    # the weak reference's callback.  It reads no global, which the
    # interpreter may already have set to None when it runs at exit.  The
    # array is not freed before it returns, so no other array takes the key.
    entry = store.get(key)
    if entry is not None and entry.ref is ref:
        store.pop(key, None)


def _read_only(*arrays):
    for array in arrays:
        if array is not None:
            array.flags.writeable = False


def _kept_entry(l_mat):
    """The kept entry of l_mat, made anew unless the one under id(l_mat) was
    made of this very array and its copy still equals l_mat."""
    key = id(l_mat)
    entry = _kept.get(key)  # read once: another thread may replace it
    if entry is None or entry.ref() is not l_mat or not np.array_equal(entry.copy, l_mat):
        copy = l_mat.copy()
        _read_only(copy)
        entry = _Kept(weakref.ref(l_mat, functools.partial(_forget, key)), copy)
        _kept[key] = entry
    return entry


def _kept_slot(l_mat, basis=None):
    """The slot of l_mat's kept entry that holds its split in basis, or in
    L's own frame without one.  The split in a basis is made anew unless
    it was made in this very basis object and the basis's vectors and
    sector_labels still equal the split's copies of them."""
    entry = _kept_entry(l_mat)
    if basis is None:
        if entry.own is None:
            entry.own = _Slot(_Sectors(entry.copy))
        return entry.own
    slot = entry.framed  # read once: another thread may replace it
    if (slot is None or slot.sectors.basis is not basis
            or not np.array_equal(slot.sectors.vectors, basis.spectrum.vectors)
            or not np.array_equal(slot.sectors.labels, basis.sector_labels)):
        slot = entry.framed = _Slot(_Sectors(entry.copy, basis))
    return slot


def _split(l_mat, basis=None):
    """The split of l_mat in basis, or in L's own frame without one, kept
    while the array lives unchanged (see _kept_slot): the same to the bit
    as a fresh _Sectors(l_mat, basis), its superoperator the kept copy."""
    return _kept_slot(l_mat, basis).sectors


def _hamiltonian_part(l_mat, n):
    """H of L = -i[H, .] + D up to a multiple of I: with X_ab = sum_k
    L[a + N k, b + N k], the partial trace of L, H = i(X - X^dag) / (2N).
    The GKS form is unique, so this is exact when D's jump operators are
    traceless or Hermitian, as a restricted generator's are."""
    x = np.trace(l_mat.reshape(n, n, n, n), axis1=0, axis2=2)
    return 1j * (x - x.conj().T) / (2 * n)


def _choi_sources(idx, n):
    """The map entries behind the Choi blocks of a (K, s) stack of frame
    indices: Choi block entry (a + N b, c + N d) is map entry
    (a + N c, b + N d), returned as (rows, cols), each (K, s, s)."""
    rows, cols = idx[:, :, None], idx[:, None, :]
    return rows % n + n * (cols % n), rows // n + n * (cols // n)


def _choi_closed(labels, n):
    # the labels split the Choi matrix too when every map entry behind a
    # Choi block lies inside one sector of the map: for frame indices a + N b
    # and c + N d with one label, map entries a + N c and b + N d share one
    lab = labels.reshape(n, n).T  # lab[a, c] is the label of a + N c
    same = (labels[:, None] == labels[None, :]).reshape(n, n, n, n)  # axes b, a, d, c
    return not np.any(same & (lab[None, :, None, :] != lab[:, None, :, None]))


class Propagator:
    """Evaluates exp(L t) for a fixed superoperator L at arbitrary t.

    L is split into Bohr-frequency sectors, in the frame of basis (the
    eigenoperator basis of L's Hamiltonian) if given, else in the frame of
    L's own Hamiltonian part, when its measured off-sector norm allows it
    (see _Sectors; route "sector"), and each block is decomposed on its
    own, with one batched eig per block size; a 1x1 block x is its own
    eigenvalue and eigenvector, so it takes no eig, inverse or SVD, and
    evolves as exp(x t) times its entry.  Otherwise (route "dense") L
    is decomposed whole: when it measurably preserves Hermiticity, as the
    real matrix R = T^dag L T of the Hermitian operator basis (arithmetic
    "real"; T is unitary, so R has the spectrum and the eigenvector cond of
    L), with one real eig and cond, inverse and maps in real arithmetic
    (see _real_pair_form); else as L itself (arithmetic "complex").  The
    eigendecomposition is used when the eigenvector matrix (block diagonal
    on the sector route) has cond < 1e8, and scaling-and-squaring of each
    block otherwise.  The eigenvalues, the condition number, the route, the
    arithmetic and the off-sector norm are kept, so audits can read them
    without decomposing L again.  L is split and decomposed once in each
    frame while the caller's array lives unchanged, and in a basis while
    that basis object's vectors and labels do too: the first Propagator
    is kept with its split (see _kept_slot), and a later one shares its
    read-only arrays.  superoperator is the kept, read-only copy of L, in
    a basis or not, so nothing kept holds the caller's array.  An array
    that is not complex is converted first, so only that call's
    conversion is kept.  Propagator(t) is the full map
    exp(L t); propagate evolves one state through _states instead, which on
    the sector route makes two T N^2 buffers and no more.
    """

    def __init__(self, superoperator, basis=None):
        l_mat = np.asarray(superoperator, dtype=complex)
        if l_mat.ndim != 2 or l_mat.shape[0] != l_mat.shape[1]:
            raise ValueError(f"superoperator must be square, got {l_mat.shape}")
        slot = _kept_slot(l_mat, basis)
        if slot.propagator is not None:
            vars(self).update(vars(slot.propagator))  # its arrays are read-only, so they are shared
            return
        self.sectors = slot.sectors
        self.superoperator = self.sectors.superoperator  # the kept copy: nothing kept holds the caller's array
        self.route, self.off_sector_norm = self.sectors.route, self.sectors.off_sector_norm
        self.arithmetic = self.sectors.arithmetic
        self._blocks = self.sectors.blocks(self.sectors.frame)
        self.eigenvalues = np.empty(self.superoperator.shape[0], dtype=complex)
        self._evals, self._evecs = [], []
        smax, smin = 0.0, math.inf
        for idx, block in zip(self.sectors.indices, self._blocks):
            if block.shape[-1] == 1:  # a 1x1 block is its own eigenvalue
                evals, evecs, svals = block[:, :, 0], np.ones_like(block), np.ones((1, 1))
            else:
                evals, evecs = np.linalg.eig(block)
                if self.arithmetic == "real":
                    evecs = _real_pair_form(evals, evecs)
                try:
                    svals = np.linalg.svd(self._part(evecs), compute_uv=False)
                except np.linalg.LinAlgError:
                    svals = np.array([[math.inf, 0.0]])
            self.eigenvalues[idx] = evals
            self._evals.append(evals)
            self._evecs.append(evecs)
            smax, smin = max(smax, float(svals[:, 0].max())), min(smin, float(svals[:, -1].min()))
        # equals cond of the whole (block-diagonal) eigenvector matrix
        cond = smax / smin if smin > 0 else math.inf
        self.condition_number = cond if math.isfinite(cond) else math.inf
        self.diagonalizable = self.condition_number < _DIAGONALIZABLE_COND
        if self.diagonalizable:  # a 1x1 block's eigenvector 1 is its own inverse
            self._inv = [evecs if evecs.shape[-1] == 1 else np.linalg.inv(self._part(evecs)) for evecs in self._evecs]
        else:
            log.debug("eigenvector condition %.3e; using expm fallback", self.condition_number)
        _read_only(self.eigenvalues, *self._blocks, *self._evals, *self._evecs, *getattr(self, "_inv", ()))
        slot.propagator = self

    def _part(self, x):
        """x itself, or its real part on the real route."""
        return x.real if self.arithmetic == "real" else x

    def _block_maps(self, times):
        """exp(B t) of every block B at every t in times, in the frame of the
        route: one (T, K, s, s) stack per block size, as the blocks are
        stacked in sectors.indices."""
        times = np.asarray(times, dtype=float)
        if self.diagonalizable:
            return [
                self._part(evecs * np.exp(evals * times[:, None, None])[:, :, None, :]) @ inv
                for evals, evecs, inv in zip(self._evals, self._evecs, self._inv)
            ]
        import scipy.linalg  # slow to import, and only this route uses it

        return [np.array([scipy.linalg.expm(block * t) for t in times]) for block in self._blocks]

    def _frame_map(self, t):
        """exp(L t) in the frame of the route: U^dag exp(L t) U on the sector
        route, exp(R t) on the real route, exp(L t) itself otherwise."""
        return self.sectors.assemble([stack[0] for stack in self._block_maps([t])])

    def __call__(self, t):
        # K M K^dag for the frame map M and the change of frame K that to_standard applies
        to_standard = self.sectors.to_standard
        return to_standard(to_standard(self._frame_map(t)).conj().T).conj().T

    def _evolve(self, frame_vec, times, weights=None):
        """exp(B t) frame_vec, block by block, for every t in times, as one
        C-contiguous (N^2, T) array of frame_vec's dtype; with weights, entry
        i of the result is scaled by weights[i], and the blocks whose weights
        are all 0 are left 0 without evolving them.  A 1x1 block x takes
        exp(x t) times its entry elementwise, with no 1x1 products."""
        shape = (frame_vec.size, times.size)
        out = np.empty(shape, frame_vec.dtype) if weights is None else np.zeros(shape, frame_vec.dtype)
        if self.diagonalizable:
            for idx, evals, evecs, inv in zip(self.sectors.indices, self._evals, self._evecs, self._inv):
                if weights is not None:
                    kept = weights[idx].any(axis=1)
                    idx, evals, inv = idx[kept], evals[kept], inv[kept]
                    evecs = weights[idx][..., None] * evecs[kept]
                if idx.shape[1] == 1:  # evecs holds the weight, or 1
                    out[idx[:, 0]] = evecs[:, 0] * (np.exp(evals * times) * frame_vec[idx])
                else:
                    coeffs = inv @ frame_vec[idx][..., None]
                    out[idx] = self._part(evecs @ (np.exp(evals[..., None] * times) * coeffs))
            return out
        for i, t in enumerate(times):
            out[:, i] = self._frame_map(t) @ frame_vec
        return out if weights is None else out * weights[:, None]

    def _states(self, rho, times):
        """exp(L t) rho for a Hermitian rho at every t in times, as a (T, N,
        N) stack, and the Hermitization defect removed from each state: 0
        where L measurably preserves Hermiticity.  On the sector route the
        frame state rho'(t) is then U + U^dag for U holding rho'_ab for a <
        b, rho'_aa / 2 and 0 below, and rho(t) = M + M^dag for M = V U V^dag;
        energies ascend, so only the blocks at Bohr frequency >= 0 evolve.
        That route makes two T N^2 buffers: the evolved frame entries, then
        V U, whose product with V^dag is written over the first buffer and
        M + M^dag into the second, the time axis fastest.  The real dense
        route evolves real coordinates.  Elsewhere each state is
        re-Hermitized as (rho + rho^dag)/2."""
        n, sectors, defects = rho.shape[0], self.sectors, np.zeros(times.size)
        frame_vec = self._part(sectors.to_frame(vectorize(rho)))
        if self.route == "sector" and sectors._preserves_hermiticity():
            b, a = np.divmod(np.arange(n * n), n)  # index a + N b, weighted 1, 1/2, 0 as a <, =, > b
            upper = self._evolve(frame_vec, times, (np.sign(b - a) + 1) / 2)
            # upper[b, a, t] = U_ab(t), then m[j, i, t] = M_ij(t), written over upper
            vectors = sectors.vectors
            first = vectors @ upper.reshape(n, n, times.size)
            m = np.matmul(vectors.conj(), first.reshape(n, -1), out=upper.reshape(n, -1)).reshape(n, n, times.size)
            # the states go into first's buffer, the time axis fastest
            states = np.conjugate(m.transpose(2, 0, 1), out=first.transpose(2, 0, 1))
            states += m.transpose(2, 1, 0)
            return states, defects
        states = devectorize(sectors.to_standard(self._evolve(frame_vec, times)).T)
        if self.arithmetic == "complex":  # the real route's states are Hermitian exactly
            adjoints = states.conj().swapaxes(1, 2)
            defects = np.linalg.norm(states - adjoints, axis=(1, 2)) / 2
            if defects.size and defects.max() > 1e-12:
                log.debug("max hermitization defect along trajectory: %.3e", defects.max())
            states = (states + adjoints) / 2
        return states, defects


def _real_pair_form(evals, evecs):
    """Z with Re Z = W, the real eigenvector form of a stack of real
    matrices R: each eigenvector v times 1, sqrt2 or i sqrt2 as its
    eigenvalue has zero, positive or negative imaginary part.  A conjugate
    pair (v, conj v) thus gives the columns sqrt2 Re v and sqrt2 Im v of W,
    and the eigenvector matrix is V = W U for a unitary block-diagonal U, so
    cond V = cond W and V^-1 = U^dag W^-1.  R W = W B for the real
    block-diagonal B with B's 2x2 blocks rotating at Im lambda, and W
    exp(B t) = Re(Z exp(Lambda t)), so exp(R t) = Re(Z exp(Lambda t)) W^-1."""
    scale = np.where(evals.imag == 0, 1.0, math.sqrt(2) * np.where(evals.imag > 0, 1.0, 1j))
    return evecs * scale[..., None, :]


def _superop_of(obj):
    """The superoperator matrix of a generator, model, Propagator or array."""
    return np.asarray(obj.superoperator if hasattr(obj, "superoperator") else obj, dtype=complex)


def _split_reused(obj, basis):
    # a Propagator's split serves when no basis is asked for or it was made in that very object
    return isinstance(obj, Propagator) and (basis is None or obj.sectors.basis is basis)


def _propagator_of(obj, basis=None):
    """obj itself if it is a Propagator split in basis (any, if None), else one
    built in the frame of basis, else of obj's basis, else of L's own."""
    if _split_reused(obj, basis):
        return obj
    return Propagator(_superop_of(obj), getattr(obj, "basis", None) if basis is None else basis)


def _sectors_of(obj, basis=None):
    """The sector split _propagator_of would read, without decomposing L."""
    if _split_reused(obj, basis):
        return obj.sectors
    return _split(_superop_of(obj), getattr(obj, "basis", None) if basis is None else basis)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray = field(repr=False)  # (T, N, N)
    hermitization_defects: np.ndarray = field(repr=False)


def check_density_matrix(rho):
    """Validate a density matrix (square, finite, Hermitian, unit trace, PSD,
    each within STATE_TOL) and return its Hermitian part; raises ValueError."""
    rho = _as_square(rho, "state")
    if not np.isfinite(rho).all():
        raise ValueError("state has a non-finite entry")
    herm = np.linalg.norm(rho - rho.conj().T) / 2
    if not herm <= STATE_TOL:
        raise ValueError(f"state is not Hermitian (defect {herm:.3e})")
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= STATE_TOL:
        raise ValueError(f"state trace is {tr}, expected 1")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if not min_eig >= -STATE_TOL:
        raise ValueError(f"state has negative eigenvalue {min_eig:.3e}")
    return (rho + rho.conj().T) / 2


def _time_grid(times, message, nonempty=False):
    """times as a float array when it is a 1-d grid (or one number) of finite
    real t >= 0, nonempty if asked, else ValueError(message, got the grid)."""
    grid = np.atleast_1d(np.asarray(times))  # of real numbers: a string, bool or None is no time
    # numpy casts [True, 0.5] to [1.0, 0.5], so a grid that is not yet an array is read for bools
    cast_bool = isinstance(times, (list, tuple)) and any(
        isinstance(t, bool) or getattr(t, "dtype", None) == bool for t in times)
    if (cast_bool or grid.dtype.kind not in "iuf" or grid.ndim != 1 or (nonempty and not grid.size)
            or not np.all((grid >= 0) & (grid < math.inf))):
        raise ValueError(f"{message}, got {times if cast_bool else grid}")
    return grid.astype(float, copy=False)


def propagate(superoperator, rho0, times):
    """Evolve rho0 under exp(L t) for each t in times.

    superoperator may be an array, a Propagator, or an object with a
    superoperator, such as a generator.  The Propagator works by sector
    when L's off-sector norm allows it, in the frame of the object's
    eigenoperator basis if it has one, else of L's own Hamiltonian part.
    times must be a 1-d grid (or one number) of finite t >= 0, else
    ValueError before L is split; an empty grid gives no states.  The
    states are Hermitian exactly where L measurably preserves Hermiticity;
    elsewhere they are re-Hermitized as (rho + rho^dag)/2, and the defect
    removed is recorded (see Propagator._states).  An array is decomposed
    once per frame while it lives unchanged, bare or in its generator's
    basis: propagate, steady_state and the audits given it again reuse its
    kept Propagator and split (see _kept_slot).
    """
    rho0 = check_density_matrix(rho0)
    times = _time_grid(times, "propagate needs a 1-d grid of finite times t >= 0")
    states, defects = _propagator_of(superoperator)._states(rho0, times)
    return Trajectory(times=times, states=states, hermitization_defects=defects)


def null_dimension(svals):
    """Number of singular values (descending) at or below NULL_TOL times the
    largest one; none when the largest is not finite (|x| of an infinite
    1x1 block, or LAPACK's NaN)."""
    smax = svals[0] if svals.size else 0.0
    return int(np.sum(svals <= NULL_TOL * max(smax, 1e-300))) if smax < math.inf else 0


def _block_svd(block, vectors=False):
    """np.linalg.svd(block, compute_uv=vectors) of a (K, s, s) stack, less
    u: the singular values, and with vectors the pair (s, vh).  For s = 1
    in closed form, with no LAPACK call: x = (x / |x|) |x| 1, so |x| and
    vh = 1.  A stack with an entry that is not finite gets NaN for both,
    with no LAPACK call either: its SVD may not return (one infinite entry
    in a 4x4 spins), and NaN leaves no null direction, as |x| does for a
    1x1 block x that is not finite."""
    if block.shape[-1] == 1:
        return (np.abs(block[..., 0]), np.ones_like(block)) if vectors else np.abs(block[..., 0])
    if not np.isfinite(block).all():
        svals = np.full(block.shape[:-1], math.nan)
        return (svals, np.full_like(block, math.nan)) if vectors else svals
    return np.linalg.svd(block)[1:] if vectors else np.linalg.svd(block, compute_uv=False)


@dataclass
class SteadyState:
    rho: np.ndarray
    unique: bool
    residual: float
    null_dimension: int


def steady_state(superoperator):
    """Stationary state from the smallest singular vector of L.

    superoperator is read as in propagate, and the split kept for the
    array in that frame is reused (see _split), with the SVD it keeps: a
    second call on an unchanged array makes no SVD.  L's singular
    values are those of its sector blocks together, one batched SVD per
    block size (a 1x1 block x is |x| with right singular vector 1, no SVD;
    a block stack with an entry that is not finite has NaN ones, no SVD),
    or on the dense route those of L whole: one real SVD of R = T^dag L T
    when L preserves Hermiticity (see Propagator).  Uniqueness is decided by
    counting those below NULL_TOL * smax.  The state is the right singular
    vector of the smallest one, taken from its block back to the standard
    frame (from R's real coordinates through T, Hermitian exactly).  Raises
    LinAlgError when L has no null direction at that tolerance, the null
    direction is traceless, or the state's residual ||L rho|| exceeds
    1e-6 * max(smax, 1).
    """
    l_mat = _superop_of(superoperator)
    sectors = _sectors_of(superoperator)
    decomps = sectors.singular_pairs
    svals = np.sort(np.concatenate([s.ravel() for s, _ in decomps]))[::-1]
    smax = svals[0]
    null_dim = null_dimension(svals)
    if null_dim == 0:
        raise np.linalg.LinAlgError(
            f"no stationary state found: smallest singular value {svals[-1]:.3e} "
            f"exceeds {NULL_TOL:.1e} * {smax:.3e}"
        )
    k = int(np.argmin([s[:, -1].min() for s, _ in decomps]))
    s, vh = decomps[k]
    j = int(np.argmin(s[:, -1]))
    frame_vec = np.zeros(l_mat.shape[0], dtype=complex)
    frame_vec[sectors.indices[k][j]] = vh[j, -1].conj()
    rho = devectorize(sectors.to_standard(frame_vec))
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr) < 1e-10:
        raise np.linalg.LinAlgError("stationary direction is traceless; generator is not trace preserving")
    rho = rho / tr
    residual = float(np.linalg.norm(l_mat @ vectorize(rho)))
    if residual > 1e-6 * max(smax, 1.0):
        raise np.linalg.LinAlgError(f"stationary state residual {residual:.3e} is too large")
    return SteadyState(rho=rho, unique=null_dim == 1, residual=residual, null_dimension=null_dim)


def heat_current(hamiltonian, dissipator, rho):
    """Energy flow tr(H_S D[rho]) for one bath's dissipator; positive means
    heat flows into the system."""
    h = np.asarray(hamiltonian, dtype=complex)
    d_rho = devectorize(np.asarray(dissipator, dtype=complex) @ vectorize(rho))
    return float(np.trace(h @ d_rho).real)


def relative_entropy(rho, sigma):
    """Quantum relative entropy S(rho || sigma) = tr(rho ln rho - rho ln sigma).

    rho may be one state (returns a float) or a stack of states (...,
    N, N) (returns an array).  Only the eigenvalues of each rho are taken;
    sigma is decomposed once, and ln sigma is formed once on its support
    (eigenvalues above SUPPORT_CUTOFF) and contracted with every rho.
    Returns +inf where rho has weight above SUPPORT_CUTOFF on the null
    space of sigma.  Eigenvalues are clipped at 1e-300 before logs, and
    those of rho at 0.  The Hermitian part of rho is formed in one buffer
    of rho's layout, with the bits of (rho + rho^dag) / 2.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape[-2:] != sigma.shape or sigma.ndim != 2:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    n = sigma.shape[0]
    # (rho + rho^dag) / 2 in one buffer of rho's layout, the same bits
    herm = np.conjugate(rho.swapaxes(-1, -2), out=np.empty_like(rho))
    rho = np.divide(np.add(herm, rho, out=herm), 2, out=herm)
    sigma = (sigma + sigma.conj().T) / 2
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    q, v = np.linalg.eigh(sigma)

    null_mask = q <= SUPPORT_CUTOFF
    null_vecs = v[:, null_mask]
    weight = np.einsum("ji,...jk,ki->...", null_vecs.conj(), rho, null_vecs).real

    entropy_term = np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)
    support = v[:, ~null_mask]
    log_sigma = (support * np.log(np.clip(q[~null_mask], 1e-300, None))) @ support.conj().T
    # tr(rho ln sigma) = sum_ij rho_ij (ln sigma)_ji, one row-by-column product per state
    rows = rho.reshape(*rho.shape[:-2], 1, n * n)
    cross_term = (rows @ log_sigma.T.reshape(n * n, 1))[..., 0, 0].real
    result = np.where(weight > SUPPORT_CUTOFF, math.inf, entropy_term - cross_term)
    return float(result) if result.ndim == 0 else result


@dataclass
class BathSpec:
    """One thermal bath attached to the system.

    Either give explicit downward_rates (level-pair keyed, as in
    ThermoSpec) or a rate_function gamma(omega) applied to every positive
    Bohr transition.  alpha adds dephasing, degenerate_mixing is passed
    through to the generator builder.
    """

    beta: float
    downward_rates: dict | None = None
    rate_function: object | None = None
    alpha: np.ndarray | None = None
    degenerate_mixing: dict | None = None
    label: str = "bath"


@dataclass
class TransportModel:
    hamiltonian: np.ndarray
    baths: list
    generators: list
    superoperator: np.ndarray


def _bath_rates(bath, basis):
    rates = dict(bath.downward_rates or {})
    if bath.rate_function is not None:
        tol = basis.spectrum.degeneracy_tol
        rows, cols = basis.transition_pairs
        for key, omega in zip(zip(rows.tolist(), cols.tolist()), basis.omegas[: basis.n_positive].tolist()):
            if omega > tol and key not in rates:
                rates[key] = kms_rates(bath.rate_function, omega, bath.beta).gamma_down
    return rates


def build_transport_model(hamiltonian, baths):
    """Attach several thermal baths to one system Hamiltonian.

    Each bath contributes an independently constructed restricted
    dissipator; the total generator shares a single Hamiltonian part, and
    every bath's generator is built on one eigenoperator basis of it.
    """
    if not baths:
        raise ValueError("at least one bath is required")
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    generators = []
    basis = eigenoperator_basis(hamiltonian)
    for bath in baths:
        spec = ThermoSpec(
            hamiltonian=hamiltonian,
            beta=bath.beta,
            downward_rates=_bath_rates(bath, basis),
            alpha=bath.alpha,
            degenerate_mixing=bath.degenerate_mixing,
        )
        generators.append(_build_restricted_generator(spec, basis))
    # the first generator's L carries the one commutator part
    total = generators[0].superoperator
    for gen in generators[1:]:
        total = total + gen.dissipator
    return TransportModel(
        hamiltonian=hamiltonian,
        baths=list(baths),
        generators=generators,
        superoperator=total,
    )


@dataclass
class TransportReport:
    steady: SteadyState
    currents: list
    current_sum: float
    max_coherence: float


def transport_steady_report(model):
    """Steady state of a multi-bath model with per-bath heat currents and
    the largest energy-basis coherence: the largest |<a|rho|b>| over the
    pairs at nonzero Bohr frequency E_b - E_a, so coherences inside a
    degenerate eigenspace, which commute with H, do not count."""
    ss = steady_state(model.superoperator)
    currents = [
        heat_current(model.hamiltonian, gen.dissipator, ss.rho) for gen in model.generators
    ]
    basis = model.generators[0].basis
    vectors, labels = basis.spectrum.vectors, basis.sector_labels
    rho_eig = vectors.conj().T @ ss.rho @ vectors
    # |a><b| is an energy coherence when its Bohr frequency is not that of |0><0|
    coherences = np.abs(rho_eig.ravel(order="F")[labels != labels[0]])
    return TransportReport(
        steady=ss,
        currents=currents,
        current_sum=float(sum(currents)),
        max_coherence=float(coherences.max()) if coherences.size else 0.0,
    )
