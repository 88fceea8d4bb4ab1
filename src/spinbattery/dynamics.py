"""State preparation, time evolution, and expectation values.

One sampling object, ``_Frame``, does all propagation.  For one constant
generator H and start vector psi it holds a basis V, energies E and
coordinates c with exp(-i H t) psi = V (c * exp(-i E t)): the eigensystem
of H for ``DenseEigen`` (capacity-gated at dimension 2^13; read off the
diagonal of a diagonal H, otherwise solved by LAPACK in place), the Ritz
vectors, Ritz values and start coordinates of one Lanczos run for
``KrylovLanczos``, which serves every offset within the run's error
estimate and starts the next run from the last state reached.  Its
constructor is the only code that depends on the backend.  ``propagate``
samples one time; ``ProtocolEvolution`` keeps one frame per phase and
splits sorted times at ``t_on``; ``metrics.stored_energy_series`` samples
whole series.

A frame keeps only the components psi occupies: it drops the lightest of
c while their summed weight stays within 1e-24, which moves every state
by at most 1e-12 in norm and <H_B> by at most 2 ||H_B|| 1e-12.  Kept
energies within ``_CLUSTER_TOL`` max(1, max|E|) of their neighbour then
form a cluster C: one column V_C c_C / ||c_C||, gathered cluster by
cluster, with coordinate ||c_C|| and the weight-averaged energy.  That is
exact in a degenerate eigenspace, where psi's projection is one vector;
a spread moves a state at offset t by at most sum_C ||c_C|| spread_C t.
Unlike ``DEGENERACY_TOL``, which picks the ground level, ``_CLUSTER_TOL``
merges only rounding-level splittings.  <H_B> is reduced on the k columns
V with B = V^dag H_B V, formed once per frame: O(k^2) per sample.

Every family conserves the spin-flip parity P = prod sigma^z, and psi_0
has a definite P, so ``ProtocolEvolution`` runs both phases and <H_B> on
psi_0's parity sector: half the register, an eighth of the dense solve,
and the capacity gate applies to that half.  A psi_0 with more than 1e-20
of its weight outside one sector is a ``NumericalError``.  ``ground_state``
and ``propagate`` work on the full register.

All five Hamiltonian families assemble to real symmetric matrices
(sigma^y only ever enters in pairs) and are stored as float64, so the
eigensolvers run in real arithmetic and every product of a real matrix
with a complex vector acts on the real and imaginary parts separately.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import CapacityError, NumericalError, ParameterError
from .hamiltonians import (ProtocolPhase, ProtocolSpec, _as_int,
                           _shared_build, protocol_hamiltonian)
from .qubit_ops import SparseOperator

DENSE_DIM_LIMIT = 1 << 13
DEGENERACY_TOL = 1e-9
NORM_TOL = 1e-10
_BREAKDOWN_TOL = 1e-13
# below this dimension a full dense solve is cheaper than ARPACK
_SMALL_DENSE_DIM = 512
_STATE_RETENTION_LIMIT = 1 << 27  # complex amplitudes kept in memory
_CHUNK_ELEMENTS = 1 << 20  # complex amplitudes per sampled column block
_SECTOR_LEAK_TOL = 1e-20  # weight a state may leave outside its parity sector
# start weight a dense phase may drop from its eigenbasis: moves a state by
# at most 1e-12 in norm (rounding leaves ~1e-30 on symmetry-zero components)
_SUPPORT_DROP_WEIGHT = 1e-24
_CLUSTER_TOL = 1e-13  # relative energy spread merged into one frame column


class BackendKind(enum.Enum):
    DENSE_EIGEN = "DenseEigen"
    KRYLOV_LANCZOS = "KrylovLanczos"


@dataclass(frozen=True)
class PropagatorBackend:
    kind: BackendKind = BackendKind.DENSE_EIGEN
    krylov_dim: int = 30
    tolerance: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.kind, BackendKind):
            # a kind's value or first word, in any letter case
            key = str(self.kind).strip().lower()
            kind = next((k for k in BackendKind if key in (
                k.value.lower(), k.name.split("_")[0].lower())), None)
            if kind is None:
                raise ParameterError(
                    f"unknown backend {self.kind!r} (choose from DenseEigen "
                    "or dense, KrylovLanczos or krylov)")
            object.__setattr__(self, "kind", kind)
        krylov_dim = _as_int(self.krylov_dim, "krylov_dim must be an integer")
        if krylov_dim < 2:
            raise ParameterError(f"krylov_dim must be >= 2, got {krylov_dim}")
        object.__setattr__(self, "krylov_dim", krylov_dim)
        if not self.tolerance > 0.0:
            raise ParameterError(f"tolerance must be > 0, got {self.tolerance}")
        object.__setattr__(self, "tolerance", float(self.tolerance))


class StateVector:
    """Unit-norm pure state in canonical global phase.

    The first amplitude whose magnitude is significant (>= 1e-12 of the
    largest) is rotated to the positive real axis, so states equal up to a
    global phase compare equal amplitude-by-amplitude.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
            raise ParameterError(
                f"amplitudes must form a 2**N vector, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ParameterError(
                f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}; "
                "use StateVector.normalized for raw vectors")
        arr /= norm
        mags = np.abs(arr)
        lead = int(np.argmax(mags >= 1e-12 * mags.max()))
        arr *= arr[lead].conjugate() / mags[lead]
        arr.setflags(write=False)
        self.amplitudes = arr

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build from any nonzero vector, normalizing first."""
        arr = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ParameterError("cannot normalize the zero vector")
        return cls(arr / norm)

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "StateVector":
        dim = 1 << int(num_qubits)
        if not 0 <= index < dim:
            raise ParameterError(f"basis index {index} outside dimension {dim}")
        arr = np.zeros(dim, dtype=np.complex128)
        arr[index] = 1.0
        return cls(arr)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def overlap(self, other: "StateVector") -> complex:
        if self.dimension != other.dimension:
            raise ParameterError("state dimensions differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_text(self) -> str:
        """One ``index re im`` line per amplitude (same layout as operator dumps)."""
        return "\n".join(
            f"{i} {float(a.real)!r} {float(a.imag)!r}"
            for i, a in enumerate(self.amplitudes))

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues, optionally with the matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ParameterError("eigenvalues must be a nonempty 1-D array")
        if np.any(np.diff(vals) < 0):
            raise ParameterError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", vals)

    def degeneracies(self, tolerance: float = DEGENERACY_TOL):
        """Cluster the spectrum into (representative value, multiplicity) pairs."""
        clusters = []
        for val in self.eigenvalues:
            if clusters and val - clusters[-1][0] <= tolerance:
                rep, count = clusters[-1]
                clusters[-1] = (rep, count + 1)
            else:
                clusters.append((float(val), 1))
        return clusters


def spectrum(op: SparseOperator, want_vectors: bool = False) -> SpectralData:
    """Full ascending spectrum by dense diagonalization (gated at 2^13).

    A diagonal operator's eigensystem is read off its diagonal: the
    stable-sorted entries and unit vectors, with no LAPACK call.  Any other
    operator is densified in Fortran order and LAPACK diagonalizes it in
    that buffer, which then holds the eigenvectors.
    """
    if op.dimension > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"dense spectrum limited to dimension {DENSE_DIM_LIMIT}, got "
            f"{op.dimension}; the KrylovLanczos propagator needs no full spectrum")
    diagonal = op.matrix.diagonal()
    if op.matrix.nnz == np.count_nonzero(diagonal):
        order = np.argsort(diagonal.real, kind="stable")
        vecs = None
        if want_vectors:
            vecs = np.zeros((op.dimension, op.dimension))
            vecs[order, np.arange(op.dimension)] = 1.0
        return SpectralData(diagonal.real[order], vecs)
    dense = op.to_dense()
    if want_vectors:
        vals, vecs = sla.eigh(dense, driver="evd", overwrite_a=True,
                              check_finite=False)
        return SpectralData(vals, vecs)
    vals = sla.eigh(dense, eigvals_only=True, overwrite_a=True,
                    check_finite=False)
    return SpectralData(vals)


def _odd_parity(dim: int) -> np.ndarray:
    """Mask of the basis states with P = prod sigma^z = -1 (odd popcount)."""
    odd = np.zeros(1, dtype=bool)
    while odd.size < dim:
        odd = np.concatenate([odd, ~odd])  # the next bit up flips the parity
    return odd


def _parity_sector(amplitudes: np.ndarray):
    """(ascending basis indices, outside weight) of ``amplitudes``' sector.

    The sector is the parity half of the register that holds more of the
    weight; the second item is the weight in the other half.
    """
    odd = _odd_parity(amplitudes.size)
    weight = np.abs(amplitudes) ** 2
    odd_weight, even_weight = weight[odd].sum(), weight[~odd].sum()
    if odd_weight > even_weight:
        return np.flatnonzero(odd), even_weight
    return np.flatnonzero(~odd), odd_weight


def _conserves_parity(op: SparseOperator) -> bool:
    """Whether no entry of ``op`` couples basis states of opposite parity."""
    coo = op.matrix.tocoo()
    odd = _odd_parity(op.dimension)
    return not np.any(odd[coo.row] != odd[coo.col])


def _sector_block(op: SparseOperator, sector) -> SparseOperator:
    """``op`` restricted to ``sector``, a register of one site fewer."""
    return SparseOperator(op.matrix[sector][:, sector], op.num_qubits - 1,
                          check_hermitian=False)


def _select_ground_representative(cluster_basis: np.ndarray) -> StateVector:
    """Deterministic vector out of a (possibly degenerate) ground space.

    Maximizes |amplitude| component-by-component from basis index 0 upward:
    the unique unit vector in the span maximizing |<e_i|psi>| for the first
    reachable index i is P e_i / ||P e_i|| with P the cluster projector.
    """
    weights = np.sum(np.abs(cluster_basis) ** 2, axis=1)
    lead = int(np.argmax(weights > 1e-6))
    coeffs = cluster_basis[lead, :].conj()
    return StateVector.normalized(cluster_basis @ coeffs)


def ground_state(op: SparseOperator) -> tuple[float, StateVector]:
    """Lowest eigenvalue and a deterministic canonical ground vector."""
    dim = op.dimension
    if dim > _SMALL_DENSE_DIM:
        resolved = _ground_cluster_arpack(op)
        if resolved is not None:
            return resolved
        if dim > DENSE_DIM_LIMIT:
            raise NumericalError(
                "iterative ground-state solve did not isolate the lowest "
                f"eigenvalue cluster at dimension {dim} and the dense "
                "fallback is capacity-gated")
    data = spectrum(op, want_vectors=True)
    vals = data.eigenvalues
    inside = vals <= vals[0] + DEGENERACY_TOL
    state = _select_ground_representative(data.eigenvectors[:, inside])
    return float(vals[0]), state


def _ground_cluster_arpack(op: SparseOperator, num: int = 8):
    """Lowest eigenpairs via ARPACK with a fixed start and restart seed.

    Returns None when the requested count may not contain the whole
    degenerate cluster (the caller then falls back to a dense solve).  One
    start vector cannot resolve a cluster's multiplicity, so ARPACK may
    return only part of it next to an excited state.  For an operator that
    conserves P = prod sigma^z the representative of the whole cluster has
    one parity, so a mixed one is rejected as well.  That is a necessary
    condition only: a partial cluster can still pass it.
    """
    dim = op.dimension
    v0 = np.full(dim, 1.0 / np.sqrt(dim), dtype=op.matrix.dtype)
    try:
        vals, vecs = spla.eigsh(op.matrix, k=min(num, dim - 1), which="SA",
                                v0=v0, rng=0)
    except spla.ArpackError:
        return None
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    inside = vals <= vals[0] + DEGENERACY_TOL
    if inside.all():
        return None  # cluster may extend past the computed window
    state = _select_ground_representative(vecs[:, inside])
    if (_parity_sector(state.amplitudes)[1] > _SECTOR_LEAK_TOL
            and _conserves_parity(op)):
        return None
    return float(vals[0]), state


def expectation(op: SparseOperator, state: StateVector) -> float:
    """Real expectation value <psi|H|psi> of a Hermitian operator."""
    if op.dimension != state.dimension:
        raise ParameterError(
            f"dimension mismatch: operator {op.dimension}, state {state.dimension}")
    value = complex(np.vdot(state.amplitudes,
                            _apply(op.matrix, state.amplitudes)))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise NumericalError(
            f"expectation of a Hermitian operator came out complex: {value!r}")
    return float(value.real)


# ---------------------------------------------------------------------------
# propagation


def _apply(matrix, vectors):
    """``matrix @ vectors`` for a dense or sparse matrix.

    A real matrix acts on the real and imaginary parts separately: a mixed
    product would make numpy or scipy build a complex copy of the matrix.
    A block of columns viewed as float64 already interleaves the two parts
    column by column, so one real product covers both without copying them
    apart; a single vector is faster as two contiguous real vectors.
    """
    if np.iscomplexobj(matrix) or not np.iscomplexobj(vectors):
        return matrix @ vectors
    if vectors.ndim == 1:
        out = np.empty(matrix.shape[0], dtype=np.complex128)
        out.real = matrix @ np.ascontiguousarray(vectors.real)
        out.imag = matrix @ np.ascontiguousarray(vectors.imag)
        return out
    parts = np.ascontiguousarray(vectors).view(np.float64)
    return (matrix @ parts).view(np.complex128)


def _support(coeffs) -> np.ndarray:
    """Mask of the components of ``coeffs`` a frame keeps.

    The lightest components are dropped while their summed weight stays
    within ``_SUPPORT_DROP_WEIGHT``, so every sampled state moves by at most
    1e-12 in norm and <H_B> by at most 2 ||H_B|| 1e-12.
    """
    weight = np.abs(coeffs) ** 2
    order = np.argsort(weight, kind="stable")
    dropped = int(np.count_nonzero(np.cumsum(weight[order])
                                   <= _SUPPORT_DROP_WEIGHT))
    kept = np.ones(coeffs.size, dtype=bool)
    kept[order[:dropped]] = False
    return kept


def _lanczos(matrix, start, krylov_dim):
    """Ritz data of one Lanczos run of ``matrix`` from ``start``.

    Returns the Ritz vectors V (columns) and values theta, the start
    coordinates c = ||start|| W[0, :] and the error row r = beta_m W[m-1, :]
    (W: eigenvectors of the tridiagonal matrix), so that
    exp(-i H t) start ~ V (c exp(-i theta t)) within |r . (c exp(-i theta t))|.
    After a breakdown the space is invariant, the data exact and r zero.
    """
    norm = np.linalg.norm(start)
    max_dim = min(krylov_dim, start.size)
    basis = np.empty((max_dim, start.size), dtype=np.complex128)
    alphas = np.empty(max_dim)
    betas = np.empty(max_dim)
    basis[0] = start / norm
    for j in range(max_dim):
        w = _apply(matrix, basis[j])
        alphas[j] = np.vdot(basis[j], w).real
        w -= alphas[j] * basis[j]
        if j:
            w -= betas[j - 1] * basis[j - 1]
        # one full re-orthogonalization pass keeps the basis clean
        w -= basis[: j + 1].T @ (basis[: j + 1].conj() @ w)
        betas[j] = np.linalg.norm(w)
        if betas[j] < _BREAKDOWN_TOL or j == max_dim - 1:
            break
        basis[j + 1] = w / betas[j]
    vals, small = sla.eigh_tridiagonal(alphas[:j + 1], betas[:j])
    beta = 0.0 if betas[j] < _BREAKDOWN_TOL else betas[j]
    return basis[:j + 1].T @ small, vals, norm * small[0], beta * small[-1]


class _Frame:
    """``exp(-i H t) start`` as V (c exp(-i E t)), and <H_B> on it.

    (V, E, c) is H's eigensystem for a dense frame and one Lanczos run's
    Ritz data for a Krylov frame, with one column per occupied energy (see
    the module docstring).  One coordinate block is alive at a time.
    """

    def __init__(self, op: SparseOperator, start, backend: PropagatorBackend,
                 h_battery=None):
        self._op, self._backend, self._h_battery = op, backend, h_battery
        if backend.kind is BackendKind.DENSE_EIGEN:
            data = spectrum(op, want_vectors=True)
            vecs, vals = data.eigenvectors, data.eigenvalues
            coeffs = _apply(vecs.T, start.conj()).conj()  # V^dag start
            error_row = np.zeros(vals.size)
        else:
            vecs, vals, coeffs, error_row = _lanczos(op.matrix, start,
                                                     backend.krylov_dim)
        tol = _CLUSTER_TOL * max(1.0, np.abs(vals).max())
        kept = np.flatnonzero(_support(coeffs))
        vals, coeffs, error_row = vals[kept], coeffs[kept], error_row[kept]
        bounds = np.append(np.flatnonzero(np.diff(vals, prepend=-np.inf)
                                          > tol), kept.size)
        weight = np.abs(coeffs) ** 2
        cluster_weight = np.add.reduceat(weight, bounds[:-1])
        unit = coeffs / np.repeat(np.sqrt(cluster_weight), np.diff(bounds))
        unit = unit if np.any(unit.imag) else unit.real  # real starts stay real
        self.basis = np.empty((vecs.shape[0], bounds.size - 1),
                              np.result_type(vecs, unit))
        for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            self.basis[:, j] = _apply(vecs[:, kept[lo:hi]], unit[lo:hi])
        self._vals = np.add.reduceat(weight * vals, bounds[:-1]) / cluster_weight
        self._coeffs = np.sqrt(cluster_weight)
        self._error_row = np.add.reduceat(error_row * unit, bounds[:-1])

    def _coordinates(self, offsets):
        return self._coeffs[:, None] * np.exp(
            np.outer(self._vals, -1j * offsets))

    def _reach(self, offsets) -> int:
        """How many leading ``offsets`` the error estimate admits."""
        if not self._error_row.any():  # dense, or a closed Krylov space
            return offsets.size
        errors = np.abs(self._error_row @ self._coordinates(offsets))
        return int(np.logical_and.accumulate(
            errors <= self._backend.tolerance).sum())

    def blocks(self, offsets):
        """``(frame, coordinate block)`` pairs for the ascending ``offsets``.

        A frame serves the longest prefix of offsets it admits, then hands
        over to a frame started from the last state reached; when it admits
        none, from the longest admitted run of steps gap * 2^-k, k = 40..1.
        """
        chunk = max(1, _CHUNK_ELEMENTS // self.basis.shape[0])
        frame, origin = self, 0.0
        while True:
            count = frame._reach(offsets - origin)
            for lo in range(0, count, chunk):
                yield frame, frame._coordinates(
                    offsets[lo:min(lo + chunk, count)] - origin)
            if count == offsets.size:
                return
            gaps = (offsets[0] - origin) * 2.0 ** -np.arange(40, 0, -1)
            reached = offsets[:count] if count else (
                origin + gaps[:frame._reach(gaps)])
            if not reached.size:
                raise NumericalError(
                    "Krylov propagation failed to reach the step tolerance "
                    f"{self._backend.tolerance}; retry with a larger krylov_dim")
            frame = _Frame(self._op, frame.state_at(reached[-1] - origin),
                           self._backend, self._h_battery)
            origin, offsets = reached[-1], offsets[count:]

    def state_at(self, offset):
        """The state at one ``offset``."""
        (frame, block), = self.blocks(np.array([offset]))
        return frame.columns(block)[:, 0]

    def columns(self, block):
        """State columns of one coordinate block."""
        return _apply(self.basis, block)

    @functools.cached_property
    def energy_matrix(self):
        """B = V^dag H_B V in the collapsed basis V."""
        return self.basis.conj().T @ _apply(self._h_battery, self.basis)

    def energy_parts(self, block):
        """<H_B> and its imaginary residue for each column a + ib of ``block``.

        With B (a + ib) = p + iq they are a.p + b.q and a.q - b.p.
        """
        image = _apply(self.energy_matrix, block)
        a, b, p, q = block.real, block.imag, image.real, image.imag
        return (np.einsum("ij,ij->j", a, p) + np.einsum("ij,ij->j", b, q),
                np.einsum("ij,ij->j", a, q) - np.einsum("ij,ij->j", b, p))


def propagate(op: SparseOperator, state: StateVector, t: float,
              backend: PropagatorBackend = PropagatorBackend()) -> StateVector:
    """Evolve a state for time t under a constant Hamiltonian."""
    if op.dimension != state.dimension:
        raise ParameterError(
            f"dimension mismatch: operator {op.dimension}, state {state.dimension}")
    t = float(t)
    if not np.isfinite(t):
        raise ParameterError(f"time must be finite, got {t}")
    amps = _Frame(op, state.amplitudes, backend).state_at(t)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_TOL:
        raise NumericalError(
            f"propagation lost unitarity: norm {norm!r} after t={t}")
    return StateVector(amps / norm)


# ---------------------------------------------------------------------------
# the piecewise charging protocol


@functools.lru_cache(maxsize=32)
def _battery_ground(battery, num_qubits: int, literal_ata_sum: bool):
    """``(H_B, E_0, psi_0)`` of one battery, shared by every protocol on it.

    H_B depends on neither lambda nor the charger, so a sweep solves each
    battery once; bounded, as each entry holds a 2^N ground vector.
    """
    h_battery = _shared_build(battery, num_qubits, literal_ata_sum)
    return (h_battery, *ground_state(h_battery))


class ProtocolEvolution:
    """Evaluates one protocol on arbitrary sample times.

    The sorted times are split once at ``t_on`` and each side goes to the
    frame of its phase, built on first use and kept for later calls (the
    refinement pass); the dense backend diagonalizes at most two matrices.

    Both phases and <H_B> run on psi_0's parity sector (see the module
    docstring); ``states`` scatters the columns back into the full register.
    """

    def __init__(self, protocol: ProtocolSpec, backend: PropagatorBackend):
        self.protocol = protocol
        self.backend = backend
        self.h_battery, self.ground_energy, self.initial_state = \
            _battery_ground(protocol.battery, protocol.num_qubits,
                            protocol.literal_ata_sum)
        self.h_charging = protocol_hamiltonian(protocol, ProtocolPhase.CHARGING)
        psi0 = self.initial_state.amplitudes
        self._sector, leak = _parity_sector(psi0)
        if leak > _SECTOR_LEAK_TOL:
            raise NumericalError(
                f"the battery ground state puts weight {leak:.3e} outside "
                "its parity sector")
        self._start = psi0[self._sector]
        self._battery_block = _sector_block(self.h_battery, self._sector)
        self._charging_block = _sector_block(self.h_charging, self._sector)

    def _checked_times(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ParameterError("sample times must be a 1-D sequence")
        if times.size and times.min() < 0.0:
            raise ParameterError("sample times must be >= 0")
        return times

    @functools.cached_property
    def _charging_frame(self) -> "_Frame":
        return _Frame(self._charging_block, self._start, self.backend,
                      self._battery_block.matrix)

    @functools.cached_property
    def _after_frame(self) -> "_Frame":
        """The after-``t_on`` phase, started from the sector state at ``t_on``."""
        psi_on = self._charging_frame.state_at(self.protocol.t_on)
        return _Frame(self._battery_block, psi_on, self.backend,
                      self._battery_block.matrix)

    def _blocks(self, times):
        """(request positions, frame, coordinate block) in ascending time order."""
        order = np.argsort(times, kind="stable")
        times = times[order]
        t_on = self.protocol.t_on
        split = times.size if t_on is None else int(
            np.searchsorted(times, t_on, side="right"))
        phases = [(self._charging_frame, times[:split])]
        if split < times.size:
            phases.append((self._after_frame, times[split:] - t_on))
        done = 0
        for frame, offsets in phases:
            for owner, block in frame.blocks(offsets):
                yield order[done:done + block.shape[1]], owner, block
                done += block.shape[1]

    def battery_energy(self, times) -> np.ndarray:
        """<H_B> at each requested time, reduced one block at a time."""
        times = self._checked_times(times)
        energies = np.empty(times.size)
        residues = np.empty(times.size)
        for positions, frame, block in self._blocks(times):
            energies[positions], residues[positions] = frame.energy_parts(block)
        if times.size:
            residue = np.abs(residues).max()
            if residue > 1e-10 * max(1.0, np.abs(energies).max()):
                raise NumericalError(
                    f"battery energy came out complex (residue {residue:.3e})")
        return energies

    def states(self, times) -> list[StateVector]:
        """The state at each requested time (any order, >= 0), memory-gated."""
        times = self._checked_times(times)
        if times.size * self.initial_state.dimension > _STATE_RETENTION_LIMIT:
            raise CapacityError(
                "state retention for this many times exceeds the in-memory "
                "budget; sample energies instead")
        states = [None] * times.size
        for positions, frame, block in self._blocks(times):
            full = np.zeros((self.initial_state.dimension, block.shape[1]),
                            dtype=np.complex128)
            full[self._sector] = frame.columns(block)
            for position, column in zip(positions, full.T):
                states[position] = StateVector.normalized(column)
        return states
