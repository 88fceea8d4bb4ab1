"""State preparation, time evolution, and expectation values.

One per-phase sampler does all propagation: for one constant generator H
and one start vector it yields ``exp(-i H t) psi`` at ascending offsets t
in bounded column blocks, and it is the only code that depends on the
backend.  ``DenseEigen`` diagonalizes H once per phase and forms
``V (c * exp(-i E t))`` with c = V^dag psi (capacity-gated at dimension
2^13); ``KrylovLanczos`` walks the offsets in a small Krylov subspace with
adaptive step halving and never needs the full spectrum.  ``propagate``
samples one time; ``ProtocolEvolution`` splits sorted times at ``t_on``,
hands each side to its phase, and reads the blocks in ``battery_energy``
and ``states``; ``metrics.stored_energy_series`` samples whole series.

Every family conserves the spin-flip parity P = prod sigma^z, and psi_0
has a definite P, so ``ProtocolEvolution`` runs both phases and <H_B> on
psi_0's parity sector: half the register, an eighth of the dense solve,
and the capacity gate applies to that half.  A psi_0 with more than 1e-20
of its weight outside one sector, or a single site, keeps the full
register; ``ground_state`` and ``propagate`` always use it.

All five Hamiltonian families assemble to real symmetric matrices
(sigma^y only ever enters in pairs) and are stored as float64, so the
eigensolvers run in real arithmetic and every product of a real matrix
with a complex vector acts on the real and imaginary parts separately.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import CapacityError, NumericalError, ParameterError
from .hamiltonians import ProtocolPhase, ProtocolSpec, build, protocol_hamiltonian
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
        if int(self.krylov_dim) < 2:
            raise ParameterError(f"krylov_dim must be >= 2, got {self.krylov_dim}")
        object.__setattr__(self, "krylov_dim", int(self.krylov_dim))
        if not self.tolerance > 0.0:
            raise ParameterError(f"tolerance must be > 0, got {self.tolerance}")
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @classmethod
    def dense(cls) -> "PropagatorBackend":
        return cls(BackendKind.DENSE_EIGEN)

    @classmethod
    def krylov(cls, **options) -> "PropagatorBackend":
        """Lanczos backend; ``options`` override ``krylov_dim``/``tolerance``."""
        return cls(BackendKind.KRYLOV_LANCZOS, **options)


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
    """Full ascending spectrum by dense diagonalization (gated at 2^13)."""
    if op.dimension > DENSE_DIM_LIMIT:
        raise CapacityError(
            f"dense spectrum limited to dimension {DENSE_DIM_LIMIT}, got "
            f"{op.dimension}; the KrylovLanczos propagator needs no full spectrum")
    dense = op.to_dense()
    if want_vectors:
        vals, vecs = sla.eigh(dense, driver="evd", check_finite=False)
        return SpectralData(vals, vecs)
    vals = sla.eigh(dense, eigvals_only=True, check_finite=False)
    return SpectralData(vals)


def _odd_parity(dim: int) -> np.ndarray:
    """Mask of the basis states with P = prod sigma^z = -1 (odd popcount)."""
    odd = np.zeros(1, dtype=bool)
    while odd.size < dim:
        odd = np.concatenate([odd, ~odd])  # the next bit up flips the parity
    return odd


def _parity_sector(amplitudes: np.ndarray) -> np.ndarray | None:
    """Ascending basis indices of the parity sector holding ``amplitudes``.

    Each sector is half of the register.  None for a single site, or when
    the weight outside the heavier sector exceeds ``_SECTOR_LEAK_TOL``.
    """
    if amplitudes.size < 4:
        return None
    odd = _odd_parity(amplitudes.size)
    weight = np.abs(amplitudes) ** 2
    odd_weight, even_weight = weight[odd].sum(), weight[~odd].sum()
    if min(odd_weight, even_weight) > _SECTOR_LEAK_TOL:
        return None
    return np.flatnonzero(odd if odd_weight > even_weight else ~odd)


def _conserves_parity(op: SparseOperator) -> bool:
    """Whether no entry of ``op`` couples basis states of opposite parity."""
    coo = op.matrix.tocoo()
    odd = _odd_parity(op.dimension)
    return not np.any(odd[coo.row] != odd[coo.col])


def _sector_block(op: SparseOperator, sector) -> SparseOperator:
    """``op`` restricted to ``sector``, a register of one site fewer."""
    if sector is None:
        return op
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
    """Lowest eigenpairs via ARPACK with a fixed start vector.

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
                                v0=v0)
    except spla.ArpackError:
        return None
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    inside = vals <= vals[0] + DEGENERACY_TOL
    if inside.all():
        return None  # cluster may extend past the computed window
    state = _select_ground_representative(vecs[:, inside])
    if _parity_sector(state.amplitudes) is None and _conserves_parity(op):
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


def _spectral_columns(data: SpectralData, start, offsets):
    """Column blocks ``V (c * exp(-i E t))`` over successive offsets.

    With H = V diag(E) V^dag and c = V^dag start, each column is
    exp(-i H t) start.  Only one block is alive at a time.
    """
    vecs = data.eigenvectors
    chunk = max(1, _CHUNK_ELEMENTS // start.size)
    coeffs = _apply(vecs.T, start.conj()).conj()  # V^dag start
    for lo in range(0, offsets.size, chunk):
        # one expression, so no temporary outlives the yield
        yield _apply(vecs, coeffs[:, None] * np.exp(
            np.outer(data.eigenvalues, -1j * offsets[lo:lo + chunk])))


def _energy_parts(matrix, columns):
    """Real part and imaginary residue of <psi|H|psi> for each column.

    With psi = a + ib and H psi = p + iq, <psi|H|psi> = a.p + b.q plus
    i (a.q - b.p); for a real symmetric H the residue is a.Hb - b.Ha.
    """
    image = _apply(matrix, columns)
    a, b, p, q = columns.real, columns.imag, image.real, image.imag
    return (np.einsum("ij,ij->j", a, p) + np.einsum("ij,ij->j", b, q),
            np.einsum("ij,ij->j", a, q) - np.einsum("ij,ij->j", b, p))


def _lanczos_step(matrix, vec, dt, krylov_dim):
    """One Krylov approximation of exp(-i dt H) vec.

    Returns (result, error_estimate).  A breakdown of the recurrence means
    the Krylov space closed on an invariant subspace, where the small-matrix
    exponential is exact.
    """
    dim = vec.size
    max_dim = min(krylov_dim, dim)
    basis = np.empty((max_dim, dim), dtype=np.complex128)
    alphas = np.empty(max_dim)
    betas = np.empty(max_dim)
    basis[0] = vec
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
            size = j + 1
            tri = np.diag(alphas[:size]) + np.diag(betas[: size - 1], 1) \
                + np.diag(betas[: size - 1], -1)
            small = sla.expm(-1j * dt * tri)[:, 0]
            result = small @ basis[:size]
            if betas[j] < _BREAKDOWN_TOL:
                return result, 0.0
            return result, float(betas[j] * abs(small[-1]))
        basis[j + 1] = w / betas[j]
    raise AssertionError("unreachable")


def _krylov_expm_apply(matrix, amplitudes, t, krylov_dim, tolerance):
    """exp(-i t H) amplitudes with adaptive substepping of t."""
    state = np.asarray(amplitudes, dtype=np.complex128)
    elapsed = 0.0
    dt = t
    min_step = abs(t) * 2.0 ** -40
    while elapsed != t:
        remaining = t - elapsed
        step = remaining if abs(dt) >= abs(remaining) else dt
        candidate, err = _lanczos_step(matrix, state, step, krylov_dim)
        if err <= tolerance:
            state = candidate
            elapsed = t - (remaining - step)
            if err < 0.01 * tolerance and abs(dt) < abs(t):
                dt *= 2.0
        else:
            dt = step / 2.0
            if abs(dt) < min_step:
                raise NumericalError(
                    "Krylov propagation failed to reach the step tolerance "
                    f"{tolerance} (residual estimate {err:.3e}); retry with a "
                    "larger krylov_dim")
    return state


class _Phase:
    """One constant generator H, sampled as ``exp(-i H t) start``.

    ``DenseEigen`` diagonalizes H on first use and reuses it on later calls;
    ``KrylovLanczos`` walks the offsets in order, one column at a time.
    """

    def __init__(self, op: SparseOperator, backend: PropagatorBackend):
        self.op = op
        self.backend = backend
        self._spectral: SpectralData | None = None

    def columns(self, start, offsets):
        """Blocks of state columns at the ascending ``offsets``."""
        backend = self.backend
        if backend.kind is BackendKind.DENSE_EIGEN:
            if self._spectral is None:
                self._spectral = spectrum(self.op, want_vectors=True)
            yield from _spectral_columns(self._spectral, start, offsets)
            return
        state, now = start, 0.0
        for t in offsets:
            state = _krylov_expm_apply(self.op.matrix, state, t - now,
                                       backend.krylov_dim, backend.tolerance)
            now = t
            yield state[:, None]


def propagate(op: SparseOperator, state: StateVector, t: float,
              backend: PropagatorBackend = PropagatorBackend()) -> StateVector:
    """Evolve a state for time t under a constant Hamiltonian."""
    if op.dimension != state.dimension:
        raise ParameterError(
            f"dimension mismatch: operator {op.dimension}, state {state.dimension}")
    t = float(t)
    if not np.isfinite(t):
        raise ParameterError(f"time must be finite, got {t}")
    amps = next(_Phase(op, backend).columns(state.amplitudes,
                                            np.array([t])))[:, 0]
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
    h_battery = build(battery, num_qubits, literal_ata_sum)
    return (h_battery, *ground_state(h_battery))


class ProtocolEvolution:
    """Evaluates one protocol on arbitrary sample times.

    The sorted times are split once at ``t_on`` and each side goes to the
    sampler of its phase, the state at ``t_on`` propagated afresh from psi_0;
    the dense backend diagonalizes at most two matrices in all.

    Both phases and <H_B> run on psi_0's parity sector when it has one (see
    the module docstring); ``states`` scatters the columns back into the
    full register.
    """

    def __init__(self, protocol: ProtocolSpec, backend: PropagatorBackend):
        self.protocol = protocol
        self.backend = backend
        self.h_battery, self.ground_energy, self.initial_state = \
            _battery_ground(protocol.battery, protocol.num_qubits,
                            protocol.literal_ata_sum)
        self.h_charging = protocol_hamiltonian(protocol, ProtocolPhase.CHARGING)
        self._sector = _parity_sector(self.initial_state.amplitudes)
        psi0 = self.initial_state.amplitudes
        self._start = psi0 if self._sector is None else psi0[self._sector]
        self._battery_block = _sector_block(self.h_battery, self._sector)
        self._charging = _Phase(_sector_block(self.h_charging, self._sector),
                                backend)
        self._after = _Phase(self._battery_block, backend)

    def _checked_times(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ParameterError("sample times must be a 1-D sequence")
        if times.size and times.min() < 0.0:
            raise ParameterError("sample times must be >= 0")
        return times

    def _column_blocks(self, times):
        """(request positions, state columns) blocks in ascending time order."""
        order = np.argsort(times, kind="stable")
        times = times[order]
        t_on = self.protocol.t_on
        split = times.size if t_on is None else int(
            np.searchsorted(times, t_on, side="right"))
        blocks = [self._charging.columns(self._start, times[:split])]
        if split < times.size:
            psi_on = next(self._charging.columns(self._start,
                                                 np.array([t_on])))
            blocks.append(self._after.columns(psi_on[:, 0],
                                              times[split:] - t_on))
        done = 0
        for columns in itertools.chain(*blocks):
            yield order[done:done + columns.shape[1]], columns
            done += columns.shape[1]

    def battery_energy(self, times) -> np.ndarray:
        """<H_B> at each requested time, reduced one column block at a time."""
        times = self._checked_times(times)
        energies = np.empty(times.size)
        residues = np.empty(times.size)
        for positions, block in self._column_blocks(times):
            energies[positions], residues[positions] = _energy_parts(
                self._battery_block.matrix, block)
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
        for positions, block in self._column_blocks(times):
            if self._sector is not None:
                full = np.zeros((self.initial_state.dimension, block.shape[1]),
                                dtype=np.complex128)
                full[self._sector] = block
                block = full
            for position, column in zip(positions, block.T):
                states[position] = StateVector.normalized(column)
        return states
