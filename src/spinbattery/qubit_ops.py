"""Sparse Pauli-string operators on a register of spin-1/2 sites.

Index conventions used across the package:

* Basis states are labeled by N-bit integers.  Site 1 maps to the most
  significant bit, site N to the least significant one.
* Bit value 0 means spin up (``sigma^z`` eigenvalue +1), bit value 1 spin
  down.  The all-down product state is therefore basis index ``2**N - 1``.
* Sites are numbered 1..N; matrix rows/columns are numbered from 0.

Operators are kept in canonical CSR form: duplicate entries summed, explicit
zeros dropped, column indices sorted within each row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError

HERMITICITY_TOL = 1e-12


class PauliAxis(enum.Enum):
    X = "X"
    Y = "Y"
    Z = "Z"


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a product of single-site Pauli matrices.

    ``factors`` holds (site, axis) pairs acting on distinct sites; every
    site not mentioned carries the identity.  Factors are stored sorted by
    site so equal terms compare equal.
    """

    factors: tuple[tuple[int, PauliAxis], ...]
    coefficient: float

    def __init__(self, factors, coefficient):
        if isinstance(coefficient, complex):
            raise ParameterError("coefficient must be real, got complex")
        coefficient = float(coefficient)
        if not np.isfinite(coefficient):
            raise ParameterError(f"coefficient must be finite, got {coefficient}")
        normalized = []
        for site, axis in factors:
            site = int(site)
            if site < 1:
                raise ParameterError(f"site index must be >= 1, got {site}")
            if not isinstance(axis, PauliAxis):
                axis = PauliAxis(axis)
            normalized.append((site, axis))
        normalized.sort(key=lambda factor: factor[0])
        sites = [s for s, _ in normalized]
        if len(set(sites)) != len(sites):
            raise ParameterError(f"repeated site in Pauli term: {sites}")
        object.__setattr__(self, "factors", tuple(normalized))
        object.__setattr__(self, "coefficient", coefficient)


class SparseOperator:
    """Hermitian operator on ``2**num_qubits`` dimensions, stored as CSR.

    The matrix is float64 whenever every entry is real (all Hamiltonian
    families: sigma^y only enters in pairs) and complex128 otherwise.
    """

    def __init__(self, matrix, num_qubits: int, check_hermitian: bool = True):
        num_qubits = int(num_qubits)
        if num_qubits < 1:
            raise ParameterError(f"num_qubits must be >= 1, got {num_qubits}")
        dim = 1 << num_qubits
        matrix = sp.csr_matrix(matrix, shape=(dim, dim))
        matrix.sum_duplicates()
        if np.iscomplexobj(matrix.data) and not np.any(matrix.data.imag):
            matrix = matrix.real
        matrix = matrix.astype(
            np.complex128 if np.iscomplexobj(matrix.data) else np.float64,
            copy=False)
        matrix.eliminate_zeros()
        matrix.sort_indices()
        if check_hermitian:
            defect = matrix - matrix.getH()
            if defect.nnz and np.abs(defect.data).max() > HERMITICITY_TOL:
                raise ParameterError(
                    "matrix is not Hermitian within "
                    f"{HERMITICITY_TOL} (max defect {np.abs(defect.data).max():.3e})"
                )
        self.matrix = matrix
        self.num_qubits = num_qubits

    @property
    def dimension(self) -> int:
        return 1 << self.num_qubits

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def to_dense(self) -> np.ndarray:
        """The dense matrix in Fortran order, ready for LAPACK to overwrite."""
        return self.matrix.toarray(order="F")

    def to_text(self) -> str:
        """Dump entries as ``row col re im`` lines, sorted by (row, col).

        Floats are written with ``repr`` so the dump round-trips exactly;
        equal operators produce identical text.
        """
        coo = self.matrix.tocoo()  # CSR iteration order is already (row, col)
        lines = [
            f"{r} {c} {float(v.real)!r} {float(v.imag)!r}"
            for r, c, v in zip(coo.row, coo.col, coo.data)
        ]
        return "\n".join(lines)

    def _require_same_shape(self, other: "SparseOperator") -> None:
        if self.num_qubits != other.num_qubits:
            raise ParameterError(
                f"operator size mismatch: {self.num_qubits} vs {other.num_qubits} qubits"
            )

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if not isinstance(other, SparseOperator):
            return NotImplemented
        self._require_same_shape(other)
        return SparseOperator(self.matrix + other.matrix, self.num_qubits,
                              check_hermitian=False)

    def __mul__(self, scalar) -> "SparseOperator":
        if isinstance(scalar, complex) and scalar.imag != 0.0:
            raise ParameterError("scaling by a complex factor breaks Hermiticity")
        return SparseOperator(self.matrix * float(scalar.real if isinstance(scalar, complex) else scalar),
                              self.num_qubits, check_hermitian=False)

    __rmul__ = __mul__


def _check_site(num_qubits: int, site: int) -> None:
    if not 1 <= site <= num_qubits:
        raise ParameterError(
            f"site {site} outside register of {num_qubits} qubits")


def _term_entries(term: PauliTerm, num_qubits: int):
    """COO data for one Pauli string over the full basis.

    Every basis column contributes exactly one entry, so a k-factor term
    always yields 2**num_qubits stored values.
    """
    dim = 1 << num_qubits
    cols = np.arange(dim, dtype=np.int64)
    flip_mask = 0
    phase = np.full(dim, term.coefficient, dtype=np.complex128)
    for site, axis in term.factors:
        _check_site(num_qubits, site)
        bit = num_qubits - site
        bitval = (cols >> bit) & 1
        if axis is PauliAxis.Z:
            phase *= 1.0 - 2.0 * bitval
        elif axis is PauliAxis.X:
            flip_mask |= 1 << bit
        else:  # Y flips like X and adds +/-i depending on the source bit
            flip_mask |= 1 << bit
            phase *= 1j * (1.0 - 2.0 * bitval)
    rows = cols ^ flip_mask
    return rows, cols, phase


def pauli_site(num_qubits: int, site: int, axis: PauliAxis) -> SparseOperator:
    """Single-site Pauli matrix embedded in the full register."""
    _check_site(num_qubits, int(site))
    return assemble([PauliTerm([(site, axis)], 1.0)], num_qubits)


def assemble(terms, num_qubits: int) -> SparseOperator:
    """Sum a collection of PauliTerms into one canonical sparse operator.

    An empty collection gives the zero operator.
    """
    num_qubits = int(num_qubits)
    if num_qubits < 1:
        raise ParameterError(f"num_qubits must be >= 1, got {num_qubits}")
    dim = 1 << num_qubits
    terms = list(terms)
    if not terms:
        return SparseOperator(sp.csr_matrix((dim, dim)), num_qubits,
                              check_hermitian=False)
    rows, cols, vals = [], [], []
    for term in terms:
        if not isinstance(term, PauliTerm):
            raise ParameterError(f"expected PauliTerm, got {type(term).__name__}")
        r, c, v = _term_entries(term, num_qubits)
        rows.append(r)
        cols.append(c)
        vals.append(v)
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    # Pauli strings with real coefficients sum to a Hermitian matrix exactly,
    # so the constructor check is redundant here; keep it on as a cheap guard.
    return SparseOperator(coo, num_qubits)


def commutator_norm(a: SparseOperator, b: SparseOperator) -> float:
    """Frobenius norm of [A, B].  Zero iff the operators commute."""
    if a.num_qubits != b.num_qubits:
        raise ParameterError(
            f"operator size mismatch: {a.num_qubits} vs {b.num_qubits} qubits")
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    if comm.nnz == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(comm.data) ** 2)))
