"""Reference physics for checking benchmark outputs, built apart from ``src/``.

Nothing here imports spinbattery.  Hamiltonians are Kronecker products of
the 2x2 Pauli matrices, states are propagated with
``scipy.sparse.linalg.expm_multiply``, and two protocols have closed forms.

Conventions shared with the program's documented model (README.md): site 1
is the most significant bit of a basis index, bit 0 is spin up
(sigma^z = +1), rings are periodic, and an even ring's antipodal bond enters
once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

_PAULI = {
    "I": sp.identity(2, dtype=np.complex128, format="csr"),
    "X": sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=np.complex128)),
    "Z": sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=np.complex128)),
}


def pauli_string(num_qubits: int, factors: dict) -> sp.csr_matrix:
    """Kronecker product with ``factors[site]`` (0-based) and identities elsewhere."""
    out = sp.identity(1, dtype=np.complex128, format="csr")
    for site in range(num_qubits):
        out = sp.kron(out, _PAULI[factors.get(site, "I")], format="csr")
    return out


def ring_bonds(num_qubits: int, all_to_all: bool):
    """(site_a, site_b, weight) per bond: nearest neighbours, or every pair
    with weight 2**-(d-1) at ring distance d, each pair once."""
    bonds = []
    for a in range(num_qubits):
        for b in range(a + 1, num_qubits):
            d = min(b - a, num_qubits - (b - a))
            if all_to_all:
                bonds.append((a, b, 2.0 ** -(d - 1)))
            elif d == 1:
                bonds.append((a, b, 1.0))
    return bonds


def hamiltonian(family: str, num_qubits: int, h: float = 1.0,
                J: float = 1.0) -> sp.csr_matrix:
    """FieldZ, IsingNN or IsingATA on a periodic ring."""
    if family == "FieldZ":
        terms = [(h, {site: "Z"}) for site in range(num_qubits)]
    elif family in ("IsingNN", "IsingATA"):
        terms = [(J * w, {a: "X", b: "X"})
                 for a, b, w in ring_bonds(num_qubits, family == "IsingATA")]
    else:
        raise ValueError(f"no reference Hamiltonian for {family!r}")
    dim = 1 << num_qubits
    out = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for coefficient, factors in terms:
        out = out + coefficient * pauli_string(num_qubits, factors)
    return out.tocsr()


def spectral_width(family: str, num_qubits: int, h: float = 1.0,
                   J: float = 1.0) -> float:
    """Largest minus smallest eigenvalue of the battery: 2hN for FieldZ,
    2JN for an even IsingNN ring."""
    if family == "FieldZ":
        return 2.0 * abs(h) * num_qubits
    if family == "IsingNN" and num_qubits % 2 == 0:
        return 2.0 * abs(J) * num_qubits
    raise ValueError(f"no closed-form width for {family} at N={num_qubits}")


def all_down(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[-1] = 1.0
    return state


def eigen_residual(h_battery, state: np.ndarray, energy: float) -> float:
    """||H psi - E psi|| for a unit vector psi."""
    return float(np.linalg.norm(h_battery @ state - energy * state))


def stored_energy(h_battery, h_charging, state: np.ndarray, times) -> np.ndarray:
    """delta_e(t) = <psi(t)|H_B|psi(t)> - <psi(0)|H_B|psi(0)> under a constant
    charging generator, stepping through the sorted times."""
    times = np.asarray(times, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    origin = np.vdot(state, h_battery @ state).real
    out = np.empty(times.size)
    psi, now = state.astype(np.complex128), 0.0
    for idx in order:
        dt = times[idx] - now
        if dt:
            psi = expm_multiply(-1j * dt * h_charging, psi)
            now = times[idx]
        out[idx] = np.vdot(psi, h_battery @ psi).real - origin
    return out


def field_battery_ising_charger(times, num_qubits: int, h: float = 1.0,
                                J: float = 1.0, all_to_all: bool = True):
    """delta_e(t) = hN (1 - prod_k cos(2 J_k t)) for the all-down state of a
    FieldZ battery under a pure Ising charger (lambda = 1), over one site's
    partners k with their coupling J_k."""
    times = np.asarray(times, dtype=np.float64)
    product = np.ones_like(times)
    for a, b, w in ring_bonds(num_qubits, all_to_all):
        if a == 0:
            product = product * np.cos(2.0 * J * w * times)
    return h * num_qubits * (1.0 - product)


def ising_battery_field_charger(times, num_qubits: int, h: float = 1.0,
                                J: float = 1.0):
    """delta_e(t) = JN sin^2(2ht) for an even IsingNN ring's ground space under
    a pure FieldZ charger (lambda = 1)."""
    if num_qubits % 2:
        raise ValueError("the closed form holds for even rings")
    times = np.asarray(times, dtype=np.float64)
    return J * num_qubits * np.sin(2.0 * h * times) ** 2
