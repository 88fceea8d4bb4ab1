"""Pauli-string construction against hand-built Kronecker references."""

import numpy as np
import numpy.testing as npt
import pytest

from spinbattery import (
    ParameterError,
    PauliAxis,
    PauliTerm,
    assemble,
    commutator_norm,
    pauli_site,
)

X, Y, Z = PauliAxis.X, PauliAxis.Y, PauliAxis.Z

PAULI_2X2 = {
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_reference(factors, coefficient, num_qubits):
    """Independent dense construction: site 1 is the leftmost kron factor."""
    mats = [np.eye(2, dtype=complex)] * num_qubits
    for site, axis in factors:
        mats[site - 1] = PAULI_2X2[axis]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return coefficient * out


def test_single_qubit_matrices():
    npt.assert_array_equal(pauli_site(1, 1, Z).to_dense(), np.diag([1.0, -1.0]))
    npt.assert_array_equal(pauli_site(1, 1, X).to_dense(), PAULI_2X2[X])
    npt.assert_array_equal(pauli_site(1, 1, Y).to_dense(), PAULI_2X2[Y])


def test_x_on_last_site_swaps_last_bit():
    op = pauli_site(2, 2, X).to_dense()
    # |up,up> = index 0, |up,down> = index 1
    assert op[1, 0] == 1.0
    assert op[0, 1] == 1.0
    assert op[2, 3] == 1.0 and op[3, 2] == 1.0
    assert np.count_nonzero(op) == 4


def test_y_spectrum_half_and_half():
    op = pauli_site(3, 2, Y)
    evals = np.linalg.eigvalsh(op.to_dense())
    npt.assert_allclose(evals, [-1] * 4 + [1] * 4, atol=1e-12)


def test_assemble_field_pair():
    op = assemble([PauliTerm([(1, Z)], 1.0), PauliTerm([(2, Z)], 1.0)], 2)
    npt.assert_array_equal(op.to_dense(), np.diag([2.0, 0.0, 0.0, -2.0]))


def test_assemble_empty_is_zero():
    op = assemble([], 3)
    assert op.dimension == 8
    assert op.nnz == 0
    npt.assert_array_equal(op.to_dense(), np.zeros((8, 8)))


def test_assemble_xx_antidiagonal():
    op = assemble([PauliTerm([(1, X), (2, X)], 1.0)], 2)
    npt.assert_array_equal(op.to_dense(), np.fliplr(np.eye(4)))


def test_random_strings_match_kron(seed=7, trials=40):
    rng = np.random.default_rng(seed)
    axes = [X, Y, Z]
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        weight = int(rng.integers(1, n + 1))
        sites = rng.choice(np.arange(1, n + 1), size=weight, replace=False)
        factors = [(int(s), axes[rng.integers(3)]) for s in sites]
        coeff = float(rng.normal())
        built = assemble([PauliTerm(factors, coeff)], n).to_dense()
        npt.assert_allclose(built, kron_reference(factors, coeff, n), atol=1e-14)


def test_involution():
    for n, j, axis in [(1, 1, X), (3, 2, Y), (4, 4, Z)]:
        op = pauli_site(n, j, axis)
        square = (op.matrix @ op.matrix).toarray()
        npt.assert_allclose(square, np.eye(op.dimension), atol=1e-14)


def test_linearity_of_assemble():
    t1 = [PauliTerm([(1, X), (2, X)], 0.7), PauliTerm([(2, Z)], -1.2)]
    t2 = [PauliTerm([(3, Y), (1, Y)], 0.4)]
    combined = assemble(t1 + t2, 3)
    separate = assemble(t1, 3) + assemble(t2, 3)
    npt.assert_allclose(combined.to_dense(), separate.to_dense(), atol=1e-14)


def test_sparsity_bound_exact():
    for factors in ([(1, Z)], [(1, X), (3, Y)], [(1, X), (2, Y), (4, Z)]):
        op = assemble([PauliTerm(factors, 0.5)], 4)
        assert op.nnz == 16


def test_hermiticity_exact():
    rng = np.random.default_rng(3)
    terms = [
        PauliTerm([(1, X), (2, Y)], float(rng.normal())),
        PauliTerm([(3, Y)], float(rng.normal())),
        PauliTerm([(2, Z), (3, X)], float(rng.normal())),
    ]
    dense = assemble(terms, 3).to_dense()
    npt.assert_array_equal(dense, dense.conj().T)


def test_cancelling_terms_drop_out():
    op = assemble(
        [PauliTerm([(1, Z)], 1.0), PauliTerm([(1, Z)], -1.0)], 2)
    assert op.nnz == 0


def test_commutator_norm_self_is_zero():
    op = pauli_site(1, 1, Z)
    assert commutator_norm(op, op) == 0.0


def test_commutator_norm_pauli_pair():
    a = pauli_site(1, 1, Z)
    b = pauli_site(1, 1, X)
    npt.assert_allclose(commutator_norm(a, b), 2.0 * np.sqrt(2.0), rtol=1e-14)


def test_commutator_norm_field_vs_ising_bruteforce():
    n = 4
    field = assemble([PauliTerm([(j, Z)], 1.0) for j in range(1, n + 1)], n)
    bonds = [PauliTerm([(j, X), (j % n + 1, X)], 1.0) for j in range(1, n + 1)]
    ising = assemble(bonds, n)
    value = commutator_norm(field, ising)
    assert value > 0.0
    a = kron_reference([], 0, n) + sum(
        kron_reference([(j, Z)], 1.0, n) for j in range(1, n + 1))
    b = sum(kron_reference([(j, X), (j % n + 1, X)], 1.0, n)
            for j in range(1, n + 1))
    reference = np.linalg.norm(a @ b - b @ a, "fro")
    npt.assert_allclose(value, reference, rtol=1e-12)


def test_term_validation():
    with pytest.raises(ParameterError):
        PauliTerm([(1, X)], 1.0 + 2.0j)
    with pytest.raises(ParameterError):
        PauliTerm([(1, X), (1, Y)], 1.0)
    with pytest.raises(ParameterError):
        PauliTerm([(0, X)], 1.0)
    with pytest.raises(ParameterError):
        PauliTerm([(1, X)], float("nan"))


def test_factors_are_sorted_and_terms_compare_equal():
    a = PauliTerm([(3, Y), (1, X)], 0.5)
    b = PauliTerm([(1, X), (3, Y)], 0.5)
    assert a == b
    assert a.factors == ((1, X), (3, Y))


def test_site_out_of_range_rejected():
    with pytest.raises(ParameterError):
        assemble([PauliTerm([(4, X)], 1.0)], 3)
    with pytest.raises(ParameterError):
        pauli_site(2, 3, Z)


def test_commutator_dimension_mismatch():
    with pytest.raises(ParameterError):
        commutator_norm(pauli_site(2, 1, Z), pauli_site(3, 1, Z))


def test_text_dump_is_sorted_and_stable():
    terms = [PauliTerm([(2, Z)], -0.25), PauliTerm([(1, X), (2, X)], 1.5)]
    text = assemble(terms, 2).to_text()
    rows_cols = []
    for line in text.splitlines():
        r, c, re_part, im_part = line.split()
        rows_cols.append((int(r), int(c)))
        complex(float(re_part), float(im_part))  # parses back
    assert rows_cols == sorted(rows_cols)
    # same operator assembled in reverse term order dumps identically
    assert assemble(terms[::-1], 2).to_text() == text


def test_text_dump_round_trips_values():
    op = assemble([PauliTerm([(1, Y), (2, Y)], 1.0 / 3.0)], 2)
    dense = np.zeros((4, 4), dtype=complex)
    for line in op.to_text().splitlines():
        r, c, re_part, im_part = line.split()
        dense[int(r), int(c)] = complex(float(re_part), float(im_part))
    npt.assert_array_equal(dense, op.to_dense())


def test_real_strings_store_float64():
    op = assemble([PauliTerm([(1, Y), (2, Y)], 0.5), PauliTerm([(1, Z)], 1.0)], 2)
    assert op.matrix.dtype == np.float64
    assert assemble([], 3).matrix.dtype == np.float64


def test_single_y_string_stays_complex():
    assert pauli_site(3, 2, Y).matrix.dtype == np.complex128


def test_real_plus_complex_sum_upcasts():
    total = pauli_site(2, 1, X) + pauli_site(2, 1, Y)
    assert total.matrix.dtype == np.complex128
    npt.assert_allclose(total.to_dense(),
                        kron_reference([(1, X)], 1.0, 2)
                        + kron_reference([(1, Y)], 1.0, 2), atol=1e-15)
