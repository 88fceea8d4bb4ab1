"""Family builders, coupling-weight rules, and the protocol composition."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from spinbattery import (
    Family,
    HamiltonianSpec,
    ParameterError,
    PauliAxis,
    PauliTerm,
    PropagatorBackend,
    ProtocolPhase,
    ProtocolSpec,
    TimeGrid,
    assemble,
    build,
    commutator_norm,
    interaction_range,
    protocol_hamiltonian,
)

ALL_FAMILIES = list(Family)
COUPLED = [Family.ISING_NN, Family.ISING_ATA, Family.XY_NN, Family.XY_ATA]


def make_spec(family, **overrides):
    params = {}
    if family is Family.FIELD_Z:
        params["h"] = 1.0
    else:
        params["J"] = 1.0
    if family in (Family.XY_NN, Family.XY_ATA):
        params["gamma"] = 0.5
    params.update(overrides)
    return HamiltonianSpec(family, **params)


def xx_coefficient(op, site_a, site_b):
    """Weight of sigma_a^x sigma_b^x in op via the Hilbert-Schmidt inner product."""
    string = assemble(
        [PauliTerm([(site_a, PauliAxis.X), (site_b, PauliAxis.X)], 1.0)],
        op.num_qubits)
    return float(op.matrix.multiply(string.matrix).sum().real) / op.dimension


def cyclic_shift(num_qubits):
    """Permutation matrix advancing every site label by one (PBC)."""
    dim = 1 << num_qubits
    source = np.arange(dim)
    target = (source >> 1) | ((source & 1) << (num_qubits - 1))
    return sp.csr_matrix(
        (np.ones(dim), (target, source)), shape=(dim, dim))


def test_fieldz_spectrum_three_sites():
    op = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 3)
    evals = np.linalg.eigvalsh(op.to_dense())
    npt.assert_allclose(evals, [-3, -1, -1, -1, 1, 1, 1, 3], atol=1e-12)


def test_fieldz_binomial_degeneracies():
    n = 4
    op = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), n)
    evals = np.linalg.eigvalsh(op.to_dense())
    for level, expected in zip(range(-n, n + 1, 2), [1, 4, 6, 4, 1]):
        assert np.sum(np.abs(evals - level) < 1e-9) == expected


def test_isingnn_spectrum_three_sites():
    op = build(HamiltonianSpec(Family.ISING_NN, J=1.0), 3)
    evals = np.linalg.eigvalsh(op.to_dense())
    npt.assert_allclose(evals, [-1] * 6 + [3] * 2, atol=1e-12)


def test_ata_antipodal_pair_counted_once():
    op = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 4)
    assert xx_coefficient(op, 1, 3) == pytest.approx(0.5, abs=1e-14)
    assert xx_coefficient(op, 2, 4) == pytest.approx(0.5, abs=1e-14)
    assert xx_coefficient(op, 1, 2) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("num_qubits", range(4, 9))
def test_ata_single_counting_all_pairs(num_qubits):
    J = 1.25
    op = build(HamiltonianSpec(Family.ISING_ATA, J=J), num_qubits)
    max_range = interaction_range(num_qubits)
    for a in range(1, num_qubits + 1):
        for b in range(a + 1, num_qubits + 1):
            distance = min(b - a, num_qubits - (b - a))
            expected = J * 2.0 ** -(distance - 1) if distance <= max_range else 0.0
            assert xx_coefficient(op, a, b) == pytest.approx(expected, abs=1e-12)


def test_literal_sum_doubles_antipodal_weight():
    single = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 6)
    literal = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 6,
                    literal_ata_sum=True)
    # distance-3 pairs on a 6-ring are antipodal: weight 1/4 once vs twice
    assert xx_coefficient(single, 1, 4) == pytest.approx(0.25, abs=1e-14)
    assert xx_coefficient(literal, 1, 4) == pytest.approx(0.5, abs=1e-14)
    # shorter distances are unaffected
    assert xx_coefficient(literal, 1, 2) == xx_coefficient(single, 1, 2)


def test_literal_sum_is_noop_for_odd_rings():
    single = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 7)
    literal = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 7,
                    literal_ata_sum=True)
    assert (single.matrix != literal.matrix).nnz == 0


@pytest.mark.parametrize("ata,nn", [(Family.ISING_ATA, Family.ISING_NN),
                                    (Family.XY_ATA, Family.XY_NN)])
def test_range_one_reduces_to_nearest_neighbor(ata, nn):
    ranged = build(make_spec(ata, K=1), 6)
    plain = build(make_spec(nn), 6)
    assert (ranged.matrix != plain.matrix).nnz == 0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_translation_covariance(family):
    op = build(make_spec(family), 6)
    shift = cyclic_shift(6)
    defect = op.matrix @ shift - shift @ op.matrix
    norm = np.sqrt(np.abs(defect.data ** 2).sum()) if defect.nnz else 0.0
    assert norm < 1e-10


@pytest.mark.parametrize("family", COUPLED)
@pytest.mark.parametrize("num_qubits", [3, 4, 5, 6])
def test_field_never_commutes_with_couplings(family, num_qubits):
    field = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), num_qubits)
    coupled = build(make_spec(family), num_qubits)
    assert commutator_norm(field, coupled) > 1.0


def test_gamma_one_reduces_xy_to_ising():
    xy = build(HamiltonianSpec(Family.XY_NN, J=1.0, gamma=1.0), 5)
    ising = build(HamiltonianSpec(Family.ISING_NN, J=2.0), 5)
    assert (xy.matrix != ising.matrix).nnz == 0


def test_interaction_range_values():
    assert interaction_range(10) == 5
    assert interaction_range(9) == 4
    assert interaction_range(3) == 1
    with pytest.raises(ParameterError):
        interaction_range(2)


def test_spec_validation():
    assert HamiltonianSpec(Family.FIELD_Z).h == 1.0  # h missing
    assert HamiltonianSpec(Family.XY_NN, J=1.0).gamma == 0.5  # gamma missing
    with pytest.raises(ParameterError):
        HamiltonianSpec(Family.XY_NN, h=1.0)
    with pytest.raises(ParameterError):
        HamiltonianSpec(Family.XY_NN, J=1.0, gamma=1.5)
    with pytest.raises(ParameterError):
        HamiltonianSpec(Family.FIELD_Z, h=1.0, J=2.0)
    with pytest.raises(ParameterError):
        HamiltonianSpec(Family.ISING_NN, J=1.0, K=2)
    with pytest.raises(ParameterError):
        HamiltonianSpec(Family.ISING_NN, J=float("inf"))
    with pytest.raises(ParameterError):
        HamiltonianSpec("Heisenberg", J=1.0)


def test_coupling_default_is_unity():
    assert HamiltonianSpec(Family.ISING_NN).J == 1.0


# the parameters each family takes, with their defaults (K = None is the
# maximal range)
FAMILY_PARAMETERS = {
    Family.FIELD_Z: {"h": 1.0},
    Family.ISING_NN: {"J": 1.0},
    Family.ISING_ATA: {"J": 1.0, "K": None},
    Family.XY_NN: {"J": 1.0, "gamma": 0.5},
    Family.XY_ATA: {"J": 1.0, "gamma": 0.5, "K": None},
}


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_family_parameter_table(family):
    taken = FAMILY_PARAMETERS[family]
    spec = HamiltonianSpec(family)
    for key in ("h", "J", "gamma", "K"):
        assert getattr(spec, key) == taken.get(key)
        if key not in taken:
            with pytest.raises(ParameterError,
                               match=f"{key} is meaningless for {family.value}"):
                HamiltonianSpec(family, **{key: 1})
    # shared parameters carry over, the rest take defaults, and K is dropped
    field = HamiltonianSpec(Family.FIELD_Z, h=0.3)
    assert field.on_family(family) == HamiltonianSpec(
        family, h=0.3 if "h" in taken else None)
    xy = HamiltonianSpec(Family.XY_ATA, J=0.7, gamma=-0.2, K=1)
    shared = {k: v for k, v in (("J", 0.7), ("gamma", -0.2)) if k in taken}
    moved = xy.on_family(family)
    assert moved == HamiltonianSpec(family, **shared) and moved.K is None


def test_build_size_limits():
    with pytest.raises(ParameterError):
        build(HamiltonianSpec(Family.ISING_NN, J=1.0), 2)
    with pytest.raises(ParameterError):
        build(HamiltonianSpec(Family.ISING_ATA, J=1.0, K=4), 6)  # K > N/2
    # FieldZ is fine down to a single site
    assert build(HamiltonianSpec(Family.FIELD_Z, h=2.0), 1).dimension == 2


def test_protocol_spec_validation():
    battery = HamiltonianSpec(Family.FIELD_Z, h=1.0)
    charger = HamiltonianSpec(Family.ISING_NN, J=1.0)
    with pytest.raises(ParameterError):
        ProtocolSpec(battery, charger, lam=1.2, num_qubits=4)
    with pytest.raises(ParameterError):
        ProtocolSpec(battery, charger, lam=-0.1, num_qubits=4)
    with pytest.raises(ParameterError):
        ProtocolSpec(battery, charger, lam=5.5, num_qubits=4,
                     extended_lambda=True)
    with pytest.raises(ParameterError):
        ProtocolSpec(battery, charger, lam=0.5, num_qubits=2)
    with pytest.raises(ParameterError):
        ProtocolSpec(battery, charger, lam=0.5, num_qubits=4, t_on=-1.0)
    extended = ProtocolSpec(battery, charger, lam=3.7, num_qubits=4,
                            extended_lambda=True)
    assert extended.lam == 3.7
    # one site has no parity sector, and FieldZ<-FieldZ commutes anyway
    with pytest.raises(ParameterError, match=r"needs N >= 2"):
        ProtocolSpec(battery, battery, lam=0.5, num_qubits=1)
    assert ProtocolSpec(battery, battery, lam=0.5, num_qubits=2).num_qubits == 2


def test_fractional_sizes_and_ranges_are_rejected():
    battery = HamiltonianSpec(Family.FIELD_Z)
    charger = HamiltonianSpec(Family.ISING_ATA)
    with pytest.raises(ParameterError, match="ring sizes must be integers"):
        ProtocolSpec(battery, charger, lam=0.5, num_qubits=4.7)
    with pytest.raises(ParameterError, match="K must be an integer"):
        HamiltonianSpec(Family.ISING_ATA, K=2.9)
    assert ProtocolSpec(battery, charger, lam=0.5, num_qubits=6.0).num_qubits == 6
    assert HamiltonianSpec(Family.XY_ATA, K=np.int64(2)).K == 2


@pytest.mark.parametrize("convert, whole", [
    (lambda v: TimeGrid(end=1.0, refinement_factor=v).refinement_factor, 4),
    (lambda v: PropagatorBackend("krylov", krylov_dim=v).krylov_dim, 4),
    (interaction_range, 2),
    (lambda v: build(HamiltonianSpec(Family.FIELD_Z), v).num_qubits, 4),
], ids=["refinement_factor", "krylov_dim", "interaction_range", "build"])
def test_fractional_integers_are_rejected(convert, whole):
    assert convert(4.0) == whole
    with pytest.raises(ParameterError, match="must be (an )?integer"):
        convert(4.5)


def test_protocol_flags_must_be_bool():
    battery = HamiltonianSpec(Family.FIELD_Z)
    charger = HamiltonianSpec(Family.ISING_ATA)
    # "no" is truthy and would build the double-counted antipodal bonds
    with pytest.raises(ParameterError, match="literal_ata_sum"):
        ProtocolSpec(battery, charger, lam=0.5, num_qubits=4,
                     literal_ata_sum="no")
    # "false" is truthy and would open the extended lambda range
    with pytest.raises(ParameterError, match="extended_lambda"):
        ProtocolSpec(battery, charger, lam=3.0, num_qubits=4,
                     extended_lambda="false")
    # None computes the canonical numbers under a different config hash
    with pytest.raises(ParameterError, match="extended_lambda"):
        ProtocolSpec(battery, charger, lam=0.5, num_qubits=4,
                     extended_lambda=None)


def test_protocol_phases_match_definition():
    battery = HamiltonianSpec(Family.FIELD_Z, h=1.0)
    charger = HamiltonianSpec(Family.ISING_ATA, J=1.0)
    p = ProtocolSpec(battery, charger, lam=0.0, num_qubits=4)
    h_b = build(battery, 4)
    h_c = build(charger, 4)
    before = protocol_hamiltonian(p, ProtocolPhase.BEFORE_CHARGING)
    after = protocol_hamiltonian(p, ProtocolPhase.AFTER_CHARGING)
    charging = protocol_hamiltonian(p, ProtocolPhase.CHARGING)
    assert (before.matrix != h_b.matrix).nnz == 0
    assert (after.matrix != h_b.matrix).nnz == 0
    npt.assert_allclose(charging.to_dense(), (h_b + h_c).to_dense(), atol=1e-14)


def test_full_suppression_leaves_charger_only():
    p = ProtocolSpec(HamiltonianSpec(Family.FIELD_Z, h=1.0),
                     HamiltonianSpec(Family.ISING_NN, J=1.0),
                     lam=1.0, num_qubits=4)
    charging = protocol_hamiltonian(p, ProtocolPhase.CHARGING)
    charger = build(p.charger, 4)
    assert (charging.matrix != charger.matrix).nnz == 0


def test_partial_suppression_scales_battery_spectrum():
    p = ProtocolSpec(HamiltonianSpec(Family.FIELD_Z, h=1.0),
                     HamiltonianSpec(Family.FIELD_Z, h=0.0),  # zero charger
                     lam=0.5, num_qubits=3)
    charging = protocol_hamiltonian(p, ProtocolPhase.CHARGING)
    evals = np.linalg.eigvalsh(charging.to_dense())
    npt.assert_allclose(
        evals, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5], atol=1e-12)


def test_charging_equals_rescaled_battery_coupling():
    """(1-lambda) * H_B + H_C is the same matrix as J -> (1-lambda) J."""
    lam = 0.3
    charger = HamiltonianSpec(Family.FIELD_Z, h=1.0)
    p = ProtocolSpec(HamiltonianSpec(Family.ISING_NN, J=2.0), charger,
                     lam=lam, num_qubits=5)
    charging = protocol_hamiltonian(p, ProtocolPhase.CHARGING)
    rescaled = build(HamiltonianSpec(Family.ISING_NN, J=(1 - lam) * 2.0), 5)
    total = rescaled + build(charger, 5)
    npt.assert_allclose(charging.to_dense(), total.to_dense(), atol=1e-14)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_families_and_protocol_generators_store_float64(family):
    assert build(make_spec(family), 5).matrix.dtype == np.float64
    p = ProtocolSpec(make_spec(Family.XY_ATA), make_spec(family), lam=0.3,
                     num_qubits=5)
    for phase in ProtocolPhase:
        assert protocol_hamiltonian(p, phase).matrix.dtype == np.float64
