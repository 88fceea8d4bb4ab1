"""Brute-force oracle checks plus oracle-vs-main-build agreement."""

import numpy as np
import numpy.testing as npt
import pytest

from spinbattery import (
    CapacityError,
    Family,
    HamiltonianSpec,
    ParameterError,
    PauliAxis,
    PauliTerm,
    PropagatorBackend,
    ProtocolEvolution,
    ProtocolPhase,
    ProtocolSpec,
    StateVector,
    assemble,
    build,
    propagate,
    protocol_hamiltonian,
    spectrum,
)
from spinbattery.oracle import DenseOperator, dense_expm_apply, xbasis_enumeration

UP = StateVector.basis_state(1, 0)
DOWN = StateVector.basis_state(1, 1)
SIGMA_X = DenseOperator([[0, 1], [1, 0]])
SIGMA_Z = DenseOperator([[1, 0], [0, -1]])


def test_eigenstate_is_phase_only():
    for t in (0.3, 1.7, -2.0):
        out = dense_expm_apply(SIGMA_Z, UP, t)
        npt.assert_allclose(out.amplitudes, UP.amplitudes, atol=1e-12)


def test_full_rabi_period_returns_up():
    out = dense_expm_apply(SIGMA_X, UP, np.pi)
    npt.assert_allclose(out.amplitudes, UP.amplitudes, atol=1e-12)


def test_half_rabi_period_reaches_down():
    out = dense_expm_apply(SIGMA_X, UP, np.pi / 2)
    npt.assert_allclose(out.amplitudes, DOWN.amplitudes, atol=1e-12)


def test_oracle_preserves_norm():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector.normalized(amps)
    ham = rng.normal(size=(8, 8))
    op = DenseOperator((ham + ham.T) / 2)
    out = dense_expm_apply(op, state, 2.4)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_dense_operator_validation():
    with pytest.raises(ParameterError):
        DenseOperator(np.array([[0, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(ParameterError):
        DenseOperator(np.zeros((3, 3)))  # not a power of two
    with pytest.raises(CapacityError):
        DenseOperator(np.zeros((2 ** 9, 2 ** 9)))  # above the oracle gate


def test_enumeration_nn_three_sites():
    data = xbasis_enumeration(HamiltonianSpec(Family.ISING_NN, J=1.0), 3)
    npt.assert_allclose(data.eigenvalues, [-1.0] * 6 + [3.0] * 2, atol=1e-14)


def test_enumeration_nn_four_sites_minimum():
    data = xbasis_enumeration(HamiltonianSpec(Family.ISING_NN, J=1.0), 4)
    assert data.eigenvalues[0] == -4.0


def test_enumeration_ata_four_sites_by_hand():
    # Ring of 4: unit nearest-neighbor bonds plus the two antipodal pairs
    # (1,3) and (2,4) at half weight, each counted once.
    by_hand = []
    for bits in range(16):
        s = [1 - 2 * ((bits >> i) & 1) for i in range(4)]
        energy = s[0] * s[1] + s[1] * s[2] + s[2] * s[3] + s[3] * s[0]
        energy += 0.5 * (s[0] * s[2] + s[1] * s[3])
        by_hand.append(energy)
    data = xbasis_enumeration(HamiltonianSpec(Family.ISING_ATA, J=1.0), 4)
    npt.assert_allclose(data.eigenvalues, sorted(by_hand), atol=1e-14)


def test_enumeration_rejects_other_families():
    with pytest.raises(ParameterError):
        xbasis_enumeration(HamiltonianSpec(Family.FIELD_Z, h=1.0), 4)
    with pytest.raises(ParameterError):
        xbasis_enumeration(HamiltonianSpec(Family.XY_NN, gamma=0.5), 4)
    with pytest.raises(CapacityError):
        xbasis_enumeration(HamiltonianSpec(Family.ISING_NN, J=1.0), 17)


@pytest.mark.parametrize("family", [Family.ISING_NN, Family.ISING_ATA])
@pytest.mark.parametrize("num_qubits", range(3, 9))
def test_oracle_agreement_with_main_build(family, num_qubits):
    spec = HamiltonianSpec(family, J=0.8)
    enumerated = xbasis_enumeration(spec, num_qubits).eigenvalues
    diagonalized = spectrum(build(spec, num_qubits)).eigenvalues
    npt.assert_allclose(diagonalized, enumerated, atol=1e-9)


def _random_hermitian_pauli_sum(rng, num_qubits):
    axes = [PauliAxis.X, PauliAxis.Y, PauliAxis.Z]
    terms = []
    for _ in range(int(rng.integers(2, 7))):
        weight = int(rng.integers(1, min(3, num_qubits) + 1))
        sites = rng.choice(np.arange(1, num_qubits + 1), size=weight, replace=False)
        factors = [(int(s), axes[rng.integers(3)]) for s in sites]
        terms.append(PauliTerm(factors, float(rng.normal())))
    return assemble(terms, num_qubits)


def test_propagator_agreement_battery(seed=2024, trials=50):
    """Both backends track the oracle on random (H, psi, t) triples."""
    rng = np.random.default_rng(seed)
    krylov = PropagatorBackend.krylov()
    dense = PropagatorBackend.dense()
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        op = _random_hermitian_pauli_sum(rng, n)
        amps = rng.normal(size=op.dimension) + 1j * rng.normal(size=op.dimension)
        state = StateVector.normalized(amps)
        t = float(rng.uniform(-3.0, 3.0))
        reference = dense_expm_apply(DenseOperator(op.to_dense()), state, t)
        for backend in (dense, krylov):
            evolved = propagate(op, state, t, backend)
            deficit = 1.0 - abs(reference.overlap(evolved))
            assert deficit < 1e-8, (n, t, backend.kind, deficit)


def _oracle_states(protocol, start, times):
    """exp(-i H t) start phase by phase, through the oracle's dense eigh."""
    h_charging = DenseOperator(
        protocol_hamiltonian(protocol, ProtocolPhase.CHARGING).to_dense())
    h_after = DenseOperator(
        protocol_hamiltonian(protocol, ProtocolPhase.AFTER_CHARGING).to_dense())
    t_on = protocol.t_on
    states = []
    for t in times:
        if t_on is None or t <= t_on:
            states.append(dense_expm_apply(h_charging, start, t))
        else:
            at_on = dense_expm_apply(h_charging, start, t_on)
            states.append(dense_expm_apply(h_after, at_on, t - t_on))
    return states


@pytest.mark.parametrize("t_on, backend", [
    pytest.param(None, PropagatorBackend.dense(), id="always-on"),
    pytest.param(1.1, PropagatorBackend.dense(), id="t_on"),
    pytest.param(None, PropagatorBackend.krylov(), id="always-on-krylov"),
    pytest.param(1.1, PropagatorBackend.krylov(), id="t_on-krylov"),
])
@pytest.mark.parametrize("charger", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("battery", list(Family), ids=lambda f: f.value)
def test_protocol_evolution_matches_oracle(battery, charger, t_on, backend):
    """Protocol energies and states track the oracle on every pair."""
    _assert_matches_oracle(ProtocolSpec(HamiltonianSpec(battery),
                                        HamiltonianSpec(charger),
                                        lam=0.4, num_qubits=6, t_on=t_on),
                           backend)


@pytest.mark.parametrize("t_on", [None, 1.1], ids=["always-on", "t_on"])
@pytest.mark.parametrize("battery", [f for f in Family if f is not Family.FIELD_Z],
                         ids=lambda f: f.value)
def test_field_charger_at_full_countereffect_matches_oracle(battery, t_on):
    """At lambda=1 the field charger alone drives: a diagonal generator."""
    protocol = ProtocolSpec(HamiltonianSpec(battery),
                            HamiltonianSpec(Family.FIELD_Z),
                            lam=1.0, num_qubits=6, t_on=t_on)
    charging = protocol_hamiltonian(protocol, ProtocolPhase.CHARGING).matrix
    assert charging.nnz == np.count_nonzero(charging.diagonal())
    _assert_matches_oracle(protocol, PropagatorBackend.dense())


def _assert_matches_oracle(protocol, backend):
    engine = ProtocolEvolution(protocol, backend)
    times = np.array([2.5, 0.0, 0.37, 1.1, 4.0])
    h_battery = engine.h_battery.to_dense()
    reference = _oracle_states(protocol, engine.initial_state, times)
    expected = [np.vdot(ref.amplitudes, h_battery @ ref.amplitudes).real
                for ref in reference]
    npt.assert_allclose(engine.battery_energy(times), expected, rtol=0,
                        atol=1e-10)
    for state, ref in zip(engine.states(times), reference):
        overlap = np.vdot(ref.amplitudes, state.amplitudes)
        aligned = state.amplitudes * (overlap.conjugate() / abs(overlap))
        npt.assert_allclose(aligned, ref.amplitudes, rtol=0, atol=1e-10)


def test_mixed_parity_start_keeps_the_full_register(monkeypatch):
    """A psi_0 spread over both parity sectors is propagated in full."""
    protocol = ProtocolSpec(HamiltonianSpec(Family.FIELD_Z),
                            HamiltonianSpec(Family.ISING_ATA),
                            lam=0.4, num_qubits=6, t_on=1.1)
    h_battery = build(protocol.battery, 6)
    amplitudes = np.zeros(1 << 6)
    amplitudes[:2] = np.sqrt(0.5)  # |0...00> + |0...01>, opposite parities
    start = StateVector(amplitudes)
    monkeypatch.setattr("spinbattery.dynamics._battery_ground",
                        lambda *args: (h_battery, 5.0, start))
    engine = ProtocolEvolution(protocol, PropagatorBackend.dense())
    times = np.array([2.5, 0.0, 0.37, 1.1, 4.0])
    dense = h_battery.to_dense()
    expected = [np.vdot(ref.amplitudes, dense @ ref.amplitudes).real
                for ref in _oracle_states(protocol, start, times)]
    npt.assert_allclose(engine.battery_energy(times), expected, rtol=0,
                        atol=1e-10)


def _support_protocol(battery, charger, lam, num_qubits):
    return ProtocolSpec(HamiltonianSpec(battery),
                        HamiltonianSpec(charger), lam=lam,
                        num_qubits=num_qubits)


def _assert_energies_match_oracle(engine, start, times):
    dense = engine.h_battery.to_dense()
    expected = [np.vdot(ref.amplitudes, dense @ ref.amplitudes).real
                for ref in _oracle_states(engine.protocol, start, times)]
    npt.assert_allclose(engine.battery_energy(times), expected, rtol=0,
                        atol=1e-10)


SUPPORT_TIMES = np.array([0.0, 0.37, 2.5, 40.0])


@pytest.mark.parametrize("num_qubits", [8, 10])
def test_symmetric_start_is_sampled_on_its_support(num_qubits):
    """psi_0 occupies few charging eigenvectors; <H_B> is reduced there."""
    engine = ProtocolEvolution(
        _support_protocol(Family.FIELD_Z, Family.ISING_ATA, 0.5, num_qubits),
        PropagatorBackend.dense())
    if num_qubits <= 8:  # the oracle's own capacity
        _assert_energies_match_oracle(engine, engine.initial_state,
                                      SUPPORT_TIMES)
    else:
        engine.battery_energy(SUPPORT_TIMES)
    frame = engine._charging_frame
    sector_dim, kept = frame.basis.shape
    assert sector_dim == 1 << (num_qubits - 1)
    assert 4 * kept <= sector_dim
    assert frame.energy_matrix.shape == (kept, kept)


def test_light_start_component_is_kept(monkeypatch):
    """A 1e-20-weight component outside psi_0's support is still sampled."""
    protocol = _support_protocol(Family.FIELD_Z, Family.ISING_ATA, 0.5, 8)
    engine = ProtocolEvolution(protocol, PropagatorBackend.dense())
    engine.battery_energy([0.0])
    kept = engine._charging_frame.basis.shape[1]
    # the charging eigenvector psi_0 overlaps least, embedded in the register
    vecs = spectrum(engine._charging_block, want_vectors=True).eigenvectors
    outside = vecs[:, np.argmin(np.abs(vecs.T @ engine._start))]
    light = np.zeros(1 << 8)
    light[engine._sector] = outside
    start = StateVector.normalized(
        engine.initial_state.amplitudes + 1e-10 * light)
    monkeypatch.setattr(
        "spinbattery.dynamics._battery_ground",
        lambda *args: (engine.h_battery, engine.ground_energy, start))
    engine = ProtocolEvolution(protocol, PropagatorBackend.dense())
    _assert_energies_match_oracle(engine, start, SUPPORT_TIMES)
    basis = engine._charging_frame.basis
    assert basis.shape[1] == kept + 1
    assert np.abs(basis.T @ outside).max() == pytest.approx(1.0, abs=1e-9)


def test_full_support_collapses_to_one_column_per_energy():
    """With the battery switched off psi_0 spreads over most eigenvectors of
    the field charger, yet occupies only a few distinct energies."""
    engine = ProtocolEvolution(
        _support_protocol(Family.ISING_NN, Family.FIELD_Z, 1.0, 8),
        PropagatorBackend.dense())
    _assert_energies_match_oracle(engine, engine.initial_state, SUPPORT_TIMES)
    data = spectrum(engine._charging_block, want_vectors=True)
    occupied = np.abs(data.eigenvectors.T @ engine._start) > 1e-12
    levels = np.unique(data.eigenvalues[occupied]).size
    assert 2 * occupied.sum() > 1 << 7 and levels < 10
    frame = engine._charging_frame
    assert frame.basis.shape == (1 << 7, levels)
    assert frame.energy_matrix.shape == (levels, levels)


def test_after_t_on_frame_keeps_one_column_per_battery_level():
    """The after-t_on frame lives in H_B's eigenbasis, which has few levels."""
    protocol = ProtocolSpec(HamiltonianSpec(Family.ISING_NN),
                            HamiltonianSpec(Family.XY_ATA), lam=0.4,
                            num_qubits=8, t_on=3.3)
    engine = ProtocolEvolution(protocol, PropagatorBackend.dense())
    _assert_energies_match_oracle(engine, engine.initial_state,
                                  np.array([0.0, 2.0, 3.3, 4.0, 40.0]))
    levels = len(spectrum(engine._battery_block).degeneracies())
    assert engine._after_frame.basis.shape[1] <= levels
