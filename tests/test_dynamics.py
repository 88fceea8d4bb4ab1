"""Ground states, propagation backends, and the piecewise protocol engine."""

import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from spinbattery import (
    CapacityError,
    Family,
    HamiltonianSpec,
    NumericalError,
    ParameterError,
    PauliAxis,
    PauliTerm,
    PropagatorBackend,
    ProtocolEvolution,
    ProtocolSpec,
    SparseOperator,
    SpectralData,
    StateVector,
    assemble,
    build,
    expectation,
    ground_state,
    pauli_site,
    propagate,
    spectrum,
)
from spinbattery import dynamics
from spinbattery.dynamics import (DEGENERACY_TOL, _SUPPORT_DROP_WEIGHT,
                                  _select_ground_representative, _support)
from spinbattery.metrics import TimeGrid, stored_energy_series
from spinbattery.oracle import dense_expm_apply, xbasis_enumeration

DENSE = PropagatorBackend()
KRYLOV = PropagatorBackend("krylov")


def field_protocol(charger_family=Family.ISING_ATA, lam=1.0, num_qubits=6,
                   **kwargs):
    return ProtocolSpec(
        HamiltonianSpec(Family.FIELD_Z, h=1.0),
        HamiltonianSpec(charger_family, J=1.0)
        if charger_family is not Family.XY_ATA
        else HamiltonianSpec(charger_family, J=1.0, gamma=0.5),
        lam=lam, num_qubits=num_qubits, **kwargs)


def odd_parity(num_qubits):
    """Mask of the basis states with an odd number of down spins."""
    return np.array([bin(i).count("1") % 2 == 1
                     for i in range(1 << num_qubits)])


def no_spectrum(*args, **kwargs):
    raise AssertionError("no dense eigensystem may be built here")


# ---------------------------------------------------------------------------
# StateVector


def test_canonical_phase_is_fixed():
    amps = np.array([0.0, 1j, 0.0, 0.0])
    state = StateVector(amps)
    npt.assert_allclose(state.amplitudes, [0, 1, 0, 0], atol=1e-15)


def test_global_phase_equivalence():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    base = StateVector.normalized(amps)
    rotated = StateVector.normalized(np.exp(0.73j) * amps)
    npt.assert_allclose(base.amplitudes, rotated.amplitudes, atol=1e-12)


def test_norm_is_enforced():
    with pytest.raises(ParameterError):
        StateVector([1.0, 1.0])
    with pytest.raises(ParameterError):
        StateVector.normalized([0.0, 0.0])
    with pytest.raises(ParameterError):
        StateVector([0.6, 0.8, 0.0])  # not a power-of-two length


def test_basis_state_and_overlap():
    up = StateVector.basis_state(2, 0)
    down = StateVector.basis_state(2, 3)
    assert up.overlap(down) == 0.0
    assert up.overlap(up) == pytest.approx(1.0)
    assert up.num_qubits == 2


def test_state_text_dump():
    state = StateVector.basis_state(1, 1)
    assert state.to_text().splitlines() == ["0 0.0 0.0", "1 1.0 0.0"]


# ---------------------------------------------------------------------------
# spectrum / SpectralData


def test_spectrum_single_site_x():
    data = spectrum(pauli_site(1, 1, PauliAxis.X))
    npt.assert_allclose(data.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_spectrum_fieldz_degeneracies():
    data = spectrum(build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 4))
    assert data.degeneracies() == [(-4.0, 1), (-2.0, 4), (0.0, 6), (2.0, 4), (4.0, 1)]


def test_spectrum_xy_symmetric_about_zero_even_rings():
    # Rotating one sublattice by sigma^z flips the sign of every XX and YY
    # bond, so bipartite (even) rings have reflection-symmetric spectra.
    # Odd rings are frustrated and genuinely asymmetric (checked against a
    # dense Kronecker brute force), so only even sizes are asserted here.
    for n in (4, 6):
        data = spectrum(build(HamiltonianSpec(Family.XY_NN, J=1.0, gamma=0.5), n))
        npt.assert_allclose(data.eigenvalues, -data.eigenvalues[::-1], atol=1e-10)


def test_spectrum_capacity_gate():
    with pytest.raises(CapacityError):
        spectrum(pauli_site(14, 1, PauliAxis.Z))


def no_lapack(*args, **kwargs):
    raise AssertionError("a diagonal operator needs no LAPACK call")


def test_diagonal_spectrum_is_read_off_the_diagonal(monkeypatch):
    # FieldZ at even N has zero-energy levels, i.e. zero diagonal entries
    operators = [build(HamiltonianSpec(Family.FIELD_Z, h=1.0), n)
                 for n in range(3, 9)]
    lapack = [sla.eigh(op.to_dense(), driver="evd")[0] for op in operators]
    monkeypatch.setattr(dynamics.sla, "eigh", no_lapack)
    for op, reference in zip(operators, lapack):
        data = spectrum(op, want_vectors=True)
        assert data.eigenvalues.tobytes() == reference.tobytes()
        assert spectrum(op).eigenvalues.tobytes() == reference.tobytes()
        npt.assert_array_equal(op.to_dense() @ data.eigenvectors,
                               data.eigenvectors * data.eigenvalues)


def test_one_off_diagonal_pair_takes_the_lapack_route(monkeypatch):
    matrix = np.diag(np.linspace(-1.0, 1.0, 16))
    matrix[3, 9] = matrix[9, 3] = 0.3
    op = SparseOperator(matrix, 4)
    calls, eigh = [], sla.eigh

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(dynamics.sla, "eigh", counting)
    data = spectrum(op, want_vectors=True)
    assert len(calls) == 1 and calls[0]["overwrite_a"]
    vals, vecs = np.linalg.eigh(matrix)
    npt.assert_allclose(data.eigenvalues, vals, rtol=0, atol=1e-12)
    npt.assert_allclose(np.abs(data.eigenvectors), np.abs(vecs), rtol=0,
                        atol=1e-12)
    npt.assert_allclose(matrix @ data.eigenvectors,
                        data.eigenvectors * data.eigenvalues, rtol=0,
                        atol=1e-12)


def test_spectrum_leaves_the_operator_unchanged():
    for op in (build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 5),
               build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 5)):
        data = op.matrix.data.copy()
        spectrum(op, want_vectors=True)
        spectrum(op)
        assert op.matrix.data.tobytes() == data.tobytes()


def test_spectrum_peak_memory_in_matrices():
    # in-place LAPACK: the buffer that becomes V plus syevd's 2 d^2
    # workspace; the diagonal route allocates V alone
    field = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 10)
    mixed = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 10) + field
    for op, bound in ((mixed, 3.25), (field, 1.25)):
        tracemalloc.start()
        try:
            spectrum(op, want_vectors=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * op.dimension ** 2 * 8


def test_spectral_data_requires_ascending():
    with pytest.raises(ParameterError):
        SpectralData(np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# ground states


def test_fieldz_ground_is_all_down():
    energy, state = ground_state(build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 5))
    assert energy == pytest.approx(-5.0, abs=1e-10)
    npt.assert_allclose(state.amplitudes, StateVector.basis_state(5, 31).amplitudes,
                        atol=1e-10)


def test_zero_operator_ground_is_deterministic():
    from spinbattery import assemble
    zero = assemble([], 2)
    energy, state = ground_state(zero)
    assert energy == 0.0
    npt.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_isingnn_ground_energy_matches_enumeration():
    spec = HamiltonianSpec(Family.ISING_NN, J=1.0)
    energy, _ = ground_state(build(spec, 3))
    assert energy == pytest.approx(-1.0, abs=1e-10)
    # large enough to take the iterative path (dimension 1024)
    energy10, _ = ground_state(build(spec, 10))
    reference = xbasis_enumeration(spec, 10).eigenvalues[0]
    assert energy10 == pytest.approx(reference, abs=1e-9)


def test_degenerate_selection_is_reproducible():
    op = build(HamiltonianSpec(Family.ISING_NN, J=1.0), 6)
    _, first = ground_state(op)
    _, second = ground_state(op)
    npt.assert_array_equal(first.amplitudes, second.amplitudes)


def test_arpack_ground_state_is_bit_reproducible():
    # these few-level batteries close ARPACK's Krylov space early, and its
    # random restart vector must come from a seeded generator
    for spec, num_qubits in ((HamiltonianSpec(Family.FIELD_Z, h=1.0), 10),
                             (HamiltonianSpec(Family.ISING_NN, J=1.0), 12)):
        op = build(spec, num_qubits)
        _, first = ground_state(op)
        _, second = ground_state(op)
        assert first.amplitudes.tobytes() == second.amplitudes.tobytes()


def test_iterative_path_agrees_with_dense_selection():
    # FieldZ at N=10 exercises ARPACK; its unique ground state is basis 1023
    energy, state = ground_state(build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 10))
    assert energy == pytest.approx(-10.0, abs=1e-9)
    npt.assert_allclose(state.amplitudes,
                        StateVector.basis_state(10, 1023).amplitudes, atol=1e-8)


def _dense_route_ground(op):
    data = spectrum(op, want_vectors=True)
    inside = data.eigenvalues <= data.eigenvalues[0] + DEGENERACY_TOL
    return (data.eigenvalues[0],
            _select_ground_representative(data.eigenvectors[:, inside]))


def test_partial_arpack_cluster_falls_back_to_dense():
    # The IsingNN ground level at N=11 is 22-fold; ARPACK returned a few
    # copies of it next to an excited state, a vector mixing both parities
    # that changed from call to call.
    op = build(HamiltonianSpec(Family.ISING_NN), 11)
    expected_energy, expected = _dense_route_ground(op)
    for _ in range(2):
        energy, state = ground_state(op)
        assert energy == pytest.approx(expected_energy, abs=1e-9)
        npt.assert_allclose(state.amplitudes, expected.amplitudes, rtol=0,
                            atol=1e-10)


def test_parity_guard_spares_operators_that_break_parity(monkeypatch):
    # sum_j sigma^x_j does not conserve P: its unique ground state |-...->
    # lies in both sectors, and ARPACK's answer stands
    op = assemble([PauliTerm([(j, PauliAxis.X)], 1.0) for j in range(1, 11)],
                  10)
    monkeypatch.setattr("spinbattery.dynamics.spectrum", no_spectrum)
    energy, state = ground_state(op)
    assert energy == pytest.approx(-10.0, abs=1e-9)
    npt.assert_allclose(state.amplitudes,
                        np.where(odd_parity(10), -1.0, 1.0) / 32, atol=1e-8)


def test_arpack_failure_falls_back_to_dense(monkeypatch):
    op = build(HamiltonianSpec(Family.XY_NN), 10)
    expected_energy, expected = _dense_route_ground(op)

    def failing(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(dynamics.spla, "eigsh", failing)
    energy, state = ground_state(op)
    assert energy == pytest.approx(expected_energy, abs=1e-9)
    npt.assert_allclose(state.amplitudes, expected.amplitudes, rtol=0,
                        atol=1e-10)


def test_mixed_parity_arpack_ground_falls_back_to_dense(monkeypatch):
    # FieldZ conserves P, so a ground vector over both parities is wrong
    op = build(HamiltonianSpec(Family.FIELD_Z), 10)
    mixed = np.zeros((op.dimension, 2))
    mixed[[1022, 1023], 0] = np.sqrt(0.5)  # popcounts 9 and 10
    mixed[1021, 1] = 1.0

    def mixed_parity(*args, **kwargs):
        return np.array([-10.0, -8.0]), mixed

    monkeypatch.setattr(dynamics.spla, "eigsh", mixed_parity)
    energy, state = ground_state(op)
    assert energy == pytest.approx(-10.0, abs=1e-12)
    npt.assert_allclose(state.amplitudes,
                        StateVector.basis_state(10, 1023).amplitudes,
                        rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# expectation


def test_expectation_all_down_field():
    op = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 8)
    state = StateVector.basis_state(8, 255)
    assert expectation(op, state) == pytest.approx(-8.0, abs=1e-12)


def test_expectation_balanced_superposition():
    plus = StateVector.normalized([1.0, 1.0])
    assert expectation(pauli_site(1, 1, PauliAxis.Z), plus) == pytest.approx(0.0, abs=1e-14)


def test_expectation_within_rayleigh_bounds():
    rng = np.random.default_rng(9)
    op = build(HamiltonianSpec(Family.XY_ATA, J=1.0, gamma=0.3), 5)
    data = spectrum(op)
    for _ in range(10):
        state = StateVector.normalized(
            rng.normal(size=32) + 1j * rng.normal(size=32))
        value = expectation(op, state)
        assert data.eigenvalues[0] - 1e-10 <= value <= data.eigenvalues[-1] + 1e-10


def test_expectation_dimension_mismatch():
    with pytest.raises(ParameterError):
        expectation(pauli_site(2, 1, PauliAxis.Z), StateVector.basis_state(3, 0))


# ---------------------------------------------------------------------------
# propagate


def test_eigenstate_evolution_is_stationary():
    op = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 4)
    _, ground = ground_state(op)
    for backend in (DENSE, KRYLOV):
        evolved = propagate(op, ground, 2.7, backend)
        npt.assert_allclose(evolved.amplitudes, ground.amplitudes, atol=1e-9)


def test_half_rabi_flip():
    op = pauli_site(1, 1, PauliAxis.X)
    up = StateVector.basis_state(1, 0)
    for backend in (DENSE, KRYLOV):
        evolved = propagate(op, up, np.pi / 2, backend)
        npt.assert_allclose(evolved.amplitudes,
                            StateVector.basis_state(1, 1).amplitudes, atol=1e-10)


@pytest.mark.parametrize("backend", [DENSE, KRYLOV], ids=["dense", "krylov"])
def test_unitarity_composition_reversibility(backend):
    rng = np.random.default_rng(17)
    op = build(HamiltonianSpec(Family.XY_ATA, J=1.0, gamma=0.5), 5)
    h_field = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 5)
    state = StateVector.normalized(rng.normal(size=32) + 1j * rng.normal(size=32))
    t1, t2 = 1.3, 2.9
    step = propagate(op, state, t1, backend)
    assert abs(np.linalg.norm(step.amplitudes) - 1.0) < 1e-10
    two_steps = propagate(op, step, t2, backend)
    direct = propagate(op, state, t1 + t2, backend)
    assert 1.0 - abs(two_steps.overlap(direct)) < 1e-8
    back = propagate(op, step, -t1, backend)
    assert 1.0 - abs(back.overlap(state)) < 1e-8
    # energy conservation along the evolution
    e0 = expectation(h_field, state)
    drift = max(
        abs(expectation(h_field,
                        propagate(op, state, t, backend)) - e0)
        for t in (0.0,))
    assert drift < 1e-9
    e_op0 = expectation(op, state)
    for t in (0.7, 4.2):
        assert abs(expectation(op, propagate(op, state, t, backend)) - e_op0) < 1e-9


def test_backend_equivalence_long_window():
    op = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 6)
    state = StateVector.basis_state(6, 63)
    for t in (0.5, 7.0, 20.0):
        dense = propagate(op, state, t, DENSE)
        krylov = propagate(op, state, t, KRYLOV)
        assert 1.0 - abs(dense.overlap(krylov)) < 1e-8


def test_krylov_breakdown_is_exact():
    # an eigenstate collapses the Krylov space after one vector
    op = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), 3)
    state = StateVector.basis_state(3, 7)
    evolved = propagate(op, state, 5.0, KRYLOV)
    npt.assert_allclose(evolved.amplitudes, state.amplitudes, atol=1e-12)


def test_small_krylov_dimension_still_converges():
    op = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 5)
    state = StateVector.basis_state(5, 31)
    tight = PropagatorBackend("krylov", krylov_dim=4, tolerance=1e-10)
    dense = propagate(op, state, 3.0, DENSE)
    small = propagate(op, state, 3.0, tight)
    assert 1.0 - abs(dense.overlap(small)) < 1e-8


def test_unreachable_krylov_tolerance_raises():
    op = build(HamiltonianSpec(Family.ISING_ATA, J=1.0), 5)
    tight = PropagatorBackend("krylov", krylov_dim=2, tolerance=1e-300)
    with pytest.raises(NumericalError, match="larger krylov_dim"):
        propagate(op, StateVector.basis_state(5, 31), 1.0, tight)


def test_backend_validation():
    with pytest.raises(ParameterError):
        PropagatorBackend("krylov", krylov_dim=1)
    with pytest.raises(ParameterError):
        PropagatorBackend(BackendKind := "DenseEigen", tolerance=0.0)
    assert PropagatorBackend("KrylovLanczos").kind.value == "KrylovLanczos"


# ---------------------------------------------------------------------------
# protocol evolution


def test_protocol_starts_at_ground_energy():
    p = field_protocol(num_qubits=6)
    energies = ProtocolEvolution(p, DENSE).battery_energy([0.0, 0.4, 0.8])
    assert energies[0] == pytest.approx(-6.0, abs=1e-9)


def test_zero_charger_keeps_energy_constant():
    p = ProtocolSpec(HamiltonianSpec(Family.FIELD_Z, h=1.0),
                     HamiltonianSpec(Family.FIELD_Z, h=0.0),
                     lam=0.0, num_qubits=4)
    energies = ProtocolEvolution(p, DENSE).battery_energy(np.linspace(0, 5, 11))
    npt.assert_allclose(energies, -4.0, atol=1e-9)


def test_negative_times_rejected():
    engine = ProtocolEvolution(field_protocol(num_qubits=4), DENSE)
    with pytest.raises(ParameterError):
        engine.battery_energy([-0.1, 0.0])


def test_unsorted_times_return_in_request_order():
    engine = ProtocolEvolution(field_protocol(num_qubits=5), DENSE)
    shuffled = np.array([2.0, 0.0, 1.0, 3.5, 0.5])
    straight = engine.battery_energy(np.sort(shuffled))
    mixed = engine.battery_energy(shuffled)
    npt.assert_allclose(mixed, straight[np.argsort(np.argsort(shuffled))],
                        atol=1e-12)


@pytest.mark.parametrize("backend", [DENSE, KRYLOV], ids=["dense", "krylov"])
def test_switch_off_continues_under_battery(backend):
    from spinbattery import ProtocolPhase, protocol_hamiltonian
    p = field_protocol(Family.ISING_NN, lam=0.6, num_qubits=4, t_on=1.0)
    h_chg = protocol_hamiltonian(p, ProtocolPhase.CHARGING)
    h_bat = protocol_hamiltonian(p, ProtocolPhase.AFTER_CHARGING)
    engine = ProtocolEvolution(p, backend)
    t = 2.5
    manual = propagate(h_bat, propagate(h_chg, engine.initial_state, 1.0, DENSE),
                       t - 1.0, DENSE)
    sampled = engine.states([t])[0]
    assert 1.0 - abs(manual.overlap(sampled)) < 1e-8


def test_always_on_matches_large_t_on():
    p_always = field_protocol(num_qubits=5)
    p_explicit = field_protocol(num_qubits=5, t_on=1000.0)
    times = np.linspace(0, 8, 33)
    e_always = ProtocolEvolution(p_always, DENSE).battery_energy(times)
    e_explicit = ProtocolEvolution(p_explicit, DENSE).battery_energy(times)
    npt.assert_allclose(e_always, e_explicit, atol=1e-10)


def test_protocol_backends_agree():
    for protocol, times, atol in (
            (field_protocol(Family.XY_ATA, lam=0.7, num_qubits=6),
             np.linspace(0, 10, 41), 2e-8),
            # each Lanczos run serves many grid times here
            (field_protocol(Family.ISING_ATA, lam=1.0, num_qubits=10),
             TimeGrid().times(), 1e-9)):
        dense = ProtocolEvolution(protocol, DENSE).battery_energy(times)
        krylov = ProtocolEvolution(protocol, KRYLOV).battery_energy(times)
        npt.assert_allclose(krylov, dense, atol=atol)


def test_one_lanczos_run_serves_many_times(monkeypatch):
    runs = []
    lanczos = dynamics._lanczos
    monkeypatch.setattr(dynamics, "_lanczos",
                        lambda *args: runs.append(args) or lanczos(*args))
    times = TimeGrid().times()
    engine = ProtocolEvolution(field_protocol(lam=0.5, num_qubits=10), KRYLOV)
    engine.battery_energy(times)
    assert 0 < len(runs) < times.size / 10


def test_krylov_frame_reduces_in_its_ritz_basis():
    engine = ProtocolEvolution(field_protocol(lam=0.5, num_qubits=10), KRYLOV)
    engine.battery_energy([0.0, 0.5])
    frame = engine._charging_frame
    sector_dim, kept = frame.basis.shape
    assert sector_dim == 1 << 9
    assert kept <= KRYLOV.krylov_dim
    assert frame.energy_matrix.shape == (kept, kept)


def test_site_uniformity_during_charging():
    p = field_protocol(num_qubits=6)
    engine = ProtocolEvolution(p, DENSE)
    sz = [pauli_site(6, j, PauliAxis.Z) for j in range(1, 7)]
    for state in engine.states([0.0, 0.9, 2.3, 7.7]):
        values = [expectation(op, state) for op in sz]
        assert max(values) - min(values) < 1e-8


def test_state_retention_is_memory_gated(monkeypatch):
    engine = ProtocolEvolution(field_protocol(num_qubits=10), DENSE)
    # the gate must act before any eigensystem
    monkeypatch.setattr("spinbattery.dynamics.spectrum", no_spectrum)
    with pytest.raises(CapacityError):
        engine.states(np.linspace(0, 1, 1 << 18))


def test_returned_states_are_energy_consistent():
    p = field_protocol(Family.ISING_ATA, lam=0.5, num_qubits=5)
    engine = ProtocolEvolution(p, DENSE)
    times = np.linspace(0, 4, 9)
    energies = engine.battery_energy(times)
    for state, energy in zip(engine.states(times), energies):
        assert expectation(engine.h_battery, state) == pytest.approx(
            energy, abs=1e-9)


def test_battery_ground_state_is_shared_across_protocols():
    first = ProtocolEvolution(field_protocol(lam=0.3, num_qubits=5), DENSE)
    second = ProtocolEvolution(
        field_protocol(Family.ISING_NN, lam=0.8, num_qubits=5), KRYLOV)
    assert second.initial_state is first.initial_state
    assert second.h_battery is first.h_battery
    npt.assert_allclose(second.battery_energy([0.0, 1.0])[0],
                        first.ground_energy, atol=1e-12)


def test_battery_energy_memory_is_bounded():
    # 20001 samples at N=10 would take 328 MB as one complex column array
    engine = ProtocolEvolution(field_protocol(num_qubits=10), DENSE)
    times = np.linspace(0.0, 100.0, 20001)
    engine.battery_energy(times[:2])  # eigensystem outside the measurement
    tracemalloc.start()
    try:
        energies = engine.battery_energy(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energies.shape == times.shape
    assert peak < (1 << 10) * times.size * 16 / 4


def test_protocol_runs_in_half_the_register(monkeypatch):
    dims = []

    def recording(op, want_vectors=False):
        dims.append(op.dimension)
        return spectrum(op, want_vectors)

    engines = [ProtocolEvolution(
        ProtocolSpec(HamiltonianSpec(battery),
                     HamiltonianSpec(charger), lam=0.4, num_qubits=6,
                     t_on=1.1), DENSE)
        for battery, charger in itertools.product(Family, repeat=2)]
    monkeypatch.setattr("spinbattery.dynamics.spectrum", recording)
    for engine in engines:
        engine.battery_energy([0.0, 0.5, 2.0])  # both phases diagonalize
        # later calls reuse both phases' eigensystems
        engine.states([0.0, 2.0])
        engine.battery_energy([0.25, 1.5])
    assert dims == [1 << 5] * 50


def test_states_vanish_outside_the_parity_sector():
    # the FieldZ ground state |1...1> at N=6 has even parity
    engine = ProtocolEvolution(
        field_protocol(Family.XY_ATA, lam=0.6, num_qubits=6, t_on=0.7), DENSE)
    odd = odd_parity(6)
    for state in engine.states([0.0, 0.3, 1.5, 4.0]):
        assert state.dimension == 1 << 6
        assert not state.amplitudes[odd].any()
    assert np.count_nonzero(np.abs(state.amplitudes) > 1e-3) > 1


def test_dense_gate_bounds_the_sector_block(monkeypatch):
    engine = ProtocolEvolution(field_protocol(num_qubits=6), DENSE)
    monkeypatch.setattr("spinbattery.dynamics.DENSE_DIM_LIMIT", 1 << 5)
    energies = engine.battery_energy([0.0, 1.0])
    assert energies[0] == pytest.approx(-6.0, abs=1e-9)
    with pytest.raises(CapacityError):
        spectrum(engine.h_charging)


@pytest.mark.parametrize("seed", range(5))
def test_support_drops_at_most_the_allowed_weight(seed):
    rng = np.random.default_rng(seed)
    size = 300
    magnitudes = 10.0 ** rng.uniform(-16, 0, size)
    magnitudes[rng.choice(size, 20, replace=False)] = 0.0
    coeffs = magnitudes * np.exp(2j * np.pi * rng.uniform(size=size))
    kept = _support(coeffs)
    weight = np.abs(coeffs) ** 2
    assert weight[~kept].sum() <= _SUPPORT_DROP_WEIGHT
    # dropping the lightest kept component as well would exceed the bound
    assert weight[~kept].sum() + weight[kept].min() > _SUPPORT_DROP_WEIGHT


@pytest.mark.parametrize("diagonal, start, columns", [
    ([0.5, 0.5 + 1e-15, 0.5 + 1e-9, 2.0], [1.0, 2j, 3.0, 4.0], 3),
    ([1.0, 1.0, -1.0, 3.0], [0.0, 1.0, 0.0, 1.0], 2),
], ids=["rounding-level-split", "one-of-a-degenerate-pair"])
def test_frame_keeps_one_column_per_occupied_energy(diagonal, start, columns):
    """Energies 1e-15 apart share a column, 1e-9 apart do not; either way
    the frame's states and <H_B> match the oracle."""
    op = SparseOperator(np.diag(diagonal), 2)
    start = StateVector.normalized(start)
    rng = np.random.default_rng(3)
    h_battery = rng.normal(size=(4, 4))
    h_battery += h_battery.T
    frame = dynamics._Frame(op, start.amplitudes, DENSE, h_battery)
    assert frame.basis.shape == (4, columns)
    assert frame.energy_matrix.shape == (columns, columns)
    times = np.array([0.0, 0.7, 3.0, 40.0])
    (owner, block), = frame.blocks(times)
    energies, residues = owner.energy_parts(block)
    for t, energy, residue in zip(times, energies, residues):
        ref = dense_expm_apply(np.diag(diagonal), start, t).amplitudes
        state = StateVector.normalized(frame.state_at(t)).amplitudes
        npt.assert_allclose(state, ref, atol=1e-12)
        assert energy == pytest.approx(
            np.vdot(ref, h_battery @ ref).real, abs=1e-12)
        assert abs(residue) < 1e-12


def test_refinement_reuses_the_reduced_battery_matrix(monkeypatch):
    matrices = []
    sample = ProtocolEvolution.battery_energy

    def recording(engine, times):
        energies = sample(engine, times)
        matrices.append((engine._charging_frame.energy_matrix,
                         engine._after_frame.energy_matrix))
        return energies

    monkeypatch.setattr(ProtocolEvolution, "battery_energy", recording)
    stored_energy_series(field_protocol(lam=0.5, num_qubits=8, t_on=3.0),
                         TimeGrid(end=6.0), DENSE)
    assert len(matrices) == 2  # the grid, then the refinement pass
    assert matrices[0][0] is not None
    assert all(now is then for now, then in zip(*matrices))
