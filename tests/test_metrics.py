"""Series construction, maxima extraction, sweeps, and fits."""

import sys

import numpy as np
import numpy.testing as npt
import pytest

from spinbattery import (
    Family,
    HamiltonianSpec,
    ParameterError,
    PropagatorBackend,
    ProtocolSpec,
    SweepRecord,
    TimeGrid,
    TimeSeries,
    fit_linear,
    fit_log10,
    max_over_time,
    stored_energy_series,
    sweep,
)

DENSE = PropagatorBackend()
FIELD = HamiltonianSpec(Family.FIELD_Z, h=1.0)


def ata_protocol(lam=1.0, num_qubits=4, **kwargs):
    return ProtocolSpec(FIELD, HamiltonianSpec(Family.ISING_ATA, J=1.0),
                        lam=lam, num_qubits=num_qubits, **kwargs)


# ---------------------------------------------------------------------------
# grids and series


def test_default_grid_shape():
    grid = TimeGrid()
    times = grid.times()
    assert times.size == 2001
    assert times[0] == 0.0
    assert times[1] == pytest.approx(0.05)
    assert times[-1] == pytest.approx(100.0)


def test_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(end=0.0)
    with pytest.raises(ParameterError):
        TimeGrid(end=1.0, step=-0.1)
    with pytest.raises(ParameterError):
        TimeGrid(end=1.0, refinement_factor=0)
    with pytest.raises(TypeError):  # every protocol is sampled from t = 0
        TimeGrid(end=1.0, start=0.5)


def test_series_validation():
    with pytest.raises(ParameterError):
        TimeSeries(np.array([0.0, 1.0]), np.array([0.5, 1.0]), np.zeros(2))
    with pytest.raises(ParameterError):
        TimeSeries(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ParameterError):
        TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ParameterError):
        TimeSeries(np.array([0.0, 1.0]), np.zeros(2), np.zeros(3))


def test_linear_energy_gives_constant_power():
    times = np.linspace(0.0, 5.0, 11)
    series = TimeSeries.from_delta(times, 0.7 * times)
    npt.assert_allclose(series.power[1:], 0.7, atol=1e-14)
    assert series.power[0] == 0.0


def test_power_is_delta_over_time():
    series = TimeSeries.from_delta(np.array([0.0, 1.0, 2.0]),
                                   np.array([0.0, 2.0, 6.0]))
    assert series.power[2] == pytest.approx(3.0)
    npt.assert_array_equal(series.power * series.times, series.delta_e)


def test_zero_energy_gives_zero_power():
    series = TimeSeries.from_delta(np.linspace(0, 3, 7), np.zeros(7))
    npt.assert_array_equal(series.power, np.zeros(7))


def test_max_over_time_basic():
    series = TimeSeries.from_delta(np.array([0.0, 1.0, 2.0, 3.0]),
                                   np.array([0.0, 1.0, 3.0, 2.0]))
    assert max_over_time(series, "energy") == (2.0, 3.0)


def test_max_over_time_tie_goes_left():
    series = TimeSeries.from_delta(np.linspace(0, 3, 4), np.zeros(4))
    assert max_over_time(series, "energy") == (0.0, 0.0)
    assert max_over_time(series, "power") == (0.0, 0.0)
    with pytest.raises(ParameterError):
        max_over_time(series, "delta")


def test_series_starts_at_zero_and_respects_bound():
    p = ata_protocol(num_qubits=5)
    series = stored_energy_series(p, TimeGrid(end=20.0), DENSE)
    assert series.delta_e[0] == 0.0
    # spectral bound of the battery: E_max - E_min = 2hN
    assert series.delta_e.max() <= 2 * 5 + 1e-9
    npt.assert_allclose(series.power * series.times, series.delta_e, atol=1e-12)


def test_refinement_recovers_analytic_peak():
    # NN charger at full suppression: delta_e(t) = hN (1 - cos 4Jt) / 2,
    # peaking at exactly hN at t = pi/4, between the 0.05-step samples.
    p = ProtocolSpec(FIELD, HamiltonianSpec(Family.ISING_NN, J=1.0),
                     lam=1.0, num_qubits=4)
    coarse = stored_energy_series(
        p, TimeGrid(end=2.0, step=0.05, refinement_factor=1), DENSE)
    fine = stored_energy_series(
        p, TimeGrid(end=2.0, step=0.05, refinement_factor=10), DENSE)
    t_coarse, de_coarse = max_over_time(coarse, "energy")
    t_fine, de_fine = max_over_time(fine, "energy")
    assert de_fine >= de_coarse
    assert de_fine == pytest.approx(4.0, abs=1e-4)
    assert t_fine == pytest.approx(np.pi / 4, abs=0.005)
    # refined sampling stays strictly inside the requested window
    assert fine.times[-1] <= 2.0 + 1e-9


def test_refined_series_keeps_base_points():
    p = ata_protocol(num_qubits=4)
    grid = TimeGrid(end=3.0, step=0.1, refinement_factor=5)
    series = stored_energy_series(p, grid, DENSE)
    base = grid.times()
    assert np.isin(base, series.times).all()
    assert series.times.size > base.size


# ---------------------------------------------------------------------------
# fits


def test_exact_line_recovery():
    j = np.array([0.1, 1.0, 10.0])
    fit = fit_log10(j, 5.0 * np.log10(j) + 2.0)
    assert fit.slope == pytest.approx(5.0, abs=1e-12)
    assert fit.intercept == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_three_points():
    with pytest.raises(ParameterError):
        fit_linear([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ParameterError):
        fit_log10([1.0, -2.0, 3.0], [0.0, 1.0, 2.0])


def test_flat_data_fits_perfectly():
    fit = fit_linear([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


# ---------------------------------------------------------------------------
# sweeps (small sizes; the full-scale assertions live in the acceptance suite)


def test_sweep_lambda_zero_charger_stays_flat():
    base = ProtocolSpec(FIELD, HamiltonianSpec(Family.FIELD_Z, h=0.0),
                        lam=0.0, num_qubits=4)
    records = sweep(base, "lambda", [0.0], TimeGrid(end=5.0), DENSE)
    assert len(records) == 1
    assert records[0].delta_e_max == pytest.approx(0.0, abs=1e-10)
    assert records[0].p_max == pytest.approx(0.0, abs=1e-10)


def test_sweep_lambda_suppression_helps():
    # At five sites the peak energy is not strictly monotonic in lambda
    # (residual battery dynamics can nudge intermediate points above the
    # lam=1 revival), but the peak power is, and full suppression always
    # beats leaving the battery term untouched.
    lambdas = [0.0, 0.25, 0.5, 0.75, 1.0]
    records = sweep(ata_protocol(lam=0.0, num_qubits=5), "lambda", lambdas,
                    TimeGrid(end=40.0), DENSE)
    de = [r.delta_e_max for r in records]
    p = [r.p_max for r in records]
    assert [r.parameter_value for r in records] == lambdas
    assert de[-1] > de[0]
    assert all(b >= a - 1e-6 for a, b in zip(p, p[1:]))


def test_sweep_size_odd_even_contrast():
    records = sweep(ata_protocol(), "N", [4, 5, 6, 7], TimeGrid(end=100.0),
                    DENSE)
    by_n = {r.parameter_value: r for r in records}
    for n in (4, 6):
        assert by_n[n].delta_e_max / (2 * n) == pytest.approx(1.0, abs=0.02)
    for n in (5, 7):
        assert by_n[n].delta_e_max / n == pytest.approx(1.0, abs=0.05)
    # no such parity split in the peak power: strictly increasing with N
    p = [by_n[n].p_max for n in (4, 5, 6, 7)]
    assert all(b > a for a, b in zip(p, p[1:]))


def test_sweep_size_rederives_interaction_range():
    base = ProtocolSpec(FIELD, HamiltonianSpec(Family.ISING_ATA, J=1.0, K=2),
                        lam=1.0, num_qubits=4)
    records = sweep(base, "N", [6], TimeGrid(end=30.0), DENSE)
    explicit = sweep(ata_protocol(num_qubits=6), "N", [6], TimeGrid(end=30.0),
                     DENSE)
    assert records[0].delta_e_max == pytest.approx(explicit[0].delta_e_max, rel=1e-12)


def test_sweep_coupling_records_and_fit():
    base = ProtocolSpec(HamiltonianSpec(Family.ISING_NN, J=1.0), FIELD,
                        lam=0.0, num_qubits=4)
    records = sweep(base, "J", [0.5, 1.0, 2.0], TimeGrid(end=30.0), DENSE)
    fit = fit_log10([r.parameter_value for r in records],
                    [r.p_max for r in records])
    assert [r.parameter_value for r in records] == [0.5, 1.0, 2.0]
    assert all(r.parameter_name == "J" for r in records)
    assert 0.0 <= fit.r_squared <= 1.0
    assert all(r.delta_e_max >= 0 for r in records)


def test_sweep_coupling_needs_interacting_battery():
    base = ProtocolSpec(FIELD, HamiltonianSpec(Family.ISING_NN, J=1.0),
                        lam=0.0, num_qubits=4)
    with pytest.raises(ParameterError):
        sweep(base, "J", [0.5, 1.0, 2.0], TimeGrid(end=10.0), DENSE)


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ParameterError, match="unknown sweep parameter"):
        sweep(ata_protocol(), "gamma", [0.1], TimeGrid(end=5.0), DENSE)


def test_ring_size_sweep_rejects_fractional_sizes():
    with pytest.raises(ParameterError, match="ring sizes must be integers"):
        sweep(ata_protocol(), "N", (5.5,), TimeGrid(end=5.0), DENSE)


def test_sweep_records_carry_peak_times_inside_grid():
    grid = TimeGrid(end=50.0)
    records = sweep(ata_protocol(lam=0.0, num_qubits=4), "lambda", [0.5, 1.0],
                    grid, DENSE)
    for rec in records:
        assert 0.0 <= rec.t_at_e_max <= grid.end + 1e-9
        assert 0.0 <= rec.t_at_p_max <= grid.end + 1e-9
        assert rec.delta_e_max >= 0.0


def test_threaded_sweep_matches_sequential():
    lambdas = [0.0, 0.5, 1.0]
    grid = TimeGrid(end=20.0)
    base = ata_protocol(lam=0.0, num_qubits=4)
    sequential = sweep(base, "lambda", lambdas, grid, DENSE, workers=1)
    threaded = sweep(base, "lambda", lambdas, grid, DENSE, workers=3)
    assert sequential == threaded


def test_threads_sharing_cold_operators_match_sequential():
    """More sweep threads than cores build and share one battery and one
    charger on a cold cache, switching often, and still agree exactly."""
    base = ProtocolSpec(HamiltonianSpec(Family.FIELD_Z, h=0.613),
                        HamiltonianSpec(Family.ISING_ATA, J=0.877), lam=0.0,
                        num_qubits=6)
    lambdas = np.linspace(0.0, 1.0, 8)
    grid = TimeGrid(end=5.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sweep(base, "lambda", lambdas, grid, DENSE, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sweep(base, "lambda", lambdas, grid, DENSE, workers=1)


# ---------------------------------------------------------------------------
# pairings


def test_unknown_family_is_a_parameter_error():
    with pytest.raises(ParameterError, match="bogus"):
        HamiltonianSpec("bogus")


def test_identical_battery_and_charger_stores_nothing():
    ring = HamiltonianSpec(Family.ISING_NN)
    at_one = stored_energy_series(
        ProtocolSpec(ring, ring, lam=1.0, num_qubits=4), TimeGrid(end=10.0),
        DENSE)
    npt.assert_allclose(at_one.delta_e, 0.0, atol=1e-9)


def test_countereffect_advantage_small_ring():
    base = ProtocolSpec(HamiltonianSpec(Family.ISING_NN), FIELD, lam=0.0,
                        num_qubits=6)
    off, on = sweep(base, "lambda", (0.0, 1.0), TimeGrid(end=100.0), DENSE)
    assert on.delta_e_max > off.delta_e_max
    assert on.p_max > off.p_max


def test_sweep_record_from_series_roundtrip():
    series = TimeSeries.from_delta(np.array([0.0, 1.0, 2.0]),
                                   np.array([0.0, 4.0, 2.0]))
    rec = SweepRecord.from_series("lambda", 0.5, series)
    assert rec == SweepRecord("lambda", 0.5, 4.0, 1.0, 4.0, 1.0)
