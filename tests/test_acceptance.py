"""Full-scale acceptance gates for the headline charging claims.

One test per numbered criterion, asserted exactly as stated.  Every test
prints a ``criterion N: PASS/FAIL`` line with the measured values, so a red
result documents the discrepancy instead of hiding it behind a loosened
tolerance.  The whole module runs at production sizes (N up to 12) and is
budgeted to finish well under half an hour.
"""

import dataclasses
import math

import numpy as np
import pytest

from spinbattery import (
    Family,
    HamiltonianSpec,
    PropagatorBackend,
    ProtocolSpec,
    TimeGrid,
    build,
    expectation,
    fit_linear,
    fit_log10,
    ground_state,
    propagate,
    spectrum,
    sweep,
)
from spinbattery.oracle import DenseOperator, dense_expm_apply, xbasis_enumeration
from spinbattery.runner import parse_config, preset_config, run

DENSE = PropagatorBackend()
KRYLOV = PropagatorBackend("krylov")
GRID = TimeGrid()
FIELD = HamiltonianSpec(Family.FIELD_Z, h=1.0)

CHARGERS = {
    "IsingNN": HamiltonianSpec(Family.ISING_NN, J=1.0),
    "IsingATA": HamiltonianSpec(Family.ISING_ATA, J=1.0),
    "XYNN": HamiltonianSpec(Family.XY_NN, J=1.0, gamma=0.5),
    "XYATA": HamiltonianSpec(Family.XY_ATA, J=1.0, gamma=0.5),
}

LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SIZES = tuple(range(4, 13))


def _charged(name, lam, n, literal=False):
    return ProtocolSpec(FIELD, CHARGERS[name], lam=lam, num_qubits=n,
                        literal_ata_sum=literal)


def _verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if not ok:
        pytest.fail(line)


@pytest.fixture(scope="module")
def lambda_records():
    """lambda in {0,.25,.5,.75,1} at N=10 for all four chargers."""
    return {name: sweep(_charged(name, 0.0, 10), "lambda", LAMBDA_GRID,
                        GRID, DENSE)
            for name in CHARGERS}


@pytest.fixture(scope="module")
def size_records():
    """N in 4..12 at lambda=1 for all four chargers, single-count pairs."""
    return {name: sweep(_charged(name, 1.0, 4), "N", SIZES, GRID, DENSE)
            for name in CHARGERS}


def test_criterion_1_upper_bound_charging(lambda_records):
    # ATA Ising charger at full countereffect reaches 2hN at N=10.
    record = lambda_records["IsingATA"][-1]
    assert record.parameter_value == 1.0
    _verdict(1, record.delta_e_max >= 0.98 * 20.0,
             f"IsingATA N=10 lam=1 de_max={record.delta_e_max:.6f} "
             f"(need >= {0.98 * 20.0})")


def test_criterion_2_nn_half_bound(lambda_records):
    # the nearest-neighbour charger tops out at hN instead.
    record = lambda_records["IsingNN"][-1]
    assert record.parameter_value == 1.0
    _verdict(2, abs(record.delta_e_max - 10.0) <= 0.05 * 10.0,
             f"IsingNN N=10 lam=1 de_max={record.delta_e_max:.6f} "
             "(need 10 within 5%)")


def _odd_even_violations(ising, xy):
    """Band checks on de_max/(hN); returns human-readable violations."""
    bad = []
    for n in (8, 10, 12):
        ratio = ising[n] / n
        if not 1.95 <= ratio <= 2.0 + 1e-9:
            bad.append(f"IsingATA N={n} ratio={ratio:.4f} not in [1.95,2]")
    for n in (7, 9, 11):
        ratio = ising[n] / n
        if not 0.95 <= ratio <= 1.05:
            bad.append(f"IsingATA N={n} ratio={ratio:.4f} not in [0.95,1.05]")
    for n in (8, 10, 12):
        if not xy[n] > n:
            bad.append(f"XYATA N={n} de_max={xy[n]:.4f} not > {n}")
    for n in (7, 9, 11):
        if not xy[n] < n:
            bad.append(f"XYATA N={n} de_max={xy[n]:.4f} not < {n}")
    return bad


def test_criterion_3_odd_even_effect(size_records):
    ising = {r.parameter_value: r.delta_e_max for r in size_records["IsingATA"]}
    xy = {r.parameter_value: r.delta_e_max for r in size_records["XYATA"]}
    violations = _odd_even_violations(ising, xy)
    if not violations:
        _verdict(3, True, "single-count pair weights satisfy all bands")
        return
    # fallback: retry with the antipodal pair weight doubled before
    # concluding; odd rings have no antipodal pair, so only even sizes can
    # change under the alternative counting.
    retry_sizes = (7, 8, 9, 10, 11, 12)
    ising_lit = {r.parameter_value: r.delta_e_max for r in sweep(
        _charged("IsingATA", 1.0, 7, literal=True), "N", retry_sizes, GRID,
        DENSE)}
    xy_lit = {r.parameter_value: r.delta_e_max for r in sweep(
        _charged("XYATA", 1.0, 7, literal=True), "N", retry_sizes, GRID,
        DENSE)}
    literal_violations = _odd_even_violations(ising_lit, xy_lit)
    if not literal_violations:
        _verdict(3, True, "bands hold under the literal double-sum convention")
        return
    _verdict(3, False,
             "both pair-counting conventions miss the bands; single-count: "
             + "; ".join(violations) + " | literal: "
             + "; ".join(literal_violations))


def test_criterion_4_lambda_optimum(lambda_records):
    bad = []
    for name, records in lambda_records.items():
        for label, values in (("de_max", [r.delta_e_max for r in records]),
                              ("p_max", [r.p_max for r in records])):
            if not all(b >= a - 1e-6 for a, b in zip(values, values[1:])):
                bad.append(f"{name} {label} not nondecreasing: "
                           + ",".join(f"{v:.4f}" for v in values))
            elif values[-1] < max(values) - 1e-6:
                bad.append(f"{name} {label} max not at lam=1")
    _verdict(4, not bad, "; ".join(bad) if bad else
             "de_max and p_max nondecreasing and maximal at lam=1 "
             "for all four chargers")


def test_criterion_5_power_linearity(size_records):
    p_ata = [r.p_max for r in size_records["IsingATA"]]
    fit = fit_linear(SIZES, p_ata)
    bad = []
    if fit.r_squared < 0.95:
        bad.append(f"IsingATA p_max fit r2={fit.r_squared:.4f} < 0.95")
    for ising_name, xy_name in (("IsingNN", "XYNN"), ("IsingATA", "XYATA")):
        ising_p = [r.p_max for r in size_records[ising_name]]
        xy_p = [r.p_max for r in size_records[xy_name]]
        for n, pi, px in zip(SIZES, ising_p, xy_p):
            if not pi > px:
                bad.append(f"{ising_name} p_max {pi:.4f} not above "
                           f"{xy_name} {px:.4f} at N={n}")
    _verdict(5, not bad, "; ".join(bad) if bad else
             f"r2={fit.r_squared:.5f}, slope={fit.slope:.4f}/site, and Ising "
             "beats XY at every size")


def test_criterion_6_coupling_optimum_and_log_fit():
    base = ProtocolSpec(HamiltonianSpec(Family.ISING_NN, J=1.0), FIELD,
                        lam=0.0, num_qubits=12)
    j_grid = [round(0.5 + 0.1 * i, 10) for i in range(16)]
    records = sweep(base, "J", j_grid, GRID, DENSE)
    de = [r.delta_e_max for r in records]
    j_star = j_grid[int(np.argmax(de))]
    bad = []
    if abs(j_star - 1.0) > 0.1 + 1e-9:
        bad.append(f"argmax_J de_max={j_star:.1f}, expected 1.0 +- 0.1")
    fit_grid = [0.5, 1.0, 2.0, 4.0]
    fit = fit_log10(fit_grid, [r.p_max for r in sweep(base, "J", fit_grid,
                                                      GRID, DENSE)])
    print(f"criterion 6: measured log10 slope={fit.slope:.4f} "
          f"intercept={fit.intercept:.4f} r2={fit.r_squared:.4f}")
    if not 0.85 * 17.91 <= fit.slope <= 1.15 * 17.91:
        bad.append(f"p_max log10(J) slope={fit.slope:.4f} outside "
                   f"17.91 +- 15% = [{0.85 * 17.91:.2f}, {1.15 * 17.91:.2f}]")
    # no long-range family appears here, so the pair-counting fallback
    # cannot alter the result; report the miss directly.
    _verdict(6, not bad, "; ".join(bad) if bad else
             f"argmax_J={j_star:.1f} and slope={fit.slope:.2f} in band")


def test_criterion_7_countereffect_advantage():
    pairings = [
        (Family.ISING_NN, Family.FIELD_Z),
        (Family.XY_NN, Family.FIELD_Z),
        (Family.ISING_NN, Family.XY_NN),
        (Family.XY_NN, Family.ISING_NN),
    ]
    bad = []
    summary = []
    for battery, charger in pairings:
        base = ProtocolSpec(HamiltonianSpec(battery), HamiltonianSpec(charger),
                            lam=0.0, num_qubits=12)
        off, on = sweep(base, "lambda", (0.0, 1.0), GRID, DENSE, workers=1)
        de0, de1 = off.delta_e_max, on.delta_e_max
        p0, p1 = off.p_max, on.p_max
        tag = f"{battery.value}+{charger.value}"
        summary.append(f"{tag} dE {de0:.3f}->{de1:.3f} P {p0:.3f}->{p1:.3f}")
        if not (de1 > de0 and p1 > p0):
            bad.append(f"{tag} lam=1 not strictly better "
                       f"(dE {de0:.4f}->{de1:.4f}, P {p0:.4f}->{p1:.4f})")
    _verdict(7, not bad, "; ".join(bad) if bad else "; ".join(summary))


def _read_sweep_csv(path):
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()[1:]]
    return {"value": np.array([float(r[1]) for r in rows]),
            "de_max": np.array([float(r[2]) for r in rows]),
            "p_max": np.array([float(r[4]) for r in rows])}


def test_criterion_8_extended_lambda_peaks(tmp_path):
    targets = {"fig7a": 1.6, "fig7b": 2.8}
    bad = []
    notes = []
    for preset, peak in targets.items():
        config = dataclasses.replace(preset_config(preset),
                                     output_dir=str(tmp_path / preset))
        assert run(config) == 0
        table = _read_sweep_csv(tmp_path / preset / "sweep.csv")
        assert table["value"].size == 51
        lam_p = table["value"][int(np.argmax(table["p_max"]))]
        lam_e = table["value"][int(np.argmax(table["de_max"]))]
        notes.append(f"{preset}: argmax_l p_max={lam_p:.1f} de_max={lam_e:.1f}")
        if abs(lam_p - peak) > 0.2 + 1e-9:
            bad.append(f"{preset} p_max peak at lam={lam_p:.1f}, "
                       f"expected {peak} +- 0.2")
        if abs(lam_e - 1.0) > 0.1 + 1e-9:
            bad.append(f"{preset} de_max peak at lam={lam_e:.1f}, "
                       "expected 1.0 +- 0.1")
    _verdict(8, not bad, "; ".join(bad) if bad else "; ".join(notes))


def test_criterion_9_property_suite(tmp_path):
    notes = []

    # hermiticity of every assembled family
    for name, spec in CHARGERS.items():
        dense = build(spec, 6).to_dense()
        assert np.abs(dense - dense.conj().T).max() <= 1e-12
    notes.append("hermitian")

    # unitarity along evolved states
    _, start = ground_state(build(FIELD, 6))
    xy_charger = build(CHARGERS["XYATA"], 6)
    for t in (0.3, 1.7, 9.99):
        state = propagate(xy_charger, start, t)
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) <= 1e-10
    notes.append("unitary<=1e-10")

    # time-reversal recovery through both propagators
    hamiltonian = build(CHARGERS["IsingATA"], 6)
    for backend_name, backend in (("dense", DENSE), ("krylov", KRYLOV)):
        forward = propagate(hamiltonian, start, 3.7, backend)
        back = propagate(hamiltonian, forward, -3.7, backend)
        deficit = 1.0 - abs(start.overlap(back))
        assert deficit <= 1e-8, f"{backend_name} reversal deficit {deficit}"
    notes.append("reversible<=1e-8")

    # energy conservation under a constant generator
    h_total = build(CHARGERS["IsingATA"], 6) + build(FIELD, 6)
    e0 = expectation(h_total, start)
    for t in (0.5, 2.5, 12.0):
        evolved = propagate(h_total, start, t)
        drift = abs(expectation(h_total, evolved) - e0)
        assert drift <= 1e-9, f"energy drift {drift} at t={t}"
    notes.append("conservative<=1e-9")

    # transverse-field spectrum degeneracy pattern: binomial counts
    clusters = spectrum(build(FIELD, 10)).degeneracies()
    assert [count for _, count in clusters] == [math.comb(10, k)
                                                for k in range(11)]
    assert np.allclose([value for value, _ in clusters],
                       [-10 + 2 * k for k in range(11)])
    notes.append("binomial degeneracies")

    # dense, Krylov, and eigenbasis-oracle propagation agree
    h6 = build(CHARGERS["IsingNN"], 6)
    oracle_h = DenseOperator(h6.to_dense())
    for t in (0.9, 4.3):
        a = propagate(h6, start, t, DENSE)
        b = propagate(h6, start, t, KRYLOV)
        c = dense_expm_apply(oracle_h, start, t)
        assert 1.0 - abs(a.overlap(b)) <= 1e-8
        assert 1.0 - abs(a.overlap(c)) <= 1e-8
    notes.append("three-way propagation agreement<=1e-8")

    # classical x-basis enumeration matches the solver spectrum
    for name in ("IsingNN", "IsingATA"):
        spec = dataclasses.replace(CHARGERS[name], J=0.7)
        solver = spectrum(build(spec, 8)).eigenvalues
        enumerated = xbasis_enumeration(spec, 8).eigenvalues
        assert np.allclose(solver, enumerated, atol=1e-9)
    notes.append("x-basis enumeration equality<=1e-9")

    # byte-identical CSV emission across two runs of one config
    document = """
[battery]
family = FieldZ

[charger]
family = IsingATA

[protocol]
N = 5
lambda = 1.0

[grid]
end = 8.0

[sweep]
parameter = lambda
values = 0.5, 1.0
series = true
"""
    contents = []
    for attempt in ("first", "second"):
        config = dataclasses.replace(parse_config(document, label="repro"),
                                     output_dir=str(tmp_path / attempt))
        assert run(config) == 0
        produced = sorted(p.name for p in (tmp_path / attempt).glob("*.csv"))
        contents.append([(name, (tmp_path / attempt / name).read_bytes())
                         for name in produced])
    assert contents[0] == contents[1]
    notes.append("byte-identical CSVs")

    _verdict(9, True, ", ".join(notes))
