"""Fast tests of the benchmark's checks: they pass the program's real output
and reject wrong output.

    python3 -m pytest perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import spinbattery as sb  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL = Workload(
    name="small", config="", battery="FieldZ", charger="IsingATA",
    num_qubits=6, lambdas=(0.5, 1.0), grid_end=5.0, series=True,
    backend="DenseEigen", seeded_rows=1000)


def _program_series(workload, lam, literal=False):
    protocol = sb.ProtocolSpec(
        sb.HamiltonianSpec(workload.battery, h=workload.h),
        sb.HamiltonianSpec(workload.charger, J=workload.J),
        lam=lam, num_qubits=workload.num_qubits,
        extended_lambda=workload.extended, literal_ata_sum=literal)
    return sb.stored_energy_series(protocol, sb.TimeGrid(end=workload.grid_end),
                                   sb.PropagatorBackend())


def _row(series):
    record = sb.SweepRecord.from_series("lambda", 0.0, series)
    return {"de_max": record.delta_e_max, "t_e": record.t_at_e_max,
            "p_max": record.p_max, "t_p": record.t_at_p_max}


def _check(workload, lam, series, with_series=True):
    reference = checks.Reference(workload)
    columns = (series.times, series.delta_e, series.power) if with_series \
        else None
    return checks.check_point(reference, lam, _row(series), columns,
                              np.random.default_rng(0), seeded=True)


def test_program_series_pass():
    for lam in SMALL.lambdas:
        assert _check(SMALL, lam, _program_series(SMALL, lam)) == []


def test_perturbed_series_is_rejected():
    for lam in SMALL.lambdas:  # closed form at 1, propagation at 0.5
        series = _program_series(SMALL, lam)
        series.delta_e[37] += 1e-6
        series.power[37] = series.delta_e[37] / series.times[37]
        problems = _check(SMALL, lam, series)
        assert any("closed form" in p or "independent" in p
                   for p in problems), problems


def test_literal_ata_sum_row_is_rejected():
    # the doubled antipodal bond of an even ring changes the closed form
    fig7a = dataclasses.replace(WORKLOADS["fig7a-lambda51"], grid_end=10.0)
    good = _program_series(fig7a, 1.0)
    assert _check(fig7a, 1.0, good, with_series=False) == []
    literal = _program_series(fig7a, 1.0, literal=True)
    problems = _check(fig7a, 1.0, literal, with_series=False)
    assert any("closed form" in p for p in problems), problems
    assert any("independent" in p for p in problems), problems


def test_check_round_accepts_a_real_run(tmp_path):
    config = sb.parse_config(
        "[battery]\nfamily = FieldZ\n[charger]\nfamily = IsingATA\n"
        "[protocol]\nN = 6\nlambda = 0.5\n[grid]\nend = 5\n"
        "[sweep]\nparameter = lambda\nvalues = 0.5, 1.0\nseries = true\n"
        f"[output]\ndirectory = {tmp_path}\n")
    assert sb.runner.run(config, workers=2, echo=lambda *a, **k: None) == 0
    points, errored, whole, digests = checks.check_round(
        checks.Reference(SMALL), tmp_path, seed=3)
    assert errored == set() and whole == []
    assert points == {"lambda=0.5": [], "lambda=1": []}
    assert sorted(digests) == ["series_lambda_0.5.csv", "series_lambda_1.csv",
                               "sweep.csv"]
