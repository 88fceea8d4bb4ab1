"""Stored energy, charging power, their maxima, and parameter sweeps.

The figure-of-merit conventions: stored energy is measured relative to the
battery ground state, ``delta_e(t) = <H_B>(t) - <H_B>(0)``, and power is the
running average ``p(t) = delta_e(t) / t`` with ``p(0) = 0`` (the t -> 0
limit; starting from an eigenstate makes delta_e quadratic at the origin).
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import PropagatorBackend, ProtocolEvolution
from .errors import ParameterError
from .hamiltonians import Family, HamiltonianSpec, ProtocolSpec, _ATA_FAMILIES

WORKERS_ENV_VAR = "SPINBATTERY_WORKERS"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling window [0, end] plus the local peak refinement factor."""

    end: float
    step: float = 0.05
    refinement_factor: int = 10
    start: float = 0.0

    def __post_init__(self):
        if float(self.start) != 0.0:
            raise ParameterError("charging protocols are sampled from t = 0")
        object.__setattr__(self, "start", 0.0)
        end = float(self.end)
        step = float(self.step)
        if not end > self.start:
            raise ParameterError(f"grid end must exceed start, got {end}")
        if not step > 0.0:
            raise ParameterError(f"grid step must be positive, got {step}")
        factor = int(self.refinement_factor)
        if factor < 1:
            raise ParameterError(
                f"refinement_factor must be >= 1, got {self.refinement_factor}")
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "refinement_factor", factor)

    def times(self) -> np.ndarray:
        count = int(np.floor((self.end - self.start) / self.step + 1e-9))
        return self.start + self.step * np.arange(count + 1)


def default_grid() -> TimeGrid:
    return TimeGrid(end=100.0, step=0.05, refinement_factor=10)


@dataclass
class TimeSeries:
    """Sampled delta_e and power on an ascending time axis starting at 0."""

    times: np.ndarray
    delta_e: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.delta_e = np.asarray(self.delta_e, dtype=np.float64)
        self.power = np.asarray(self.power, dtype=np.float64)
        if not self.times.size:
            raise ParameterError("time series cannot be empty")
        if self.times.shape != self.delta_e.shape or self.times.shape != self.power.shape:
            raise ParameterError("times, delta_e, and power must share a shape")
        if self.times[0] != 0.0:
            raise ParameterError("time series must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("times must be strictly increasing")
        if abs(self.delta_e[0]) > 1e-10 or abs(self.power[0]) > 1e-10:
            raise ParameterError("delta_e and power must vanish at t = 0")

    @classmethod
    def from_delta(cls, times, delta_e) -> "TimeSeries":
        times = np.asarray(times, dtype=np.float64)
        delta_e = np.asarray(delta_e, dtype=np.float64)
        return cls(times, delta_e, _running_power(times, delta_e))


def _running_power(times, delta_e):
    power = np.zeros_like(delta_e)
    np.divide(delta_e, times, out=power, where=times > 0.0)
    return power


def power_series(ts: TimeSeries) -> TimeSeries:
    """Recompute the running-average power from the stored energies."""
    return TimeSeries(ts.times, ts.delta_e, _running_power(ts.times, ts.delta_e))


def _refinement_times(times, values, factor):
    """Interior fine samples in the grid intervals flanking the argmax."""
    peak = int(np.argmax(values))
    extras = []
    for left in (peak - 1, peak):
        if 0 <= left < times.size - 1:
            lo, hi = times[left], times[left + 1]
            fine = lo + (hi - lo) / factor * np.arange(1, factor)
            extras.append(fine)
    return extras


def stored_energy_series(protocol: ProtocolSpec, grid: TimeGrid,
                         backend: PropagatorBackend) -> TimeSeries:
    """Sample the protocol on the grid, densifying around both maxima.

    One extra evaluation pass adds ``refinement_factor``-times finer points
    inside the intervals flanking the incumbent delta_e and power peaks, so
    narrow resonances are not lost to the base step.
    """
    engine = ProtocolEvolution(protocol, backend)
    times = grid.times()
    energies = engine.battery_energy(times)
    origin = energies[0]
    delta = energies - origin
    if grid.refinement_factor > 1 and times.size > 1:
        extras = _refinement_times(times, delta, grid.refinement_factor)
        extras += _refinement_times(times, _running_power(times, delta),
                                    grid.refinement_factor)
        fine = np.unique(np.concatenate(extras)) if extras else None
        if fine is not None and fine.size:
            fine = np.setdiff1d(fine, times)
            fine_delta = engine.battery_energy(fine) - origin
            order = np.argsort(np.concatenate([times, fine]), kind="stable")
            times = np.concatenate([times, fine])[order]
            delta = np.concatenate([delta, fine_delta])[order]
    return TimeSeries(times, delta, _running_power(times, delta))


def max_over_time(ts: TimeSeries, which: str) -> tuple[float, float]:
    """Peak (t*, value) of one series column; exact ties go to the smaller t."""
    if which == "energy":
        values = ts.delta_e
    elif which == "power":
        values = ts.power
    else:
        raise ParameterError(f"which must be 'energy' or 'power', got {which!r}")
    peak = int(np.argmax(values))
    return float(ts.times[peak]), float(values[peak])


@dataclass(frozen=True)
class SweepRecord:
    """Peak figures of merit for one point of a parameter sweep."""

    parameter_name: str
    parameter_value: float
    delta_e_max: float
    t_at_e_max: float
    p_max: float
    t_at_p_max: float

    @classmethod
    def from_series(cls, name, value, ts: TimeSeries) -> "SweepRecord":
        t_e, de = max_over_time(ts, "energy")
        t_p, p = max_over_time(ts, "power")
        return cls(name, value, de, t_e, p, t_p)


@dataclass(frozen=True)
class LogFit:
    """Least-squares line y = slope * x + intercept with its r-squared."""

    slope: float
    intercept: float
    r_squared: float


def fit_linear(x, y) -> LogFit:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 3:
        raise ParameterError(f"a fit needs at least 3 points, got {x.size}")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    total = float(np.sum((y - y.mean()) ** 2))
    if total == 0.0:
        r_squared = 1.0
    else:
        r_squared = 1.0 - float(np.sum(residuals ** 2)) / total
    return LogFit(float(slope), float(intercept), min(max(r_squared, 0.0), 1.0))


def fit_log10(coupling_values, p_max_values) -> LogFit:
    coupling_values = np.asarray(coupling_values, dtype=np.float64)
    if np.any(coupling_values <= 0):
        raise ParameterError("log fit requires positive coupling values")
    return fit_linear(np.log10(coupling_values), p_max_values)


# ---------------------------------------------------------------------------
# sweeps


def _resolve_workers(workers):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def sweep_map(evaluate, values, workers=None) -> list:
    """``evaluate`` on every value, threaded, results in input order."""
    values = list(values)
    workers = min(_resolve_workers(workers), max(len(values), 1))
    if workers <= 1 or len(values) <= 1:
        return [evaluate(v) for v in values]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(evaluate, values))  # input order preserved


def _with_auto_range(spec: HamiltonianSpec) -> HamiltonianSpec:
    if spec.family in _ATA_FAMILIES and spec.K is not None:
        return dataclasses.replace(spec, K=None)
    return spec


def substituted_protocol(base: ProtocolSpec, parameter_name: str,
                         value) -> ProtocolSpec:
    """Base protocol with one swept parameter replaced.

    ``lambda`` swaps the countereffect strength, ``N`` the ring size (long
    range cutoffs re-derive from the new size), and ``J`` the coupling of an
    interacting battery.
    """
    if parameter_name == "lambda":
        return dataclasses.replace(base, lam=float(value))
    if parameter_name == "N":
        return dataclasses.replace(
            base, num_qubits=int(value),
            battery=_with_auto_range(base.battery),
            charger=_with_auto_range(base.charger))
    if parameter_name == "J":
        if not base.battery.is_interacting:
            raise ParameterError(
                "coupling sweeps vary the battery J; the battery family "
                f"{base.battery.family.value} has no coupling")
        battery = dataclasses.replace(base.battery, J=float(value))
        return dataclasses.replace(base, battery=battery)
    raise ParameterError(
        f"unknown sweep parameter {parameter_name!r} "
        "(choose from lambda, N, J)")


def sweep_point(base: ProtocolSpec, parameter_name: str, value,
                grid: TimeGrid, backend: PropagatorBackend) -> SweepRecord:
    """Evaluate one sweep point; knows the substitution rule per parameter."""
    protocol = substituted_protocol(base, parameter_name, value)
    series = stored_energy_series(protocol, grid, backend)
    return SweepRecord.from_series(parameter_name, value, series)


def sweep_lambda(base: ProtocolSpec, lambdas, grid: TimeGrid,
                 backend: PropagatorBackend, workers=None) -> list[SweepRecord]:
    """Independent protocol runs across countereffect strengths."""
    return sweep_map(
        lambda lam: sweep_point(base, "lambda", float(lam), grid, backend),
        lambdas, workers)


def sweep_size(base: ProtocolSpec, sizes, grid: TimeGrid,
               backend: PropagatorBackend, workers=None) -> list[SweepRecord]:
    """Ring-size sweep; long-range cutoffs re-derive from each N."""
    return sweep_map(
        lambda n: sweep_point(base, "N", int(n), grid, backend),
        sizes, workers)


def sweep_coupling(base: ProtocolSpec, coupling_values, grid: TimeGrid,
                   backend: PropagatorBackend,
                   workers=None) -> tuple[list[SweepRecord], LogFit]:
    """Battery-coupling sweep plus the P_max against log10(J) line.

    The canonical setup pairs an Ising-ring battery with a transverse-field
    charger at lambda = 0; any interacting battery is accepted.
    """
    records = sweep_map(
        lambda j: sweep_point(base, "J", float(j), grid, backend),
        coupling_values, workers)
    fit = fit_log10([r.parameter_value for r in records],
                    [r.p_max for r in records])
    return records, fit


def family_protocol_spec(family: Family, *, J: float = 1.0, h: float = 1.0,
                         gamma: float = 0.5) -> HamiltonianSpec:
    """Spec with the standard figure parameters for any family."""
    family = Family(family)
    if family is Family.FIELD_Z:
        return HamiltonianSpec(family, h=h)
    if family in (Family.XY_NN, Family.XY_ATA):
        return HamiltonianSpec(family, J=J, gamma=gamma)
    return HamiltonianSpec(family, J=J)


def run_pairing(battery_family: Family, charger_family: Family,
                num_qubits: int = 12, grid: TimeGrid | None = None,
                backend: PropagatorBackend = PropagatorBackend(),
                *, J: float = 1.0, h: float = 1.0, gamma: float = 0.5,
                lambdas: tuple[float, float] = (0.0, 1.0),
                ) -> tuple[TimeSeries, TimeSeries]:
    """Series for one battery/charger pairing at two countereffect values."""
    grid = default_grid() if grid is None else grid
    battery = family_protocol_spec(battery_family, J=J, h=h, gamma=gamma)
    charger = family_protocol_spec(charger_family, J=J, h=h, gamma=gamma)
    out = []
    for lam in lambdas:
        protocol = ProtocolSpec(battery, charger, lam=float(lam),
                                num_qubits=num_qubits)
        out.append(stored_energy_series(protocol, grid, backend))
    return tuple(out)
