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
from .hamiltonians import ProtocolSpec, _as_int


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling window [0, end] plus the local peak refinement factor.

    ``TimeGrid()`` is the grid of the paper's figures.
    """

    end: float = 100.0
    step: float = 0.05
    refinement_factor: int = 10

    def __post_init__(self):
        end = float(self.end)
        step = float(self.step)
        if not end > 0.0:
            raise ParameterError(f"grid end must exceed 0, got {end}")
        if not step > 0.0:
            raise ParameterError(f"grid step must be positive, got {step}")
        factor = _as_int(self.refinement_factor,
                         "refinement_factor must be an integer")
        if factor < 1:
            raise ParameterError(
                f"refinement_factor must be >= 1, got {self.refinement_factor}")
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "refinement_factor", factor)

    def times(self) -> np.ndarray:
        count = int(np.floor(self.end / self.step + 1e-9))
        return self.step * np.arange(count + 1)


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


def sweep_map(evaluate, values, workers=None) -> list:
    """``evaluate`` on every value on ``workers`` threads (default: the CPU
    count), results in input order."""
    values = list(values)
    workers = (os.cpu_count() or 1) if workers is None else int(workers)
    if workers <= 1 or len(values) <= 1:
        return [evaluate(v) for v in values]
    with ThreadPoolExecutor(max_workers=min(workers, len(values))) as pool:
        return list(pool.map(evaluate, values))  # input order preserved


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
            base, num_qubits=value,
            battery=base.battery.on_family(base.battery.family),
            charger=base.charger.on_family(base.charger.family))
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


def sweep(base: ProtocolSpec, parameter: str, values, grid: TimeGrid,
          backend: PropagatorBackend, workers=None) -> list[SweepRecord]:
    """Independent protocol runs over one parameter, in input order.

    ``parameter`` is ``lambda``, ``N`` or ``J`` as in ``substituted_protocol``;
    a coupling sweep is fitted with ``fit_log10`` over its records.
    """
    def point(value):
        protocol = substituted_protocol(base, parameter, value)
        series = stored_energy_series(protocol, grid, backend)
        return SweepRecord.from_series(parameter, value, series)

    return sweep_map(point, values, workers)
