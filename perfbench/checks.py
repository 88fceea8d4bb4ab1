"""Checks of one round's outputs against reference.py.

Every check compares the program's CSVs with physics computed apart from
it: closed forms where the protocol has one, independent propagation at
seeded rows elsewhere, and properties every output must have.  A point
fails when the manifest lists an error for it or any of its checks fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import eigsh

import reference as ref

# Absolute tolerance on delta_e and on power.  Observed deviations from the
# closed forms and from independent propagation are below 1e-10 on every
# workload (dense and Krylov); the CSVs carry 12 significant digits.
TOL = 1e-8
GROUND_RESIDUAL_TOL = 1e-9
NEGATIVE_TOL = 1e-9
SWEEP_HEADER = "param,value,de_max,t_e,p_max,t_p"
SERIES_HEADER = "t,delta_e,power"


def point_label(lam: float) -> str:
    return f"lambda={lam:g}"


class Reference:
    """Independent battery and charger operators and the initial state."""

    def __init__(self, workload, ground_state=None):
        w = workload
        self.workload = w
        self.hb = ref.hamiltonian(w.battery, w.num_qubits, w.h, w.J)
        self.hc = ref.hamiltonian(w.charger, w.num_qubits, w.h, w.J)
        self.width = ref.spectral_width(w.battery, w.num_qubits, w.h, w.J)
        self.problems = []
        if w.battery == "FieldZ":
            self.e0, self.psi0 = -abs(w.h) * w.num_qubits, ref.all_down(w.num_qubits)
        else:
            # degenerate ground space: take the program's public choice and
            # check it against the independently built battery
            self.e0, self.psi0 = ground_state()
            lowest = eigsh(self.hb, k=1, which="SA")[0][0]
            if abs(lowest - self.e0) > GROUND_RESIDUAL_TOL:
                self.problems.append(
                    f"ground energy {self.e0!r} is not the lowest eigenvalue "
                    f"{lowest!r} of the reference battery")
        residual = ref.eigen_residual(self.hb, self.psi0, self.e0)
        if residual > GROUND_RESIDUAL_TOL:
            self.problems.append(f"initial state residual {residual:.3e} "
                                 f"exceeds {GROUND_RESIDUAL_TOL}")

    def closed_form(self, lam: float, times):
        """Exact delta_e(t) at lambda = 1 for the two solvable pairings."""
        w = self.workload
        if lam != 1.0:
            return None
        if w.battery == "FieldZ" and w.charger in ("IsingNN", "IsingATA"):
            return ref.field_battery_ising_charger(
                times, w.num_qubits, w.h, w.J, w.charger == "IsingATA")
        if (w.battery == "IsingNN" and w.charger == "FieldZ"
                and w.num_qubits % 2 == 0):
            return ref.ising_battery_field_charger(times, w.num_qubits,
                                                   w.h, w.J)
        return None

    def propagated(self, lam: float, times):
        return ref.stored_energy(self.hb, (1.0 - lam) * self.hb + self.hc,
                                 self.psi0, times)

    def grid(self):
        w = self.workload
        count = int(np.floor(w.grid_end / w.grid_step + 1e-9))
        return w.grid_step * np.arange(count + 1)


def _far(a, b) -> bool:
    return bool(np.any(np.abs(np.asarray(a) - np.asarray(b)) > TOL))


def check_point(reference: Reference, lam: float, row: dict, series,
                rng: np.random.Generator, seeded: bool) -> list:
    """Problems with one sweep point's row and (optional) series.

    ``row`` holds de_max, t_e, p_max, t_p; ``series`` is (t, delta_e,
    power) arrays or None.  ``seeded`` asks for independent propagation.
    """
    w = reference.workload
    problems = []
    de_max, t_e, p_max, t_p = (row[k] for k in ("de_max", "t_e", "p_max", "t_p"))
    if not (0.0 <= t_e <= w.grid_end and 0.0 <= t_p <= w.grid_end):
        problems.append(f"peak times {t_e}, {t_p} outside [0, {w.grid_end}]")
    if not -NEGATIVE_TOL <= de_max <= reference.width + TOL:
        problems.append(f"de_max {de_max} outside [0, {reference.width}]")
    if p_max < -NEGATIVE_TOL:
        problems.append(f"p_max {p_max} is negative")

    if series is not None:
        t, de, p = series
        grid = reference.grid()
        if t[0] != 0.0 or de[0] != 0.0 or p[0] != 0.0:
            problems.append("series does not start at t = 0 with delta_e = 0")
        pos = np.clip(np.searchsorted(t, grid), 1, t.size - 1)
        gap = np.minimum(np.abs(t[pos] - grid), np.abs(t[pos - 1] - grid))
        if np.any(np.diff(t) <= 0.0) or gap.max() > 1e-9:
            problems.append("series times are not the ascending refined grid")
        if de.min() < -NEGATIVE_TOL:
            problems.append(f"delta_e reaches {de.min()} < 0")
        if de.max() > reference.width + TOL:
            problems.append(f"delta_e reaches {de.max()} above the spectral "
                            f"width {reference.width}")
        positive = t > 0.0
        expected_p = de[positive] / t[positive]
        if np.any(np.abs(p[positive] - expected_p)
                  > 1e-10 * np.maximum(1.0, np.abs(expected_p))):
            problems.append("power column is not delta_e / t")
        if de_max != de.max() or de_max not in de[t == t_e]:
            problems.append("de_max/t_e is not the maximum of its series")
        if p_max != p.max() or p_max not in p[t == t_p]:
            problems.append("p_max/t_p is not the maximum of its series")
        exact = reference.closed_form(lam, t)
        if exact is not None:
            if _far(de, exact):
                worst = float(np.abs(de - exact).max())
                problems.append(f"series differs from the closed form by {worst:.3e}")
        elif seeded:
            rows = rng.choice(t.size, size=min(w.seeded_rows, t.size),
                              replace=False)
            rows = np.union1d(rows, [int(np.argmax(de))])
            independent = reference.propagated(lam, t[rows])
            if _far(de[rows], independent):
                worst = float(np.abs(de[rows] - independent).max())
                problems.append(f"series differs from independent "
                                f"propagation by {worst:.3e} at t={t[rows]}")
        return problems

    grid = reference.grid()
    exact = reference.closed_form(lam, np.concatenate([[t_e, t_p], grid]))
    if exact is not None:
        on_grid = exact[2:]
        if _far(exact[0], de_max) or _far(exact[1] / t_p, p_max):
            problems.append("peak values differ from the closed form at "
                            "their reported times")
        if on_grid.max() > de_max + TOL or \
                (on_grid[1:] / grid[1:]).max() > p_max + TOL:
            problems.append("the closed form exceeds the reported peak on "
                            "the grid")
    if seeded:
        probes = rng.choice(grid[1:], size=2, replace=False)
        values = reference.propagated(lam, np.concatenate([[t_e, t_p], probes]))
        if _far(values[0], de_max) or _far(values[1] / t_p, p_max):
            problems.append("peak values differ from independent propagation "
                            "at their reported times")
        if np.any(values[2:] > de_max + TOL) or \
                np.any(values[2:] / probes > p_max + TOL):
            problems.append(f"independent propagation exceeds the reported "
                            f"peak at t={probes}")
    return problems


def _read_csv(path: Path, header: str) -> list:
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _expected_parameters(w) -> dict:
    return {
        "battery": w.battery, "charger": w.charger, "N": w.num_qubits,
        "extended_lambda": w.extended, "literal_ata_sum": False,
        "grid": (w.grid_end, w.grid_step, w.refinement_factor),
        "backend": w.backend, "sweep": ("lambda", list(w.lambdas), w.series),
    }


def _manifest_parameters(params: dict) -> dict:
    grid, sweep = params["grid"], params["sweep"]
    return {
        "battery": params["battery"]["family"],
        "charger": params["charger"]["family"], "N": params["N"],
        "extended_lambda": params["extended_lambda"],
        "literal_ata_sum": params["literal_ata_sum"],
        "grid": (grid["end"], grid["step"], grid["refinement_factor"]),
        "backend": params["backend"]["kind"],
        "sweep": (sweep["parameter"], sweep["values"], sweep["emit_series"]),
    }


def check_round(reference: Reference, out_dir: Path, seed: int):
    """Check one round's output directory.

    Returns (check problems per point label, labels of the points the
    manifest lists as errors, problems of the whole round, CSV digests by
    file name).
    """
    w = reference.workload
    labels = [point_label(lam) for lam in w.lambdas]
    points = {label: [] for label in labels}
    whole = list(reference.problems)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if _manifest_parameters(manifest["parameters"]) != _expected_parameters(w):
        whole.append("the config did not resolve to the workload's parameters")
    errored = {entry["point"] for entry in manifest["errors"]}

    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out_dir.glob("*.csv"))}
    rows = {}
    for fields in _read_csv(out_dir / "sweep.csv", SWEEP_HEADER):
        if fields[0] != "lambda" or len(fields) != 6:
            whole.append(f"malformed sweep row {fields}")
            continue
        values = [float(x) for x in fields[1:]]
        rows[point_label(values[0])] = dict(
            zip(("lam", "de_max", "t_e", "p_max", "t_p"), values))

    seeded = set(range(len(labels)))
    if not w.series:  # summary rows only: the seed picks the rows to check
        seeded = set(np.random.default_rng(seed).choice(
            len(labels), size=w.seeded_rows, replace=False).tolist())
    for index, (lam, label) in enumerate(zip(w.lambdas, labels)):
        if label in errored:
            continue
        if label not in rows or rows[label]["lam"] != lam:
            points[label].append("no sweep row for this point")
            continue
        series = None
        if w.series:
            path = out_dir / f"series_lambda_{lam:g}.csv"
            if not path.is_file():
                points[label].append(f"missing {path.name}")
                continue
            data = np.array(_read_csv(path, SERIES_HEADER), dtype=np.float64)
            series = (data[:, 0], data[:, 1], data[:, 2])
        point_rng = np.random.default_rng([seed, index])
        points[label] += check_point(reference, lam, rows[label], series,
                                     point_rng, index in seeded)
    return points, errored, whole, digests
