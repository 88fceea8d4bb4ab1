"""The benchmark's workloads: the config each one feeds the program, and the
parameters the checks expect that config to resolve to.

Each workload is fixed; ``--seed`` picks only which rows the independent
propagation checks (see checks.py), so timings do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str            # INI document handed to spinbattery.parse_config
    battery: str
    charger: str
    num_qubits: int
    lambdas: tuple
    grid_end: float
    series: bool           # per-point series CSVs are written
    backend: str
    extended: bool = False
    grid_step: float = 0.05
    refinement_factor: int = 10
    h: float = 1.0
    J: float = 1.0
    # rows re-propagated independently: per series, or per sweep when only
    # summary rows are written
    seeded_rows: int = 4


# Both Krylov N=12 points to t = 2 take 8-12 s on two cores.  krylov-n12 is
# run by hand only and is not in BENCHMARK.json: its run time swings by 20%
# or more from run to run on a shared 2-core box (see README.md).
KRYLOV_END = 2.0

WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig4a-n12",
        config="[preset]\nname = fig4a\n",
        battery="IsingNN", charger="FieldZ", num_qubits=12,
        lambdas=(0.0, 1.0), grid_end=100.0, series=True, backend="DenseEigen",
    ),
    Workload(
        name="fig7a-lambda51",
        config="[preset]\nname = fig7a\n",
        battery="FieldZ", charger="IsingATA", num_qubits=10,
        lambdas=tuple(round(0.1 * i, 10) for i in range(51)), grid_end=100.0,
        series=False, backend="DenseEigen", extended=True, seeded_rows=2,
    ),
    Workload(
        name="krylov-n12",
        config=(
            "[battery]\nfamily = FieldZ\n\n"
            "[charger]\nfamily = IsingATA\n\n"
            "[protocol]\nN = 12\nlambda = 0.5\n\n"
            f"[grid]\nend = {KRYLOV_END}\n\n"
            "[backend]\nkind = krylov\n\n"
            "[sweep]\nparameter = lambda\nvalues = 0.5, 1.0\nseries = true\n"
        ),
        battery="FieldZ", charger="IsingATA", num_qubits=12,
        lambdas=(0.5, 1.0), grid_end=KRYLOV_END, series=True,
        backend="KrylovLanczos",
    ),
)}
