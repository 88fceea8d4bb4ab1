"""Exact-diagonalization toolkit for spin-chain battery charging protocols."""

from .errors import CapacityError, NumericalError, ParameterError
from .qubit_ops import (
    PauliAxis,
    PauliTerm,
    SparseOperator,
    assemble,
    commutator_norm,
    pauli_site,
)
from .hamiltonians import (
    Family,
    HamiltonianSpec,
    ProtocolPhase,
    ProtocolSpec,
    build,
    interaction_range,
    protocol_hamiltonian,
)
from .dynamics import (
    BackendKind,
    PropagatorBackend,
    ProtocolEvolution,
    SpectralData,
    StateVector,
    expectation,
    ground_state,
    propagate,
    spectrum,
)
from .metrics import (
    LogFit,
    SweepRecord,
    TimeGrid,
    TimeSeries,
    fit_linear,
    fit_log10,
    max_over_time,
    stored_energy_series,
    substituted_protocol,
    sweep,
)

__version__ = "0.1.0"

from .runner import (  # noqa: E402 - needs __version__ defined first
    ExperimentConfig,
    SweepPlan,
    list_presets,
    parse_config,
    preset_config,
    run,
)

__all__ = [
    "ExperimentConfig",
    "SweepPlan",
    "list_presets",
    "parse_config",
    "preset_config",
    "run",
    "BackendKind",
    "CapacityError",
    "Family",
    "HamiltonianSpec",
    "NumericalError",
    "ParameterError",
    "PauliAxis",
    "PauliTerm",
    "PropagatorBackend",
    "ProtocolEvolution",
    "ProtocolPhase",
    "ProtocolSpec",
    "SparseOperator",
    "SpectralData",
    "StateVector",
    "__version__",
    "LogFit",
    "SweepRecord",
    "TimeGrid",
    "TimeSeries",
    "assemble",
    "build",
    "commutator_norm",
    "expectation",
    "fit_linear",
    "fit_log10",
    "ground_state",
    "interaction_range",
    "max_over_time",
    "pauli_site",
    "propagate",
    "protocol_hamiltonian",
    "spectrum",
    "stored_energy_series",
    "substituted_protocol",
    "sweep",
]
