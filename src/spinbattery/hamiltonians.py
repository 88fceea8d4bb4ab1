"""Spin-chain Hamiltonian families and the piecewise charging protocol.

Five families on a periodic ring of N spin-1/2 sites (hbar = 1):

* ``FieldZ``   -- uniform transverse field, ``h * sum_j sigma_j^z``
* ``IsingNN``  -- nearest-neighbor Ising, ``J * sum_j sigma_j^x sigma_{j+1}^x``
* ``IsingATA`` -- long-range Ising whose k-th-neighbor coupling decays as
  ``2**-(k-1)`` up to range K
* ``XYNN``     -- anisotropic XY, ``J * [(1+gamma) XX + (1-gamma) YY]`` bonds
* ``XYATA``    -- long-range XY with the same ``2**-(k-1)`` decay

The charging protocol switches between a battery Hamiltonian H_B and a
charging one at t = 0: while the charger is on, the system evolves under
``(1 - lambda) * H_B + H_C``, where lambda in [0, 1] suppresses the battery's
own term during charging.  Values up to 5 are accepted once extended mode is
explicitly enabled.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .errors import ParameterError
from .qubit_ops import PauliAxis, PauliTerm, SparseOperator, assemble


class Family(enum.Enum):
    FIELD_Z = "FieldZ"
    ISING_NN = "IsingNN"
    ISING_ATA = "IsingATA"
    XY_NN = "XYNN"
    XY_ATA = "XYATA"


# The parameters each family takes, with their defaults (the standard figure
# parameters); K = None is the maximal range of the ring.
_PARAMETERS = {
    Family.FIELD_Z: {"h": 1.0},
    Family.ISING_NN: {"J": 1.0},
    Family.ISING_ATA: {"J": 1.0, "K": None},
    Family.XY_NN: {"J": 1.0, "gamma": 0.5},
    Family.XY_ATA: {"J": 1.0, "gamma": 0.5, "K": None},
}
INTERACTING_FAMILIES = frozenset(f for f, p in _PARAMETERS.items() if "J" in p)
_ATA_FAMILIES = frozenset(f for f, p in _PARAMETERS.items() if "K" in p)
_XY_FAMILIES = frozenset(f for f, p in _PARAMETERS.items() if "gamma" in p)

CANONICAL_LAMBDA_MAX = 1.0
EXTENDED_LAMBDA_MAX = 5.0


def _as_family(value) -> Family:
    """A ``Family`` or its value in any letter case."""
    if isinstance(value, Family):
        return value
    key = str(value).strip().lower()
    for family in Family:
        if family.value.lower() == key:
            return family
    names = ", ".join(f.value for f in Family)
    raise ParameterError(f"unknown family {value!r} (choose from {names})")


def _as_int(value, error: str) -> int:
    """``value`` as an int; a fractional or non-numeric value is an error."""
    try:
        whole = int(value)
        if whole == float(value):
            return whole
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{error}, got {value}")


def _checked(key: str, value):
    """One parameter value, converted and range-checked."""
    if key == "K":
        K = _as_int(value, "interaction range K must be an integer")
        if K < 1:
            raise ParameterError(f"interaction range K must be >= 1, got {K}")
        return K
    value = float(value)
    if key == "gamma" and not -1.0 <= value <= 1.0:
        raise ParameterError(f"gamma must lie in [-1, 1], got {value}")
    if not math.isfinite(value):
        raise ParameterError(f"{key} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class HamiltonianSpec:
    """Parameters selecting one member of one family.

    A family takes only the parameters ``_PARAMETERS`` lists for it, and
    those left unset take the defaults listed there.
    """

    family: Family
    h: float | None = None
    J: float | None = None
    gamma: float | None = None
    K: int | None = None

    def __post_init__(self):
        family = _as_family(self.family)
        object.__setattr__(self, "family", family)
        taken = _PARAMETERS[family]
        for key in ("h", "J", "gamma", "K"):
            value = getattr(self, key)
            if value is not None and key not in taken:
                raise ParameterError(f"{key} is meaningless for {family.value}")
            if value is None:
                value = taken.get(key)
            if value is not None:
                object.__setattr__(self, key, _checked(key, value))

    @property
    def is_interacting(self) -> bool:
        return self.family in INTERACTING_FAMILIES

    def on_family(self, family) -> "HamiltonianSpec":
        """This spec's h, J and gamma on ``family``, at its maximal range.

        Only the parameters ``family`` takes are kept; the ones this spec
        leaves unset take the family's defaults.
        """
        family = _as_family(family)
        return HamiltonianSpec(family, **{key: getattr(self, key)
                                          for key in _PARAMETERS[family]
                                          if key != "K"})


def interaction_range(num_qubits: int) -> int:
    """Largest neighbor distance K such that each ring pair occurs once.

    Odd N: K = (N-1)/2.  Even N: K = N/2, where the antipodal distance
    k = N/2 pairs each site with exactly one partner.
    """
    num_qubits = _as_int(num_qubits, "ring sizes must be integers")
    if num_qubits < 3:
        raise ParameterError(f"interaction range needs N >= 3, got {num_qubits}")
    if num_qubits % 2:
        return (num_qubits - 1) // 2
    return num_qubits // 2


def _min_size(family: Family) -> int:
    return 3 if family in INTERACTING_FAMILIES else 1


def _ring_partner(j: int, k: int, num_qubits: int) -> int:
    return (j + k - 1) % num_qubits + 1


def _weighted_pairs(num_qubits: int, max_range: int, literal_ata_sum: bool):
    """Yield (site_a, site_b, weight) with the 2**-(k-1) decay profile.

    At the antipodal distance k = N/2 of an even ring, the j-sum is
    restricted to the first half so each unordered pair enters once.  The
    literal switch keeps the full j-sum instead, which double-counts those
    antipodal bonds.
    """
    for k in range(1, max_range + 1):
        weight = 2.0 ** -(k - 1)
        last_j = num_qubits
        if not literal_ata_sum and num_qubits % 2 == 0 and k == num_qubits // 2:
            last_j = num_qubits // 2
        for j in range(1, last_j + 1):
            yield j, _ring_partner(j, k, num_qubits), weight


def _coupling_terms(pairs, axis: PauliAxis, coefficient: float):
    return [
        PauliTerm([(a, axis), (b, axis)], coefficient * w)
        for a, b, w in pairs
    ]


def build(spec: HamiltonianSpec, num_qubits: int,
          literal_ata_sum: bool = False) -> SparseOperator:
    """Assemble the requested family on a periodic ring of ``num_qubits``."""
    num_qubits = _as_int(num_qubits, "ring sizes must be integers")
    if num_qubits < _min_size(spec.family):
        raise ParameterError(
            f"{spec.family.value} needs N >= {_min_size(spec.family)}, "
            f"got {num_qubits}")

    if spec.family is Family.FIELD_Z:
        terms = [PauliTerm([(j, PauliAxis.Z)], spec.h)
                 for j in range(1, num_qubits + 1)]
        return assemble(terms, num_qubits)

    if spec.family in _ATA_FAMILIES:
        max_range = interaction_range(num_qubits)
        if spec.K is not None:
            if spec.K > max_range:
                raise ParameterError(
                    f"K={spec.K} exceeds the maximal range {max_range} for "
                    f"N={num_qubits}")
            max_range = spec.K
        pairs = list(_weighted_pairs(num_qubits, max_range, literal_ata_sum))
    else:
        pairs = [(j, _ring_partner(j, 1, num_qubits), 1.0)
                 for j in range(1, num_qubits + 1)]

    if spec.family in _XY_FAMILIES:
        terms = _coupling_terms(pairs, PauliAxis.X, spec.J * (1.0 + spec.gamma))
        terms += _coupling_terms(pairs, PauliAxis.Y, spec.J * (1.0 - spec.gamma))
    else:
        terms = _coupling_terms(pairs, PauliAxis.X, spec.J)
    return assemble(terms, num_qubits)


@functools.lru_cache(maxsize=8)
def _shared_build(spec: HamiltonianSpec, num_qubits: int,
                  literal_ata_sum: bool = False) -> SparseOperator:
    """``build``, memoized per process: a sweep builds its battery and charger
    once.  Callers share the operator and must not modify it."""
    return build(spec, num_qubits, literal_ata_sum)


class ProtocolPhase(enum.Enum):
    BEFORE_CHARGING = "BeforeCharging"
    CHARGING = "Charging"
    AFTER_CHARGING = "AfterCharging"


@dataclass(frozen=True)
class ProtocolSpec:
    """Battery/charger pairing plus the switching parameters.

    ``t_on = None`` means the charger stays on for the whole simulated
    window.  ``lam`` is the countereffect strength applied to the battery
    term while charging; the extended range up to 5 must be opted into.
    """

    battery: HamiltonianSpec
    charger: HamiltonianSpec
    lam: float
    num_qubits: int
    t_on: float | None = None
    extended_lambda: bool = False
    literal_ata_sum: bool = False

    def __post_init__(self):
        for flag in ("extended_lambda", "literal_ata_sum"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                # a truthy string such as "no" would silently flip the flag
                raise ParameterError(f"{flag} must be a bool, got {value!r}")
        num_qubits = _as_int(self.num_qubits, "ring sizes must be integers")
        # a single site has no parity sector for the protocol to run in
        needed = max(2, _min_size(self.battery.family),
                     _min_size(self.charger.family))
        if num_qubits < needed:
            raise ParameterError(
                f"N={num_qubits} too small for this battery/charger pair "
                f"(needs N >= {needed})")
        object.__setattr__(self, "num_qubits", num_qubits)
        lam = float(self.lam)
        lam_max = EXTENDED_LAMBDA_MAX if self.extended_lambda else CANONICAL_LAMBDA_MAX
        if not math.isfinite(lam) or not 0.0 <= lam <= lam_max:
            hint = "" if self.extended_lambda else \
                " (enable extended_lambda for values up to 5)"
            raise ParameterError(
                f"lambda must lie in [0, {lam_max:g}], got {lam}{hint}")
        object.__setattr__(self, "lam", lam)
        if self.t_on is not None:
            t_on = float(self.t_on)
            if not math.isfinite(t_on) or t_on <= 0.0:
                raise ParameterError(
                    f"t_on must be positive (or None for always-on), got {t_on}")
            object.__setattr__(self, "t_on", t_on)


def protocol_hamiltonian(p: ProtocolSpec, phase: ProtocolPhase) -> SparseOperator:
    """Generator of the dynamics within one protocol phase.

    While charging, the battery term is scaled by (1 - lambda) and the
    charger is added on top.  For interacting batteries this is the same
    matrix as rescaling the battery coupling J -> (1 - lambda) J, so no
    separate code path exists for that variant.
    """
    if not isinstance(phase, ProtocolPhase):
        raise ParameterError(f"expected ProtocolPhase, got {phase!r}")
    battery = _shared_build(p.battery, p.num_qubits, p.literal_ata_sum)
    if phase is not ProtocolPhase.CHARGING:
        return battery
    charger = _shared_build(p.charger, p.num_qubits, p.literal_ata_sum)
    return (1.0 - p.lam) * battery + charger
