"""Exact identities of the charging dynamics, checked up to N = 12.

Each reference is restated here from the physics rather than computed by a
second solver:

* Kramers-Wannier duality: on an even ring, sigma^z_j <-> sigma^x_j
  sigma^x_{j+1} maps FieldZ(h) <- IsingNN(J) onto IsingNN(J=h) <- FieldZ(h=J),
  H_B included, so both protocols give the same <H_B> series.
* IsingNN and IsingATA commute, so either one charging the other stores
  nothing, at every lambda.
* At lambda = 1 the charger alone drives.  From the all-down FieldZ ground
  state an Ising charger gives <sigma^z_j> = -prod_m cos(2 J w_jm t) over the
  partners m of site j, so delta_e = h N (1 - prod_m cos(2 J w_jm t)).  From
  the Neel ground state of an even IsingNN ring the field rotates every bond,
  so delta_e = J N sin^2(2 h t).
"""

import numpy as np
import numpy.testing as npt
import pytest

from spinbattery import (Family, HamiltonianSpec, PropagatorBackend,
                         ProtocolEvolution, ProtocolSpec)

TIMES = np.linspace(0.0, 30.0, 301)
ATOL = 1e-11


def stored_energy(battery, charger, lam, num_qubits):
    engine = ProtocolEvolution(
        ProtocolSpec(battery, charger, lam=lam, num_qubits=num_qubits),
        PropagatorBackend())
    energies = engine.battery_energy(TIMES)
    return energies - energies[0]


@pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("num_qubits", [6, 10])
def test_kramers_wannier_dual_protocols_agree(num_qubits, lam):
    h, J = 0.7, 1.3
    field_battery = stored_energy(HamiltonianSpec(Family.FIELD_Z, h=h),
                                  HamiltonianSpec(Family.ISING_NN, J=J),
                                  lam, num_qubits)
    ising_battery = stored_energy(HamiltonianSpec(Family.ISING_NN, J=h),
                                  HamiltonianSpec(Family.FIELD_Z, h=J),
                                  lam, num_qubits)
    assert np.abs(field_battery).max() > 0.1
    npt.assert_allclose(ising_battery, field_battery, rtol=0, atol=ATOL)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("order", ["NN<-ATA", "ATA<-NN"])
@pytest.mark.parametrize("num_qubits", [5, 8])
def test_commuting_ising_pairs_store_nothing(num_qubits, order, lam):
    nn = HamiltonianSpec(Family.ISING_NN, J=0.9)
    ata = HamiltonianSpec(Family.ISING_ATA, J=1.4)
    battery, charger = (nn, ata) if order == "NN<-ATA" else (ata, nn)
    npt.assert_allclose(stored_energy(battery, charger, lam, num_qubits), 0.0,
                        rtol=0, atol=ATOL)


def partner_weights(family, num_qubits):
    """Coupling weight of site 1 to each partner, counting each pair once."""
    if family is Family.ISING_NN:
        return [1.0, 1.0]
    weights = []
    for k in range(1, num_qubits // 2 + 1):
        sides = 1 if 2 * k == num_qubits else 2  # the antipode is one site
        weights += [2.0 ** -(k - 1)] * sides
    return weights


@pytest.mark.parametrize("family", [Family.ISING_NN, Family.ISING_ATA],
                         ids=lambda f: f.value)
@pytest.mark.parametrize("num_qubits", [5, 8, 9, 12])
def test_ising_charger_closed_form_at_full_countereffect(family, num_qubits):
    h, J = 0.8, 1.1
    cosines = np.prod([np.cos(2.0 * J * w * TIMES)
                       for w in partner_weights(family, num_qubits)], axis=0)
    expected = h * num_qubits * (1.0 - cosines)
    npt.assert_allclose(
        stored_energy(HamiltonianSpec(Family.FIELD_Z, h=h),
                      HamiltonianSpec(family, J=J), 1.0, num_qubits),
        expected, rtol=0, atol=ATOL)


@pytest.mark.parametrize("num_qubits", [4, 8, 12])
def test_field_charger_closed_form_on_even_ising_rings(num_qubits):
    h, J = 0.6, 1.2
    expected = J * num_qubits * np.sin(2.0 * h * TIMES) ** 2
    npt.assert_allclose(
        stored_energy(HamiltonianSpec(Family.ISING_NN, J=J),
                      HamiltonianSpec(Family.FIELD_Z, h=h), 1.0, num_qubits),
        expected, rtol=0, atol=ATOL)
