"""Vary the battery coupling and fit the power against log10(J).

Here the roles are reversed: the ring itself is the interacting battery
and a uniform transverse field does the charging, with no countereffect.
The peak stored energy is best when the battery coupling matches the
charger field (J = h = 1); the peak average power keeps climbing with J,
roughly linearly in log10(J).
"""

from spinbattery import (
    Family,
    HamiltonianSpec,
    PropagatorBackend,
    ProtocolSpec,
    TimeGrid,
    fit_log10,
    sweep,
)


def main():
    base = ProtocolSpec(
        battery=HamiltonianSpec(Family.ISING_NN, J=1.0),
        charger=HamiltonianSpec(Family.FIELD_Z, h=1.0),
        lam=0.0,
        num_qubits=8,
    )
    couplings = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0]
    records = sweep(base, "J", couplings, TimeGrid(end=60.0),
                    PropagatorBackend.dense())
    fit = fit_log10(couplings, [r.p_max for r in records])

    print("ring battery, field charger, lam=0, eight spins")
    print(f"{'J':>5s} {'de_max':>9s} {'t_e':>8s} {'p_max':>8s}")
    for record in records:
        print(f"{record.parameter_value:5.2f} {record.delta_e_max:9.4f} "
              f"{record.t_at_e_max:8.3f} {record.p_max:8.4f}")

    best = max(records, key=lambda r: r.delta_e_max)
    print(f"\nde_max peaks at J = {best.parameter_value:g} "
          "(battery and charger strengths matched)")
    print(f"p_max ~ {fit.slope:.3f} log10(J) + {fit.intercept:.3f}, "
          f"r^2 = {fit.r_squared:.4f}")


if __name__ == "__main__":
    main()
