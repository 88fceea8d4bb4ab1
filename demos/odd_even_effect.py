"""Show the odd-even effect in the peak stored energy.

With the long-range Ising charger at full countereffect strength, even
rings revive all the way to the spectral bound 2hN while odd rings stop at
hN.  The peak average power shows no such parity split; it grows steadily
with the ring size.
"""

from spinbattery import (
    Family,
    HamiltonianSpec,
    PropagatorBackend,
    ProtocolSpec,
    TimeGrid,
    fit_linear,
    sweep,
)


def main():
    base = ProtocolSpec(
        battery=HamiltonianSpec(Family.FIELD_Z, h=1.0),
        charger=HamiltonianSpec(Family.ISING_ATA, J=1.0),
        lam=1.0,
        num_qubits=4,
    )
    sizes = range(4, 11)
    records = sweep(base, "N", sizes, TimeGrid(), PropagatorBackend.dense())

    print("long-range Ising charger at lam=1")
    print(f"{'N':>3s} {'de_max':>9s} {'de_max/hN':>10s} {'p_max':>8s}")
    for record in records:
        n = record.parameter_value
        print(f"{n:3d} {record.delta_e_max:9.4f} "
              f"{record.delta_e_max / n:10.4f} {record.p_max:8.4f}")

    fit = fit_linear([r.parameter_value for r in records],
                     [r.p_max for r in records])
    print(f"\nde_max/hN alternates between 2 (even N) and 1 (odd N);")
    print(f"p_max fits a line in N with slope {fit.slope:.3f} "
          f"and r^2 = {fit.r_squared:.5f}")


if __name__ == "__main__":
    main()
