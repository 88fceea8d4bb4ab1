"""Charge a six-spin ring and print the stored-energy curve.

The battery is a transverse field on every spin; the charger couples the
spins with long-range Ising interactions.  At full countereffect strength
the battery term is removed from the charging dynamics and the stored
energy climbs to the spectral bound 2hN at a revival time.
"""

from spinbattery import (
    Family,
    HamiltonianSpec,
    PropagatorBackend,
    ProtocolSpec,
    TimeGrid,
    max_over_time,
    stored_energy_series,
)


def main():
    protocol = ProtocolSpec(
        battery=HamiltonianSpec(Family.FIELD_Z, h=1.0),
        charger=HamiltonianSpec(Family.ISING_ATA, J=1.0),
        lam=1.0,
        num_qubits=6,
    )
    grid = TimeGrid(end=25.0, step=0.05)
    series = stored_energy_series(protocol, grid, PropagatorBackend())

    print("six-spin ring, field battery, long-range Ising charger, lam=1")
    print(f"{'t':>8s} {'delta_e':>10s} {'power':>10s}")
    for i in range(0, series.times.size, 25):
        print(f"{series.times[i]:8.2f} {series.delta_e[i]:10.4f} "
              f"{series.power[i]:10.4f}")

    t_e, de = max_over_time(series, "energy")
    t_p, p = max_over_time(series, "power")
    print(f"\npeak stored energy {de:.4f} at t={t_e:.3f} "
          f"(bound 2hN = {2 * 6})")
    print(f"peak average power {p:.4f} at t={t_p:.3f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the plot")
        return
    fig, (top, bottom) = plt.subplots(2, 1, sharex=True, figsize=(6, 5))
    top.plot(series.times, series.delta_e)
    top.set_ylabel("stored energy")
    bottom.plot(series.times, series.power)
    bottom.set_ylabel("average power")
    bottom.set_xlabel("time")
    fig.tight_layout()
    fig.savefig("charging_curve.png", dpi=120)
    print("\nwrote charging_curve.png")


if __name__ == "__main__":
    main()
