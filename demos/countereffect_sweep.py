"""Sweep the countereffect strength, then peek beyond the canonical range.

Within lam in [0, 1] the peak average power rises monotonically and is
best at lam = 1, where the battery term is fully suppressed during
charging.  Formally continuing to lam > 1 (battery term driven with a
flipped sign) pushes the power higher still before it falls off; the
extended range is an explicit opt-in.
"""

from spinbattery import (
    Family,
    HamiltonianSpec,
    PropagatorBackend,
    ProtocolSpec,
    TimeGrid,
    sweep,
)


def main():
    backend = PropagatorBackend.dense()
    grid = TimeGrid(end=50.0, step=0.05)

    base = ProtocolSpec(
        battery=HamiltonianSpec(Family.FIELD_Z, h=1.0),
        charger=HamiltonianSpec(Family.ISING_ATA, J=1.0),
        lam=0.0,
        num_qubits=8,
    )
    lambdas = [0.1 * i for i in range(11)]
    records = sweep(base, "lambda", lambdas, grid, backend)

    print("canonical range, eight-spin ring")
    print(f"{'lambda':>7s} {'de_max':>9s} {'p_max':>8s}")
    for record in records:
        print(f"{record.parameter_value:7.1f} {record.delta_e_max:9.4f} "
              f"{record.p_max:8.4f}")

    extended = ProtocolSpec(
        battery=base.battery,
        charger=base.charger,
        lam=0.0,
        num_qubits=8,
        extended_lambda=True,
    )
    lambdas = [0.2 * i for i in range(26)]
    records = sweep(extended, "lambda", lambdas, grid, backend)
    best = max(records, key=lambda r: r.p_max)
    print(f"\nextended range [0, 5]: p_max peaks at "
          f"lam = {best.parameter_value:.1f} with {best.p_max:.4f}")
    at_one = next(r for r in records if abs(r.parameter_value - 1.0) < 1e-9)
    print(f"the stored-energy optimum stays at lam = 1 "
          f"(de_max {at_one.delta_e_max:.4f} vs "
          f"{max(r.delta_e_max for r in records):.4f} overall)")


if __name__ == "__main__":
    main()
