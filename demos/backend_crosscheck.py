"""Cross-check the two propagators against a brute-force reference.

The dense-eigendecomposition path and the Lanczos path take very different
routes to exp(-iHt); here both are compared with a from-scratch dense
eigensolver on a five-spin ring, along with the closed-form check values
that the transverse-field spectrum makes available.
"""

import math

from spinbattery import (
    Family,
    HamiltonianSpec,
    PropagatorBackend,
    build,
    ground_state,
    propagate,
    spectrum,
)
from spinbattery.oracle import DenseOperator, dense_expm_apply


def main():
    n = 5
    charger = build(HamiltonianSpec(Family.XY_ATA, J=1.0, gamma=0.5), n)
    _, start = ground_state(build(HamiltonianSpec(Family.FIELD_Z, h=1.0), n))
    reference = DenseOperator(charger.to_dense())

    print(f"{n}-spin ring, anisotropic long-range charger")
    print(f"{'t':>6s} {'|1 - <dense|krylov>|':>22s} "
          f"{'|1 - <dense|reference>|':>24s}")
    for t in (0.5, 2.0, 7.5, 20.0):
        dense = propagate(charger, start, t, PropagatorBackend())
        krylov = propagate(charger, start, t, PropagatorBackend("krylov"))
        brute = dense_expm_apply(reference, start, t)
        print(f"{t:6.1f} {1 - abs(dense.overlap(krylov)):22.3e} "
              f"{1 - abs(dense.overlap(brute)):24.3e}")

    field = build(HamiltonianSpec(Family.FIELD_Z, h=1.0), n)
    counts = [count for _, count in spectrum(field).degeneracies()]
    print("\ntransverse-field level multiplicities:", counts)
    print("binomial coefficients for comparison:  ",
          [math.comb(n, k) for k in range(n + 1)])


if __name__ == "__main__":
    main()
