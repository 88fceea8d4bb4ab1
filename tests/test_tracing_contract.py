"""The benchmark's span recorder still finds every layer it wraps.

``perfbench/tracing.py`` replaces module attributes from outside the
package, so a refactor that stops looking a name up at call time, or
changes its positional signature, silently drops spans.  This runs a small
traced sweep and checks the names, the ground-state count and the restore.
"""

import sys
from pathlib import Path

import spinbattery
from spinbattery.runner import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

# a battery no other test uses, so its ground-state memo starts cold
SWEEP = """
[battery]
family = FieldZ
h = 0.731

[charger]
family = IsingATA

[protocol]
N = 4
lambda = 0.0

[grid]
end = 2.0

[sweep]
parameter = lambda
values = 0.0, 0.5, 1.0
"""

SPANS = {"runner.run", "metrics.stored_energy_series",
         "dynamics.battery_energy", "dynamics.spectrum",
         "dynamics.ground_state", "hamiltonians.protocol_hamiltonian",
         "qubit_ops.assemble"}


def _patched_attributes():
    runner, dynamics = spinbattery.runner, spinbattery.dynamics
    return [(runner, "run"), (runner, "stored_energy_series"),
            (dynamics.ProtocolEvolution, "battery_energy"),
            (dynamics, "spectrum"), (dynamics, "ground_state"),
            (dynamics, "protocol_hamiltonian"),
            (spinbattery.hamiltonians, "assemble")]


def test_traced_sweep_records_every_layer_and_restores(tmp_path):
    config = parse_config(SWEEP + f"\n[output]\ndirectory = {tmp_path}\n")
    originals = [getattr(owner, attr) for owner, attr in _patched_attributes()]
    tracer = tracing.Tracer()
    tracing.install(tracer, spinbattery)
    try:
        status = spinbattery.runner.run(config, workers=1,
                                        echo=lambda *a, **k: None)
    finally:
        tracer.restore()
    assert status == 0
    assert {span["name"] for span in tracer.spans} == SPANS
    metrics = tracing.layer_metrics(tracer.spans, workers=1, files_written=0,
                                    bytes_written=0)
    assert metrics["dynamics.ground_state.calls"] == (1, "count")
    assert metrics["dynamics.battery_energy.calls"][0] >= 3
    restored = [getattr(owner, attr) for owner, attr in _patched_attributes()]
    assert all(now is then for now, then in zip(restored, originals))
