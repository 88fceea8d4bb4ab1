"""Benchmark of full spinbattery runs, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each round is a fresh process
(child.py) that imports the package from ``src/``, resolves the workload's
config and calls ``spinbattery.runner.run(config, workers=2)``.  Rounds
repeat until the next one would end past ``--seconds``; there is always at
least one.  With ``--trace 0``, extra set-up-only processes, half before
the rounds and half after, give ``setup_s`` enough samples for a median.
Every round's outputs are checked against checks.py.

``--trace 0`` reports the end-to-end metrics (medians over rounds).
``--trace 1`` runs one plain round and one traced round, and reports the
per-layer metrics of the traced one plus ``trace.overhead_s``, the traced
minus the plain ``run_s``.  The spans go to
``.perfbench_out/<workload>/trace.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 160
OUTPUT_ROOT = ".perfbench_out"


def _spawn(root: Path, config: Path, out_dir: Path, setup_only=False,
           trace: Path | None = None) -> dict:
    result = out_dir.with_suffix(".json")
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
           "--output", str(out_dir), "--result", str(result),
           "--started", repr(started)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    subprocess.run(cmd, cwd=root, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=sys.stderr)
    return json.loads(result.read_text(encoding="ascii"))


def _program_ground_state(root: Path, workload):
    """The package's public ground state of the workload's battery."""
    sys.path.insert(0, str(root / "src"))
    import spinbattery
    spec = spinbattery.HamiltonianSpec(workload.battery, J=workload.J)
    energy, state = spinbattery.ground_state(
        spinbattery.build(spec, workload.num_qubits))
    return energy, state.amplitudes


def _output_size(out_dir: Path) -> tuple[int, int]:
    files = [p for p in out_dir.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spinbattery" / "__init__.py").is_file():
        print(f"perfbench: no src/spinbattery under {root}; run from the "
              "root of a spinbattery checkout", file=sys.stderr)
        return 2
    import checks
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    base = root / OUTPUT_ROOT / workload.name
    rounds_dir = base / "rounds"
    shutil.rmtree(rounds_dir, ignore_errors=True)
    rounds_dir.mkdir(parents=True)
    config = base / f"{workload.name}.ini"
    config.write_text(workload.config, encoding="ascii")

    def probe_setup(indices):
        return [] if args.trace else [
            _spawn(root, config, rounds_dir / f"setup{i}", setup_only=True)
            for i in indices]

    half = SETUP_PROBES // 2
    probes = probe_setup(range(half))
    rounds = []  # (output directory, child result)
    if args.trace:
        trace_file = base / "trace.json"
        for tag, trace in (("plain", None), ("traced", trace_file)):
            out_dir = rounds_dir / tag
            rounds.append((out_dir, _spawn(root, config, out_dir, trace=trace)))
    else:
        began = time.monotonic()
        while True:
            out_dir = rounds_dir / f"round{len(rounds)}"
            rounds.append((out_dir, _spawn(root, config, out_dir)))
            elapsed = time.monotonic() - began
            if elapsed + rounds[-1][1]["run_s"] > args.seconds:
                break
    probes += probe_setup(range(half, SETUP_PROBES))
    setup = [r["setup_s"] for r in probes + [r for _, r in rounds]]

    ground = None
    if workload.battery != "FieldZ":
        ground = lambda: _program_ground_state(root, workload)
    reference = checks.Reference(workload, ground)
    problems, failed, attempted = [], 0, 0
    digests = []
    for out_dir, _ in rounds:
        points, errored, whole, round_digests = checks.check_round(
            reference, out_dir, args.seed)
        attempted += len(workload.lambdas)
        failed += len(errored | {label for label, p in points.items() if p})
        problems += [f"{out_dir.name}: {label}: {p}"
                     for label, plist in points.items() for p in plist]
        problems += [f"{out_dir.name}: {p}" for p in whole]
        digests.append(round_digests)

    # README.md promises byte-identical CSVs across repeated runs.  The
    # values sometimes differ in the last printed digit from run to run
    # (see CHANGES.md), so a mismatch is reported here but, failing only
    # now and then, does not count against correct or failed.
    stored = base / "csv_digests.json"
    if stored.is_file():
        digests.append(json.loads(stored.read_text(encoding="ascii")))
    elif not problems:
        stored.write_text(json.dumps(digests[0], sort_keys=True),
                          encoding="ascii")
    differing = sorted({name for d in digests[1:] for name in digests[0]
                        if d.get(name) != digests[0][name]})
    if differing:
        print(f"note: CSV bytes differ from an earlier round or run of this "
              f"checkout: {', '.join(differing)}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    results = [result for _, result in rounds]
    for out_dir, result in rounds:
        print(f"{out_dir.name}: {json.dumps(result)}", file=sys.stderr)
    if args.trace:
        trace = json.loads(trace_file.read_text(encoding="ascii"))
        files, size = _output_size(rounds[1][0])
        metrics = tracing.layer_metrics(trace["spans"], trace["meta"]["workers"],
                                        files, size)
        metrics["trace.overhead_s"] = (results[1]["run_s"] - results[0]["run_s"],
                                       "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(r["run_s"] for r in results), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in results), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in results), "MB"),
        }
    print(f"{workload.name}: seed {args.seed}, {len(rounds)} round(s), "
          f"{attempted} points attempted, {failed} failed, "
          f"{len(setup)} set-up samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
