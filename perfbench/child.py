"""One benchmark round in a fresh process: import, resolve, run, report.

Usage (run.py starts it; shown for running a round by hand):

    python3 perfbench/child.py --config C.ini --output DIR --result R.json \
        --started <time.monotonic() at spawn> [--setup-only] [--trace T.json]

``setup_s`` runs from ``--started`` (taken by the parent just before the
spawn, on the system-wide monotonic clock) until the config is resolved, so
it includes interpreter start and ``import spinbattery``.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

WORKERS = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import spinbattery

    if not Path(spinbattery.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"spinbattery imported from {spinbattery.__file__}, "
                         f"not from {src}")
    text = Path(args.config).read_text(encoding="utf-8")
    config = spinbattery.parse_config(text, label=Path(args.config).stem)
    config = dataclasses.replace(config, output_dir=args.output)
    result = {"setup_s": time.monotonic() - args.started}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer, spinbattery)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        status = spinbattery.runner.run(config, workers=WORKERS)
        result["run_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        result["status"] = status
        if tracer is not None:
            tracer.restore()
            tracer.write(args.trace, {
                "workers": WORKERS,
                "blas_env": {k: os.environ.get(k) for k in (
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")},
                "cpu_count": os.cpu_count(),
            })
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             * 1024 / 1e6)
    Path(args.result).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
