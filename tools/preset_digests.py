"""Run every distinct figure preset and compare its CSVs with pinned digests.

Each distinct preset run (panels that plot the same run share one) runs in
a fresh process as ``python -m spinbattery run --preset NAME --workers 2``
against this checkout's ``src/``.  The SHA-256 of every CSV it writes is
compared with ``tools/preset_digests.json``, which also records the Python,
numpy and scipy versions and each run's wall time.

    python3 tools/preset_digests.py                 # compare, exit 1 on a mismatch
    python3 tools/preset_digests.py --out DIR       # keep the CSVs in DIR
    python3 tools/preset_digests.py --reference DIR # diff mismatches cell by cell
    python3 tools/preset_digests.py --write         # re-pin the digests

``--reference`` names the ``--out`` directory of an earlier run, for
example one made from the parent commit.  For each file whose digest
differs, the number of differing cells and the largest absolute and
relative difference against the reference copy are printed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().with_suffix(".json")
WORKERS = 2

sys.path.insert(0, str(SRC))

from spinbattery.runner import config_hash, list_presets, preset_config  # noqa: E402


def distinct_presets() -> list[str]:
    """The first preset name of each distinct run, in name order."""
    seen, names = set(), []
    for name, _, _ in list_presets():
        digest = config_hash(preset_config(name))
        if digest not in seen:
            seen.add(digest)
            names.append(name)
    return names


def run_preset(name: str, out_dir: Path) -> float:
    """Run one preset in a fresh process; return its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-m", "spinbattery", "run", "--preset",
                    name, "--output", str(out_dir), "--workers", str(WORKERS)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.glob("*.csv"))}


def cell_differences(path: Path, reference: Path) -> str:
    """Differing cells and the largest absolute and relative difference."""
    with open(path, newline="") as a, open(reference, newline="") as b:
        rows, ref_rows = list(csv.reader(a)), list(csv.reader(b))
    if len(rows) != len(ref_rows) or any(
            len(r) != len(s) for r, s in zip(rows, ref_rows)):
        return (f"shape differs: {len(rows)} rows against {len(ref_rows)} "
                "in the reference")
    cells, max_abs, max_rel = 0, 0.0, 0.0
    for row, ref_row in zip(rows, ref_rows):
        for cell, ref_cell in zip(row, ref_row):
            if cell == ref_cell:
                continue
            cells += 1
            try:
                value, ref_value = float(cell), float(ref_cell)
            except ValueError:
                continue  # a text cell (header or parameter name) differs
            diff = abs(value - ref_value)
            max_abs = max(max_abs, diff)
            scale = max(abs(value), abs(ref_value))
            if scale > 0.0:
                max_rel = max(max_rel, diff / scale)
    return (f"{cells} cells differ, max abs {max_abs:.3e}, "
            f"max rel {max_rel:.3e}")


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        help="keep the CSVs here (default: a temporary "
                             "directory, removed at the end)")
    parser.add_argument("--reference", type=Path,
                        help="an earlier --out directory to diff mismatching "
                             "files against")
    parser.add_argument("--write", action="store_true",
                        help=f"re-pin {DIGESTS.name} from this run")
    args = parser.parse_args(argv)

    pinned = (json.loads(DIGESTS.read_text()) if DIGESTS.exists()
              else {"runs": {}})
    with tempfile.TemporaryDirectory() as scratch:
        out_root = args.out or Path(scratch)
        runs, mismatches = {}, 0
        for name in distinct_presets():
            out_dir = out_root / name
            wall = run_preset(name, out_dir)
            digests = csv_digests(out_dir)
            runs[name] = {"wall_s": round(wall, 2), "csv": digests}
            expected = pinned["runs"].get(name, {})
            was = expected.get("wall_s")
            print(f"{name}: {len(digests)} CSVs in {wall:.1f} s"
                  + (f" (pinned {was:.1f} s)" if was is not None else ""))
            want = expected.get("csv", {})
            for csv_name in sorted(set(digests) | set(want)):
                if digests.get(csv_name) == want.get(csv_name):
                    continue
                mismatches += 1
                if csv_name not in digests:
                    print(f"  {csv_name}: missing")
                    continue
                if csv_name not in want:
                    print(f"  {csv_name}: not pinned")
                    continue
                detail = "digest differs"
                reference = (args.reference / name / csv_name
                             if args.reference else None)
                if reference is not None and reference.exists():
                    detail = cell_differences(out_dir / csv_name, reference)
                print(f"  {csv_name}: {detail}")

    total = sum(len(run["csv"]) for run in runs.values())
    wall = sum(run["wall_s"] for run in runs.values())
    print(f"{len(runs)} runs, {total} CSVs, {wall:.1f} s; "
          f"{mismatches} differ from {DIGESTS.name}")
    if args.write:
        DIGESTS.write_text(json.dumps({**versions(), "workers": WORKERS,
                                       "runs": runs}, indent=2,
                                      sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}")
        return 0
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
