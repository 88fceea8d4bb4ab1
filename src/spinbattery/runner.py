"""Config-driven experiment runner and command-line entry point.

A run is described by a flat INI document (sections ``[battery]``,
``[charger]``, ``[protocol]``, ``[grid]``, ``[backend]``, ``[sweep]``,
``[output]``) or by one of the bundled figure presets.  Results are emitted
as CSV files plus a JSON manifest; floats are printed with 12 significant
digits, and repeated runs of one config write byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .dynamics import PropagatorBackend
from .errors import ParameterError
from .hamiltonians import Family, HamiltonianSpec, ProtocolSpec, _as_family
from .metrics import (
    SweepRecord,
    TimeGrid,
    TimeSeries,
    _resolve_workers,
    fit_log10,
    stored_energy_series,
    substituted_protocol,
    sweep_map,
)

_SERIES_HEADER = "t,delta_e,power"
_SWEEP_HEADER = "param,value,de_max,t_e,p_max,t_p"

def _fmt(x: float) -> str:
    """Fixed 12-significant-digit scientific notation."""
    return f"{float(x):.11e}"


def _fmt_value(parameter: str, value) -> str:
    return str(int(value)) if parameter == "N" else _fmt(value)


@dataclass(frozen=True)
class SweepPlan:
    """One swept parameter, its values, and optional charger variants."""

    parameter: str
    values: tuple
    families: tuple[Family, ...] | None = None
    emit_series: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one run (single point or sweep)."""

    protocol: ProtocolSpec
    grid: TimeGrid
    backend: PropagatorBackend
    sweep: SweepPlan | None
    output_dir: str
    label: str

    def consumed_parameters(self) -> dict:
        """Everything that feeds the computation, for manifest and hashing."""
        params = {
            "battery": _spec_dict(self.protocol.battery),
            "charger": _spec_dict(self.protocol.charger),
            "N": self.protocol.num_qubits,
            "lambda": self.protocol.lam,
            "t_on": self.protocol.t_on,
            "extended_lambda": self.protocol.extended_lambda,
            "literal_ata_sum": self.protocol.literal_ata_sum,
            # every window starts at 0; the key keeps old hashes valid
            "grid": {"start": 0.0, "end": self.grid.end,
                     "step": self.grid.step,
                     "refinement_factor": self.grid.refinement_factor},
            "backend": {"kind": self.backend.kind.value,
                        "krylov_dim": self.backend.krylov_dim,
                        "tolerance": self.backend.tolerance},
        }
        if self.sweep is not None:
            params["sweep"] = {
                "parameter": self.sweep.parameter,
                "values": list(self.sweep.values),
                "emit_series": self.sweep.emit_series,
            }
            if self.sweep.families is not None:
                params["sweep"]["families"] = [f.value
                                               for f in self.sweep.families]
        return params


def _spec_dict(spec: HamiltonianSpec) -> dict:
    out = {"family": spec.family.value}
    for key in ("h", "J", "gamma", "K"):
        value = getattr(spec, key)
        if value is not None:
            out[key] = value
    return out


def config_hash(config: ExperimentConfig) -> str:
    """Stable digest of the consumed parameters (not of outputs or paths)."""
    text = json.dumps(config.consumed_parameters(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config document parsing


class _Section:
    """One INI section with typed, name-carrying key extraction."""

    def __init__(self, name: str, pairs: dict):
        self.name = name
        self.pairs = dict(pairs)

    def take(self, key: str, convert, default=None, required=False):
        if key not in self.pairs:
            if required:
                raise ParameterError(f"missing required key {self.name}.{key}")
            return default
        raw = self.pairs.pop(key).strip()
        if raw == "":
            return default
        try:
            return convert(raw)
        except (ValueError, TypeError) as exc:  # ParameterError included
            raise ParameterError(f"bad value for {self.name}.{key}: {exc}")

    def reject_leftovers(self):
        if self.pairs:
            key = sorted(self.pairs)[0]
            raise ParameterError(f"unknown key {self.name}.{key}")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float_list(raw: str) -> tuple[float, ...]:
    items = [piece for piece in raw.replace("\n", ",").split(",")
             if piece.strip()]
    if not items:
        raise ValueError("empty value list")
    return tuple(float(piece) for piece in items)


def _parse_family_list(raw: str) -> tuple[Family, ...]:
    items = [piece for piece in raw.split(",") if piece.strip()]
    return tuple(_as_family(piece) for piece in items)


def _construct(section: _Section, cls, converters: dict, **given):
    """``cls(**given)`` plus the section's keys named in ``converters``.

    Only keys present in the document are passed, so ``cls``'s own defaults
    fill the rest; construction errors are prefixed with the section name.
    """
    for key, convert in converters.items():
        value = section.take(key, convert)
        if value is not None:
            given[key] = value
    section.reject_leftovers()
    try:
        return cls(**given)
    except ParameterError as exc:
        raise ParameterError(f"[{section.name}] {exc}")


def _hamiltonian_from_section(section: _Section) -> HamiltonianSpec:
    family = section.take("family", _as_family, required=True)
    return _construct(section, HamiltonianSpec,
                      {"h": float, "J": float, "gamma": float, "K": int},
                      family=family)


def parse_config(text: str, label: str = "config") -> ExperimentConfig:
    """Validate an INI document and resolve it to an ExperimentConfig.

    Every failure names the offending section and key.  A document whose
    only section is ``[preset]`` resolves to the named preset binding.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (N, J, K, ...)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"malformed config document: {exc}")

    sections = {name: _Section(name, dict(parser.items(name)))
                for name in parser.sections()}
    known = {"preset", "battery", "charger", "protocol", "grid", "backend",
             "sweep", "output"}
    for name in sections:
        if name not in known:
            raise ParameterError(f"unknown section [{name}]")

    if "preset" in sections:
        extra = sorted(set(sections) - {"preset"})
        if extra:
            raise ParameterError(
                f"a preset reference replaces the whole document; remove "
                f"section [{extra[0]}]")
        section = sections["preset"]
        name = section.take("name", str, required=True)
        section.reject_leftovers()
        return preset_config(name)

    for required in ("battery", "charger", "protocol"):
        if required not in sections:
            raise ParameterError(f"missing required section [{required}]")

    battery = _hamiltonian_from_section(sections["battery"])
    charger = _hamiltonian_from_section(sections["charger"])

    protocol_section = sections["protocol"]
    protocol = _construct(
        protocol_section, ProtocolSpec,
        {"t_on": float, "extended_lambda": _parse_bool,
         "literal_ata_sum": _parse_bool},
        battery=battery, charger=charger,
        num_qubits=protocol_section.take("N", int, required=True),
        lam=protocol_section.take("lambda", float, required=True))
    grid = _construct(sections.get("grid", _Section("grid", {})), TimeGrid,
                      {"end": float, "step": float, "refinement_factor": int})
    backend = _construct(sections.get("backend", _Section("backend", {})),
                         PropagatorBackend,
                         {"kind": str, "krylov_dim": int, "tolerance": float})

    sweep = None
    if "sweep" in sections:
        sweep_section = sections["sweep"]
        parameter = sweep_section.take("parameter", str, required=True)
        if parameter not in ("lambda", "N", "J"):
            raise ParameterError(
                f"bad value for sweep.parameter: {parameter!r} "
                "(choose from lambda, N, J)")
        values = sweep_section.take("values", _parse_float_list,
                                    required=True)
        families = sweep_section.take("families", _parse_family_list)
        if families is not None and charger.K is not None:
            raise ParameterError(
                "charger.K cannot be combined with sweep.families: every "
                "swept charger takes its own maximal range")
        emit_series = sweep_section.take("series", _parse_bool, default=False)
        sweep_section.reject_leftovers()
        _, first_charger = _charger_variants(charger, families)[0]
        base = dataclasses.replace(protocol, charger=first_charger)
        for value in values:
            try:
                substituted_protocol(base, parameter, value)
            except ParameterError as exc:
                raise ParameterError(f"[sweep] value {value:g}: {exc}")
        if parameter == "N":
            values = tuple(int(v) for v in values)
        sweep = SweepPlan(parameter, values, families, emit_series)

    output_section = sections.get("output", _Section("output", {}))
    directory = output_section.take("directory", str,
                                    default=f"out_{label}")
    output_section.reject_leftovers()

    return ExperimentConfig(protocol=protocol, grid=grid, backend=backend,
                            sweep=sweep, output_dir=directory, label=label)


def _charger_variants(template: HamiltonianSpec, families) -> list:
    """(family or None, charger spec) per swept charger.

    Without a family list the template itself is the one charger; otherwise
    each family takes the template's h, J and gamma where it sets them.
    """
    if families is None:
        return [(None, template)]
    return [(f, template.on_family(f)) for f in families]


# ---------------------------------------------------------------------------
# figure presets

_ALL_CHARGERS = (Family.ISING_ATA, Family.ISING_NN,
                 Family.XY_ATA, Family.XY_NN)

_LAMBDA_5 = (0.0, 0.25, 0.5, 0.75, 1.0)
_LAMBDA_11 = tuple(round(0.1 * i, 10) for i in range(11))
_LAMBDA_EXTENDED = tuple(round(0.1 * i, 10) for i in range(51))
_J_SWEEP = (0.25,) + tuple(round(0.5 + 0.1 * i, 10) for i in range(16)) + (4.0,)

# One row per distinct run; the panels of one figure that plot the same
# run share its row.  Columns: battery, charger, lambda, N, swept parameter,
# values, per-point series, swept charger families (None keeps the charger),
# extended lambda, {panel name: description}.  Every spec, the grid and the
# backend take their constructors' defaults.
_PRESET_RUNS = (
    ("FieldZ", "IsingATA", 0.0, 10, "lambda", _LAMBDA_5, True, None, False,
     {"fig2a": "stored energy vs time across lambda",
      "fig2b": "charging power vs time across lambda"}),
    ("FieldZ", "IsingATA", 1.0, 5, "N", (5, 7, 9, 11), True, None, False,
     {"fig2c1": "stored energy vs time for odd ring sizes"}),
    ("FieldZ", "IsingATA", 1.0, 6, "N", (6, 8, 10, 12), True, None, False,
     {"fig2c2": "stored energy vs time for even ring sizes"}),
    ("FieldZ", "IsingATA", 1.0, 5, "N", tuple(range(5, 13)), True, None, False,
     {"fig2d": "charging power vs time across ring sizes"}),
    ("FieldZ", "IsingATA", 0.0, 10, "lambda", _LAMBDA_11, False, _ALL_CHARGERS,
     False, {"fig3a": "peak stored energy vs lambda, four chargers",
             "fig3b": "peak power vs lambda, four chargers"}),
    ("FieldZ", "IsingATA", 1.0, 4, "N", tuple(range(4, 13)), False,
     _ALL_CHARGERS, False,
     {"fig3c": "peak stored energy vs ring size, four chargers",
      "fig3d": "peak power vs ring size, four chargers"}),
    ("IsingNN", "FieldZ", 0.0, 12, "lambda", (0.0, 1.0), True, None, False,
     {"fig4a": "stored energy vs time, interacting battery",
      "fig4b": "charging power vs time, interacting battery"}),
    ("XYNN", "FieldZ", 0.0, 12, "lambda", (0.0, 1.0), True, None, False,
     {"fig4c": "stored energy vs time, anisotropic battery",
      "fig4d": "charging power vs time, anisotropic battery"}),
    ("IsingNN", "FieldZ", 0.0, 12, "J", _J_SWEEP, True, None, False,
     {"fig5a": "stored energy vs time across battery couplings",
      "fig5b": "charging power vs time across battery couplings"}),
    ("IsingNN", "XYNN", 0.0, 12, "lambda", (0.0, 1.0), True, None, False,
     {"fig6a": "stored energy, Ising battery XY charger",
      "fig6b": "charging power, Ising battery XY charger"}),
    ("XYNN", "IsingNN", 0.0, 12, "lambda", (0.0, 1.0), True, None, False,
     {"fig6c": "stored energy, XY battery Ising charger",
      "fig6d": "charging power, XY battery Ising charger"}),
    ("FieldZ", "IsingATA", 0.0, 10, "lambda", _LAMBDA_EXTENDED, False, None,
     True, {"fig7a": "peak power vs extended lambda, Ising charger"}),
    ("FieldZ", "XYATA", 0.0, 10, "lambda", _LAMBDA_EXTENDED, False, None,
     True, {"fig7b": "peak power vs extended lambda, XY charger"}),
)

_PRESET_DESCRIPTIONS = {name: description for *_, panels in _PRESET_RUNS
                        for name, description in panels.items()}
PRESET_NAMES = tuple(sorted(_PRESET_DESCRIPTIONS))


def preset_config(name: str) -> ExperimentConfig:
    """The bound ExperimentConfig for one named figure preset."""
    for (battery, charger, lam, N, parameter, values, series, chargers,
         extended, panels) in _PRESET_RUNS:
        if name in panels:
            protocol = ProtocolSpec(HamiltonianSpec(battery),
                                    HamiltonianSpec(charger), lam=lam,
                                    num_qubits=N, extended_lambda=extended)
            return ExperimentConfig(
                protocol=protocol, grid=TimeGrid(), backend=PropagatorBackend(),
                sweep=SweepPlan(parameter, values, chargers, series),
                output_dir=f"out_{name}", label=name)
    raise ParameterError(f"unknown preset {name!r} "
                         f"(choose from {', '.join(PRESET_NAMES)})")


def _preset_summary(config: ExperimentConfig) -> str:
    p = config.protocol
    parts = [f"battery={p.battery.family.value}",
             f"charger={p.charger.family.value}",
             f"N={p.num_qubits}", f"lambda={p.lam:g}"]
    if config.sweep is not None:
        parts.append(f"sweep={config.sweep.parameter}")
        values = config.sweep.values
        shown = ",".join(f"{v:g}" for v in values) if len(values) <= 8 \
            else f"{values[0]:g}..{values[-1]:g} ({len(values)} pts)"
        parts.append(f"values={shown}")
        if config.sweep.families is not None:
            parts.append("chargers=" + ",".join(
                f.value for f in config.sweep.families))
        if config.sweep.emit_series:
            parts.append("series")
    if p.extended_lambda:
        parts.append("extended")
    return " ".join(parts)


def list_presets() -> list[tuple[str, str, str]]:
    """(name, parameter summary, description) rows, deterministic order."""
    return [(name, _preset_summary(preset_config(name)),
             _PRESET_DESCRIPTIONS[name]) for name in PRESET_NAMES]


# ---------------------------------------------------------------------------
# execution and emission


def _write_text(path: Path, lines) -> None:
    """Write ``lines`` through ``<name>.tmp`` and a rename: all or nothing."""
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "w", encoding="ascii", newline="\n") as sink:
            sink.writelines(line + "\n" for line in lines)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _series_lines(series: TimeSeries):
    yield _SERIES_HEADER
    for t, de, p in zip(series.times, series.delta_e, series.power):
        yield f"{_fmt(t)},{_fmt(de)},{_fmt(p)}"


def _sweep_lines(records: list[SweepRecord]):
    yield _SWEEP_HEADER
    for r in records:
        yield ",".join([r.parameter_name, _fmt_value(r.parameter_name,
                                                     r.parameter_value),
                        _fmt(r.delta_e_max), _fmt(r.t_at_e_max),
                        _fmt(r.p_max), _fmt(r.t_at_p_max)])


def _is_boundary(record: SweepRecord, grid_end: float, step: float) -> bool:
    """Whether a maximum's grid sample lies within one step of the final
    grid time.  Refinement moves a peak by less than a step from its grid
    sample, so every such peak lies less than two steps from the end."""
    edge = grid_end - 2.0 * step + 1e-9 * step
    return max(record.t_at_e_max, record.t_at_p_max) > edge


def run(config: ExperimentConfig, workers=None, echo=print) -> int:
    """Execute one config, write CSVs and the manifest, return exit status."""
    started = time.time()
    workers = _resolve_workers(workers)  # a bad variable fails before any write
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "label": config.label,
        "version": __version__,
        "parameters": config.consumed_parameters(),
        "config_hash": config_hash(config),
        "convention": ("literal_double" if config.protocol.literal_ata_sum
                       else "single_count"),
        "outputs": [],
        "partial": False,
        "boundary_max": False,
        "errors": [],
    }
    grid_end, step = float(config.grid.times()[-1]), config.grid.step
    status = 0

    if config.sweep is None:
        series = stored_energy_series(config.protocol, config.grid,
                                      config.backend)
        _write_text(out_dir / "series.csv", _series_lines(series))
        manifest["outputs"].append("series.csv")
        record = SweepRecord.from_series("lambda", config.protocol.lam, series)
        manifest["results"] = {
            "de_max": record.delta_e_max, "t_e": record.t_at_e_max,
            "p_max": record.p_max, "t_p": record.t_at_p_max}
        manifest["boundary_max"] = _is_boundary(record, grid_end, step)
    else:
        plan = config.sweep
        fits = {}
        for family, charger in _charger_variants(config.protocol.charger,
                                                 plan.families):
            tag = "" if family is None else f"_{family.value}"
            base = dataclasses.replace(config.protocol, charger=charger)

            def one(value):
                """(value, series or None, error or None) for one point."""
                try:
                    protocol = substituted_protocol(base, plan.parameter, value)
                    series = stored_energy_series(protocol, config.grid,
                                                  config.backend)
                    return value, series, None
                except Exception as exc:  # noqa: BLE001 - reported per point
                    return value, None, f"{type(exc).__name__}: {exc}"

            outcomes = sweep_map(one, plan.values, workers)
            records = []
            for value, series, error in outcomes:
                if error is not None:
                    label = f"{plan.parameter}={value:g}" + (
                        f" charger={family.value}" if family else "")
                    manifest["errors"].append({"point": label,
                                               "error": error})
                    echo(f"point {label} failed: {error}", file=sys.stderr)
                    continue
                records.append(SweepRecord.from_series(plan.parameter,
                                                       value, series))
                if plan.emit_series:
                    name = f"series{tag}_{plan.parameter}_{value:g}.csv"
                    _write_text(out_dir / name, _series_lines(series))
                    manifest["outputs"].append(name)
            sweep_name = f"sweep{tag}.csv"
            _write_text(out_dir / sweep_name, _sweep_lines(records))
            manifest["outputs"].append(sweep_name)
            if any(_is_boundary(r, grid_end, step) for r in records):
                manifest["boundary_max"] = True
            if plan.parameter == "J" and len(records) >= 3:
                fit = fit_log10([r.parameter_value for r in records],
                                [r.p_max for r in records])
                fits["all" if family is None else family.value] = {
                    "slope": fit.slope, "intercept": fit.intercept,
                    "r_squared": fit.r_squared}
        if fits:
            manifest["fit"] = fits.get("all", fits)
        if manifest["errors"]:
            manifest["partial"] = True
            status = 1

    manifest["wall_time_s"] = round(time.time() - started, 3)
    _write_text(out_dir / "manifest.json",
                [json.dumps(manifest, indent=2, sort_keys=True)])

    if manifest["boundary_max"]:
        echo("warning: a reported maximum lies within one step of the final "
             "grid time; consider a longer grid", file=sys.stderr)
    echo(f"{config.label}: wrote {len(manifest['outputs']) + 1} files to "
         f"{out_dir} in {manifest['wall_time_s']:.1f}s")
    return status


# ---------------------------------------------------------------------------
# command line


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:  # an unreadable config is a config error
        raise ParameterError(str(exc)) from exc
    return parse_config(text, label=Path(path).stem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinbattery",
        description="Spin-ring quantum battery charging simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a config file or preset")
    run_parser.add_argument("config", nargs="?", help="path to an INI config")
    run_parser.add_argument("--preset", help="named figure preset to run")
    run_parser.add_argument("--output", help="override the output directory")
    run_parser.add_argument("--workers", type=int,
                            help="sweep worker threads (default: CPU count, "
                                 "or the SPINBATTERY_WORKERS variable)")

    sub.add_parser("list-presets", help="show the bundled figure presets")

    validate_parser = sub.add_parser(
        "validate", help="parse a config and report the resolved run")
    validate_parser.add_argument("config", help="path to an INI config")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        rows = list_presets()
        width = max(len(name) for name, _, _ in rows)
        for name, summary, description in rows:
            print(f"{name:<{width}}  {summary}")
            print(f"{'':<{width}}  {description}")
        return 0

    try:
        if args.command == "validate":
            config = _load_config(args.config)
            print(f"OK {config.label}: {_preset_summary(config)}")
            print(f"config_hash={config_hash(config)}")
            return 0

        if (args.config is None) == (args.preset is None):
            run_parser.error("provide exactly one of <config> or --preset")
        config = (preset_config(args.preset) if args.preset
                  else _load_config(args.config))
        if args.output:
            config = dataclasses.replace(config, output_dir=args.output)
        return run(config, workers=args.workers)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
