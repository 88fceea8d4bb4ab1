"""Config parsing, preset bindings, and file emission."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinbattery import Family, HamiltonianSpec, ParameterError, runner
from spinbattery.runner import (
    ExperimentConfig,
    config_hash,
    list_presets,
    main,
    parse_config,
    preset_config,
    run,
)

MINIMAL = """
[battery]
family = FieldZ

[charger]
family = IsingNN

[protocol]
N = 4
lambda = 1.0
"""

SMALL_SWEEP = """
[battery]
family = FieldZ

[charger]
family = IsingATA

[protocol]
N = 4
lambda = 0.0

[grid]
end = 3.0

[sweep]
parameter = lambda
values = 0.0, 1.0
series = true
"""


PINNED_PRESET_HASHES = {
    "fig2a": "ad84f0074c42942e", "fig2b": "ad84f0074c42942e",
    "fig2c1": "6dc38280086bc801", "fig2c2": "b9197743652e5b9a",
    "fig2d": "549b501f591b080e", "fig3a": "3023cdd4424755f7",
    "fig3b": "3023cdd4424755f7", "fig3c": "5dcc4eae115cfe65",
    "fig3d": "5dcc4eae115cfe65", "fig4a": "9bcdcc96a2355728",
    "fig4b": "9bcdcc96a2355728", "fig4c": "7ba4a2fe2cec166e",
    "fig4d": "7ba4a2fe2cec166e", "fig5a": "62f15fbc7b672ff2",
    "fig5b": "62f15fbc7b672ff2", "fig6a": "99779326438f4ff0",
    "fig6b": "99779326438f4ff0", "fig6c": "d00182ef67a24f5a",
    "fig6d": "d00182ef67a24f5a", "fig7a": "fe22135f0ab42dcc",
    "fig7b": "8dde67f67fe9d839",
}

PINNED_PRESET_ROWS = [
    ("fig2a",
     "battery=FieldZ charger=IsingATA N=10 lambda=0 sweep=lambda "
     "values=0,0.25,0.5,0.75,1 series",
     "stored energy vs time across lambda"),
    ("fig2b",
     "battery=FieldZ charger=IsingATA N=10 lambda=0 sweep=lambda "
     "values=0,0.25,0.5,0.75,1 series",
     "charging power vs time across lambda"),
    ("fig2c1",
     "battery=FieldZ charger=IsingATA N=5 lambda=1 sweep=N "
     "values=5,7,9,11 series",
     "stored energy vs time for odd ring sizes"),
    ("fig2c2",
     "battery=FieldZ charger=IsingATA N=6 lambda=1 sweep=N "
     "values=6,8,10,12 series",
     "stored energy vs time for even ring sizes"),
    ("fig2d",
     "battery=FieldZ charger=IsingATA N=5 lambda=1 sweep=N "
     "values=5,6,7,8,9,10,11,12 series",
     "charging power vs time across ring sizes"),
    ("fig3a",
     "battery=FieldZ charger=IsingATA N=10 lambda=0 sweep=lambda "
     "values=0..1 (11 pts) chargers=IsingATA,IsingNN,XYATA,XYNN",
     "peak stored energy vs lambda, four chargers"),
    ("fig3b",
     "battery=FieldZ charger=IsingATA N=10 lambda=0 sweep=lambda "
     "values=0..1 (11 pts) chargers=IsingATA,IsingNN,XYATA,XYNN",
     "peak power vs lambda, four chargers"),
    ("fig3c",
     "battery=FieldZ charger=IsingATA N=4 lambda=1 sweep=N "
     "values=4..12 (9 pts) chargers=IsingATA,IsingNN,XYATA,XYNN",
     "peak stored energy vs ring size, four chargers"),
    ("fig3d",
     "battery=FieldZ charger=IsingATA N=4 lambda=1 sweep=N "
     "values=4..12 (9 pts) chargers=IsingATA,IsingNN,XYATA,XYNN",
     "peak power vs ring size, four chargers"),
    ("fig4a",
     "battery=IsingNN charger=FieldZ N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "stored energy vs time, interacting battery"),
    ("fig4b",
     "battery=IsingNN charger=FieldZ N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "charging power vs time, interacting battery"),
    ("fig4c",
     "battery=XYNN charger=FieldZ N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "stored energy vs time, anisotropic battery"),
    ("fig4d",
     "battery=XYNN charger=FieldZ N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "charging power vs time, anisotropic battery"),
    ("fig5a",
     "battery=IsingNN charger=FieldZ N=12 lambda=0 sweep=J "
     "values=0.25..4 (18 pts) series",
     "stored energy vs time across battery couplings"),
    ("fig5b",
     "battery=IsingNN charger=FieldZ N=12 lambda=0 sweep=J "
     "values=0.25..4 (18 pts) series",
     "charging power vs time across battery couplings"),
    ("fig6a",
     "battery=IsingNN charger=XYNN N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "stored energy, Ising battery XY charger"),
    ("fig6b",
     "battery=IsingNN charger=XYNN N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "charging power, Ising battery XY charger"),
    ("fig6c",
     "battery=XYNN charger=IsingNN N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "stored energy, XY battery Ising charger"),
    ("fig6d",
     "battery=XYNN charger=IsingNN N=12 lambda=0 sweep=lambda "
     "values=0,1 series",
     "charging power, XY battery Ising charger"),
    ("fig7a",
     "battery=FieldZ charger=IsingATA N=10 lambda=0 sweep=lambda "
     "values=0..5 (51 pts) extended",
     "peak power vs extended lambda, Ising charger"),
    ("fig7b",
     "battery=FieldZ charger=XYATA N=10 lambda=0 sweep=lambda "
     "values=0..5 (51 pts) extended",
     "peak power vs extended lambda, XY charger"),
]


# ---------------------------------------------------------------------------
# parsing


def test_minimal_document_gets_defaults():
    config = parse_config(MINIMAL)
    assert config.protocol.battery.family is Family.FIELD_Z
    assert config.protocol.battery.h == 1.0
    assert config.protocol.charger.J == 1.0
    assert config.protocol.num_qubits == 4
    assert config.protocol.lam == 1.0
    assert config.protocol.t_on is None
    assert config.grid.end == 100.0
    assert config.grid.step == 0.05
    assert config.backend.kind.value == "DenseEigen"
    assert config.sweep is None


def test_xy_gamma_defaults_to_half():
    doc = MINIMAL.replace("family = IsingNN", "family = XYNN")
    assert parse_config(doc).protocol.charger.gamma == 0.5


def test_lambda_range_error_names_the_key():
    doc = MINIMAL.replace("lambda = 1.0", "lambda = 2.0")
    with pytest.raises(ParameterError, match="lambda"):
        parse_config(doc)
    extended = doc + "\nextended_lambda = true\n"
    assert parse_config(extended).protocol.lam == 2.0


def test_unknown_key_is_named():
    with pytest.raises(ParameterError, match="protocol.cadence"):
        parse_config(MINIMAL + "\ncadence = 3\n")
    with pytest.raises(ParameterError, match=r"unknown section \[extras\]"):
        parse_config(MINIMAL + "\n[extras]\nx = 1\n")
    with pytest.raises(ParameterError, match="backend.seed"):
        parse_config(MINIMAL + "\n[backend]\nseed = 3\n")


def test_type_mismatch_is_named():
    with pytest.raises(ParameterError, match="protocol.N"):
        parse_config(MINIMAL.replace("N = 4", "N = four"))
    with pytest.raises(ParameterError, match="grid.end"):
        parse_config(MINIMAL + "\n[grid]\nend = soon\n")
    with pytest.raises(ParameterError, match="backend"):
        parse_config(MINIMAL + "\n[backend]\nkind = magic\n")


def test_family_names_match_any_case():
    assert HamiltonianSpec("fieldz").family is Family.FIELD_Z
    config = parse_config(MINIMAL.replace("FieldZ", "fieldz")
                          .replace("IsingNN", "ISINGNN"))
    assert config.protocol.battery.family is Family.FIELD_Z
    assert config.protocol.charger.family is Family.ISING_NN
    with pytest.raises(ParameterError,
                       match="bad value for battery.family: unknown family"):
        parse_config(MINIMAL.replace("FieldZ", "Field"))
    with pytest.raises(ParameterError,
                       match="bad value for sweep.families: unknown family"):
        parse_config(SMALL_SWEEP + "families = isingnn, nope\n")


def test_missing_requirements_are_named():
    with pytest.raises(ParameterError, match=r"\[charger\]"):
        parse_config("[battery]\nfamily = FieldZ\n"
                     "[protocol]\nN = 4\nlambda = 0\n")
    with pytest.raises(ParameterError, match="protocol.N"):
        parse_config(MINIMAL.replace("N = 4\n", ""))
    with pytest.raises(ParameterError, match="battery.family"):
        parse_config(MINIMAL.replace("family = FieldZ", ""))


def test_sweep_block_validation():
    with pytest.raises(ParameterError, match="sweep.parameter"):
        parse_config(MINIMAL + "\n[sweep]\nparameter = gamma\nvalues = 1\n")
    with pytest.raises(ParameterError, match="ring sizes"):
        parse_config(MINIMAL + "\n[sweep]\nparameter = N\nvalues = 4.5, 5\n")
    with pytest.raises(ParameterError, match="lambda"):
        parse_config(MINIMAL + "\n[sweep]\nparameter = lambda\n"
                     "values = 0.0, 3.0\n")
    with pytest.raises(ParameterError, match="sweep.values"):
        parse_config(MINIMAL + "\n[sweep]\nparameter = lambda\nvalues = ,\n")
    ranged = SMALL_SWEEP.replace("IsingATA", "IsingATA\nK = 1")
    assert parse_config(ranged).protocol.charger.K == 1
    # every swept family derives its own range, so K would be dropped unseen
    with pytest.raises(ParameterError, match="charger.K"):
        parse_config(ranged + "families = IsingATA, XYATA\n")


def test_preset_reference_resolves_to_binding():
    config = parse_config("[preset]\nname = fig2a\n")
    assert config == preset_config("fig2a")
    with pytest.raises(ParameterError, match="preset"):
        parse_config("[preset]\nname = fig99\n")
    with pytest.raises(ParameterError, match=r"\[protocol\]"):
        parse_config("[preset]\nname = fig2a\n[protocol]\nN = 4\nlambda = 0\n")


def test_malformed_document_is_reported():
    with pytest.raises(ParameterError, match="malformed"):
        parse_config("family = FieldZ\n")


# ---------------------------------------------------------------------------
# presets


def test_exactly_21_presets_in_order():
    rows = list_presets()
    names = [name for name, _, _ in rows]
    assert len(rows) == 21
    assert names == sorted(names)
    assert names[0] == "fig2a" and names[-1] == "fig7b"


def test_preset_summaries_carry_bindings():
    rows = {name: summary for name, summary, _ in list_presets()}
    assert "battery=IsingNN" in rows["fig5a"]
    assert "charger=FieldZ" in rows["fig5a"]
    assert "lambda=0" in rows["fig5a"]
    assert "sweep=J" in rows["fig5a"]
    assert "values=5,7,9,11" in rows["fig2c1"]
    assert "extended" in rows["fig7a"]


def test_preset_bindings_match_figure_parameters():
    fig2a = preset_config("fig2a")
    assert fig2a.protocol.num_qubits == 10
    assert fig2a.protocol.charger.J == 1.0
    assert fig2a.protocol.battery.h == 1.0
    for name in ("fig4a", "fig4c", "fig6a", "fig6c"):
        assert preset_config(name).protocol.num_qubits == 12
    assert preset_config("fig4c").protocol.battery.gamma == 0.5
    fig7b = preset_config("fig7b")
    assert fig7b.protocol.extended_lambda
    assert fig7b.sweep.values[-1] == 5.0
    assert len(fig7b.sweep.values) == 51
    fig3a = preset_config("fig3a")
    assert fig3a.sweep.families is not None
    assert len(fig3a.sweep.families) == 4


def test_preset_bindings_are_pinned():
    # every preset's consumed parameters and listing row, fixed when the
    # presets became a table; a row padded with a wrong default shows here
    assert {name: config_hash(preset_config(name))
            for name, _, _ in list_presets()} == PINNED_PRESET_HASHES
    assert list_presets() == PINNED_PRESET_ROWS


# ---------------------------------------------------------------------------
# hashing


def test_config_hash_tracks_consumed_parameters():
    base = parse_config(MINIMAL)
    again = parse_config(MINIMAL)
    assert config_hash(base) == config_hash(again)
    finer = parse_config(MINIMAL + "\n[grid]\nstep = 0.01\n")
    assert config_hash(finer) != config_hash(base)
    moved = dataclasses.replace(base, output_dir="elsewhere")
    assert config_hash(moved) == config_hash(base)


# ---------------------------------------------------------------------------
# execution


def test_single_run_emits_series_and_manifest(tmp_path):
    doc = MINIMAL + f"\n[grid]\nend = 2.0\n[output]\ndirectory = {tmp_path}\n"
    config = parse_config(doc)
    assert run(config) == 0
    series = (tmp_path / "series.csv").read_text().splitlines()
    assert series[0] == "t,delta_e,power"
    # 41 base points plus 9 interior samples in each of the four intervals
    # flanking the (disjoint) energy and power peaks
    assert len(series) == 1 + 41 + 36
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["N"] == 4
    assert manifest["results"]["de_max"] > 0
    assert manifest["partial"] is False
    assert manifest["convention"] == "single_count"
    assert "wall_time_s" in manifest


def test_zero_charger_gives_zero_series(tmp_path):
    doc = f"""
[battery]
family = FieldZ

[charger]
family = FieldZ
h = 0.0

[protocol]
N = 4
lambda = 0.0

[grid]
end = 1.0

[output]
directory = {tmp_path}
"""
    assert run(parse_config(doc)) == 0
    rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
    for row in rows:
        _, delta_e, power = row.split(",")
        # zero drive leaves only eigenbasis round-trip dust
        assert abs(float(delta_e)) < 1e-12
        assert abs(float(power)) < 1e-12


def test_sweep_emits_per_point_series(tmp_path):
    config = dataclasses.replace(parse_config(SMALL_SWEEP),
                                 output_dir=str(tmp_path))
    assert run(config) == 0
    sweep_rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_rows[0] == "param,value,de_max,t_e,p_max,t_p"
    assert len(sweep_rows) == 3
    assert (tmp_path / "series_lambda_0.csv").exists()
    assert (tmp_path / "series_lambda_1.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["outputs"]) == 3
    assert manifest["parameters"]["sweep"]["values"] == [0.0, 1.0]


def test_csv_floats_carry_12_significant_digits(tmp_path):
    config = dataclasses.replace(parse_config(SMALL_SWEEP),
                                 output_dir=str(tmp_path))
    run(config)
    row = (tmp_path / "sweep.csv").read_text().splitlines()[2]
    for cell in row.split(",")[1:]:
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,3}", cell)


def test_failing_point_yields_partial_results(tmp_path, capsys):
    # N=15 passes validation but its parity sector (2^14 states) trips the
    # dense-backend capacity gate at run time, exercising the per-point
    # capture path.
    doc = SMALL_SWEEP.replace("parameter = lambda\nvalues = 0.0, 1.0",
                              "parameter = N\nvalues = 15, 4")
    config = dataclasses.replace(parse_config(doc), output_dir=str(tmp_path))
    assert run(config) == 1
    assert "N=15" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["partial"] is True
    assert manifest["errors"][0]["point"] == "N=15"
    assert "CapacityError" in manifest["errors"][0]["error"]
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus the surviving point


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    real_lines = runner._series_lines
    calls = []

    def failing_second(series):
        calls.append(series)
        lines = real_lines(series)
        if len(calls) == 2:
            yield next(lines)
            raise OSError("disk full")
        yield from lines

    monkeypatch.setattr(runner, "_series_lines", failing_second)
    config = dataclasses.replace(parse_config(SMALL_SWEEP),
                                 output_dir=str(tmp_path))
    with pytest.raises(OSError, match="disk full"):
        run(config)
    assert (tmp_path / "series_lambda_0.csv").exists()
    assert not (tmp_path / "series_lambda_1.csv").exists()
    assert not list(tmp_path.glob("*.tmp"))
    assert not (tmp_path / "manifest.json").exists()


def test_boundary_maximum_is_flagged_not_fatal(tmp_path, capsys):
    doc = MINIMAL + f"\n[grid]\nend = 0.3\n[output]\ndirectory = {tmp_path}\n"
    assert run(parse_config(doc)) == 0
    assert "final grid time" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["boundary_max"] is True


def test_peak_one_step_before_the_end_is_flagged(tmp_path, capsys):
    # the grid maximum sits at 99.95 and refinement moves it to 99.94
    doc = MINIMAL.replace("N = 4", "N = 10").replace(
        "lambda = 1.0", "lambda = 0.25") + f"\n[output]\ndirectory = {tmp_path}\n"
    assert run(parse_config(doc)) == 0
    assert "within one step of the final grid time" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["t_e"] == pytest.approx(99.94)
    assert manifest["boundary_max"] is True


def test_multi_family_sweep_writes_tagged_files(tmp_path):
    doc = SMALL_SWEEP.replace("series = true", "series = false") + \
        "\nfamilies = IsingNN, XYNN\n"
    config = dataclasses.replace(parse_config(doc), output_dir=str(tmp_path))
    assert run(config) == 0
    assert (tmp_path / "sweep_IsingNN.csv").exists()
    assert (tmp_path / "sweep_XYNN.csv").exists()


def test_coupling_sweep_records_fit(tmp_path):
    doc = f"""
[battery]
family = IsingNN

[charger]
family = FieldZ

[protocol]
N = 4
lambda = 0.0

[grid]
end = 5.0

[sweep]
parameter = J
values = 0.5, 1.0, 2.0

[output]
directory = {tmp_path}
"""
    assert run(parse_config(doc)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["fit"]) == {"slope", "intercept", "r_squared"}


# ---------------------------------------------------------------------------
# command line


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert out.count("fig") >= 21
    assert "battery=IsingNN charger=FieldZ" in out


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(runner.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))

    def module(*args):
        return subprocess.run([sys.executable, "-m", "spinbattery", *args],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    usage = module("--help")
    assert (usage.returncode, usage.stderr) == (0, "")
    assert "list-presets" in usage.stdout
    listing = module("list-presets")
    assert (listing.returncode, listing.stderr) == (0, "")
    names = [line.split()[0] for line in listing.stdout.splitlines()
             if line and not line[0].isspace()]
    assert names == [name for name, _, _ in list_presets()]
    assert len(names) == 21


def test_cli_validate_and_run(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(SMALL_SWEEP)
    assert main(["validate", str(path)]) == 0
    assert "OK exp" in capsys.readouterr().out
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_cli_rejects_bad_worker_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINBATTERY_WORKERS", "two")
    # a single run never sweeps, yet must reject the variable all the same
    for name, doc in (("single", MINIMAL), ("sweep", SMALL_SWEEP)):
        path = tmp_path / f"{name}.ini"
        path.write_text(doc)
        out = tmp_path / f"out_{name}"
        assert main(["run", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "SPINBATTERY_WORKERS" in err and "'two'" in err
        assert not out.exists()


def test_cli_output_error_exits_3(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL)
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    assert main(["run", str(path), "--output", str(blocker / "out")]) == 3
    assert capsys.readouterr().err.startswith("output error:")


def test_cli_rejects_bad_inputs(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text(MINIMAL.replace("lambda = 1.0", "lambda = 9"))
    assert main(["run", str(bad)]) == 2
    assert "lambda" in capsys.readouterr().err
    assert main(["run", "--preset", "fig0x"]) == 2
    with pytest.raises(SystemExit):
        main(["run"])  # neither config nor preset
