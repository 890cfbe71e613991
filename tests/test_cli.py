"""End-to-end command runs: exit codes, file layout, manifest wiring.

Each run happens in-process through main(argv); outputs land in pytest
temp dirs and are parsed back with plain csv/json.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levosc import cli
from levosc.cli import (CONFIG_TABLE, SIZE_CAPS, _load_config, build_parser,
                        main)
from levosc.damping import (DEFAULT_TAU_VACUUM, OscillatorSpec, RegimeMode,
                            damping_table, drag_force, linewidth,
                            noise_density)
from levosc.detection import coaxial_geometry
from levosc.errors import DataError
from levosc.media import HeliumMedia
from levosc.ringdown import (Block, BlockSchedule, RingdownParams,
                             amplitude_series, analyze_ringdown,
                             read_block_bin, synthesize_block,
                             write_block_bin, write_series_csv)


def write_config(tmp_path, obj, name="config.json"):
    """``obj`` as a JSON config file; a string is written as it is."""
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def read_csv(path):
    comments = []
    with open(path) as fh:
        rows = []
        header = None
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
                continue
            rec = line.rstrip("\n").split(",")
            if header is None:
                header = rec
            else:
                rows.append(rec)
    return header, rows, comments


def manifest_of(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


# ------------------------------------------------------------- basics

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"damping": {"bogus_key": 1}})
    rc = main(["damping-curve", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc = main(["damping-curve", "--config", str(bad),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.json", "a_directory"])
def test_unreadable_config_exits_2(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    out = tmp_path / "out"
    assert main(["sensitivity", "--config", str(path),
                 "--out", str(out)]) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_config_list_not_object_exits_2(tmp_path):
    bad = tmp_path / "arr.json"
    bad.write_text("[1, 2]")
    assert main(["damping-curve", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 2


def table_entries():
    """(name, section, key, JSON type, default) for every config input."""
    for section, keys in CONFIG_TABLE.items():
        for key, (kind, default) in keys.items():
            yield f"{section}.{key}", section, key, kind, default


def type_name(kind):
    if isinstance(kind, str):
        return kind
    return " or ".join(json.dumps(choice) for choice in kind)


# the commands that read each section; "ringdown" simulates then analyzes
SECTION_COMMANDS = {
    "oscillator": ["damping-curve", "fit-he3", "sensitivity"],
    "media": ["damping-curve", "fit-he3", "sensitivity"],
    "damping": ["damping-curve"], "detection": ["detection-sweep"],
    "ringdown": ["ringdown"], "fit": ["fit-he3"],
    "sensitivity": ["sensitivity"]}


def run_command(work, command, cfg_obj):
    """Exit codes of ``command`` on config ``cfg_obj`` inside ``work``."""
    cfg = write_config(work, cfg_obj)
    common = ["--config", str(cfg), "--out", str(work / "out")]
    if command == "ringdown":
        return [main(["ringdown", action, *common])
                for action in ("simulate", "analyze")]
    if command == "fit-he3":
        common += ["--data", str(model_data_csv(work, 4.2e-8))]
    if command == "detection-sweep":
        common.append("--oracle")
    return [main([command, *common])]


# each of these ended in a traceback, ran silently or was ignored
REJECTED_INPUTS = [
    ("damping-curve", {"damping": {"x3": "abc"}}, "damping.x3"),
    ("detection-sweep", {"detection": {"sweep_points": "abc"}},
     "detection.sweep_points"),
    ("ringdown", {"ringdown": {"seed": "abc"}}, "ringdown.seed"),
    ("fit-he3", {"fit": {"added_x3": 1e-7, "predict_T_min_K": 0}},
     "fit.predict_T_min_K"),
    # the medium's constants are the media section: no such key
    ("damping-curve", {"media_overrides": 5}, "media_overrides"),
    ("sensitivity", {"media": {"c": "fast"}}, "media.c"),
    ("fit-he3", {"media": {"k_B": 0}}, "media.k_B"),
    ("damping-curve", {"damping": {"points": 2.5}}, "damping.points"),
    ("ringdown", {"ringdown": {"seed": 1.7}}, "ringdown.seed"),
    ("damping-curve", {"oscillator": {"mass_kg": True}},
     "oscillator.mass_kg"),
    ("fit-he3", {"fit": {"fit_vacuum": "false"}}, "fit.fit_vacuum"),
    ("damping-curve", {"dampnig": {"points": 5}}, "dampnig"),
    ("sensitivity", {"sensitivity": {"temperature_K": "abc"}},
     "sensitivity.temperature_K"),
    ("fit-he3", {"fit": {"added_x3": "abc"}}, "fit.added_x3"),
    ("fit-he3", {"fit": {"added_x3": 1e-7, "predict_points": -3}},
     "fit.predict_points"),
    ("detection-sweep", {"detection": {"geometry": 5}},
     "detection.geometry"),
    ("damping-curve", '{"damping": {"points": 5, "points": 7}}',
     "duplicate key 'damping.points'"),
    ("sensitivity", "[" * 10**5, "recursion depth"),
    # above T_lambda helium-4 is a normal liquid: no channel applies
    ("damping-curve", {"damping": {"T_min_K": 0.5, "T_max_K": 4.0,
                                   "points": 5}}, "damping.T_max_K"),
    ("fit-he3", {"fit": {"added_x3": 1e-7, "predict_T_max_K": 3.0}},
     "fit.predict_T_max_K"),
    # checked with the rest of the fit section, before the fit runs
    ("fit-he3", {"fit": {"added_x3": 1e-7, "predict_T_min_K": 0.8,
                         "predict_T_max_K": 0.7}},
     "need fit.predict_T_min_K < fit.predict_T_max_K"),
    ("fit-he3", {"fit": {"added_x3": -1e-7}},
     "fit.added_x3 must be non-negative"),
    # two sweep positions at the same place once exited 3 naming no key
    ("detection-sweep", {"detection": {
        "sweep_start_m": 0.01, "sweep_stop_m": 0.01, "sweep_points": 3}},
     "detection.sweep_start_m"),
    ("detection-sweep", {"detection": {
        "sweep_start_m": 0.019, "sweep_stop_m": 0.019000000000000003,
        "sweep_points": 5}}, "detection.sweep_stop_m"),
]


@pytest.mark.parametrize("command, cfg_obj, name", REJECTED_INPUTS,
                         ids=[case[2] for case in REJECTED_INPUTS])
def test_config_input_rejected_exits_2(tmp_path, capsys, command, cfg_obj,
                                       name):
    assert run_command(tmp_path, command, cfg_obj)[0] == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a config value that the command refuses, the input file that the
# config or an option names, and the key that the refusal names
FAULT_THEN_FILE = {
    "damping-curve": ({"damping": {"points": 0}},
                      {"media": {"viscosity_csv": "absent.csv"}}, (),
                      "damping.points"),
    "detection-sweep": ({"detection": {"sweep_points": 0}},
                        {"detection": {"geometry": "absent.json"}}, (),
                        "detection.sweep_points"),
    "fit-he3": ({"fit": {"predict_points": -3}}, {},
                ("--data", "absent.csv"), "fit.predict_points"),
    "sensitivity": ({"media": {"c": -1.0}},
                    {"media": {"viscosity_csv": "absent.csv"}}, (),
                    "media.c"),
    "ringdown analyze": ({"ringdown": {"block_length_s": 4000.0}}, {},
                         ("--blocks", "blocks"), "block_length"),
}


@pytest.mark.parametrize("command", FAULT_THEN_FILE)
def test_config_value_is_refused_before_any_file_is_read(tmp_path, capsys,
                                                         command):
    fault, files, option, name = FAULT_THEN_FILE[command]
    # a block that cannot be read: its file is a directory
    (tmp_path / "blocks" / "block_000000.rngd").mkdir(parents=True)
    argv = [*command.split(), "--out", str(tmp_path / "out")]
    argv += [option[0], str(tmp_path / option[1])] if option else []
    both = {section: {**files.get(section, {}), **fault.get(section, {})}
            for section in {*fault, *files}}
    cfg = write_config(tmp_path, both)
    assert main([*argv, "--config", str(cfg)]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the file alone: exit 3 naming it, and still no --out
    cfg = write_config(tmp_path, files)
    assert main([*argv, "--config", str(cfg)]) == 3
    assert f"cannot read {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(SIZE_CAPS))
def test_size_cap_exits_2_past_it(tmp_path, capsys, name):
    # only the config reader runs, so neither value allocates its arrays
    section, key = name.split(".")
    cap = SIZE_CAPS[name]
    at_cap = write_config(tmp_path, {section: {key: cap}}, "at_cap.json")
    assert _load_config(at_cap)[0][section][key] == cap
    assert run_command(tmp_path, SECTION_COMMANDS[section][0],
                       {section: {key: cap + 1}})[0] == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["damping-curve", "--oracle"], ["detection-sweep", "--threads", "2"],
    ["damping-curve", "--seed", "3"], ["detection-sweep", "--seed", "3"],
    ["fit-he3", "--data", "tau.csv", "--seed", "3"],
    ["sensitivity", "--seed", "3"]])
def test_options_nothing_reads_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


# bounded so that no example allocates much: these keys size arrays
SIZE_VALUES = {"points": st.integers(-3, 200),
               "sweep_points": st.integers(-3, 8),
               "predict_points": st.integers(-3, 200),
               "oracle_grid": st.integers(-3, 72),
               "total_duration_s": st.floats(-1e4, 1.5e4),
               "sample_rate_Hz": st.floats(-10.0, 100.0)}
WRONG_TYPES = st.one_of(st.text(max_size=6), st.booleans(), st.none(),
                        st.lists(st.integers(), max_size=3))
EXTREMES = st.one_of(st.sampled_from([0, 0.0, -1, -1e-300, 1e-300]),
                     st.floats(max_value=-1e-3, allow_infinity=False),
                     st.floats(1e100, 1.7e308),
                     st.integers(-10**30, 10**30))
# small ring-down records and oracle sweeps keep each example fast
FUZZ_BASE = {"ringdown": {"total_duration_s": 7200.0},
             "detection": {"sweep_points": 3, "oracle_grid": 64}}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(list(table_entries())).flatmap(
    lambda entry: st.tuples(st.just(entry), st.one_of(
        WRONG_TYPES, SIZE_VALUES.get(entry[2], EXTREMES)))))
def test_any_config_value_exits_0_2_or_3(case):
    (_, section, key, _, _), value = case
    cfg_obj = json.loads(json.dumps(FUZZ_BASE))
    cfg_obj.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as work:
        for command in SECTION_COMMANDS[section]:
            assert set(run_command(Path(work), command, cfg_obj)) \
                <= {0, 2, 3}


def test_readme_config_table_matches_cli_table():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("### Configuration\n")[1]
    documented = {}
    for line in text.split("\n### ")[0].splitlines():
        if line.startswith("| `"):
            name, kind, default = (cell.strip().strip("`") for cell
                                   in line.strip("|").split("|")[:3])
            documented[name] = (kind, json.loads(default))
    assert documented == {name: (type_name(kind), default) for
                          name, _, _, kind, default in table_entries()}


# -------------------------------------------------------- damping-curve

def test_damping_curve_default_run(tmp_path):
    out = tmp_path / "out"
    assert main(["damping-curve", "--out", str(out)]) == 0
    header, rows, comments = read_csv(out / "damping_curve.csv")
    assert header == ["T_K", "tau_hydr_s", "tau_ph_s", "tau_rot_s",
                      "tau_imp_s", "tau_vac_s", "tau_total_s"]
    assert len(rows) == 50
    T = [float(r[0]) for r in rows]
    assert abs(T[0] - 0.01) < 1e-12 and abs(T[-1] - 2.1) < 1e-12
    assert all(b > a for a, b in zip(T, T[1:]))
    # x3 defaults to zero: impurity column empty everywhere
    assert all(r[4] == "" for r in rows)
    # hydrodynamic column empty below the viscosity floor
    for r in rows:
        assert (r[1] == "") == (float(r[0]) < 1.0)

    m = manifest_of(out)
    assert m["status"] == "ok"
    assert m["command"] == "damping-curve"
    assert sorted(m["outputs"]) == ["damping_curve.csv",
                                    "damping_metadata.json"]
    assert comments[0] == f"# manifest {m['manifest_hash']} seed None"
    meta = json.loads((out / "damping_metadata.json").read_text())
    assert meta["manifest_hash"] == m["manifest_hash"]
    assert meta["hydrodynamic_floor_K"] == 1.0


def test_damping_curve_vacuum_limit_at_low_T(tmp_path):
    # cold enough that the ballistic channels are fully frozen out
    cfg = write_config(tmp_path, {"damping": {
        "T_min_K": 0.004, "T_max_K": 0.008, "points": 5}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out)]) == 0
    _, rows, _ = read_csv(out / "damping_curve.csv")
    for r in rows:
        tau = float(r[6])
        assert abs(tau - DEFAULT_TAU_VACUUM) / DEFAULT_TAU_VACUUM < 5e-3


def test_damping_curve_impurity_slope_band(tmp_path):
    # with the vacuum channel in parallel the log-log slope of tau(T)
    # below 80 mK sits between the pure-impurity -1/2 and zero
    cfg = write_config(tmp_path, {"damping": {
        "T_min_K": 0.02, "T_max_K": 0.08, "points": 12,
        "x3": 4.2e-8}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out)]) == 0
    _, rows, _ = read_csv(out / "damping_curve.csv")
    lnT = np.log([float(r[0]) for r in rows])
    lntau = np.log([float(r[6]) for r in rows])
    slope = np.polyfit(lnT, lntau, 1)[0]
    assert -0.75 < slope < -0.35


def test_damping_curve_svg_carries_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"damping": {"points": 5}})
    assert main(["damping-curve", "--config", str(cfg), "--out", str(out),
                 "--svg"]) == 0
    m = manifest_of(out)
    svg = (out / "damping_curve.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert f"manifest {m['manifest_hash']}" in svg
    assert "damping_curve.svg" in m["outputs"]


def test_damping_curve_deterministic_reruns(tmp_path):
    cfg = write_config(tmp_path, {"damping": {"points": 20,
                                              "x3": 1e-8}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out2)]) == 0
    assert (out1 / "damping_curve.csv").read_bytes() == \
        (out2 / "damping_curve.csv").read_bytes()
    m1, m2 = manifest_of(out1), manifest_of(out2)
    m1.pop("wall_clock_s"), m2.pop("wall_clock_s")
    assert m1 == m2


def test_damping_curve_bad_grid_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"damping": {"T_min_K": 1.0,
                                              "T_max_K": 0.5}})
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    cfg2 = write_config(tmp_path, {"damping": {"grid": "cubic"}},
                        name="c2.json")
    assert main(["damping-curve", "--config", str(cfg2),
                 "--out", str(tmp_path / "out")]) == 2


def test_damping_curve_physics_error_exits_3(tmp_path, capsys):
    # negative x3 passes config checks and fails inside the model,
    # which must surface the offending grid row
    cfg = write_config(tmp_path, {"damping": {"x3": -1e-8}})
    rc = main(["damping-curve", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "row 0" in capsys.readouterr().err


@pytest.mark.parametrize("x3", [0.0, 1e-7])
def test_radius_squared_past_float_range_exits_3(tmp_path, capsys, x3):
    # the cross-section of a 1e200 m sphere overflows: the run names the
    # channel, not an errno, and numpy prints no warning
    cfg = write_config(tmp_path, {"oscillator": {"radius_warm_m": 1e200},
                                  "damping": {"x3": x3}})
    rc = main(["damping-curve", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "phonon channel" in err and "past the float range" in err
    assert "Numerical result" not in err and "Warning" not in err


def test_damping_curve_phonon_saturates_at_tiny_T(tmp_path):
    # (k_B T)^4 underflows at 1e-90 K: the channel saturates to inf
    cfg = write_config(tmp_path, {"damping": {
        "T_min_K": 1e-90, "T_max_K": 0.1, "points": 5}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg), "--out", str(out),
                 "--svg"]) == 0
    _, rows, _ = read_csv(out / "damping_curve.csv")
    assert rows[0][2] == "inf"
    assert abs(float(rows[0][6]) - DEFAULT_TAU_VACUUM) \
        < 1e-12 * DEFAULT_TAU_VACUUM


def test_damping_curve_svg_at_10000_points(tmp_path):
    # roton tau reaches ~1e308 on this grid; its decade ticks must not
    # overflow
    cfg = write_config(tmp_path, {"damping": {"points": 10000,
                                              "x3": 4.2e-8}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg), "--out", str(out),
                 "--svg"]) == 0
    _, rows, _ = read_csv(out / "damping_curve.csv")
    assert len(rows) == 10000
    svg = (out / "damping_curve.svg").read_text()
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 6


def test_damping_curve_memory_at_the_points_cap(tmp_path):
    # the CSV text of 100,000 rows is about 13 MB, and whole it took the
    # run's peak to about 48 MB; written a chunk of rows at a time, the
    # peak is mostly the channel columns
    cfg = write_config(tmp_path, {"damping": {
        "points": SIZE_CAPS["damping.points"]}})
    argv = ["damping-curve", "--config", str(cfg), "--out"]
    assert main([*argv, str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert (tmp_path / "out" / "damping_curve.csv").read_bytes() \
        == (tmp_path / "warm" / "damping_curve.csv").read_bytes()


@pytest.mark.parametrize("command", ["damping-curve", "fit-he3"])
@pytest.mark.parametrize("tau_vac", [-1.0, 0.0, "long"])
def test_bad_tau_vacuum_exits_2(tmp_path, capsys, command, tau_vac):
    section = "damping" if command == "damping-curve" else "fit"
    cfg = write_config(tmp_path, {section: {"tau_vacuum_s": tau_vac}})
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "fit-he3":
        argv += ["--data", str(model_data_csv(tmp_path, 4.2e-8))]
    assert main(argv) == 2
    assert "tau_vacuum_s" in capsys.readouterr().err


# ------------------------------------------------------ detection-sweep

def test_detection_sweep_default_monotonicity(tmp_path):
    out = tmp_path / "out"
    assert main(["detection-sweep", "--out", str(out)]) == 0
    header, rows, comments = read_csv(out / "detection_sweep.csv")
    assert header == ["position_m", "L_eff_H", "delta_L_H", "f_Hz",
                      "V_amplitude_V"]
    assert len(rows) == 18
    pos = [float(r[0]) for r in rows]
    f = [float(r[3]) for r in rows]
    v = [float(r[4]) for r in rows]
    dL = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(pos, pos[1:]))      # approaching
    assert all(b > a for a, b in zip(f, f[1:]))          # tone rises
    assert all(b < a for a, b in zip(v, v[1:]))          # pickup falls
    assert all(x < 0 for x in dL)
    assert all(abs(b) > abs(a) for a, b in zip(dL, dL[1:]))
    m = manifest_of(out)
    assert comments[0].startswith(f"# manifest {m['manifest_hash']}")


def test_detection_sweep_svg_carries_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"detection": {"sweep_points": 5}})
    assert main(["detection-sweep", "--config", str(cfg), "--out", str(out),
                 "--svg"]) == 0
    m = manifest_of(out)
    svg = (out / "detection_sweep.svg").read_text()
    assert f"manifest {m['manifest_hash']}" in svg
    assert svg.rstrip().endswith("</svg>")
    assert "detection_sweep.svg" in m["outputs"]


def test_detection_sweep_svg_of_a_one_ulp_span(tmp_path):
    # the linear ticks of this span once never ended, and the log axis of
    # two |delta L| one ulp apart divided by zero
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"detection": {
        "sweep_start_m": 0.019, "sweep_stop_m": 0.019000000000000003,
        "sweep_points": 2}})
    assert main(["detection-sweep", "--config", str(cfg), "--out", str(out),
                 "--svg"]) == 0
    svg = (out / "detection_sweep.svg").read_text()
    assert svg.rstrip().endswith("</svg>")


def test_detection_sweep_svg_of_no_plottable_row_says_why(tmp_path, capsys):
    # every pose fails the clearance check; the run once said only
    # "nothing plottable"
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"detection": {"sphere_radius_m": 1.0}})
    assert main(["detection-sweep", "--config", str(cfg), "--out", str(out),
                 "--svg"]) == 3
    err = capsys.readouterr().err
    _, _, comments = read_csv(out / "detection_sweep.csv")
    row_0 = next(c for c in comments if c.startswith("# row 0 error: "))
    assert "detection_sweep.svg" in err and row_0[2:] in err
    assert not (out / "manifest.json").exists()


def test_detection_sweep_oracle_columns(tmp_path):
    cfg = write_config(tmp_path, {"detection": {
        "sweep_start_m": 0.013, "sweep_stop_m": 0.009, "sweep_points": 3,
        "oracle_grid": 96}})
    out = tmp_path / "out"
    assert main(["detection-sweep", "--config", str(cfg),
                 "--out", str(out), "--oracle"]) == 0
    header, rows, _ = read_csv(out / "detection_sweep.csv")
    assert header[-2:] == ["delta_L_oracle_H", "oracle_agreement"]
    for r in rows:
        oracle = float(r[5])
        agreement = float(r[6])
        assert oracle < 0
        assert agreement < 0.15
        assert abs(agreement - abs(float(r[2]) - oracle) / abs(oracle)) \
            < 1e-12


@pytest.mark.parametrize("grid", [32, "abc"])
def test_detection_sweep_bad_oracle_grid_exits_2(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, {"detection": {"oracle_grid": grid}})
    out = tmp_path / "out"
    assert main(["detection-sweep", "--config", str(cfg),
                 "--out", str(out), "--oracle"]) == 2
    assert "oracle_grid" in capsys.readouterr().err
    assert not (out / "detection_sweep.csv").exists()


@pytest.mark.parametrize("radius", [0.0, -1e-3])
def test_detection_sweep_bad_sphere_radius_exits_2(tmp_path, capsys,
                                                   radius):
    cfg = write_config(tmp_path, {"detection": {"sphere_radius_m": radius}})
    assert main(["detection-sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "sphere_radius_m" in capsys.readouterr().err


def test_detection_sweep_empty_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"detection": {"sweep_points": 0}})
    assert main(["detection-sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2


def test_detection_sweep_far_start_exits_0_without_warnings(tmp_path,
                                                            capsys):
    # the loop-field squares overflow at 1e160 m; on the axis the field
    # reads its limit, 0, and the oracle mesh does not reach the sphere
    cfg = write_config(tmp_path, {"detection": {"sweep_start_m": 1e160}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "levosc.cli", "detection-sweep", "--config",
         str(cfg), "--out", str(tmp_path / "out")], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    _, rows, comments = read_csv(tmp_path / "out" / "detection_sweep.csv")
    assert rows[0][:3] == ["1e+160", "2.1e-05", "0.0"]
    assert len(comments) == 1
    assert main(["detection-sweep", "--oracle", "--config", str(cfg),
                 "--out", str(tmp_path / "oracle")]) == 3
    assert "sphere outside the solver mesh" in capsys.readouterr().err


def test_detection_sweep_overflowing_span_exits_3_in_one_line(tmp_path):
    # the span overflows the float range, so the centers are not finite;
    # that is the one message, without numpy warnings before it
    cfg = write_config(tmp_path, {"detection": {
        "sweep_start_m": 1e308, "sweep_stop_m": -1e308}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "levosc.cli", "detection-sweep", "--oracle",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (
        3, "levosc: sphere center must be finite\n")


def test_detection_sweep_bad_geometry_file_exits_3(tmp_path):
    cfg = write_config(tmp_path, {"detection": {"geometry": "nope.json"}})
    rc = main(["detection-sweep", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3


def test_detection_sweep_non_utf8_geometry_exits_2(tmp_path, capsys):
    # a UTF-16 byte-order mark is not UTF-8
    (tmp_path / "geom.json").write_bytes(b"\xff\xfe{}")
    cfg = write_config(tmp_path, {"detection": {"geometry": "geom.json"}})
    rc = main(["detection-sweep", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read geometry" in err and "geom.json" in err


def geometry_doc():
    """The built-in coaxial geometry as a geometry file."""
    g = coaxial_geometry()

    def coil(c):
        return {"center_m": list(c.center), "axis": list(c.axis),
                "mean_radius_m": c.mean_radius, "turns": c.turns,
                "conductor_cross_section_m2":
                    c.conductor_cross_section_total}

    return {"transmitter": coil(g.transmitter),
            "receivers": [coil(r) for r in g.receivers],
            "drive": {"amplitude_A": 0.035, "frequency_Hz": 1.6e6},
            "capacitance_F": 470e-12, "receiver_inductance_H": 21e-6}


def run_geometry(tmp_path, doc):
    """Run detection-sweep on geometry ``doc``; a string is the file's
    text as it is."""
    (tmp_path / "geom.json").write_text(
        doc if isinstance(doc, str) else json.dumps(doc))
    cfg = write_config(tmp_path, {"detection": {"geometry": "geom.json"}})
    out = tmp_path / "out"
    return main(["detection-sweep", "--config", str(cfg),
                 "--out", str(out)]), out


def test_detection_sweep_geometry_file_equals_built_in(tmp_path):
    rc, out = run_geometry(tmp_path, geometry_doc())
    assert rc == 0
    assert main(["detection-sweep", "--out", str(tmp_path / "ref")]) == 0
    _, rows, _ = read_csv(out / "detection_sweep.csv")
    _, ref, _ = read_csv(tmp_path / "ref" / "detection_sweep.csv")
    assert rows == ref


# each of these ran at exit 0, some on a silently changed geometry
BAD_GEOMETRY = {
    "fractional-turns": (lambda g: g["receivers"][0].update(turns=60.9),
                         "geometry.receivers[0].turns"),
    "bool-turns": (lambda g: g["receivers"][0].update(turns=True),
                   "geometry.receivers[0].turns"),
    "misspelt-key": (lambda g: g.update(
        receiver_inductance=g.pop("receiver_inductance_H")),
        "receiver_inductance"),
    "string-number": (lambda g: g.update(capacitance_F="470e-12"),
                      "geometry.capacitance_F"),
    "coil-key": (lambda g: g["transmitter"].update(radius_m=0.02),
                 "radius_m"),
    "drive-key": (lambda g: g["drive"].update(phase_rad=0.0), "phase_rad"),
    "medium-key": (lambda g: g.update(medium={"permittivity": 1.05}),
                   "medium"),
    "two-frequencies": (lambda g: g["drive"].update(
        angular_frequency_rad_s=1e7), "angular_frequency_rad_s"),
    "repeated-key": (lambda g: json.dumps(g)[:-1]
                     + ', "capacitance_F": 1e-9}',
                     "duplicate key 'geometry.capacitance_F'"),
    "repeated-coil-key": (lambda g: json.dumps(g).replace(
        '"turns": 60', '"turns": 60, "turns": 61'),
        "duplicate key 'geometry.receivers[0].turns'"),
    # the sweep reads receiver 0 alone, but the manifest digested both
    "second-receiver": (lambda g: g["receivers"].append(
        dict(g["receivers"][0], axis=[1.0, 0.0, 0.0])),
        "geom.json: receivers"),
}


@pytest.mark.parametrize("edit, name", BAD_GEOMETRY.values(),
                         ids=BAD_GEOMETRY.keys())
def test_detection_sweep_bad_geometry_value_exits_2(tmp_path, capsys, edit,
                                                    name):
    doc = geometry_doc()
    text = edit(doc)    # an edit that returns text gives the whole file
    assert run_geometry(tmp_path, doc if text is None else text)[0] == 2
    assert name in capsys.readouterr().err


# ------------------------------------------------------------- ringdown

RINGDOWN_CFG = {"ringdown": {
    "tau_s": 1.0e5, "noise_rms": 0.4, "seed": 5,
    "total_duration_s": 43200.0}}


def test_ringdown_simulate_then_analyze(tmp_path):
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    blocks = sorted((out / "blocks").glob("block_*.rngd"))
    assert len(blocks) == 12
    assert blocks[0].name == "block_000000.rngd"
    truth = json.loads((out / "ringdown_truth.json").read_text())
    assert truth["n_blocks"] == 12
    assert truth["tau_s"] == 1.0e5
    assert truth["seed"] == 5

    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 0
    fit = json.loads((out / "decay_fit.json").read_text())
    assert abs(fit["tau_s"] - 1.0e5) / 1.0e5 < 0.05
    assert fit["linewidth_Hz"] == 1.0 / (math.pi * fit["tau_s"])
    header, rows, comments = read_csv(out / "amplitude_series.csv")
    assert header == ["t_s", "f_Hz", "amplitude", "snr", "flagged"]
    assert len(rows) == 12
    m = manifest_of(out)
    # analyze digests every block it read
    block_inputs = [k for k in m["input_sha256"] if k.startswith("block:")]
    assert len(block_inputs) == 12
    assert comments[0].startswith(f"# manifest {m['manifest_hash']}")
    assert fit["manifest_hash"] == m["manifest_hash"]


def test_ringdown_seed_override_and_reproducibility(tmp_path):
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    outs = [tmp_path / n for n in ("a", "b", "c")]
    for out, seed in zip(outs, ("99", "99", "100")):
        assert main(["ringdown", "simulate", "--config", str(cfg),
                     "--out", str(out), "--seed", seed]) == 0
    a0 = (outs[0] / "blocks" / "block_000000.rngd").read_bytes()
    b0 = (outs[1] / "blocks" / "block_000000.rngd").read_bytes()
    c0 = (outs[2] / "blocks" / "block_000000.rngd").read_bytes()
    assert a0 == b0
    assert a0 != c0
    assert manifest_of(outs[0])["seed"] == 99
    truth = json.loads((outs[0] / "ringdown_truth.json").read_text())
    assert truth["seed"] == 99


def test_ringdown_separate_blocks_dir(tmp_path):
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    bdir = tmp_path / "elsewhere"
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out), "--blocks", str(bdir)]) == 0
    assert len(list(bdir.glob("block_*.rngd"))) == 12
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out), "--blocks", str(bdir)]) == 0


def test_ringdown_analyze_without_blocks_exits_3(tmp_path, capsys):
    rc = main(["ringdown", "analyze", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "no block files" in capsys.readouterr().err


def test_ringdown_corrupt_block_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    victim = out / "blocks" / "block_000003.rngd"
    victim.write_bytes(b"garbage")
    rc = main(["ringdown", "analyze", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 3
    assert "block_000003.rngd" in capsys.readouterr().err


def test_ringdown_analyze_missing_blocks_keeps_tau(tmp_path):
    # start times come from the block numbers, so gaps do not bias tau
    cfg = write_config(tmp_path, {"ringdown": dict(RINGDOWN_CFG["ringdown"],
                                                   noise_rms=0.0)})
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    for k in (0, 5, 6):
        (out / "blocks" / f"block_{k:06d}.rngd").unlink()
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 0
    fit = json.loads((out / "decay_fit.json").read_text())
    assert abs(fit["tau_s"] - 1.0e5) / 1.0e5 < 1e-6
    assert fit["missing_block_indices"] == [0, 5, 6]
    _, rows, _ = read_csv(out / "amplitude_series.csv")
    assert [float(r[0]) for r in rows] == [
        k * 3600.0 for k in range(12) if k not in (0, 5, 6)]


def test_ringdown_memory_does_not_grow_with_the_record(tmp_path):
    # 48 blocks of 15,000 samples: the record is 5.8 MB, a block 0.12 MB
    cfg = write_config(tmp_path, {"ringdown": {
        "total_duration_s": 48 * 3600.0, "noise_rms": 0.5}})
    block_bytes = 15000 * 8
    peaks = {}
    tracemalloc.start()
    try:
        for action in ("simulate", "analyze"):
            argv = ["ringdown", action, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]
            assert main(argv) == 0     # warm-up: imports and caches
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peaks[action] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 8 * block_bytes, peaks


def _ringdown_run(tmp_path):
    """A simulated record: its config, its --out and its 12 block files."""
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    return cfg, out, sorted((out / "blocks").glob("block_*.rngd"))


def _shorten(path):
    """A valid frame 40 samples short of the schedule."""
    path.write_bytes(path.read_bytes()[:-320])


def test_ringdown_earlier_wrong_length_beats_a_corrupt_block(tmp_path,
                                                             capsys):
    # one pass by block index: block 2's length before block 5's magic
    cfg, out, blocks = _ringdown_run(tmp_path)
    _shorten(blocks[2])
    blocks[5].write_bytes(b"XXXX" + blocks[5].read_bytes()[4:])
    capsys.readouterr()
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "levosc: block at t = 7200 s has 14960 samples, schedule expects "
        "15000\n")


def test_ringdown_bad_schedule_beats_a_corrupt_block(tmp_path, capsys):
    # the ring-down config is checked before any block is read
    _, out, blocks = _ringdown_run(tmp_path)
    blocks[5].write_bytes(b"garbage")
    bad = write_config(tmp_path, {"ringdown": {"block_length_s": 4000.0}},
                       name="bad.json")
    capsys.readouterr()
    assert main(["ringdown", "analyze", "--config", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "block_length" in err and "block_000005.rngd" not in err
    assert not (out / "manifest.json").exists()


def test_ringdown_wrong_length_beats_a_later_bad_peak(tmp_path, capsys):
    cfg, out, blocks = _ringdown_run(tmp_path)
    _shorten(blocks[2])
    raw = blocks[5].read_bytes()
    blocks[5].write_bytes(raw[:24] + bytes(len(raw) - 24))   # all zero
    capsys.readouterr()
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "block at t = 7200 s has 14960 samples" in err


def test_ringdown_bad_peak_beats_a_later_wrong_length(tmp_path, capsys):
    # one pass by block index: block 2's peak before block 5's length
    cfg, out, blocks = _ringdown_run(tmp_path)
    raw = blocks[2].read_bytes()
    blocks[2].write_bytes(raw[:24] + bytes(len(raw) - 24))   # all zero
    _shorten(blocks[5])
    capsys.readouterr()
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "levosc: block at t = 7200 s: spectral peak is zero or not finite\n")


def test_ringdown_block_past_the_schedule_exits_3(tmp_path, capsys):
    # the last block's samples as block 500 once gave tau 7.3e6 s at exit 0
    cfg, out, blocks = _ringdown_run(tmp_path)
    last = read_block_bin(blocks[-1].read_bytes(), blocks[-1], 11 * 3600.0)
    write_block_bin(Block(500 * 3600.0, last.sample_rate, last.samples),
                    out / "blocks" / "block_000500.rngd")
    capsys.readouterr()
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "levosc: block at t = 1.8e+06 s starts after the schedule's last "
        "block, at t = 39600 s\n")
    assert not (out / "decay_fit.json").exists()


def _ten_block_run(tmp_path):
    """A simulated 10-block record at tau 4e4 s: its config and --out."""
    cfg = write_config(tmp_path, {"ringdown": {
        "tau_s": 4.0e4, "noise_rms": 0.5, "total_duration_s": 36000.0}})
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    return cfg, out


def test_ringdown_renamed_block_exits_3(tmp_path, capsys):
    # blocks 2 and 3 renamed to 3 and 8 once moved tau from 40012 to
    # 57293 s at exit 0; a block's header now holds its start
    cfg, out = _ten_block_run(tmp_path)
    blocks = out / "blocks"
    (blocks / "block_000003.rngd").replace(blocks / "block_000008.rngd")
    (blocks / "block_000002.rngd").replace(blocks / "block_000003.rngd")
    capsys.readouterr()
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"levosc: {blocks / 'block_000003.rngd'}: block starts at "
        "t = 7200.0 s by its header but at t = 10800.0 s by its place in "
        "the schedule\n")
    assert not (out / "decay_fit.json").exists()


def test_ringdown_blocks_of_another_interval_exit_3(tmp_path, capsys):
    # blocks an hour apart, analyzed half an hour apart, once halved tau
    # to 20006 s at exit 0
    _, out = _ten_block_run(tmp_path)
    half = write_config(tmp_path, {"ringdown": {
        "tau_s": 4.0e4, "noise_rms": 0.5, "total_duration_s": 36000.0,
        "block_interval_s": 1800.0}}, name="half.json")
    capsys.readouterr()
    assert main(["ringdown", "analyze", "--config", str(half),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"levosc: {out / 'blocks' / 'block_000001.rngd'}: block starts at "
        "t = 3600.0 s by its header but at t = 1800.0 s by its place in "
        "the schedule\n")
    assert not (out / "decay_fit.json").exists()


# The README's fault order after the config: one pass by block index, in
# which a block that does not fit the schedule (rate, length or start) or
# cannot be measured stops the run; then the fit.
FAULT_CFG = {"sample_rate_Hz": 20.0, "block_length_s": 30.0,
             "block_interval_s": 600.0, "tau_s": 5000.0, "noise_rms": 0.05,
             "seed": 3}
FAULT_KINDS = ("short", "rate", "zero", "past")


def _expected_fault(n_blocks, faults):
    """The message of the fault that the README's order puts first, or
    None: ``faults`` maps a block index to its kind."""
    interval, per_block = FAULT_CFG["block_interval_s"], 600   # 30 s at 20 Hz
    # a block past the schedule is filed under index n_blocks + k
    index = {k: n_blocks + k if faults.get(k) == "past" else k
             for k in range(n_blocks)}
    for k in sorted(range(n_blocks), key=index.get):
        if faults.get(k) == "short":
            return (f"block at t = {k * interval:g} s has {per_block - 40} "
                    f"samples, schedule expects {per_block}")
        if faults.get(k) == "rate":
            return "block sample rate differs from the schedule"
        if faults.get(k) == "past":
            return (f"block at t = {index[k] * interval:g} s starts after "
                    f"the schedule's last block, at t = "
                    f"{(n_blocks - 1) * interval:g} s")
        if faults.get(k) == "zero":
            return (f"block at t = {k * interval:g} s: spectral peak is zero "
                    f"or not finite")
    return None


@settings(max_examples=20, deadline=None)
@given(n_blocks=st.integers(8, 14), data=st.data())
def test_ringdown_faults_in_one_order_for_files_and_lists(n_blocks, data):
    faults = data.draw(st.dictionaries(st.integers(0, n_blocks - 1),
                                       st.sampled_from(FAULT_KINDS),
                                       max_size=4))
    interval = FAULT_CFG["block_interval_s"]
    sec = dict(FAULT_CFG, total_duration_s=n_blocks * interval)
    params = RingdownParams(amplitude0=1.0, f0=2.7, tau=sec["tau_s"],
                            noise_rms=sec["noise_rms"], seed=sec["seed"])
    schedule = BlockSchedule(sec["sample_rate_Hz"], sec["total_duration_s"],
                             sec["block_length_s"], interval)
    blocks = {}
    for k in range(n_blocks):
        block = synthesize_block(params, schedule, k)
        kind, index, rate = faults.get(k), k, block.sample_rate
        samples = block.samples
        if kind == "short":
            samples = samples[:-40]
        elif kind == "rate":
            rate = 1.25 * rate
        elif kind == "zero":
            samples = np.zeros_like(samples)
        elif kind == "past":
            index = n_blocks + k
        blocks[index] = Block(index * interval, rate, samples)
    listed = [blocks[k] for k in sorted(blocks)]
    expected = _expected_fault(n_blocks, faults)
    with tempfile.TemporaryDirectory() as work:
        cfg = write_config(Path(work), {"ringdown": sec})
        block_dir = Path(work) / "blocks"
        block_dir.mkdir()
        for k, block in blocks.items():
            write_block_bin(block, block_dir / f"block_{k:06d}.rngd")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["ringdown", "analyze", "--config", str(cfg),
                         "--out", str(Path(work) / "out"),
                         "--blocks", str(block_dir)])
    if expected is None:
        assert code == 0 and err.getvalue() == ""
        analyze_ringdown(listed, schedule, 2.7)
        return
    assert (code, err.getvalue()) == (3, f"levosc: {expected}\n")
    with pytest.raises(DataError) as raised:
        analyze_ringdown(listed, schedule, 2.7)
    assert str(raised.value) == expected


@settings(max_examples=15, deadline=None)
@given(n_blocks=st.integers(8, 14), rate=st.sampled_from([20.0, 50.0]),
       length=st.sampled_from([30.0, 60.0, 120.0]),
       interval=st.sampled_from([600.0, 1800.0]),
       tau_per_span=st.floats(0.5, 3.0), noise=st.floats(0.0, 0.3),
       seed=st.integers(0, 2**32), data=st.data())
def test_ringdown_analyze_series_equals_library_series(
        n_blocks, rate, length, interval, tau_per_span, noise, seed, data):
    missing = data.draw(st.sets(st.integers(0, n_blocks - 1),
                                max_size=n_blocks - 6))
    # the span of the blocks kept: one under 0.2 tau is refused, exit 3
    kept = sorted(set(range(n_blocks)) - missing)
    span = (kept[-1] - kept[0]) * interval
    cfg_obj = {"ringdown": {
        "sample_rate_Hz": rate, "block_length_s": length,
        "block_interval_s": interval, "total_duration_s": n_blocks * interval,
        "tau_s": tau_per_span * span, "noise_rms": noise, "seed": seed}}
    with tempfile.TemporaryDirectory() as work:
        cfg = write_config(Path(work), cfg_obj)
        out = Path(work) / "out"
        assert main(["ringdown", "simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        for k in missing:
            (out / "blocks" / f"block_{k:06d}.rngd").unlink()
        assert main(["ringdown", "analyze", "--config", str(cfg),
                     "--out", str(out)]) == 0
        written = (out / "amplitude_series.csv").read_text()
        blocks = [read_block_bin(
            (out / "blocks" / f"block_{k:06d}.rngd").read_bytes(), "block",
            k * interval) for k in range(n_blocks) if k not in missing]
    expected = io.StringIO()
    write_series_csv(amplitude_series(blocks, 2.7), expected,
                     header_comment=written.splitlines()[0][2:])
    assert written == expected.getvalue()


@pytest.mark.parametrize("name", ["block_7.rngd", "block_extra.rngd",
                                  "block_0000001.rngd"])
def test_ringdown_analyze_misnamed_block_exits_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    (out / "blocks" / "block_000001.rngd").rename(out / "blocks" / name)
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert name in capsys.readouterr().err


def _block_is_a_directory(cfg, out):
    (out / "blocks" / "block_000005.rngd").mkdir(parents=True)
    return "simulate", out / "blocks" / "block_000005.rngd"


def _blocks_is_a_file(cfg, out):
    out.mkdir()
    (out / "blocks").write_text("not a directory")
    return "simulate", out / "blocks"


def _fit_is_a_directory(cfg, out):
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    (out / "decay_fit.json").mkdir()
    return "analyze", out / "decay_fit.json"


def _blocks_has_a_nul(cfg, out):
    return "simulate", out.parent / "bl\0cks"


@pytest.mark.parametrize("make", [_block_is_a_directory, _blocks_is_a_file,
                                  _fit_is_a_directory, _blocks_has_a_nul])
def test_ringdown_unwritable_output_exits_2(tmp_path, capsys, make):
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    out = tmp_path / "out"
    action, path = make(cfg, out)
    argv = ["ringdown", action, "--config", str(cfg), "--out", str(out)]
    if make is _blocks_has_a_nul:
        argv += ["--blocks", str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("levosc: config error: cannot ")
    assert f"{path}: " in err


def test_ringdown_first_unwritable_block_is_reported(tmp_path, capsys):
    # blocks 5 and 8 cannot be written: block 5's fault is the one named,
    # and every block before it is written
    cfg = write_config(tmp_path, RINGDOWN_CFG)
    blocks = tmp_path / "out" / "blocks"
    for k in (5, 8):
        (blocks / f"block_{k:06d}.rngd").mkdir(parents=True)
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "block_000005.rngd" in err and "block_000008" not in err
    assert all((blocks / f"block_{k:06d}.rngd").is_file() for k in range(5))


def test_ringdown_huge_duration_exits_2_at_once(tmp_path, capsys):
    cfg = write_config(tmp_path, {"ringdown": {"total_duration_s": 1e300}})
    started = time.monotonic()
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert time.monotonic() - started < 1.0
    assert "samples" in capsys.readouterr().err


def test_ringdown_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"ringdown": {"tau_s": -5.0}})
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    # "csv" named a block format that is gone
    for fmt in ("parquet", "csv"):
        cfg2 = write_config(tmp_path, {"ringdown": {"format": fmt}},
                            name="c2.json")
        assert main(["ringdown", "simulate", "--config", str(cfg2),
                     "--out", str(tmp_path / "out")]) == 2


# -------------------------------------------------------------- fit-he3

def model_data_csv(tmp_path, x3, noise=0.0, seed=0):
    med = HeliumMedia()
    osc = OscillatorSpec(mass=6.33e-6, radius_warm=1.00e-3)
    n3 = x3 * med.n4
    grid = np.geomspace(0.015, 0.5, 15).tolist()
    table = damping_table(osc, med, grid, n3, RegimeMode.RECIPROCAL_SUM,
                          DEFAULT_TAU_VACUUM)
    taus = table.tau_total
    if noise:
        rng = np.random.default_rng(seed)
        taus = taus * np.exp(noise * rng.standard_normal(len(taus)))
    path = tmp_path / "tau_data.csv"
    with open(path, "w") as fh:
        fh.write("T_K,tau_s\n")
        for T, tau in zip(table.T.tolist(), taus):
            fh.write(f"{T!r},{float(tau)!r}\n")
    return path


def test_fit_he3_recovery(tmp_path):
    data = model_data_csv(tmp_path, 4.2e-8)
    out = tmp_path / "out"
    assert main(["fit-he3", "--data", str(data), "--out", str(out)]) == 0
    fit = json.loads((out / "he3_fit.json").read_text())
    assert abs(fit["x3"] - 4.2e-8) / 4.2e-8 < 1e-3
    assert fit["regime_mode"] == "ReciprocalSum"
    m = manifest_of(out)
    assert "data" in m["input_sha256"]
    assert fit["manifest_hash"] == m["manifest_hash"]
    header, rows, comments = read_csv(out / "he3_residuals.csv")
    assert header == ["T_K", "tau_s", "log_residual"]
    assert len(rows) == 15
    assert all(abs(float(r[2])) < 1e-6 for r in rows)
    assert comments[0].startswith(f"# manifest {m['manifest_hash']}")


def test_fit_he3_contamination_prediction(tmp_path):
    data = model_data_csv(tmp_path, 4.2e-8)
    cfg = write_config(tmp_path, {"fit": {"added_x3": 1e-7,
                                          "predict_T_min_K": 0.015,
                                          "predict_T_max_K": 0.5,
                                          "predict_points": 10}})
    out = tmp_path / "out"
    assert main(["fit-he3", "--data", str(data), "--config", str(cfg),
                 "--out", str(out)]) == 0
    header, rows, _ = read_csv(out / "contamination_prediction.csv")
    assert header == ["T_K", "tau_s", "tau_contaminated_s", "ratio"]
    assert len(rows) == 10
    first = rows[0]
    assert abs(float(first[0]) - 0.015) < 1e-12
    ratio = float(first[3])
    assert abs(ratio - 0.296) < 2e-3
    for r in rows:
        assert float(r[3]) == float(r[2]) / float(r[1])


def test_fit_he3_bad_first_data_row_exits_3(tmp_path, capsys):
    data = model_data_csv(tmp_path, 4.2e-8)
    lines = data.read_text().splitlines(keepends=True)
    lines[1] = "0.02x,1.2e5\n"    # the line after the header
    data.write_text("".join(lines))
    assert main(["fit-he3", "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 3
    assert "tau_data.csv:2: " in capsys.readouterr().err


def test_fit_he3_no_signature_exits_3(tmp_path, capsys):
    med_path = tmp_path / "flat.csv"
    table = damping_table(
        OscillatorSpec(mass=6.33e-6, radius_warm=1.00e-3),
        HeliumMedia(), [1.0, 1.2, 1.4, 1.6, 1.8], 0.0)
    with open(med_path, "w") as fh:
        fh.write("T_K,tau_s\n")
        for T, tau in zip(table.T.tolist(), table.tau_total.tolist()):
            fh.write(f"{T!r},{tau!r}\n")
    rc = main(["fit-he3", "--data", str(med_path),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "bracket" in capsys.readouterr().err


@pytest.mark.parametrize("bracket", [[1e18], ["low", "high"], 1e20,
                                     [1e18, 1e20, 1e23]])
def test_fit_he3_bad_bracket_exits_2(tmp_path, capsys, bracket):
    data = model_data_csv(tmp_path, 4.2e-8)
    cfg = write_config(tmp_path, {"fit": {"bracket_per_m3": bracket}})
    assert main(["fit-he3", "--data", str(data), "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "bracket_per_m3" in capsys.readouterr().err


def test_fit_he3_dominant_only_refuses_fit_vacuum(tmp_path, capsys):
    data = model_data_csv(tmp_path, 4.2e-8)
    cfg = write_config(tmp_path, {"fit": {"mode": "DominantOnly",
                                          "fit_vacuum": True}})
    out = tmp_path / "out"
    assert main(["fit-he3", "--data", str(data), "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fit_vacuum" in err and "DominantOnly" in err
    assert not (out / "he3_fit.json").exists()


def test_fit_he3_missing_data_exits_3(tmp_path):
    rc = main(["fit-he3", "--data", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 3


# each of these ran at exit 0 with a channel dropped or blanked, or a
# fit row kept at full weight or dropped; float() reads "0.0_15" as
# 0.015, and a row above T_lambda is outside every channel's model.
# Python's json module reads NaN and Infinity.
NON_FINITE_INPUTS = [
    ("config.json", '{"media": {"m3_eff_ratio": NaN}}', 2,
     "media.m3_eff_ratio: expected number, got nan"),
    ("config.json", '{"media": {"c": Infinity}}', 2,
     "media.c: expected number, got inf"),
    ("eta.csv", "1.0,23e-6\n1.2,nan\n2.17,2.4e-6\n", 3, "finite"),
    ("tau_data.csv", "nan,4e5\n", 3, "finite"),
    ("tau_data.csv", "0.1,inf\n", 3, "finite"),
    ("tau_data.csv", "0.0_15,1.2e5\n", 3, "tau_data.csv:17: "),
    ("tau_data.csv", "2.5,1.2e5\n", 3,
     "tau_data.csv:17: T = 2.5 K is above the superfluid transition"),
]


@pytest.mark.parametrize("name, text, code, message", NON_FINITE_INPUTS,
                         ids=["m3_eff_ratio-nan", "c-inf", "viscosity-nan",
                              "T_K-nan", "tau_s-inf", "T_K-underscore",
                              "T_K-above-lambda"])
def test_non_finite_input_rejected(tmp_path, capsys, name, text, code,
                                   message):
    out = ["--out", str(tmp_path / "out")]
    if name == "tau_data.csv":
        data = model_data_csv(tmp_path, 4.2e-8)
        with open(data, "a") as fh:
            fh.write(text)
        rc = main(["fit-he3", "--data", str(data), *out])
    else:
        if name == "eta.csv":
            (tmp_path / name).write_text(text)
            text = {"media": {"viscosity_csv": "eta.csv"},
                    "damping": {"x3": 1e-8}}
        cfg = write_config(tmp_path, text)
        rc = main(["damping-curve", "--config", str(cfg), *out])
    assert rc == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["damping-curve", "fit-he3"])
def test_overflowing_impurity_drag_exits_3(tmp_path, capfd, command):
    # inf times 0 in the impurity channel once blanked every tau_imp_s
    # at exit 0, or reached LAPACK, which printed to stdout
    cfg = write_config(tmp_path, {
        "media": {"m3": 1e300},
        "damping": {"x3": 1e-8, "points": 3, "T_min_K": 0.01,
                    "T_max_K": 0.1}})
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "fit-he3":
        argv += ["--data", str(model_data_csv(tmp_path, 4.2e-8))]
    assert main(argv) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "impurity channel" in captured.err
    assert not list(out.glob("*"))


# a medium constant, x3 or a viscosity that overflows one channel: each
# once exited 3 with an errno or an unnamed channel
OVERFLOWING_CHANNELS = {
    "c": ({"media": {"c": 1e100}}, "phonon channel at T = "),
    "k0": ({"media": {"k0": 1e100}}, "roton channel at T = "),
    "hbar": ({"media": {"hbar": 1e110}}, "phonon channel at T = "),
    "k_B": ({"media": {"k_B": 1.7976931348623157e308}},
            "the phonon channel's decay time is 0 s"),
    "x3": ({"damping": {"x3": 1e300}},
           "the impurity channel's decay time is 0 s"),
    "viscosity": ({"media": {"viscosity_csv": "eta_1e308.csv"},
                   "damping": {"T_min_K": 1.1, "T_max_K": 1.9}},
                  "T = 1.1 K): the hydrodynamic channel's decay time is 0 s"),
    "viscosity-rate": ({"media": {"viscosity_csv": "eta_1e307.csv"},
                        "damping": {"T_min_K": 1.1, "T_max_K": 1.9}},
                       "T = 1.1 K): the hydrodynamic channel's decay time "
                       "is 6.8"),
}


@pytest.mark.parametrize("command, case", [
    *(("damping-curve", case) for case in OVERFLOWING_CHANNELS),
    *(("fit-he3", case) for case in ("c", "k0", "hbar", "k_B"))])
def test_overflowing_channel_is_named(tmp_path, capsys, command, case):
    cfg_obj, named = OVERFLOWING_CHANNELS[case]
    for eta in ("1e308", "1e307"):
        (tmp_path / f"eta_{eta}.csv").write_text(f"1.0,{eta}\n2.0,{eta}\n")
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "fit-he3":
        argv += ["--data", str(model_data_csv(tmp_path, 4.2e-8))]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert named in err and "T = " in err, err
    assert "Numerical result" not in err and "a channel is not" not in err
    assert not list(out.glob("*"))


# ---------------------------------------------------------- sensitivity

def test_sensitivity_defaults(tmp_path):
    out = tmp_path / "out"
    assert main(["sensitivity", "--out", str(out)]) == 0
    rep = json.loads((out / "sensitivity.json").read_text())
    assert abs(rep["S_F_N2_per_Hz"] - 8.526349434146342e-36) \
        < 1e-48
    assert abs(rep["T_over_tau_K_per_s"] - 0.005 / 4.1e5) < 1e-20
    assert abs(rep["linewidth_Hz"] - 1.0 / (math.pi * 4.1e5)) < 1e-18
    # each figure is its model function at the defaults, exactly
    osc = OscillatorSpec(mass=6.33e-6, radius_warm=1.00e-3)
    assert rep["S_F_N2_per_Hz"] == noise_density(osc, 0.005, 4.1e5)
    assert rep["F_D_N"] == drag_force(osc, 4.1e5, 1e-5)
    assert rep["T_over_tau_K_per_s"] == 0.005 / 4.1e5
    assert rep["linewidth_Hz"] == linewidth(4.1e5)
    m = manifest_of(out)
    assert rep["manifest_hash"] == m["manifest_hash"]


def test_sensitivity_uses_media_overrides(tmp_path):
    cfg = write_config(tmp_path, {"media": {"k_B": 2.0e-23}})
    out = tmp_path / "out"
    assert main(["sensitivity", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert main(["sensitivity", "--out", str(tmp_path / "ref")]) == 0
    S_F, ref = (json.loads((d / "sensitivity.json").read_text())
                ["S_F_N2_per_Hz"] for d in (out, tmp_path / "ref"))
    assert abs(S_F / ref - 2.0e-23 / 1.380649e-23) < 1e-12


def test_sensitivity_drag_force_window(tmp_path):
    cfg = write_config(tmp_path, {"sensitivity": {"tau_s": 4.0e4}})
    out = tmp_path / "out"
    assert main(["sensitivity", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "sensitivity.json").read_text())
    assert 2.8e-15 < rep["F_D_N"] < 3.5e-15


# ----------------------------------------------------- manifest contract

def test_manifest_inputs_cover_config_and_overrides(tmp_path):
    # the medium's constants are part of the config and its digest
    cfg = write_config(tmp_path, {"media": {"he4_mass_density": 145.1},
                                  "damping": {"points": 4}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out)]) == 0
    m = manifest_of(out)
    assert set(m["input_sha256"]) == {"config"}
    assert m["input_sha256"]["config"] == \
        hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_manifest_hash_covers_input_content(tmp_path):
    d1 = model_data_csv(tmp_path, 4.2e-8)
    out1 = tmp_path / "o1"
    assert main(["fit-he3", "--data", str(d1), "--out", str(out1)]) == 0
    h1 = manifest_of(out1)["manifest_hash"]
    # changing a single data byte must change the run identity
    text = d1.read_text().replace("0.015", "0.016", 1)
    d1.write_text(text)
    out2 = tmp_path / "o2"
    assert main(["fit-he3", "--data", str(d1), "--out", str(out2)]) == 0
    assert manifest_of(out2)["manifest_hash"] != h1


def test_manifest_lists_outputs_relative_to_out(tmp_path, monkeypatch):
    # every command, run from another working directory with a relative
    # --out: each entry names a file as out / entry, and every file the
    # run wrote is listed, blocks outside --out among them
    data = model_data_csv(tmp_path, 4.2e-8)
    outside = tmp_path / "outside" / "blocks"
    runs = {
        "dc": (["damping-curve", "--svg"], {"damping": {"points": 8}}),
        "det": (["detection-sweep", "--svg", "--oracle"],
                {"detection": {"oracle_grid": 64}}),
        "fit": (["fit-he3", "--data", str(data)], {"fit": {"added_x3": 1e-7}}),
        "sens": (["sensitivity"], {}),
        "bin": (["ringdown", "simulate"], RINGDOWN_CFG),
        "ext": (["ringdown", "simulate", "--blocks", "../outside/blocks"],
                RINGDOWN_CFG),
        "ana": (["ringdown", "analyze", "--blocks", "../outside/blocks"],
                RINGDOWN_CFG),
    }
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    for name, (argv, cfg_obj) in runs.items():
        cfg = write_config(tmp_path, cfg_obj, f"{name}.json")
        out = Path("runs") / name
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        outputs = manifest_of(out)["outputs"]
        assert all((out / entry).is_file() for entry in outputs)
        written = {path.resolve() for path in out.rglob("*")
                   if path.is_file() and path.name != "manifest.json"}
        if name == "ext":
            written |= set(outside.iterdir())
        assert {(out / entry).resolve() for entry in outputs} == written
    assert "blocks/block_000011.rngd" in manifest_of(Path("runs/bin"))[
        "outputs"]
    assert "../../../outside/blocks/block_000000.rngd" in manifest_of(
        Path("runs/ext"))["outputs"]


def test_failed_run_removes_an_earlier_manifest(tmp_path, capsys):
    # a failing run once left the last success's manifest saying "ok"
    good = model_data_csv(tmp_path, 4.2e-8)
    bad = tmp_path / "bad.csv"
    bad.write_text("T_K,tau_s\n0.02,abc\n")
    out = tmp_path / "same"
    assert main(["fit-he3", "--data", str(good), "--out", str(out)]) == 0
    assert manifest_of(out)["status"] == "ok"
    capsys.readouterr()
    assert main(["fit-he3", "--data", str(bad), "--out", str(out)]) == 3
    assert "bad.csv:2: " in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_config_error_removes_an_earlier_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sensitivity", "--out", str(out)]) == 0
    assert manifest_of(out)["status"] == "ok"
    cfg = write_config(tmp_path, {"sensitivity": {"temperature_K": "abc"}})
    capsys.readouterr()
    assert main(["sensitivity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "sensitivity.temperature_K" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_rerun_writes_its_own_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"sensitivity": {"temperature_K": 0.01}})
    assert main(["sensitivity", "--out", str(out)]) == 0
    first = manifest_of(out)
    assert main(["sensitivity", "--config", str(cfg), "--out", str(out)]) == 0
    second = manifest_of(out)
    assert second["status"] == "ok"
    assert second["outputs"] == ["sensitivity.json"]
    assert second["manifest_hash"] != first["manifest_hash"]


def test_manifest_that_cannot_be_removed_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert main(["sensitivity", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"levosc: config error: cannot remove {out / 'manifest.json'}: ")
    assert not (out / "sensitivity.json").exists()


def test_non_finite_json_record_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "oscillator": {"mass_kg": 1e300},
        "sensitivity": {"velocity_m_s": 1e300, "tau_s": 1e-300}})
    out = tmp_path / "out"
    assert main(["sensitivity", "--config", str(cfg),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"levosc: cannot write {out / 'sensitivity.json'}: "
        "F_D_N is not finite\n")
    assert not (out / "sensitivity.json").exists()
    assert not (out / "manifest.json").exists()


def test_consecutive_calls_share_no_parsed_state(tmp_path):
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    cfg = write_config(tmp_path, {"damping": {"points": 5}})
    for name, flags in (("a", ["--svg"]), ("b", [])):
        assert main(["damping-curve", *flags, "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "damping_curve.svg").is_file()
    assert not (tmp_path / "b" / "damping_curve.svg").exists()
    assert manifest_of(tmp_path / "b")["outputs"] == [
        "damping_curve.csv", "damping_metadata.json"]
    cfg = write_config(tmp_path, RINGDOWN_CFG, "ring.json")
    for name, flags in (("c", ["--seed", "99"]), ("d", [])):
        assert main(["ringdown", "simulate", *flags, "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
    assert manifest_of(tmp_path / "d")["seed"] is None
    truth = json.loads((tmp_path / "d" / "ringdown_truth.json").read_text())
    assert truth["seed"] == 5


def test_out_under_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "out"
    assert main(["sensitivity", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    # a NUL byte is refused by the path's system call, not by the disk
    out = tmp_path / "a\0b"
    assert main(["sensitivity", "--out", str(out)]) == 2
    assert f"cannot create output directory {out}: " \
        in capsys.readouterr().err


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("levosc.cli.axisym.oracle_sweep", exhausted)
    assert main(["detection-sweep", "--oracle",
                 "--out", str(tmp_path / "out")]) == 2
    assert "too large for available memory" in capsys.readouterr().err


def test_missing_viscosity_csv_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"media": {"viscosity_csv": "ghost.csv"}})
    rc = main(["damping-curve", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "ghost.csv" in capsys.readouterr().err


def test_manifest_digests_viscosity_csv(tmp_path):
    table = tmp_path / "eta.csv"
    table.write_text("T_K,eta_Pa_s\n1.0,2.3e-5\n2.0,1.4e-6\n")
    cfg = write_config(tmp_path, {"media": {"viscosity_csv": "eta.csv"},
                                  "damping": {"points": 4}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out)]) == 0
    digests = manifest_of(out)["input_sha256"]
    assert digests["viscosity_csv"] == \
        hashlib.sha256(table.read_bytes()).hexdigest()


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    # the viscosity table resolves against the config file's directory
    (tmp_path / "media").mkdir()
    (tmp_path / "media" / "eta.csv").write_text(
        "T_K,eta_Pa_s\n1.0,2.3e-5\n2.0,1.4e-6\n")
    geom = tmp_path / "geom.json"
    geom.write_text(json.dumps(geometry_doc()))
    data = model_data_csv(tmp_path, 4.2e-8)
    cfg = write_config(tmp_path, {
        "media": {"c": 240.0, "viscosity_csv": "media/eta.csv"},
        "detection": {"geometry": "geom.json"},
        "damping": {"points": 4}, **RINGDOWN_CFG})
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out), "--blocks", str(out / "bin")]) == 0

    media_inputs = [cfg, tmp_path / "media" / "eta.csv"]
    runs = [
        (["damping-curve", "--config", str(cfg)], media_inputs),
        (["sensitivity", "--config", str(cfg)], media_inputs),
        (["fit-he3", "--config", str(cfg), "--data", str(data)],
         [*media_inputs, data]),
        (["detection-sweep", "--config", str(cfg)], [cfg, geom]),
        (["ringdown", "analyze", "--config", str(cfg),
          "--blocks", str(out / "bin")],
         [cfg, *(out / "bin").glob("block_*")]),
    ]
    real_open = io.open
    for argv, inputs in runs:
        reads = Counter()

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode:
                reads[Path(file)] += 1
            return real_open(file, mode, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr("builtins.open", counting_open)
            patch.setattr("io.open", counting_open)
            assert main([*argv, "--out", str(tmp_path / "run")]) == 0
        assert reads == Counter(inputs), argv[0]


def test_manifest_digests_the_bytes_that_were_parsed(tmp_path, monkeypatch):
    data = model_data_csv(tmp_path, 4.2e-8)
    original = data.read_bytes()
    (tmp_path / "other").mkdir()
    other = model_data_csv(tmp_path / "other", 1e-7).read_bytes()
    ref = tmp_path / "ref_out"
    assert main(["fit-he3", "--data", str(data), "--out", str(ref)]) == 0
    real_read_bytes = Path.read_bytes

    def read_then_replace(path):
        blob = real_read_bytes(path)
        if path == data:     # the CLI has read it: swap in other data
            data.write_bytes(other)
        return blob

    monkeypatch.setattr(Path, "read_bytes", read_then_replace)
    out = tmp_path / "out"
    assert main(["fit-he3", "--data", str(data), "--out", str(out)]) == 0
    assert data.read_bytes() != original
    assert manifest_of(out)["input_sha256"]["data"] == \
        hashlib.sha256(original).hexdigest()
    for name in ("he3_fit.json", "he3_residuals.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
