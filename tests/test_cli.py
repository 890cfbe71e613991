"""End-to-end command runs: exit codes, file layout, manifest wiring.

Each run happens in-process through main(argv); outputs land in pytest
temp dirs and are parsed back with plain csv/json.
"""

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
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levosc.cli import CONFIG_TABLE, SIZE_CAPS, _load_config, main
from levosc.damping import (DEFAULT_TAU_VACUUM, OscillatorSpec, RegimeMode,
                            damping_table)
from levosc.detection import coaxial_geometry
from levosc.media import HeliumMedia


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


def test_config_list_not_object_exits_2(tmp_path):
    bad = tmp_path / "arr.json"
    bad.write_text("[1, 2]")
    assert main(["damping-curve", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 2


def table_entries():
    """(name, section, key, JSON type, default) for every config input;
    section is None for a top-level value."""
    for section, keys in CONFIG_TABLE.items():
        if not isinstance(keys, dict):
            yield (section, None, section, *keys)
            continue
        for key, (kind, default) in keys.items():
            yield f"{section}.{key}", section, key, kind, default


def type_name(kind):
    if isinstance(kind, str):
        return kind
    return " or ".join(json.dumps(choice) for choice in kind)


# the commands that read each section; "ringdown" simulates then analyzes
SECTION_COMMANDS = {
    None: ["damping-curve"], "oscillator": ["damping-curve", "fit-he3",
                                            "sensitivity"],
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
    ("damping-curve", {"media_overrides": 5}, "media_overrides"),
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
]


@pytest.mark.parametrize("command, cfg_obj, name", REJECTED_INPUTS,
                         ids=[case[2] for case in REJECTED_INPUTS])
def test_config_input_rejected_exits_2(tmp_path, capsys, command, cfg_obj,
                                       name):
    assert run_command(tmp_path, command, cfg_obj)[0] == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


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
    if section is None:
        cfg_obj[key] = value
    else:
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


def test_ringdown_csv_format_round_trip(tmp_path):
    cfg_obj = {"ringdown": dict(RINGDOWN_CFG["ringdown"], format="csv",
                                noise_rms=0.0)}
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    blocks = sorted((out / "blocks").glob("block_*.csv"))
    assert len(blocks) == 12
    first = blocks[0].read_text().splitlines()
    assert first[0].startswith("# manifest ")
    assert first[1] == "time_s,displacement"
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 0
    fit = json.loads((out / "decay_fit.json").read_text())
    assert abs(fit["tau_s"] - 1.0e5) / 1.0e5 < 1e-6


def test_ringdown_csv_block_with_repeated_time_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"ringdown": dict(RINGDOWN_CFG["ringdown"],
                                                   format="csv")})
    out = tmp_path / "out"
    assert main(["ringdown", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "blocks" / "block_000003.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = lines[4]   # one sample time twice
    path.write_text("".join(lines))
    assert main(["ringdown", "analyze", "--config", str(cfg),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "block_000003.csv" in err and "time column" in err


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


def test_ringdown_analyze_mixed_block_formats_exits_2(tmp_path, capsys):
    # 12 .rngd blocks at tau 1e5 s beside 12 .csv blocks at tau 2e5 s:
    # analyzing either set alone would silently drop the other
    bin_cfg = write_config(tmp_path, RINGDOWN_CFG, name="bin.json")
    csv_cfg = write_config(tmp_path, {"ringdown": dict(
        RINGDOWN_CFG["ringdown"], tau_s=2.0e5, format="csv")},
        name="csv.json")
    out = tmp_path / "out"
    for cfg in (bin_cfg, csv_cfg):
        assert main(["ringdown", "simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert len(list((out / "blocks").glob("block_*"))) == 24
    assert main(["ringdown", "analyze", "--config", str(bin_cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ".rngd" in err and ".csv" in err
    assert not (out / "decay_fit.json").exists()


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
    cfg2 = write_config(tmp_path, {"ringdown": {"format": "parquet"}},
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


def test_fit_he3_missing_data_exits_3(tmp_path):
    rc = main(["fit-he3", "--data", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 3


# each of these ran at exit 0 with a channel dropped or blanked, or a
# fit row kept at full weight or dropped; float() reads "2_40" as 240
NON_FINITE_INPUTS = [
    ("media.properties", "m3_eff_ratio = nan\n", 2, "finite"),
    ("media.properties", "c = inf\n", 2, "finite"),
    ("eta.csv", "1.0,23e-6\n1.2,nan\n2.17,2.4e-6\n", 3, "finite"),
    ("tau_data.csv", "nan,4e5\n", 3, "finite"),
    ("tau_data.csv", "0.1,inf\n", 3, "finite"),
    ("media.properties", "c = 2_40\n", 2, "media.properties:1: "),
    ("tau_data.csv", "0.0_15,1.2e5\n", 3, "tau_data.csv:17: "),
]


@pytest.mark.parametrize("name, text, code, message", NON_FINITE_INPUTS,
                         ids=["m3_eff_ratio-nan", "c-inf", "viscosity-nan",
                              "T_K-nan", "tau_s-inf", "c-underscore",
                              "T_K-underscore"])
def test_non_finite_input_rejected(tmp_path, capsys, name, text, code,
                                   message):
    out = ["--out", str(tmp_path / "out")]
    if name == "tau_data.csv":
        data = model_data_csv(tmp_path, 4.2e-8)
        with open(data, "a") as fh:
            fh.write(text)
        rc = main(["fit-he3", "--data", str(data), *out])
    else:
        (tmp_path / name).write_text(text)
        if name == "eta.csv":
            (tmp_path / "media.properties").write_text(
                "viscosity_csv = eta.csv\n")
        cfg = write_config(tmp_path, {"media_overrides": "media.properties",
                                      "damping": {"x3": 1e-8}})
        rc = main(["damping-curve", "--config", str(cfg), *out])
    assert rc == code
    assert message in capsys.readouterr().err


# ---------------------------------------------------------- sensitivity

def test_sensitivity_defaults(tmp_path):
    out = tmp_path / "out"
    assert main(["sensitivity", "--out", str(out)]) == 0
    rep = json.loads((out / "sensitivity.json").read_text())
    assert abs(rep["S_F_N2_per_Hz"] - 8.526349434146342e-36) \
        < 1e-48
    assert abs(rep["T_over_tau_K_per_s"] - 0.005 / 4.1e5) < 1e-20
    assert abs(rep["linewidth_Hz"] - 1.0 / (math.pi * 4.1e5)) < 1e-18
    m = manifest_of(out)
    assert rep["manifest_hash"] == m["manifest_hash"]


def test_sensitivity_uses_media_overrides(tmp_path):
    (tmp_path / "media.properties").write_text("k_B = 2.0e-23\n")
    cfg = write_config(tmp_path, {"media_overrides": "media.properties"})
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
    props = tmp_path / "media.properties"
    props.write_text("he4_mass_density = 145.1\n")
    cfg = write_config(tmp_path, {"media_overrides": "media.properties",
                                  "damping": {"points": 4}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out)]) == 0
    m = manifest_of(out)
    assert set(m["input_sha256"]) == {"config", "media_overrides"}
    import hashlib
    assert m["input_sha256"]["config"] == \
        hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert m["input_sha256"]["media_overrides"] == \
        hashlib.sha256(props.read_bytes()).hexdigest()


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


def test_out_under_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "out"
    assert main(["sensitivity", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("levosc.cli.axisym.oracle_sweep", exhausted)
    assert main(["detection-sweep", "--oracle",
                 "--out", str(tmp_path / "out")]) == 2
    assert "too large for available memory" in capsys.readouterr().err


def test_manifest_missing_override_file_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"media_overrides": "ghost.properties"})
    rc = main(["damping-curve", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "ghost.properties" in capsys.readouterr().err


def test_missing_viscosity_csv_exits_3(tmp_path, capsys):
    (tmp_path / "media.properties").write_text("viscosity_csv = ghost.csv\n")
    cfg = write_config(tmp_path, {"media_overrides": "media.properties"})
    rc = main(["damping-curve", "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "ghost.csv" in capsys.readouterr().err


def test_manifest_digests_viscosity_csv(tmp_path):
    import hashlib
    table = tmp_path / "eta.csv"
    table.write_text("T_K,eta_Pa_s\n1.0,2.3e-5\n2.0,1.4e-6\n")
    (tmp_path / "media.properties").write_text("viscosity_csv = eta.csv\n")
    cfg = write_config(tmp_path, {"media_overrides": "media.properties",
                                  "damping": {"points": 4}})
    out = tmp_path / "out"
    assert main(["damping-curve", "--config", str(cfg),
                 "--out", str(out)]) == 0
    digests = manifest_of(out)["input_sha256"]
    assert digests["viscosity_csv"] == \
        hashlib.sha256(table.read_bytes()).hexdigest()


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    # the viscosity table resolves against the override file's directory
    (tmp_path / "media").mkdir()
    (tmp_path / "media" / "eta.csv").write_text(
        "T_K,eta_Pa_s\n1.0,2.3e-5\n2.0,1.4e-6\n")
    props = tmp_path / "media" / "media.properties"
    props.write_text("c = 240.0\nviscosity_csv = eta.csv\n")
    geom = tmp_path / "geom.json"
    geom.write_text(json.dumps(geometry_doc()))
    data = model_data_csv(tmp_path, 4.2e-8)
    cfg = write_config(tmp_path, {
        "media_overrides": "media/media.properties",
        "detection": {"geometry": "geom.json"},
        "damping": {"points": 4}, **RINGDOWN_CFG})
    csv_cfg = write_config(tmp_path, {"ringdown": dict(
        RINGDOWN_CFG["ringdown"], format="csv")}, name="csv.json")
    out = tmp_path / "out"
    for config, blocks in ((cfg, "bin"), (csv_cfg, "csv")):
        assert main(["ringdown", "simulate", "--config", str(config),
                     "--out", str(out), "--blocks", str(out / blocks)]) == 0

    media_inputs = [cfg, props, tmp_path / "media" / "eta.csv"]
    runs = [
        (["damping-curve", "--config", str(cfg)], media_inputs),
        (["sensitivity", "--config", str(cfg)], media_inputs),
        (["fit-he3", "--config", str(cfg), "--data", str(data)],
         [*media_inputs, data]),
        (["detection-sweep", "--config", str(cfg)], [cfg, geom]),
    ] + [(["ringdown", "analyze", "--config", str(config),
           "--blocks", str(out / blocks)],
          [config, *(out / blocks).glob("block_*")])
         for config, blocks in ((cfg, "bin"), (csv_cfg, "csv"))]
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
