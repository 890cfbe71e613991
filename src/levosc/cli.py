"""Command-line surface: batch runs binding all the models together.

Subcommands: damping-curve, detection-sweep, ringdown simulate|analyze,
fit-he3, sensitivity. Every invocation writes a run manifest with a
content hash over the configuration, input files, and seed; every
output file references that hash, so a directory of results is
traceable to the exact inputs that produced it.

Every config input is declared once, in CONFIG_TABLE, and read by
:func:`levosc.formats.read_keys` before any compute: unknown sections
and keys, values of the wrong JSON type and sizes past SIZE_CAPS exit 2
naming ``section.key``.

Only this module opens input files, each once (:func:`_load_config`,
:func:`_read_inputs`): the manifest digests the bytes that are parsed.

Exit codes: 0 success, 2 usage or configuration problems (an input too
large for the available memory among them), 3 physics, geometry, or
data problems.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, axisym, damping, detection, fitting, media
from . import ringdown as rd
from .errors import ConfigError, DataError, LevoscError
from .formats import read_json, read_keys, write_csv
from .svgplot import Series, line_plot_svg

__all__ = ["main", "build_parser", "CONFIG_TABLE", "SIZE_CAPS"]

_MODES = tuple(mode.value for mode in damping.RegimeMode)

# Every config input: section -> key -> (JSON type, default); a tuple
# type lists the strings allowed. media_overrides is a top-level value.
CONFIG_TABLE = {
    "oscillator": {
        "mass_kg": ("number", 6.33e-6), "radius_warm_m": ("number", 1.00e-3),
        "contraction_fraction": ("number", 0.015),
        "resonant_frequency_Hz": ("number", 2.7)},
    "media_overrides": ("string or null", None),
    "damping": {
        "T_min_K": ("number", 0.01), "T_max_K": ("number", 2.1),
        "points": ("integer", 50), "grid": (("log", "linear"), "log"),
        "x3": ("number", 0.0), "mode": (_MODES, "ReciprocalSum"),
        "tau_vacuum_s": ("number or null", damping.DEFAULT_TAU_VACUUM)},
    "detection": {
        "geometry": ("string or null", None),
        "sweep_start_m": ("number", 0.019), "sweep_stop_m": ("number", 0.002),
        "sweep_points": ("integer", 18),
        "sphere_radius_m": ("number", 0.985e-3),
        "driven": (("transmitter", "receiver"), "transmitter"),
        "oracle_grid": ("integer", 128)},
    "ringdown": {
        "amplitude0": ("number", 1.0), "f0_Hz": ("number", 2.7),
        "phase0_rad": ("number", 0.0), "tau_s": ("number", 410400.0),
        "noise_rms": ("number", 0.0), "seed": ("integer", 0),
        "sample_rate_Hz": ("number", 50.0),
        "total_duration_s": ("number", 432000.0),
        "block_length_s": ("number", 300.0),
        "block_interval_s": ("number", 3600.0),
        "format": (("bin", "csv"), "bin")},
    "fit": {
        "bracket_per_m3": ("two numbers", [1e18, 1e23]),
        "mode": (_MODES, "ReciprocalSum"),
        "tau_vacuum_s": ("number or null", damping.DEFAULT_TAU_VACUUM),
        "fit_vacuum": ("boolean", False), "added_x3": ("number", 0.0),
        "predict_T_min_K": ("number", 0.015),
        "predict_T_max_K": ("number", 0.7),
        "predict_points": ("integer", 40)},
    "sensitivity": {
        "temperature_K": ("number", 0.005),
        "tau_s": ("number", damping.DEFAULT_TAU_VACUUM),
        "velocity_m_s": ("number", 1e-5)},
}

# The largest accepted value of each input that sizes the arrays of a
# run, so that a larger one exits 2 before anything is allocated. Peak
# memory at the cap, from tracemalloc on numpy 2: a damping row (the
# channel columns and the CSV text) takes about 680 B, a sweep pose (its
# columns, field arrays and CSV text) about 490 B, a prediction row
# about 200 B, and one node of the field solver about 140 B (the two
# dense pencil eigenbases, n^2 each, and some 15 grid-sized arrays).
SIZE_CAPS = {
    "damping.points": 10**5,            # about 70 MB
    "detection.sweep_points": 10**5,    # about 50 MB
    "fit.predict_points": 10**5,        # about 20 MB
    "detection.oracle_grid": 1024,      # about 150 MB
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levosc",
        description="Levitated-sphere oscillator toolkit: damping, "
                    "inductive detection, ring-down analysis, and "
                    "helium-3 concentration fitting.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON run configuration")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("damping-curve", parents=[common],
                       help="per-channel decay times versus temperature")
    p.add_argument("--svg", action="store_true", help="also write a plot")

    p = sub.add_parser("detection-sweep", parents=[common],
                       help="inductance, resonance, and voltage versus "
                            "sphere position")
    p.add_argument("--svg", action="store_true", help="also write a plot")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the sweep with the field solver")

    p = sub.add_parser("ringdown", parents=[common],
                       help="synthesize or analyze ring-down blocks")
    p.add_argument("action", choices=("simulate", "analyze"))
    p.add_argument("--blocks", type=Path, default=None,
                   help="block directory (default OUT/blocks)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured random seed")

    p = sub.add_parser("fit-he3", parents=[common],
                       help="fit the helium-3 concentration to tau(T) data")
    p.add_argument("--data", type=Path, required=True,
                   help="CSV of T_K,tau_s[,sigma_tau_s]")

    sub.add_parser("sensitivity", parents=[common],
                   help="noise floor, drag force, linewidth, T/tau")
    return parser


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_config(path: Path | None) -> tuple[dict, bytes]:
    """The checked config with every default filled in, and its bytes."""
    try:
        blob = b"{}" if path is None else path.read_bytes()
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the path
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _parse_config(blob, path), blob


def _parse_config(blob: bytes, source: Path | None) -> dict:
    """The config in ``blob`` checked against CONFIG_TABLE and SIZE_CAPS,
    with every default filled in."""
    cfg = read_keys(CONFIG_TABLE, read_json(blob, "config", source))
    for name, cap in SIZE_CAPS.items():
        section, key = name.split(".")
        if cfg[section][key] > cap:
            raise ConfigError(
                f"{name}: at most {cap}, got {cfg[section][key]!r}")
    return cfg


def _require_positive(cfg: dict, section: str, *keys: str) -> None:
    """Keys that the models or numpy need above zero; null passes."""
    for key in keys:
        value = cfg[section][key]
        if value is not None and not value > 0:
            raise ConfigError(
                f"{section}.{key} must be positive, got {value!r}")


def _osc_from_config(cfg: dict) -> damping.OscillatorSpec:
    sec = cfg["oscillator"]
    try:
        return damping.OscillatorSpec(
            mass=sec["mass_kg"], radius_warm=sec["radius_warm_m"],
            contraction_fraction=sec["contraction_fraction"],
            resonant_frequency=sec["resonant_frequency_Hz"])
    except ValueError as exc:
        raise ConfigError(f"oscillator config: {exc}") from exc


def _blocks_dir(args) -> Path:
    return args.blocks if args.blocks is not None else args.out / "blocks"


def _block_files(blocks_dir: Path, suffix: str) -> dict[int, Path]:
    """``block_NNNNNN.<suffix>`` files by block index, in index order."""
    files = {}
    for path in blocks_dir.glob(f"block_*.{suffix}"):
        digits = path.name[len("block_"):-len(suffix) - 1]
        if not (digits.isdecimal()
                and path.name == f"block_{int(digits):06d}.{suffix}"):
            raise ConfigError(f"block file {path.name!r} is not named "
                              f"block_NNNNNN.{suffix} by its block index")
        files[int(digits)] = path
    return dict(sorted(files.items()))


def _read_inputs(args, cfg: dict) -> tuple[dict, dict[str, str]]:
    """The parsed inputs of this command (``media``, ``geometry``,
    ``series`` or ``blocks`` by index) and the sha256 of each file's
    bytes by manifest name. Each file is read once, and a file that
    cannot be read is a :class:`DataError` naming it."""
    digests: dict[str, str] = {}

    def parse(name: str, path: Path, parser, *extra):
        try:
            data = path.read_bytes()
        except (OSError, ValueError) as exc:   # ValueError: a NUL in a path
            raise DataError(f"cannot read {path}: {exc}") from exc
        digests[name] = _sha256(data)
        return parser(data, path, *extra)

    config_dir = args.config.parent if args.config is not None else Path(".")
    inputs = {}
    if args.command in ("damping-curve", "fit-he3", "sensitivity"):
        overrides, viscosity = {}, media.DEFAULT_VISCOSITY_TABLE
        if cfg["media_overrides"] is not None:
            path = config_dir / cfg["media_overrides"]
            overrides = parse("media_overrides", path,
                              media.load_property_overrides)
            if overrides["viscosity_csv"] is not None:
                viscosity = parse("viscosity_csv", path.parent
                                  / overrides["viscosity_csv"],
                                  media.ViscosityTable.from_csv)
        inputs["media"] = media.media_from_overrides(overrides, viscosity)
    if args.command == "detection-sweep":
        ref = cfg["detection"]["geometry"]
        inputs["geometry"] = detection.coaxial_geometry() if ref is None \
            else parse("geometry", config_dir / ref, detection.load_geometry)
    if args.command == "fit-he3":
        inputs["series"] = parse("data", args.data,
                                 fitting.load_tau_series_csv)
    if args.command == "ringdown" and args.action == "analyze":
        blocks_dir = _blocks_dir(args)
        bins = _block_files(blocks_dir, "rngd")
        csvs = _block_files(blocks_dir, "csv")
        if bins and csvs:
            raise ConfigError(f"{blocks_dir} holds both .rngd and .csv "
                              "blocks; analyze one format at a time")
        if not (bins or csvs):
            raise DataError(f"no block files found in {blocks_dir}")
        # a binary frame carries no start time; the block index gives it
        interval = cfg["ringdown"]["block_interval_s"]
        inputs["blocks"] = {
            k: parse(f"block:{path.name}", path, rd.read_block_bin,
                     k * interval)
            if bins else parse(f"block:{path.name}", path, rd.read_block_csv)
            for k, path in (bins or csvs).items()}
    return inputs, digests


def _manifest_core(args, config_blob: bytes, digests: dict[str, str]) -> dict:
    config_sha256 = _sha256(config_blob)
    if args.config is not None:
        digests = dict(digests, config=config_sha256)
    core = {"tool_version": __version__, "command": args.command,
            "config_sha256": config_sha256, "input_sha256": digests,
            "seed": getattr(args, "seed", None)}
    blob = json.dumps(core, sort_keys=True).encode()
    core["manifest_hash"] = _sha256(blob)[:16]
    return core


def _write_manifest(out_dir: Path, core: dict, status: str,
                    outputs: list[str], wall_clock: float) -> None:
    record = dict(core, status=status, outputs=sorted(outputs),
                  wall_clock_s=wall_clock)
    (out_dir / "manifest.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n")


def _json_out(args, name: str, obj: dict) -> str:
    """Write ``obj`` with the run hash as ``name`` in --out; ``name``."""
    core = args._manifest
    obj = dict(obj, manifest_hash=core["manifest_hash"])
    # records that already state an effective seed keep it; the manifest
    # seed is only the command-line override (None means "from config")
    obj.setdefault("seed", core["seed"])
    (args.out / name).write_text(json.dumps(obj, sort_keys=True, indent=2)
                                 + "\n")
    return name


def _csv_comment(args) -> str:
    core = args._manifest
    return f"manifest {core['manifest_hash']} seed {core['seed']}"


def _csv_out(args, name: str, writer, *data, **options) -> str:
    """Write ``data`` by ``writer`` as ``name`` in --out; ``name``."""
    with open(args.out / name, "w") as fh:
        writer(*data, fh, header_comment=_csv_comment(args), **options)
    return name


def _cmd_damping_curve(args, cfg: dict, inputs: dict) -> list[str]:
    sec = cfg["damping"]
    _require_positive(cfg, "damping", "points", "T_min_K", "tau_vacuum_s")
    if not sec["T_min_K"] < sec["T_max_K"]:
        raise ConfigError("need damping.T_min_K < damping.T_max_K")
    osc = _osc_from_config(cfg)
    med = inputs["media"]
    space = np.geomspace if sec["grid"] == "log" else np.linspace
    grid = space(sec["T_min_K"], sec["T_max_K"], sec["points"])
    x3, tau_vac = sec["x3"], sec["tau_vacuum_s"]
    mode = damping.RegimeMode(sec["mode"])
    n3 = x3 * med.n4
    table = damping.damping_table(osc, med, grid, n3, mode, tau_vac)

    outputs = [_csv_out(args, "damping_curve.csv", damping.write_damping_csv,
                        table)]
    meta = damping.damping_metadata(osc, med, n3, mode, tau_vac)
    meta["x3"] = x3
    outputs.append(_json_out(args, "damping_metadata.json", meta))
    if args.svg:
        svg_path = args.out / "damping_curve.svg"
        svg_path.write_text(_damping_svg(table, _csv_comment(args)))
        outputs.append(svg_path.name)
    return outputs


def _damping_svg(table: damping.DampingTable, comment: str) -> str:
    T = table.T.tolist()

    def channel(name):
        tau = getattr(table, name)
        return np.where(np.isfinite(tau), tau, np.nan).tolist()

    series = [Series(T, channel("tau_total"), "total", color="#000000")]
    labels = {"tau_hydr": "hydrodynamic", "tau_ph": "phonon",
              "tau_rot": "roton", "tau_imp": "impurity",
              "tau_vacuum": "vacuum"}
    for name, label in labels.items():
        series.append(Series(T, channel(name), label, dashed=True))
    return line_plot_svg(series, "T (K)", "tau (s)",
                         title="decay time versus temperature",
                         log_x=True, log_y=True, comment=comment)


def _cmd_detection_sweep(args, cfg: dict, inputs: dict) -> list[str]:
    sec = cfg["detection"]
    _require_positive(cfg, "detection", "sweep_points", "sphere_radius_m")
    n = sec["oracle_grid"]
    if args.oracle and n < axisym.MIN_GRID:
        raise ConfigError(f"detection.oracle_grid: grid must be at least "
                          f"{axisym.MIN_GRID} x {axisym.MIN_GRID}")
    geom = inputs["geometry"]
    receiver = geom.receivers[0]
    radius = sec["sphere_radius_m"]
    # an overflowing span gives centers that are not finite: rejected
    with np.errstate(over="ignore", invalid="ignore"):
        positions = np.linspace(sec["sweep_start_m"], sec["sweep_stop_m"],
                                sec["sweep_points"])
        centers = receiver.center_v + np.outer(positions, receiver.axis_v)
    result = detection.position_sweep(geom, centers, radius,
                                      driven=sec["driven"])

    oracle_col = (axisym.oracle_sweep(geom, centers, radius, n)
                  if args.oracle else None)

    outputs = [_csv_out(args, "detection_sweep.csv", detection.write_sweep_csv,
                        result, oracle_delta_L=oracle_col)]
    if args.svg:
        svg_path = args.out / "detection_sweep.svg"
        svg_path.write_text(line_plot_svg(
            [Series(result.position.tolist(),
                    np.abs(result.delta_L).tolist(), "|delta L|")],
            "position (m)", "|delta L| (H)",
            title="inductance shift versus sphere position", log_y=True,
            comment=_csv_comment(args)))
        outputs.append(svg_path.name)
    return outputs


def _cmd_ringdown(args, cfg: dict, inputs: dict) -> list[str]:
    sec = cfg["ringdown"]
    try:
        params = rd.RingdownParams(
            amplitude0=sec["amplitude0"], f0=sec["f0_Hz"], tau=sec["tau_s"],
            phase0=sec["phase0_rad"], noise_rms=sec["noise_rms"],
            seed=sec["seed"] if args.seed is None else args.seed)
        schedule = rd.BlockSchedule(
            sample_rate=sec["sample_rate_Hz"],
            total_duration=sec["total_duration_s"],
            block_length=sec["block_length_s"],
            block_interval=sec["block_interval_s"])
    except ValueError as exc:
        raise ConfigError(f"ringdown config: {exc}") from exc
    outputs = []
    if args.action == "simulate":
        blocks_dir = _blocks_dir(args)
        blocks_dir.mkdir(parents=True, exist_ok=True)
        blocks = rd.synthesize_ringdown(params, schedule)
        for k, block in enumerate(blocks):
            if sec["format"] == "bin":
                path = blocks_dir / f"block_{k:06d}.rngd"
                rd.write_block_bin(block, path)
            else:
                path = blocks_dir / f"block_{k:06d}.csv"
                with open(path, "w") as fh:
                    rd.write_block_csv(block, fh,
                                       header_comment=_csv_comment(args))
            outputs.append(str(path))
        truth = dict(sec, seed=params.seed, n_blocks=len(blocks))
        outputs.append(_json_out(args, "ringdown_truth.json", truth))
        return outputs

    blocks = inputs["blocks"]
    series, fit = rd.analyze_ringdown(list(blocks.values()), schedule,
                                      params.f0)
    outputs.append(_csv_out(args, "amplitude_series.csv",
                            rd.write_series_csv, series))
    record = rd.decay_fit_dict(fit)
    record["missing_block_indices"] = sorted(
        set(range(schedule.n_blocks)) - set(blocks))
    outputs.append(_json_out(args, "decay_fit.json", record))
    return outputs


def _cmd_fit_he3(args, cfg: dict, inputs: dict) -> list[str]:
    sec = cfg["fit"]
    _require_positive(cfg, "fit", "tau_vacuum_s", "predict_T_min_K",
                      "predict_T_max_K", "predict_points")
    osc = _osc_from_config(cfg)
    med, series = inputs["media"], inputs["series"]
    mode = damping.RegimeMode(sec["mode"])
    tau_vac = sec["tau_vacuum_s"]
    fit = fitting.fit_he3_concentration(
        series, osc, med, bracket=sec["bracket_per_m3"], mode=mode,
        tau_vacuum=tau_vac, fit_vacuum=sec["fit_vacuum"])

    outputs = [_json_out(args, "he3_fit.json",
                         fitting.concentration_fit_dict(fit))]
    vac_used = fit.fitted_tau_vacuum \
        if fit.fitted_tau_vacuum is not None else tau_vac
    residuals = fitting.model_residuals(series, osc, med, fit.n3, mode,
                                        vac_used)
    outputs.append(_csv_out(args, "he3_residuals.csv",
                            fitting.write_residuals_csv, series, residuals))

    added = sec["added_x3"]
    if added > 0.0:
        grid = np.geomspace(sec["predict_T_min_K"], sec["predict_T_max_K"],
                            sec["predict_points"]).tolist()
        base, contam = fitting.predict_contamination(fit.x3, added, osc,
                                                     med, grid, mode)
        pred_path = args.out / "contamination_prediction.csv"
        with open(pred_path, "w") as fh:
            write_csv(fh, [_csv_comment(args)],
                      ["T_K", "tau_s", "tau_contaminated_s", "ratio"],
                      [base.T, base.tau_total, contam.tau_total,
                       contam.tau_total / base.tau_total])
        outputs.append(pred_path.name)
    return outputs


def _cmd_sensitivity(args, cfg: dict, inputs: dict) -> list[str]:
    sec = cfg["sensitivity"]
    osc = _osc_from_config(cfg)
    med = inputs["media"]
    report = damping.sensitivity_report(osc, sec["temperature_K"],
                                        sec["tau_s"], sec["velocity_m_s"],
                                        med.constants)
    return [_json_out(args, "sensitivity.json", {
        "S_F_N2_per_Hz": report.S_F, "F_D_N": report.F_D,
        "T_over_tau_K_per_s": report.T_over_tau,
        "linewidth_Hz": report.linewidth, **sec})]


_DISPATCH = {
    "damping-curve": _cmd_damping_curve,
    "detection-sweep": _cmd_detection_sweep,
    "ringdown": _cmd_ringdown,
    "fit-he3": _cmd_fit_he3,
    "sensitivity": _cmd_sensitivity,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg, blob = _load_config(args.config)
        inputs, digests = _read_inputs(args, cfg)
        args._manifest = _manifest_core(args, blob, digests)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {args.out}: {exc}") from exc
        outputs = _DISPATCH[args.command](args, cfg, inputs)
        _write_manifest(args.out, args._manifest, "ok", outputs,
                        time.monotonic() - started)
        return 0
    except ConfigError as exc:
        print(f"levosc: config error: {exc}", file=sys.stderr)
        return 2
    except (LevoscError, ValueError, ArithmeticError) as exc:
        # a bare ValueError or ArithmeticError comes from a model's numerics
        print(f"levosc: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("levosc: input too large for available memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
