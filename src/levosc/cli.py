"""Command-line surface: batch runs binding all the models together.

Subcommands: damping-curve, detection-sweep, ringdown simulate|analyze,
fit-he3, sensitivity. Every invocation writes a run manifest with a
content hash over the configuration, input files, and seed; every
output file references that hash, so a directory of results is
traceable to the exact inputs that produced it.

Exit codes: 0 success, 2 usage or configuration problems, 3 physics,
geometry, or data problems.
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
from .errors import ConfigError, DataError, DomainError, LevoscError
from .svgplot import Series, line_plot_svg

__all__ = ["main", "build_parser"]

_DEFAULT_OSC = {"mass_kg": 6.33e-6, "radius_warm_m": 1.00e-3,
              "contraction_fraction": 0.015, "resonant_frequency_Hz": 2.7}


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
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    common.add_argument("--threads", type=int, default=1,
                        help="worker bound for sweep evaluation")
    common.add_argument("--oracle", action="store_true",
                        help="cross-check sweeps with the field solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("damping-curve", parents=[common],
                       help="per-channel decay times versus temperature")
    p.add_argument("--svg", action="store_true", help="also write a plot")

    p = sub.add_parser("detection-sweep", parents=[common],
                       help="inductance, resonance, and voltage versus "
                            "sphere position")
    p.add_argument("--svg", action="store_true", help="also write a plot")

    p = sub.add_parser("ringdown", parents=[common],
                       help="synthesize or analyze ring-down blocks")
    p.add_argument("action", choices=("simulate", "analyze"))
    p.add_argument("--blocks", type=Path, default=None,
                   help="block directory (default OUT/blocks)")

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
    if path is None:
        return {}, b"{}"
    try:
        blob = path.read_bytes()
        cfg = json.loads(blob)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg, blob


def _section(cfg: dict, name: str, allowed: set[str]) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys in config section {name!r}: {sorted(unknown)}")
    return sec


def _osc_from_config(cfg: dict) -> damping.OscillatorSpec:
    sec = {**_DEFAULT_OSC, **_section(cfg, "oscillator", set(_DEFAULT_OSC))}
    try:
        return damping.OscillatorSpec(
            mass=float(sec["mass_kg"]),
            radius_warm=float(sec["radius_warm_m"]),
            contraction_fraction=float(sec["contraction_fraction"]),
            resonant_frequency=float(sec["resonant_frequency_Hz"]))
    except ValueError as exc:
        raise ConfigError(f"oscillator config: {exc}") from exc


def _config_dir(args) -> Path:
    return args.config.parent if args.config is not None else Path(".")


def _media_from_config(args, cfg: dict) -> media.HeliumMedia:
    ref = cfg.get("media_overrides")
    if ref is None:
        return media.default_media()
    overrides = media.load_property_overrides(_config_dir(args) / ref)
    return media.media_from_overrides(overrides)


def _geometry_from_config(args, cfg: dict) -> detection.DetectionGeometry:
    sec = _section(cfg, "detection", _DETECTION_KEYS)
    ref = sec.get("geometry")
    if ref is None:
        return detection.coaxial_geometry()
    return detection.load_geometry(_config_dir(args) / ref)


def _blocks_dir(args) -> Path:
    return args.blocks if args.blocks is not None else args.out / "blocks"


def _resolve_inputs(args, cfg: dict) -> dict[str, Path]:
    """Every file this invocation will read, for the manifest digest."""
    inputs: dict[str, Path] = {}
    if args.config is not None:
        inputs["config"] = args.config
    ref = cfg.get("media_overrides")
    if ref is not None and args.command in ("damping-curve", "fit-he3",
                                            "sensitivity"):
        inputs["media_overrides"] = _config_dir(args) / ref
    if args.command == "detection-sweep":
        sec = _section(cfg, "detection", _DETECTION_KEYS)
        if sec.get("geometry") is not None:
            inputs["geometry"] = _config_dir(args) / sec["geometry"]
    if args.command == "fit-he3":
        inputs["data"] = args.data
    if args.command == "ringdown" and args.action == "analyze":
        block_dir = _blocks_dir(args)
        for path in sorted(block_dir.glob("block_*.rngd")) \
                + sorted(block_dir.glob("block_*.csv")):
            inputs[f"block:{path.name}"] = path
    return inputs


def _tau_vacuum(sec: dict) -> float | None:
    value = sec.get("tau_vacuum_s", damping.DEFAULT_TAU_VACUUM)
    if value is None:
        return None
    try:
        tau = float(value)
    except (TypeError, ValueError):
        tau = None
    if tau is None or not tau > 0:
        raise ConfigError(
            f"tau_vacuum_s must be a positive number or null, got {value!r}")
    return tau


def _mode_from(sec: dict, key: str = "mode") -> damping.RegimeMode:
    name = sec.get(key, "ReciprocalSum")
    for mode in damping.RegimeMode:
        if mode.value == name:
            return mode
    raise ConfigError(f"unknown regime mode {name!r}")


def _manifest_core(command: str, config_blob: bytes,
                   inputs: dict[str, Path], seed: int | None) -> dict:
    digests = {}
    for name, path in sorted(inputs.items()):
        try:
            digests[name] = _sha256(Path(path).read_bytes())
        except OSError as exc:
            raise DataError(f"cannot digest input {path}: {exc}") from exc
    core = {"tool_version": __version__, "command": command,
            "config_sha256": _sha256(config_blob),
            "input_sha256": digests, "seed": seed}
    blob = json.dumps(core, sort_keys=True).encode()
    core["manifest_hash"] = _sha256(blob)[:16]
    return core


def _write_manifest(out_dir: Path, core: dict, status: str,
                    outputs: list[str], wall_clock: float) -> None:
    record = dict(core)
    record["status"] = status
    record["outputs"] = sorted(outputs)
    record["wall_clock_s"] = wall_clock
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _json_out(path: Path, obj: dict, core: dict) -> None:
    obj = dict(obj)
    obj["manifest_hash"] = core["manifest_hash"]
    # records that already state an effective seed keep it; the manifest
    # seed is only the command-line override (None means "from config")
    obj.setdefault("seed", core["seed"])
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv_comment(core: dict) -> str:
    return f"manifest {core['manifest_hash']} seed {core['seed']}"


_DAMPING_KEYS = {"T_min_K", "T_max_K", "points", "grid", "x3", "mode",
                 "tau_vacuum_s"}


def _cmd_damping_curve(args, cfg: dict) -> list[str]:
    sec = _section(cfg, "damping", _DAMPING_KEYS)
    osc = _osc_from_config(cfg)
    med = _media_from_config(args, cfg)
    t_lo = float(sec.get("T_min_K", 0.01))
    t_hi = float(sec.get("T_max_K", 2.1))
    points = int(sec.get("points", 50))
    if points < 1:
        raise ConfigError("damping.points must be at least 1")
    if not 0 < t_lo < t_hi:
        raise ConfigError("need 0 < T_min_K < T_max_K")
    kind = sec.get("grid", "log")
    if kind == "log":
        grid = np.geomspace(t_lo, t_hi, points)
    elif kind == "linear":
        grid = np.linspace(t_lo, t_hi, points)
    else:
        raise ConfigError(f"unknown grid kind {kind!r}")
    x3 = float(sec.get("x3", 0.0))
    tau_vac = _tau_vacuum(sec)
    mode = _mode_from(sec)
    n3 = x3 * med.n4
    table = damping.damping_table(osc, med, grid, n3, mode, tau_vac)

    core = args._manifest
    outputs = []
    out_csv = args.out / "damping_curve.csv"
    with open(out_csv, "w") as fh:
        damping.write_damping_csv(table, fh,
                                  header_comment=_csv_comment(core))
    outputs.append(out_csv.name)
    meta = damping.damping_metadata(osc, med, n3, mode, tau_vac)
    meta["x3"] = x3
    meta_path = args.out / "damping_metadata.json"
    _json_out(meta_path, meta, core)
    outputs.append(meta_path.name)
    if args.svg:
        svg_path = args.out / "damping_curve.svg"
        svg_path.write_text(_damping_svg(table, _csv_comment(core)))
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


_DETECTION_KEYS = {"geometry", "sweep_start_m", "sweep_stop_m",
                   "sweep_points", "sphere_radius_m", "driven",
                   "oracle_grid"}


def _oracle_grid(sec: dict) -> axisym.GridSpec:
    n = sec.get("oracle_grid", 128)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError(
            f"detection.oracle_grid must be an integer, got {n!r}")
    try:
        return axisym.GridSpec(n_rho=n, n_z=n)
    except ValueError as exc:
        raise ConfigError(f"detection.oracle_grid: {exc}") from exc


def _cmd_detection_sweep(args, cfg: dict) -> list[str]:
    sec = _section(cfg, "detection", _DETECTION_KEYS)
    geom = _geometry_from_config(args, cfg)
    start = float(sec.get("sweep_start_m", 0.019))
    stop = float(sec.get("sweep_stop_m", 0.002))
    points = int(sec.get("sweep_points", 18))
    if points < 1:
        raise ConfigError("detection.sweep_points must be at least 1")
    radius = float(sec.get("sphere_radius_m", 0.985e-3))
    if not radius > 0:
        raise ConfigError(
            f"detection.sphere_radius_m must be positive, got {radius!r}")
    driven = sec.get("driven", "transmitter")
    grid = _oracle_grid(sec) if args.oracle else None
    receiver = geom.receivers[0]
    positions = np.linspace(start, stop, points)
    poses = [detection.SpherePose(
        center=tuple(receiver.center_v + d * receiver.axis_v), radius=radius)
        for d in positions]
    result = detection.position_sweep(geom, poses, driven=driven)

    oracle_col = (axisym.oracle_sweep(geom, poses, grid, workers=args.threads)
                  if args.oracle else None)

    core = args._manifest
    outputs = []
    out_csv = args.out / "detection_sweep.csv"
    with open(out_csv, "w") as fh:
        detection.write_sweep_csv(result, fh,
                                  header_comment=_csv_comment(core),
                                  oracle_delta_L=oracle_col)
    outputs.append(out_csv.name)
    if args.svg:
        svg_path = args.out / "detection_sweep.svg"
        pos = [r.position for r in result.rows]
        svg_path.write_text(line_plot_svg(
            [Series(pos, [abs(r.delta_L) for r in result.rows],
                    "|delta L|")],
            "position (m)", "|delta L| (H)",
            title="inductance shift versus sphere position", log_y=True,
            comment=_csv_comment(core)))
        outputs.append(svg_path.name)
    return outputs


_RINGDOWN_KEYS = {"amplitude0", "f0_Hz", "phase0_rad", "tau_s", "noise_rms",
                  "seed", "sample_rate_Hz", "total_duration_s",
                  "block_length_s", "block_interval_s", "format"}


def _ringdown_config(cfg: dict, seed_override: int | None,
                     ) -> tuple[rd.RingdownParams, rd.BlockSchedule, str]:
    sec = _section(cfg, "ringdown", _RINGDOWN_KEYS)
    seed = seed_override if seed_override is not None \
        else int(sec.get("seed", 0))
    try:
        params = rd.RingdownParams(
            amplitude0=float(sec.get("amplitude0", 1.0)),
            f0=float(sec.get("f0_Hz", 2.7)),
            tau=float(sec.get("tau_s", 410400.0)),
            phase0=float(sec.get("phase0_rad", 0.0)),
            noise_rms=float(sec.get("noise_rms", 0.0)),
            seed=seed)
        schedule = rd.BlockSchedule(
            sample_rate=float(sec.get("sample_rate_Hz", 50.0)),
            total_duration=float(sec.get("total_duration_s", 432000.0)),
            block_length=float(sec.get("block_length_s", 300.0)),
            block_interval=float(sec.get("block_interval_s", 3600.0)))
    except ValueError as exc:
        raise ConfigError(f"ringdown config: {exc}") from exc
    fmt = sec.get("format", "bin")
    if fmt not in ("bin", "csv"):
        raise ConfigError(f"ringdown format must be bin or csv, got {fmt!r}")
    return params, schedule, fmt


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


def _cmd_ringdown(args, cfg: dict) -> list[str]:
    params, schedule, fmt = _ringdown_config(cfg, args.seed)
    blocks_dir = _blocks_dir(args)
    core = args._manifest
    outputs = []
    if args.action == "simulate":
        blocks_dir.mkdir(parents=True, exist_ok=True)
        blocks = rd.synthesize_ringdown(params, schedule)
        for k, block in enumerate(blocks):
            if fmt == "bin":
                path = blocks_dir / f"block_{k:06d}.rngd"
                rd.write_block_bin(block, path)
            else:
                path = blocks_dir / f"block_{k:06d}.csv"
                with open(path, "w") as fh:
                    rd.write_block_csv(block, fh,
                                       header_comment=_csv_comment(core))
            outputs.append(str(path))
        truth = {"amplitude0": params.amplitude0, "f0_Hz": params.f0,
                 "phase0_rad": params.phase0, "tau_s": params.tau,
                 "noise_rms": params.noise_rms, "seed": params.seed,
                 "sample_rate_Hz": schedule.sample_rate,
                 "total_duration_s": schedule.total_duration,
                 "block_length_s": schedule.block_length,
                 "block_interval_s": schedule.block_interval,
                 "format": fmt, "n_blocks": len(blocks)}
        truth_path = args.out / "ringdown_truth.json"
        _json_out(truth_path, truth, core)
        outputs.append(truth_path.name)
        return outputs

    bins = _block_files(blocks_dir, "rngd")
    files = bins or _block_files(blocks_dir, "csv")
    if not files:
        raise DataError(f"no block files found in {blocks_dir}")
    if bins:
        # a binary frame carries no start time; the block index gives it
        blocks = [rd.read_block_bin(path,
                                    start_time=k * schedule.block_interval)
                  for k, path in files.items()]
    else:
        blocks = [rd.read_block_csv(path) for path in files.values()]
    series, fit = rd.analyze_ringdown(blocks, schedule, params.f0)
    series_path = args.out / "amplitude_series.csv"
    with open(series_path, "w") as fh:
        rd.write_series_csv(series, fh, header_comment=_csv_comment(core))
    outputs.append(series_path.name)
    record = rd.decay_fit_dict(fit)
    record["missing_block_indices"] = sorted(
        set(range(len(schedule.block_starts()))) - set(files))
    fit_path = args.out / "decay_fit.json"
    _json_out(fit_path, record, core)
    outputs.append(fit_path.name)
    return outputs


_FIT_KEYS = {"bracket_per_m3", "mode", "tau_vacuum_s", "fit_vacuum",
             "added_x3", "predict_T_min_K", "predict_T_max_K",
             "predict_points"}


def _cmd_fit_he3(args, cfg: dict) -> list[str]:
    sec = _section(cfg, "fit", _FIT_KEYS)
    osc = _osc_from_config(cfg)
    med = _media_from_config(args, cfg)
    series = fitting.load_tau_series_csv(args.data)
    raw = sec.get("bracket_per_m3", [1e18, 1e23])
    try:
        bracket = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        bracket = ()
    if len(bracket) != 2:
        raise ConfigError(
            f"fit.bracket_per_m3 must be two numbers, got {raw!r}")
    mode = _mode_from(sec)
    tau_vac = _tau_vacuum(sec)
    fit = fitting.fit_he3_concentration(
        series, osc, med, bracket=bracket, mode=mode, tau_vacuum=tau_vac,
        fit_vacuum=bool(sec.get("fit_vacuum", False)))

    core = args._manifest
    outputs = []
    fit_path = args.out / "he3_fit.json"
    _json_out(fit_path, fitting.concentration_fit_dict(fit), core)
    outputs.append(fit_path.name)
    vac_used = fit.fitted_tau_vacuum \
        if fit.fitted_tau_vacuum is not None else tau_vac
    residuals = fitting.model_residuals(series, osc, med, fit.n3, mode,
                                        vac_used)
    res_path = args.out / "he3_residuals.csv"
    with open(res_path, "w") as fh:
        fitting.write_residuals_csv(series, residuals, fh,
                                    header_comment=_csv_comment(core))
    outputs.append(res_path.name)

    added = float(sec.get("added_x3", 0.0))
    if added > 0.0:
        t_lo = float(sec.get("predict_T_min_K", 0.015))
        t_hi = float(sec.get("predict_T_max_K", 0.7))
        pts = int(sec.get("predict_points", 40))
        grid = np.geomspace(t_lo, t_hi, pts).tolist()
        base, contam = fitting.predict_contamination(fit.x3, added, osc,
                                                     med, grid, mode)
        pred_path = args.out / "contamination_prediction.csv"
        with open(pred_path, "w") as fh:
            fh.write(f"# {_csv_comment(core)}\n")
            fh.write("T_K,tau_s,tau_contaminated_s,ratio\n")
            for (T, tau1), (_, tau2) in zip(base, contam):
                fh.write(f"{T!r},{tau1!r},{tau2!r},{tau2 / tau1!r}\n")
        outputs.append(pred_path.name)
    return outputs


_SENSITIVITY_KEYS = {"temperature_K", "tau_s", "velocity_m_s"}


def _cmd_sensitivity(args, cfg: dict) -> list[str]:
    sec = _section(cfg, "sensitivity", _SENSITIVITY_KEYS)
    osc = _osc_from_config(cfg)
    T = float(sec.get("temperature_K", 0.005))
    tau = float(sec.get("tau_s", damping.DEFAULT_TAU_VACUUM))
    velocity = float(sec.get("velocity_m_s", 1e-5))
    report = damping.sensitivity_report(osc, T, tau, velocity)
    core = args._manifest
    path = args.out / "sensitivity.json"
    _json_out(path, {"S_F_N2_per_Hz": report.S_F, "F_D_N": report.F_D,
                     "T_over_tau_K_per_s": report.T_over_tau,
                     "linewidth_Hz": report.linewidth,
                     "temperature_K": T, "tau_s": tau,
                     "velocity_m_s": velocity}, core)
    return [path.name]


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
        inputs = _resolve_inputs(args, cfg)
        args._manifest = _manifest_core(args.command, blob, inputs,
                                        args.seed)
        args.out.mkdir(parents=True, exist_ok=True)
        outputs = _DISPATCH[args.command](args, cfg)
        _write_manifest(args.out, args._manifest, "ok", outputs,
                        time.monotonic() - started)
        return 0
    except ConfigError as exc:
        print(f"levosc: config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"levosc: {exc}", file=sys.stderr)
        return 3
    except LevoscError as exc:
        print(f"levosc: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
