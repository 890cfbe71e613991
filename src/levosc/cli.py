"""Command-line surface: batch runs binding all the models together.

Subcommands: damping-curve, detection-sweep, ringdown simulate|analyze,
fit-he3, sensitivity. Every invocation writes a run manifest with a
content hash over the configuration, input files, and seed; every
output file references that hash, so a directory of results is
traceable to the exact inputs that produced it. A run first deletes the
manifest of an earlier run in ``--out``, and writes its own only on
success.

Every config input is declared once, in CONFIG_TABLE, and read by
:func:`levosc.formats.read_keys` before any compute: unknown sections
and keys, values of the wrong JSON type and sizes past SIZE_CAPS exit 2
naming ``section.key``. The ``media`` section is
:data:`levosc.media.MEDIA_TABLE`, the medium's constants; a value that
:class:`levosc.media.HeliumMedia` refuses also exits 2.

Every command runs in one order: it checks its config values, reads its
input files through :meth:`_Run.read`, then :meth:`_Run.start` fixes the
run hash and creates ``--out``, and it computes and writes. So neither a
config value it refuses nor an input file it cannot read or parse
creates ``--out``. Each file is read once, the config by
:func:`_load_config`: the manifest digests the bytes that are parsed.
File references (``detection.geometry``, ``media.viscosity_csv``)
resolve against the config file's directory. ``ringdown analyze`` hands
:func:`levosc.ringdown.measure_blocks` a loader that reads
``block_NNNNNN.rngd`` k at k times ``block_interval_s``, which a version
2 header must repeat, and checks it against the schedule: the first
fault by block index wins.

:class:`_Run` also writes every file: it stamps each output with the run
hash, dumps every JSON record by one ``json.dumps``, and lists each
output in the manifest by its path relative to ``--out``.

Exit codes: 0 success, 2 usage or configuration problems (an input too
large for the available memory, or an output that cannot be written,
among them), 3 physics, geometry, or data problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, axisym, damping, detection, fitting, media
from . import ringdown as rd
from .errors import ConfigError, DataError, LevoscError
from .formats import read_json, read_keys
from .svgplot import Series, line_plot_svg

__all__ = ["main", "build_parser", "CONFIG_TABLE", "SIZE_CAPS"]

_MODES = tuple(mode.value for mode in damping.RegimeMode)

# Every config input: section -> key -> (JSON type, default); a tuple
# type lists the strings allowed.
CONFIG_TABLE = {
    "oscillator": {
        "mass_kg": ("number", 6.33e-6), "radius_warm_m": ("number", 1.00e-3),
        "contraction_fraction": ("number", 0.015),
        "resonant_frequency_Hz": ("number", 2.7)},
    "media": media.MEDIA_TABLE,
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
        "format": (("bin",), "bin")},
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
# memory of a whole run at the cap, from tracemalloc on numpy 2: a
# damping row (its channel columns) takes about 110 B, a sweep pose (its
# columns and field arrays) about 300 B, a prediction row (two damping
# tables) about 200 B, and one node of the field solver about 140 B (the
# two dense pencil eigenbases, n^2 each, and some 15 grid-sized arrays).
# The CSV text adds a few MB at most: write_csv formats a chunk of rows
# at a time.
SIZE_CAPS = {
    "damping.points": 10**5,            # about 11 MB
    "detection.sweep_points": 10**5,    # about 30 MB
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
                   help="CSV of T_K,tau_s[,sigma_tau_s]; sigma_tau_s "
                        "is checked but not yet used as a weight")

    sub.add_parser("sensitivity", parents=[common],
                   help="noise floor, drag force, linewidth, T/tau")
    return parser


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


def _require_superfluid(cfg: dict, section: str, key: str) -> None:
    """A highest temperature that stays below the superfluid transition."""
    reason = media.above_lambda(cfg[section][key])
    if reason is not None:
        raise ConfigError(f"{section}.{key}: {reason}")


def _osc_from_config(cfg: dict) -> damping.OscillatorSpec:
    sec = cfg["oscillator"]
    try:
        return damping.OscillatorSpec(
            mass=sec["mass_kg"], radius_warm=sec["radius_warm_m"],
            contraction_fraction=sec["contraction_fraction"],
            resonant_frequency=sec["resonant_frequency_Hz"])
    except ValueError as exc:
        raise ConfigError(f"oscillator config: {exc}") from exc


def _block_files(blocks_dir: Path) -> dict[int, Path]:
    """``block_NNNNNN.rngd`` files by block index, in index order."""
    files = {}
    for path in blocks_dir.glob("block_*.rngd"):
        digits = path.name[len("block_"):-len(".rngd")]
        if not (digits.isdecimal()
                and path.name == f"block_{int(digits):06d}.rngd"):
            raise ConfigError(f"block file {path.name!r} is not named "
                              "block_NNNNNN.rngd by its block index")
        files[int(digits)] = path
    return dict(sorted(files.items()))


def _remove_manifest(out: Path) -> None:
    """Delete an earlier run's ``manifest.json`` from ``out``, so that a
    run that fails leaves none behind. An absent file, an ``out`` that is
    absent or not a directory and a NUL in the path leave nothing to
    remove: the later steps report them. Any other failure exits 2."""
    path = out / "manifest.json"
    try:
        path.unlink()
    except (FileNotFoundError, NotADirectoryError, ValueError):
        pass
    except OSError as exc:
        raise ConfigError(f"cannot remove {path}: {exc}") from exc


def _mkdir(path: Path, what: str) -> None:
    """Create directory ``path``; a failure is an exit 2 naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the path
        raise ConfigError(f"cannot create {what} {path}: {exc}") from exc


class _Run:
    """Every file of a run but the config is read and written here.
    ``read`` parses an input file and digests its bytes; ``start`` fixes
    the run hash over them and creates ``--out``. JSON records carry the
    run hash and seed, CSVs and SVGs a ``manifest ... seed ...`` comment.
    The ``write_*`` methods list each file in the manifest, by its path
    relative to ``--out``; ``save`` lists nothing."""

    def __init__(self, args, config_blob: bytes):
        config_sha256 = hashlib.sha256(config_blob).hexdigest()
        digests = {} if args.config is None else {"config": config_sha256}
        self.core = {"tool_version": __version__, "command": args.command,
                     "config_sha256": config_sha256, "input_sha256": digests,
                     "seed": getattr(args, "seed", None)}
        self.config_dir = args.config.parent if args.config else Path(".")
        self.out, self.outputs = args.out, []

    def read(self, name: str, path: Path, parser, *extra):
        """``parser(data, path, *extra)`` of the bytes of ``path``, whose
        sha256 the manifest lists as ``name``. A file that cannot be read
        is a DataError."""
        try:
            data = path.read_bytes()
        except (OSError, ValueError) as exc:   # ValueError: a NUL in a path
            raise DataError(f"cannot read {path}: {exc}") from exc
        self.core["input_sha256"][name] = hashlib.sha256(data).hexdigest()
        return parser(data, path, *extra)

    def start(self) -> None:
        """Fix the run hash over the config and the files read so far,
        then create ``--out``."""
        core = self.core
        core["manifest_hash"] = hashlib.sha256(
            json.dumps(core, sort_keys=True).encode()).hexdigest()[:16]
        self.comment = f"manifest {core['manifest_hash']} seed {core['seed']}"
        _mkdir(self.out, "output directory")

    def save(self, path: Path, write) -> None:
        """``write(path)``; an OSError is an exit 2 naming ``path``."""
        try:
            write(path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc

    def write_csv(self, name: str, writer, *data, **options) -> None:
        def write(path):
            with open(path, "w") as fh:
                writer(*data, fh, header_comment=self.comment, **options)
        self.save(self.out / name, write)
        self.outputs.append(name)

    def write_text(self, name: str, text: str) -> None:
        self.save(self.out / name, lambda path: path.write_text(text))
        self.outputs.append(name)

    def write_json(self, name: str, record: dict) -> None:
        record = dict(record, manifest_hash=self.core["manifest_hash"])
        # records that already state an effective seed keep it; the manifest
        # seed is only the command-line override (None means "from config")
        record.setdefault("seed", self.core["seed"])
        self.write_text(name, self._dumps(name, record))

    def _dumps(self, name: str, record: dict) -> str:
        """The one JSON dump; a number that is not finite exits 3."""
        try:
            return json.dumps(record, sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
        except ValueError:
            key = next(key for key in sorted(record)
                       if not _finite(record[key]))
            raise DataError(f"cannot write {self.out / name}: {key} is not "
                            "finite") from None

    def finish(self, wall_clock: float) -> None:
        """Write manifest.json, which lists every output but itself."""
        text = self._dumps("manifest.json", dict(
            self.core, status="ok", outputs=sorted(self.outputs),
            wall_clock_s=wall_clock))
        self.save(self.out / "manifest.json", lambda p: p.write_text(text))


def _finite(value) -> bool:
    """Whether every number in ``value`` is finite, as JSON needs."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _media(cfg: dict, run: _Run) -> media.HeliumMedia:
    """The medium of the ``media`` section: its numbers are checked
    before the viscosity table it names is read."""
    numbers = dict(cfg["media"])
    ref = numbers.pop("viscosity_csv")
    try:
        med = media.HeliumMedia(**numbers)
    except ValueError as exc:
        raise ConfigError(f"media.{exc}") from exc
    if ref is None:
        return med
    return dataclasses.replace(med, viscosity=run.read(
        "viscosity_csv", run.config_dir / ref, media.ViscosityTable.from_csv))


def _cmd_damping_curve(args, cfg: dict, run: _Run) -> None:
    sec = cfg["damping"]
    _require_positive(cfg, "damping", "points", "T_min_K", "tau_vacuum_s")
    _require_superfluid(cfg, "damping", "T_max_K")
    if not sec["T_min_K"] < sec["T_max_K"]:
        raise ConfigError("need damping.T_min_K < damping.T_max_K")
    osc = _osc_from_config(cfg)
    med = _media(cfg, run)
    run.start()
    space = np.geomspace if sec["grid"] == "log" else np.linspace
    grid = space(sec["T_min_K"], sec["T_max_K"], sec["points"])
    x3, tau_vac = sec["x3"], sec["tau_vacuum_s"]
    mode = damping.RegimeMode(sec["mode"])
    n3 = x3 * med.n4
    table = damping.damping_table(osc, med, grid, n3, mode, tau_vac)

    run.write_csv("damping_curve.csv", damping.write_damping_csv, table)
    meta = damping.damping_metadata(osc, med, n3, mode, tau_vac)
    meta["x3"] = x3
    run.write_json("damping_metadata.json", meta)
    if args.svg:
        run.write_text("damping_curve.svg", _damping_svg(table, run.comment))


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


def _cmd_detection_sweep(args, cfg: dict, run: _Run) -> None:
    sec = cfg["detection"]
    _require_positive(cfg, "detection", "sweep_points", "sphere_radius_m")
    n = sec["oracle_grid"]
    if args.oracle and n < axisym.MIN_GRID:
        raise ConfigError(f"detection.oracle_grid: grid must be at least "
                          f"{axisym.MIN_GRID} x {axisym.MIN_GRID}")
    # an overflowing span gives positions and centers that are not
    # finite: the sweep rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        positions = np.linspace(sec["sweep_start_m"], sec["sweep_stop_m"],
                                sec["sweep_points"])
        if np.any(np.diff(positions) == 0):
            raise ConfigError(
                "detection.sweep_start_m, detection.sweep_stop_m and "
                "detection.sweep_points put two sweep positions at the "
                "same place")
    ref = sec["geometry"]
    geom = detection.coaxial_geometry() if ref is None else run.read(
        "geometry", run.config_dir / ref, detection.load_geometry)
    if len(geom.receivers) > 1:    # the sweep reads receiver 0 alone
        raise ConfigError(f"bad geometry file {run.config_dir / ref}: "
                          "receivers: detection-sweep sweeps one receiver, "
                          f"the file has {len(geom.receivers)}")
    run.start()
    receiver = geom.receivers[0]
    radius = sec["sphere_radius_m"]
    with np.errstate(over="ignore", invalid="ignore"):
        centers = receiver.center_v + np.outer(positions, receiver.axis_v)
    result = detection.position_sweep(geom, centers, radius,
                                      driven=sec["driven"])

    oracle_col = (axisym.oracle_sweep(geom, centers, radius, n)
                  if args.oracle else None)

    run.write_csv("detection_sweep.csv", detection.write_sweep_csv, result,
                  oracle_delta_L=oracle_col)
    if args.svg:
        try:
            svg = line_plot_svg(
                [Series(result.position.tolist(),
                        np.abs(result.delta_L).tolist(), "|delta L|")],
                "position (m)", "|delta L| (H)",
                title="inductance shift versus sphere position",
                log_y=True, comment=run.comment)
        except ValueError as exc:   # no row has a finite, nonzero delta L
            first = "".join(f"; row {i} error: {text}"
                            for i, text in result.errors[:1])
            raise DataError(
                f"cannot plot detection_sweep.svg: {exc}{first}") from exc
        run.write_text("detection_sweep.svg", svg)


def _cmd_ringdown(args, cfg: dict, run: _Run) -> None:
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
    blocks_dir = args.blocks or args.out / "blocks"
    if args.action == "simulate":
        run.start()
        _mkdir(blocks_dir, "block directory")
        listed = Path(os.path.relpath(blocks_dir.resolve(), run.out.resolve()))

        def write(k):   # on either thread of rd.map_blocks: no shared state
            block = rd.synthesize_block(params, schedule, k)
            path = blocks_dir / f"block_{k:06d}.rngd"
            run.save(path, functools.partial(rd.write_block_bin, block))
            return str(listed / path.name)

        run.outputs += rd.map_blocks(write, range(schedule.n_blocks))
        run.write_json("ringdown_truth.json",
                       dict(sec, seed=params.seed, n_blocks=schedule.n_blocks))
        return

    files = _block_files(blocks_dir)
    if not files:
        raise DataError(f"no block files found in {blocks_dir}")

    # block k starts at k intervals: a v2 header that disagrees, or a
    # block that does not fit the schedule, exits 3
    def load(k):    # on either thread; each adds its own digest key
        return schedule.check(run.read(
            f"block:{files[k].name}", files[k], rd.read_block_bin,
            k * schedule.block_interval))

    series = rd.measure_blocks(load, list(files), params.f0)
    run.start()
    fit = rd.fit_decay(series)
    run.write_csv("amplitude_series.csv", rd.write_series_csv, series)
    record = rd.decay_fit_dict(fit)
    record["missing_block_indices"] = sorted(
        set(range(schedule.n_blocks)) - set(files))
    run.write_json("decay_fit.json", record)


def _cmd_fit_he3(args, cfg: dict, run: _Run) -> None:
    sec = cfg["fit"]
    _require_positive(cfg, "fit", "tau_vacuum_s", "predict_T_min_K",
                      "predict_T_max_K", "predict_points")
    _require_superfluid(cfg, "fit", "predict_T_max_K")
    if not sec["predict_T_min_K"] < sec["predict_T_max_K"]:
        raise ConfigError("need fit.predict_T_min_K < fit.predict_T_max_K")
    if sec["added_x3"] < 0:
        raise ConfigError(f"fit.added_x3 must be non-negative, got "
                          f"{sec['added_x3']!r}")
    osc = _osc_from_config(cfg)
    med = _media(cfg, run)
    series = run.read("data", args.data, fitting.load_tau_series_csv)
    run.start()
    mode = damping.RegimeMode(sec["mode"])
    tau_vac = sec["tau_vacuum_s"]
    fit = fitting.fit_he3_concentration(
        series, osc, med, bracket=sec["bracket_per_m3"], mode=mode,
        tau_vacuum=tau_vac, fit_vacuum=sec["fit_vacuum"])

    run.write_json("he3_fit.json", fitting.concentration_fit_dict(fit))
    vac_used = fit.fitted_tau_vacuum \
        if fit.fitted_tau_vacuum is not None else tau_vac
    residuals = fitting.model_residuals(series, osc, med, fit.n3, mode,
                                        vac_used)
    run.write_csv("he3_residuals.csv", fitting.write_residuals_csv, series,
                  residuals)

    added = sec["added_x3"]
    if added > 0.0:
        grid = np.geomspace(sec["predict_T_min_K"], sec["predict_T_max_K"],
                            sec["predict_points"]).tolist()
        base, contam = fitting.predict_contamination(fit.x3, added, osc,
                                                     med, grid, mode)
        run.write_csv("contamination_prediction.csv",
                      fitting.write_contamination_csv, base, contam)


def _cmd_sensitivity(args, cfg: dict, run: _Run) -> None:
    sec = cfg["sensitivity"]
    osc = _osc_from_config(cfg)
    med = _media(cfg, run)
    run.start()
    T, tau = sec["temperature_K"], sec["tau_s"]
    run.write_json("sensitivity.json", {
        "S_F_N2_per_Hz": damping.noise_density(osc, T, tau, med),
        "F_D_N": damping.drag_force(osc, tau, sec["velocity_m_s"]),
        "T_over_tau_K_per_s": T / tau, "linewidth_Hz": damping.linewidth(tau),
        **sec})


_DISPATCH = {
    "damping-curve": _cmd_damping_curve,
    "detection-sweep": _cmd_detection_sweep,
    "ringdown": _cmd_ringdown,
    "fit-he3": _cmd_fit_he3,
    "sensitivity": _cmd_sensitivity,
}


# parse_args keeps no state in the parser, so one serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        _remove_manifest(args.out)
        cfg, blob = _load_config(args.config)
        run = _Run(args, blob)
        _DISPATCH[args.command](args, cfg, run)
        run.finish(time.monotonic() - started)
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
