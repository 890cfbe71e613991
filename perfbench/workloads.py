"""The levosc benchmark workloads: inputs, CLI calls and output checks.

A workload is a list of CLI calls that makes one pass. Its inputs come
from a ``random.Random`` seeded with the workload seed, so one seed
always gives the same inputs. Each call is checked after it returns,
with the tolerances of ``tests/test_acceptance.py``; a check that does
not hold raises :class:`CheckFailed` and the call counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

X3_TRUE = 4.2e-8            # helium-3 fraction behind the generated data
ADDED_X3 = 1e-7
# Log-normal noise on the generated tau(T) rows. At 5 % the co-fitted
# vacuum channel scatters x3 by about 4 % (rms) and past the 10 %
# tolerance on several seeds in 60; at 1 % the worst of 60 seeds is 4 %.
# The fit does the same work at any noise level.
FIT_NOISE = 0.01
X3_TOL = 0.10               # criterion 08
COMPOSITE_SLACK = 1e-12     # DampingBreakdown's own allowance
ORACLE_AGREEMENT_MAX = 0.15  # criterion 09
# At noise_rms 1.2 (criterion 07) the fitted tau scatters by 0.9 % rms,
# so the 3 % tolerance fails about one seed in a thousand; at 0.5 the
# scatter is 0.3 %. Synthesis and analysis do the same work either way.
RINGDOWN_NOISE = 0.5
RINGDOWN_TAU = 410400.0
RINGDOWN_TAU_TOL = 0.03     # criterion 07
RINGDOWN_BLOCKS = 120       # the default schedule: 5 days, one block an hour


class CheckFailed(Exception):
    """An output that is missing or wrong."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check of what it wrote."""

    label: str                       # names the per-command timing
    argv: tuple[str, ...]
    out: Path
    check: Callable[[Path], None]


def _write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


def _read_json(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc
    _expect(isinstance(obj, dict), f"{path.name} is not a JSON object")
    return obj


def _read_csv(path: Path) -> list[dict[str, str]]:
    """Data rows; a ``# row N error`` comment fails the check."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc
    failed = [line for line in lines if line.startswith("# row ")]
    _expect(not failed, f"{path.name}: {len(failed)} failed rows")
    return list(csv.DictReader(line for line in lines
                               if not line.startswith("#")))


def _number(row: dict, column: str) -> float:
    try:
        return float(row[column])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"column {column!r}: {exc}") from exc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_manifest(out: Path) -> None:
    """``manifest.json`` says ``ok`` and every text output carries its
    hash. Binary ``.rngd`` blocks have no place for one."""
    manifest = _read_json(out / "manifest.json")
    _expect(manifest.get("status") == "ok",
            f"manifest status {manifest.get('status')!r}")
    digest = manifest.get("manifest_hash")
    _expect(isinstance(digest, str) and len(digest) == 16,
            "manifest has no 16-digit hash")
    for name in manifest.get("outputs", []):
        path = out / name
        try:
            if path.suffix == ".json":
                carried = json.loads(path.read_text()).get("manifest_hash")
                ok = carried == digest
            elif path.suffix == ".csv":
                with open(path) as fh:
                    ok = digest in fh.readline()
            elif path.suffix == ".svg":
                ok = digest in path.read_text()
            else:
                ok = path.is_file()
        except (OSError, ValueError, AttributeError) as exc:
            raise CheckFailed(f"cannot read output {name}: {exc}") from exc
        _expect(ok, f"output {path.name} does not carry hash {digest}")


def _damping_check(points: int) -> Callable[[Path], None]:
    channels = ("tau_hydr_s", "tau_ph_s", "tau_rot_s", "tau_imp_s",
                "tau_vac_s")

    def check(out: Path) -> None:
        rows = _read_csv(out / "damping_curve.csv")
        _expect(len(rows) == points,
                f"damping_curve.csv has {len(rows)} rows, asked {points}")
        for row in rows:
            present = [_number(row, c) for c in channels if row.get(c)]
            total = _number(row, "tau_total_s")
            _expect(bool(present) and total <= min(present)
                    * (1.0 + COMPOSITE_SLACK),
                    f"composite {total!r} exceeds fastest channel at "
                    f"T = {row.get('T_K')}")
    return check


def _svg_check(name: str) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        try:
            text = (out / name).read_text()
        except OSError as exc:
            raise CheckFailed(f"cannot read {name}: {exc}") from exc
        _expect(text.rstrip().endswith("</svg>"), f"{name} is not complete")
    return check


def _both(*checks: Callable[[Path], None]) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        for one in checks:
            one(out)
    return check


def _sweep_check(points: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rows = _read_csv(out / "detection_sweep.csv")
        _expect(len(rows) == points,
                f"detection_sweep.csv has {len(rows)} rows, asked {points}")
        for row in rows:
            _expect(math.isfinite(_number(row, "delta_L_H"))
                    and _number(row, "delta_L_H") < 0.0,
                    f"bad delta_L at position {row.get('position_m')}")
    return check


def _strictly_monotone(values: list[float]) -> bool:
    pairs = list(zip(values, values[1:]))
    return all(b > a for a, b in pairs) or all(b < a for a, b in pairs)


def _oracle_check(points: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        _sweep_check(points)(out)
        rows = _read_csv(out / "detection_sweep.csv")
        worst = max(_number(r, "oracle_agreement") for r in rows)
        _expect(worst <= ORACLE_AGREEMENT_MAX,
                f"oracle_agreement {worst:.3f} > {ORACLE_AGREEMENT_MAX}")
        for column in ("delta_L_H", "delta_L_oracle_H"):
            _expect(_strictly_monotone([abs(_number(r, column))
                                        for r in rows]),
                    f"|{column}| is not strictly monotone")
    return check


class Workload:
    """Inputs and calls of one workload; subclasses fill them in."""

    name = ""
    why = ""

    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.rng = rng
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def setup(self, run: Callable[[Call], bool]) -> None:
        """Write the inputs; ``run`` makes any CLI call this needs."""

    def warmup(self, pass_dir: Path) -> list[Call]:
        return self.calls(pass_dir)

    def calls(self, pass_dir: Path) -> list[Call]:
        raise NotImplementedError


class AnalyticModels(Workload):
    name = "analytic-models"
    why = ("closed-form models evaluated one scalar at a time: damping "
           "curve, he3 fit, analytic sweep; no field solve, FFT or block IO")

    def setup(self, run):
        rng = self.rng
        self.curve = _write_json(self.inputs / "curve.json", {"damping": {
            "T_min_K": 0.01, "T_max_K": 2.1, "points": 10000,
            "x3": X3_TRUE}})
        # damping-curve --svg overflows at >= ~500 points (see NOTES.md),
        # so the plot is drawn at the default 50
        self.curve_svg = _write_json(self.inputs / "curve_svg.json",
                                     {"damping": {"x3": X3_TRUE}})
        self.fit = _write_json(self.inputs / "fit.json", {"fit": {
            "fit_vacuum": True, "added_x3": ADDED_X3}})
        self.sweep = _write_json(self.inputs / "sweep.json", {"detection": {
            "sweep_start_m": rng.uniform(0.0188, 0.0192),
            "sweep_stop_m": rng.uniform(0.0020, 0.0024),
            "sweep_points": 500}})
        self.sensitivity = _write_json(
            self.inputs / "sensitivity.json", {"sensitivity": {
                "temperature_K": rng.uniform(0.003, 0.02),
                "velocity_m_s": rng.uniform(5e-6, 2e-5)}})
        # tau(T) data: the model's own curve at X3_TRUE, with noise
        truth = _write_json(self.inputs / "truth.json", {"damping": {
            "T_min_K": 0.015, "T_max_K": 0.5, "points": 15, "x3": X3_TRUE}})
        out = self.work / "truth"
        self.data = self.inputs / "tau_vs_T.csv"
        if run(Call("setup", ("damping-curve", "--config", str(truth),
                              "--out", str(out)), out, _damping_check(15))):
            lines = ["T_K,tau_s"]
            for row in _read_csv(out / "damping_curve.csv"):
                tau = float(row["tau_total_s"]) \
                    * math.exp(FIT_NOISE * rng.gauss(0.0, 1.0))
                lines.append(f"{row['T_K']},{tau!r}")
            self.data.write_text("\n".join(lines) + "\n")

    def calls(self, pass_dir):
        def call(label, argv, sub, check):
            out = pass_dir / sub
            return Call(label, (*argv, "--out", str(out)), out, check)

        return [
            call("damping_curve", ("damping-curve", "--config",
                                   str(self.curve)),
                 "curve", _damping_check(10000)),
            call("damping_curve_svg", ("damping-curve", "--svg", "--config",
                                       str(self.curve_svg)),
                 "curve_svg", _both(_damping_check(50),
                                    _svg_check("damping_curve.svg"))),
            call("fit_he3", ("fit-he3", "--data", str(self.data),
                             "--config", str(self.fit)),
                 "fit", self._fit_check),
            call("detection_sweep", ("detection-sweep", "--svg", "--config",
                                     str(self.sweep)),
                 "sweep", _both(_sweep_check(500),
                                _svg_check("detection_sweep.svg"))),
            call("sensitivity", ("sensitivity", "--config",
                                 str(self.sensitivity)),
                 "sensitivity", self._sensitivity_check),
        ]

    @staticmethod
    def _fit_check(out: Path) -> None:
        x3 = _read_json(out / "he3_fit.json").get("x3")
        _expect(isinstance(x3, float)
                and abs(x3 - X3_TRUE) / X3_TRUE < X3_TOL,
                f"fitted x3 {x3!r} not within {X3_TOL:.0%} of {X3_TRUE}")
        rows = _read_csv(out / "contamination_prediction.csv")
        _expect(len(rows) == 40 and all(
            0.0 < _number(r, "ratio") < 1.0 for r in rows),
            "contamination prediction is not 40 rows of ratios in (0, 1)")

    @staticmethod
    def _sensitivity_check(out: Path) -> None:
        report = _read_json(out / "sensitivity.json")
        for key in ("S_F_N2_per_Hz", "F_D_N", "T_over_tau_K_per_s",
                    "linewidth_Hz"):
            value = report.get(key)
            _expect(isinstance(value, float) and math.isfinite(value)
                    and value > 0.0, f"sensitivity {key} = {value!r}")
        expect = 1.0 / (math.pi * _number(report, "tau_s"))
        _expect(abs(report["linewidth_Hz"] - expect) <= 1e-12 * expect,
                "linewidth is not 1/(pi tau)")


class OracleSweep(Workload):
    name = "oracle-sweep"
    why = ("detection-sweep --oracle, 8 poses at grid 128: the field "
           "solve takes over 99 % of the time")
    points = 8

    def setup(self, run):
        self.config = _write_json(self.inputs / "oracle.json", {"detection": {
            "sweep_start_m": 0.019 + self.rng.uniform(-2e-4, 2e-4),
            "sweep_stop_m": 0.005 + self.rng.uniform(-2e-4, 2e-4),
            "sweep_points": self.points, "oracle_grid": 128}})
        self.small = _write_json(self.inputs / "warmup.json", {"detection": {
            "sweep_points": 1, "oracle_grid": 64}})

    def _call(self, config: Path, out: Path, check) -> Call:
        return Call("detection_sweep", ("detection-sweep", "--oracle",
                                        "--config", str(config),
                                        "--out", str(out)), out, check)

    def warmup(self, pass_dir):
        return [self._call(self.small, pass_dir / "sweep", _sweep_check(1))]

    def calls(self, pass_dir):
        return [self._call(self.config, pass_dir / "sweep",
                           _oracle_check(self.points))]


class RingdownBin(Workload):
    name = "ringdown-bin"
    why = ("ringdown simulate then analyze, binary blocks: synthesis, "
           "block IO, per-block FFT, decay fit, digest of 120 files")
    seeds_per_pass = 4

    def setup(self, run):
        self.config = _write_json(self.inputs / "ringdown.json", {
            "ringdown": {"tau_s": RINGDOWN_TAU, "noise_rms": RINGDOWN_NOISE,
                         "format": "bin"}})

    def _seed_calls(self, pass_dir: Path) -> list[Call]:
        seed = str(self.rng.randrange(1, 2**31))
        out = pass_dir / f"seed{seed}"
        common = ("--config", str(self.config), "--seed", seed,
                  "--out", str(out))
        return [Call("ringdown_simulate", ("ringdown", "simulate", *common),
                     out, _simulate_check),
                Call("ringdown_analyze", ("ringdown", "analyze", *common),
                     out, _analyze_check)]

    def warmup(self, pass_dir):
        return self._seed_calls(pass_dir)

    def calls(self, pass_dir):
        return [c for _ in range(self.seeds_per_pass)
                for c in self._seed_calls(pass_dir)]


def _simulate_check(out: Path) -> None:
    truth = _read_json(out / "ringdown_truth.json")
    _expect(truth.get("n_blocks") == RINGDOWN_BLOCKS,
            f"simulate wrote {truth.get('n_blocks')!r} blocks, "
            f"expected {RINGDOWN_BLOCKS}")
    found = len(list((out / "blocks").glob("block_*.rngd")))
    _expect(found == RINGDOWN_BLOCKS, f"{found} block files on disk")


def _analyze_check(out: Path) -> None:
    tau = _read_json(out / "decay_fit.json").get("tau_s")
    _expect(isinstance(tau, float)
            and abs(tau - RINGDOWN_TAU) / RINGDOWN_TAU < RINGDOWN_TAU_TOL,
            f"fitted tau {tau!r} not within {RINGDOWN_TAU_TOL:.0%} of "
            f"{RINGDOWN_TAU!r}")
    rows = _read_csv(out / "amplitude_series.csv")
    _expect(len(rows) == RINGDOWN_BLOCKS,
            f"amplitude_series.csv has {len(rows)} rows")


WORKLOADS = {w.name: w for w in (AnalyticModels, OracleSweep, RingdownBin)}
