"""Helium-3 concentration estimation from measured decay times.

Residuals live in log space because tau spans many decades. In
``RECIPROCAL_SUM`` the decay rate 1/tau = Gamma_medium + n3 g + 1/tau_vac
is linear in the unknowns, so a Levenberg-Marquardt fit (Levenberg 1944,
Marquardt 1963) with the analytic Jacobian takes a few dozen evaluations.
In ``DOMINANT_ONLY`` the objective is piecewise quadratic in ln n3, so one
evaluation gives its exact minimum. Rows above REGIME_WEIGHT_THRESHOLD
(0.6 K) are down-weighted: the hydrodynamic-ballistic cross-over has no
trustworthy model, so those points should steer the fit only weakly.

The model is evaluated over the whole series at once: the channels that
do not depend on n3 once per fit, the impurity and vacuum channels and
the composite once per objective evaluation (see
:func:`levosc.damping.compose`).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .damping import (DEFAULT_TAU_VACUUM, DampingTable,
                      OscillatorSpec, RegimeMode, compose, damping_table,
                      medium_channels)
from .errors import BracketError, ConfigError, DataError
from .formats import read_numeric_csv, write_csv
from .media import HeliumMedia, above_lambda

__all__ = [
    "TauTemperatureSeries",
    "ConcentrationFit",
    "REGIME_WEIGHT_THRESHOLD",
    "REGIME_WEIGHT",
    "SEARCH_TOLERANCE",
    "VACUUM_BRACKET",
    "model_residuals",
    "fit_he3_concentration",
    "predict_contamination",
    "load_tau_series_csv",
    "write_residuals_csv",
    "write_contamination_csv",
    "concentration_fit_dict",
]

# Rows warmer than this get their weight multiplied by REGIME_WEIGHT.
REGIME_WEIGHT_THRESHOLD = 0.6  # K
REGIME_WEIGHT = 0.1
# The ReciprocalSum fit stops once its largest step in (ln n3, ln tau_vac)
# is below this.
SEARCH_TOLERANCE = 1e-6
# Bracket of the vacuum decay time when the fit varies it.
VACUUM_BRACKET = (1e4, 1e7)  # s


@dataclass(frozen=True)
class TauTemperatureSeries:
    """Measured (T, tau) rows, optionally with per-row uncertainty."""

    rows: tuple[tuple[float, float, float | None], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("series is empty")
        for T, tau, sigma in self.rows:
            if not 0 < T < math.inf:
                raise ValueError("temperatures must be finite and positive")
            if not 0 < tau < math.inf:
                raise ValueError("decay times must be finite and positive")
            if sigma is not None and not 0 <= sigma < math.inf:
                raise ValueError("sigma_tau must be finite and non-negative")

    @property
    def temperatures(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows])

    @property
    def taus(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])


@dataclass(frozen=True)
class ConcentrationFit:
    n3: float
    x3: float
    residual_rms: float
    n3_bracket: tuple[float, float]
    regime_mode: RegimeMode
    tau_vacuum: float | None = None
    fitted_tau_vacuum: float | None = None

    def __post_init__(self):
        if self.n3 <= 0:
            raise ValueError("n3 must be positive")


def _log_residuals(total: np.ndarray, log_taus: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.log(total) - log_taus
    r[~np.isfinite(r)] = np.nan
    return r


def model_residuals(series: TauTemperatureSeries, osc: OscillatorSpec,
                    media: HeliumMedia, n3: float,
                    mode: RegimeMode = RegimeMode.RECIPROCAL_SUM,
                    tau_vacuum: float | None = DEFAULT_TAU_VACUUM,
                    ) -> np.ndarray:
    """Log-space residuals ln(tau_model) - ln(tau_data), one per row.

    A row where the model is not finite, or breaks the composite's
    invariants, becomes NaN rather than failing the whole vector;
    downstream sums skip NaN rows.
    """
    medium = medium_channels(osc, media, series.temperatures)
    total = compose(medium, osc, media, n3, mode, tau_vacuum).tau_total
    return _log_residuals(total, np.log(series.taus))


def _dominant_minimum(a: np.ndarray, b: np.ndarray, y: np.ndarray,
                      w: np.ndarray, lo: float, hi: float) -> float:
    """The u in [lo, hi] minimizing sum w (min(a, b - u) - y)^2, exactly.
    A row stays at a below its breakpoint b - a and follows b - u above
    it, so between neighbouring sorted breakpoints the objective is one
    quadratic; cumulative sums give each one's minimum on its stretch.
    u is counted from the bracket's middle to keep the sums small."""
    mid, h, order = 0.5 * (lo + hi), 0.5 * (hi - lo), np.argsort(b - a)
    a, b, y, w = a[order], b[order] - mid, y[order], w[order]
    W, S, Q = (np.append(0.0, np.cumsum(x))
               for x in (w, w * (b - y), w * (b - y)**2))
    M = np.append(np.cumsum((w * (a - y)**2)[::-1])[::-1], 0.0)
    ends = np.concatenate(([-h], np.clip(b - a, -h, h), [h]))
    u = np.clip(np.divide(S, W, out=ends[:-1].copy(), where=W > 0),
                ends[:-1], ends[1:])
    return float(u[np.argmin(W * u * u - 2.0 * S * u + Q + M)] + mid)


def _levenberg_marquardt(fn: Callable[[np.ndarray], tuple], lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
    """The p in the box [lo, hi] minimizing |r|^2, ``fn`` giving r and its
    Jacobian: damped Gauss-Newton steps from the midpoint, clipped to the
    box and holding a parameter that the gradient pushes out through its
    bound, until the largest step is below SEARCH_TOLERANCE."""
    p, damping = 0.5 * (lo + hi), 1e-3
    r, J = fn(p)
    while True:
        grad = J.T @ r
        held = ((p <= lo) & (grad > 0)) | ((p >= hi) & (grad < 0))
        J_free = np.where(held, 0.0, J)
        A = J_free.T @ J_free
        trial = np.clip(p - np.linalg.lstsq(A + damping * np.diag(np.diag(A)),
                                            J_free.T @ r, rcond=None)[0],
                        lo, hi)
        moved = np.max(np.abs(trial - p))
        r_trial, J_trial = fn(trial)
        if r_trial @ r_trial < r @ r:
            p, r, J, damping = trial, r_trial, J_trial, 0.1 * damping
        else:
            damping *= 10.0
        if moved < SEARCH_TOLERANCE:
            return p


def fit_he3_concentration(series: TauTemperatureSeries, osc: OscillatorSpec,
                          media: HeliumMedia,
                          bracket: tuple[float, float] = (1e18, 1e23),
                          mode: RegimeMode = RegimeMode.RECIPROCAL_SUM,
                          tau_vacuum: float | None = DEFAULT_TAU_VACUUM,
                          fit_vacuum: bool = False) -> ConcentrationFit:
    """Fit n3 on a logarithmic bracket, and with ``fit_vacuum`` the
    vacuum channel on VACUUM_BRACKET, by weighted log residuals: rows
    warmer than REGIME_WEIGHT_THRESHOLD weigh REGIME_WEIGHT.

    The bracket must be finite with 0 < low < high and span at least
    four decades. A minimum pinned to a bracket edge raises
    :class:`BracketError`: the data carry no impurity signature (or the
    bracket excludes the true value). Fewer rows where the model is
    defined than fitted parameters raise :class:`DataError`.

    ``RECIPROCAL_SUM`` runs one bounded Levenberg-Marquardt fit of
    (ln n3, ln tau_vac), or ln n3 alone, from the brackets' log-midpoint
    until its largest step is below SEARCH_TOLERANCE.
    ``DOMINANT_ONLY`` takes the exact minimum over ln n3 and refuses
    ``fit_vacuum``.
    """
    if fit_vacuum and mode is RegimeMode.DOMINANT_ONLY:
        raise ConfigError("fit_vacuum needs ReciprocalSum, not DominantOnly")
    n3_lo, n3_hi = bracket
    if not 0 < n3_lo < n3_hi < math.inf:
        raise ConfigError(f"bracket must satisfy 0 < low < high < inf, "
                          f"got {(n3_lo, n3_hi)!r}")
    if math.log10(n3_hi / n3_lo) < 4.0:
        raise ConfigError("bracket must span at least four decades of n3")
    weights = np.where(series.temperatures > REGIME_WEIGHT_THRESHOLD,
                       REGIME_WEIGHT, 1.0)
    medium = medium_channels(osc, media, series.temperatures)
    log_taus = np.log(series.taus)
    n_params = 2 if fit_vacuum else 1

    def residuals(n3: float, tau_vac: float | None) -> tuple:
        """The composite, the log residuals and their weighted squares."""
        table = compose(medium, osc, media, n3, mode, tau_vac)
        r = _log_residuals(table.tau_total, log_taus)
        ok = np.isfinite(r)
        if not ok.any():
            fault = table.fault(0)
            raise DataError("model undefined on every row" + (
                "" if fault is None else
                f"; at T = {table.T[0]:g} K, {fault}"))
        if ok.sum() < n_params:     # the fit would stop anywhere on a valley
            raise DataError(f"model defined on {ok.sum()} row(s), fewer "
                            f"than the {n_params} fitted parameters")
        return table, r, float(np.sum(weights[ok] * r[ok]**2))

    def weighted(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        table, r, _ = residuals(math.exp(p[0]), math.exp(p[-1])
                                if fit_vacuum else tau_vacuum)
        # d r / d ln n3 = -n3 g tau_total = -tau_total / tau_imp and
        # d r / d ln tau_vac = tau_total / tau_vac
        J = table.tau_total[:, None] / np.column_stack((-table.tau_imp,
                                                        table.tau_vacuum))
        ok, root_w = np.isfinite(r), np.sqrt(weights)
        return (root_w * r)[ok], (root_w[:, None] * J)[ok, :len(p)]

    box = [(math.log(lo), math.log(hi)) for lo, hi in
           ([bracket, VACUUM_BRACKET] if fit_vacuum else [bracket])]
    u_lo, u_hi = box[0]
    if mode is RegimeMode.RECIPROCAL_SUM:
        p = _levenberg_marquardt(weighted, *np.array(box).T)
        u_star = float(p[0])
    else:   # ln tau_total = min(a, b - u), b = ln tau_imp at n3 = 1
        table, r, _ = residuals(1.0, tau_vacuum)
        with np.errstate(divide="ignore"):
            a, b = np.log([np.fmin.reduce([table.tau_hydr, table.tau_ph,
                                           table.tau_rot, table.tau_vacuum],
                                          initial=np.inf), table.tau_imp])
        ok = np.isfinite(r) & np.isfinite(b)
        u_star = _dominant_minimum(a[ok], b[ok], log_taus[ok], weights[ok],
                                   u_lo, u_hi)
    if min(u_star - u_lo, u_hi - u_star) < 0.005 * (u_hi - u_lo):
        raise BracketError(
            "fitted n3 pinned to the bracket edge; the series has no "
            "identifiable impurity signature inside the bracket")
    n3 = math.exp(u_star)
    fitted_vac = math.exp(p[-1]) if fit_vacuum else None
    _, r, objective = residuals(n3, fitted_vac if fit_vacuum else tau_vacuum)
    rms = math.sqrt(objective / np.sum(weights[np.isfinite(r)]))
    return ConcentrationFit(n3=n3, x3=n3 / media.n4, residual_rms=rms,
                            n3_bracket=(n3_lo, n3_hi), regime_mode=mode,
                            tau_vacuum=tau_vacuum,
                            fitted_tau_vacuum=fitted_vac)


def predict_contamination(x3: float, added_x3: float,
                          osc: OscillatorSpec, media: HeliumMedia,
                          T_grid: Sequence[float],
                          mode: RegimeMode = RegimeMode.RECIPROCAL_SUM,
                          ) -> tuple[DampingTable, DampingTable]:
    """Damping tables before and after adding a known amount of helium-3
    to the baseline fraction ``x3``.

    The tables contain only the medium channels (no vacuum channel):
    they isolate what the added impurities do to the bath damping, and
    in the impurity-dominated regime the ``tau_total`` ratio between
    them is exactly x3 / (x3 + added_x3).
    """
    if added_x3 < 0:
        raise ConfigError("added_x3 must be non-negative")
    n4 = media.n4
    return (damping_table(osc, media, T_grid, x3 * n4, mode,
                          tau_vacuum=None),
            damping_table(osc, media, T_grid, (x3 + added_x3) * n4, mode,
                          tau_vacuum=None))


def load_tau_series_csv(data: bytes, source: str | Path
                        ) -> TauTemperatureSeries:
    """The (T_K, tau_s[, sigma_tau_s]) rows of a CSV, header optional;
    a row above the superfluid transition is refused."""
    rows = read_numeric_csv(data, source, "tau series", 2, optional=1,
                            check=lambda row: above_lambda(row[0]))
    try:
        return TauTemperatureSeries(rows=tuple(rows))
    except ValueError as exc:
        raise DataError(f"tau series {source}: {exc}") from exc


def write_residuals_csv(series: TauTemperatureSeries,
                        residuals: np.ndarray, fh: io.TextIOBase,
                        header_comment: str | None = None) -> None:
    write_csv(fh, [header_comment], ["T_K", "tau_s", "log_residual"],
              [series.temperatures, series.taus, residuals])


def write_contamination_csv(base: DampingTable, contaminated: DampingTable,
                            fh: io.TextIOBase,
                            header_comment: str | None = None) -> None:
    """Both tables' tau_total and their ratio, per temperature."""
    write_csv(fh, [header_comment],
              ["T_K", "tau_s", "tau_contaminated_s", "ratio"],
              [base.T, base.tau_total, contaminated.tau_total,
               contaminated.tau_total / base.tau_total])


def concentration_fit_dict(fit: ConcentrationFit) -> dict[str, object]:
    """JSON-ready record with full fit provenance."""
    return {
        "n3_per_m3": fit.n3,
        "x3": fit.x3,
        "residual_rms_log": fit.residual_rms,
        "n3_bracket_per_m3": list(fit.n3_bracket),
        "regime_mode": fit.regime_mode.value,
        "tau_vacuum_s": fit.tau_vacuum,
        "fitted_tau_vacuum_s": fit.fitted_tau_vacuum,
        "search_tolerance": SEARCH_TOLERANCE,
        "regime_weight_threshold_K": REGIME_WEIGHT_THRESHOLD,
        "regime_weight": REGIME_WEIGHT,
        "notes": ("surface bound states can deplete the bulk helium-3 "
                  "concentration near a free surface; this is not "
                  "modeled, so x3 reflects the bulk actually coupled "
                  "to the sphere"),
    }
