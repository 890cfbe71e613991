"""Helium-3 concentration estimation from measured decay times.

The damping model is monotone in n3 wherever impurity drag matters, so
the sum of squared log residuals is unimodal in ln(n3) and a 1-D
golden-section search is enough; no Jacobian machinery. Residuals live
in log space because tau spans many decades. Rows above the regime
threshold (default 0.6 K) are down-weighted: the hydrodynamic-ballistic
cross-over has no trustworthy model, so those points should steer the
fit only weakly.

The model is evaluated over the whole series at once: the channels that
do not depend on n3 once per fit, the impurity and vacuum channels and
the composite once per objective evaluation (see
:func:`levosc.damping.compose`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .damping import (DEFAULT_TAU_VACUUM, DampingTable, MediumChannels,
                      OscillatorSpec, RegimeMode, compose, damping_table,
                      medium_channels)
from .errors import BracketError, ConfigError, DataError
from .media import HeliumMedia

__all__ = [
    "TauTemperatureSeries",
    "ConcentrationFit",
    "REGIME_WEIGHT_THRESHOLD",
    "REGIME_WEIGHT",
    "model_residuals",
    "fit_he3_concentration",
    "predict_contamination",
    "load_tau_series_csv",
    "write_residuals_csv",
    "concentration_fit_dict",
]

# Rows warmer than this get their weight multiplied by REGIME_WEIGHT.
REGIME_WEIGHT_THRESHOLD = 0.6  # K
REGIME_WEIGHT = 0.1

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    search_tolerance: float
    tau_vacuum: float | None = None
    fitted_tau_vacuum: float | None = None

    def __post_init__(self):
        if self.n3 <= 0:
            raise ValueError("n3 must be positive")


def _log_residuals(medium: MediumChannels, log_taus: np.ndarray,
                   osc: OscillatorSpec, media: HeliumMedia, n3: float,
                   mode: RegimeMode, tau_vacuum: float | None) -> np.ndarray:
    total = compose(medium, osc, media, n3, mode, tau_vacuum).tau_total
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
    return _log_residuals(medium, np.log(series.taus), osc, media, n3, mode,
                          tau_vacuum)


def _regime_weights(series: TauTemperatureSeries,
                    threshold: float, weight: float) -> np.ndarray:
    T = series.temperatures
    return np.where(T > threshold, weight, 1.0)


def _golden_minimize(fn: Callable[[float], float], lo: float, hi: float,
                     tol: float) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def fit_he3_concentration(series: TauTemperatureSeries, osc: OscillatorSpec,
                          media: HeliumMedia,
                          bracket: tuple[float, float] = (1e18, 1e23),
                          mode: RegimeMode = RegimeMode.RECIPROCAL_SUM,
                          tau_vacuum: float | None = DEFAULT_TAU_VACUUM,
                          fit_vacuum: bool = False,
                          vacuum_bracket: tuple[float, float] = (1e4, 1e7),
                          regime_threshold: float = REGIME_WEIGHT_THRESHOLD,
                          regime_weight: float = REGIME_WEIGHT,
                          tol: float = 1e-6) -> ConcentrationFit:
    """Golden-section fit of n3 on a logarithmic bracket.

    The bracket must span at least four decades. A minimum pinned to a
    bracket edge raises :class:`BracketError`: the data carry no
    impurity signature (or the bracket excludes the true value).

    With ``fit_vacuum`` the constant vacuum channel is fitted too, by a
    nested 1-D search at every n3 candidate.

    The hydrodynamic, phonon and roton channels do not depend on n3 or
    the vacuum channel, so they are evaluated once per fit; each
    objective evaluation adds only the impurity and vacuum channels
    over the whole series.
    """
    n3_lo, n3_hi = bracket
    if not 0 < n3_lo < n3_hi:
        raise ConfigError("bracket must satisfy 0 < low < high")
    if math.log10(n3_hi / n3_lo) < 4.0:
        raise ConfigError("bracket must span at least four decades of n3")
    weights = _regime_weights(series, regime_threshold, regime_weight)
    medium = medium_channels(osc, media, series.temperatures)
    log_taus = np.log(series.taus)

    def residuals(n3: float, tau_vac: float | None) -> np.ndarray:
        return _log_residuals(medium, log_taus, osc, media, n3, mode,
                              tau_vac)

    def objective_for(n3: float, tau_vac: float | None) -> float:
        r = residuals(n3, tau_vac)
        ok = np.isfinite(r)
        if not ok.any():
            raise DataError("model undefined on every row")
        return float(np.sum(weights[ok] * r[ok]**2))

    if fit_vacuum:
        v_lo, v_hi = math.log(vacuum_bracket[0]), math.log(vacuum_bracket[1])

        def best_vacuum(n3: float) -> float:
            return _golden_minimize(
                lambda v: objective_for(n3, math.exp(v)), v_lo, v_hi, 1e-4)

        def objective(u: float) -> float:
            n3 = math.exp(u)
            return objective_for(n3, math.exp(best_vacuum(n3)))
    else:
        def objective(u: float) -> float:
            return objective_for(math.exp(u), tau_vacuum)

    u_lo, u_hi = math.log(n3_lo), math.log(n3_hi)
    u_star = _golden_minimize(objective, u_lo, u_hi, tol)
    span = u_hi - u_lo
    if (u_star - u_lo) < 0.005 * span or (u_hi - u_star) < 0.005 * span:
        raise BracketError(
            "fitted n3 pinned to the bracket edge; the series has no "
            "identifiable impurity signature inside the bracket")
    n3 = math.exp(u_star)
    fitted_vac = math.exp(best_vacuum(n3)) if fit_vacuum else None
    vac_used = fitted_vac if fit_vacuum else tau_vacuum
    r = residuals(n3, vac_used)
    ok = np.isfinite(r)
    rms = float(np.sqrt(np.sum(weights[ok] * r[ok]**2)
                        / np.sum(weights[ok])))
    return ConcentrationFit(n3=n3, x3=n3 / media.n4, residual_rms=rms,
                            n3_bracket=(n3_lo, n3_hi), regime_mode=mode,
                            search_tolerance=tol,
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


def load_tau_series_csv(path: str | Path) -> TauTemperatureSeries:
    """Read (T_K, tau_s[, sigma_tau_s]) rows, header optional."""
    rows: list[tuple[float, float, float | None]] = []
    try:
        with open(path, newline="") as fh:
            records = [(lineno, rec) for lineno, rec in
                       enumerate(csv.reader(fh), start=1)
                       if rec and not rec[0].lstrip().startswith("#")]
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot read tau series {path}: {exc}") from exc
    for i, (lineno, rec) in enumerate(records):
        T = None
        try:
            T = float(rec[0])
            sigma = float(rec[2]) if len(rec) > 2 and rec[2].strip() \
                else None
            rows.append((T, float(rec[1]), sigma))
        except (ValueError, IndexError):
            if i > 0 or T is not None:  # only the first line is a header
                raise DataError(f"{path}:{lineno}: bad tau series row "
                                f"{rec!r}") from None
    if not rows:
        raise DataError(f"tau series {path} has no data rows")
    try:
        return TauTemperatureSeries(rows=tuple(rows))
    except ValueError as exc:
        raise DataError(f"tau series {path}: {exc}") from exc


def write_residuals_csv(series: TauTemperatureSeries,
                        residuals: np.ndarray, fh: io.TextIOBase,
                        header_comment: str | None = None) -> None:
    if header_comment:
        fh.write(f"# {header_comment}\n")
    fh.write("T_K,tau_s,log_residual\n")
    for (T, tau, _), r in zip(series.rows, residuals):
        field = "" if math.isnan(r) else repr(float(r))
        fh.write(f"{T!r},{tau!r},{field}\n")


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
        "search_tolerance": fit.search_tolerance,
        "regime_weight_threshold_K": REGIME_WEIGHT_THRESHOLD,
        "regime_weight": REGIME_WEIGHT,
        "notes": ("surface bound states can deplete the bulk helium-3 "
                  "concentration near a free surface; this is not "
                  "modeled, so x3 reflects the bulk actually coupled "
                  "to the sphere"),
    }
