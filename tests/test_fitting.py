"""Concentration fitting against model-generated decay-time series.

Forward data always come from damping_table; the checks on the fit use
closed-form scaling identities (tau_imp proportional to 1/n3) and plain
ratio arithmetic as the independent route.
"""

import io
import math

import numpy as np
import pytest

from levosc.damping import (
    DEFAULT_TAU_VACUUM,
    OscillatorSpec,
    RegimeMode,
    damping_table,
)
from levosc.errors import BracketError, ConfigError, DataError
from levosc.fitting import (
    REGIME_WEIGHT,
    REGIME_WEIGHT_THRESHOLD,
    ConcentrationFit,
    TauTemperatureSeries,
    concentration_fit_dict,
    fit_he3_concentration,
    load_tau_series_csv,
    model_residuals,
    predict_contamination,
    write_residuals_csv,
)

X3_REFERENCE = 4.2e-8


def n4_of(media):
    return media.n4


def series_from_model(osc, media, T_grid, n3, tau_vacuum=DEFAULT_TAU_VACUUM,
                      noise=0.0, seed=0):
    table = damping_table(osc, media, T_grid, n3,
                          RegimeMode.RECIPROCAL_SUM, tau_vacuum)
    taus = table.tau_total
    if noise:
        rng = np.random.default_rng(seed)
        taus = taus * np.exp(noise * rng.standard_normal(len(taus)))
    return TauTemperatureSeries(rows=tuple(
        (T, float(tau), None) for T, tau in zip(table.T.tolist(), taus)))


IMPURITY_GRID = [0.015, 0.018, 0.022, 0.027, 0.033, 0.04]
WIDE_GRID = list(np.geomspace(0.015, 0.5, 15))


# ------------------------------------------------------------ series type

def test_series_validation():
    with pytest.raises(ValueError):
        TauTemperatureSeries(rows=())
    with pytest.raises(ValueError):
        TauTemperatureSeries(rows=((0.0, 1e5, None),))
    with pytest.raises(ValueError):
        TauTemperatureSeries(rows=((0.1, 0.0, None),))
    with pytest.raises(ValueError):
        TauTemperatureSeries(rows=((0.1, 1e5, -1.0),))


@pytest.mark.parametrize("row", [(math.nan, 1e5, None), (math.inf, 1e5, None),
                                 (0.1, math.nan, None), (0.1, math.inf, None),
                                 (0.1, 1e5, math.nan), (0.1, 1e5, math.inf)])
def test_series_rejects_non_finite(row):
    with pytest.raises(ValueError, match="finite"):
        TauTemperatureSeries(rows=(row,))


def test_series_arrays():
    s = TauTemperatureSeries(rows=((0.1, 1e5, 100.0), (0.2, 2e4, None)))
    assert np.array_equal(s.temperatures, [0.1, 0.2])
    assert np.array_equal(s.taus, [1e5, 2e4])


def test_concentration_fit_validation():
    with pytest.raises(ValueError):
        ConcentrationFit(n3=0.0, x3=0.0, residual_rms=0.0,
                         n3_bracket=(1e18, 1e23),
                         regime_mode=RegimeMode.RECIPROCAL_SUM,
                         search_tolerance=1e-6)


# ------------------------------------------------------------- model side

def test_model_total_matches_channel_composition(osc, media):
    # independent route: assemble the composite from the channel
    # columns directly instead of taking the table's composite
    for T, n3 in [(0.02, 9e20), (0.3, 1e21), (1.5, 5e20)]:
        table = damping_table(osc, media, [T], n3)
        got = table.tau_total[0]
        channels = [table.tau_hydr, table.tau_ph, table.tau_rot,
                    table.tau_imp, table.tau_vacuum]
        want = 1.0 / math.fsum(1.0 / tau[0] for tau in channels
                               if not math.isnan(tau[0]))
        assert abs(got - want) < 1e-12 * want


def test_residuals_self_consistent(osc, media):
    n3 = X3_REFERENCE * n4_of(media)
    series = series_from_model(osc, media, WIDE_GRID, n3)
    r = model_residuals(series, osc, media, n3)
    assert np.all(np.abs(r) < 1e-10)


def test_residuals_doubled_n3_is_minus_ln2(osc, media):
    # deep impurity regime, no vacuum channel: tau scales as 1/n3
    n3 = 1e-7 * n4_of(media)
    series = series_from_model(osc, media, [0.004, 0.005, 0.006], n3,
                               tau_vacuum=None)
    r = model_residuals(series, osc, media, 2.0 * n3, tau_vacuum=None)
    # residual floor set by the tiny ballistic-phonon admixture
    assert np.all(np.abs(r + math.log(2.0)) < 2e-4)


def test_residuals_partition_by_regime(osc, media):
    n3 = X3_REFERENCE * n4_of(media)
    good = series_from_model(osc, media, IMPURITY_GRID, n3)
    warm = damping_table(osc, media, [0.7, 0.8, 0.9], n3)
    rows = tuple(good.rows) + tuple(
        (T, 1.5 * tau, None) for T, tau in zip(warm.T.tolist(),
                                               warm.tau_total.tolist()))
    series = TauTemperatureSeries(rows=rows)
    r = model_residuals(series, osc, media, n3)
    assert np.all(np.abs(r[:6]) < 1e-10)
    assert np.all(np.abs(r[6:]) > 0.1)


# -------------------------------------------------------------- fitting

def test_recovery_exact_reference_concentration(osc, media):
    n3_true = X3_REFERENCE * n4_of(media)
    series = series_from_model(osc, media, WIDE_GRID, n3_true)
    fit = fit_he3_concentration(series, osc, media)
    assert abs(fit.n3 - n3_true) / n3_true < 1e-4
    assert abs(fit.x3 - X3_REFERENCE) / X3_REFERENCE < 1e-4
    assert fit.residual_rms < 1e-6
    assert fit.fitted_tau_vacuum is None
    assert fit.tau_vacuum == DEFAULT_TAU_VACUUM
    assert fit.n3_bracket == (1e18, 1e23)


def test_recovery_with_noise_single_seed(osc, media):
    n3_true = X3_REFERENCE * n4_of(media)
    series = series_from_model(osc, media, WIDE_GRID, n3_true,
                               noise=0.05, seed=42)
    fit = fit_he3_concentration(series, osc, media)
    assert abs(fit.x3 - X3_REFERENCE) / X3_REFERENCE < 0.10
    assert fit.residual_rms > 0


@pytest.mark.parametrize("kappa", [0.5, 2.0, 10.0])
def test_uniform_tau_scaling_maps_to_n3_over_kappa(osc, media, kappa):
    # tau_imp ~ 1/n3, so scaling every tau by kappa must scale the
    # fitted n3 by 1/kappa when impurity drag is the only channel
    n3_true = 1e-7 * n4_of(media)
    base = series_from_model(osc, media, [0.004, 0.005, 0.006, 0.008],
                             n3_true, tau_vacuum=None)
    scaled = TauTemperatureSeries(rows=tuple(
        (T, kappa * tau, s) for T, tau, s in base.rows))
    fit = fit_he3_concentration(scaled, osc, media, tau_vacuum=None)
    assert abs(fit.n3 - n3_true / kappa) / (n3_true / kappa) < 2e-3


def test_objective_unimodal_in_log_n3(osc, media):
    n3_true = X3_REFERENCE * n4_of(media)
    series = series_from_model(osc, media, WIDE_GRID, n3_true)
    weights = np.where(series.temperatures > REGIME_WEIGHT_THRESHOLD,
                       REGIME_WEIGHT, 1.0)

    def objective(n3):
        r = model_residuals(series, osc, media, n3)
        ok = np.isfinite(r)
        return float(np.sum(weights[ok] * r[ok] ** 2))

    grid = np.geomspace(1e18, 1e23, 80)
    vals = np.array([objective(n3) for n3 in grid])
    d = np.diff(vals)
    # one descending run followed by one ascending run
    sign = np.sign(d[np.abs(d) > 1e-14 * np.abs(vals[:-1])])
    flips = int(np.sum(sign[:-1] != sign[1:]))
    assert flips == 1
    assert vals.argmin() not in (0, len(vals) - 1)


def test_row_reordering_does_not_move_fit(osc, media):
    n3_true = X3_REFERENCE * n4_of(media)
    series = series_from_model(osc, media, WIDE_GRID, n3_true,
                               noise=0.05, seed=5)
    rng = np.random.default_rng(1)
    perm = rng.permutation(len(series.rows))
    shuffled = TauTemperatureSeries(rows=tuple(
        series.rows[i] for i in perm))
    f1 = fit_he3_concentration(series, osc, media)
    f2 = fit_he3_concentration(shuffled, osc, media)
    assert abs(f1.n3 - f2.n3) / f1.n3 < 1e-6


def test_warm_rows_downweighted(osc, media):
    # corrupt only rows above the regime threshold; with the default
    # down-weighting they barely steer the fit, at full weight they do
    n3_true = X3_REFERENCE * n4_of(media)
    cold = series_from_model(osc, media, IMPURITY_GRID, n3_true)
    warm = damping_table(osc, media, [0.7, 0.8, 0.9, 1.1], n3_true)
    rows = tuple(cold.rows) + tuple(
        (T, 1.6 * tau, None) for T, tau in zip(warm.T.tolist(),
                                               warm.tau_total.tolist()))
    series = TauTemperatureSeries(rows=rows)
    soft = fit_he3_concentration(series, osc, media)
    hard = fit_he3_concentration(series, osc, media, regime_weight=1.0)
    err_soft = abs(soft.n3 - n3_true) / n3_true
    err_hard = abs(hard.n3 - n3_true) / n3_true
    assert err_soft < err_hard
    assert err_soft < 0.02


def test_regime_threshold_configurable(osc, media):
    n3_true = X3_REFERENCE * n4_of(media)
    cold = series_from_model(osc, media, IMPURITY_GRID, n3_true)
    mid = damping_table(osc, media, [0.4, 0.5], n3_true)
    rows = tuple(cold.rows) + tuple(
        (T, 1.6 * tau, None) for T, tau in zip(mid.T.tolist(),
                                               mid.tau_total.tolist()))
    series = TauTemperatureSeries(rows=rows)
    default = fit_he3_concentration(series, osc, media)
    lowered = fit_he3_concentration(series, osc, media,
                                    regime_threshold=0.3)
    assert (abs(lowered.n3 - n3_true) < abs(default.n3 - n3_true))


def test_fit_vacuum_nested_recovery(osc, media):
    n3_true = 1e-7 * n4_of(media)
    tau_vac_true = 2.0e5
    grid = list(np.geomspace(0.015, 0.45, 12))
    series = series_from_model(osc, media, grid, n3_true,
                               tau_vacuum=tau_vac_true)
    fit = fit_he3_concentration(series, osc, media, fit_vacuum=True)
    assert fit.fitted_tau_vacuum is not None
    assert abs(fit.fitted_tau_vacuum - tau_vac_true) / tau_vac_true < 5e-3
    assert abs(fit.n3 - n3_true) / n3_true < 1e-3


def test_bracket_span_enforced(osc, media):
    series = TauTemperatureSeries(rows=((0.02, 1e5, None),
                                        (0.03, 8e4, None),
                                        (0.04, 6e4, None)))
    with pytest.raises(ConfigError, match="four decades"):
        fit_he3_concentration(series, osc, media, bracket=(1e18, 1e21))
    with pytest.raises(ConfigError):
        fit_he3_concentration(series, osc, media, bracket=(1e23, 1e18))
    with pytest.raises(ConfigError):
        fit_he3_concentration(series, osc, media, bracket=(0.0, 1e23))


def test_no_impurity_signature_hits_bracket_edge(osc, media):
    # pure-solvent data above 1 K carry no n3 information at all
    grid = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    series = series_from_model(osc, media, grid, 0.0)
    with pytest.raises(BracketError, match="bracket"):
        fit_he3_concentration(series, osc, media)


# ------------------------------------------------------- contamination

def test_contamination_identity_ratio(osc, media):
    # at very low T the impurity channel is the only finite one, so the
    # curve ratio collapses to pure fraction arithmetic
    added = 1e-7
    base, cont = predict_contamination(X3_REFERENCE, added, osc, media,
                                       [0.002, 0.003])
    want = X3_REFERENCE / (X3_REFERENCE + added)
    assert np.array_equal(base.T, cont.T)
    for tau_b, tau_c in zip(base.tau_total, cont.tau_total):
        assert abs(tau_c / tau_b - want) < 1e-5


def test_contamination_reference_ratio(osc, media):
    base, cont = predict_contamination(X3_REFERENCE, 1e-7, osc, media, [0.015])
    ratio = cont.tau_total[0] / base.tau_total[0]
    assert abs(ratio - 0.296) < 1e-3


def test_contamination_zero_added_identical(osc, media):
    base, cont = predict_contamination(X3_REFERENCE, 0.0, osc, media,
                                       [0.01, 0.1, 0.3])
    for a, b in zip(base.columns(), cont.columns()):
        assert np.array_equal(a, b, equal_nan=True)


def test_contamination_swamped_limit(osc, media):
    added = 1e-4
    base, cont = predict_contamination(X3_REFERENCE, added, osc, media, [0.002])
    ratio = cont.tau_total[0] / base.tau_total[0]
    assert abs(ratio - X3_REFERENCE / added) / (X3_REFERENCE / added) < 1e-2


def test_contamination_rejects_negative(osc, media):
    with pytest.raises(ConfigError):
        predict_contamination(X3_REFERENCE, -1e-8, osc, media, [0.015])


# ------------------------------------------------------------------- io

def test_load_series_with_header_and_sigma(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("# comment line\nT_K,tau_s,sigma_tau_s\n"
                 "0.02,1.2e5,3e3\n0.05,6.1e4,\n0.30,2.1e1\n")
    s = load_tau_series_csv(p.read_bytes(), p)
    assert s.rows == ((0.02, 1.2e5, 3e3), (0.05, 6.1e4, None),
                      (0.30, 21.0, None))


def test_load_series_headerless(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("0.02,1.2e5\n0.05,6.1e4\n")
    s = load_tau_series_csv(p.read_bytes(), p)
    assert s.rows == ((0.02, 1.2e5, None), (0.05, 6.1e4, None))


def test_load_series_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n")
    with pytest.raises(DataError, match="no data rows"):
        load_tau_series_csv(empty.read_bytes(), empty)
    broken = tmp_path / "broken.csv"
    broken.write_text("0.02,1e5\nnot_a_number,1e4\n")
    with pytest.raises(DataError, match="broken.csv"):
        load_tau_series_csv(broken.read_bytes(), broken)
    badval = tmp_path / "badval.csv"
    badval.write_text("-0.02,1e5\n")
    with pytest.raises(DataError, match="badval.csv"):
        load_tau_series_csv(badval.read_bytes(), badval)
    # one header line at most: a later line that does not parse is an
    # error naming it, not a second header
    for name, text, line in [
            ("bad_first_row.csv", "T_K,tau_s\n0.02x,1.2e5\n0.05,6.1e4\n"
             "0.30,2.1e1\n", 2),
            ("two_headers.csv", "# c\nT_K,tau_s\nT,tau\n0.05,6.1e4\n", 3),
            ("bad_tau_first.csv", "0.02,oops\n0.05,6.1e4\n", 1),
            ("short_row.csv", "T_K,tau_s\n0.02,1.2e5\n0.05\n", 3)]:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DataError, match=f"{name}:{line}: "):
            load_tau_series_csv(path.read_bytes(), path)


def test_residuals_csv(osc, media):
    series = TauTemperatureSeries(rows=((0.02, 1e5, None),
                                        (0.05, 5e4, None)))
    r = np.array([0.125, math.nan])
    buf = io.StringIO()
    write_residuals_csv(series, r, buf, header_comment="manifest abcd")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# manifest abcd"
    assert lines[1] == "T_K,tau_s,log_residual"
    assert lines[2] == "0.02,100000.0,0.125"
    assert lines[3] == "0.05,50000.0,"


def test_fit_dict_contents(osc, media):
    n3_true = X3_REFERENCE * n4_of(media)
    series = series_from_model(osc, media, WIDE_GRID, n3_true)
    fit = fit_he3_concentration(series, osc, media)
    d = concentration_fit_dict(fit)
    assert set(d) == {
        "n3_per_m3", "x3", "residual_rms_log", "n3_bracket_per_m3",
        "regime_mode", "tau_vacuum_s", "fitted_tau_vacuum_s",
        "search_tolerance", "regime_weight_threshold_K", "regime_weight",
        "notes",
    }
    assert d["regime_mode"] == "ReciprocalSum"
    assert d["n3_bracket_per_m3"] == [1e18, 1e23]
    assert abs(d["x3"] - d["n3_per_m3"] / n4_of(media)) < 1e-12 * d["x3"]
    assert "surface" in d["notes"]
    assert d["search_tolerance"] == 1e-6


def test_fit_dict_records_the_tolerance_that_ran(osc, media):
    series = series_from_model(osc, media, WIDE_GRID,
                               X3_REFERENCE * n4_of(media))
    fit = fit_he3_concentration(series, osc, media, tol=1e-3)
    assert fit.search_tolerance == 1e-3
    assert concentration_fit_dict(fit)["search_tolerance"] == 1e-3


def test_fit_dict_records_the_regime_weighting_that_ran(osc, media):
    series = series_from_model(osc, media, WIDE_GRID,
                               X3_REFERENCE * n4_of(media))
    fit = fit_he3_concentration(series, osc, media, regime_threshold=0.3,
                                regime_weight=0.2)
    d = concentration_fit_dict(fit)
    assert (d["regime_weight_threshold_K"], d["regime_weight"]) == (0.3, 0.2)
