"""Concentration fitting against model-generated decay-time series.

Forward data always come from damping_table; the checks on the fit use
closed-form scaling identities (tau_imp proportional to 1/n3), plain
ratio arithmetic and scipy's bounded least squares as the independent
route.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from levosc.damping import (
    DEFAULT_TAU_VACUUM,
    OscillatorSpec,
    RegimeMode,
    compose,
    damping_table,
    medium_channels,
)
from levosc import fitting
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

# n3 that the golden-section search, which the exact DOMINANT_ONLY fit
# replaced, found on criterion 08's series
DOMINANT_ONLY_N3 = "0x1.d4e09c9242772p+69"


def criterion_08_series(osc, media):
    """Criterion 08's 15 rows: 5 % log-normal noise drawn row by row."""
    table = damping_table(osc, media, WIDE_GRID, X3_REFERENCE * n4_of(media),
                          RegimeMode.RECIPROCAL_SUM, DEFAULT_TAU_VACUUM)
    rng = np.random.default_rng(20260823)
    return TauTemperatureSeries(rows=tuple(
        (T, tau * math.exp(0.05 * rng.standard_normal()), None)
        for T, tau in zip(table.T.tolist(), table.tau_total.tolist())))


def weighted_objective(series, osc, media, n3, tau_vacuum,
                       mode=RegimeMode.RECIPROCAL_SUM):
    """The fit's weighted sum of squared log residuals at (n3, tau_vac)."""
    weights = np.where(series.temperatures > REGIME_WEIGHT_THRESHOLD,
                       REGIME_WEIGHT, 1.0)
    r = model_residuals(series, osc, media, n3, mode, tau_vacuum)
    ok = np.isfinite(r)
    return float(np.sum(weights[ok] * r[ok] ** 2))


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
                         regime_mode=RegimeMode.RECIPROCAL_SUM)


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


def test_warm_rows_downweighted(osc, media, monkeypatch):
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
    monkeypatch.setattr(fitting, "REGIME_WEIGHT", 1.0)
    hard = fit_he3_concentration(series, osc, media)
    err_soft = abs(soft.n3 - n3_true) / n3_true
    err_hard = abs(hard.n3 - n3_true) / n3_true
    assert err_soft < err_hard
    assert err_soft < 0.02


def test_regime_threshold_configurable(osc, media, monkeypatch):
    n3_true = X3_REFERENCE * n4_of(media)
    cold = series_from_model(osc, media, IMPURITY_GRID, n3_true)
    mid = damping_table(osc, media, [0.4, 0.5], n3_true)
    rows = tuple(cold.rows) + tuple(
        (T, 1.6 * tau, None) for T, tau in zip(mid.T.tolist(),
                                               mid.tau_total.tolist()))
    series = TauTemperatureSeries(rows=rows)
    default = fit_he3_concentration(series, osc, media)
    monkeypatch.setattr(fitting, "REGIME_WEIGHT_THRESHOLD", 0.3)
    lowered = fit_he3_concentration(series, osc, media)
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


@settings(max_examples=20, deadline=None)
@given(x3=st.floats(1e-8, 1e-7), tau_vac=st.floats(5e4, 2e6),
       noise=st.floats(1e-3, 0.05), seed=st.integers(0, 2**32 - 1))
def test_fit_vacuum_matches_least_squares_reference(osc, media, x3, tau_vac,
                                                     noise, seed):
    # reference: scipy's trust-region least squares on the same bounded
    # log parameters, finite-difference Jacobian, started at the truth
    series = series_from_model(osc, media, WIDE_GRID, x3 * n4_of(media),
                               tau_vacuum=tau_vac, noise=noise, seed=seed)
    root_w = np.sqrt(np.where(series.temperatures > REGIME_WEIGHT_THRESHOLD,
                              REGIME_WEIGHT, 1.0))

    def residuals(p):
        return root_w * model_residuals(series, osc, media, math.exp(p[0]),
                                        tau_vacuum=math.exp(p[1]))

    ref = least_squares(residuals, np.log([x3 * n4_of(media), tau_vac]),
                        bounds=(np.log([1e18, 1e4]), np.log([1e23, 1e7])),
                        jac="3-point", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    n3_ref, vac_ref = np.exp(ref.x).tolist()
    fit = fit_he3_concentration(series, osc, media, fit_vacuum=True)
    ours = weighted_objective(series, osc, media, fit.n3,
                              fit.fitted_tau_vacuum)
    assert ours <= weighted_objective(series, osc, media, n3_ref,
                                      vac_ref) * (1.0 + 1e-9)
    assert abs(fit.n3 - n3_ref) / n3_ref < 1e-4


def compose_calls(osc, media, monkeypatch, **options):
    """How many times a fit of criterion 08's series calls ``compose``."""
    calls = []
    compose = fitting.compose

    def counted(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(fitting, "compose", counted)
    fit_he3_concentration(criterion_08_series(osc, media), osc, media,
                          **options)
    return len(calls)


def test_fit_vacuum_takes_few_model_evaluations(osc, media, monkeypatch):
    assert 0 < compose_calls(osc, media, monkeypatch, fit_vacuum=True) < 50


@pytest.mark.parametrize("options, name", [
    ({"bracket": (1e18, math.inf)}, "bracket"),
], ids=["n3_high_inf"])
def test_fit_refuses_bad_brackets_and_weights(osc, media, options, name):
    # refused by name, before the model is evaluated
    with pytest.raises(ConfigError, match=f"^{name} must"):
        fit_he3_concentration(criterion_08_series(osc, media), osc, media,
                              **options)

@pytest.mark.parametrize("fit_vacuum", [False, True])
def test_dominant_only_fit_is_exact(osc, media, fit_vacuum):
    series, mode = criterion_08_series(osc, media), RegimeMode.DOMINANT_ONLY
    if fit_vacuum:
        with pytest.raises(ConfigError, match="fit_vacuum.*DominantOnly"):
            fit_he3_concentration(series, osc, media, mode=mode,
                                  fit_vacuum=True)
        return
    fit = fit_he3_concentration(series, osc, media, mode=mode)
    golden = float.fromhex(DOMINANT_ONLY_N3)
    assert abs(fit.n3 - golden) <= 1e-7 * golden
    assert (weighted_objective(series, osc, media, fit.n3,
                               DEFAULT_TAU_VACUUM, mode)
            <= weighted_objective(series, osc, media, golden,
                                  DEFAULT_TAU_VACUUM, mode))


def test_dominant_only_takes_two_model_evaluations(osc, media, monkeypatch):
    assert 0 < compose_calls(osc, media, monkeypatch,
                             mode=RegimeMode.DOMINANT_ONLY) <= 2


def dominant_grid_objective(series, osc, media, tau_vacuum, u):
    """The DOMINANT_ONLY objective at each ln n3 in ``u``, by one
    broadcast of min(a, b - u) over the rows where the model is defined
    (a: the fastest channel other than the impurity one, b: ln tau_imp
    at n3 = 1), and whether any row is defined."""
    mode = RegimeMode.DOMINANT_ONLY
    table = compose(medium_channels(osc, media, series.temperatures), osc,
                    media, 1.0, mode, tau_vacuum)
    others = np.vstack([table.tau_hydr, table.tau_ph, table.tau_rot,
                        table.tau_vacuum, np.full(len(table.T), np.inf)])
    ok = np.isfinite(model_residuals(series, osc, media, 1.0, mode,
                                     tau_vacuum))
    a, b = np.log(np.nanmin(others, axis=0))[ok], np.log(table.tau_imp)[ok]
    y = np.log(series.taus)[ok]
    w = np.where(series.temperatures > REGIME_WEIGHT_THRESHOLD,
                 REGIME_WEIGHT, 1.0)[ok]
    r = np.minimum(a, b - u[:, None]) - y
    return np.sum(w * r**2, axis=1), bool(ok.any())


@settings(max_examples=300, deadline=None)
@given(temps=st.lists(st.floats(math.log(0.012), math.log(2.0)),
                      min_size=3, max_size=40).map(np.exp),
       x3=st.floats(-9.0, -6.0).map(lambda e: 10.0**e),
       tau_vac=st.floats(4.0, 7.0).map(lambda e: 10.0**e),
       noise=st.floats(0.0, 0.2), seed=st.integers(0, 2**32 - 1),
       given_vacuum=st.one_of(st.none(), st.just(DEFAULT_TAU_VACUUM),
                              st.floats(4.0, 7.0).map(lambda e: 10.0**e)))
@example(temps=np.array(WIDE_GRID), x3=3.541377428587958e-09,
         tau_vac=1623396.9551637252, noise=0.0, seed=0,
         given_vacuum=DEFAULT_TAU_VACUUM)   # where the golden search missed
def test_dominant_only_fit_beats_a_dense_grid(osc, media, temps, x3, tau_vac,
                                              noise, seed, given_vacuum):
    # noisy ReciprocalSum data, fitted with the min(...) model
    mode = RegimeMode.DOMINANT_ONLY
    data = compose(medium_channels(osc, media, temps), osc, media,
                   x3 * n4_of(media), RegimeMode.RECIPROCAL_SUM, tau_vac)
    noisy = data.tau_total * np.exp(
        noise * np.random.default_rng(seed).standard_normal(len(temps)))
    series = TauTemperatureSeries(rows=tuple(
        (T, tau, None) for T, tau in zip(temps.tolist(), noisy.tolist())))
    u = np.linspace(math.log(1e18), math.log(1e23), 4001)
    grid, defined = dominant_grid_objective(series, osc, media, given_vacuum,
                                            u)
    try:
        fit = fit_he3_concentration(series, osc, media, mode=mode,
                                    tau_vacuum=given_vacuum)
    except DataError:
        assert not defined
        return
    except BracketError:
        # the grid also finds its minimum within 0.5 % of an edge
        edge = np.minimum(u - u[0], u[-1] - u) < 0.005 * (u[-1] - u[0])
        assert grid[edge].min() <= grid[~edge].min() * (1.0 + 1e-12)
        return
    assert defined
    assert (weighted_objective(series, osc, media, fit.n3, given_vacuum,
                               mode) <= grid.min() * (1.0 + 1e-12))


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


def test_fit_needs_a_defined_row_per_fitted_parameter(osc, media):
    # one row and two parameters: a valley of exact fits, where the
    # search once stopped and reported a point of it
    one = TauTemperatureSeries(rows=((0.02, 1e5, None),))
    with pytest.raises(DataError, match="on 1 row.* the 2 fitted"):
        fit_he3_concentration(one, osc, media, fit_vacuum=True)
    assert fit_he3_concentration(one, osc, media).residual_rms < 1e-12
    n3_true, tau_vac_true = X3_REFERENCE * n4_of(media), 2.0e5
    two = series_from_model(osc, media, [0.02, 0.3], n3_true,
                            tau_vacuum=tau_vac_true)
    fit = fit_he3_concentration(two, osc, media, fit_vacuum=True)
    assert abs(fit.n3 - n3_true) / n3_true < 1e-3
    assert abs(fit.fitted_tau_vacuum - tau_vac_true) / tau_vac_true < 1e-3


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
    assert d["regime_weight_threshold_K"] == REGIME_WEIGHT_THRESHOLD
    assert d["regime_weight"] == REGIME_WEIGHT
