"""Top-level behavior gate: ten end-to-end checks at fixed tolerances.

Each check prints one PASS line once its assertions have held, so a
verbose run reads as a ten-line scorecard. Numbers quoted here are the
package's published operating points, not tuning values.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from levosc import axisym, detection
from levosc.damping import (
    DEFAULT_TAU_VACUUM,
    OscillatorSpec,
    RegimeMode,
    damping_table,
    drag_force,
    linewidth,
)
from levosc.detection import (
    CoilSpec,
    capacitance_from_resonance,
    coaxial_geometry,
    mutual_inductance,
    position_sweep,
    resonance_frequency,
)
from levosc.fitting import (
    TauTemperatureSeries,
    fit_he3_concentration,
    predict_contamination,
)
from levosc.ringdown import (
    BlockSchedule,
    RingdownParams,
    analyze_ringdown,
    synthesize_ringdown,
)

MU0 = 4.0e-7 * math.pi
X3_REFERENCE = 4.2e-8
TAU_RUN = 410400.0            # 114 h


def n4_of(media):
    return media.n4


def loglog_slope(osc, media, t_lo, t_hi, x3, mode):
    grid = np.geomspace(t_lo, t_hi, 12)
    n3 = x3 * n4_of(media)
    table = damping_table(osc, media, grid.tolist(), n3, mode,
                          DEFAULT_TAU_VACUUM)
    lntau = np.log(table.tau_total)
    return float(np.polyfit(np.log(grid), lntau, 1)[0])


def test_criterion_01_linewidth(osc):
    lw = linewidth(TAU_RUN)
    assert 0.74e-6 <= lw <= 0.78e-6
    assert abs(lw - 0.776e-6) < 0.5e-9
    print(f"criterion 01 PASS: linewidth(410400 s) = {lw * 1e6:.3f} uHz, "
          "inside 0.76 +/- 0.02 uHz")


def test_criterion_02_drag_force(osc):
    force = drag_force(osc, 4.0e4, 1.0e-5)
    assert 2.8e-15 <= force <= 3.5e-15
    print(f"criterion 02 PASS: drag force {force * 1e15:.2f} fN at "
          "tau = 4e4 s, V = 10 um/s, inside [2.8, 3.5] fN")


def test_criterion_03_lc_consistency():
    f = resonance_frequency(21e-6, 470e-12)
    assert abs(f - 1.60e6) / 1.60e6 < 0.01
    c = capacitance_from_resonance(1.6e6, 21e-6)
    assert abs(c - 470e-12) / 470e-12 < 0.01
    print(f"criterion 03 PASS: f(21 uH, 470 pF) = {f / 1e6:.3f} MHz and "
          f"C(1.6 MHz, 21 uH) = {c * 1e12:.1f} pF, both within 1%")


def test_criterion_04_power_laws(osc, media):
    n3 = 1e20
    for T in (0.1, 0.2, 0.4):
        table = damping_table(osc, media, [T, 2.0 * T, 4.0 * T], n3)
        r_ph = table.tau_ph[1] / table.tau_ph[0]
        assert abs(r_ph - 1.0 / 16.0) < 1e-12 / 16.0
        r_imp = table.tau_imp[2] / table.tau_imp[0]
        assert abs(r_imp - 0.5) < 1e-12 * 0.5
    print("criterion 04 PASS: tau_ph(2T)/tau_ph(T) = 1/16 and "
          "tau_imp(4T)/tau_imp(T) = 1/2 to 1e-12 at T in {0.1, 0.2, 0.4} K")


def test_criterion_05_regime_slopes(osc, media):
    # single-channel regime slopes; evaluated with the dominant-channel
    # composition rule so the parallel channels cannot dilute them
    mode = RegimeMode.DOMINANT_ONLY
    s_ph = loglog_slope(osc, media, 0.15, 0.35, 0.0, mode)
    s_imp = loglog_slope(osc, media, 0.02, 0.05, X3_REFERENCE, mode)
    assert abs(s_ph - (-4.0)) <= 0.05 * 4.0
    assert abs(s_imp - (-0.5)) <= 0.05 * 0.5
    print(f"criterion 05 PASS: slopes {s_ph:+.3f} on 0.15-0.35 K (x3 = 0) "
          f"and {s_imp:+.3f} on 0.02-0.05 K (x3 = 4.2e-8), "
          "within 5% of -4 and -0.5")


def test_criterion_06_intrinsic_limit_bracket(osc, media):
    n4 = n4_of(media)

    def tau_impurity(x3):
        return damping_table(osc, media, [0.04], x3 * n4).tau_imp[0]

    def excess(x3):
        return tau_impurity(x3) - DEFAULT_TAU_VACUUM

    lo, hi = 5e-10, 5e-9
    assert excess(lo) > 0 > excess(hi)
    x3_star = brentq(excess, lo, hi, xtol=1e-22, rtol=1e-14)
    assert lo < x3_star < hi
    tau_at_root = tau_impurity(x3_star)
    assert abs(tau_at_root - DEFAULT_TAU_VACUUM) / DEFAULT_TAU_VACUUM < 1e-10
    print(f"criterion 06 PASS: tau_imp(40 mK, x3) = 4.1e5 s at "
          f"x3 = {x3_star:.3e}, inside [5e-10, 5e-9]")


def test_criterion_07_ringdown_monte_carlo():
    started = time.monotonic()
    schedule = BlockSchedule(sample_rate=50.0, total_duration=432000.0,
                             block_length=300.0, block_interval=3600.0)
    taus = []
    sigmas = []
    for seed in range(100):
        params = RingdownParams(amplitude0=1.0, f0=2.7, tau=TAU_RUN,
                                noise_rms=1.2, seed=seed)
        _, fit = analyze_ringdown(synthesize_ringdown(params, schedule),
                                  schedule, 2.7)
        taus.append(fit.tau)
        sigmas.append(fit.sigma_tau)
    taus = np.array(taus)
    sigmas = np.array(sigmas)
    rel_err = np.abs(taus - TAU_RUN) / TAU_RUN
    assert rel_err.max() < 0.03
    spread = float(taus.std(ddof=1))
    ratio = float(sigmas.mean()) / spread
    assert 0.5 <= ratio <= 1.5
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 07 PASS: 100-seed recovery max error "
          f"{rel_err.max() * 100:.2f}% (< 3%), sigma_tau/spread = "
          f"{ratio:.2f} (in [0.5, 1.5]), {elapsed:.1f} s")


def test_criterion_08_concentration_recovery(osc, media):
    started = time.monotonic()
    n3_true = X3_REFERENCE * n4_of(media)
    grid = np.geomspace(0.015, 0.5, 15).tolist()
    table = damping_table(osc, media, grid, n3_true,
                          RegimeMode.RECIPROCAL_SUM, DEFAULT_TAU_VACUUM)
    rng = np.random.default_rng(20260823)
    noisy = [(T, tau * math.exp(0.05 * rng.standard_normal()), None)
             for T, tau in zip(table.T.tolist(), table.tau_total.tolist())]
    series = TauTemperatureSeries(rows=tuple(noisy))
    fit = fit_he3_concentration(series, osc, media)
    assert abs(fit.x3 - X3_REFERENCE) / X3_REFERENCE < 0.10

    base, contaminated = predict_contamination(fit.x3, 1e-7, osc, media,
                                               [0.015])
    ratio = contaminated.tau_total[0] / base.tau_total[0]
    assert abs(ratio - 0.296) / 0.296 < 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"criterion 08 PASS: x3 recovered {fit.x3:.3e} "
          f"({abs(fit.x3 - X3_REFERENCE) / X3_REFERENCE * 100:.1f}% off), "
          f"contamination ratio {ratio:.4f} = 0.296 +/- 1%, "
          f"{elapsed:.1f} s")


def test_criterion_09_oracle_vs_dipole():
    started = time.monotonic()
    geom = coaxial_geometry()
    receiver = geom.receivers[0]
    positions = np.linspace(0.005, 0.019, 8)
    centers = receiver.center_v + np.outer(positions, receiver.axis_v)
    worst = 0.0
    dl_model = position_sweep(geom, centers, 0.985e-3).delta_L.tolist()
    dl_oracle = axisym.oracle_sweep(geom, centers, 0.985e-3, 256).tolist()
    for model, oracle in zip(dl_model, dl_oracle):
        rel = abs(model - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel <= 0.15
    for dl in (dl_model, dl_oracle):
        mags = [abs(v) for v in dl]
        assert all(b < a for a, b in zip(mags, mags[1:]))
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"criterion 09 PASS: 256x256 oracle vs dipole model within "
          f"{worst * 100:.1f}% (<= 15%) over 0.5-1.9 cm, both strictly "
          f"monotone, {elapsed:.0f} s")


def test_criterion_10_reciprocity_and_far_field():
    started = time.monotonic()
    rng = np.random.default_rng(20260823)
    worst_recip = 0.0
    worst_ff = 0.0
    for _ in range(100):
        a_r = rng.uniform(2e-3, 8e-3)
        b_r = rng.uniform(2e-3, 8e-3)
        na = int(rng.integers(10, 200))
        nb = int(rng.integers(10, 200))

        # general pose for reciprocity
        axis_a = rng.normal(size=3)
        axis_a /= np.linalg.norm(axis_a)
        axis_b = rng.normal(size=3)
        axis_b /= np.linalg.norm(axis_b)
        center_b = rng.uniform(0.03, 0.06) * axis_a
        coil_a = CoilSpec(center=(0.0, 0.0, 0.0), axis=tuple(axis_a),
                          mean_radius=a_r, turns=na,
                          conductor_cross_section_total=1e-8,
                          role="transmitter")
        coil_b = CoilSpec(center=tuple(center_b), axis=tuple(axis_b),
                          mean_radius=b_r, turns=nb,
                          conductor_cross_section_total=1e-8,
                          role="receiver")
        m_ab = mutual_inductance(coil_a, coil_b)
        m_ba = mutual_inductance(coil_b, coil_a)
        scale = max(abs(m_ab), abs(m_ba))
        worst_recip = max(worst_recip, abs(m_ab - m_ba) / scale)
        assert abs(m_ab - m_ba) <= 1e-6 * scale

        # coaxial far field of the same pair against the asymptote
        d = rng.uniform(0.10, 0.15)
        far_a = CoilSpec(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                         mean_radius=a_r, turns=na,
                         conductor_cross_section_total=1e-8,
                         role="transmitter")
        far_b = CoilSpec(center=(0.0, 0.0, d), axis=(0.0, 0.0, 1.0),
                         mean_radius=b_r, turns=nb,
                         conductor_cross_section_total=1e-8,
                         role="receiver")
        m_far = mutual_inductance(far_a, far_b)
        asymptote = MU0 * math.pi * a_r**2 * b_r**2 * na * nb / (2 * d**3)
        rel = abs(m_far - asymptote) / asymptote
        worst_ff = max(worst_ff, rel)
        assert rel <= 0.02
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"criterion 10 PASS: reciprocity within {worst_recip:.2e} "
          f"(<= 1e-6) and far field within {worst_ff * 100:.2f}% "
          f"(<= 2%) on 100 random pairs, {elapsed:.1f} s")
