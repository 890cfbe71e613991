"""Damping channels, composition rules, and sensitivity quantities.

Reference decay times were computed independently with 40-digit
arithmetic from the documented closed forms and frozen as literals;
the implementation must reproduce them from its own code path.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levosc import (ConfigError, DomainError, HeliumMedia, OscillatorSpec,
                    RegimeMode, ViscosityTable, damping_table, drag_force,
                    linewidth, noise_density, viscosity_normal_grid)
from levosc.cli import main
from levosc.damping import (DEFAULT_TAU_VACUUM, KNUDSEN_DRAG_COEFF,
                            compose, damping_metadata, medium_channels,
                            write_damping_csv)


def rel(a, b):
    return abs(a - b) / abs(b)


def reference_n3(media, x3=4.2e-8):
    return x3 * media.n4


def channel(osc, media, name, T, n3=0.0, **kwargs):
    """One channel column of :func:`damping_table` at the ascending
    temperatures ``T``."""
    return getattr(damping_table(osc, media, T, n3, **kwargs), name)


def media_with_viscosity(eta):
    """Default media whose viscosity table is ``eta`` at 1 K exactly."""
    return HeliumMedia(viscosity=ViscosityTable(((1.0, eta),
                                                 (2.0, 2.0 * eta))))


def present(table, i):
    """The channels present in row ``i`` of ``table``."""
    return [float(col[i]) for col in table.columns()[1:6]
            if not math.isnan(col[i])]


class TestOscillatorSpec:
    def test_cold_radius(self, osc):
        assert osc.radius == pytest.approx(0.985e-3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OscillatorSpec(mass=0.0, radius_warm=1e-3)
        with pytest.raises(ValueError):
            OscillatorSpec(mass=1e-6, radius_warm=-1e-3)
        with pytest.raises(ValueError):
            OscillatorSpec(mass=1e-6, radius_warm=1e-3,
                           contraction_fraction=0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["mass", "radius_warm",
                                       "contraction_fraction",
                                       "resonant_frequency"])
    def test_non_finite_values_rejected(self, field, value):
        kwargs = {"mass": 6.33e-6, "radius_warm": 1e-3, field: value}
        with pytest.raises(ValueError):
            OscillatorSpec(**kwargs)


class TestChannelReferences:
    def test_hydrodynamic(self, osc):
        tau = channel(osc, media_with_viscosity(1.4e-6), "tau_hydr", [1.0])
        assert rel(tau[0], 487.04413331965) < 1e-12

    def test_hydrodynamic_at_table_floor(self, osc, media):
        tau = channel(osc, media, "tau_hydr", [1.0])
        assert rel(tau[0], 29.646164636848303) < 1e-12

    def test_phonon(self, osc, media):
        tau = channel(osc, media, "tau_ph", [0.15, 0.3])
        assert rel(tau[1], 121.06324364471) < 1e-11
        assert rel(tau[0], 1937.0118983154) < 1e-11

    def test_roton(self, osc, media):
        tau = channel(osc, media, "tau_rot", [0.6, 0.7])
        assert rel(tau[1], 2.0044755115860) < 1e-11
        assert rel(tau[0], 15.719567058756) < 1e-11

    def test_roton_saturates_instead_of_overflowing(self, osc, media):
        assert channel(osc, media, "tau_rot", [0.01])[0] == math.inf

    def test_phonon_saturates_where_kT4_underflows(self, osc, media):
        table = damping_table(osc, media, [1e-90, 1e-3], 0.0)
        assert table.tau_ph[0] == math.inf
        assert math.isfinite(table.tau_ph[1])
        assert rel(table.tau_total[0], DEFAULT_TAU_VACUUM) < 1e-12

    def test_impurity(self, osc, media):
        tau = channel(osc, media, "tau_imp", [0.04], reference_n3(media))
        assert rel(tau[0], 17889.946273825) < 1e-11

    def test_impurity_zero_density_absent(self, osc, media):
        assert math.isnan(channel(osc, media, "tau_imp", [0.04], 0.0)[0])

    def test_domain_errors(self, osc, media):
        with pytest.raises(DomainError):
            medium_channels(osc, media, [-0.1])
        with pytest.raises(DomainError):
            damping_table(osc, media, [0.04], -1.0)
        with pytest.raises(ValueError):
            media_with_viscosity(0.0)


class TestRatioLaws:
    """Exact scaling exponents, checked as pure ratios."""

    def test_phonon_quartic(self, osc, media):
        for T in (0.1, 0.2, 0.4):
            tau = channel(osc, media, "tau_ph", [T, 2 * T])
            assert rel(tau[1] / tau[0], 1.0 / 16.0) < 1e-12

    def test_impurity_half_power(self, osc, media):
        n3 = reference_n3(media)
        for T in (0.02, 0.04, 0.1):
            tau = channel(osc, media, "tau_imp", [T, 4 * T], n3)
            assert rel(tau[1] / tau[0], 0.5) < 1e-12

    @given(st.floats(min_value=1e-7, max_value=1e-4))
    def test_hydrodynamic_eta_product_constant(self, eta):
        osc = OscillatorSpec(mass=6.33e-6, radius_warm=1e-3)

        def tau_hydr(eta):
            return channel(osc, media_with_viscosity(eta), "tau_hydr",
                           [1.0])[0]

        ref = tau_hydr(1e-6) * 1e-6
        assert rel(tau_hydr(eta) * eta, ref) < 1e-12

    def test_phonon_T4_product_constant(self, osc, media):
        ref = channel(osc, media, "tau_ph", [0.1])[0] * 0.1**4
        grid = np.geomspace(0.01, 2.0, 25)
        for T, tau in zip(grid, channel(osc, media, "tau_ph", grid)):
            assert rel(tau * T**4, ref) < 1e-12

    def test_impurity_n3_sqrtT_product_constant(self, osc, media):
        ref = channel(osc, media, "tau_imp", [0.04], 1e20)[0] \
            * 1e20 * math.sqrt(0.04)
        for T, n3 in ((0.01, 3e19), (0.3, 7e21), (1.7, 1e23)):
            val = channel(osc, media, "tau_imp", [T], n3)[0] \
                * n3 * math.sqrt(T)
            assert rel(val, ref) < 1e-12


class TestComposition:
    """The composition laws, posed through physical inputs: every row of
    the warm grid has all five channels present."""

    WARM = np.linspace(1.0, 2.1, 12)

    def test_reciprocal_sum_below_min(self, osc, media):
        table = damping_table(osc, media, self.WARM, reference_n3(media))
        for i, total in enumerate(table.tau_total):
            channels = present(table, i)
            assert len(channels) == 5
            assert total <= min(channels) * (1.0 + 1e-12)
            # independent harmonic composition
            expect = 1.0 / sum(1.0 / tau for tau in channels)
            assert rel(total, expect) < 1e-14

    def test_two_channel_harmonic(self, osc, media):
        # below the viscosity table, with no helium-3 and no vacuum
        # channel, only phonons and rotons remain
        table = damping_table(osc, media, [0.3, 0.5, 0.7], 0.0,
                              tau_vacuum=None)
        for ph, rot, total in zip(table.tau_ph, table.tau_rot,
                                  table.tau_total):
            assert rel(total, ph * rot / (ph + rot)) < 1e-14

    def test_dominant_only_is_min(self, osc, media):
        grid = np.concatenate([[0.005, 0.1, 0.5], self.WARM])
        table = damping_table(osc, media, grid, reference_n3(media),
                              RegimeMode.DOMINANT_ONLY)
        for i, total in enumerate(table.tau_total):
            assert total == min(present(table, i))

    def test_removing_channel_never_decreases_total(self, osc, media):
        grid = np.geomspace(0.01, 2.1, 40)
        n3 = reference_n3(media)
        for mode in RegimeMode:
            base = damping_table(osc, media, grid, n3, mode).tau_total
            no_vacuum = damping_table(osc, media, grid, n3, mode,
                                      tau_vacuum=None).tau_total
            no_impurity = damping_table(osc, media, grid, 0.0,
                                        mode).tau_total
            assert np.all(no_vacuum >= base)
            assert np.all(no_impurity >= base)

    def test_saturated_channels_contribute_nothing(self, osc, media):
        # phonons and rotons both saturate at 1e-90 K
        table = damping_table(osc, media, [1e-90], 0.0, tau_vacuum=4.1e5)
        assert table.tau_ph[0] == table.tau_rot[0] == math.inf
        assert rel(table.tau_total[0], 4.1e5) < 1e-14
        all_inf = damping_table(osc, media, [1e-90], 0.0, tau_vacuum=None)
        assert all_inf.tau_total[0] == math.inf

    def test_breakdown_invariant_enforced(self, osc, media):
        # compose marks a row whose present channel is not positive;
        # damping_table rejects such a grid (see TestArrayPath)
        medium = medium_channels(osc, media, np.array([0.1, 0.2]))
        table = compose(medium, osc, media, 0.0, tau_vacuum=-1.0)
        assert np.isnan(table.tau_total).all()

    def test_mode_values(self):
        assert RegimeMode.RECIPROCAL_SUM.value == "ReciprocalSum"
        assert RegimeMode.DOMINANT_ONLY.value == "DominantOnly"


class TestSensitivity:
    def test_linewidth_reference(self):
        assert rel(linewidth(410400.0), 7.756088844634277e-07) < 1e-14

    @given(st.floats(min_value=1e-3, max_value=1e9))
    def test_linewidth_identity(self, tau):
        assert abs(linewidth(tau) * tau * math.pi - 1.0) < 1e-15

    def test_drag_force_references(self, osc):
        assert rel(drag_force(osc, 4e4, 1e-5), 3.165e-15) < 1e-12
        assert rel(drag_force(osc, 4.1e5, 1e-5), 3.0878048780487805e-16) \
            < 1e-13

    def test_noise_density_reference(self, osc):
        # 8 k_B M T / tau at 5 mK, 4.1e5 s
        assert rel(noise_density(osc, 0.005, 4.1e5),
                   8.526349434146342e-36) < 1e-13

    def test_homogeneous_in_mass(self, osc):
        for k in (0.5, 2.0, 10.0):
            scaled = OscillatorSpec(mass=k * osc.mass,
                                    radius_warm=osc.radius_warm)
            assert rel(drag_force(scaled, 4e4, 1e-5),
                       k * drag_force(osc, 4e4, 1e-5)) < 1e-12
            assert rel(noise_density(scaled, 0.1, 4e4),
                       k * noise_density(osc, 0.1, 4e4)) < 1e-12

    def test_report_consistent_with_parts(self, osc, tmp_path):
        # the sensitivity report is the CLI's sensitivity.json
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sensitivity": {
            "temperature_K": 0.005, "tau_s": 4.1e5, "velocity_m_s": 1e-5}}))
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "sensitivity.json").read_text())
        assert rep["S_F_N2_per_Hz"] == noise_density(osc, 0.005, 4.1e5)
        assert rep["F_D_N"] == drag_force(osc, 4.1e5, 1e-5)
        assert rep["linewidth_Hz"] == linewidth(4.1e5)
        assert rel(rep["T_over_tau_K_per_s"], 1.2195121951219512e-08) < 1e-14

    def test_invalid_inputs(self, osc):
        with pytest.raises(DomainError):
            linewidth(0.0)
        with pytest.raises(DomainError):
            drag_force(osc, -1.0, 1e-5)
        with pytest.raises(DomainError):
            noise_density(osc, -0.1, 4e4)


class TestDampingCurve:
    def test_row_count_and_order(self, osc, media):
        grid = np.geomspace(0.01, 2.1, 50).tolist()
        table = damping_table(osc, media, grid, 0.0)
        assert all(len(col) == 50 for col in table.columns())
        assert table.T.tolist() == grid

    def test_hydrodynamic_absent_below_floor(self, osc, media):
        hydr = channel(osc, media, "tau_hydr", [0.5, 1.5], reference_n3(media))
        assert math.isnan(hydr[0])
        assert not math.isnan(hydr[1])

    def test_low_T_limit_is_vacuum(self, osc, media):
        # reciprocal sum keeps a sliver of phonon rate; dominant-only
        # lands on the vacuum value exactly
        total = channel(osc, media, "tau_total", [0.005],
                        tau_vacuum=DEFAULT_TAU_VACUUM)
        assert rel(total[0], 4.1e5) < 5e-3
        total = channel(osc, media, "tau_total", [0.005],
                        mode=RegimeMode.DOMINANT_ONLY,
                        tau_vacuum=DEFAULT_TAU_VACUUM)
        assert total[0] == 4.1e5

    def test_finite_positive_over_domain(self, osc, media):
        grid = np.geomspace(0.01, 2.1, 60).tolist()
        for x3 in (0.0, 1e-6):
            for mode in RegimeMode:
                total = channel(osc, media, "tau_total", grid,
                                reference_n3(media, x3) if x3 else 0.0,
                                mode=mode)
                assert np.all(total > 0)
                assert np.all(np.isfinite(total))

    def test_grid_validation(self, osc, media):
        with pytest.raises(ConfigError):
            damping_table(osc, media, [], 0.0)
        with pytest.raises(ConfigError):
            damping_table(osc, media, [0.2, 0.1], 0.0)
        with pytest.raises(ConfigError):
            damping_table(osc, media, [-1.0, 0.1], 0.0)

    def test_domain_error_names_offending_row(self, osc, media):
        with pytest.raises(DomainError) as err:
            damping_table(osc, media, [0.1, 0.2], -5.0)
        assert "row 0" in str(err.value)
        assert "0.1" in str(err.value)

    def test_overflowing_impurity_drag_is_a_domain_error(self, osc):
        # n3 m3* overflows to inf and v_th underflows to 0: their product
        # is NaN, which once read as an absent channel at exit 0
        med = HeliumMedia(m3=1e300)
        with pytest.raises(DomainError,
                           match=r"impurity channel: at T = 0\.01 K"):
            damping_table(osc, med, [0.01, 0.05, 0.1], 1e-8 * med.n4)

    def test_csv_shape_and_roundtrip(self, osc, media):
        table = damping_table(osc, media, [0.02, 0.5, 1.5],
                              reference_n3(media))
        buf = io.StringIO()
        write_damping_csv(table, buf, header_comment="check")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# check"
        assert lines[1] == ("T_K,tau_hydr_s,tau_ph_s,tau_rot_s,tau_imp_s,"
                            "tau_vac_s,tau_total_s")
        assert len(lines) == 5
        # absent hydrodynamic channel leaves an empty field at 0.02 K
        first = lines[2].split(",")
        assert first[1] == ""
        # repr round trip: parsing recovers bit-identical floats
        assert float(first[0]) == 0.02
        assert float(first[6]) == table.tau_total[0]

    def test_metadata_records_gap(self, osc, media):
        meta = damping_metadata(osc, media, 0.0, RegimeMode.RECIPROCAL_SUM,
                                4.1e5)
        assert meta["regime_mode"] == "ReciprocalSum"
        assert meta["hydrodynamic_floor_K"] == 1.0
        assert "cross-over" in meta["crossover_note"]
        assert meta["oscillator"]["radius_cold_m"] == osc.radius


class TestIntrinsicLimitBracket:
    def test_fraction_matching_vacuum_tau_at_40mK(self, osc, media):
        """Invert the impurity law for the fraction whose 40 mK decay
        time equals the measured vacuum value; it must land at the
        parts-per-billion scale."""
        n3_ref = reference_n3(media)
        tau_ref = channel(osc, media, "tau_imp", [0.04], n3_ref)[0]
        n3_star = n3_ref * tau_ref / DEFAULT_TAU_VACUUM
        x3_star = n3_star / media.n4
        assert rel(x3_star, 1.8326286426845414e-09) < 1e-12
        assert 5e-10 <= x3_star <= 5e-9
        # the inversion really solves the equation
        assert rel(channel(osc, media, "tau_imp", [0.04], n3_star)[0],
                   DEFAULT_TAU_VACUUM) < 1e-12


def _reference_channels(osc, media, T, n3, tau_vacuum):
    """The closed forms in plain float arithmetic, None where absent."""
    eta = float(viscosity_normal_grid(media.viscosity, T))
    hydr = None if math.isnan(eta) else \
        osc.mass / (3.0 * math.pi * eta * osc.radius)
    kT = media.k_B * T
    ph = (45.0 * osc.mass * media.hbar**3 * media.c**4
          / (math.pi**2 * kT**4 * math.pi * osc.radius**2))
    boltzmann = math.exp(-media.delta_over_kB / T)
    rot = math.inf if boltzmann == 0.0 else (
        6.0 * math.pi**2 * osc.mass
        / (media.hbar * media.k0**4 * boltzmann * math.pi * osc.radius**2))
    m3_eff = media.m3_eff_ratio * media.m3
    v_th = math.sqrt(2.0 * media.k_B * T / m3_eff)
    imp = None if n3 == 0.0 else (
        4.0 * osc.mass / (KNUDSEN_DRAG_COEFF * math.pi * osc.radius**2
                          * n3 * m3_eff * v_th))
    return {"tau_hydr": hydr, "tau_ph": ph, "tau_rot": rot, "tau_imp": imp,
            "tau_vacuum": tau_vacuum}


class TestArrayPath:
    """The array path against the closed forms, point by point."""

    @given(st.lists(st.floats(min_value=1e-3, max_value=2.5), min_size=1,
                    max_size=30, unique=True),
           st.one_of(st.just(0.0), st.floats(min_value=1e16,
                                             max_value=1e25)),
           st.sampled_from(list(RegimeMode)),
           st.one_of(st.none(), st.floats(min_value=1e2, max_value=1e8)))
    @settings(max_examples=80, deadline=None)
    def test_table_matches_scalar_formulas(self, osc, media, temps, n3, mode,
                                           tau_vacuum):
        grid = sorted(temps)
        table = damping_table(osc, media, grid, n3, mode, tau_vacuum)
        assert table.T.tolist() == grid
        for i, T in enumerate(grid):
            ref = _reference_channels(osc, media, T, n3, tau_vacuum)
            for name, want in ref.items():
                got = float(getattr(table, name)[i])
                if want is None:
                    assert math.isnan(got), name
                elif math.isinf(want):
                    assert got == want, name
                else:
                    assert rel(got, want) < 1e-12, name
            present = [v for v in ref.values() if v is not None]
            total = float(table.tau_total[i])
            assert 0.0 < total <= min(present) * (1.0 + 1e-12)
            if mode is RegimeMode.DOMINANT_ONLY:
                want = min(present)
            else:
                want = 1.0 / math.fsum(1.0 / v for v in present)
            assert rel(total, want) < 1e-12

    def test_invariant_breach_rejected_for_the_grid(self, osc, media):
        with pytest.raises(ValueError, match="row 0"):
            damping_table(osc, media, [0.1, 0.2], 0.0, tau_vacuum=-1.0)
