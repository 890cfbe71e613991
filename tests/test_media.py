"""Medium properties: viscosity table, quasiparticle gas, number densities.

High-precision reference values below were computed independently with
40-digit arithmetic from the same constants and frozen as literals.
"""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levosc import (ConfigError, DataError, DomainError, HeliumMedia,
                    ViscosityTable, thermal_velocity_he3)
from levosc.cli import _Run, _media, _parse_config, build_parser
from levosc.media import (DEFAULT_VISCOSITY_TABLE, MEDIA_TABLE, T_LAMBDA_K,
                          above_lambda, viscosity_normal_grid)


def rel(a, b):
    return abs(a - b) / abs(b)


NUMBER_KEYS = sorted(key for key, (kind, _) in MEDIA_TABLE.items()
                     if kind == "positive number")


def media_of(section, config=None):
    """The medium that a ``sensitivity`` run reads from a config whose
    ``media`` section is ``section``; the file ``config`` names is not
    read, only the directory it lies in."""
    argv = ["sensitivity"] + ([] if config is None
                              else ["--config", str(config)])
    cfg = _parse_config(json.dumps({"media": section}).encode(), config)
    return _media(cfg, _Run(build_parser().parse_args(argv), b"{}"))


def viscosity_normal(table, T):
    """The array path at one temperature."""
    return float(viscosity_normal_grid(table, T))


class TestViscosity:
    def test_exact_at_nodes(self, media):
        for T, eta in DEFAULT_VISCOSITY_TABLE.entries:
            assert viscosity_normal(media.viscosity, T) == eta

    def test_node_endpoints(self, media):
        assert viscosity_normal(media.viscosity, 1.00) == 23.0e-6
        assert viscosity_normal(media.viscosity, 2.17) == 2.40e-6

    def test_interior_matches_independent_loglog(self, media):
        logT = np.log([t for t, _ in DEFAULT_VISCOSITY_TABLE.entries])
        logE = np.log([e for _, e in DEFAULT_VISCOSITY_TABLE.entries])
        for T in (1.05, 1.27, 1.44, 1.83, 2.05, 2.155):
            expect = math.exp(float(np.interp(math.log(T), logT, logE)))
            assert rel(viscosity_normal(media.viscosity, T), expect) < 1e-14

    def test_out_of_range_rejected_with_interval(self, media):
        # NaN, never an extrapolation, just outside the interval's ends
        assert media.viscosity.valid_range == (1.00, 2.17)
        for T in (0.999, 0.5, 2.171, 5.0):
            assert math.isnan(viscosity_normal(media.viscosity, T))

    def test_monotone_within_segments_continuous_at_nodes(self, media):
        entries = DEFAULT_VISCOSITY_TABLE.entries
        for (t0, e0), (t1, e1) in zip(entries, entries[1:]):
            Ts = np.linspace(t0, t1, 41)
            vals = [viscosity_normal(media.viscosity, float(T)) for T in Ts]
            diffs = np.diff(vals)
            if e1 > e0:
                assert np.all(diffs > 0)
            else:
                assert np.all(diffs < 0)
            # continuity: approaching a node from either side agrees
            eps = 1e-9
            below = viscosity_normal(media.viscosity, t1 - eps)
            assert rel(below, e1) < 1e-6

    def test_from_csv_roundtrip(self, tmp_path):
        path = tmp_path / "eta.csv"
        path.write_text("# replacement table\nT_K,eta_Pa_s\n"
                        "1.0,2.0e-5\n1.5,1.5e-6\n2.1,1.7e-6\n")
        table = ViscosityTable.from_csv(path.read_bytes(), path)
        assert table.valid_range == (1.0, 2.1)
        assert viscosity_normal(table, 1.5) == 1.5e-6

    def test_from_csv_errors(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("1.0,2e-5\n")
        with pytest.raises(DataError):
            ViscosityTable.from_csv(short.read_bytes(), short)
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2e-5\n1.5,oops\n")
        with pytest.raises(DataError):
            ViscosityTable.from_csv(bad.read_bytes(), bad)
        # one header line at most: a bad first data row is no header,
        # so it cannot silently raise the table's floor
        for name, text, line in [
                ("second_header.csv", "T_K,eta\nT,eta\n1.0,2e-5\n2.0,1e-6\n",
                 2),
                ("bad_first_row.csv", "T_K,eta\n0.5x,9e-5\n1.0,2e-5\n"
                 "2.0,1e-6\n", 2),
                ("bad_eta_first.csv", "0.5,oops\n1.0,2e-5\n2.0,1e-6\n", 1)]:
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(DataError, match=f"{name}:{line}: "):
                ViscosityTable.from_csv(path.read_bytes(), path)
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"1.0,2e-5\n\xff\xfe,1e-6\n")
        with pytest.raises(DataError, match="cannot read"):
            ViscosityTable.from_csv(binary.read_bytes(), binary)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ViscosityTable(entries=((1.0, 2e-5),))
        with pytest.raises(ValueError):
            ViscosityTable(entries=((1.5, 2e-5), (1.0, 1e-5)))
        with pytest.raises(ValueError):
            ViscosityTable(entries=((1.0, 2e-5), (1.5, -1e-5)))


class TestThermalVelocity:
    def test_reference_value_40mK(self, media):
        v = thermal_velocity_he3(media, 0.04)
        assert rel(v, 9.139918929787715) < 1e-13

    def test_rejects_nonpositive_T(self, media):
        for T in (0.0, -1.0):
            with pytest.raises(DomainError):
                thermal_velocity_he3(media, T)

    @given(st.floats(min_value=1e-4, max_value=10.0))
    def test_v_squared_over_T_constant(self, T):
        med = HeliumMedia()
        v = thermal_velocity_he3(med, T)
        v1 = thermal_velocity_he3(med, 1.0)
        assert rel(v * v / T, v1 * v1) < 1e-12

    def test_strictly_increasing(self, media):
        Ts = np.geomspace(1e-3, 2.0, 200)
        vs = [thermal_velocity_he3(media, float(T)) for T in Ts]
        assert np.all(np.diff(vs) > 0)


class TestNumberDensities:
    def test_he4_reference(self, media):
        assert rel(media.n4, 2.1831114438521342e+28) < 1e-14
        assert HeliumMedia(he4_mass_density=125.0).n4 \
            == 125.0 / media.m4

    def test_he3_density_at_reference_fraction(self, media):
        n3 = 4.2e-8 * media.n4
        assert rel(n3, 9.169068064178964e+20) < 1e-13

    @given(st.floats(min_value=0.0, max_value=1e-6))
    def test_fraction_identity(self, x3):
        n4 = HeliumMedia().n4
        n3 = x3 * n4
        if x3 == 0.0:
            assert n3 == 0.0
        else:
            assert rel(n3 / n4, x3) < 1e-12


class TestDefaultsAndOverrides:
    def test_default_parameter_values(self, media):
        assert media == HeliumMedia(
            k_B=1.380649e-23, hbar=1.054571817e-34,
            m3=5.0082345e-27, m4=6.6464770e-27,
            c=238.0, k0=1.918e10, delta_over_kB=8.65, m3_eff_ratio=2.64,
            he4_mass_density=145.1)
        assert media.viscosity.valid_range == (1.00, 2.17)

    def test_override_file(self):
        med = media_of({"c": 240.0, "he4_mass_density": 145.3,
                        "m3_eff_ratio": 2.5})
        assert med.c == 240.0
        assert med.m3_eff_ratio == 2.5
        assert med.he4_mass_density == 145.3
        # untouched values keep their defaults
        assert med.k_B == 1.380649e-23

    @given(st.sampled_from(NUMBER_KEYS),
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_one_override_line_sets_its_field_alone(self, key, value):
        defaults = HeliumMedia()
        numbers = sorted(f.name for f in fields(HeliumMedia)
                         if isinstance(getattr(defaults, f.name), float))
        assert numbers == NUMBER_KEYS
        med = media_of({key: value})
        for f in fields(HeliumMedia):
            expected = value if f.name == key else getattr(defaults, f.name)
            assert getattr(med, f.name) == expected, f.name

    def test_override_viscosity_csv_resolved_relative(self, tmp_path):
        # viscosity_csv resolves against the config file's directory
        (tmp_path / "eta.csv").write_text("1.1,9e-6\n1.9,1.3e-6\n")
        med = media_of({"viscosity_csv": "eta.csv"}, tmp_path / "run.json")
        assert med.viscosity.valid_range == (1.1, 1.9)

    def test_override_errors(self):
        with pytest.raises(ConfigError, match="not_a_property"):
            media_of({"not_a_property": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: HeliumMedia(hbar=v),
        lambda v: HeliumMedia(c=v),
        lambda v: HeliumMedia(m3_eff_ratio=v),
        lambda v: ViscosityTable(((1.0, 2e-5), (2.0, v))),
        lambda v: ViscosityTable(((1.0, 2e-5), (v, 1e-6))),
        lambda v: HeliumMedia(he4_mass_density=v),
    ], ids=["hbar", "c", "m3_eff_ratio", "eta", "T", "he4_mass_density"])
    def test_non_finite_values_rejected(self, make, value):
        with pytest.raises(ValueError, match="finite"):
            make(value)

    def test_media_immutable(self, media):
        with pytest.raises(Exception):
            media.he4_mass_density = 150.0
        with pytest.raises(Exception):
            media.k_B = 1.0


def test_superfluid_transition_bounds_the_models():
    # the viscosity table, like every channel, stops below T_lambda
    assert DEFAULT_VISCOSITY_TABLE.valid_range[1] < T_LAMBDA_K
    assert above_lambda(T_LAMBDA_K) is None
    assert above_lambda(0.5) is None
    assert "superfluid transition" in above_lambda(2.18)
    assert above_lambda(math.nan) is None    # refused as not finite
