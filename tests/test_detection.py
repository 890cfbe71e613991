"""Coil fields, mutual/self inductance, flux exclusion, LC readout.

Cross-checks run against routes the implementation does not use: a
segment-summation Biot-Savart integrator, the coaxial closed-form
mutual-inductance expression, and on-axis closed forms evaluated with
40-digit arithmetic and frozen as literals.
"""

import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ellipe, ellipk

from levosc import (ConfigError, DomainError, GeometryError,
                    CoilSpec, DetectionGeometry, DriveSpec,
                    capacitance_from_resonance, coaxial_geometry,
                    coil_field, induced_dipole, load_geometry,
                    mutual_inductance, oracle_sweep, orthogonal_geometry,
                    position_sweep,
                    resonance_frequency, self_inductance)
from levosc import detection
from levosc.detection import MU0, SweepResult, _ellipke, write_sweep_csv


def rel(a, b):
    return abs(a - b) / abs(b)


def biot_savart(coil: CoilSpec, current: float, point, segments=4000):
    """Straight-segment polygon approximation of the loop field."""
    phi = np.linspace(0.0, 2.0 * math.pi, segments + 1)
    axis = coil.axis_v
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    u = seed - np.dot(seed, axis) * axis
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    ring = (coil.center_v[None, :]
            + coil.mean_radius * (np.outer(np.cos(phi), u)
                                  + np.outer(np.sin(phi), v)))
    mid = 0.5 * (ring[:-1] + ring[1:])
    dl = np.diff(ring, axis=0)
    rvec = np.asarray(point, dtype=float)[None, :] - mid
    dist = np.linalg.norm(rvec, axis=1)
    integrand = np.cross(dl, rvec) / dist[:, None]**3
    return MU0 * coil.turns * current / (4.0 * math.pi) \
        * integrand.sum(axis=0)


def coaxial_closed_form(coil_a: CoilSpec, coil_b: CoilSpec) -> float:
    """Filament formula for coaxial loops, elliptic modulus route."""
    d = abs(coil_a.center_v[2] - coil_b.center_v[2])
    a, b = coil_a.mean_radius, coil_b.mean_radius
    m = 4.0 * a * b / ((a + b)**2 + d**2)
    k = math.sqrt(m)
    return (MU0 * coil_a.turns * coil_b.turns * math.sqrt(a * b)
            * ((2.0 - m) * ellipk(m) - 2.0 * ellipe(m)) / k)


def random_coil(rng, role="receiver"):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return CoilSpec(center=tuple(rng.uniform(-0.05, 0.05, size=3)),
                    axis=tuple(axis),
                    mean_radius=float(rng.uniform(0.002, 0.02)),
                    turns=int(rng.integers(1, 200)),
                    conductor_cross_section_total=1e-6, role=role)


def rotated_geometry(geometry, R):
    def rot_coil(c):
        return CoilSpec(center=tuple(R @ c.center_v),
                        axis=tuple(R @ c.axis_v / np.linalg.norm(R @ c.axis_v)),
                        mean_radius=c.mean_radius, turns=c.turns,
                        conductor_cross_section_total=
                        c.conductor_cross_section_total, role=c.role)
    return DetectionGeometry(
        transmitter=rot_coil(geometry.transmitter),
        receivers=tuple(rot_coil(r) for r in geometry.receivers),
        drive=geometry.drive, capacitance=geometry.capacitance,
        receiver_inductance=geometry.receiver_inductance)


def random_rotation(rng):
    # QR of a gaussian matrix, sign-fixed to a proper rotation
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestEllipticIntegrals:
    @given(st.one_of(
        st.floats(min_value=0.0, max_value=1.0 - 1e-16),
        st.floats(min_value=0.0, max_value=1e-12),
        st.floats(min_value=1.0 - 1e-12, max_value=1.0 - 1e-16)))
    @example(0.0)
    @example(5e-324)
    @example(1e-300)
    @example(0.5)
    @example(1.0 - 1e-16)
    @settings(max_examples=400, deadline=None)
    def test_agm_matches_scipy(self, m):
        K, E = _ellipke(m)
        assert rel(float(K), ellipk(m)) <= 1e-14
        assert rel(float(E), ellipe(m)) <= 1e-14

    def test_elementwise_over_arrays(self):
        m = np.linspace(0.0, 1.0, 101, endpoint=False).reshape(1, 101)
        K, E = _ellipke(m)
        assert K.shape == E.shape == m.shape
        assert np.all(np.abs(K / ellipk(m) - 1.0) <= 1e-14)
        assert np.all(np.abs(E / ellipe(m) - 1.0) <= 1e-14)


class TestCoilField:
    def test_on_axis_closed_form(self):
        coil = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=3e-3,
                        turns=60, conductor_cross_section_total=1.2e-6)
        for z in (1e-3, 5e-3, 2e-2):
            B = coil_field(coil, 1.0, [(0.0, 0.0, z)])[0]
            expect = MU0 * 60 * (3e-3)**2 / (2 * ((3e-3)**2 + z**2)**1.5)
            assert abs(B[0]) < 1e-18 and abs(B[1]) < 1e-18
            assert rel(B[2], expect) < 1e-12

    def test_against_biot_savart_off_axis(self):
        coil = CoilSpec(center=(0.01, -0.02, 0.005),
                        axis=tuple(np.array([1.0, 2.0, -0.5])
                                   / np.linalg.norm([1.0, 2.0, -0.5])),
                        mean_radius=8e-3, turns=17,
                        conductor_cross_section_total=1e-6)
        points = [(0.0, 0.0, 0.0), (0.02, -0.01, 0.01), (0.01, -0.03, 0.02)]
        for p in points:
            B = coil_field(coil, 0.7, [p])[0]
            B_ref = biot_savart(coil, 0.7, p)
            assert np.linalg.norm(B - B_ref) / np.linalg.norm(B_ref) < 1e-6

    def test_near_axis_branch_continuous(self):
        coil = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=3e-3,
                        turns=10, conductor_cross_section_total=1e-6)
        on, near, off = coil_field(coil, 1.0, [(0.0, 0.0, 5e-3),
                                               (1e-16, 0.0, 5e-3),
                                               (1e-9, 0.0, 5e-3)])
        assert np.allclose(on, near, rtol=1e-12, atol=1e-15)
        assert rel(off[2], on[2]) < 1e-6
        # the radial component grows linearly from zero off the axis
        assert abs(off[0]) < 1e-9

    def test_filament_singularity_rejected(self):
        coil = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=3e-3,
                        turns=10, conductor_cross_section_total=1e-6)
        with pytest.raises(DomainError):
            coil_field(coil, 1.0, [(0.0, 0.0, 1e-3), (3e-3, 0.0, 0.0)])

    def test_linear_in_current(self):
        coil = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=3e-3,
                        turns=10, conductor_cross_section_total=1e-6)
        p = [(0.002, 0.001, 0.004)]
        assert np.allclose(coil_field(coil, 2.5, p),
                           2.5 * coil_field(coil, 1.0, p), rtol=1e-14)

    def test_block_rows_match_single_points(self):
        coil = CoilSpec(center=(0.001, 0, 0), axis=(0, 0, 1),
                        mean_radius=3e-3, turns=10,
                        conductor_cross_section_total=1e-6)
        points = [(0.002, 0.001, 0.004), (0.0, 0.0, -0.01), (0.01, 0.0, 0.0)]
        block = coil_field(coil, 1.0, points)
        assert block.shape == (3, 3)
        for row, p in zip(block, points):
            assert np.array_equal(row, coil_field(coil, 1.0, [p])[0])

    @pytest.mark.parametrize("points", [(0.0, 0.0, 1e-3),
                                        [[0.0, 1e-3]]])
    def test_points_must_be_a_block(self, points):
        coil = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=3e-3,
                        turns=10, conductor_cross_section_total=1e-6)
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            coil_field(coil, 1.0, points)


class TestInductances:
    def test_receiver_self_inductance_scale(self):
        rx = coaxial_geometry().receivers[0]
        L = self_inductance(rx)
        assert rel(L, 2.2518918981121808e-05) < 1e-12
        # geometric estimate lands at the order of the measured 21 uH
        assert 1.5e-5 < L < 3.0e-5

    def test_self_inductance_rejects_fat_bundle(self):
        coil = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=1e-3,
                        turns=10, conductor_cross_section_total=1e-5)
        with pytest.raises(GeometryError):
            self_inductance(coil)

    def test_reference_pair_against_closed_form(self):
        g = coaxial_geometry()
        M = mutual_inductance(g.transmitter, g.receivers[0])
        M_ref = coaxial_closed_form(g.transmitter, g.receivers[0])
        assert rel(M, M_ref) < 1e-9
        assert rel(M, 9.435139592492353e-07) < 1e-9

    def test_quadrature_built_once(self, monkeypatch):
        # three calls share one Gauss-Legendre rule, and reusing it keeps
        # the reference pair's bits
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(degree):
            calls.append(degree)
            return leggauss(degree)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        detection._gauss_legendre_32.cache_clear()
        g = coaxial_geometry()
        values = [mutual_inductance(g.transmitter, g.receivers[0])
                  for _ in range(3)]
        assert len(calls) <= 1
        assert [v.hex() for v in values] == ["0x1.fa8b923696622p-21"] * 3

    def test_closed_form_across_separations(self):
        for d in (0.008, 0.0227, 0.05, 0.12):
            a = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=12.5e-3,
                         turns=100, conductor_cross_section_total=2.2e-6,
                         role="transmitter")
            b = CoilSpec(center=(0, 0, d), axis=(0, 0, 1), mean_radius=3e-3,
                         turns=60, conductor_cross_section_total=1.2e-6)
            assert rel(mutual_inductance(a, b),
                       coaxial_closed_form(a, b)) < 1e-8

    def test_reciprocity_random_pairs(self, rng):
        checked = 0
        while checked < 100:
            a = random_coil(rng, role="transmitter")
            b = random_coil(rng)
            try:
                M_ab = mutual_inductance(a, b)
                M_ba = mutual_inductance(b, a)
            except GeometryError:
                continue
            assert rel(M_ab, M_ba) < 1e-6
            checked += 1

    def test_far_field_dipole_limit(self):
        a = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=2e-3,
                     turns=20, conductor_cross_section_total=1e-6,
                     role="transmitter")
        b = CoilSpec(center=(0, 0, 0.1), axis=(0, 0, 1), mean_radius=3e-3,
                     turns=35, conductor_cross_section_total=1e-6)
        asymptote = (MU0 * math.pi * (2e-3)**2 * (3e-3)**2 * 20 * 35
                     / (2.0 * 0.1**3))
        assert rel(mutual_inductance(a, b), asymptote) < 0.02

    def test_overlapping_coils_rejected(self):
        a = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=5e-3,
                     turns=10, conductor_cross_section_total=1e-6,
                     role="transmitter")
        b = CoilSpec(center=(0, 0, 1e-5), axis=(0, 0, 1), mean_radius=5e-3,
                     turns=10, conductor_cross_section_total=1e-6)
        with pytest.raises(GeometryError):
            mutual_inductance(a, b)


class TestLCResonance:
    def test_reference_values(self):
        f = resonance_frequency(21e-6, 470e-12)
        assert rel(f, 1601996.4719398874) < 1e-12
        assert rel(f, 1.60e6) < 0.01
        C = capacitance_from_resonance(1.6e6, 21e-6)
        assert rel(C, 4.7117365905105e-10) < 1e-12
        assert rel(C, 470e-12) < 0.01

    @given(st.floats(min_value=1e-7, max_value=1e-3),
           st.floats(min_value=1e-12, max_value=1e-8))
    @settings(max_examples=60)
    def test_roundtrip_identity(self, L, C):
        f = resonance_frequency(L, C)
        assert rel(capacitance_from_resonance(f, L), C) < 1e-12
        assert rel(resonance_frequency(L, capacitance_from_resonance(f, L)),
                   f) < 1e-12

    def test_invalid(self):
        with pytest.raises(DomainError):
            resonance_frequency(0.0, 470e-12)
        with pytest.raises(DomainError):
            capacitance_from_resonance(1.6e6, -1e-6)


class TestInducedDipole:
    def test_formula_and_opposition(self):
        B = np.array([1e-4, -2e-4, 5e-5])
        m = induced_dipole(B, 1e-3)
        expect = -(2.0 * math.pi * 1e-9 / MU0) * B
        assert np.allclose(m, expect, rtol=1e-14)
        assert float(np.dot(m, B)) < 0.0

    def test_linear_in_field(self):
        B = np.array([1e-4, 0.0, 2e-4])
        assert np.allclose(induced_dipole(3.0 * B, 1e-3),
                           3.0 * induced_dipole(B, 1e-3), rtol=1e-14)

    def test_cubic_in_radius(self):
        B = np.array([0.0, 0.0, 1e-4])
        m1 = induced_dipole(B, 1e-3)
        m2 = induced_dipole(B, 2e-3)
        assert rel(m2[2], 8.0 * m1[2]) < 1e-12

    def test_block_with_one_radius_per_row(self):
        B = np.array([[1e-4, -2e-4, 5e-5], [0.0, 0.0, 1e-4]])
        radii = np.array([1e-3, 2e-3])
        m = induced_dipole(B, radii)
        assert m.shape == (2, 3)
        for row, b, r in zip(m, B, radii):
            assert np.array_equal(row, induced_dipole(b, r))
        assert np.array_equal(induced_dipole(B, 1e-3),
                              induced_dipole(B, np.full(2, 1e-3)))

    def test_non_positive_radius_rejected(self):
        B = np.array([[0.0, 0.0, 1e-4], [0.0, 0.0, 1e-4]])
        with pytest.raises(DomainError):
            induced_dipole(B, np.array([1e-3, 0.0]))


def on_axis_field(coil: CoilSpec, z: float) -> float:
    """Closed-form B_z per unit current on the loop axis, a distance z
    from the coil plane: mu0 N a^2 / (2 (a^2 + z^2)^(3/2))."""
    a = coil.mean_radius
    return MU0 * coil.turns * a**2 / (2.0 * (a**2 + z**2)**1.5)


RADIUS = 0.985e-3


def one_pose(g, center, radius=RADIUS, **kwargs):
    """Sweep of a single pose."""
    return position_sweep(g, [center], radius, **kwargs)


class TestEffectiveInductance:
    def test_on_axis_against_closed_form(self):
        g = coaxial_geometry()
        res = one_pose(g, (0.0, 0.0, 9e-3))
        L_eff, dL = res.L_eff[0], res.delta_L[0]
        # the sphere's dipole flux per unit receiver current, from the
        # axial closed form: -2 pi R^3 B^2 / mu0
        B = on_axis_field(g.receivers[0], 9e-3)
        assert rel(dL, -2.0 * math.pi * RADIUS**3 * B**2 / MU0) < 1e-12
        assert rel(dL, -7.545680700876975e-10) < 1e-12
        assert L_eff == pytest.approx(21e-6 + dL, rel=1e-14)

    def test_measured_inductance_override(self):
        g = coaxial_geometry()
        g_geo = dataclasses.replace(coaxial_geometry(),
                                    receiver_inductance=None)
        center = (0.0, 0.0, 9e-3)
        meas, geom = one_pose(g, center), one_pose(g_geo, center)
        dL1, dL2 = meas.delta_L[0], geom.delta_L[0]
        assert dL1 == dL2
        assert rel(geom.L_eff[0] - dL2,
                   self_inductance(g.receivers[0])) < 1e-12

    def test_flux_exclusion_negative_everywhere(self):
        g = coaxial_geometry()
        centers = np.outer(np.linspace(0.002, 0.019, 25), (0.0, 0.0, 1.0))
        res = position_sweep(g, centers, RADIUS)
        assert not res.errors
        assert np.all(res.delta_L < 0.0)

    def test_clearance_guard(self):
        g = coaxial_geometry()
        # sphere surface 0.825 mm from the receiver winding circle
        res = one_pose(g, (2.2e-3, 0.0, 0.2e-3))
        assert [i for i, _ in res.errors] == [0]
        assert "of a receiver winding" in res.errors[0][1]
        assert math.isnan(res.L_eff[0])
        # passing clearance, touching nothing
        assert not one_pose(g, (0.0, 0.0, 9e-3)).errors


class TestInducedVoltage:
    def test_rotation_invariance(self, rng):
        g = coaxial_geometry()
        center = np.array([0.0012, -0.0007, 8e-3])
        V0 = one_pose(g, center).V[0]
        for _ in range(3):
            R = random_rotation(rng)
            g_rot = rotated_geometry(g, R)
            assert rel(one_pose(g_rot, R @ center).V[0], V0) < 1e-9

    def test_orthogonal_geometry_symmetry_nulls(self):
        g = orthogonal_geometry()
        on_axis = (0.0, 0.0, 0.0)
        assert one_pose(g, on_axis, which_receiver=0).V[0] == 0.0
        off_x = (0.003, 0.0, 0.0)
        assert one_pose(g, off_x, which_receiver=0).V[0] > 0.0
        # the y-axis receiver stays blind to x displacement
        assert one_pose(g, off_x, which_receiver=1).V[0] == pytest.approx(
            0.0, abs=1e-18)

    def test_orthogonal_voltage_decays_on_recession(self):
        # every pose sits at the same position along the x-axis receiver,
        # so each is a sweep of its own
        g = orthogonal_geometry()
        Vs = [one_pose(g, (0.003, 0.0, z)).V[0]
              for z in np.linspace(0.0, -0.02, 9)]
        assert all(b < a for a, b in zip(Vs, Vs[1:]))

    def test_receiver_driven_uses_L_eff(self):
        g = coaxial_geometry()
        V = one_pose(g, (0.0, 0.0, 9e-3), driven="receiver").V[0]
        B = on_axis_field(g.receivers[0], 9e-3)
        L_eff = 21e-6 - 2.0 * math.pi * RADIUS**3 * B**2 / MU0
        expect = L_eff * g.drive.amplitude * g.drive.angular_frequency
        assert rel(V, expect) < 1e-14

    def test_transmitter_driven_against_closed_forms(self):
        # M0 from Maxwell's coaxial formula, the sphere's share from the
        # axial fields of both coils: -2 pi R^3 B_t B_r / mu0
        g = coaxial_geometry()
        tx, rx = g.transmitter, g.receivers[0]
        V = one_pose(g, (0.0, 0.0, 9e-3)).V[0]
        B_t = on_axis_field(tx, tx.center[2] - 9e-3)
        B_r = on_axis_field(rx, 9e-3)
        M_eff = (coaxial_closed_form(tx, rx)
                 - 2.0 * math.pi * RADIUS**3 * B_t * B_r / MU0)
        expect = M_eff * g.drive.amplitude * g.drive.angular_frequency
        assert rel(V, expect) < 1e-9

    def test_bad_driven_rejected(self):
        g = coaxial_geometry()
        with pytest.raises(ConfigError):
            one_pose(g, (0.0, 0.0, 9e-3), driven="sideways")


class TestPositionSweep:
    @staticmethod
    def centers(zs):
        return np.outer(zs, (0.0, 0.0, 1.0))

    def test_coaxial_sweep_monotone_columns(self):
        g = coaxial_geometry()
        res = position_sweep(g, self.centers(np.linspace(0.019, 0.002, 18)),
                             RADIUS)
        assert not res.errors
        assert np.all(np.diff(res.f) > 0)
        assert np.all(np.diff(res.V) < 0)
        assert np.all(np.diff(np.abs(res.delta_L)) > 0)

    def test_sweep_positions_signed_along_receiver_axis(self):
        g = coaxial_geometry()
        res = position_sweep(g, self.centers([0.004, 0.009]), RADIUS)
        assert res.position[0] == pytest.approx(0.004)
        assert res.position[1] == pytest.approx(0.009)

    def test_failed_rows_become_nan_and_are_reported(self):
        g = coaxial_geometry()
        # last pose sits off-axis right next to the receiver winding
        path = [*self.centers([0.012, 0.009, 0.003]), (2.2e-3, 0.0, 0.2e-3)]
        res = position_sweep(g, path, RADIUS)
        assert len(res.position) == 4
        assert len(res.errors) == 1
        idx, msg = res.errors[0]
        assert idx == 3
        assert "winding" in msg
        assert math.isnan(res.L_eff[3])
        assert not math.isnan(res.L_eff[2])

    def test_non_finite_field_rows_are_reported(self):
        # along the x-axis receiver of the orthogonal pair, 1e160 m out
        # is on the receiver axis (field 0) but far off the transmitter
        # axis, where the loop-field squares overflow to NaN
        g = orthogonal_geometry()
        d_z = g.receivers[0].center[2]
        centers = [(x, 0.0, d_z) for x in (1e160, 0.01)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = position_sweep(g, centers, RADIUS)
            by_receiver = position_sweep(g, centers, RADIUS,
                                         driven="receiver")
        assert res.errors == ((0, "coil field not finite at the sphere "
                                  "center"),)
        assert math.isnan(res.V[0]) and math.isfinite(res.V[1])
        res = by_receiver
        assert not res.errors and res.delta_L[0] == 0.0

    @staticmethod
    def overlapping_transmitter_geometry():
        g = coaxial_geometry()
        tx = CoilSpec(center=(0.0, 0.0, 5e-5), axis=(0.0, 0.0, 1.0),
                      mean_radius=3e-3, turns=100,
                      conductor_cross_section_total=2.2e-6,
                      role="transmitter")
        return DetectionGeometry(transmitter=tx, receivers=g.receivers,
                                 drive=g.drive, capacitance=g.capacitance,
                                 receiver_inductance=21e-6)

    @staticmethod
    def fat_receiver_geometry():
        g = dataclasses.replace(coaxial_geometry(), receiver_inductance=None)
        rx = CoilSpec(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                      mean_radius=3e-3, turns=60,
                      conductor_cross_section_total=5e-5)
        return DetectionGeometry(transmitter=g.transmitter, receivers=(rx,),
                                 drive=g.drive, capacitance=g.capacitance)

    @given(st.sampled_from(["coaxial", "geometric", "overlap", "fat",
                            "orthogonal-y"]),
           st.lists(st.floats(min_value=-0.006, max_value=0.02),
                    min_size=1, max_size=8, unique=True),
           st.booleans(),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=4e-3),
           st.floats(min_value=0.3e-3, max_value=1.5e-3),
           st.sampled_from(["transmitter", "receiver"]))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_pose_sweeps(self, kind, ss, on_axis, phi, rho,
                                        radius, driven):
        # row i of a sweep depends on pose i alone: it equals the sweep
        # of that one pose, values and error text alike
        which = 1 if kind == "orthogonal-y" else 0
        g = {"coaxial": coaxial_geometry,
             "geometric": lambda: dataclasses.replace(
                 coaxial_geometry(), receiver_inductance=None),
             "overlap": self.overlapping_transmitter_geometry,
             "fat": self.fat_receiver_geometry,
             "orthogonal-y": orthogonal_geometry}[kind]()
        receiver = g.receivers[which]
        # u and v span the plane normal to the (cartesian) receiver axis
        u = np.roll(receiver.axis_v, 1)
        v = np.cross(receiver.axis_v, u)
        offset = (np.zeros(3) if on_axis
                  else rho * (math.cos(phi) * u + math.sin(phi) * v))
        centers = (receiver.center_v + offset
                   + np.outer(sorted(ss), receiver.axis_v))
        res = position_sweep(g, centers, radius, which_receiver=which,
                             driven=driven)
        errors = dict(res.errors)
        assert len(errors) == len(res.errors)
        for i, center in enumerate(centers):
            alone = position_sweep(g, [center], radius, which_receiver=which,
                                   driven=driven)
            assert errors.get(i) == dict(alone.errors).get(0)
            for name in ("position", "L_eff", "delta_L", "f", "V"):
                got, ref = getattr(res, name)[i], getattr(alone, name)[0]
                assert (got == ref or (math.isnan(got) and math.isnan(ref))
                        or rel(got, ref) <= 1e-15), name

    def test_overlapping_coils_fail_every_row(self):
        g = self.overlapping_transmitter_geometry()
        res = position_sweep(g, self.centers([0.012, 0.009]), RADIUS)
        assert [i for i, _ in res.errors] == [0, 1]
        assert all("overlap" in msg for _, msg in res.errors)
        res = position_sweep(g, self.centers([0.012, 0.009]), RADIUS,
                             driven="receiver")
        assert not res.errors

    @pytest.mark.parametrize("sweep", ["model", "oracle"])
    @pytest.mark.parametrize("centers, radius, match", [
        ([0.0, 0.0, 9e-3], RADIUS, "block of sphere centers"),
        ([(0.0, 9e-3)], RADIUS, "block of sphere centers"),
        ([(0.0, 0.0, 9e-3), (0.0, 0.0, math.nan)], RADIUS,
         "center must be finite"),
        ([(0.0, 0.0, 9e-3)], 0.0, "radius must be finite and positive"),
        ([(0.0, 0.0, 9e-3)], math.inf, "radius must be finite and positive"),
        ([(0.0, 0.0, 9e-3)] * 2, [RADIUS, 0.0],
         "radius must be finite and positive"),
        ([(0.0, 0.0, 9e-3)] * 2, [RADIUS] * 3, "one per center"),
    ], ids=["one-vector", "two-columns", "nan-center", "zero-radius",
            "inf-radius", "zero-row-radius", "radius-count"])
    def test_bad_pose_inputs_rejected(self, sweep, centers, radius, match):
        g = coaxial_geometry()
        with pytest.raises(ValueError, match=match):
            if sweep == "model":
                position_sweep(g, centers, radius)
            else:
                oracle_sweep(g, centers, radius, 64)

    def test_radius_per_row(self):
        # one radius per center gives each row the sweep of its own pose
        g = coaxial_geometry()
        radii = [0.5e-3, 1e-3, 1.5e-3]
        centers = self.centers([0.012, 0.009, 0.006])
        res = position_sweep(g, centers, radii)
        oracle = oracle_sweep(g, centers, radii, 64)
        for i, radius in enumerate(radii):
            alone = position_sweep(g, centers[i:i + 1], radius)
            assert res.delta_L[i] == alone.delta_L[0]
            assert res.V[i] == alone.V[0]
            assert oracle[i] == oracle_sweep(g, centers[i:i + 1], radius,
                                             64)[0]

    def test_empty_poses_rejected(self):
        with pytest.raises(ConfigError):
            position_sweep(coaxial_geometry(), np.empty((0, 3)), RADIUS)

    def test_unordered_rows_rejected(self):
        def result(position, L_eff=2.1e-5, length=None):
            n = len(position) if length is None else length
            return SweepResult(position, np.full(n, L_eff),
                               np.full(n, -1e-10), np.full(n, 1.6e6),
                               np.full(n, 0.3))
        with pytest.raises(ValueError, match="ordered"):
            result([0.01, 0.02, 0.01])
        with pytest.raises(ValueError, match="ordered"):
            result([0.01, 0.01])
        with pytest.raises(ValueError, match="positive"):
            result([0.01, 0.02], L_eff=0.0)
        with pytest.raises(ValueError, match="equal lengths"):
            result([0.01, 0.02], length=3)
        ok = result([0.03, 0.02, 0.01], L_eff=math.nan)
        assert ok.position.tolist() == [0.03, 0.02, 0.01]

    def test_csv_output(self):
        g = coaxial_geometry()
        res = position_sweep(g, self.centers([0.012, 0.009, 0.006]), RADIUS)
        buf = io.StringIO()
        write_sweep_csv(res, buf, header_comment="hdr",
                        oracle_delta_L=res.delta_L * 1.05)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# hdr"
        assert lines[1].split(",")[:5] == ["position_m", "L_eff_H",
                                           "delta_L_H", "f_Hz",
                                           "V_amplitude_V"]
        assert lines[1].split(",")[5:] == ["delta_L_oracle_H",
                                           "oracle_agreement"]
        first = lines[2].split(",")
        assert float(first[0]) == res.position[0]
        assert abs(float(first[6]) - 0.05 / 1.05) < 1e-12
        with pytest.raises(ConfigError):
            write_sweep_csv(res, io.StringIO(), oracle_delta_L=[1.0])


class TestGeometryIO:
    def test_roundtrip(self, tmp_path):
        g = coaxial_geometry()
        doc = {
            "transmitter": {
                "center_m": list(g.transmitter.center),
                "axis": list(g.transmitter.axis),
                "mean_radius_m": g.transmitter.mean_radius,
                "turns": g.transmitter.turns,
                "conductor_cross_section_m2":
                    g.transmitter.conductor_cross_section_total,
            },
            "receivers": [{
                "center_m": list(g.receivers[0].center),
                "axis": list(g.receivers[0].axis),
                "mean_radius_m": g.receivers[0].mean_radius,
                "turns": g.receivers[0].turns,
                "conductor_cross_section_m2":
                    g.receivers[0].conductor_cross_section_total,
            }],
            "drive": {"amplitude_A": 0.035, "frequency_Hz": 1.6e6},
            "capacitance_F": 470e-12,
            "receiver_inductance_H": 21e-6,
        }
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(doc))
        loaded = load_geometry(path.read_bytes(), path)
        assert loaded.transmitter == g.transmitter
        assert loaded.receivers == g.receivers
        assert loaded.capacitance == g.capacitance
        assert loaded.receiver_inductance == 21e-6
        assert loaded.drive.angular_frequency == pytest.approx(
            2 * math.pi * 1.6e6, rel=1e-14)

    def test_bad_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_geometry(bad.read_bytes(), bad)
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"transmitter": {}}))
        with pytest.raises(ConfigError):
            load_geometry(partial.read_bytes(), partial)

    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            CoilSpec(center=(0, 0, 0), axis=(0.0, 0.0, 1.1),
                     mean_radius=3e-3, turns=10,
                     conductor_cross_section_total=1e-6)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean_radius",
                                       "conductor_cross_section_total",
                                       "center", "axis"])
    def test_coil_non_finite_rejected(self, field, value):
        kwargs = {"center": (0.0, 0.0, 0.0), "axis": (0.0, 0.0, 1.0),
                  "mean_radius": 3e-3, "turns": 10,
                  "conductor_cross_section_total": 1e-6}
        kwargs[field] = ((0.0, value, 0.0) if field in ("center", "axis")
                         else value)
        with pytest.raises(ValueError, match="finite"):
            CoilSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["radius", "center"])
    def test_sphere_non_finite_rejected(self, field, value):
        kwargs = {"centers": [(0.0, 0.0, 9e-3), (0.0, 0.0, 8e-3)],
                  "radius": RADIUS}
        if field == "center":
            kwargs["centers"][1] = (0.0, 0.0, value)
        else:
            kwargs["radius"] = [RADIUS, value]
        with pytest.raises(ValueError, match="finite"):
            position_sweep(coaxial_geometry(), **kwargs)

    def test_two_receivers_must_be_orthogonal(self):
        rx1 = CoilSpec(center=(0, 0, 0.02), axis=(1, 0, 0), mean_radius=3e-3,
                       turns=60, conductor_cross_section_total=1.2e-6)
        rx2 = CoilSpec(center=(0, 0, 0.02),
                       axis=tuple(np.array([1.0, 0.5, 0.0])
                                  / np.linalg.norm([1.0, 0.5, 0.0])),
                       mean_radius=3e-3, turns=60,
                       conductor_cross_section_total=1.2e-6)
        tx = CoilSpec(center=(0, 0, 0), axis=(0, 0, 1), mean_radius=2.6e-2,
                      turns=100, conductor_cross_section_total=2.2e-6,
                      role="transmitter")
        drive = DriveSpec(amplitude=0.035,
                          angular_frequency=2 * math.pi * 1.6e6)
        with pytest.raises(ValueError):
            DetectionGeometry(transmitter=tx, receivers=(rx1, rx2),
                              drive=drive, capacitance=470e-12)
