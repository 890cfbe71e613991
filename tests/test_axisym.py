"""Finite-volume flux-function solver, checked against closed forms.

These are the dual-route tests that keep the dipole detection model
honest: the solver shares no field code with :mod:`levosc.detection`.
The 128 x 128 grid is used here to keep runtimes in seconds; the
256 x 256 acceptance sweep lives in test_acceptance.py.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levosc import (GeometryError, GridSpec, SpherePose, axisymmetric_oracle,
                    coaxial_geometry, effective_inductance, mutual_inductance,
                    oracle_delta_L, orthogonal_geometry)
from levosc.axisym import (_axial_coordinates, _build_axes, _field_operator,
                           oracle_sweep, write_field_map_csv)
from levosc.errors import SolverError


def rel(a, b):
    return abs(a - b) / abs(b)


GRID = GridSpec(n_rho=128, n_z=128)


@pytest.fixture(scope="module")
def geometry():
    return coaxial_geometry()


@pytest.fixture(scope="module")
def transmitter_solve(geometry):
    return axisymmetric_oracle(geometry, None, GRID, driven="transmitter")


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_rho=32)
        with pytest.raises(ValueError):
            GridSpec(tol=0.0)
        with pytest.raises(ValueError):
            GridSpec(max_sweeps=0)


class TestNoSphereSolves:
    def test_transmitter_drive_matches_analytic_mutual(self, geometry,
                                                       transmitter_solve):
        M_ref = mutual_inductance(geometry.transmitter,
                                  geometry.receivers[0])
        assert rel(transmitter_solve.L_eff, M_ref) < 0.01

    def test_solve_converged(self, transmitter_solve):
        assert transmitter_solve.residual < GRID.tol
        assert transmitter_solve.iterations < GRID.max_sweeps

    def test_deterministic_repeat(self, geometry, transmitter_solve):
        again = axisymmetric_oracle(geometry, None, GRID,
                                    driven="transmitter")
        assert again.L_eff == transmitter_solve.L_eff
        assert again.iterations == transmitter_solve.iterations
        assert np.array_equal(again.psi, transmitter_solve.psi)

    def test_flux_function_zero_on_boundaries(self, transmitter_solve):
        psi = transmitter_solve.psi
        assert np.all(psi[0, :] == 0.0)
        assert np.all(psi[-1, :] == 0.0)
        assert np.all(psi[:, 0] == 0.0)
        assert np.all(psi[:, -1] == 0.0)

    def test_a_phi_finite(self, transmitter_solve):
        a = transmitter_solve.a_phi()
        assert np.all(np.isfinite(a))


class TestSphereSolves:
    def test_delta_L_against_dipole_model(self, geometry):
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        dL, with_sphere, without = oracle_delta_L(geometry, pose, GRID)
        _, dL_model = effective_inductance(geometry, pose)
        assert dL < 0.0
        assert rel(dL, dL_model) < 0.08
        # the two solves really differ only by the sphere
        assert with_sphere.L_eff < without.L_eff

    def test_sphere_interior_flux_suppressed(self, geometry):
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        _, with_sphere, without = oracle_delta_L(geometry, pose, GRID)
        rho_idx = np.searchsorted(with_sphere.rho, 0.4e-3)
        z_idx = np.searchsorted(with_sphere.z, 9e-3)
        inside = abs(with_sphere.psi[rho_idx, z_idx])
        free = abs(without.psi[rho_idx, z_idx])
        assert inside < 0.05 * free

    def test_geometry_restrictions(self):
        grid = GridSpec(n_rho=64, n_z=64)
        with pytest.raises(GeometryError):
            axisymmetric_oracle(orthogonal_geometry(), None, grid)
        g = coaxial_geometry()
        off_axis = SpherePose(center=(2e-3, 0.0, 9e-3), radius=0.985e-3)
        with pytest.raises(GeometryError):
            axisymmetric_oracle(g, off_axis, grid)

    def test_driven_argument_validated(self, geometry):
        with pytest.raises(Exception):
            axisymmetric_oracle(geometry, None, GRID, driven="bogus")

    def test_nonconvergence_reported(self, geometry):
        # the sphere-free solve is exact from the start, so only a sphere
        # solve held to one iteration can miss the tolerance
        grid = GridSpec(n_rho=64, n_z=64, max_sweeps=1)
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        with pytest.raises(SolverError):
            axisymmetric_oracle(geometry, pose, grid)


class TestConjugateGradientSolve:
    def test_delta_L_pinned_to_relaxation_value(self, geometry):
        # value the red-black relaxation solver converged to on this mesh
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        dL, _, _ = oracle_delta_L(geometry, pose, GRID)
        assert rel(dL, -7.8826182e-10) < 1e-6

    def test_sweep_matches_per_pose_solves(self, geometry):
        grid = GridSpec(n_rho=64, n_z=64)
        poses = [SpherePose(center=(0.0, 0.0, d), radius=0.985e-3)
                 for d in (0.017, 0.011, 0.006)]
        coils, _ = _axial_coordinates(geometry, None)
        mesh = _build_axes(coils, None, None, grid)
        base = axisymmetric_oracle(geometry, None, grid, mesh=mesh)
        expected = [axisymmetric_oracle(geometry, pose, grid, mesh=mesh).L_eff
                    - base.L_eff for pose in poses]
        assert oracle_sweep(geometry, poses, grid).tolist() == expected

    def test_sweep_poses_do_not_share_state(self, geometry):
        # a solve that wrote into state shared across the sweep would
        # change the poses after it
        grid = GridSpec(n_rho=64, n_z=64)
        p1, p2 = (SpherePose(center=(0.0, 0.0, d), radius=0.985e-3)
                  for d in (0.007, 0.012))
        pair = oracle_sweep(geometry, [p1, p2], grid)
        alone = oracle_sweep(geometry, [p2], grid)
        assert pair[1].hex() == alone[0].hex()

    def test_sweep_diagonalizes_pencils_once(self, geometry, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        grid = GridSpec(n_rho=64, n_z=64)
        poses = [SpherePose(center=(0.0, 0.0, d), radius=0.985e-3)
                 for d in np.linspace(0.005, 0.019, 8)]
        oracle_sweep(geometry, poses, grid)
        assert len(calls) == 2

    def test_operator_arrays_read_only(self, geometry):
        grid = GridSpec(n_rho=64, n_z=64)
        coils, _ = _axial_coordinates(geometry, None)
        mesh = _build_axes(coils, None, None, grid)
        op = _field_operator(geometry, coils, *mesh, "receiver")
        arrays = {name: value for name, value in vars(op).items()
                  if isinstance(value, np.ndarray)}
        assert {"rho", "z", "source", "phi_r", "phi_z", "lam"} <= set(arrays)
        for name, value in arrays.items():
            assert not value.flags.writeable, name
            with pytest.raises(ValueError):
                value[(0,) * value.ndim] = 1.0
        # the caller's mesh stays writeable
        assert mesh[0].flags.writeable and mesh[1].flags.writeable
        # each solve gets conductances of its own to alter
        first = op.conductances()
        for c in first:
            c[1, 1] = -1.0
        assert all(c[1, 1] > 0.0 for c in op.conductances())

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(64, 96), d=st.floats(4e-3, 20e-3))
    def test_sphere_solve_properties(self, geometry, n, d):
        grid = GridSpec(n_rho=n, n_z=n)
        pose = SpherePose(center=(0.0, 0.0, d), radius=0.985e-3)
        dL, with_sphere, without = oracle_delta_L(geometry, pose, grid)
        assert with_sphere.residual < grid.tol
        assert without.residual < grid.tol
        assert dL < 0.0
        assert with_sphere.L_eff < without.L_eff


class TestFieldMapOutput:
    def test_csv_shape(self, geometry):
        grid = GridSpec(n_rho=64, n_z=64)
        res = axisymmetric_oracle(geometry, None, grid, driven="receiver")
        buf = io.StringIO()
        write_field_map_csv(res, buf, header_comment="map")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# map"
        assert lines[1] == "rho_m,z_m,A_phi"
        assert len(lines) == 2 + 64 * 64
        first = lines[2].split(",")
        assert float(first[0]) == res.rho[0]
