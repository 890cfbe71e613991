"""Finite-volume flux-function solver, checked against closed forms.

These are the dual-route tests that keep the dipole detection model
honest: the solver shares no field code with :mod:`levosc.detection`.
The 128 x 128 grid is used here to keep runtimes in seconds; the
256 x 256 acceptance sweep lives in test_acceptance.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levosc import (GeometryError, GridSpec, SpherePose, axisymmetric_oracle,
                    coaxial_geometry, mutual_inductance, orthogonal_geometry,
                    position_sweep)
from levosc.axisym import (_axial_coordinates, _build_axes, _field_operator,
                           _surface_links, oracle_sweep)
from levosc.errors import SolverError


def rel(a, b):
    return abs(a - b) / abs(b)


GRID = GridSpec(n_rho=128, n_z=128)

# Delta L (H) that conjugate gradients gave at tolerance 1e-8, as float
# hex: criterion 09's eight poses at 256 x 256, and the oracle-sweep
# benchmark's eight poses (without its random shift) at 128 x 128.
CG_DELTA_L = {
    256: (np.linspace(0.005, 0.019, 8), [
        "-0x1.01b890efc8000p-26", "-0x1.97968cf1f4000p-29",
        "-0x1.ae7a0d5558000p-31", "-0x1.1b9b34b910000p-32",
        "-0x1.b786f1df40000p-34", "-0x1.810cef5480000p-35",
        "-0x1.73cdbe5400000p-36", "-0x1.83417c5200000p-37"]),
    128: (np.linspace(0.019, 0.005, 8), [
        "-0x1.83c6031800000p-37", "-0x1.7464bbfb00000p-36",
        "-0x1.821ada7c00000p-35", "-0x1.b8f96e8b80000p-34",
        "-0x1.1cf23e5660000p-32", "-0x1.b159fdd198000p-31",
        "-0x1.9aa00ed586000p-29", "-0x1.03c6510cbb800p-26"]),
}


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


class TestNoSphereSolves:
    def test_transmitter_drive_matches_analytic_mutual(self, geometry,
                                                       transmitter_solve):
        M_ref = mutual_inductance(geometry.transmitter,
                                  geometry.receivers[0])
        assert rel(transmitter_solve.L_eff, M_ref) < 0.01

    def test_solve_converged(self, transmitter_solve):
        assert transmitter_solve.residual < GRID.tol

    def test_deterministic_repeat(self, geometry, transmitter_solve):
        again = axisymmetric_oracle(geometry, None, GRID,
                                    driven="transmitter")
        assert again.L_eff == transmitter_solve.L_eff
        assert np.array_equal(again.psi, transmitter_solve.psi)

    def test_flux_function_zero_on_boundaries(self, transmitter_solve):
        psi = transmitter_solve.psi
        assert np.all(psi[0, :] == 0.0)
        assert np.all(psi[-1, :] == 0.0)
        assert np.all(psi[:, 0] == 0.0)
        assert np.all(psi[:, -1] == 0.0)


class TestSphereSolves:
    def test_delta_L_against_dipole_model(self, geometry):
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        dL = oracle_sweep(geometry, [pose], GRID)[0]
        dL_model = position_sweep(geometry, [pose]).delta_L[0]
        assert dL < 0.0
        assert rel(dL, dL_model) < 0.08
        # the two solves share a mesh and really differ only by the sphere
        with_sphere = axisymmetric_oracle(geometry, pose, GRID)
        without = axisymmetric_oracle(geometry, None, GRID)
        assert np.array_equal(with_sphere.z, without.z)
        assert with_sphere.L_eff < without.L_eff

    def test_sphere_interior_flux_suppressed(self, geometry):
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        with_sphere = axisymmetric_oracle(geometry, pose, GRID)
        without = axisymmetric_oracle(geometry, None, GRID)
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
        # the direct solve leaves a residual near 1e-13, so a tolerance
        # under round-off must trip the residual gate
        grid = GridSpec(n_rho=64, n_z=64, tol=1e-16)
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        with pytest.raises(SolverError, match="residual"):
            axisymmetric_oracle(geometry, pose, grid)


class TestConjugateGradientSolve:
    def test_delta_L_pinned_to_relaxation_value(self, geometry):
        # value the red-black relaxation solver converged to on this mesh
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.985e-3)
        dL = oracle_sweep(geometry, [pose], GRID)[0]
        assert rel(dL, -7.8826182e-10) < 1e-6

    @pytest.mark.parametrize("n", sorted(CG_DELTA_L))
    def test_delta_L_matches_conjugate_gradient_values(self, geometry, n):
        positions, expected = CG_DELTA_L[n]
        receiver = geometry.receivers[0]
        poses = [SpherePose(center=tuple(receiver.center_v
                                         + d * receiver.axis_v),
                            radius=0.985e-3) for d in positions]
        got = oracle_sweep(geometry, poses, GridSpec(n_rho=n, n_z=n))
        for value, cg in zip(got.tolist(), expected):
            assert rel(value, float.fromhex(cg)) < 1e-6

    def test_one_dense_solve_per_sphere_pose(self, geometry, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        grid = GridSpec(n_rho=64, n_z=64)
        poses = [SpherePose(center=(0.0, 0.0, d), radius=0.985e-3)
                 for d in (0.017, 0.011, 0.006)]
        oracle_sweep(geometry, poses, grid)
        assert len(calls) == 3
        axisymmetric_oracle(geometry, None, grid)
        assert len(calls) == 3

    def test_sphere_too_large_for_capacitance_solve(self, geometry):
        # a 5 cm sphere covers most of a 64 x 64 mesh: refused before
        # its capacitance matrix is built
        pose = SpherePose(center=(0.0, 0.0, 9e-3), radius=0.05)
        with pytest.raises(SolverError, match="capacitance"):
            axisymmetric_oracle(geometry, pose, GridSpec(n_rho=64, n_z=64))

    @pytest.mark.parametrize("zs", [5e-3, 9e-3, 17e-3])
    def test_surface_links_match_per_node_loop(self, geometry, zs):
        # reference: each free node in turn, each link into the sphere cut
        # where the segment meets the circle, as a scalar quadratic
        coils, _ = _axial_coordinates(geometry, None)
        rho, z = _build_axes(coils, None, None, GridSpec(n_rho=64, n_z=64))
        op = _field_operator(geometry, coils, rho, z, "receiver")
        rs = 0.985e-3
        inside = rho[:, None]**2 + (z[None, :] - zs)**2 <= rs * rs
        free = ~inside
        free[[0, -1], :] = free[:, [0, -1]] = False
        links = op.conductances()
        expected = np.zeros(inside.shape)
        for i, j in zip(*np.nonzero(free)):
            for c, (di, dj) in zip(links, ((1, 0), (-1, 0), (0, 1), (0, -1))):
                if not inside[i + di, j + dj]:
                    continue
                p_r, p_z = rho[i], z[j] - zs
                d_r, d_z = rho[i + di] - rho[i], z[j + dj] - z[j]
                a = d_r * d_r + d_z * d_z
                b = 2.0 * (p_r * d_r + p_z * d_z)
                cc = p_r * p_r + p_z * p_z - rs * rs
                t = (-b - math.sqrt(max(b * b - 4.0 * a * cc, 0.0))) / (2 * a)
                expected[i, j] += c[i, j] * (1.0 / min(max(t, 0.05), 1.0) - 1)
        got = _surface_links(op, links, inside, free, zs, rs)
        assert np.count_nonzero(expected) > 4
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)

    def test_sweep_matches_per_pose_solves(self, geometry):
        grid = GridSpec(n_rho=64, n_z=64)
        poses = [SpherePose(center=(0.0, 0.0, d), radius=0.985e-3)
                 for d in (0.017, 0.011, 0.006)]
        base = axisymmetric_oracle(geometry, None, grid)
        solves = [axisymmetric_oracle(geometry, pose, grid) for pose in poses]
        # each sphere lies inside the coils' core box, so the mesh built
        # around it is the sphere-free mesh the sweep shares
        for solve in solves:
            assert np.array_equal(solve.rho, base.rho)
            assert np.array_equal(solve.z, base.z)
        expected = [solve.L_eff - base.L_eff for solve in solves]
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
        dL = oracle_sweep(geometry, [pose], grid)[0]
        with_sphere = axisymmetric_oracle(geometry, pose, grid)
        without = axisymmetric_oracle(geometry, None, grid)
        assert with_sphere.residual < grid.tol
        assert with_sphere.residual < 1e-11
        assert without.residual < grid.tol
        assert dL < 0.0
        assert with_sphere.L_eff < without.L_eff
