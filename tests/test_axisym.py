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

from levosc import (GeometryError, axisymmetric_oracle, coaxial_geometry,
                    mutual_inductance, orthogonal_geometry, position_sweep)
from levosc.axisym import (RESIDUAL_TOL, _axial_coordinates, _build_axes,
                           _field_operator, _residual, _surface_links,
                           oracle_sweep)
from levosc.errors import SolverError


def rel(a, b):
    return abs(a - b) / abs(b)


GRID = 128
CENTER = (0.0, 0.0, 9e-3)
RADIUS = 0.985e-3

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


def five_point_links(rho, z):
    """Each interior node's links to its four neighbours with their
    conductances, from the mesh alone: a link across rho conducts
    dz / (rho h) with rho at the face between the two nodes, a link
    across z ln(rho_hi / rho_lo) / h, over the node's finite-volume cell
    (faces halfway between nodes, the last ones on the boundary)."""
    def faces(x, k):
        lo = x[0] if k == 0 else 0.5 * (x[k] + x[k - 1])
        hi = x[-1] if k == len(x) - 1 else 0.5 * (x[k + 1] + x[k])
        return lo, hi

    links = {}
    for i in range(1, len(rho) - 1):
        r_lo, r_hi = faces(rho, i)
        for j in range(1, len(z) - 1):
            z_lo, z_hi = faces(z, j)
            links[i, j] = [
                ((k, j), (z_hi - z_lo)
                 / (0.5 * (rho[i] + rho[k]) * abs(rho[k] - rho[i])))
                for k in (i + 1, i - 1)] + [
                ((i, l), math.log(r_hi / r_lo) / abs(z[l] - z[j]))
                for l in (j + 1, j - 1)]
    return links


@pytest.fixture(scope="module")
def geometry():
    return coaxial_geometry()


@pytest.fixture(scope="module")
def transmitter_solve(geometry):
    return axisymmetric_oracle(geometry, n=GRID, driven="transmitter")


def on_axis(positions):
    """Sphere centers at ``positions`` along the z axis."""
    return np.outer(positions, (0.0, 0.0, 1.0))


class TestNoSphereSolves:
    def test_transmitter_drive_matches_analytic_mutual(self, geometry,
                                                       transmitter_solve):
        M_ref = mutual_inductance(geometry.transmitter,
                                  geometry.receivers[0])
        assert rel(transmitter_solve.L_eff, M_ref) < 0.01

    def test_solve_converged(self, transmitter_solve):
        assert transmitter_solve.residual < RESIDUAL_TOL

    def test_deterministic_repeat(self, geometry, transmitter_solve):
        again = axisymmetric_oracle(geometry, n=GRID, driven="transmitter")
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
        dL = oracle_sweep(geometry, [CENTER], RADIUS, GRID)[0]
        dL_model = position_sweep(geometry, [CENTER], RADIUS).delta_L[0]
        assert dL < 0.0
        assert rel(dL, dL_model) < 0.08
        # the two solves share a mesh and really differ only by the sphere
        with_sphere = axisymmetric_oracle(geometry, CENTER, RADIUS, GRID)
        without = axisymmetric_oracle(geometry, n=GRID)
        assert np.array_equal(with_sphere.z, without.z)
        assert with_sphere.L_eff < without.L_eff

    def test_sphere_interior_flux_suppressed(self, geometry):
        with_sphere = axisymmetric_oracle(geometry, CENTER, RADIUS, GRID)
        without = axisymmetric_oracle(geometry, n=GRID)
        rho_idx = np.searchsorted(with_sphere.rho, 0.4e-3)
        z_idx = np.searchsorted(with_sphere.z, 9e-3)
        inside = abs(with_sphere.psi[rho_idx, z_idx])
        free = abs(without.psi[rho_idx, z_idx])
        assert inside < 0.05 * free

    def test_geometry_restrictions(self):
        with pytest.raises(GeometryError):
            axisymmetric_oracle(orthogonal_geometry(), n=64)
        g = coaxial_geometry()
        with pytest.raises(GeometryError):
            axisymmetric_oracle(g, (2e-3, 0.0, 9e-3), RADIUS, 64)
        # one pose off the axis fails the whole sweep
        with pytest.raises(GeometryError, match="coil axis"):
            oracle_sweep(g, [CENTER, (0.0, 1e-3, 9e-3)], RADIUS, 64)

    def test_grid_size_validated(self, geometry):
        with pytest.raises(ValueError, match="at least 64 x 64"):
            axisymmetric_oracle(geometry, n=32)
        with pytest.raises(ValueError, match="at least 64 x 64"):
            oracle_sweep(geometry, [CENTER], RADIUS, 63)

    def test_driven_argument_validated(self, geometry):
        with pytest.raises(Exception):
            axisymmetric_oracle(geometry, n=GRID, driven="bogus")

    def test_nonconvergence_reported(self, geometry, monkeypatch):
        # the direct solve leaves a residual near 1e-13, so a tolerance
        # under round-off must trip the residual gate
        monkeypatch.setattr("levosc.axisym.RESIDUAL_TOL", 1e-16)
        with pytest.raises(SolverError, match="residual"):
            axisymmetric_oracle(geometry, CENTER, RADIUS, 64)


class TestConjugateGradientSolve:
    def test_delta_L_pinned_to_relaxation_value(self, geometry):
        # value the red-black relaxation solver converged to on this mesh
        dL = oracle_sweep(geometry, [CENTER], RADIUS, GRID)[0]
        assert rel(dL, -7.8826182e-10) < 1e-6

    @pytest.mark.parametrize("n", sorted(CG_DELTA_L))
    def test_delta_L_matches_conjugate_gradient_values(self, geometry, n):
        positions, expected = CG_DELTA_L[n]
        receiver = geometry.receivers[0]
        centers = receiver.center_v + np.outer(positions, receiver.axis_v)
        got = oracle_sweep(geometry, centers, RADIUS, n)
        for value, cg in zip(got.tolist(), expected):
            assert rel(value, float.fromhex(cg)) < 1e-6

    def test_one_dense_solve_per_sphere_pose(self, geometry, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        oracle_sweep(geometry, on_axis([0.017, 0.011, 0.006]), RADIUS, 64)
        assert len(calls) == 3
        axisymmetric_oracle(geometry, n=64)
        assert len(calls) == 3

    def test_sphere_too_large_for_capacitance_solve(self, geometry):
        # a 5 cm sphere covers most of a 64 x 64 mesh: refused before
        # its capacitance matrix is built
        with pytest.raises(SolverError, match="capacitance"):
            axisymmetric_oracle(geometry, CENTER, 0.05, 64)

    @pytest.mark.parametrize("zs", [5e-3, 9e-3, 17e-3])
    def test_surface_links_match_per_node_loop(self, geometry, zs):
        # reference: each free node in turn, each of its five-point links
        # from the mesh alone, each link into the sphere cut where the
        # segment meets the circle, as a scalar quadratic
        coils, _ = _axial_coordinates(geometry)
        rho, z = _build_axes(coils, 64)
        op = _field_operator(geometry, coils, rho, z, "receiver")
        rs = 0.985e-3
        inside = rho[:, None]**2 + (z[None, :] - zs)**2 <= rs * rs
        fixed = inside.copy()
        fixed[[0, -1], :] = fixed[:, [0, -1]] = True
        free = ~fixed
        links = five_point_links(rho, z)
        expected = np.zeros(inside.shape)
        for (i, j), neighbours in links.items():
            for (k, l), c in neighbours:
                if not (free[i, j] and inside[k, l]):
                    continue
                p_r, p_z = rho[i], z[j] - zs
                d_r, d_z = rho[k] - rho[i], z[l] - z[j]
                a = d_r * d_r + d_z * d_z
                b = 2.0 * (p_r * d_r + p_z * d_z)
                cc = p_r * p_r + p_z * p_z - rs * rs
                t = (-b - math.sqrt(max(b * b - 4.0 * a * cc, 0.0))) / (2 * a)
                expected[i, j] += c * (1.0 / min(max(t, 0.05), 1.0) - 1)
        got = _surface_links(op, inside, free, zs, rs)
        assert np.count_nonzero(expected) > 4
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)

        # the residual is the source less the net link flux out of each
        # free node, checked on a field that solves nothing
        psi = np.where(fixed, 0.0, np.random.default_rng(7).normal(
            size=inside.shape)) * np.max(op.psi0)
        r = np.zeros(inside.shape)
        for (i, j), neighbours in links.items():
            if free[i, j]:
                out = sum(c * (psi[i, j] - psi[k, l])
                          for (k, l), c in neighbours)
                r[i, j] = op.source[i, j] - out - got[i, j] * psi[i, j]
        want = np.max(np.abs(r)) / np.max(np.abs(op.source))
        assert _residual(op, psi, got, fixed) == pytest.approx(want,
                                                              rel=1e-9)

    def test_sweep_matches_per_pose_solves(self, geometry):
        positions = (0.017, 0.011, 0.006)
        base = axisymmetric_oracle(geometry, n=64)
        solves = [axisymmetric_oracle(geometry, (0.0, 0.0, d), RADIUS, 64)
                  for d in positions]
        # each sphere lies inside the coils' core box, so the mesh built
        # around it is the sphere-free mesh the sweep shares
        for solve in solves:
            assert np.array_equal(solve.rho, base.rho)
            assert np.array_equal(solve.z, base.z)
        expected = [solve.L_eff - base.L_eff for solve in solves]
        assert oracle_sweep(geometry, on_axis(positions), RADIUS,
                            64).tolist() == expected

    def test_sweep_poses_do_not_share_state(self, geometry):
        # a solve that wrote into state shared across the sweep would
        # change the poses after it
        pair = oracle_sweep(geometry, on_axis([0.007, 0.012]), RADIUS, 64)
        alone = oracle_sweep(geometry, on_axis([0.012]), RADIUS, 64)
        assert pair[1].hex() == alone[0].hex()

    def test_sweep_diagonalizes_pencils_once(self, geometry, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        oracle_sweep(geometry, on_axis(np.linspace(0.005, 0.019, 8)),
                     RADIUS, 64)
        assert len(calls) == 2

    def test_operator_arrays_read_only(self, geometry):
        coils, _ = _axial_coordinates(geometry)
        mesh = _build_axes(coils, 64)
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

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(64, 96), d=st.floats(4e-3, 20e-3))
    def test_sphere_solve_properties(self, geometry, n, d):
        center = (0.0, 0.0, d)
        dL = oracle_sweep(geometry, [center], RADIUS, n)[0]
        with_sphere = axisymmetric_oracle(geometry, center, RADIUS, n)
        without = axisymmetric_oracle(geometry, n=n)
        assert with_sphere.residual < RESIDUAL_TOL
        assert with_sphere.residual < 1e-11
        assert without.residual < RESIDUAL_TOL
        assert dL < 0.0
        assert with_sphere.L_eff < without.L_eff
