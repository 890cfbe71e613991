"""Independent axisymmetric magnetostatic solver.

Cross-checks the analytic dipole detection model by actually solving
the field problem: the azimuthal flux function psi = rho * A_phi obeys

    d/drho((1/rho) dpsi/drho) + d/dz((1/rho) dpsi/dz) = -mu0 J_phi

on an (rho, z) half-plane, with psi = 0 on the symmetry axis, on a far
outer boundary, and on the superconducting sphere surface (flux
exclusion). Coils enter as uniform current density over their bundle
cross-section. Discretization is finite-volume on a graded tensor
mesh: uniform and fine over a core box containing coils and sphere,
geometrically stretched toward the far boundary so that truncation
error stays below the discretization error. The linear system is
symmetric positive definite and is solved directly, with no iteration.
Without the sphere the operator is a Kronecker sum of two 1-D pencils,
whose eigenpairs give its exact inverse (Buzbee, Golub & Nielson 1970).
The sphere changes that operator only at the few dozen nodes inside it
and next to its surface, so each pose adds a small dense capacitance
system on those nodes, solved against the sphere-free inverse (Buzbee,
Dorr, George & Golub 1971).

Only the sphere depends on the pose. The sphere-free operator of one
mesh and driven coil (link lengths, source, the eigenpairs of both
pencils and the sphere-free solution) is built once and shared,
read-only, by the base solve and every pose of ``oracle_sweep``, which
is the one path to a sphere-induced inductance change; a question about
one pose is a sweep of one pose.

Receiver flux is the turns-weighted integral of B_z over the mean
cross-section, which for the flux function is simply
N * 2 pi * psi(r_receiver, z_receiver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import (MU0, CoilSpec, DetectionGeometry, _check_driven,
                        _sphere_poses)
from .errors import ConfigError, GeometryError, SolverError

__all__ = [
    "OracleResult",
    "axisymmetric_oracle",
    "oracle_sweep",
]

_AXIS_TOL = 1e-9

# The fewest nodes along each axis of the n x n mesh, and the largest
# accepted max-norm residual of a solve, relative to the source.
MIN_GRID = 64
RESIDUAL_TOL = 1e-8

# Domain-construction factors, in units of the largest coil radius.
# Chosen so that at 256 x 256 the far-boundary truncation error of the
# receiver flux sits near 0.5%, well under the discretization budget.
_CORE_RHO_FACTOR = 1.28
_FAR_RHO_FACTOR = 11.2
_CORE_Z_MARGIN = 0.36
_FAR_Z_MARGIN = 8.5
_CORE_FRAC_RHO = 0.72
_CORE_FRAC_Z = 0.66

# Entries of the largest array one capacitance solve builds (32 MiB):
# room for the 0.985 mm sphere at 1024 x 1024, where m is about 1,500.
_MAX_CAPACITANCE_ENTRIES = 2**22


@dataclass(frozen=True)
class OracleResult:
    """Solve: receiver flux per unit drive current, the max-norm residual
    relative to the source, and the full flux-function map for
    inspection."""

    L_eff: float
    residual: float
    rho: np.ndarray
    z: np.ndarray
    psi: np.ndarray


def _axial_coordinates(geometry: DetectionGeometry,
                       centers: np.ndarray | None = None,
                       ) -> tuple[list[tuple[CoilSpec, float]], np.ndarray]:
    """Map the coaxial arrangement, and each row of an (n, 3) block of
    sphere centers, onto a shared (rho, z) frame with the receiver at
    z = 0; rejects anything not coaxial or off-axis."""
    receiver = geometry.receivers[0]
    if len(geometry.receivers) != 1:
        raise GeometryError("field solve supports a single receiver")
    origin = receiver.center_v
    n_hat = receiver.axis_v
    coils = []
    for coil in (receiver, geometry.transmitter):
        if abs(abs(float(np.dot(coil.axis_v, n_hat))) - 1.0) > _AXIS_TOL:
            raise GeometryError("coil axes are not parallel: not coaxial")
        rel = coil.center_v - origin
        z = float(np.dot(rel, n_hat))
        if np.linalg.norm(rel - z * n_hat) > _AXIS_TOL:
            raise GeometryError("coil centers not on a common axis")
        coils.append((coil, z))
    sphere_z = None
    if centers is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            rel = centers - origin
            sphere_z = rel @ n_hat
            off = np.linalg.norm(rel - np.outer(sphere_z, n_hat), axis=1)
        if not np.all(off <= _AXIS_TOL):
            raise GeometryError("sphere must sit on the coil axis")
    return coils, sphere_z


def _graded_axis(x0: float, core_lo: float, core_hi: float, x1: float,
                 n: int, core_frac: float) -> np.ndarray:
    """Node coordinates: geometric stretch, uniform core, geometric
    stretch. Stretch ratios are solved so the last node lands on the
    requested boundary."""
    L_lo = core_lo - x0
    L_hi = x1 - core_hi
    n_core = max(8, int(n * core_frac))
    n_rest = n - n_core
    if L_lo <= 0:
        n_lo, n_hi = 0, n_rest
    elif L_hi <= 0:
        n_lo, n_hi = n_rest, 0
    else:
        n_lo = max(2, int(n_rest * L_lo / (L_lo + L_hi)))
        n_hi = n_rest - n_lo
    h = (core_hi - core_lo) / (n_core - 1)

    def stretch(L: float, m: int) -> np.ndarray:
        if m <= 0 or L <= 0:
            return np.empty(0)
        lo, hi = 1.0 + 1e-9, 3.0
        for _ in range(200):
            g = 0.5 * (lo + hi)
            if h * g * (g**m - 1.0) / (g - 1.0) < L:
                lo = g
            else:
                hi = g
        g = 0.5 * (lo + hi)
        steps = h * g ** np.arange(1, m + 1)
        steps *= L / steps.sum()
        return np.cumsum(steps)

    core = np.linspace(core_lo, core_hi, n_core)
    above = core_hi + stretch(L_hi, n_hi)
    below = core_lo - stretch(L_lo, n_lo)[::-1]
    return np.concatenate([below, core, above])


def _build_axes(coils, n: int, sphere_z: float | None = None,
                radius: float | None = None):
    if n < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID} x {MIN_GRID}")
    r_max = max(c.mean_radius for c, _ in coils)
    z_feats = []
    for coil, zc in coils:
        half = 0.5 * math.sqrt(coil.conductor_cross_section_total)
        z_feats += [zc - half, zc + half]
    if sphere_z is not None:
        z_feats += [sphere_z - radius, sphere_z + radius]
    z_lo, z_hi = min(z_feats), max(z_feats)
    rho = _graded_axis(0.0, 0.0, _CORE_RHO_FACTOR * r_max,
                       _FAR_RHO_FACTOR * r_max, n, _CORE_FRAC_RHO)
    z = _graded_axis(z_lo - (_CORE_Z_MARGIN + _FAR_Z_MARGIN) * r_max,
                     z_lo - _CORE_Z_MARGIN * r_max,
                     z_hi + _CORE_Z_MARGIN * r_max,
                     z_hi + (_CORE_Z_MARGIN + _FAR_Z_MARGIN) * r_max,
                     n, _CORE_FRAC_Z)
    return rho, z


def _segment_sphere_theta(p_rho: np.ndarray, p_z: np.ndarray,
                          q_rho: np.ndarray, q_z: np.ndarray, zs: float,
                          rs: float) -> np.ndarray:
    """Fraction of each segment p->q in the (rho, z) plane at which it
    crosses the sphere circle; clamped away from 0 to keep coefficients
    bounded."""
    d_rho, d_z = q_rho - p_rho, q_z - p_z
    pc_z = p_z - zs
    a = d_rho * d_rho + d_z * d_z
    b = 2.0 * (p_rho * d_rho + pc_z * d_z)
    c = p_rho * p_rho + pc_z * pc_z - rs * rs
    root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    t = (-b - root) / (2.0 * a)
    t = np.where(t <= 0.0, (-b + root) / (2.0 * a), t)
    return np.clip(t, 0.05, 1.0)


def _pencil(k: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the 1-D pencil (K, diag(d)) over interior nodes,
    where K is the tridiagonal stiffness of the link conductances ``k``
    (one per link, boundary links included). Returns ``phi`` and ``lam``
    with phi.T K phi = diag(lam) and phi.T diag(d) phi = I."""
    K = np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)
    s = 1.0 / np.sqrt(d)
    lam, u = np.linalg.eigh(s[:, None] * K * s[None, :])
    return s[:, None] * u, lam


@dataclass(frozen=True)
class _FieldOperator:
    """Everything about one mesh and one driven coil that no sphere
    changes: node coordinates, 1-D link data (cell heights ``dz``, the
    integral ``ln_fac`` of 1/rho across each cell), the source, the
    eigenpairs of the two 1-D pencils whose Kronecker sum is the
    sphere-free operator, and the sphere-free solution ``psi0``, all in
    read-only views, so solves that share the operator cannot alter it."""

    receiver: CoilSpec
    rho: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    ln_fac: np.ndarray
    source: np.ndarray
    source_norm: float
    phi_r: np.ndarray
    phi_z: np.ndarray
    lam: np.ndarray
    psi0: np.ndarray

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                view = value.view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)


def _link_conductance(op: _FieldOperator, i, j, di: int, dj: int):
    """Conductance of the links from the nodes (i, j), broadcasting index
    arrays, to their neighbours (i + di, j + dj): (1 / rho_f) dz / h
    across rho, rho_f the face between the nodes, and ln_fac / h across
    z. The one definition of the operator's links: the residual check
    and the sphere's surface links both take their conductances here."""
    if di:
        lo = i + min(di, 0)
        rho_f = 0.5 * (op.rho[lo + 1] + op.rho[lo])
        return ((1.0 / np.maximum(rho_f, 1e-300)) * op.dz[j]
                / (op.rho[lo + 1] - op.rho[lo]))
    lo = j + min(dj, 0)
    return op.ln_fac[i] / (op.z[lo + 1] - op.z[lo])


def _field_operator(geometry: DetectionGeometry,
                    coils: list[tuple[CoilSpec, float]], rho: np.ndarray,
                    z: np.ndarray, driven: str) -> _FieldOperator:
    """The sphere-free operator on the mesh (rho, z), driven by the coil
    of role ``driven``."""
    nr, nz = len(rho), len(z)
    rho_f = np.empty(nr + 1)
    rho_f[1:-1] = 0.5 * (rho[1:] + rho[:-1])
    rho_f[0], rho_f[-1] = rho[0], rho[-1]
    z_f = np.empty(nz + 1)
    z_f[1:-1] = 0.5 * (z[1:] + z[:-1])
    z_f[0], z_f[-1] = z[0], z[-1]
    dz = z_f[1:] - z_f[:-1]
    with np.errstate(divide="ignore"):
        # integral of 1/rho across each cell; the axis cell is Dirichlet
        # so its infinite entry is never used
        ln_fac = np.log(rho_f[1:] / np.maximum(rho_f[:-1], 1e-300))

    # source: mu0 * integral of J over each cell, from the driven coil
    source = np.zeros((nr, nz))
    for coil, zc in coils:
        if coil.role != driven:
            continue
        side = math.sqrt(coil.conductor_cross_section_total)
        J = coil.turns * 1.0 / coil.conductor_cross_section_total
        w_r = np.clip(np.minimum(rho_f[1:], coil.mean_radius + side / 2)
                      - np.maximum(rho_f[:-1], coil.mean_radius - side / 2),
                      0.0, None)
        w_z = np.clip(np.minimum(z_f[1:], zc + side / 2)
                      - np.maximum(z_f[:-1], zc - side / 2), 0.0, None)
        source += MU0 * J * w_r[:, None] * w_z[None, :]
    source_norm = float(np.max(np.abs(source)))
    if source_norm == 0.0:
        raise ConfigError("driven coil carries no current density")

    # Without the sphere the interior operator is the Kronecker sum
    # K_rho (x) D_z + D_rho (x) K_z; its exact inverse, applied through
    # the eigenvectors of the two 1-D pencils, gives the sphere-free
    # solution psi0 and, through the capacitance matrix, every sphere.
    phi_r, lam_r = _pencil(1.0 / (rho_f[1:-1] * np.diff(rho)), ln_fac[1:-1])
    phi_z, lam_z = _pencil(1.0 / np.diff(z), dz[1:-1])
    lam = lam_r[:, None] + lam_z[None, :]
    psi0 = np.zeros((nr, nz))
    psi0[1:-1, 1:-1] = phi_r @ ((phi_r.T @ source[1:-1, 1:-1] @ phi_z)
                                / lam) @ phi_z.T
    return _FieldOperator(
        receiver=geometry.receivers[0], rho=rho, z=z, dz=dz, ln_fac=ln_fac,
        source=source, source_norm=source_norm, phi_r=phi_r, phi_z=phi_z,
        lam=lam, psi0=psi0)


def _surface_links(op: _FieldOperator, inside: np.ndarray, free: np.ndarray,
                   sphere_z: float, rs: float) -> np.ndarray:
    """Extra diagonal conductance d >= 0 of every free node, from its
    links that cross the sphere surface. A link that meets the surface
    at the fraction t of its length conducts c / t instead of c, so the
    boundary condition lands on the surface, not the nearest node."""
    rho, z = op.rho, op.z
    d = np.zeros(inside.shape)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        # free nodes are interior, so the rolled-in edge is never used
        i, j = np.nonzero(free & np.roll(inside, (-di, -dj), axis=(0, 1)))
        t = _segment_sphere_theta(rho[i], z[j], rho[i + di], z[j + dj],
                                  sphere_z, rs)
        c = _link_conductance(op, i, j, di, dj)
        d[i, j] += c / t - c
    return d


def _residual(op: _FieldOperator, psi: np.ndarray, d: np.ndarray,
              fixed: np.ndarray) -> float:
    """Max-norm of the source less the net link flux out of each free
    node, relative to the source; ``d`` is the extra diagonal."""
    i, j = np.ogrid[:psi.shape[0], :psi.shape[1]]
    flux_rho = _link_conductance(op, i[:-1], j, 1, 0) * np.diff(psi, axis=0)
    flux_z = _link_conductance(op, i, j[:, :-1], 0, 1) * np.diff(psi, axis=1)
    a_psi = d * psi
    a_psi[:-1, :] -= flux_rho
    a_psi[1:, :] += flux_rho
    a_psi[:, :-1] -= flux_z
    a_psi[:, 1:] += flux_z
    r = np.where(fixed, 0.0, op.source - a_psi)
    return float(np.max(np.abs(r))) / op.source_norm


def _capacitance_correction(op: _FieldOperator, i: np.ndarray,
                            j: np.ndarray, extra: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
    """G e on the interior nodes, for the sources e on the nodes (i, j)
    that solve (G[P, P] + diag(extra)) e = rhs, where G is the inverse of
    the sphere-free operator and P the nodes (i, j).

    G[P, P] comes from the pencils' Kronecker structure, never as rows
    of G: over the distinct z rows of P, W[a] = Z diag(1 / lam[a]) Z^T
    for each rho eigenvector a, contracted with phi_r over the distinct
    rho rows."""
    rows, ip = np.unique(i, return_inverse=True)
    cols, jp = np.unique(j, return_inverse=True)
    n_i, n_j = len(rows), len(cols)
    # entries of the largest of ZZ, W, RR and T below
    largest = max(n_j * n_j * max(op.lam.shape),
                  n_i * n_i * op.lam.shape[0], (n_i * n_j) ** 2)
    if largest > _MAX_CAPACITANCE_ENTRIES:
        raise SolverError(
            f"sphere spans {n_i} x {n_j} grid nodes, too many for the "
            f"capacitance solve; a coarser grid or a smaller sphere fits")
    R = op.phi_r[rows - 1]
    Z = op.phi_z[cols - 1]
    ZZ = (Z[:, None, :] * Z[None, :, :]).reshape(n_j * n_j, -1)
    RR = (R[:, None, :] * R[None, :, :]).reshape(n_i * n_i, -1)
    W = (1.0 / op.lam) @ ZZ.T
    T = (RR @ W).reshape(n_i, n_i, n_j, n_j)
    C = T[ip[:, None], ip[None, :], jp[:, None], jp[None, :]]
    C[np.diag_indices_from(C)] += extra
    e = np.zeros((n_i, n_j))
    e[ip, jp] = np.linalg.solve(C, rhs)
    return op.phi_r @ ((R.T @ e @ Z) / op.lam) @ op.phi_z.T


def _solve(op: _FieldOperator, sphere_z: float | None = None,
           rs: float | None = None) -> OracleResult:
    """Receiver flux per unit drive current on the operator's mesh, with
    a superconducting sphere of radius ``rs`` centred at axial position
    ``sphere_z``, or with no sphere.

    The sphere pins psi = 0 at the interior nodes inside it (the set S)
    and shortens the links that cross its surface, which raises the
    diagonal of the free nodes at their outer ends by d > 0 (the set N).
    The solution is the sphere-free one, psi0 = G b, plus the field of
    sources e on P = S u N (the capacitance-matrix method of Buzbee,
    Dorr, George & Golub 1971): psi = psi0 + G e. The conditions
    psi[S] = 0 and e[N] = -d psi[N] make the m x m system
    (G[P, P] + diag(0 on S, 1 / d on N)) e = -psi0[P], solved directly.
    The true residual of the result is checked against RESIDUAL_TOL."""
    rho, z = op.rho, op.z
    nr, nz = len(rho), len(z)
    fixed = np.zeros((nr, nz), dtype=bool)
    fixed[0, :] = fixed[-1, :] = True
    fixed[:, 0] = fixed[:, -1] = True
    d = np.zeros((nr, nz))
    psi = op.psi0.copy()
    if sphere_z is not None:
        if not z[0] <= sphere_z <= z[-1]:
            raise GeometryError("sphere outside the solver mesh")
        inside = rho[:, None]**2 + (z[None, :] - sphere_z)**2 <= rs * rs
        if not inside.any():
            raise GeometryError("sphere smaller than one grid cell")
        pinned = inside & ~fixed
        fixed |= inside
        d = _surface_links(op, inside, ~fixed, sphere_z, rs)
        i, j = np.nonzero(pinned | (d > 0.0))
        d_p = d[i, j]
        extra = np.divide(1.0, d_p, out=np.zeros_like(d_p), where=d_p > 0.0)
        psi[1:-1, 1:-1] += _capacitance_correction(op, i, j, extra,
                                                   -op.psi0[i, j])
        psi[fixed] = 0.0

    residual = _residual(op, psi, d, fixed)
    if residual >= RESIDUAL_TOL:
        raise SolverError(
            f"field solve residual {residual:.3e} is not under the "
            f"tolerance {RESIDUAL_TOL:.1e}")

    flux_psi = _bilinear(psi, rho, z, op.receiver.mean_radius, 0.0)
    L_eff = op.receiver.turns * 2.0 * math.pi * flux_psi
    return OracleResult(L_eff=L_eff, residual=residual, rho=rho, z=z,
                        psi=psi)


def axisymmetric_oracle(geometry: DetectionGeometry, center=None,
                        radius: float | None = None, n: int = 256,
                        driven: str = "receiver") -> OracleResult:
    """Solve the field problem on an n x n mesh and return receiver flux
    per unit drive current (an inductance: self-flux when the receiver
    drives, mutual coupling when the transmitter does), with a sphere of
    ``radius`` at the 3-vector ``center``, or with none when ``center``
    is None. The mesh is built around the coils and the sphere.

    Raises :class:`SolverError` if the maximum residual of the solve is
    not under RESIDUAL_TOL times the source norm, or if the sphere
    covers too many grid nodes for its capacitance system.
    """
    _check_driven(driven)
    centers = radii = None
    if center is not None:
        centers, radii = _sphere_poses([center], radius)
    coils, sphere_z = _axial_coordinates(geometry, centers)
    sphere = () if center is None else (sphere_z[0], radii[0])
    op = _field_operator(geometry, coils, *_build_axes(coils, n, *sphere),
                         driven)
    return _solve(op, *sphere)


def _bilinear(psi: np.ndarray, rho: np.ndarray, z: np.ndarray,
              r_eval: float, z_eval: float) -> float:
    i = int(np.searchsorted(rho, r_eval)) - 1
    j = int(np.searchsorted(z, z_eval)) - 1
    if not (0 <= i < len(rho) - 1 and 0 <= j < len(z) - 1):
        raise SolverError("flux evaluation point outside the grid")
    t_r = (r_eval - rho[i]) / (rho[i + 1] - rho[i])
    t_z = (z_eval - z[j]) / (z[j + 1] - z[j])
    return float(psi[i, j] * (1 - t_r) * (1 - t_z)
                 + psi[i + 1, j] * t_r * (1 - t_z)
                 + psi[i, j + 1] * (1 - t_r) * t_z
                 + psi[i + 1, j + 1] * t_r * t_z)


def oracle_sweep(geometry: DetectionGeometry, centers, radius,
                 n: int = 256) -> np.ndarray:
    """Sphere-induced receiver inductance change on an n x n mesh at each
    pose: one row of the block ``centers`` of sphere centers, with one
    radius or one per center.

    Every solve shares one mesh built without the sphere, and with it
    one sphere-free operator, so a single base solve and a single pair
    of pencil eigendecompositions serve all poses."""
    centers, radii = _sphere_poses(centers, radius)
    coils, sphere_z = _axial_coordinates(geometry, centers)
    op = _field_operator(geometry, coils, *_build_axes(coils, n), "receiver")
    base = _solve(op)
    return np.array([_solve(op, zs, rs).L_eff - base.L_eff
                     for zs, rs in zip(sphere_z.tolist(), radii.tolist())])
