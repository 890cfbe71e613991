"""Inductive position detection: coil fields, flux exclusion by the
superconducting sphere, and the effective inductance, LC resonance and
induced voltage of a position sweep.

The field model is analytic: each coil is an ideal multi-turn circular
filament whose magnetostatic field is evaluated through complete
elliptic integrals, computed by the arithmetic-geometric mean, and the
sphere responds as an induced point dipole opposing the local field.
The sphere radius is small compared with every coil distance of
interest, which is what makes dipole order sufficient; the
finite-difference solver in :mod:`levosc.axisym` quantifies the error
independently.

Fields, dipole moments and clearances are evaluated over (n, 3) blocks, so
a position sweep evaluates each coil's field once over all pose centers
and the pose-independent inductances once per sweep. The sweep is the
only path from a pose to an inductance or a voltage: a question about
one pose is a sweep of one pose. Its result is columnar:
:class:`SweepResult` holds one array per quantity, one entry per pose.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, GeometryError
from .formats import REQUIRED, read_json, read_keys, write_csv

__all__ = [
    "MU0",
    "CoilSpec",
    "DriveSpec",
    "DetectionGeometry",
    "SweepResult",
    "coil_field",
    "self_inductance",
    "mutual_inductance",
    "induced_dipole",
    "resonance_frequency",
    "capacitance_from_resonance",
    "position_sweep",
    "write_sweep_csv",
    "coaxial_geometry",
    "orthogonal_geometry",
    "load_geometry",
    "GEOMETRY_TABLE",
]

MU0 = 4e-7 * math.pi

# A sphere may approach a coil filament no closer than this.
MIN_COIL_CLEARANCE = 1e-4  # m

_Vec3 = tuple[float, float, float]


def _as_vec(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class CoilSpec:
    """An ideal N-turn circular coil.

    ``conductor_cross_section_total`` is the full winding-bundle
    cross-section; it sets the equivalent wire radius used for the
    self-inductance estimate and the current density in the
    finite-difference solver.
    """

    center: _Vec3
    axis: _Vec3
    mean_radius: float
    turns: int
    conductor_cross_section_total: float
    role: str = "receiver"

    def __post_init__(self):
        c = _as_vec(self.center)
        a = _as_vec(self.axis)
        object.__setattr__(self, "center", tuple(float(x) for x in c))
        object.__setattr__(self, "axis", tuple(float(x) for x in a))
        if not (np.isfinite(c).all() and np.isfinite(a).all()):
            raise ValueError("coil center and axis must be finite")
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise ValueError("coil axis must be a unit vector (|norm-1| <= 1e-12)")
        for name in ("mean_radius", "conductor_cross_section_total"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not (isinstance(self.turns, int) and self.turns >= 1):
            raise ValueError("turns must be a positive integer")
        if self.role not in ("transmitter", "receiver"):
            raise ValueError(f"unknown coil role {self.role!r}")

    @property
    def center_v(self) -> np.ndarray:
        return np.array(self.center)

    @property
    def axis_v(self) -> np.ndarray:
        return np.array(self.axis)

    @property
    def wire_radius(self) -> float:
        """Radius of the equivalent round bundle, sqrt(S/pi)."""
        return math.sqrt(self.conductor_cross_section_total / math.pi)


@dataclass(frozen=True)
class DriveSpec:
    """Sinusoidal current drive I(t) = I0 cos(omega t)."""

    amplitude: float
    angular_frequency: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("drive amplitude must be non-negative")
        if self.angular_frequency <= 0:
            raise ValueError("angular frequency must be positive")


@dataclass(frozen=True)
class DetectionGeometry:
    """Transmitter, one or two receivers, drive, and the LC circuit.

    ``receiver_inductance`` is an optional measured circuit constant;
    when present it replaces the geometric self-inductance estimate as
    the unperturbed receiver inductance (the measured value includes
    leads and parasitics that the filament model cannot know about).
    """

    transmitter: CoilSpec
    receivers: tuple[CoilSpec, ...]
    drive: DriveSpec
    capacitance: float
    receiver_inductance: float | None = None

    def __post_init__(self):
        receivers = tuple(self.receivers)
        object.__setattr__(self, "receivers", receivers)
        if self.transmitter.role != "transmitter":
            raise ValueError("transmitter coil must carry the transmitter role")
        if not 1 <= len(receivers) <= 2:
            raise ValueError("need one or two receiver coils")
        for r in receivers:
            if r.role != "receiver":
                raise ValueError("receiver coils must carry the receiver role")
        if len(receivers) == 2:
            dot = abs(float(np.dot(receivers[0].axis_v, receivers[1].axis_v)))
            if dot >= 1e-6:
                raise ValueError("two receivers must have orthogonal axes")
        if self.capacitance <= 0:
            raise ValueError("capacitance must be positive")
        if self.receiver_inductance is not None and self.receiver_inductance <= 0:
            raise ValueError("receiver_inductance must be positive if given")


def _sphere_poses(centers, radius) -> tuple[np.ndarray, np.ndarray]:
    """The checked poses of a sweep: an (n, 3) block of finite sphere
    centers, at least one, and the finite positive radius of each, from
    one radius or one per center."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radius, dtype=float)
    if centers.size == 0:
        raise ConfigError("sweep needs at least one pose")
    if not (centers.ndim == 2 and centers.shape[1] == 3
            and radii.shape in ((), centers.shape[:1])):
        raise ValueError(f"expected an (n, 3) block of sphere centers and "
                         f"one radius or one per center, got shapes "
                         f"{centers.shape} and {radii.shape}")
    if not np.isfinite(centers).all():
        raise ValueError("sphere center must be finite")
    if not np.all((radii > 0) & (radii < math.inf)):
        raise ValueError("sphere radius must be finite and positive")
    return centers, np.broadcast_to(radii, (len(centers),))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Columns of a position sweep, one entry per pose; failed poses
    hold NaN and their messages are in ``errors`` as (index, text)."""

    position: np.ndarray
    L_eff: np.ndarray
    delta_L: np.ndarray
    f: np.ndarray
    V: np.ndarray
    errors: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        names = ("position", "L_eff", "delta_L", "f", "V")
        for name in names:
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if len({len(getattr(self, name)) for name in names}) != 1:
            raise ValueError("sweep columns must have equal lengths")
        step = np.diff(self.position)
        if not (np.all(step > 0) or np.all(step < 0)):
            raise ValueError("sweep rows must be ordered by position")
        if np.any(self.L_eff <= 0):
            raise ValueError("L_eff must be positive")


def _coil_frame(points: np.ndarray, coil: CoilSpec):
    """Axial coordinate z, radial vector and its length rho of each row
    of an (n, 3) block of points in the coil's frame; a length past the
    float range reads inf."""
    rel = points - coil.center_v
    z = rel @ coil.axis_v
    radial = rel - np.outer(z, coil.axis_v)
    with np.errstate(over="ignore"):
        rho = np.linalg.norm(radial, axis=1)
    return z, radial, rho


def _circle_distance(points: np.ndarray, coil: CoilSpec) -> np.ndarray:
    """Distance from each row of an (n, 3) block of points to the coil's
    mean winding circle."""
    z, _, rho = _coil_frame(points, coil)
    return np.hypot(rho - coil.mean_radius, z)


def _clearance_failures(geometry: DetectionGeometry, centers: np.ndarray,
                        radii: np.ndarray) -> dict[int, str]:
    """Error text for each pose whose sphere surface comes within
    MIN_COIL_CLEARANCE of a winding, keyed by pose index; the first
    offending coil (transmitter, then receivers) is reported."""
    failures: dict[int, str] = {}
    for coil in (geometry.transmitter, *geometry.receivers):
        d = _circle_distance(centers, coil)
        for i in np.flatnonzero(d < radii + MIN_COIL_CLEARANCE).tolist():
            failures.setdefault(i, (
                f"sphere surface within {MIN_COIL_CLEARANCE * 1e3:.1f} mm "
                f"of a {coil.role} winding (separation {d[i]:.4g} m)"))
    return failures


def _orthobasis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # pick the cartesian direction least aligned with the axis
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    u = seed - np.dot(seed, axis) * axis
    u /= np.linalg.norm(u)
    return u, np.cross(axis, u)


# AGM steps for double precision at every m < 1. The recurrence
# converges quadratically once a and b agree to a few digits; from the
# slowest start, m = 1 - 2**-53 (b = 1.05e-8), seven steps leave a
# relative error of 5e-14 in K and eight reach rounding.
_AGM_STEPS = 8


def _ellipke(m):
    """Complete elliptic integrals K(m) and E(m) of the parameter m in
    [0, 1), by the arithmetic-geometric mean (Abramowitz & Stegun 17.6;
    DLMF 19.8): a, b = (a + b)/2, sqrt(ab) from a = 1, b = sqrt(1 - m),
    with c = (a - b)/2; then K = pi/(2a) and
    E = K (1 - sum 2^(n-1) c_n^2), where c_0^2 = m.
    """
    m = np.asarray(m, dtype=float)
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    total = 0.5 * m
    weight = 0.5
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        total += weight * c * c
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - total)


def _loop_field_rz(a: float, rho, z):
    """Field of a 1-turn unit-current loop of radius ``a`` in its own
    frame; returns (B_rho, B_z) for array-like cylindrical coordinates.

    Far from the loop the squares overflow: on the axis the field then
    reads 0, its limit, and off the axis it may read NaN, which callers
    report.
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    near_axis = rho < 1e-12 * a
    rho_safe = np.where(near_axis, 1.0, rho)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta_sq = (a + rho_safe)**2 + z**2
        alpha_sq = (a - rho_safe)**2 + z**2
        m = 4.0 * a * rho_safe / beta_sq
        K, E = _ellipke(m)
        denom = 2.0 * math.pi * np.sqrt(beta_sq)
        B_z = MU0 / denom * (K + E * (a**2 - rho_safe**2 - z**2) / alpha_sq)
        B_rho = (MU0 * z / (denom * rho_safe)
                 * (E * (a**2 + rho_safe**2 + z**2) / alpha_sq - K))
        axial = MU0 * a**2 / (2.0 * (a**2 + z**2)**1.5)
    B_z = np.where(near_axis, axial, B_z)
    B_rho = np.where(near_axis, 0.0, B_rho)
    return B_rho, B_z


def coil_field(coil: CoilSpec, current: float, points) -> np.ndarray:
    """Magnetostatic field of the coil at an (n, 3) block of points,
    tesla, one row per point.

    Exact single-filament loop field (complete elliptic integrals),
    multiplied by the turn count. Points closer than 1 nm to the
    filament are rejected as singular.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) block of points, got shape "
                         f"{points.shape}")
    z, radial, rho = _coil_frame(points, coil)
    filament_dist = np.hypot(rho - coil.mean_radius, z)
    if np.any(filament_dist < 1e-9):
        raise DomainError("field requested on the coil filament")
    B_rho, B_z = _loop_field_rz(coil.mean_radius, rho, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_hat = np.where(rho[:, None] > 0, radial / np.where(
            rho[:, None] > 0, rho[:, None], 1.0), 0.0)
    B = B_rho[:, None] * rho_hat + B_z[:, None] * coil.axis_v[None, :]
    return coil.turns * current * B


def self_inductance(coil: CoilSpec) -> float:
    """Self-inductance of the N-turn loop with an equivalent round
    bundle: mu0 N^2 R (ln(8R/a) - 2)."""
    a_w = coil.wire_radius
    if a_w >= coil.mean_radius:
        raise GeometryError("winding bundle thicker than the coil radius")
    R = coil.mean_radius
    return MU0 * coil.turns**2 * R * (math.log(8.0 * R / a_w) - 2.0)


def _min_circle_separation(coil_a: CoilSpec, coil_b: CoilSpec) -> float:
    """Least distance from 90 points on a's mean winding circle to b's."""
    phi = np.linspace(0.0, 2.0 * math.pi, 90, endpoint=False)
    u, v = _orthobasis(coil_a.axis_v)
    ring = (coil_a.center_v[None, :]
            + coil_a.mean_radius * (np.outer(np.cos(phi), u)
                                    + np.outer(np.sin(phi), v)))
    return float(np.min(_circle_distance(ring, coil_b)))


@lru_cache(maxsize=1)
def _gauss_legendre_32() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-node Gauss-Legendre rule on [-1, 1],
    computed on first use and shared read-only."""
    rule = np.polynomial.legendre.leggauss(32)
    for array in rule:
        array.flags.writeable = False
    return rule


def mutual_inductance(coil_a: CoilSpec, coil_b: CoilSpec) -> float:
    """Mutual inductance: flux of a's unit-current field through b's
    mean cross-section, times b's turns.

    Quadrature is 32-node Gauss-Legendre in radius and 64-node periodic
    trapezoid in angle over the mean disk of ``coil_b``; both converge
    fast because the integrand is smooth for disjoint coils. The
    Gauss-Legendre rule is built by the first call and reused by every
    later one.
    """
    if _min_circle_separation(coil_a, coil_b) < MIN_COIL_CLEARANCE:
        raise GeometryError("coils overlap or nearly touch")
    n_angular = 64
    nodes, weights = _gauss_legendre_32()
    r = 0.5 * coil_b.mean_radius * (nodes + 1.0)
    w_r = 0.5 * coil_b.mean_radius * weights
    phi = 2.0 * math.pi * np.arange(n_angular) / n_angular
    w_phi = 2.0 * math.pi / n_angular
    u, v = _orthobasis(coil_b.axis_v)
    pts = (coil_b.center_v[None, None, :]
           + r[:, None, None] * (np.cos(phi)[None, :, None] * u
                                 + np.sin(phi)[None, :, None] * v))
    B = coil_field(coil_a, 1.0, pts.reshape(-1, 3))
    Bn = (B @ coil_b.axis_v).reshape(len(r), n_angular)
    flux = float(np.sum(w_r[:, None] * r[:, None] * Bn) * w_phi)
    return coil_b.turns * flux


def induced_dipole(B, radius) -> np.ndarray:
    """Moments of perfectly diamagnetic spheres in locally uniform
    fields, m = -(2 pi r^3 / mu0) B, for an (n, 3) block of fields and a
    scalar or (n,) radius."""
    radius = np.asarray(radius, dtype=float)
    if not np.all(radius > 0):
        raise DomainError("sphere radius must be positive")
    return -(2.0 * math.pi * radius**3 / MU0)[..., None] * B


def _unperturbed_inductance(geometry: DetectionGeometry,
                            receiver: CoilSpec) -> float:
    if geometry.receiver_inductance is not None:
        return geometry.receiver_inductance
    return self_inductance(receiver)


def _dipole_flux(B_source: np.ndarray, B_pickup: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """Flux m . B_pickup per pose of the sphere dipole induced by the
    unit-current field ``B_source``; fields are (n, 3) blocks."""
    return np.einsum("ij,ij->i", induced_dipole(B_source, radii), B_pickup)


def resonance_frequency(L_eff: float, C: float) -> float:
    """LC resonance f = 1 / (2 pi sqrt(L C))."""
    if L_eff <= 0 or C <= 0:
        raise DomainError("inductance and capacitance must be positive")
    return 1.0 / (2.0 * math.pi * math.sqrt(L_eff * C))


def capacitance_from_resonance(f0: float, L: float) -> float:
    """Exact inverse of :func:`resonance_frequency` in C."""
    if f0 <= 0 or L <= 0:
        raise DomainError("frequency and inductance must be positive")
    return 1.0 / ((2.0 * math.pi * f0)**2 * L)


def _check_driven(driven: str) -> None:
    if driven not in ("transmitter", "receiver"):
        raise ConfigError(
            f"driven must be transmitter or receiver, got {driven!r}")


def position_sweep(geometry: DetectionGeometry, centers, radius,
                   which_receiver: int = 0,
                   driven: str = "transmitter") -> SweepResult:
    """Evaluate L_eff, resonance, and voltage along a path of sphere
    poses: an (n, 3) block of centers and one radius or one per center.

    The recorded position is the signed distance of the sphere center
    from the receiver center along the receiver axis. All poses are
    evaluated at once: the unperturbed receiver inductance and the
    transmitter-receiver mutual inductance once per sweep, each coil's
    field once over all pose centers. Each row depends on its own pose
    alone, so a sweep of one pose answers a question about that pose.

    ``delta_L`` is the sphere dipole's flux through the receiver per
    unit receiver current; by reciprocity it is m(B_r) . B_r < 0, since
    flux exclusion can only reduce the self-flux. The voltage amplitude
    is quasi-static: |M_eff| I0 omega with the transmitter driven, where
    M_eff is the sphere-perturbed transmitter-receiver coupling, and
    |L_eff| I0 omega with the receiver driven.
    Rows that fail a geometry or domain check (a sphere within 0.1 mm of
    a winding, overlapping coils, a non-positive L_eff, a field that is
    not finite) are kept as NaN rows and the error text is collected;
    the sweep always completes.
    """
    centers, radii = _sphere_poses(centers, radius)
    _check_driven(driven)
    receiver = geometry.receivers[which_receiver]
    n = len(centers)
    position = (centers - receiver.center_v) @ receiver.axis_v
    errors = _clearance_failures(geometry, centers, radii)

    def fail_rest(message: str) -> None:
        for i in range(n):
            errors.setdefault(i, message)

    try:
        L0 = _unperturbed_inductance(geometry, receiver)
    except DomainError as exc:
        L0 = math.nan
        fail_rest(str(exc))
    ok = [i for i in range(n) if i not in errors]
    B_r = coil_field(receiver, 1.0, centers[ok])
    delta_L = np.full(n, math.nan)
    delta_L[ok] = _dipole_flux(B_r, B_r, radii[ok])
    L_eff = L0 + delta_L
    for i in np.flatnonzero(L_eff <= 0).tolist():
        errors.setdefault(i, "inductance and capacitance must be positive")
    with np.errstate(invalid="ignore"):
        f = 1.0 / (2.0 * math.pi * np.sqrt(L_eff * geometry.capacitance))
    I0 = geometry.drive.amplitude
    omega = geometry.drive.angular_frequency
    coupling = L_eff
    if driven == "transmitter":
        coupling = np.full(n, math.nan)
        try:
            M0 = mutual_inductance(geometry.transmitter, receiver)
        except DomainError as exc:
            fail_rest(str(exc))
        else:
            B_t = coil_field(geometry.transmitter, 1.0, centers[ok])
            coupling[ok] = M0 + _dipole_flux(B_t, B_r, radii[ok])
    V = np.abs(coupling) * I0 * omega
    # far off a coil's axis its field overflows to NaN
    for i in np.flatnonzero(np.isnan(delta_L + coupling)).tolist():
        errors.setdefault(i, "coil field not finite at the sphere center")
    failed = list(errors)
    for col in (L_eff, delta_L, f, V):
        col[failed] = math.nan
    return SweepResult(position, L_eff, delta_L, f, V,
                       errors=tuple(sorted(errors.items())))


def write_sweep_csv(result: SweepResult, fh: io.TextIOBase,
                    header_comment: str | None = None,
                    oracle_delta_L: Sequence[float] | None = None) -> None:
    """Emit a sweep as CSV; failed rows leave their fields empty.

    When ``oracle_delta_L`` is given (one value per row, NaN allowed),
    two extra columns report the independent field-solver result and
    its relative agreement with the dipole-model ``delta_L``.
    """
    header = ["position_m", "L_eff_H", "delta_L_H", "f_Hz", "V_amplitude_V"]
    columns = [result.position, result.L_eff, result.delta_L, result.f,
               result.V]
    if oracle_delta_L is not None:
        if len(oracle_delta_L) != len(result.position):
            raise ConfigError("need one oracle value per sweep row")
        oracle = np.asarray(oracle_delta_L, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            agreement = np.abs(result.delta_L - oracle) / np.abs(oracle)
        header += ["delta_L_oracle_H", "oracle_agreement"]
        columns += [oracle, np.where(oracle == 0.0, math.nan, agreement)]
    comments = [header_comment] + [f"row {idx} error: {msg}"
                                   for idx, msg in result.errors]
    write_csv(fh, comments, header, columns)


# 35 mA at 1.6 MHz, the drive of both built-in geometries
_DRIVE = DriveSpec(amplitude=0.035, angular_frequency=2.0 * math.pi * 1.6e6)


def coaxial_geometry() -> DetectionGeometry:
    """Coaxial measurement arrangement: 3 mm/60-turn receiver at the
    origin and 12.5 mm/100-turn transmitter 22.7 mm above it on the
    shared +z axis, driven at 35 mA and 1.6 MHz, with a 470 pF tank
    capacitor and a measured 21 uH receiver inductance."""
    receiver = CoilSpec(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                        mean_radius=3e-3, turns=60,
                        conductor_cross_section_total=0.012e-4,
                        role="receiver")
    transmitter = CoilSpec(center=(0.0, 0.0, 2.27e-2), axis=(0.0, 0.0, 1.0),
                           mean_radius=12.5e-3, turns=100,
                           conductor_cross_section_total=0.022e-4,
                           role="transmitter")
    return DetectionGeometry(transmitter=transmitter, receivers=(receiver,),
                             drive=_DRIVE, capacitance=470e-12,
                             receiver_inductance=21e-6)


def orthogonal_geometry() -> DetectionGeometry:
    """Three-dimensional arrangement: vertical-axis transmitter ring of
    radius 26 mm in the levitation plane and a pair of mutually
    orthogonal horizontal-axis receivers 22 mm above it, with the
    coaxial pair's drive and capacitor."""
    transmitter = CoilSpec(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                           mean_radius=2.6e-2, turns=100,
                           conductor_cross_section_total=0.022e-4,
                           role="transmitter")
    rx1 = CoilSpec(center=(0.0, 0.0, 2.2e-2), axis=(1.0, 0.0, 0.0),
                   mean_radius=3e-3, turns=60,
                   conductor_cross_section_total=0.012e-4, role="receiver")
    rx2 = CoilSpec(center=(0.0, 0.0, 2.2e-2), axis=(0.0, 1.0, 0.0),
                   mean_radius=3e-3, turns=60,
                   conductor_cross_section_total=0.012e-4, role="receiver")
    return DetectionGeometry(transmitter=transmitter, receivers=(rx1, rx2),
                             drive=_DRIVE, capacitance=470e-12)


# Keys of a geometry file, in the layout of levosc.formats.read_keys.
COIL_TABLE = {
    "center_m": ("three numbers", REQUIRED),
    "axis": ("three numbers", REQUIRED),
    "mean_radius_m": ("number", REQUIRED), "turns": ("integer", REQUIRED),
    "conductor_cross_section_m2": ("number", REQUIRED),
    "role": ("string or null", None)}
GEOMETRY_TABLE = {
    "transmitter": COIL_TABLE, "receivers": [COIL_TABLE],
    "drive": {"amplitude_A": ("number", REQUIRED),
              "frequency_Hz": ("number or null", None),
              "angular_frequency_rad_s": ("number or null", None)},
    "capacitance_F": ("number", REQUIRED),
    "receiver_inductance_H": ("number or null", None)}


def _coil(coil: dict, role: str) -> CoilSpec:
    return CoilSpec(center=coil["center_m"], axis=coil["axis"],
                    mean_radius=coil["mean_radius_m"], turns=coil["turns"],
                    conductor_cross_section_total=coil[
                        "conductor_cross_section_m2"],
                    role=role if coil["role"] is None else coil["role"])


def load_geometry(data: bytes, source: str | Path) -> DetectionGeometry:
    """A detection geometry from the bytes of its JSON description.

    Keys carry explicit unit suffixes (``center_m``, ``mean_radius_m``,
    ``capacitance_F``, drive ``amplitude_A`` + ``frequency_Hz``). The
    bytes are read by :func:`levosc.formats.read_json` and checked
    against ``GEOMETRY_TABLE`` by :func:`levosc.formats.read_keys`: bad
    JSON, a repeated key, an unknown key, a missing one or a value of
    the wrong JSON type is a :class:`ConfigError` naming the key.
    """
    obj = read_json(data, "geometry", source)
    try:
        geom = read_keys(GEOMETRY_TABLE, obj, "geometry")
        drive = geom["drive"]
        f, omega = drive["frequency_Hz"], drive["angular_frequency_rad_s"]
        if (f is None) == (omega is None):
            raise ValueError("drive needs exactly one of frequency_Hz and "
                             "angular_frequency_rad_s")
        return DetectionGeometry(
            transmitter=_coil(geom["transmitter"], "transmitter"),
            receivers=tuple(_coil(r, "receiver") for r in geom["receivers"]),
            drive=DriveSpec(amplitude=drive["amplitude_A"],
                            angular_frequency=(2.0 * math.pi * f
                                               if omega is None else omega)),
            capacitance=geom["capacitance_F"],
            receiver_inductance=geom["receiver_inductance_H"])
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"bad geometry file {source}: {exc}") from exc
