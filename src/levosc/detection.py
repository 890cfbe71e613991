"""Inductive position detection: coil fields, flux exclusion by the
superconducting sphere, effective inductance, LC resonance, and induced
voltage versus sphere position.

The field model is analytic: each coil is an ideal multi-turn circular
filament whose magnetostatic field is evaluated through complete
elliptic integrals, computed by the arithmetic-geometric mean, and the
sphere responds as an induced point dipole opposing the local field.
The sphere radius is small compared with every coil distance of
interest, which is what makes dipole order sufficient; the
finite-difference solver in :mod:`levosc.axisym` quantifies the error
independently.

Field and clearance helpers take (n, 3) blocks of points, so a
position sweep evaluates each coil's field once over all pose centers
and the pose-independent inductances once per sweep; the single-pose
functions run the same helpers on a block of one. A sweep's result is
columnar: :class:`SweepResult` holds one array per quantity, one entry
per pose.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, GeometryError

__all__ = [
    "MU0",
    "CoilSpec",
    "DriveSpec",
    "MediumSpec",
    "DetectionGeometry",
    "SpherePose",
    "SweepResult",
    "coil_field",
    "self_inductance",
    "mutual_inductance",
    "induced_dipole",
    "effective_inductance",
    "resonance_frequency",
    "capacitance_from_resonance",
    "induced_voltage",
    "position_sweep",
    "write_sweep_csv",
    "coaxial_geometry",
    "orthogonal_geometry",
    "load_geometry",
    "check_clearance",
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
class MediumSpec:
    """Electromagnetic properties of the bath around the coils.

    The conductivity is so small that eddy effects are negligible even
    at MHz drive; the record exists to document why the quasi-static
    field treatment is valid, not to feed a loss model.
    """

    relative_permittivity: float = 1.048
    relative_permeability: float = 1.0
    conductivity: float = 1e-13

    def __post_init__(self):
        if self.relative_permittivity < 1.0:
            raise ValueError("relative permittivity must be >= 1")
        if self.relative_permeability <= 0:
            raise ValueError("relative permeability must be positive")
        if self.conductivity < 0:
            raise ValueError("conductivity must be non-negative")


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
    medium: MediumSpec = field(default_factory=MediumSpec)
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


@dataclass(frozen=True)
class SpherePose:
    """Superconducting sphere position and radius."""

    center: _Vec3
    radius: float

    def __post_init__(self):
        c = _as_vec(self.center)
        object.__setattr__(self, "center", tuple(float(x) for x in c))
        if not np.isfinite(c).all():
            raise ValueError("sphere center must be finite")
        if not 0 < self.radius < math.inf:
            raise ValueError("sphere radius must be finite and positive")

    @property
    def center_v(self) -> np.ndarray:
        return np.array(self.center)


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


def _circle_distance(points: np.ndarray, coil: CoilSpec) -> np.ndarray:
    """Distance from each row of an (n, 3) block of points to the coil's
    mean winding circle."""
    axis = coil.axis_v
    rel = points - coil.center_v
    z = rel @ axis
    rho = np.linalg.norm(rel - np.outer(z, axis), axis=1)
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


def check_clearance(geometry: DetectionGeometry, pose: SpherePose) -> None:
    """Reject poses that put the sphere within 0.1 mm of any winding."""
    failures = _clearance_failures(geometry, pose.center_v[None, :],
                                   np.array([pose.radius]))
    if failures:
        raise GeometryError(failures[0])


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
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    near_axis = rho < 1e-12 * a
    rho_safe = np.where(near_axis, 1.0, rho)
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


def _coil_field_points(coil: CoilSpec, current: float,
                       points: np.ndarray) -> np.ndarray:
    """Vectorized field of the coil at an (n, 3) block of points."""
    axis = coil.axis_v
    rel = points - coil.center_v
    z = rel @ axis
    radial = rel - np.outer(z, axis)
    rho = np.linalg.norm(radial, axis=1)
    filament_dist = np.hypot(rho - coil.mean_radius, z)
    if np.any(filament_dist < 1e-9):
        raise DomainError("field requested on the coil filament")
    B_rho, B_z = _loop_field_rz(coil.mean_radius, rho, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho_hat = np.where(rho[:, None] > 0, radial / np.where(
            rho[:, None] > 0, rho[:, None], 1.0), 0.0)
    B = B_rho[:, None] * rho_hat + B_z[:, None] * axis[None, :]
    return coil.turns * current * B


def coil_field(coil: CoilSpec, current: float, point) -> np.ndarray:
    """Magnetostatic field of the coil at one point, tesla.

    Exact single-filament loop field (complete elliptic integrals),
    multiplied by the turn count. Points closer than 1 nm to the
    filament are rejected as singular.
    """
    pts = _as_vec(point)[None, :]
    return _coil_field_points(coil, current, pts)[0]


def self_inductance(coil: CoilSpec) -> float:
    """Self-inductance of the N-turn loop with an equivalent round
    bundle: mu0 N^2 R (ln(8R/a) - 2)."""
    a_w = coil.wire_radius
    if a_w >= coil.mean_radius:
        raise GeometryError("winding bundle thicker than the coil radius")
    R = coil.mean_radius
    return MU0 * coil.turns**2 * R * (math.log(8.0 * R / a_w) - 2.0)


def _min_circle_separation(coil_a: CoilSpec, coil_b: CoilSpec,
                           samples: int = 90) -> float:
    phi = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    u, v = _orthobasis(coil_a.axis_v)
    ring = (coil_a.center_v[None, :]
            + coil_a.mean_radius * (np.outer(np.cos(phi), u)
                                    + np.outer(np.sin(phi), v)))
    return float(np.min(_circle_distance(ring, coil_b)))


def mutual_inductance(coil_a: CoilSpec, coil_b: CoilSpec,
                      n_radial: int = 32, n_angular: int = 64) -> float:
    """Mutual inductance: flux of a's unit-current field through b's
    mean cross-section, times b's turns.

    Quadrature is Gauss-Legendre in radius and periodic trapezoid in
    angle over the mean disk of ``coil_b``; both converge fast because
    the integrand is smooth for disjoint coils.
    """
    if _min_circle_separation(coil_a, coil_b) < MIN_COIL_CLEARANCE:
        raise GeometryError("coils overlap or nearly touch")
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * coil_b.mean_radius * (nodes + 1.0)
    w_r = 0.5 * coil_b.mean_radius * weights
    phi = 2.0 * math.pi * np.arange(n_angular) / n_angular
    w_phi = 2.0 * math.pi / n_angular
    u, v = _orthobasis(coil_b.axis_v)
    pts = (coil_b.center_v[None, None, :]
           + r[:, None, None] * (np.cos(phi)[None, :, None] * u
                                 + np.sin(phi)[None, :, None] * v))
    B = _coil_field_points(coil_a, 1.0, pts.reshape(-1, 3))
    Bn = (B @ coil_b.axis_v).reshape(len(r), n_angular)
    flux = float(np.sum(w_r[:, None] * r[:, None] * Bn) * w_phi)
    return coil_b.turns * flux


def induced_dipole(B_local, sphere_radius: float) -> np.ndarray:
    """Moment of a perfectly diamagnetic sphere in a locally uniform
    field: m = -(2 pi r^3 / mu0) B."""
    if sphere_radius <= 0:
        raise DomainError("sphere radius must be positive")
    return -(2.0 * math.pi * sphere_radius**3 / MU0) * _as_vec(B_local)


def _unperturbed_inductance(geometry: DetectionGeometry,
                            receiver: CoilSpec) -> float:
    if geometry.receiver_inductance is not None:
        return geometry.receiver_inductance
    return self_inductance(receiver)


def _dipole_flux(B_source: np.ndarray, B_pickup: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """Flux m . B_pickup per pose of the sphere dipole induced by the
    unit-current field ``B_source``; fields are (n, 3) blocks."""
    moment = -(2.0 * math.pi * radii**3 / MU0)[:, None] * B_source
    return np.einsum("ij,ij->i", moment, B_pickup)


def effective_inductance(geometry: DetectionGeometry, pose: SpherePose,
                         which_receiver: int = 0) -> tuple[float, float]:
    """Receiver inductance with the sphere present.

    Returns ``(L_eff, delta_L)`` where ``delta_L`` is the sphere
    dipole's flux through the receiver per unit receiver current. By
    reciprocity that equals m(B_unit) . B_unit, so it is always
    negative: flux exclusion can only reduce the self-flux.
    """
    check_clearance(geometry, pose)
    receiver = geometry.receivers[which_receiver]
    L0 = _unperturbed_inductance(geometry, receiver)
    B_unit = _coil_field_points(receiver, 1.0, pose.center_v[None, :])
    delta_L = float(_dipole_flux(B_unit, B_unit, np.array([pose.radius]))[0])
    return L0 + delta_L, delta_L


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


def _mutual_with_sphere(geometry: DetectionGeometry, pose: SpherePose | None,
                        which_receiver: int) -> float:
    receiver = geometry.receivers[which_receiver]
    M0 = mutual_inductance(geometry.transmitter, receiver)
    if pose is None:
        return M0
    center = pose.center_v[None, :]
    B_t = _coil_field_points(geometry.transmitter, 1.0, center)
    B_r = _coil_field_points(receiver, 1.0, center)
    return M0 + float(_dipole_flux(B_t, B_r, np.array([pose.radius]))[0])


def _check_driven(driven: str) -> None:
    if driven not in ("transmitter", "receiver"):
        raise ConfigError(
            f"driven must be transmitter or receiver, got {driven!r}")


def induced_voltage(geometry: DetectionGeometry, pose: SpherePose | None,
                    which_receiver: int = 0,
                    driven: str = "transmitter") -> float:
    """Receiver voltage amplitude under the quasi-static approximation.

    With the transmitter driven, the amplitude is |M_eff| I0 omega
    where M_eff is the sphere-perturbed transmitter-receiver coupling;
    with the receiver itself driven it is |L_eff| I0 omega.
    """
    _check_driven(driven)
    if pose is not None:
        check_clearance(geometry, pose)
    I0 = geometry.drive.amplitude
    omega = geometry.drive.angular_frequency
    if driven == "transmitter":
        coupling = _mutual_with_sphere(geometry, pose, which_receiver)
    elif pose is None:
        coupling = _unperturbed_inductance(
            geometry, geometry.receivers[which_receiver])
    else:
        coupling, _ = effective_inductance(geometry, pose, which_receiver)
    return abs(coupling) * I0 * omega


def position_sweep(geometry: DetectionGeometry,
                   poses: Sequence[SpherePose],
                   which_receiver: int = 0,
                   driven: str = "transmitter") -> SweepResult:
    """Evaluate L_eff, resonance, and voltage along a pose path.

    The recorded position is the signed distance of the sphere center
    from the receiver center along the receiver axis. All poses are
    evaluated at once: the unperturbed receiver inductance and the
    transmitter-receiver mutual inductance once per sweep, each coil's
    field once over all pose centers. Rows that fail a geometry or
    domain check are kept as NaN rows and the error text is collected,
    exactly as :func:`effective_inductance`, :func:`resonance_frequency`
    and :func:`induced_voltage` would raise it for that pose; the sweep
    always completes.
    """
    if not poses:
        raise ConfigError("sweep needs at least one pose")
    _check_driven(driven)
    receiver = geometry.receivers[which_receiver]
    centers = np.array([pose.center for pose in poses])
    radii = np.array([pose.radius for pose in poses])
    n = len(poses)
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
    B_r = _coil_field_points(receiver, 1.0, centers[ok])
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
            B_t = _coil_field_points(geometry.transmitter, 1.0, centers[ok])
            coupling[ok] = M0 + _dipole_flux(B_t, B_r, radii[ok])
    V = np.abs(coupling) * I0 * omega
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
    cols = ["position_m", "L_eff_H", "delta_L_H", "f_Hz", "V_amplitude_V"]
    if oracle_delta_L is not None:
        if len(oracle_delta_L) != len(result.position):
            raise ConfigError("need one oracle value per sweep row")
        cols += ["delta_L_oracle_H", "oracle_agreement"]
    if header_comment:
        fh.write(f"# {header_comment}\n")
    for idx, msg in result.errors:
        fh.write(f"# row {idx} error: {msg}\n")
    fh.write(",".join(cols) + "\n")

    def fmt(x: float) -> str:
        return "" if math.isnan(x) else repr(x)

    columns = (result.position, result.L_eff, result.delta_L, result.f,
               result.V)
    for i, (pos, L_eff, delta_L, f, V) in enumerate(
            zip(*(col.tolist() for col in columns))):
        fields = [repr(pos), fmt(L_eff), fmt(delta_L), fmt(f), fmt(V)]
        if oracle_delta_L is not None:
            o = float(oracle_delta_L[i])
            fields.append(fmt(o))
            if math.isnan(o) or math.isnan(delta_L) or o == 0.0:
                fields.append("")
            else:
                fields.append(repr(abs(delta_L - o) / abs(o)))
        fh.write(",".join(fields) + "\n")


def coaxial_geometry(d_z: float = 2.27e-2,
                     drive_amplitude: float = 0.035,
                     drive_frequency: float = 1.6e6,
                     capacitance: float = 470e-12,
                     receiver_inductance: float | None = 21e-6,
                     ) -> DetectionGeometry:
    """Coaxial measurement arrangement: 3 mm/60-turn receiver at the
    origin and 12.5 mm/100-turn transmitter a distance ``d_z`` above it
    on the shared +z axis."""
    receiver = CoilSpec(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                        mean_radius=3e-3, turns=60,
                        conductor_cross_section_total=0.012e-4,
                        role="receiver")
    transmitter = CoilSpec(center=(0.0, 0.0, d_z), axis=(0.0, 0.0, 1.0),
                           mean_radius=12.5e-3, turns=100,
                           conductor_cross_section_total=0.022e-4,
                           role="transmitter")
    drive = DriveSpec(amplitude=drive_amplitude,
                      angular_frequency=2.0 * math.pi * drive_frequency)
    return DetectionGeometry(transmitter=transmitter, receivers=(receiver,),
                             drive=drive, capacitance=capacitance,
                             receiver_inductance=receiver_inductance)


def orthogonal_geometry(r_trans: float = 2.6e-2,
                        d_z: float = 2.2e-2,
                        drive_amplitude: float = 0.035,
                        drive_frequency: float = 1.6e6,
                        capacitance: float = 470e-12,
                        ) -> DetectionGeometry:
    """Three-dimensional arrangement: vertical-axis transmitter ring of
    radius ``r_trans`` in the levitation plane and a pair of mutually
    orthogonal horizontal-axis receivers a height ``d_z`` above it."""
    transmitter = CoilSpec(center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0),
                           mean_radius=r_trans, turns=100,
                           conductor_cross_section_total=0.022e-4,
                           role="transmitter")
    rx1 = CoilSpec(center=(0.0, 0.0, d_z), axis=(1.0, 0.0, 0.0),
                   mean_radius=3e-3, turns=60,
                   conductor_cross_section_total=0.012e-4, role="receiver")
    rx2 = CoilSpec(center=(0.0, 0.0, d_z), axis=(0.0, 1.0, 0.0),
                   mean_radius=3e-3, turns=60,
                   conductor_cross_section_total=0.012e-4, role="receiver")
    drive = DriveSpec(amplitude=drive_amplitude,
                      angular_frequency=2.0 * math.pi * drive_frequency)
    return DetectionGeometry(transmitter=transmitter, receivers=(rx1, rx2),
                             drive=drive, capacitance=capacitance)


# Keys of a geometry file: key -> (JSON type, default); _REQUIRED marks
# a key without a default, and a default of None also admits null.
_REQUIRED = object()
_COIL_KEYS = {
    "center_m": ("3 numbers", _REQUIRED), "axis": ("3 numbers", _REQUIRED),
    "mean_radius_m": ("number", _REQUIRED), "turns": ("integer", _REQUIRED),
    "conductor_cross_section_m2": ("number", _REQUIRED),
    "role": ("string", None)}
_DRIVE_KEYS = {"amplitude_A": ("number", _REQUIRED),
               "frequency_Hz": ("number", None),
               "angular_frequency_rad_s": ("number", None)}
_MEDIUM_KEYS = {"relative_permittivity": ("number", 1.048),
                "relative_permeability": ("number", 1.0),
                "conductivity_S_per_m": ("number", 1e-13)}
_GEOMETRY_KEYS = {
    "transmitter": ("object", _REQUIRED), "receivers": ("list", _REQUIRED),
    "drive": ("object", _REQUIRED), "medium": ("object", {}),
    "capacitance_F": ("number", _REQUIRED),
    "receiver_inductance_H": ("number", None)}


def _is_json(kind: str, value) -> bool:
    """Whether ``value`` has JSON type ``kind``: a bool is no number and
    60.9 no integer."""
    if kind == "number":
        return type(value) in (int, float) and math.isfinite(value)
    if kind == "integer":
        return type(value) is int
    if kind == "3 numbers":
        return (isinstance(value, list) and len(value) == 3
                and all(_is_json("number", v) for v in value))
    return isinstance(value, {"string": str, "object": dict,
                              "list": list}[kind])


def _json_fields(obj, keys: dict, where: str) -> dict:
    """The entries of the JSON object ``obj`` checked against ``keys``,
    with defaults filled in; ValueError naming the key otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    out = {}
    for key, (kind, default) in keys.items():
        value = obj.get(key, default)
        if value is _REQUIRED:
            raise ValueError(f"{where}.{key} is missing")
        if not (value is default is None or _is_json(kind, value)):
            raise ValueError(f"{where}.{key}: expected {kind}, "
                             f"got {value!r}")
        out[key] = value
    return out


def _coil_from_json(obj, role: str, where: str) -> CoilSpec:
    coil = _json_fields(obj, _COIL_KEYS, where)
    return CoilSpec(center=tuple(coil["center_m"]), axis=tuple(coil["axis"]),
                    mean_radius=float(coil["mean_radius_m"]),
                    turns=coil["turns"],
                    conductor_cross_section_total=float(
                        coil["conductor_cross_section_m2"]),
                    role=role if coil["role"] is None else coil["role"])


def load_geometry(path: str | Path) -> DetectionGeometry:
    """Read a detection geometry from its JSON description.

    Keys carry explicit unit suffixes (``center_m``, ``mean_radius_m``,
    ``capacitance_F``, drive ``amplitude_A`` + ``frequency_Hz``). An
    unknown key, a missing one or a value of the wrong JSON type is a
    :class:`ConfigError` naming the key.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read geometry {path}: {exc}") from exc
    try:
        geom = _json_fields(obj, _GEOMETRY_KEYS, "geometry")
        transmitter = _coil_from_json(geom["transmitter"], "transmitter",
                                      "geometry.transmitter")
        receivers = tuple(
            _coil_from_json(r, "receiver", f"geometry.receivers[{i}]")
            for i, r in enumerate(geom["receivers"]))
        drive = _json_fields(geom["drive"], _DRIVE_KEYS, "geometry.drive")
        f, omega = drive["frequency_Hz"], drive["angular_frequency_rad_s"]
        if (f is None) == (omega is None):
            raise ValueError("drive needs exactly one of frequency_Hz and "
                             "angular_frequency_rad_s")
        medium = _json_fields(geom["medium"], _MEDIUM_KEYS, "geometry.medium")
        L_rx = geom["receiver_inductance_H"]
        return DetectionGeometry(
            transmitter=transmitter, receivers=receivers,
            drive=DriveSpec(amplitude=float(drive["amplitude_A"]),
                            angular_frequency=float(
                                2.0 * math.pi * f if omega is None
                                else omega)),
            capacitance=float(geom["capacitance_F"]),
            medium=MediumSpec(
                relative_permittivity=float(medium["relative_permittivity"]),
                relative_permeability=float(medium["relative_permeability"]),
                conductivity=float(medium["conductivity_S_per_m"])),
            receiver_inductance=None if L_rx is None else float(L_rx))
    except ValueError as exc:
        raise ConfigError(f"bad geometry file {path}: {exc}") from exc
