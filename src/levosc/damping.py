"""Per-regime decay times of the oscillating sphere and their
composition into a total ring-down time, plus the derived sensitivity
quantities: linewidth, drag force and force-noise floor. The channels
and the noise floor read the medium's constants straight from one
:class:`HeliumMedia`.

Channels:

* hydrodynamic (Stokes drag by the viscous normal component, valid only
  where the viscosity table is, 1.0 K and above),
* ballistic phonon scattering (decay time scaling as T^-4),
* roton scattering (frozen out exponentially at low T),
* helium-3 impurity drag in the collisionless regime,
* a constant externally supplied vacuum (intrinsic) channel.

:func:`damping_table` is the one evaluation path: it computes every
channel over a whole temperature grid in a few numpy expressions and
returns them as the columns of a :class:`DampingTable`. A channel
entry that is ``inf`` is saturated ("negligible"): it adds no rate to
the composite but is reported as present. An entry that is NaN is
absent. The composite's invariants are checked once per grid.
:func:`medium_channels` and :func:`compose` split that path where n3
enters, so that a fit over n3 evaluates the other channels once.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .formats import write_csv
from .media import HeliumMedia, thermal_velocity_he3, viscosity_normal_grid

__all__ = [
    "OscillatorSpec",
    "RegimeMode",
    "DampingTable",
    "MediumChannels",
    "DEFAULT_TAU_VACUUM",
    "KNUDSEN_DRAG_COEFF",
    "linewidth",
    "drag_force",
    "noise_density",
    "medium_channels",
    "compose",
    "damping_table",
    "write_damping_csv",
    "damping_metadata",
]

# Constant decay time of the levitated sphere with the cell evacuated,
# supplied by measurement rather than by a model.
DEFAULT_TAU_VACUUM = 4.1e5  # s

# Kinetic-theory momentum-transfer coefficient for specular-plus-diffuse
# scattering of a dilute gas off a sphere at large Knudsen number.
KNUDSEN_DRAG_COEFF = 4.1906


@dataclass(frozen=True)
class OscillatorSpec:
    """Mechanical parameters of the levitated sphere.

    ``radius_warm`` is the room-temperature radius; the in-bath radius
    is reduced by ``contraction_fraction``.
    """

    mass: float
    radius_warm: float
    contraction_fraction: float = 0.015
    resonant_frequency: float = 2.7

    def __post_init__(self):
        for name in ("mass", "radius_warm", "resonant_frequency"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 <= self.contraction_fraction < 0.1:
            raise ValueError("contraction_fraction must lie in [0, 0.1)")

    @property
    def radius(self) -> float:
        """Cold (contracted) radius, m."""
        return self.radius_warm * (1.0 - self.contraction_fraction)


class RegimeMode(Enum):
    """How simultaneous damping channels combine into one decay time."""

    RECIPROCAL_SUM = "ReciprocalSum"
    DOMINANT_ONLY = "DominantOnly"


def _radius_sq(osc: OscillatorSpec, channel: str) -> float:
    """Square of the cold radius for the cross-section of ``channel``;
    a square past the float range leaves the channel no decay time."""
    r_sq = osc.radius * osc.radius
    if r_sq == math.inf:
        raise DomainError(f"{channel} channel: the square of the sphere "
                          f"radius {osc.radius:g} m is past the float range")
    return r_sq


def _past_float_range(channel: str, powers: str, T) -> DomainError:
    """The error of a channel whose powers of the medium's constants
    overflow, at the grid's first temperature."""
    return DomainError(f"{channel} channel at T = {np.ravel(T)[0]:g} K: "
                       f"{powers} is past the float range")


def _hydrodynamic(osc: OscillatorSpec, eta_n):
    """Stokes-drag decay time M / (3 pi eta_n r)."""
    # an extreme mass or radius overflows the time: saturate to inf
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(osc.mass, 3.0 * math.pi * eta_n * osc.radius)


def _phonon(osc: OscillatorSpec, media: HeliumMedia, T):
    """Phonon decay time 45 M hbar^3 c^4 / (pi^2 (k_B T)^4 pi r^2)."""
    # (k_B T)^4 underflows to zero below about 1e-70 K: saturate to inf;
    # past the float range it gives 0, which the composite refuses
    with np.errstate(divide="ignore", over="ignore"):
        try:
            scale = 45.0 * osc.mass * media.hbar**3 * media.c**4
        except OverflowError:
            raise _past_float_range("phonon", "hbar^3 or c^4", T) from None
        kT = media.k_B * np.asarray(T, dtype=float)
        return np.divide(scale, math.pi**2 * kT**4 * math.pi
                         * _radius_sq(osc, "phonon"))


def _roton(osc: OscillatorSpec, media: HeliumMedia, T):
    """Roton decay time 6 pi^2 M / (hbar k0^4 e^(-Delta/kT) pi r^2)."""
    # the Boltzmann factor underflows: saturate to inf
    with np.errstate(divide="ignore", over="ignore"):
        try:
            hbar_k0 = media.hbar * media.k0**4
        except OverflowError:
            raise _past_float_range("roton", "k0^4", T) from None
        boltzmann = np.exp(-media.delta_over_kB / np.asarray(T, dtype=float))
        return np.divide(6.0 * math.pi**2 * osc.mass,
                         hbar_k0 * boltzmann * math.pi
                         * _radius_sq(osc, "roton"))


def _impurity(osc: OscillatorSpec, media: HeliumMedia,
              medium: MediumChannels, n3: float):
    """Knudsen helium-3 drag decay time 4 M / (4.1906 pi r^2 n3 m3* v_th)
    at n3 > 0. Inf times 0 in that product is a DomainError: its NaN
    would read as an absent channel."""
    m3_eff = media.m3_eff_ratio * media.m3
    # an extreme mass or radius overflows the time: saturate to inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = np.divide(4.0 * osc.mass,
                        KNUDSEN_DRAG_COEFF * math.pi
                        * _radius_sq(osc, "impurity") * n3 * m3_eff
                        * medium.v_th)
    bad = np.flatnonzero(np.isnan(tau))
    if len(bad):
        raise DomainError(f"impurity channel: at T = {medium.T[bad[0]]:g} K "
                          "the drag n3 m3* v_th is inf times 0")
    return tau


# Running state of a composition: summed decay rate, fastest channel,
# and whether every channel folded in so far is positive or absent.
_EMPTY_FOLD = (0.0, math.nan, True)


def _fold(channels: Sequence, acc: tuple = _EMPTY_FOLD) -> tuple:
    """Fold channel decay times (floats or arrays; NaN absent, inf
    saturated) into the running state ``acc`` of a composition."""
    rate, fastest, ok = acc
    # a rate past the float range is inf; the composite is then 0,
    # which _composite rejects
    with np.errstate(divide="ignore", over="ignore"):
        for tau in channels:
            absent = np.isnan(tau)
            rate = rate + np.where(absent, 0.0, 1.0 / tau)
            fastest = np.fmin(fastest, tau)
            ok = ok & ((tau > 0) | absent)
    return rate, fastest, ok


def _composite(mode: RegimeMode, acc: tuple) -> np.ndarray:
    """Composite decay time of the folded channels: NaN where a present
    channel is not positive or the composite exceeds the fastest one."""
    rate, fastest, ok = acc
    if mode is RegimeMode.RECIPROCAL_SUM:
        with np.errstate(divide="ignore"):
            total = 1.0 / rate
        # allow 1 ulp of slack from the reciprocal arithmetic
        ok = ok & (total <= fastest * (1.0 + 1e-12))
    elif mode is RegimeMode.DOMINANT_ONLY:
        total = fastest
    else:
        raise ConfigError(f"unknown regime mode {mode!r}")
    return np.where(ok & (total > 0), total, np.nan)


def linewidth(tau: float) -> float:
    """Resonance full width 1/(pi tau)."""
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau:g}")
    return 1.0 / (math.pi * tau)


def drag_force(osc: OscillatorSpec, tau: float, velocity: float) -> float:
    """Drag force 2 M V / tau on the sphere moving at speed V."""
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau:g}")
    if velocity < 0:
        raise DomainError(f"velocity must be non-negative, got {velocity:g}")
    return 2.0 * osc.mass * velocity / tau


def noise_density(osc: OscillatorSpec, T: float, tau: float,
                  media: HeliumMedia = HeliumMedia()) -> float:
    """Thermal force-noise spectral density 8 k_B M T / tau, with k_B
    from ``media``."""
    if T < 0:
        raise DomainError(f"temperature must be non-negative, got {T:g} K")
    if tau <= 0:
        raise DomainError(f"tau must be positive, got {tau:g}")
    return 8.0 * media.k_B * osc.mass * T / tau


@dataclass(frozen=True, eq=False)
class MediumChannels:
    """The channels that do not depend on n3, over a temperature array:
    hydrodynamic (NaN outside the viscosity table), phonon and roton,
    plus the helium-3 thermal velocity the impurity channel needs and
    the three channels already folded into a composition."""

    T: np.ndarray
    tau_hydr: np.ndarray
    tau_ph: np.ndarray
    tau_rot: np.ndarray
    v_th: np.ndarray
    folded: tuple


def medium_channels(osc: OscillatorSpec, media: HeliumMedia,
                    T) -> MediumChannels:
    """Evaluate the n3-independent channels at every positive ``T``."""
    T = np.asarray(T, dtype=float)
    hydr = _hydrodynamic(osc, viscosity_normal_grid(media.viscosity, T))
    ph = _phonon(osc, media, T)
    rot = _roton(osc, media, T)
    return MediumChannels(T=T, tau_hydr=hydr, tau_ph=ph, tau_rot=rot,
                          v_th=thermal_velocity_he3(media, T),
                          folded=_fold((hydr, ph, rot)))


@dataclass(frozen=True, eq=False)
class DampingTable:
    """Columnar channel breakdown over a temperature grid.

    Every channel column holds one decay time per temperature: NaN
    where the channel is absent (hydrodynamic outside the viscosity
    table, impurity at n3 = 0, no vacuum channel), ``inf`` where it is
    saturated. ``tau_total`` is NaN in rows that break the composite's
    invariants; :func:`damping_table` never returns such rows.
    """

    T: np.ndarray
    tau_hydr: np.ndarray
    tau_ph: np.ndarray
    tau_rot: np.ndarray
    tau_imp: np.ndarray
    tau_vacuum: np.ndarray
    tau_total: np.ndarray
    regime_mode: RegimeMode

    def columns(self) -> tuple[np.ndarray, ...]:
        """T, the five channels and the composite, in CSV column order."""
        return (self.T, self.tau_hydr, self.tau_ph, self.tau_rot,
                self.tau_imp, self.tau_vacuum, self.tau_total)

    def fault(self, row: int) -> str | None:
        """The first channel present in ``row`` whose decay rate there is
        not positive and finite, or None."""
        names = ("hydrodynamic", "phonon", "roton", "impurity", "vacuum")
        for name, column in zip(names, self.columns()[1:6]):
            tau = float(column[row])
            if tau <= 0.0 or 1.0 / tau == math.inf:
                return (f"the {name} channel's decay time is {tau:g} s, "
                        "too short for a finite decay rate")
        return None


def compose(medium: MediumChannels, osc: OscillatorSpec,
            media: HeliumMedia, n3: float,
            mode: RegimeMode = RegimeMode.RECIPROCAL_SUM,
            tau_vacuum: float | None = DEFAULT_TAU_VACUUM) -> DampingTable:
    """Add the impurity and vacuum channels to ``medium`` and form the
    composite. Rows breaking the invariants get a NaN ``tau_total``."""
    T = medium.T
    if not n3 >= 0:
        raise DomainError(f"grid row 0 (T = {T[0]:g} K): n3 must be "
                          f"non-negative, got {n3:g}")
    imp = (_impurity(osc, media, medium, n3) if n3 > 0
           else np.full_like(T, np.nan))
    vac = np.full_like(T, np.nan if tau_vacuum is None else tau_vacuum)
    total = _composite(mode, _fold((imp, vac), medium.folded))
    return DampingTable(T, medium.tau_hydr, medium.tau_ph, medium.tau_rot,
                        imp, vac, total, mode)


def damping_table(osc: OscillatorSpec, media: HeliumMedia,
                  T_grid: Sequence[float], n3: float,
                  mode: RegimeMode = RegimeMode.RECIPROCAL_SUM,
                  tau_vacuum: float | None = DEFAULT_TAU_VACUUM,
                  ) -> DampingTable:
    """Evaluate every channel and the composite on a strictly
    increasing T grid, as arrays.

    Channels outside their validity window (hydrodynamic below the
    viscosity table's floor) are marked absent for that point rather
    than aborting the sweep. The composite's invariants (present
    channels positive, composite no slower than the fastest channel)
    are checked once for the whole grid.
    """
    T = np.asarray(T_grid, dtype=float).reshape(-1)
    if not len(T):
        raise ConfigError("temperature grid is empty")
    if np.any(np.diff(T) <= 0):
        raise ConfigError("temperature grid must be strictly increasing")
    if T[0] <= 0:
        raise ConfigError("temperatures must be positive")
    table = compose(medium_channels(osc, media, T), osc, media, n3, mode,
                    tau_vacuum)
    bad = np.flatnonzero(np.isnan(table.tau_total))
    if len(bad):
        raise ValueError(
            f"grid row {bad[0]} (T = {T[bad[0]]:g} K): "
            + (table.fault(bad[0]) or "a channel is not positive or the "
               "composite exceeds the fastest channel"))
    return table


_CSV_COLUMNS = ("T_K", "tau_hydr_s", "tau_ph_s", "tau_rot_s", "tau_imp_s",
                "tau_vac_s", "tau_total_s")


def write_damping_csv(table: DampingTable, fh: io.TextIOBase,
                      header_comment: str | None = None) -> None:
    """Emit a :class:`DampingTable` as CSV; absent channels become empty
    fields."""
    write_csv(fh, [header_comment], _CSV_COLUMNS, table.columns())


def damping_metadata(osc: OscillatorSpec, media: HeliumMedia, n3: float,
                     mode: RegimeMode,
                     tau_vacuum: float | None) -> dict[str, object]:
    """Side-car record describing how a curve was produced.

    Notes the un-modeled cross-over gap explicitly: the hydrodynamic
    channel simply stops below the viscosity table floor and no blend
    with the ballistic channels is attempted there.
    """
    t_floor = media.viscosity.valid_range[0]
    return {
        "regime_mode": mode.value,
        "n3_per_m3": n3,
        "tau_vacuum_s": tau_vacuum,
        "oscillator": {
            "mass_kg": osc.mass,
            "radius_warm_m": osc.radius_warm,
            "contraction_fraction": osc.contraction_fraction,
            "radius_cold_m": osc.radius,
            "resonant_frequency_Hz": osc.resonant_frequency,
        },
        "hydrodynamic_floor_K": t_floor,
        "crossover_note": ("hydrodynamic channel absent below "
                           f"{t_floor:g} K; no blending model is applied "
                           "across the cross-over"),
    }
