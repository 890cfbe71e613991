"""Physical constants and temperature-dependent properties of liquid
helium-4 with dilute helium-3 impurities, at saturated vapour pressure.

Everything here is SI. The medium is one flat record,
:class:`HeliumMedia`: nine numbers (atomic constants and
quasiparticle-gas parameters), each named as its key in the ``media``
section of a run config, and a normal-component viscosity table. It
also gives the helium-4 number density ``n4``. The property functions
take arrays of temperatures; :data:`T_LAMBDA_K`, the superfluid
transition, bounds the temperatures the models accept. ``MEDIA_TABLE``,
built from the fields of :class:`HeliumMedia`, lays out that config
section; its ``viscosity_csv`` names a two-column CSV with at most one
header line. The reader parses bytes; the caller opens the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError
from .formats import read_numeric_csv

__all__ = [
    "ViscosityTable",
    "HeliumMedia",
    "DEFAULT_VISCOSITY_TABLE",
    "T_LAMBDA_K",
    "above_lambda",
    "viscosity_normal_grid",
    "thermal_velocity_he3",
    "MEDIA_TABLE",
]

# Superfluid transition of helium-4 at saturated vapour pressure. Above
# it the liquid is normal and no quasiparticle channel applies.
T_LAMBDA_K = 2.1768  # K


def above_lambda(T: float) -> str | None:
    """Why temperature ``T`` lies outside the models, or None."""
    if T > T_LAMBDA_K:
        return (f"T = {T:g} K is above the superfluid transition "
                f"T_lambda = {T_LAMBDA_K} K")
    return None


# Normal-component viscosity of He II, 1.00-2.17 K (Donnelly-style
# compilation shape: steep drop from 1 K, shallow minimum near 1.8 K).
_VISC_T_K = (1.00, 1.10, 1.20, 1.30, 1.40, 1.50, 1.60,
             1.70, 1.80, 1.90, 2.00, 2.10, 2.17)
_VISC_ETA_PAS = (23.0e-6, 9.0e-6, 4.6e-6, 2.85e-6, 2.05e-6, 1.63e-6, 1.40e-6,
                 1.28e-6, 1.24e-6, 1.28e-6, 1.40e-6, 1.68e-6, 2.40e-6)


@dataclass(frozen=True)
class ViscosityTable:
    """Tabulated normal-component viscosity with a hard validity range.

    Queries outside ``valid_range`` give NaN, never an extrapolation:
    the hydrodynamic description itself stops being meaningful there.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("viscosity table needs at least two entries")
        if not all(0 < v < math.inf for entry in self.entries
                   for v in entry):
            raise ValueError("table temperatures and viscosities must be "
                             "finite and strictly positive")
        temps = [t for t, _ in self.entries]
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ValueError("table temperatures must be strictly increasing")

    @property
    def valid_range(self) -> tuple[float, float]:
        return self.entries[0][0], self.entries[-1][0]

    @classmethod
    def from_csv(cls, data: bytes, source: str | Path) -> "ViscosityTable":
        """A table from the bytes of a two-column CSV (T_K, eta_Pa_s)."""
        rows = read_numeric_csv(data, source, "viscosity table", 2)
        try:
            return cls(entries=tuple(rows))
        except ValueError as exc:
            raise DataError(f"viscosity table {source}: {exc}") from exc


DEFAULT_VISCOSITY_TABLE = ViscosityTable(
    entries=tuple(zip(_VISC_T_K, _VISC_ETA_PAS)))


@dataclass(frozen=True)
class HeliumMedia:
    """Everything the damping and fitting models know about the medium:
    nine numbers, each named as its key in the config's ``media``
    section, and the viscosity table."""

    k_B: float = 1.380649e-23           # Boltzmann constant, J/K
    hbar: float = 1.054571817e-34       # reduced Planck constant, J*s
    m3: float = 5.0082345e-27           # bare helium-3 atomic mass, kg
    m4: float = 6.6464770e-27           # helium-4 atomic mass, kg
    c: float = 238.0                    # first-sound speed, m/s
    k0: float = 1.918e10                # roton-minimum wave number, 1/m
    delta_over_kB: float = 8.65         # roton gap over k_B, K
    m3_eff_ratio: float = 2.64          # m3* / m3 of a helium-3 quasiparticle
    he4_mass_density: float = 145.1     # kg/m^3, liquid at SVP below ~1 K
    viscosity: ViscosityTable = DEFAULT_VISCOSITY_TABLE

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "viscosity" and not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be finite and positive")

    @property
    def n4(self) -> float:
        """Helium-4 number density rho4 / m4, 1/m^3."""
        return self.he4_mass_density / self.m4


def viscosity_normal_grid(table: ViscosityTable, T) -> np.ndarray:
    """Normal-component viscosity at each temperature of the array ``T``.

    Log-log linear interpolation between table nodes, exact at nodes;
    NaN outside the table's validity interval, where the hydrodynamic
    description stops being meaningful.
    """
    T = np.asarray(T, dtype=float)
    temps = np.array([t for t, _ in table.entries])
    etas = np.array([eta for _, eta in table.entries])
    i = np.clip(np.searchsorted(temps, T, side="right") - 1,
                0, len(temps) - 2)
    t0, t1, e0, e1 = temps[i], temps[i + 1], etas[i], etas[i + 1]
    # entries outside the table are computed from the end segments and
    # masked below; they may overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = (np.log(T) - np.log(t0)) / (np.log(t1) - np.log(t0))
        eta = np.exp(np.log(e0) + frac * (np.log(e1) - np.log(e0)))
    eta = np.where(T == t0, e0, np.where(T == t1, e1, eta))
    lo, hi = table.valid_range
    return np.where((T >= lo) & (T <= hi), eta, np.nan)


def thermal_velocity_he3(media: HeliumMedia, T):
    """Thermal velocity sqrt(2 k_B T / m3*) of a helium-3 quasiparticle,
    for a temperature or an array of them."""
    if np.any(np.less_equal(T, 0.0)):
        raise DomainError(
            f"temperature must be positive, got {np.min(T):g} K")
    m3_eff = media.m3_eff_ratio * media.m3
    # past the float range, or over an m3* that underflowed to 0: inf
    with np.errstate(over="ignore", divide="ignore"):
        return np.sqrt(2.0 * media.k_B * np.asarray(T, dtype=float)
                       / m3_eff)


# Every key of the config's media section, as levosc.formats.read_keys
# lays out a table; viscosity_csv names a table relative to the config.
MEDIA_TABLE = {
    **{f.name: ("number", f.default) for f in fields(HeliumMedia)
       if f.name != "viscosity"},
    "viscosity_csv": ("string or null", None)}
