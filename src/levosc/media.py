"""Physical constants and temperature-dependent properties of liquid
helium-4 with dilute helium-3 impurities, at saturated vapour pressure.

Everything here is SI. The property set is deliberately small: atomic
constants, quasiparticle-gas parameters, and a normal-component
viscosity table, bundled in :class:`HeliumMedia`, which also gives the
helium-4 number density ``n4``. The property functions take arrays of
temperatures. All values are overridable through a plain-text
``key = value`` file, and the viscosity table through a two-column CSV
with at most one header line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError, DomainError

__all__ = [
    "PhysicalConstants",
    "QuasiparticleParams",
    "ViscosityTable",
    "HeliumMedia",
    "DEFAULT_VISCOSITY_TABLE",
    "DEFAULT_HE4_MASS_DENSITY",
    "viscosity_normal_grid",
    "thermal_velocity_he3",
    "load_property_overrides",
    "media_from_overrides",
]

DEFAULT_HE4_MASS_DENSITY = 145.1  # kg/m^3, liquid at SVP below ~1 K


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants used throughout, CODATA magnitudes.

    Attributes
    ----------
    k_B : float
        Boltzmann constant, J/K.
    hbar : float
        Reduced Planck constant, J*s.
    m3 : float
        Bare helium-3 atomic mass, kg.
    m4 : float
        Helium-4 atomic mass, kg.
    """

    k_B: float = 1.380649e-23
    hbar: float = 1.054571817e-34
    m3: float = 5.0082345e-27
    m4: float = 6.6464770e-27

    def __post_init__(self):
        for name in ("k_B", "hbar", "m3", "m4"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class QuasiparticleParams:
    """Excitation-gas parameters of He II at SVP.

    Attributes
    ----------
    c : float
        First-sound speed, m/s.
    k0 : float
        Roton-minimum wave number, 1/m.
    delta_over_kB : float
        Roton gap divided by k_B, K.
    m3_eff_ratio : float
        Effective-to-bare mass ratio of a helium-3 quasiparticle.
    """

    c: float = 238.0
    k0: float = 1.918e10
    delta_over_kB: float = 8.65
    m3_eff_ratio: float = 2.64

    def __post_init__(self):
        for name in ("c", "k0", "delta_over_kB", "m3_eff_ratio"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


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
    def from_csv(cls, path: str | Path) -> "ViscosityTable":
        """Load a replacement table from a two-column CSV (T_K, eta_Pa_s)."""
        try:
            with open(path, newline="") as fh:
                records = [(lineno, rec) for lineno, rec in
                           enumerate(csv.reader(fh), start=1)
                           if rec and not rec[0].lstrip().startswith("#")]
        except (OSError, ValueError, csv.Error) as exc:
            # ValueError: not UTF-8, or a NUL in the path
            raise DataError(f"cannot read viscosity CSV {path}: {exc}") \
                from exc
        rows = []
        for i, (lineno, rec) in enumerate(records):
            T = None
            try:
                T = float(rec[0])
                rows.append((T, float(rec[1])))
            except (ValueError, IndexError):
                if i > 0 or T is not None:  # only the first line is a header
                    raise DataError(f"{path}:{lineno}: bad viscosity row "
                                    f"{rec!r}") from None
        if len(rows) < 2:
            raise DataError(f"viscosity CSV {path} has fewer than two rows")
        try:
            return cls(entries=tuple(rows))
        except ValueError as exc:
            raise DataError(f"viscosity CSV {path}: {exc}") from exc


DEFAULT_VISCOSITY_TABLE = ViscosityTable(
    entries=tuple(zip(_VISC_T_K, _VISC_ETA_PAS)))


@dataclass(frozen=True)
class HeliumMedia:
    """Bundle of everything the damping and fitting models need to know
    about the medium."""

    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    quasiparticles: QuasiparticleParams = field(
        default_factory=QuasiparticleParams)
    viscosity: ViscosityTable = DEFAULT_VISCOSITY_TABLE
    he4_mass_density: float = DEFAULT_HE4_MASS_DENSITY

    def __post_init__(self):
        if not 0 < self.he4_mass_density < math.inf:
            raise ValueError("he4_mass_density must be finite and positive")

    @property
    def n4(self) -> float:
        """Helium-4 number density rho4 / m4, 1/m^3."""
        return self.he4_mass_density / self.constants.m4


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


def thermal_velocity_he3(constants: PhysicalConstants,
                         params: QuasiparticleParams, T):
    """Thermal velocity sqrt(2 k_B T / m3*) of a helium-3 quasiparticle,
    for a temperature or an array of them."""
    if np.any(np.less_equal(T, 0.0)):
        raise DomainError(
            f"temperature must be positive, got {np.min(T):g} K")
    m3_eff = params.m3_eff_ratio * constants.m3
    return np.sqrt(2.0 * constants.k_B * np.asarray(T, dtype=float)
                   / m3_eff)


def load_property_overrides(path: str | Path) -> dict[str, object]:
    """Parse a plain-text ``key = value`` override file.

    Values parse as floats except ``viscosity_csv``, which names a
    replacement table file (resolved relative to the override file).
    Blank lines and ``#`` comments are skipped.
    """
    overrides: dict[str, object] = {}
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or a NUL
        raise DataError(f"cannot read media overrides {path}: {exc}") \
            from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "viscosity_csv":
            overrides[key] = str((path.parent / value).resolve())
            continue
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: value for {key!r} is not a number")
    return overrides


_CONSTANT_KEYS = {"k_B", "hbar", "m3", "m4"}
_QP_KEYS = {"c", "k0", "delta_over_kB", "m3_eff_ratio"}


def media_from_overrides(overrides: Mapping[str, object]) -> HeliumMedia:
    """Build a :class:`HeliumMedia` from defaults plus override entries."""
    constants = PhysicalConstants()
    qp = QuasiparticleParams()
    viscosity = DEFAULT_VISCOSITY_TABLE
    density = DEFAULT_HE4_MASS_DENSITY
    try:
        for key, value in overrides.items():
            if key in _CONSTANT_KEYS:
                constants = replace(constants, **{key: float(value)})
            elif key in _QP_KEYS:
                qp = replace(qp, **{key: float(value)})
            elif key == "he4_mass_density":
                density = float(value)
            elif key == "viscosity_csv":
                viscosity = ViscosityTable.from_csv(str(value))
            else:
                raise ConfigError(f"unknown media property {key!r}")
        return HeliumMedia(constants=constants, quasiparticles=qp,
                           viscosity=viscosity, he4_mass_density=density)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
