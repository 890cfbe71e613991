"""Levitated superconducting-sphere oscillator toolkit.

Models the mechanical quality of a magnetically levitated sphere
immersed in superfluid helium-4: temperature-dependent damping
channels, inductive pickup of the sphere's motion, ring-down
synthesis and amplitude extraction, and fitting the residual
helium-3 concentration from measured decay times.
"""

from .errors import (BracketError, ConfigError, DataError, DomainError,
                     FitError, GeometryError, LevoscError, SolverError)
from .media import (HeliumMedia, PhysicalConstants, QuasiparticleParams,
                    ViscosityTable, thermal_velocity_he3,
                    viscosity_normal_grid)
from .damping import (DampingTable, OscillatorSpec, RegimeMode,
                      SensitivityReport, damping_table, drag_force,
                      linewidth, noise_density, sensitivity_report)
from .detection import (CoilSpec, DetectionGeometry, DriveSpec, SweepResult,
                        capacitance_from_resonance, coaxial_geometry,
                        coil_field, induced_dipole, load_geometry,
                        mutual_inductance, orthogonal_geometry,
                        position_sweep, resonance_frequency, self_inductance)
from .axisym import OracleResult, axisymmetric_oracle, oracle_sweep
from .ringdown import (AmplitudeSeries, Block, BlockSchedule, DecayFit,
                       RingdownParams, analyze_ringdown, amplitude_series,
                       fit_decay, synthesize_ringdown)
from .fitting import (ConcentrationFit, TauTemperatureSeries,
                      fit_he3_concentration, model_residuals,
                      predict_contamination)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LevoscError", "ConfigError", "DomainError", "GeometryError",
    "SolverError", "DataError", "FitError", "BracketError",
    "PhysicalConstants", "QuasiparticleParams", "ViscosityTable",
    "HeliumMedia", "viscosity_normal_grid", "thermal_velocity_he3",
    "OscillatorSpec", "RegimeMode", "DampingTable", "SensitivityReport",
    "damping_table", "linewidth", "drag_force", "noise_density",
    "sensitivity_report",
    "CoilSpec", "DriveSpec", "DetectionGeometry", "SweepResult",
    "coil_field", "self_inductance", "mutual_inductance", "induced_dipole",
    "resonance_frequency", "capacitance_from_resonance", "position_sweep",
    "coaxial_geometry", "orthogonal_geometry", "load_geometry",
    "OracleResult", "axisymmetric_oracle", "oracle_sweep",
    "RingdownParams", "BlockSchedule", "Block", "AmplitudeSeries",
    "DecayFit", "synthesize_ringdown", "amplitude_series",
    "analyze_ringdown", "fit_decay",
    "TauTemperatureSeries", "ConcentrationFit", "model_residuals",
    "fit_he3_concentration", "predict_contamination",
]
