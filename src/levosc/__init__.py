"""Levitated superconducting-sphere oscillator toolkit.

Models the mechanical quality of a magnetically levitated sphere
immersed in superfluid helium-4: temperature-dependent damping
channels, inductive pickup of the sphere's motion, ring-down
synthesis and amplitude extraction, and fitting the residual
helium-3 concentration from measured decay times.
"""

from .errors import (BracketError, ConfigError, DataError, DomainError,
                     FitError, GeometryError, LevoscError, RangeError,
                     SolverError)
from .media import (HeliumMedia, HeliumState, PhysicalConstants,
                    QuasiparticleParams, ViscosityTable, default_media,
                    he3_number_density, he4_number_density,
                    thermal_velocity_he3, viscosity_normal)
from .damping import (DampingTable, OscillatorSpec, RegimeMode,
                      SensitivityReport, damping_table, drag_force,
                      linewidth, noise_density, sensitivity_report)
from .detection import (CoilSpec, DetectionGeometry, DriveSpec, MediumSpec,
                        SpherePose, SweepResult, SweepRow,
                        capacitance_from_resonance, coaxial_geometry,
                        coil_field, effective_inductance, induced_dipole,
                        induced_voltage, load_geometry, mutual_inductance,
                        orthogonal_geometry, position_sweep,
                        resonance_frequency, self_inductance)
from .axisym import (GridSpec, OracleResult, axisymmetric_oracle,
                     oracle_delta_L, oracle_sweep)
from .ringdown import (AmplitudeRow, AmplitudeSeries, Block, BlockSchedule,
                       DecayFit, RingdownParams, analyze_ringdown,
                       block_amplitude, fit_decay, synthesize_ringdown)
from .fitting import (ConcentrationFit, TauTemperatureSeries,
                      fit_he3_concentration, model_residuals,
                      predict_contamination)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LevoscError", "ConfigError", "DomainError", "RangeError",
    "GeometryError", "SolverError", "DataError", "FitError", "BracketError",
    "PhysicalConstants", "QuasiparticleParams", "ViscosityTable",
    "HeliumState", "HeliumMedia", "default_media", "viscosity_normal",
    "thermal_velocity_he3", "he4_number_density", "he3_number_density",
    "OscillatorSpec", "RegimeMode", "DampingTable", "SensitivityReport",
    "damping_table", "linewidth", "drag_force", "noise_density",
    "sensitivity_report",
    "CoilSpec", "DriveSpec", "MediumSpec", "DetectionGeometry", "SpherePose",
    "SweepRow", "SweepResult", "coil_field", "self_inductance",
    "mutual_inductance", "induced_dipole", "effective_inductance",
    "resonance_frequency", "capacitance_from_resonance", "induced_voltage",
    "position_sweep", "coaxial_geometry", "orthogonal_geometry",
    "load_geometry",
    "GridSpec", "OracleResult", "axisymmetric_oracle", "oracle_delta_L",
    "oracle_sweep",
    "RingdownParams", "BlockSchedule", "Block", "AmplitudeRow",
    "AmplitudeSeries", "DecayFit", "synthesize_ringdown", "block_amplitude",
    "analyze_ringdown", "fit_decay",
    "TauTemperatureSeries", "ConcentrationFit", "model_residuals",
    "fit_he3_concentration", "predict_contamination",
]
