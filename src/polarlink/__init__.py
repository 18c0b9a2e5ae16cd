"""Polarization-aware movable-antenna link simulator and sum-rate optimizer."""

__version__ = "0.1.0"

from .channel import (ChannelMatrix, LinkTerms, channel_matrix, element_gain, link_terms,
                      radiation_factor, reflection_coefficients)
from .geometry import AntennaPose
from .harness import (RunRecord, Scenario, make_scenario, monte_carlo_half_energy,
                      run_configuration, sweep)
from .medium import MediumParams
from .mimo import (BeamformingSolution, LinkMetrics, Precoder, PowerAllocation,
                   link_metrics, solve_beamforming, water_filling, zf_precoder)
from .optimizer import (Constraints, ConvergenceTrace, LayoutVariables, OptimizerConfig,
                        OptimizeResult, objective, optimize, quantize_angles,
                        separation_projection)

__all__ = [
    "AntennaPose", "BeamformingSolution", "ChannelMatrix", "Constraints",
    "ConvergenceTrace", "LayoutVariables", "LinkMetrics", "LinkTerms", "MediumParams",
    "OptimizeResult", "OptimizerConfig", "PowerAllocation", "Precoder",
    "RunRecord", "Scenario", "channel_matrix", "element_gain", "link_metrics",
    "link_terms", "make_scenario", "monte_carlo_half_energy", "objective", "optimize",
    "quantize_angles", "radiation_factor", "reflection_coefficients",
    "run_configuration", "separation_projection", "solve_beamforming", "sweep",
    "water_filling", "zf_precoder",
]
