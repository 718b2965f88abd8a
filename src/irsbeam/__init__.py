"""Wideband THz IRS link simulator.

Models far-field and near-field cascaded BS-IRS-user channels over an OFDM
subcarrier grid, quantifies the per-subcarrier gain loss caused by beam
squint, and synthesizes delay-adjustable-metasurface phase/delay profiles
that restore the full beam gain across the band.
"""

from . import cli  # irsbeam.cli stays reachable after a bare `import irsbeam`
from .farfield import (
    far_beam_gain_profile,
    far_dam_design,
    far_optimal_phases,
    far_squint_direction,
)
from .model import (
    SPEED_OF_LIGHT,
    Axis,
    DelayProfile,
    Design,
    GainMap,
    IrsArray,
    PhaseProfile,
    WidebandConfig,
    fraunhofer_distance,
    subcarrier_frequencies,
)
from .nearfield import (
    NearFieldGeometry,
    near_dam_design,
    near_gain_row,
    near_optimal_phases,
)
from .scan import (
    angle_sweep,
    grid_points,
    location_heatmap,
    squint_metrics,
    subcarrier_sweep_far,
    subcarrier_sweep_near,
)
from .scenario import Scenario, ScenarioError, SweepSpec, load_scenario, scenario_from_dict

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "Axis",
    "DelayProfile",
    "Design",
    "GainMap",
    "IrsArray",
    "NearFieldGeometry",
    "PhaseProfile",
    "Scenario",
    "ScenarioError",
    "SweepSpec",
    "WidebandConfig",
    "angle_sweep",
    "far_beam_gain_profile",
    "far_dam_design",
    "far_optimal_phases",
    "far_squint_direction",
    "fraunhofer_distance",
    "grid_points",
    "load_scenario",
    "location_heatmap",
    "near_dam_design",
    "near_gain_row",
    "near_optimal_phases",
    "scenario_from_dict",
    "squint_metrics",
    "subcarrier_frequencies",
    "subcarrier_sweep_far",
    "subcarrier_sweep_near",
]
