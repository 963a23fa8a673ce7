"""Uplink spectral efficiency of massive MIMO under correlated Rician fading.

The package simulates single- and multi-cell uplinks with per-user Rician
factors and spatial correlation, cross-validates Monte Carlo spectral
efficiencies against their large-antenna deterministic equivalents, and
solves for the optimal training length.
"""

from .asymptotics import (
    AsymptoticState,
    build_q_multicell,
    build_q_singlecell,
    pilot_contamination_term,
    se_conv_expanded,
    se_conv_favorable,
    se_conv_multicell_de,
    se_conv_singlecell_de,
    se_stat_multicell_de,
    se_stat_singlecell_de,
)
from .channel import (
    ScenarioGeometry,
    UserLinkProfile,
    build_profile,
    dft_steering,
    drop_users,
    exponential_correlation,
    los_steering,
    one_ring_correlation,
    pathloss,
)
from .combining import (
    CombinerSet,
    conventional_combiner,
    statistical_combiner,
)
from .config import ConfigError, SystemConfig
from .estimation import BSStatistics, EstimatorState, build_estimator_multicell
from .presets import PRESET_IDS, preset_specs, preset_summary, run_preset
from .results import ResultRow, emit_results
from .scenarios import Scenario, ScenarioSpec, build_scenario, parse_scenario, serialize_scenario
from .spectral_efficiency import (
    SEReport,
    conventional_mc,
    se_stat_multicell,
    se_stat_singlecell,
)
from .sweeps import run_sweep
from .training import (
    TrainingCurve,
    TrainingSolution,
    kappa_threshold,
    solve_tau_star,
)

__version__ = "0.1.0"
