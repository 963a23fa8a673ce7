"""Uplink spectral efficiency of massive MIMO under correlated Rician fading.

The package simulates single- and multi-cell uplinks with per-user Rician
factors and spatial correlation, cross-validates Monte Carlo spectral
efficiencies against their large-antenna deterministic equivalents, and
solves for the optimal training length.
"""

import importlib.util
import sys


def _register_lazily(name: str) -> None:
    """Put module `name` in sys.modules without running its body, which
    runs when one of its attributes is first read."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


# perfbench/tracer.py wraps scipy.linalg.cho_factor and finds the module in
# sys.modules.  The package itself needs no scipy (a test dependency), so
# it registers the module lazily, if scipy is installed, and binds it to no
# name (reading any attribute, even __name__, would load it): no command
# pays for its import.  ROADMAP item 5's [benchmark] step, in which the
# tracer imports scipy.linalg itself, deletes this.
if "scipy.linalg" not in sys.modules:
    try:
        _register_lazily("scipy.linalg")
    except ModuleNotFoundError:
        pass

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
from .combining import conventional_combiner, statistical_combiner
from .config import ConfigError, SystemConfig
from .estimation import BSStatistics, EstimatorState, build_estimator_multicell
from .presets import PRESET_IDS, preset_specs, preset_summary, run_preset
from .results import ResultRow, emit_results
from .scenarios import Scenario, ScenarioSpec, build_scenario, parse_scenario, serialize_scenario
from .spectral_efficiency import conventional_mc, se_stat_multicell, se_stat_singlecell
from .sweeps import run_sweep
from .training import (
    TrainingCurve,
    TrainingSolution,
    kappa_threshold,
    solve_tau_star,
)

__version__ = "0.1.0"
