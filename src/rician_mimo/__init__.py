"""Uplink spectral efficiency of massive MIMO under correlated Rician fading.

The package simulates single- and multi-cell uplinks with per-user Rician
factors and spatial correlation, cross-validates Monte Carlo spectral
efficiencies against their large-antenna deterministic equivalents, and
solves for the optimal training length.  The root exports only
`__version__`: import the modules by name (`from rician_mimo import cli`).
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

__version__ = "0.1.0"
