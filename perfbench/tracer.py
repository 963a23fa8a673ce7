"""Per-layer tracing of one CLI command, installed only in traced runs.

`Tracer.install` replaces each traced function with a wrapper under every
name it is bound to: the defining module and each module that imported it
by name (`from .combining import conventional_combiner`), so a call through
any of them records a span.  `restore` puts every original back.

A span is [name, parent span index, start, end] on `time.perf_counter`.
Spans stay in memory; the caller writes them out when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# module -> traced public functions; metrics are "<module>.<function>.*"
LAYERS = {
    "combining": ("conventional_combiner", "statistical_combiner"),
    "spectral_efficiency": (
        "conventional_mc",
        "mc_log_moments",
        "se_stat_singlecell",
        "se_stat_multicell",
    ),
    "estimation": ("build_estimator_multicell",),
    "asymptotics": (
        "build_q_singlecell",
        "build_q_multicell",
        "se_conv_singlecell_de",
        "se_conv_multicell_de",
        "se_stat_singlecell_de",
        "se_stat_multicell_de",
    ),
    "training": ("solve_tau_star",),
    "scenarios": ("build_scenario",),
    "channel": ("one_ring_correlation", "build_profile", "UserLinkProfile.sqrt_r"),
    "sweeps": ("run_sweep", "conv_de_per_bs", "stat_de_per_bs"),
    "cli": ("main",),
    "results": ("emit_results",),
}

# dense factorizations at the numpy/scipy boundary: (module, function)
LINALG = (
    ("scipy.linalg", "cho_factor"),
    ("numpy.linalg", "inv"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
)

PACKAGE = "rician_mimo"


# per-layer metrics run.py adds from whole-command wall times
RUN_METRICS = (
    "tracing.traced_wall_s",
    "tracing.untraced_wall_s",
    "tracing.overhead_s",
    "baseline.blas1_wall_s",
)


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"linalg.{fn}" for _, fn in LINALG]


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric a traced run reports."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        if not name.startswith("linalg."):
            units[f"{name}.self_s"] = "s"
    units["estimation.builds_per_distinct_key"] = "ratio"
    units["spectral_efficiency.trial_points"] = "count"
    units["results.bytes"] = "bytes"
    units.update({name: "s" for name in RUN_METRICS})
    return units


def _count_trial_points(args, result, counters):
    profiles = args["profiles"]
    counters["trial_points"] += args["trial_count"] * len(args["points"]) * len(profiles)


def _count_estimator_key(args, result, counters):
    # one key per (BS, user, tau*rho_tr): the served link's profile object
    # is unique per (BS, user) within a scenario
    local = args["profiles"][args["local_index"]]
    counters["estimator_keys"].add((id(local), float(args["tau"]) * float(args["rho_tr"])))


def _count_result_bytes(args, result, counters):
    counters["result_bytes"] += result.stat().st_size


# span name -> hook(bound arguments, return value, counters)
_HOOKS = {
    "spectral_efficiency.mc_log_moments": _count_trial_points,
    "estimation.build_estimator_multicell": _count_estimator_key,
    "results.emit_results": _count_result_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters = {"trial_points": 0, "result_bytes": 0, "estimator_keys": set()}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, counters)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function at every module that binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, functions in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in functions:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    # a property: wrap its getter on the class
                    cls_name, prop_name = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    prop = vars(cls)[prop_name]
                    self._patch(cls, prop_name, property(self._wrap(name, prop.fget)))
                    continue
                original = getattr(module, fn_name)
                self._rebind(original, self._wrap(name, original), package)
        for mod_name, fn_name in LINALG:
            module = sys.modules[mod_name]
            original = getattr(module, fn_name)
            self._rebind(original, self._wrap(f"linalg.{fn_name}", original), package + [module])

    def restore(self) -> None:
        """Put back every original binding, in reverse order of patching."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """calls, total_s and self_s per traced function, plus the counters.

    Self time is a span's duration minus the durations of its direct child
    spans; children nest inside their parent, so they never overlap it twice.
    """
    stats = {name: [0, 0.0, 0.0] for name in span_names()}
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, parent, start, end) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[index]
    metrics: dict[str, float] = {}
    for name, (calls, total, own) in stats.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_s"] = total
        if not name.startswith("linalg."):
            metrics[f"{name}.self_s"] = own
    builds = stats["estimation.build_estimator_multicell"][0]
    keys = len(counters["estimator_keys"])
    metrics["estimation.builds_per_distinct_key"] = builds / keys if keys else 0.0
    metrics["spectral_efficiency.trial_points"] = counters["trial_points"]
    metrics["results.bytes"] = counters["result_bytes"]
    return metrics
