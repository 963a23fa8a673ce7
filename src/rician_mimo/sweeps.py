"""Experiment orchestration: evaluate schemes over a sweep axis.

A sweep walks one axis (snr, kappa_max, n_antennas, tau), evaluates the
requested schemes in the requested mode (Monte Carlo, deterministic
equivalent, or both) and returns flat result rows.  All Monte Carlo points
of one scenario share channel draws (common random numbers), so curves over
SNR or tau are smooth functions of the same randomness.  Each scheme takes
the scenario's whole SNR grid in one call and returns one (point, BS, user)
array in nats, and every scheme reads the scenario's one
`estimation.BSStatistics` per BS (the LoS columns, the covariance sums and
the same-pilot spectra); tau* too is solved over the whole grid in one call
(`operating_points`).  The statistical SE is exact, so its deterministic
equivalent is that same SE in every layout.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .asymptotics import build_q_multicell, se_conv_multicell_de
from .config import ConfigError, SystemConfig
from .results import ResultRow
from .scenarios import Scenario, ScenarioSpec, build_scenario
from .spectral_efficiency import conventional_mc, se_stat_multicell
from .training import solve_tau_star

SWEEP_AXES = ("snr", "kappa_max", "n_antennas", "tau")
SCHEMES = ("conv", "stat")
MODES = ("mc", "de", "both")


def operating_points(scenario: Scenario, snr_grid: tuple[float, ...]) -> list[SystemConfig]:
    """The scenario's config at each SNR of the grid, in `optimal` tau mode
    with cell 0's tau*; the other modes keep the spec's own training length."""
    spec = scenario.spec
    configs = [spec.system_config(snr) for snr in snr_grid]
    if spec.tau_mode != "optimal":
        return configs
    solutions = solve_tau_star(scenario.local_profiles(0), configs)
    return [dataclasses.replace(c, training_len=s.tau_star) for c, s in zip(configs, solutions)]


def conv_de_at_bs(scenario: Scenario, bs: int, configs: list[SystemConfig]) -> np.ndarray:
    """Deterministic-equivalent conventional SE of BS `bs`, (configs, users),
    from the scenario's `BSStatistics` of that BS: one builder and one SE
    formula in one cell and in several; the BS decides the DE's mode."""
    stats = scenario.profiles[bs]
    return np.array([se_conv_multicell_de(build_q_multicell(stats, c), c) for c in configs])


def conv_de_per_bs(scenario: Scenario, configs: list[SystemConfig]) -> np.ndarray:
    """Deterministic-equivalent conventional SE, (configs, BS, users)."""
    return np.stack([conv_de_at_bs(scenario, bs, configs) for bs in range(scenario.n_cells)], axis=1)


def stat_de_per_bs(scenario: Scenario, configs: list[SystemConfig]) -> np.ndarray:
    """Deterministic-equivalent statistical SE, (configs, BS, users): the
    exact SE of `se_stat_multicell`, in every layout."""
    return se_stat_multicell(scenario.profiles, configs)


def _rows_for_scenario(
    scenario: Scenario,
    schemes: tuple[str, ...],
    mode: str,
    trials: int,
    seed: int,
) -> list[ResultRow]:
    spec = scenario.spec
    scale = spec.log_scale
    k = scenario.n_users
    multi = scenario.n_cells > 1
    grid = spec.snr_grid_db
    configs = operating_points(scenario, grid)
    want_mc, want_de = mode in ("mc", "both"), mode in ("de", "both")
    # per scheme: (row name, (se, stderr) or None, de or None), each array
    # (configs, BS, users) in nats from one call over the whole grid
    results = {}
    if "conv" in schemes:
        mc = conventional_mc(scenario.profiles, configs, trials, seed) if want_mc else None
        de = conv_de_per_bs(scenario, configs) if want_de else None
        results["conv"] = ("conv_multi" if multi else "conv_single", mc, de)
    if "stat" in schemes:
        # the statistical SE is exact and is its own DE: one evaluation fills both columns
        exact = se_stat_multicell(scenario.profiles, configs)
        name = "stat_multi" if multi else "stat_single"
        results["stat"] = (name, (exact, None) if want_mc else None, exact if want_de else None)
    rows: list[ResultRow] = []
    for i, (snr, config) in enumerate(zip(grid, configs)):
        for scheme in schemes:
            name, mc, de = results[scheme]
            tau_used, prelog = (config.training_len, config.prelog) if scheme == "conv" else (0, 1.0)
            for bs in range(scenario.n_cells):
                for u in range(k):
                    de_u = None if de is None else float(de[i, bs, u]) * scale
                    if mc is None:
                        se_value, stderr, se_de = de_u, None, None
                    else:
                        se, err = mc
                        se_value = float(se[i, bs, u]) * scale
                        stderr = None if err is None else float(err[i, bs, u]) * scale
                        se_de = de_u
                    rows.append(
                        ResultRow(
                            scenario_id=spec.scenario_id,
                            scheme=name,
                            snr_db=float(snr),
                            user_id=bs * k + u,
                            se_value=se_value,
                            se_stderr=stderr,
                            se_de=se_de,
                            tau_used=tau_used,
                            prelog=prelog,
                            seed=seed,
                        )
                    )
    return rows


def run_sweep(
    spec: ScenarioSpec,
    schemes: tuple[str, ...] = ("conv", "stat"),
    sweep_axis: str = "snr",
    axis_values: tuple[float, ...] | None = None,
    mode: str = "both",
) -> list[ResultRow]:
    """Evaluate all schemes over the sweep axis; rows sorted by
    (axis point, SNR, scheme, user)."""
    if sweep_axis not in SWEEP_AXES:
        raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}, got {sweep_axis!r}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if sweep_axis == "snr":
        if axis_values:
            raise ConfigError("the snr axis takes its points from --snr (lo:hi:step), not axis values")
        variants = [spec]
    else:
        if not axis_values:
            raise ConfigError(f"sweep over {sweep_axis} needs explicit axis values")
        variants = []
        for value in axis_values:
            if sweep_axis in ("n_antennas", "tau") and not float(value).is_integer():
                raise ConfigError(f"{sweep_axis} values must be finite integers, got {value!r}")
            sid = f"{spec.scenario_id}-{sweep_axis}={value:g}"
            if sweep_axis == "kappa_max":
                variants.append(
                    dataclasses.replace(spec, kappa_max=float(value), scenario_id=sid)
                )
            elif sweep_axis == "n_antennas":
                variants.append(dataclasses.replace(spec, n=int(value), scenario_id=sid))
            else:  # tau
                variants.append(
                    dataclasses.replace(
                        spec, tau_mode="fixed", tau=int(value), scenario_id=sid
                    )
                )
        sids = [variant.scenario_id for variant in variants]
        if len(set(sids)) != len(sids):
            raise ConfigError(f"{sweep_axis} values must give distinct scenario ids, got {sids}")
    rows: list[ResultRow] = []
    for variant in variants:
        scenario = build_scenario(variant)
        rows.extend(_rows_for_scenario(scenario, tuple(schemes), mode, spec.trials, spec.seed))
    return rows
