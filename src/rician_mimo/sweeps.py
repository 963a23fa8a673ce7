"""Experiment orchestration: evaluate schemes over a sweep axis.

A sweep walks one axis (snr, kappa_max, n_antennas, tau), evaluates the
requested schemes in the requested mode (Monte Carlo, deterministic
equivalent, or both) and returns flat result rows.  All Monte Carlo points
of one scenario share channel draws (common random numbers), so curves over
SNR or tau are smooth functions of the same randomness.  Each scheme takes
the scenario's whole SNR grid in one call and returns its results indexed
[config][bs], so what a call builds from the links (one
`estimation.BSStatistics` per BS: the LoS columns, the covariance sums and
the same-pilot spectra) is a local of it and nothing outlives it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .asymptotics import (
    build_q_multicell,
    build_q_singlecell,
    se_conv_multicell_de,
    se_conv_singlecell_de,
    se_stat_multicell_de,
)
from .config import ConfigError, SystemConfig
from .estimation import BSStatistics, build_estimator_multicell
from .results import ResultRow
from .scenarios import Scenario, ScenarioSpec, build_scenario
from .spectral_efficiency import conventional_mc, se_stat_multicell
from .training import solve_tau_star

SWEEP_AXES = ("snr", "kappa_max", "n_antennas", "tau")
SCHEMES = ("conv", "stat")
MODES = ("mc", "de", "both")


def resolve_tau_for_snr(scenario: Scenario, snr_db: float) -> int:
    """Training length at one SNR point, honoring the spec's tau_mode."""
    spec = scenario.spec
    if spec.tau_mode == "optimal":
        config = spec.system_config(snr_db)
        return solve_tau_star(scenario.local_profiles(0), config).tau_star
    return spec.resolve_tau()


def conv_de_at_bs(scenario: Scenario, bs: int, configs: list[SystemConfig]) -> list[np.ndarray]:
    """Deterministic-equivalent conventional SE of BS `bs`, one array per
    config.  The BS's `BSStatistics` (its K same-pilot spectra included) is
    built once and serves every config."""
    # the refined equivalent runs on the eigenbasis that every link of an
    # exponential/identity scenario shares, where it is diagonal: O(N K^2 +
    # K^3) per point.  One-ring links have no common basis (and the refined
    # corrections overshot into negative SINRs there), so they use the plain
    # equivalents
    refined = scenario.spec.correlation != "one_ring"
    stats = BSStatistics(scenario.profiles[bs], bs)
    out = []
    for config in configs:
        estimators = [
            build_estimator_multicell(sp, bs, config.training_len, config.snr_training)
            for sp in stats.spectra
        ]
        if scenario.n_cells == 1:
            state = build_q_singlecell(stats, estimators, config.snr_data, refined=refined)
            out.append(se_conv_singlecell_de(state, config))
        else:
            state = build_q_multicell(stats, estimators, config.snr_data, refined=refined)
            out.append(se_conv_multicell_de(state, config).se)
    return out


def conv_de_per_bs(scenario: Scenario, configs: list[SystemConfig]) -> list[list[np.ndarray]]:
    """Deterministic-equivalent conventional SE, de[config][bs]."""
    per_bs = [conv_de_at_bs(scenario, bs, configs) for bs in range(scenario.n_cells)]
    return [list(per_config) for per_config in zip(*per_bs)]


def stat_de_per_bs(scenario: Scenario, configs: list[SystemConfig]) -> list[list[np.ndarray]]:
    """Deterministic-equivalent statistical SE, de[config][bs].

    In a single cell it is the full form of `se_stat_singlecell_de`, which is
    the exact SE of `se_stat_multicell`.
    """
    if scenario.n_cells == 1:
        reports = se_stat_multicell(scenario.profiles, configs)
        return [[r.per_user_se for r in per_bs] for per_bs in reports]
    return [
        [se_stat_multicell_de(scenario.local_profiles(bs), config) for bs in range(scenario.n_cells)]
        for config in configs
    ]


def _rows_for_scenario(
    scenario: Scenario,
    schemes: tuple[str, ...],
    mode: str,
    trials: int,
    seed: int,
) -> list[ResultRow]:
    spec = scenario.spec
    k = scenario.n_users
    multi = scenario.n_cells > 1
    grid = spec.snr_grid_db
    configs = [spec.system_config(snr, tau=resolve_tau_for_snr(scenario, snr)) for snr in grid]
    want_mc, want_de = mode in ("mc", "both"), mode in ("de", "both")
    # per scheme: (row name, mc[config][bs] or None, de[config][bs] or None),
    # each list from one call over the whole grid
    results = {}
    if "conv" in schemes:
        mc = de = None
        if want_mc:
            mc = conventional_mc(scenario.profiles, configs, trials, seed)
        if want_de:
            de = conv_de_per_bs(scenario, configs)
        name = "conv_multi" if multi else "conv_single"
        results["conv"] = (name, mc, de)
    if "stat" in schemes:
        mc = de = None
        if want_mc:
            mc = se_stat_multicell(scenario.profiles, configs)
        if want_de:
            # a single cell's equivalent is its exact SE: reuse it
            if mc is not None and not multi:
                de = [[r.per_user_se for r in per_bs] for per_bs in mc]
            else:
                de = stat_de_per_bs(scenario, configs)
        name = "stat_multi" if multi else "stat_single"
        results["stat"] = (name, mc, de)
    rows: list[ResultRow] = []
    for i, (snr, config) in enumerate(zip(grid, configs)):
        for scheme in schemes:
            name, mc, de = results[scheme]
            tau_used, prelog = (config.training_len, config.prelog) if scheme == "conv" else (0, 1.0)
            for bs in range(scenario.n_cells):
                for u in range(k):
                    if mc is not None:
                        report = mc[i][bs]
                        se_value = float(report.per_user_se[u])
                        stderr = None if report.se_stderr is None else float(report.se_stderr[u])
                    else:
                        se_value = float(de[i][bs][u])
                        stderr = None
                    rows.append(
                        ResultRow(
                            scenario_id=spec.scenario_id,
                            scheme=name,
                            snr_db=float(snr),
                            user_id=bs * k + u,
                            se_value=se_value,
                            se_stderr=stderr,
                            se_de=float(de[i][bs][u]) if (de is not None and mc is not None) else None,
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
    trials: int | None = None,
    seed: int | None = None,
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
    trials = spec.trials if trials is None else trials
    seed = spec.seed if seed is None else seed
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
        rows.extend(
            _rows_for_scenario(scenario, tuple(schemes), mode, trials, seed)
        )
    return rows
