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
(`operating_points`, `tau_star_rows`).  The statistical SE is exact, so its
deterministic equivalent is that same SE in every layout.  This is the one
module that builds rows and applies `ScenarioSpec.log_scale`.
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


def tau_star_rows(scenario: Scenario, seed: int) -> list[ResultRow]:
    """One `tau_star` row per SNR point of the scenario: the optimal training
    length of cell 0, its average SE and the continuous root (as `se_de`),
    from one solve over the grid.  `seed` fills the seed column only; tau*
    involves no draws."""
    spec = scenario.spec
    configs = [spec.system_config(snr) for snr in spec.snr_grid_db]
    solutions = solve_tau_star(scenario.local_profiles(0), configs)
    return [
        ResultRow(
            scenario_id=spec.scenario_id,
            scheme="tau_star",
            snr_db=float(snr),
            user_id=0,
            se_value=float(sol.avg_se_at_star) * spec.log_scale,
            se_stderr=None,
            se_de=float(sol.tau_continuous),
            tau_used=sol.tau_star,
            prelog=dataclasses.replace(config, training_len=sol.tau_star).prelog,
            seed=seed,
        )
        for snr, config, sol in zip(spec.snr_grid_db, configs, solutions)
    ]


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
    configs = operating_points(scenario, spec.snr_grid_db)
    # per scheme: its (se_value, se_stderr, se_de) columns, each None or a
    # (configs, BS, users) array in nats from one call over the whole grid
    columns = {}
    if "conv" in schemes:
        if mode == "de":
            columns["conv"] = (conv_de_per_bs(scenario, configs), None, None)
        else:
            se, err = conventional_mc(scenario.profiles, configs, trials, seed)
            columns["conv"] = (se, err, conv_de_per_bs(scenario, configs) if mode == "both" else None)
    if "stat" in schemes:
        # the statistical SE is exact and is its own DE
        exact = se_stat_multicell(scenario.profiles, configs)
        columns["stat"] = (exact, None, exact if mode == "both" else None)
    suffix = "multi" if scenario.n_cells > 1 else "single"
    rows: list[ResultRow] = []
    for i, (snr, config) in enumerate(zip(spec.snr_grid_db, configs)):
        for scheme in schemes:
            tau_used, prelog = (config.training_len, config.prelog) if scheme == "conv" else (0, 1.0)
            for bs in range(scenario.n_cells):
                for u in range(k):
                    value, stderr, de = (
                        None if c is None else float(c[i, bs, u]) * scale
                        for c in columns[scheme]
                    )
                    rows.append(
                        ResultRow(
                            scenario_id=spec.scenario_id,
                            scheme=f"{scheme}_{suffix}",
                            snr_db=float(snr),
                            user_id=bs * k + u,
                            se_value=value,
                            se_stderr=stderr,
                            se_de=de,
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
