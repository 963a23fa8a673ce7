"""Built-in experiment presets and their qualitative summaries.

Each preset reproduces one published-figure configuration as plot-ready data
(no image rendering).  The summaries report the qualitative features the
figures are read for: scheme crossover SNRs, high-SNR gains and optimal
training lengths.  Summaries are computed from the deterministic equivalents
so they are exactly reproducible and cheap.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import ConfigError
from .results import ResultRow
from .scenarios import Scenario, ScenarioSpec, build_scenario
from .sweeps import _rows_for_scenario, conv_de_per_bs, resolve_tau_for_snr, stat_de_per_bs
from .training import solve_tau_star

PRESET_IDS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig4a", "fig4b", "fig5")

# fine grid used when searching for scheme crossovers
CROSSOVER_GRID_DB = tuple(float(s) for s in range(-10, 41))

_BASE = ScenarioSpec()  # paper-style defaults: N=150, K=20, T=500, R=150m


def _spec(**overrides) -> ScenarioSpec:
    return dataclasses.replace(_BASE, **overrides)


def preset_specs(figure_id: str) -> list[ScenarioSpec]:
    """The seeded scenario constants behind one preset."""
    if figure_id == "fig1a":
        specs = []
        for kmax in (0.0, 0.5, 4.0, 10.0):
            for label, tau_mode, tau in (
                ("tauK", "minimum", 0),
                ("tauopt", "optimal", 0),
                ("tau120", "fixed", 120),
            ):
                specs.append(
                    _spec(
                        kappa_max=kmax,
                        tau_mode=tau_mode,
                        tau=tau,
                        seed=11,
                        scenario_id=f"fig1a-kmax{kmax:g}-{label}",
                    )
                )
        return specs
    if figure_id == "fig1b":
        return [
            _spec(kappa_max=kmax, seed=11, scenario_id=f"fig1b-kmax{kmax:g}")
            for kmax in (0.0, 0.5, 4.0, 10.0)
        ]
    if figure_id in ("fig2a", "fig2b"):
        los = "steering" if figure_id == "fig2a" else "dft"
        return [
            _spec(
                kappa_max=kmax,
                tau_mode="optimal",
                los=los,
                seed=13,
                scenario_id=f"{figure_id}-kmax{kmax:g}",
            )
            for kmax in (0.5, 1.0, 2.0, 4.0)
        ]
    if figure_id in ("fig4a", "fig4b"):
        los = "steering" if figure_id == "fig4a" else "dft"
        return [
            _spec(
                layout="three_cell_edge",
                l=3,
                placement="cell_edge",
                kappa_max=kmax,
                los=los,
                seed=17,
                scenario_id=f"{figure_id}-kmax{kmax:g}",
            )
            for kmax in (0.5, 2.0, 4.0)
        ]
    if figure_id == "fig5":
        return [
            _spec(
                layout="three_cell_edge",
                l=3,
                placement="cell_edge",
                kappa_max=kmax,
                seed=19,
                scenario_id=f"fig5-kmax{kmax:g}",
            )
            for kmax in (1.0, 2.0)
        ]
    raise ConfigError(f"unknown preset {figure_id!r}; choose from {PRESET_IDS}")


def tau_star_rows(scenario: Scenario, seed: int) -> list[ResultRow]:
    """One `tau_star` row per SNR point of the scenario: the optimal training
    length of cell 0, its average SE and the continuous root (as `se_de`).
    `seed` fills the seed column only; tau* involves no draws."""
    spec = scenario.spec
    rows = []
    for snr in spec.snr_grid_db:
        sol = solve_tau_star(scenario.local_profiles(0), spec.system_config(snr))
        rows.append(
            ResultRow(
                scenario_id=spec.scenario_id,
                scheme="tau_star",
                snr_db=float(snr),
                user_id=0,
                se_value=float(sol.avg_se_at_star),
                se_stderr=None,
                se_de=float(sol.tau_continuous),
                tau_used=sol.tau_star,
                prelog=1.0 - sol.tau_star / spec.t,
                seed=seed,
            )
        )
    return rows


def _avg_de_curves(scenario: Scenario, snr_grid: tuple[float, ...], bs: int = 0):
    """Average (over users of one BS) DE SE per scheme over an SNR grid."""
    conv = []
    stat = []
    for snr in snr_grid:
        tau = resolve_tau_for_snr(scenario, snr)
        config = scenario.spec.system_config(snr, tau=tau)
        conv.append(float(np.mean(conv_de_per_bs(scenario, config)[bs])))
        stat.append(float(np.mean(stat_de_per_bs(scenario, config)[bs])))
    return np.array(conv), np.array(stat)


def crossover_snr(scenario: Scenario, snr_grid: tuple[float, ...] = CROSSOVER_GRID_DB):
    """First SNR of the grid where statistical SE exceeds conventional SE."""
    conv, stat = _avg_de_curves(scenario, snr_grid)
    above = np.nonzero(stat > conv)[0]
    return float(snr_grid[above[0]]) if above.size else None


def high_snr_gain(scenario: Scenario, snr_db: float = 30.0) -> float:
    """Relative statistical-over-conventional gain at one (high) SNR."""
    conv, stat = _avg_de_curves(scenario, (snr_db,))
    return float((stat[0] - conv[0]) / conv[0])


def preset_summary(figure_id: str) -> dict:
    """Deterministic qualitative summary of one preset (DE-based)."""
    summary: dict = {"figure": figure_id}
    if figure_id == "fig1a":
        per_kmax = {}
        for kmax in (0.0, 0.5, 4.0, 10.0):
            variants = {}
            for spec in preset_specs("fig1a"):
                if f"kmax{kmax:g}-" not in spec.scenario_id:
                    continue
                scenario = build_scenario(spec)
                conv, _ = _avg_de_curves(scenario, spec.snr_grid_db)
                label = spec.scenario_id.rsplit("-", 1)[1]
                variants[label] = float(np.mean(conv))
            per_kmax[f"{kmax:g}"] = variants
        summary["avg_conv_se_by_tau_setting"] = per_kmax
        return summary
    if figure_id == "fig1b":
        table = {}
        for spec in preset_specs("fig1b"):
            rows = tau_star_rows(build_scenario(spec), spec.seed)
            table[spec.scenario_id] = {f"{row.snr_db:g}": row.tau_used for row in rows}
        summary["tau_star_by_snr"] = table
        return summary
    if figure_id in ("fig2a", "fig2b", "fig4a", "fig4b"):
        crossings = {}
        for spec in preset_specs(figure_id):
            crossings[spec.scenario_id] = crossover_snr(build_scenario(spec))
        summary["stat_over_conv_crossover_snr_db"] = crossings
        return summary
    # fig5: cell 0 of the multi-cell drop, with and without the other cells
    crossings = {}
    gains = {}
    for spec in preset_specs("fig5"):
        scenario = build_scenario(spec)
        single = scenario.single_cell_view(0)
        crossings[spec.scenario_id] = {
            "multi": crossover_snr(scenario),
            "single": crossover_snr(single),
        }
        gains[spec.scenario_id] = {
            "multi": high_snr_gain(scenario),
            "single": high_snr_gain(single),
        }
    summary["stat_over_conv_crossover_snr_db"] = crossings
    summary["high_snr_stat_gain_at_30db"] = gains
    return summary


def run_preset(
    figure_id: str,
    trials: int | None = None,
    seed: int | None = None,
) -> tuple[list[ResultRow], dict]:
    """Run one preset end to end; returns (result rows, qualitative summary)."""
    rows: list[ResultRow] = []
    for spec in preset_specs(figure_id):
        scenario = build_scenario(spec)
        use_trials = spec.trials if trials is None else trials
        use_seed = spec.seed if seed is None else seed
        if figure_id == "fig1b":
            rows.extend(tau_star_rows(scenario, use_seed))
            continue
        schemes = ("conv",) if figure_id == "fig1a" else ("conv", "stat")
        rows.extend(
            _rows_for_scenario(scenario, schemes, "both", use_trials, use_seed)
        )
        if figure_id == "fig5":
            single = scenario.single_cell_view(0)
            rows.extend(
                _rows_for_scenario(single, schemes, "both", use_trials, use_seed)
            )
    return rows, preset_summary(figure_id)
