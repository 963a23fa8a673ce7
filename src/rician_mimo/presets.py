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
from .spectral_efficiency import se_stat_multicell
from .sweeps import _rows_for_scenario, conv_de_at_bs, operating_points
from .training import solve_tau_star

PRESET_IDS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig4a", "fig4b", "fig5")

# fine grid used when searching for scheme crossovers
CROSSOVER_GRID_DB = tuple(float(s) for s in range(-10, 41))
# the high-SNR gain is read off the crossover curve at this grid point
HIGH_SNR_DB = 30.0

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


def _avg_de_curves(scenario: Scenario, snr_grid: tuple[float, ...]):
    """Average (over users of cell 0) DE SE per scheme over an SNR grid; both
    schemes run for BS 0 only."""
    configs = operating_points(scenario, snr_grid)
    conv = [float(np.mean(se)) for se in conv_de_at_bs(scenario, 0, configs)]
    reports = se_stat_multicell([scenario.profiles[0]], configs)
    stat = [float(np.mean(per_bs[0].per_user_se)) for per_bs in reports]
    return np.array(conv), np.array(stat)


def _crossover_and_gain(scenario: Scenario) -> tuple[float | None, float]:
    """From one DE curve of cell 0 over `CROSSOVER_GRID_DB`: the first SNR
    where statistical SE exceeds conventional SE (None if it never does),
    and the relative statistical-over-conventional gain at `HIGH_SNR_DB`."""
    conv, stat = _avg_de_curves(scenario, CROSSOVER_GRID_DB)
    above = np.nonzero(stat > conv)[0]
    crossing = float(CROSSOVER_GRID_DB[above[0]]) if above.size else None
    i = CROSSOVER_GRID_DB.index(HIGH_SNR_DB)
    return crossing, float((stat[i] - conv[i]) / conv[i])


def _avg_conv_de(rows: list[ResultRow], n_users: int) -> float:
    """Mean over the SNR grid of the user-mean conventional DE of cell 0,
    read off `rows`: `se_de` beside a Monte Carlo value, `se_value` in a
    DE-only row."""
    per_snr: dict[float, list[float]] = {}
    for row in rows:
        if row.scheme.startswith("conv") and row.user_id < n_users:
            se = row.se_value if row.se_de is None else row.se_de
            per_snr.setdefault(row.snr_db, []).append(se)
    return float(np.mean([np.mean(se) for se in per_snr.values()]))


def _summarize(figure_id: str, scenario: Scenario, rows: list[ResultRow], summary: dict) -> None:
    """Add the DE-based summary entries of one preset scenario to `summary`
    (every preset but fig1b, whose summary is its tau* table).  fig1a reads
    its conventional DE off the scenario's `rows`; the others solve their
    own crossover curves."""
    spec = scenario.spec
    if figure_id == "fig1a":
        label = spec.scenario_id.rsplit("-", 1)[1]
        table = summary.setdefault("avg_conv_se_by_tau_setting", {})
        table.setdefault(f"{spec.kappa_max:g}", {})[label] = _avg_conv_de(rows, scenario.n_users)
        return
    crossings = summary.setdefault("stat_over_conv_crossover_snr_db", {})
    if figure_id != "fig5":
        crossings[spec.scenario_id] = _crossover_and_gain(scenario)[0]
        return
    # fig5: cell 0 of the multi-cell drop, with and without the other cells
    multi = _crossover_and_gain(scenario)
    single = _crossover_and_gain(scenario.single_cell_view(0))
    crossings[spec.scenario_id] = {"multi": multi[0], "single": single[0]}
    gains = summary.setdefault("high_snr_stat_gain_at_30db", {})
    gains[spec.scenario_id] = {"multi": multi[1], "single": single[1]}


def preset_summary(figure_id: str) -> dict:
    """Deterministic qualitative summary of one preset (DE-based)."""
    if figure_id == "fig1b":
        return run_preset(figure_id)[1]
    summary: dict = {"figure": figure_id}
    for spec in preset_specs(figure_id):
        scenario = build_scenario(spec)
        rows = []
        if figure_id == "fig1a":
            rows = _rows_for_scenario(scenario, ("conv",), "de", spec.trials, spec.seed)
        _summarize(figure_id, scenario, rows, summary)
    return summary


def _run_scenario(
    figure_id: str, scenario: Scenario, trials: int | None, seed: int | None, summary: dict
) -> list[ResultRow]:
    """Rows of one preset scenario; its summary entries go to `summary`."""
    spec = scenario.spec
    use_trials = spec.trials if trials is None else trials
    use_seed = spec.seed if seed is None else seed
    if figure_id == "fig1b":
        rows = tau_star_rows(scenario, use_seed)
        table = summary.setdefault("tau_star_by_snr", {})
        table[spec.scenario_id] = {f"{row.snr_db:g}": row.tau_used for row in rows}
        return rows
    schemes = ("conv",) if figure_id == "fig1a" else ("conv", "stat")
    rows = _rows_for_scenario(scenario, schemes, "both", use_trials, use_seed)
    if figure_id == "fig5":
        single = scenario.single_cell_view(0)
        rows += _rows_for_scenario(single, schemes, "both", use_trials, use_seed)
    _summarize(figure_id, scenario, rows, summary)
    return rows


def run_preset(
    figure_id: str,
    trials: int | None = None,
    seed: int | None = None,
) -> tuple[list[ResultRow], dict]:
    """Run one preset end to end; returns (result rows, qualitative summary).

    Each scenario is built once and summarized as soon as its rows are in,
    so only one scenario is alive at a time."""
    if seed is not None and seed < 0:
        raise ConfigError("seed must be non-negative")
    if trials is not None and trials < 1:
        raise ConfigError("trials must be >= 1")
    if trials is not None and figure_id == "fig1b":
        raise ConfigError("fig1b runs no Monte Carlo and takes no trial count")
    rows: list[ResultRow] = []
    summary: dict = {"figure": figure_id}
    for spec in preset_specs(figure_id):
        rows.extend(_run_scenario(figure_id, build_scenario(spec), trials, seed, summary))
    return rows, summary
