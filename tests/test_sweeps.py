import gc
import math
import weakref

import numpy as np
import pytest

from rician_mimo import spectral_efficiency
from rician_mimo.config import ConfigError
from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.sweeps import (
    _rows_for_scenario,
    conv_de_per_bs,
    resolve_tau_for_snr,
    run_sweep,
    stat_de_per_bs,
)
from rician_mimo.training import solve_tau_star


def small_spec(**overrides):
    base = dict(
        n=16,
        k=3,
        t=50,
        trials=8,
        seed=2,
        correlation="exponential",
        snr_grid_db=(0.0, 10.0),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_snr_sweep_row_inventory():
    spec = small_spec()
    rows = run_sweep(spec, mode="both")
    # 2 SNRs x 2 schemes x 3 users
    assert len(rows) == 12
    assert {r.scheme for r in rows} == {"conv_single", "stat_single"}
    assert {r.snr_db for r in rows} == {0.0, 10.0}
    conv = [r for r in rows if r.scheme == "conv_single"]
    assert all(r.se_de is not None and r.se_stderr is not None for r in conv)
    assert all(r.tau_used == 3 and r.prelog == pytest.approx(1 - 3 / 50) for r in conv)
    stat = [r for r in rows if r.scheme == "stat_single"]
    assert all(r.prelog == 1.0 and r.tau_used == 0 for r in stat)


def test_de_only_mode_has_no_stderr():
    rows = run_sweep(small_spec(), mode="de")
    assert all(r.se_stderr is None for r in rows)
    assert all(r.se_de is None for r in rows)  # value column carries the DE
    assert all(r.se_value > 0 for r in rows)


def test_mc_and_de_match_loosely_in_both_mode():
    rows = run_sweep(small_spec(n=32, trials=64), schemes=("conv",), mode="both")
    for r in rows:
        assert r.se_de == pytest.approx(r.se_value, rel=0.25)


@pytest.mark.parametrize("cells", [1, 3])
def test_statistical_sums_are_built_once_per_bs(monkeypatch, cells):
    # the SNR-independent sums of the statistical receiver serve every point
    built = []
    original = spectral_efficiency.BSStatistics

    def counted(*args):
        stats = original(*args)
        built.append(stats.h_bar)
        return stats

    monkeypatch.setattr(spectral_efficiency, "BSStatistics", counted)
    layout = {"layout": "three_cell_edge", "l": 3} if cells == 3 else {}
    spec = small_spec(correlation="one_ring", snr_grid_db=tuple(range(-10, 35, 5)), **layout)
    rows = run_sweep(spec, schemes=("stat",), mode="both")
    assert len({r.snr_db for r in rows}) == 9
    assert len(built) == cells
    # one per BS: each serves a different cell's links (its LoS columns)
    assert len({h_bar.tobytes() for h_bar in built}) == cells


def test_finished_scenario_is_freed_without_the_cycle_collector():
    # nothing the evaluation builds from the links outlives it, so dropping
    # the scenario frees every link by reference counting alone
    spec = small_spec(layout="three_cell_edge", l=3, n=8, k=2, correlation="one_ring", trials=2)
    scenario = build_scenario(spec)
    links = [weakref.ref(p) for bs in scenario.profiles for cell in bs for p in cell]
    assert len(links) == 18
    gc.disable()
    try:
        rows = _rows_for_scenario(scenario, ("conv", "stat"), "both", 2, spec.seed)
        del scenario
        alive = sum(ref() is not None for ref in links)
    finally:
        gc.enable()
    assert rows and alive == 0


def test_multicell_sweep_covers_all_bs():
    spec = small_spec(layout="three_cell_edge", l=3, trials=4)
    rows = run_sweep(spec, schemes=("conv",), mode="mc")
    assert len(rows) == 2 * 3 * 3  # snr x bs x users
    assert {r.scheme for r in rows} == {"conv_multi"}
    assert {r.user_id for r in rows} == set(range(9))


def test_kappa_sweep_creates_variants():
    rows = run_sweep(
        small_spec(snr_grid_db=(0.0,)),
        schemes=("stat",),
        sweep_axis="kappa_max",
        axis_values=(0.5, 2.0),
        mode="de",
    )
    ids = {r.scenario_id for r in rows}
    assert ids == {"scenario-kappa_max=0.5", "scenario-kappa_max=2"}


def test_n_antennas_sweep_changes_dimension():
    rows = run_sweep(
        small_spec(snr_grid_db=(10.0,)),
        schemes=("stat",),
        sweep_axis="n_antennas",
        axis_values=(16, 32),
        mode="de",
    )
    by_id = {}
    for r in rows:
        by_id.setdefault(r.scenario_id, []).append(r.se_value)
    # more antennas help the statistical combiner
    assert np.mean(by_id["scenario-n_antennas=32"]) > np.mean(by_id["scenario-n_antennas=16"])


def test_tau_sweep_sets_fixed_mode():
    rows = run_sweep(
        small_spec(snr_grid_db=(0.0,)),
        schemes=("conv",),
        sweep_axis="tau",
        axis_values=(3, 10),
        mode="de",
    )
    taus = {r.scenario_id: r.tau_used for r in rows}
    assert taus["scenario-tau=3"] == 3
    assert taus["scenario-tau=10"] == 10


def test_resolve_tau_modes():
    fixed = build_scenario(small_spec(tau_mode="fixed", tau=7))
    assert resolve_tau_for_snr(fixed, 0.0) == 7
    minimum = build_scenario(small_spec())
    assert resolve_tau_for_snr(minimum, 0.0) == 3
    optimal = build_scenario(small_spec(tau_mode="optimal"))
    tau = resolve_tau_for_snr(optimal, -10.0)
    assert 3 <= tau < 50


def test_sweep_reproducible():
    spec = small_spec()
    a = run_sweep(spec, mode="both")
    b = run_sweep(spec, mode="both")
    assert a == b


def test_base2_values_are_natural_values_over_ln2():
    spec = small_spec(trials=3, tau_mode="optimal")
    bits_spec = small_spec(trials=3, tau_mode="optimal", log_base="base2")
    nats = run_sweep(spec, mode="both")
    bits = run_sweep(bits_spec, mode="both")
    assert len(nats) == len(bits)
    for a, b in zip(nats, bits):
        assert (a.scheme, a.snr_db, a.user_id, a.tau_used) == (
            b.scheme, b.snr_db, b.user_id, b.tau_used
        )
        assert b.se_value == pytest.approx(a.se_value / math.log(2.0), rel=1e-14, abs=0.0)
        assert b.se_de == pytest.approx(a.se_de / math.log(2.0), rel=1e-14, abs=0.0)
    profiles = build_scenario(spec).local_profiles(0)
    for snr in spec.snr_grid_db:
        a = solve_tau_star(profiles, spec.system_config(snr))
        b = solve_tau_star(profiles, bits_spec.system_config(snr))
        assert b.avg_se_at_star == pytest.approx(a.avg_se_at_star / math.log(2.0), rel=1e-14)


def test_sweep_validation_errors():
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), sweep_axis="bandwidth")
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), schemes=("conv", "mrc"))
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), mode="analytic")
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), sweep_axis="kappa_max")  # missing axis values


def test_per_bs_helpers_shapes():
    sc = build_scenario(small_spec(layout="three_cell_edge", l=3))
    cfg = sc.spec.system_config(5.0)
    [conv] = conv_de_per_bs(sc, [cfg])
    [stat] = stat_de_per_bs(sc, [cfg])
    assert len(conv) == 3 and len(stat) == 3
    for arr in conv + stat:
        assert arr.shape == (3,)
        assert np.all(np.isfinite(arr)) and np.all(arr >= 0)
