import gc
import math
import weakref

import numpy as np
import pytest

from rician_mimo.config import ConfigError
from rician_mimo.estimation import BSStatistics
from rician_mimo.presets import _crossover_and_gain
from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.sweeps import (
    _rows_for_scenario,
    conv_de_per_bs,
    operating_points,
    run_sweep,
    stat_de_per_bs,
    tau_star_rows,
)


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
    # which of (se_stderr, se_de) each mode fills per scheme: only the
    # conventional Monte Carlo has a stderr, only `both` mode a DE column,
    # and in `de` mode the value column carries the DE
    filled = {
        "de": {"conv": (False, False), "stat": (False, False)},
        "mc": {"conv": (True, False), "stat": (False, False)},
        "both": {"conv": (True, True), "stat": (False, True)},
    }
    for layout, suffix in (({}, "single"), ({"layout": "three_cell_edge", "l": 3}, "multi")):
        for mode, expected in filled.items():
            rows = run_sweep(small_spec(**layout), mode=mode)
            assert {r.scheme for r in rows} == {f"conv_{suffix}", f"stat_{suffix}"}
            for r in rows:
                scheme = r.scheme.removesuffix(f"_{suffix}")
                assert (r.se_stderr is not None, r.se_de is not None) == expected[scheme]
            assert all(r.se_value > 0 for r in rows)


def test_mc_and_de_match_loosely_in_both_mode():
    rows = run_sweep(small_spec(n=32, trials=64), schemes=("conv",), mode="both")
    for r in rows:
        assert r.se_de == pytest.approx(r.se_value, rel=0.25)


@pytest.mark.parametrize("cells", [1, 3])
def test_statistical_sums_are_built_once_per_bs(monkeypatch, cells):
    # the scenario owns one BSStatistics per BS, and every scheme, the
    # conventional DE of the crossover curve included, reads it
    built, eighs = [], []
    init, eigh = BSStatistics.__init__, np.linalg.eigh

    def counted_init(self, links, j):
        built.append(j)
        init(self, links, j)

    def counted_eigh(*args, **kwargs):
        eighs.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(BSStatistics, "__init__", counted_init)
    layout = {"layout": "three_cell_edge", "l": 3} if cells == 3 else {}
    spec = small_spec(correlation="one_ring", snr_grid_db=tuple(range(-10, 35, 5)), **layout)
    scenario = build_scenario(spec)
    assert built == list(range(cells))
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    rows = _rows_for_scenario(scenario, ("conv", "stat"), "both", 2, spec.seed)
    assert len({r.snr_db for r in rows}) == 9
    # one same-pilot eigh per (BS, user), shared by the Monte Carlo and the
    # DE, where a single cell's one-link groups reuse the link's own
    # eigenvectors; and one of each BS's local sum, the statistical receiver's
    eigh_count = (cells * spec.k if cells > 1 else 0) + cells
    assert len(eighs) == eigh_count
    _crossover_and_gain(scenario)
    assert built == list(range(cells))
    assert len(eighs) == eigh_count


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


def test_operating_points_modes():
    fixed = build_scenario(small_spec(tau_mode="fixed", tau=7))
    assert operating_points(fixed, (0.0,))[0].training_len == 7
    minimum = build_scenario(small_spec())
    assert operating_points(minimum, (0.0,))[0].training_len == 3
    optimal = build_scenario(small_spec(tau_mode="optimal"))
    tau = operating_points(optimal, (-10.0,))[0].training_len
    assert 3 <= tau < 50


def test_sweep_reproducible():
    spec = small_spec()
    a = run_sweep(spec, mode="both")
    b = run_sweep(spec, mode="both")
    assert a == b


def test_base2_values_are_natural_values_over_ln2():
    spec = small_spec(trials=3, tau_mode="optimal")
    bits_spec = small_spec(trials=3, tau_mode="optimal", log_base="base2")
    scale = bits_spec.log_scale
    assert (spec.log_scale, scale) == (1.0, 1.0 / math.log(2.0))
    # every SE is computed in nats and the row builder applies the log base
    # last, so a base-2 row is its natural row times the scale, bit for bit
    nats = run_sweep(spec, mode="both")
    bits = run_sweep(bits_spec, mode="both")
    assert len(nats) == len(bits)
    assert {a.scheme for a in nats} == {"conv_single", "stat_single"}
    for a, b in zip(nats, bits):
        assert (a.scheme, a.snr_db, a.user_id, a.tau_used, a.prelog) == (
            b.scheme, b.snr_db, b.user_id, b.tau_used, b.prelog
        )
        assert b.se_value == a.se_value * scale
        assert b.se_de == a.se_de * scale
        if a.se_stderr is None:
            assert b.se_stderr is None and a.scheme == "stat_single"
        else:
            assert b.se_stderr == a.se_stderr * scale
    # tau* rows: only the average SE is an SE; se_de holds tau_continuous
    nats = tau_star_rows(build_scenario(spec), spec.seed)
    bits = tau_star_rows(build_scenario(bits_spec), spec.seed)
    assert len(nats) == len(bits) == len(spec.snr_grid_db)
    for a, b in zip(nats, bits):
        assert b.se_value == a.se_value * scale
        assert (a.se_de, a.tau_used, a.prelog) == (b.se_de, b.tau_used, b.prelog)


def test_sweep_validation_errors():
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), sweep_axis="bandwidth")
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), schemes=("conv", "mrc"))
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), mode="analytic")
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), sweep_axis="kappa_max")  # missing axis values


def test_stat_multi_de_is_the_exact_se():
    # one statistical SE in every layout: the DE column repeats the exact
    # value bit for bit, and a DE-only run reports that same value
    spec = small_spec(layout="three_cell_edge", l=3, correlation="one_ring")
    both = run_sweep(spec, schemes=("stat",), mode="both")
    assert {r.scheme for r in both} == {"stat_multi"} and len(both) == 2 * 3 * 3
    assert all(r.se_de == r.se_value and r.se_stderr is None for r in both)
    de = run_sweep(spec, schemes=("stat",), mode="de")
    assert [r.se_value for r in de] == [r.se_value for r in both]


def test_per_bs_helpers_shapes():
    sc = build_scenario(small_spec(layout="three_cell_edge", l=3))
    cfg = sc.spec.system_config(5.0)
    # (point, BS, user)
    for arr in (conv_de_per_bs(sc, [cfg]), stat_de_per_bs(sc, [cfg])):
        assert arr.shape == (1, 3, 3)
        assert np.all(np.isfinite(arr)) and np.all(arr >= 0)
