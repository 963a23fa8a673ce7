import dataclasses

import pytest

from rician_mimo import presets, sweeps
from rician_mimo.config import ConfigError
from rician_mimo.presets import PRESET_IDS, preset_specs, preset_summary, run_preset


def test_preset_inventory():
    assert PRESET_IDS == ("fig1a", "fig1b", "fig2a", "fig2b", "fig4a", "fig4b", "fig5")
    for fid in PRESET_IDS:
        specs = preset_specs(fid)
        assert specs, fid
        for spec in specs:
            assert spec.scenario_id.startswith(fid)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_specs("fig9")


def test_fig1a_covers_tau_settings():
    labels = {s.scenario_id.rsplit("-", 1)[1] for s in preset_specs("fig1a")}
    assert labels == {"tauK", "tauopt", "tau120"}
    modes = {s.tau_mode for s in preset_specs("fig1a")}
    assert modes == {"minimum", "optimal", "fixed"}


def test_multicell_presets_use_edge_placement():
    for fid in ("fig4a", "fig4b", "fig5"):
        for spec in preset_specs(fid):
            assert spec.layout == "three_cell_edge"
            assert spec.l == 3
            assert spec.placement == "cell_edge"


def test_los_variants_paired():
    assert all(s.los == "steering" for s in preset_specs("fig2a"))
    assert all(s.los == "dft" for s in preset_specs("fig2b"))
    assert all(s.los == "steering" for s in preset_specs("fig4a"))
    assert all(s.los == "dft" for s in preset_specs("fig4b"))


def test_presets_are_seeded_and_deterministic():
    for fid in PRESET_IDS:
        a = preset_specs(fid)
        b = preset_specs(fid)
        assert a == b
        assert all(s.seed != 0 for s in a)


def test_run_preset_builds_each_scenario_once(monkeypatch):
    # the summary is computed from the scenario the rows were built from;
    # that holds at any array size, so a small one keeps the test fast
    monkeypatch.setattr(presets, "_BASE", dataclasses.replace(presets._BASE, n=16, k=4))
    built = []
    original = presets.build_scenario

    def counted(spec):
        built.append(spec.scenario_id)
        return original(spec)

    monkeypatch.setattr(presets, "build_scenario", counted)
    rows, summary = run_preset("fig2a", trials=1)
    assert built == [spec.scenario_id for spec in preset_specs("fig2a")]
    assert rows
    monkeypatch.setattr(presets, "build_scenario", original)
    assert summary == preset_summary("fig2a")


def test_fig1a_summary_reads_the_rows_conventional_de(monkeypatch):
    # the summary averages the conventional DE the rows carry, so each
    # scenario solves it once; a small array keeps the twelve scenarios fast
    monkeypatch.setattr(presets, "_BASE", dataclasses.replace(presets._BASE, n=16, k=4))
    calls = []
    original = sweeps.conv_de_at_bs

    def counted(scenario, bs, configs):
        calls.append(scenario.spec.scenario_id)
        return original(scenario, bs, configs)

    monkeypatch.setattr(sweeps, "conv_de_at_bs", counted)
    monkeypatch.setattr(presets, "conv_de_at_bs", counted)
    rows, summary = run_preset("fig1a", trials=2)
    assert calls == [spec.scenario_id for spec in preset_specs("fig1a")]
    assert {row.scheme for row in rows} == {"conv_single"}
    assert summary == preset_summary("fig1a")


def test_fig5_rows_and_summary_cover_the_cell_with_and_without_the_others(monkeypatch):
    # fig5 adds cell 0's single-cell view to every drop: its rows and both
    # summary tables carry a multi and a single entry per scenario
    monkeypatch.setattr(presets, "_BASE", dataclasses.replace(presets._BASE, n=16, k=4))
    rows, summary = run_preset("fig5", trials=1)
    ids = [spec.scenario_id for spec in preset_specs("fig5")]
    assert ids == ["fig5-kmax1", "fig5-kmax2"]
    expected = {(sid, f"{scheme}_multi") for sid in ids for scheme in ("conv", "stat")}
    expected |= {(f"{sid}-cell0", f"{scheme}_single") for sid in ids for scheme in ("conv", "stat")}
    assert {(row.scenario_id, row.scheme) for row in rows} == expected
    for table in ("stat_over_conv_crossover_snr_db", "high_snr_stat_gain_at_30db"):
        assert set(summary[table]) == set(ids)
        assert all(set(entry) == {"multi", "single"} for entry in summary[table].values())
    assert summary == preset_summary("fig5")


def test_reproduce_seed_reseeds_the_monte_carlo_not_the_user_drop(monkeypatch):
    # a preset scenario keeps its own seed for the user drop: another seed
    # changes the Monte Carlo draws and the seed column, and no exact value
    monkeypatch.setattr(presets, "_BASE", dataclasses.replace(presets._BASE, n=16, k=4))
    rows5, summary5 = run_preset("fig2a", trials=2, seed=5)
    rows6, summary6 = run_preset("fig2a", trials=2, seed=6)
    assert summary5 == summary6
    assert len(rows5) == len(rows6)
    for a, b in zip(rows5, rows6):
        assert (a.seed, b.seed) == (5, 6)
        assert a.se_de == b.se_de
        if a.scheme == "stat_single":
            assert dataclasses.replace(a, seed=6) == b
        else:
            assert a.se_value != b.se_value
