import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rician_mimo import channel
from rician_mimo.channel import (
    build_profile,
    exponential_correlation,
    los_steering,
    one_ring_correlation,
    one_ring_first_row,
    real_image,
    toeplitz_image,
)
from rician_mimo.config import ConfigError
from rician_mimo.scenarios import (
    Scenario,
    ScenarioSpec,
    _one_ring_window,
    build_scenario,
    parse_scenario,
    serialize_scenario,
)


def small_spec(**overrides):
    base = dict(n=16, k=3, t=50, trials=2, seed=1)
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# spec validation


def test_defaults_are_valid():
    spec = ScenarioSpec()
    assert spec.layout == "single_cell"
    assert spec.system_config(0.0).training_len == spec.k


@pytest.mark.parametrize(
    "overrides",
    [
        dict(layout="hexagonal"),
        dict(correlation="bessel"),
        dict(los="random"),
        dict(placement="ring"),
        dict(tau_mode="adaptive"),
        dict(layout="single_cell", l=3),
        dict(layout="three_cell_edge", l=1),
        dict(kappa_max=-1.0),
        dict(trials=0),
        dict(tau_mode="fixed", tau=2),
        # tau is read only in fixed mode; elsewhere it would be ignored
        dict(tau=30),
        dict(tau_mode="optimal", tau=30),
        # a repeated point would write every row of it twice
        dict(snr_grid_db=(0.0, 0.0)),
        dict(snr_grid_db=(0.0, 5.0, -0.0)),
        dict(k=50, t=50),
        # each would break the CSV row the id is written into
        dict(scenario_id="a,b"),
        dict(scenario_id='a"b'),
        dict(scenario_id="a\rb"),
        dict(scenario_id="a\nb"),
        dict(log_base="log10"),
        # finite in dB, but 10^(x/10) overflows or underflows to 0
        dict(snr_grid_db=(0.0, 4000.0)),
        dict(snr_grid_db=(-4000.0,)),
        dict(snr_training_db=4000.0),
        dict(snr_training_db=-4000.0),
    ],
)
def test_invalid_specs_rejected(overrides):
    with pytest.raises(ConfigError):
        small_spec(**overrides)


def test_fixed_tau_resolution():
    spec = small_spec(tau_mode="fixed", tau=10)
    assert spec.system_config(0.0).training_len == 10


def test_system_config_snr_conversion():
    spec = small_spec(snr_training_db=-3.0)
    cfg = spec.system_config(10.0)
    assert cfg.snr_data == pytest.approx(10.0)
    assert cfg.snr_training == pytest.approx(10 ** (-0.3))
    # default: training SNR follows data SNR
    cfg2 = small_spec().system_config(5.0)
    assert cfg2.snr_training == cfg2.snr_data


# ---------------------------------------------------------------------------
# scenario construction


def test_build_single_cell_shapes():
    spec = small_spec()
    sc = build_scenario(spec)
    assert sc.n_cells == 1
    assert sc.n_users == 3
    assert len(sc.profiles) == 1 and len(sc.profiles[0]) == 1
    assert sc.kappas.shape == (1, 3)
    assert np.all(sc.kappas >= 0) and np.all(sc.kappas <= spec.kappa_max)


def test_build_three_cell_shapes():
    sc = build_scenario(small_spec(layout="three_cell_edge", l=3))
    assert sc.n_cells == 3
    for j in range(3):
        assert len(sc.profiles[j]) == 3
        for ell in range(3):
            assert len(sc.profiles[j][ell]) == 3
            for p in sc.profiles[j][ell]:
                assert p.is_local == (j == ell)
                if j != ell:
                    assert np.allclose(p.h_bar, 0.0)


def test_cell_edge_beta_normalization():
    # a user exactly at the cell edge has beta = 1
    sc = build_scenario(small_spec(placement="cell_edge", correlation="identity"))
    for p in sc.local_profiles(0):
        d = None
        total = np.real(np.trace(p.r_cov)) / p.n_antennas + np.linalg.norm(p.h_bar) ** 2 / p.n_antennas
        assert total == pytest.approx(1.0, rel=0.15)  # edge band is 0.95 r


def test_scenario_deterministic_in_seed():
    a = build_scenario(small_spec(seed=9))
    b = build_scenario(small_spec(seed=9))
    assert np.array_equal(a.kappas, b.kappas)
    assert np.array_equal(a.profiles[0][0][0].r_cov, b.profiles[0][0][0].r_cov)
    c = build_scenario(small_spec(seed=10))
    assert not np.array_equal(a.kappas, c.kappas)


def test_kappa_max_sweep_keeps_geometry():
    # scaling kappa_max rescales the factors without redrawing positions
    a = build_scenario(small_spec(kappa_max=1.0))
    b = build_scenario(small_spec(kappa_max=4.0))
    assert np.allclose(b.kappas, 4.0 * a.kappas)
    assert np.array_equal(a.geometry.user_positions, b.geometry.user_positions)


def test_dft_los_mode():
    sc = build_scenario(small_spec(los="dft", correlation="identity", kappa_max=5.0))
    profs = sc.local_profiles(0)
    h = np.column_stack([p.h_bar for p in profs])
    gram = h.conj().T @ h
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-9


def test_single_cell_view():
    sc = build_scenario(small_spec(layout="three_cell_edge", l=3))
    view = sc.single_cell_view(1)
    assert view.n_cells == 1
    assert view.spec.layout == "single_cell"
    a = view.profiles[0][0][0]
    b = sc.profiles[1][1][0]
    assert np.array_equal(a.r_cov, b.r_cov)
    assert np.array_equal(a.h_bar, b.h_bar)
    # statistics of its own: the served links are the parent's objects, and
    # no other cell interferes
    stats = view.profiles[0]
    assert stats is not sc.profiles[1] and stats.j == 0 and len(stats) == 1
    assert all(x is y for x, y in zip(stats[0], sc.profiles[1][1]))
    assert not np.any(stats.inter)
    assert np.array_equal(stats.local, sc.profiles[1].local)
    assert np.array_equal(stats.h_bar, sc.profiles[1].h_bar)


def test_correlation_modes_produce_expected_structure():
    ident = build_scenario(small_spec(correlation="identity"))
    assert np.allclose(
        ident.profiles[0][0][0].r_cov,
        np.eye(16) * np.real(ident.profiles[0][0][0].r_cov[0, 0]),
    )
    ring = build_scenario(small_spec(correlation="one_ring"))
    off = np.abs(ring.profiles[0][0][0].r_cov[0, 1])
    assert off > 1e-6  # genuinely correlated


def _square_arrays(link, n: int) -> list[np.ndarray]:
    """The (n, n) arrays a link holds, in its attributes or their tuples."""
    found = []
    for value in vars(link).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray) and item.shape == (n, n):
                found.append(item)
    return found


@pytest.mark.parametrize("n", [8, 9])
def test_one_ring_links_keep_their_first_row_not_their_image(n):
    # a one-ring link holds its eigenvectors and its first row; the image
    # every reader sees is formed from that row, bit for bit
    spec = small_spec(n=n, correlation="one_ring", layout="three_cell_edge", l=3, placement="cell_edge")
    sc = build_scenario(spec)
    for j, per_bs in enumerate(sc.profiles):
        for ell, cell in enumerate(per_bs):
            for k, link in enumerate(cell):
                [square] = _square_arrays(link, n)
                assert square is link.eigvecs
                window = _one_ring_window(sc.geometry.arrival_angle(j, ell, k))
                row = one_ring_first_row(*window, n)
                assert np.array_equal(link.r_image, link.scale * toeplitz_image(row))
                assert np.abs(link.theta - one_ring_correlation(*window, n)).max() <= 1e-14


@pytest.mark.parametrize("correlation", ["exponential", "identity"])
def test_links_given_a_matrix_keep_its_first_row(correlation):
    n = 9
    theta = exponential_correlation(0.6 + 0.2j, n) if correlation == "exponential" else np.eye(n, dtype=complex)
    link = build_profile(1.7, 0.4, theta, los_steering(0.3, n))
    assert np.array_equal(link.theta_eig[2], theta[0])
    assert np.array_equal(link.theta_image, toeplitz_image(theta[0]))
    assert np.abs(link.theta_image - real_image(theta)).max() <= 1e-15
    # a scenario's shared theta: every link holds the one eigenpair
    sc = build_scenario(small_spec(n=n, correlation=correlation, layout="three_cell_edge", l=3))
    links = [link for per_bs in sc.profiles for cell in per_bs for link in cell]
    assert all(link.theta_eig is links[0].theta_eig for link in links)


@pytest.mark.parametrize("correlation", ["one_ring", "exponential", "identity"])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_scenario_links_are_built_from_first_rows_alone(correlation, layout, monkeypatch):
    # no family forms the dense image of a complex N x N correlation matrix
    def forbidden(theta):
        raise AssertionError("real_image called while building a scenario")

    monkeypatch.setattr(channel, "real_image", forbidden)
    cells = 3 if layout == "three_cell_edge" else 1
    sc = build_scenario(small_spec(n=9, correlation=correlation, layout=layout, l=cells))
    for link in (link for per_bs in sc.profiles for cell in per_bs for link in cell):
        assert link.theta_eig[2].shape == (9,)


# ---------------------------------------------------------------------------
# config file grammar


def test_parse_round_trip():
    spec = small_spec(
        layout="three_cell_edge",
        l=3,
        kappa_max=2.5,
        correlation="exponential",
        snr_grid_db=(-5.0, 0.0, 5.0),
        snr_training_db=-2.0,
        scenario_id="trip",
    )
    assert parse_scenario(serialize_scenario(spec)) == spec


def test_parse_snr_range_syntax():
    spec = parse_scenario("snr_grid_db = -10:30:5\nk = 3\nt = 50\nn = 16\n")
    assert spec.snr_grid_db == tuple(float(v) for v in range(-10, 35, 5))
    # a step that divides hi - lo only up to rounding keeps lo + i * step
    spec = parse_scenario("snr_grid_db = 0:0.3:0.1\nk = 3\nt = 50\nn = 16\n")
    assert spec.snr_grid_db == tuple(0.0 + i * 0.1 for i in range(4))


def test_parse_comments_and_blank_lines():
    text = "# header comment\n\nn = 16\nk = 3   # trailing comment\nt = 50\n"
    spec = parse_scenario(text)
    assert (spec.n, spec.k, spec.t) == (16, 3, 50)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("nonsense line\n", "key = value"),
        ("n = 16\nunknown_key = 3\n", "unknown key"),
        ("n = 16\nn = 17\n", "duplicate"),
        ("n = not_an_int\n", "cannot parse"),
        ("snr_grid_db = 0:10:0\n", "step"),
        ("snr_grid_db = 0:11:3\n", "does not divide"),
        ("snr_grid_db = 1:2:3:4\n", "lo:hi:step"),
        ("snr_grid_db = 0,x\n", "cannot parse"),
        ("snr_grid_db = a:10:5\n", "cannot parse"),
        ("snr_training_db = x\n", "cannot parse"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(text)
    assert fragment in str(exc.value)


@settings(max_examples=20, deadline=None)
@given(
    kappa_max=st.floats(0.0, 16.0),
    corr_rho=st.floats(0.0, 0.9),
    seed=st.integers(0, 100),
)
def test_serialize_parse_identity_property(kappa_max, corr_rho, seed):
    spec = small_spec(kappa_max=kappa_max, corr_rho=corr_rho, seed=seed)
    assert parse_scenario(serialize_scenario(spec)) == spec
