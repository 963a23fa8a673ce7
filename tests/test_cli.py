import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from text_io import parse_csv, serialize_scenario

import rician_mimo
from rician_mimo import channel, cli, estimation, scenarios, spectral_efficiency, sweeps, training
from rician_mimo.presets import preset_specs, run_preset
from rician_mimo.results import FIELD_NAMES

SCENARIO_TEXT = """\
# small test scenario
n = 16
k = 3
t = 50
trials = 6
seed = 4
correlation = exponential
snr_grid_db = 0,10
scenario_id = cli-test
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_simulate_stdout_csv(scenario_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", scenario_file)
    assert code == 0
    rows = parse_csv(out)
    assert {r.scheme for r in rows} == {"conv_single", "stat_single"}
    assert all(r.scenario_id == "cli-test" for r in rows)


def test_asymptotic_has_no_stderr_column_values(scenario_file, capsys):
    code, out, _ = run_cli(capsys, "asymptotic", "--scenario", scenario_file)
    assert code == 0
    rows = parse_csv(out)
    assert all(r.se_stderr is None for r in rows)


def test_simulate_one_trial_leaves_stderr_empty(scenario_file, capsys):
    # one draw gives no spread: the stderr cell stays empty, not 0.0, which
    # would claim a converged estimate
    code, out, _ = run_cli(capsys, "simulate", "--scenario", scenario_file, "--trials", "1")
    assert code == 0
    rows = [r for r in parse_csv(out) if r.scheme == "conv_single"]
    assert rows and all(r.se_value > 0 and r.se_stderr is None for r in rows)


def test_simulate_writes_output_file(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "res" / "rows.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", scenario_file, "--out", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == ",".join(FIELD_NAMES)


def test_json_format(scenario_file, capsys):
    code, out, _ = run_cli(
        capsys, "asymptotic", "--scenario", scenario_file, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and data


def test_optimize_tau(scenario_file, capsys):
    code, out, _ = run_cli(capsys, "optimize-tau", "--scenario", scenario_file)
    assert code == 0
    rows = parse_csv(out)
    assert all(r.scheme == "tau_star" for r in rows)
    assert all(3 <= r.tau_used < 50 for r in rows)


def test_optimize_tau_rows_match_fig1b_preset(tmp_path, capsys):
    # one row builder serves both commands: the first fig1b scenario written
    # to a file gives optimize-tau exactly the preset's rows
    spec = preset_specs("fig1b")[0]
    path = tmp_path / "fig1b.cfg"
    path.write_text(serialize_scenario(spec))
    code, out, _ = run_cli(capsys, "optimize-tau", "--scenario", str(path))
    assert code == 0
    preset_rows, _ = run_preset("fig1b")
    expected = [r for r in preset_rows if r.scenario_id == spec.scenario_id]
    assert len(expected) == len(spec.snr_grid_db)
    assert parse_csv(out) == expected
    assert all(r.se_de is not None for r in expected)


def test_sweep_axis_values(scenario_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--scenario",
        scenario_file,
        "--axis",
        "kappa_max",
        "--values",
        "0.5,2.0",
        "--mode",
        "de",
        "--schemes",
        "stat",
    )
    assert code == 0
    rows = parse_csv(out)
    assert {r.scenario_id for r in rows} == {
        "cli-test-kappa_max=0.5",
        "cli-test-kappa_max=2",
    }


@pytest.mark.parametrize(
    ("axis", "values"),
    [("tau", "4,inf"), ("n_antennas", "8,nan"), ("tau", "2.7")],
)
def test_sweep_rejects_non_integer_axis_values(scenario_file, capsys, axis, values):
    # an integer axis takes finite integers only: inf and nan are not
    # silently truncated or left to fail later, and 2.7 does not run as 2
    code, out, err = run_cli(
        capsys, "sweep", "--scenario", scenario_file, "--axis", axis, "--values", values,
        "--mode", "de",
    )
    assert code == 1
    assert out == ""
    assert "finite integers" in err


@pytest.mark.parametrize(
    ("axis", "values", "fragment"),
    [
        ("snr", "5,7,9", "--snr"),
        ("kappa_max", "1,1", "distinct scenario ids"),
        ("kappa_max", "1,1.0", "distinct scenario ids"),
        ("kappa_max", "1.0000001,1.0000002", "distinct scenario ids"),
    ],
    ids=["snr-values", "repeated", "repeated-as-float", "same-id"],
)
def test_sweep_rejects_ignored_or_colliding_axis_values(scenario_file, capsys, axis, values, fragment):
    # the snr axis reads its points from --snr, so --values there would be
    # dropped; values that format to one scenario id would emit two row sets
    # that no column tells apart
    code, out, err = run_cli(
        capsys, "sweep", "--scenario", scenario_file, "--axis", axis, "--values", values,
        "--mode", "de",
    )
    assert code == 1
    assert out == ""
    assert fragment in err


def test_overrides_snr_seed_trials_bits(scenario_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        scenario_file,
        "--snr",
        "0:10:10",
        "--seed",
        "8",
        "--trials",
        "3",
        "--bits",
        "--schemes",
        "conv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert {r.snr_db for r in rows} == {0.0, 10.0}
    assert all(r.seed == 8 for r in rows)


def test_cli_deterministic_across_worker_counts(scenario_file, capsys):
    _, out1, _ = run_cli(
        capsys, "simulate", "--scenario", scenario_file, "--workers", "1"
    )
    _, out2, _ = run_cli(
        capsys, "simulate", "--scenario", scenario_file, "--workers", "4"
    )
    assert out1 == out2


# ---------------------------------------------------------------------------
# exit codes


def test_exit_config_error_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("layout = hexagonal\n")
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(bad))
    assert code == 1
    assert "configuration error" in err


def test_exit_config_error_bad_snr(scenario_file, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--scenario", scenario_file, "--snr", "10:0:5"
    )
    assert code == 1
    assert "configuration error" in err


def test_exit_config_error_snr_range_past_its_upper_end(scenario_file, capsys):
    # 3 dB steps from 0 do not land on 11 dB: the range is refused, not run to 12 dB
    code, out, err = run_cli(
        capsys, "simulate", "--scenario", scenario_file, "--snr", "0:11:3"
    )
    assert code == 1
    assert out == ""
    assert "does not divide" in err


def test_exit_config_error_bad_scheme(scenario_file, capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", scenario_file, "--schemes", "zf"
    )
    assert code == 1


def test_reproduce_rows_to_stdout_and_summary_to_stderr(capsys):
    code, out, err = run_cli(capsys, "reproduce", "--figure", "fig1b")
    assert code == 0
    rows = parse_csv(out)
    assert rows and all(r.scheme == "tau_star" for r in rows)
    assert len(json.loads(err)["tau_star_by_snr"]) == 4


def test_reproduce_with_out_writes_summary_to_stdout(tmp_path, capsys):
    path = tmp_path / "fig1b.csv"
    code, out, err = run_cli(capsys, "reproduce", "--figure", "fig1b", "--out", str(path))
    assert code == 0
    assert err == ""
    assert len(json.loads(out)["tau_star_by_snr"]) == 4
    assert parse_csv(path.read_text())


def test_reproduce_exit_io_unwritable_output(tmp_path, capsys):
    code, out, err = run_cli(capsys, "reproduce", "--figure", "fig1b", "--out", str(tmp_path))
    assert code == 3
    assert out == ""
    assert "i/o error" in err


def test_exit_io_missing_scenario(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "/nonexistent/file.cfg")
    assert code == 3
    assert "i/o error" in err


def test_exit_config_error_scenario_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"n = 8\nk = 2\nt = 50\ntrials = 2\n\xff\xfe = 1\n")
    code, out, err = run_cli(capsys, "asymptotic", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("configuration error:") and str(path) in err


def test_exit_io_unwritable_output(scenario_file, tmp_path, capsys):
    target = tmp_path  # a directory is not a writable file
    code, _, err = run_cli(
        capsys, "asymptotic", "--scenario", scenario_file, "--out", str(target)
    )
    assert code == 3
    assert "i/o error" in err


def test_exit_numerical_failure(scenario_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(cli, "run_sweep", boom)
    code, _, err = run_cli(capsys, "simulate", "--scenario", scenario_file)
    assert code == 2
    assert "numerical failure" in err


def test_exit_numerical_failure_on_non_finite_single_cell_estimate(scenario_file, capsys, monkeypatch):
    # a NaN LoS direction makes every estimate NaN; the single-cell SINR,
    # read off the K x K gram without a combiner, refuses it as the
    # combiner's finiteness check did instead of writing NaN rows
    monkeypatch.setattr(scenarios, "los_steering", lambda theta, n: np.full(n, np.nan + 0j))
    code, out, err = run_cli(capsys, "simulate", "--scenario", scenario_file, "--schemes", "conv")
    assert code == 2
    assert out == ""
    assert "numerical failure: conventional SINR is not finite" in err


LOW_SNR_SCENARIO = "correlation = one_ring\nn = 16\nk = 3\nt = 50\nseed = 4\n"


# each case makes a NaN or inf on purpose, which the package refuses; the
# numpy warning on the way there is expected, not an error of the test
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotic", "--schemes", "conv", "--snr=-2000:-2000:1"],
        ["optimize-tau", "--snr=-3200:-3200:1"],
    ],
    ids=["conv-de-nan", "tau-star-inf"],
)
def test_exit_numerical_failure_on_non_finite_or_negative_row(tmp_path, capsys, argv):
    # at extreme low SNR the equivalents break down; a NaN, infinite or
    # negative SE is refused when its row is built, never written
    path = tmp_path / "low.cfg"
    path.write_text(LOW_SNR_SCENARIO)
    code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert "numerical failure" in err


NEGATIVE_DE_SCENARIO = """\
n = 2
k = 3
t = 50
correlation = exponential
corr_rho = 0.9
kappa_max = 0
seed = 1
trials = 20
snr_grid_db = 0
"""


@pytest.mark.parametrize("mode", ["de", "both"])
def test_exit_numerical_failure_on_negative_conventional_de(tmp_path, capsys, mode):
    # with two antennas for three users the conventional DE SINR is
    # negative: refused before its log, whether the DE fills the se_value
    # or the se_de column
    path = tmp_path / "negative.cfg"
    path.write_text(NEGATIVE_DE_SCENARIO)
    out_path = tmp_path / "rows.csv"
    argv = ["sweep", "--scenario", str(path), "--schemes", "conv", "--mode", mode]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert "numerical failure: conventional DE SINR is negative or NaN" in err


def test_seed_reseeds_the_user_drop_outside_reproduce(scenario_file, capsys):
    # outside `reproduce`, --seed is the scenario seed: the drop moves with
    # it, so even the exact statistical SE changes
    rows = []
    for seed in ("5", "6"):
        code, out, _ = run_cli(capsys, "asymptotic", "--scenario", scenario_file, "--schemes", "stat", "--seed", seed)
        assert code == 0
        rows.append(parse_csv(out))
    assert [r.seed for r in rows[0]] == [5] * len(rows[0])
    assert all(a.se_value != b.se_value for a, b in zip(*rows))


THREE_CELLS = "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"


@pytest.mark.parametrize(
    "correlation, extra",
    [("one_ring", ""), ("one_ring", THREE_CELLS), ("exponential", ""), ("exponential", THREE_CELLS)],
    ids=["one-cell", "three-cell", "exponential-one-cell", "exponential-three-cell"],
)
def test_conv_de_scales_with_snr_at_extreme_low_snr(tmp_path, capsys, correlation, extra):
    # Q (G + I/rho_d) = I gives the signal term without cancellation in both
    # DE modes (plain on one_ring, refined on exponential), so the SE keeps
    # falling with rho_d instead of reading 0 or ~63 nats
    path = tmp_path / "low.cfg"
    path.write_text(LOW_SNR_SCENARIO.replace("one_ring", correlation) + extra)
    se = {}
    for snr in (-300, -600):
        argv = ["asymptotic", "--schemes", "conv", f"--snr={snr}:{snr}:1", "--scenario", str(path)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        se[snr] = np.array([row.se_value for row in parse_csv(out)])
    np.testing.assert_allclose(se[-600] / se[-300], 1e-30, rtol=1e-9)


def test_tau_star_at_extreme_low_snr_is_a_tiny_nonnegative_se(tmp_path, capsys):
    # gamma_k = rho_d [QG]_kk / [Q]_kk has no cancellation: at -600 dB the
    # average SE is about 4e-61, where rho_d/[Q]_kk - 1 gave -2.2e-18
    path = tmp_path / "low.cfg"
    path.write_text(LOW_SNR_SCENARIO)
    code, out, _ = run_cli(capsys, "optimize-tau", "--snr=-600:-600:1", "--scenario", str(path))
    assert code == 0
    (row,) = parse_csv(out)
    assert 0.0 <= row.se_value < 1e-59


@pytest.mark.parametrize(
    "fields, argv",
    [
        ({}, ["--seed", "-1"]),
        ({"seed": "-1"}, []),
        ({"radius_m": "0"}, []),
        ({"radius_m": "0.5"}, []),
        ({"radius_m": "1e-9"}, []),
        ({"alpha": "-2.5"}, []),
        ({"corr_rho": "1.0"}, []),
        ({"radius_m": "nan"}, []),
        ({"alpha": "inf"}, []),
        ({"kappa_max": "nan"}, []),
        ({"kappa_max": "inf"}, []),
        ({"corr_rho": "nan"}, []),
        ({"snr_training_db": "inf"}, []),
        ({"snr_grid_db": "0,inf"}, []),
        ({}, ["--snr", "0:inf:5"]),
        ({"snr_grid_db": "4000"}, []),
        ({}, ["--snr", "4000:4000:1"]),
        # the cell-edge gain R^-alpha or R^2 overflows or underflows to 0
        ({"alpha": "1000"}, []),
        ({"radius_m": "1e-320", "placement": "cell_edge"}, []),
        ({"radius_m": "1e300"}, []),
        # a finite edge gain, but the other cells' users' gains underflow to 0
        ({"alpha": "140", "layout": "three_cell_edge", "l": "3"}, []),
        ({}, ["--schemes", ","]),
        ({"n": "0"}, []),
    ],
    ids=[
        "seed-flag", "seed-file", "radius", "radius-under-1m", "radius-tiny", "alpha",
        "exponential-rho", "radius-nan", "alpha-inf", "kappa-nan", "kappa-inf", "rho-nan", "training-snr-inf", "snr-grid-inf", "snr-range-inf",
        "snr-grid-overflow", "snr-range-overflow", "edge-gain-underflow", "edge-gain-overflow",
        "radius-squared-overflow", "inter-cell-gain-underflow", "no-scheme", "no-antenna",
    ],
)
def test_exit_config_error_out_of_range_value(tmp_path, capsys, fields, argv):
    # values the channel model cannot use are configuration errors, not
    # numerical failures
    values = {"seed": "4", **fields}
    lines = [
        line for line in SCENARIO_TEXT.splitlines() if line.partition("=")[0].strip() not in values
    ]
    lines += [f"{key} = {value}" for key, value in values.items()]
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "asymptotic", "--scenario", str(bad), *argv)
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize(
    "override",
    [["--seed", "-1"], ["--trials", "0"], ["--trials", "5"]],
    # fig1b solves tau* and runs no Monte Carlo: any trial count goes unread
    ids=["seed", "trials", "trials-unread"],
)
def test_exit_config_error_bad_preset_override(capsys, override):
    code, _, err = run_cli(capsys, "reproduce", "--figure", "fig1b", *override)
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--snr", "a:10:5"],
        ["sweep", "--axis", "kappa_max", "--values", "1,x"],
    ],
    ids=["snr-range", "sweep-values"],
)
def test_exit_config_error_malformed_number(scenario_file, capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--scenario", scenario_file)
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize("scenario_id", ["a,b", 'say "hi"'], ids=["comma", "quote"])
def test_exit_config_error_scenario_id_that_breaks_csv(tmp_path, capsys, scenario_id):
    # a comma would add a CSV cell to every row and a quote would open a
    # quoted one: the id is refused before anything runs or is written
    bad = tmp_path / "bad.cfg"
    bad.write_text(SCENARIO_TEXT.replace("scenario_id = cli-test", f"scenario_id = {scenario_id}"))
    out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(bad), "--out", str(out))
    assert code == 1
    assert "configuration error" in err and "scenario_id" in err
    assert not out.exists()


def test_exit_config_error_malformed_snr_list(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SCENARIO_TEXT.replace("snr_grid_db = 0,10", "snr_grid_db = 0,x"))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(bad))
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--format", "xml"],
        ["reproduce", "--figure", "fig9"],
        ["simulate", "--workers", "abc"],
        # a preset fixes its own scenarios, SNR grids, log base and schemes
        ["reproduce", "--figure", "fig1b", "--scenario", "missing.ini"],
        ["reproduce", "--figure", "fig1b", "--snr", "0:10:5"],
        ["reproduce", "--figure", "fig1b", "--bits"],
        ["reproduce", "--figure", "fig1b", "--schemes", "conv"],
        # flags a subcommand would never read
        ["optimize-tau", "--schemes", "conv"],
        ["asymptotic", "--trials", "3"],
        ["optimize-tau", "--trials", "3"],
    ],
    ids=[
        "format", "figure", "workers",
        "reproduce-scenario", "reproduce-snr", "reproduce-bits", "reproduce-schemes",
        "optimize-tau-schemes", "asymptotic-trials", "optimize-tau-trials",
    ],
)
def test_usage_errors_exit_config(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["render"])
    assert exc.value.code == 1


def test_three_cell_simulate_never_leaves_the_real_basis(tmp_path, capsys, monkeypatch):
    # the Monte Carlo and the statistical SE read every covariance as its
    # real image: no antenna-basis theta, R or R^{1/2} is formed (the DE is
    # guarded by test_asymptotic_never_maps_back_to_the_antenna_basis)
    def antenna_basis_matrix(self):
        raise AssertionError("antenna-basis correlation matrix formed")

    for name in ("theta", "r_cov", "sqrt_r"):
        monkeypatch.setattr(channel.UserLinkProfile, name, property(antenna_basis_matrix))
    scenario = tmp_path / "three_ring.cfg"
    scenario.write_text(
        SCENARIO_TEXT.replace("n = 16", "n = 8").replace("exponential", "one_ring")
        + "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    )
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "2")
    assert code == 0, err
    assert {r.scheme for r in parse_csv(out)} == {"conv_multi", "stat_multi"}


@pytest.mark.parametrize("correlation", ["exponential", "one_ring"])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_simulate_forms_no_sqrt_r_image(tmp_path, capsys, monkeypatch, layout, correlation):
    # the Monte Carlo draws each link's channel from its own eigenpair;
    # `UserLinkProfile.sqrt_r_image` stays a tested accessor only
    def forbidden(self):
        raise AssertionError("the Monte Carlo formed an R^{1/2} image")

    monkeypatch.setattr(channel.UserLinkProfile, "sqrt_r_image", property(forbidden))
    text = SCENARIO_TEXT.replace("n = 16", "n = 8").replace("exponential", correlation)
    if layout == "three_cell_edge":
        text += "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "2")
    assert code == 0, err
    assert parse_csv(out)


# ---------------------------------------------------------------------------
# one BLAS library: every dense factorization is a numpy call


def test_no_scipy_linalg_in_compute_path(scenario_file, tmp_path, capsys, monkeypatch):
    # numpy and scipy each load their own OpenBLAS with its own thread pool;
    # hopping between them per call makes the two pools fight over the cores.
    # The package registers scipy.linalg lazily, for the benchmark tracer,
    # and binds it to no name: reading any attribute of it would load it.
    for info in pkgutil.iter_modules(rician_mimo.__path__):
        module = importlib.import_module(f"rician_mimo.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__name__", "").startswith("scipy.linalg"):
                pytest.fail(f"rician_mimo.{info.name}.{name} binds a scipy.linalg module")
            if callable(obj) and (getattr(obj, "__module__", None) or "").startswith("scipy.linalg"):
                assert obj is scipy.linalg.toeplitz, f"rician_mimo.{info.name}.{name}"

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg factorization called")

    for name in ("cho_factor", "cho_solve", "solve", "inv"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    three_cell = tmp_path / "three.cfg"
    three_cell.write_text(
        SCENARIO_TEXT.replace("n = 16", "n = 8").replace("trials = 6", "trials = 2")
        + "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    )
    for argv in (
        ["simulate", "--scenario", scenario_file, "--trials", "2"],
        ["simulate", "--scenario", str(three_cell)],
        ["asymptotic", "--scenario", scenario_file],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert parse_csv(out)


def count_combiner_calls(monkeypatch) -> list:
    """Patch the Monte Carlo's conventional combiner to log one entry per call."""
    calls = []
    original = spectral_efficiency.conventional_combiner

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_efficiency, "conventional_combiner", counted)
    return calls


def test_one_eigendecomposition_per_correlation_matrix(scenario_file, tmp_path, capsys, monkeypatch):
    # the PSD check, R^{1/2}, the tau* eigenvalues and the single-cell
    # estimator all read the eigenpair each profile takes of its theta
    combiner_calls = count_combiner_calls(monkeypatch)
    calls = {"eigh": 0, "eigvalsh": 0}
    dtypes = set()
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            dtypes.add(np.asarray(a).dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    inverses = []
    original_inv = np.linalg.inv

    def inv(a, *args, **kwargs):
        inverses.append(np.shape(a))
        return original_inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", inv)
    optimal = tmp_path / "optimal.cfg"
    optimal.write_text(SCENARIO_TEXT + "tau_mode = optimal\n")
    code, out, _ = run_cli(capsys, "asymptotic", "--scenario", str(optimal))
    assert code == 0 and parse_csv(out)
    # exponential: one theta shared by every link of the scenario
    assert calls == {"eigh": 1, "eigvalsh": 0}
    # every decomposition runs on a real image, none on a complex matrix
    assert dtypes == {np.dtype(np.float64)}
    # the refined DE is diagonal on theta's eigenbasis: no N x N inverse
    assert inverses and (16, 16) not in inverses

    calls.update(eigh=0, eigvalsh=0)
    inverses.clear()
    one_ring = tmp_path / "one_ring.cfg"
    one_ring.write_text(SCENARIO_TEXT.replace("exponential", "one_ring"))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(one_ring), "--trials", "2")
    assert code == 0 and parse_csv(out)
    # one per link (k = 3), and one of the local sum the statistical
    # receiver works in; the regularizer is one N x N inverse per
    # (SNR point, BS), and the rest are batched K x K resolvents
    assert calls == {"eigh": 4, "eigvalsh": 0}
    assert dtypes == {np.dtype(np.float64)}
    assert sum(shape == (16, 16) for shape in inverses) == 2
    # a single cell reads its SINR off the K x K gram: no combiner is formed
    assert combiner_calls == []

    # three cells: every same-pilot group holds theta's eigenvectors, so its
    # spectrum takes no eigh of the sum, for the Monte Carlo and the DE alike
    three_cell = tmp_path / "three.cfg"
    three_cell.write_text(
        SCENARIO_TEXT.replace("n = 16", "n = 8")
        + "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    )
    for argv in (["simulate", "--trials", "2"], ["asymptotic"]):
        calls.update(eigh=0, eigvalsh=0)
        inverses.clear()
        code, out, _ = run_cli(capsys, *argv, "--scenario", str(three_cell))
        assert code == 0 and parse_csv(out)
        assert calls == {"eigh": 1, "eigvalsh": 0}, argv
    # nor does the three-cell DE invert an N x N matrix
    assert inverses and (8, 8) not in inverses


def test_three_cell_estimators_take_one_eigh_per_same_pilot_sum(tmp_path, capsys, monkeypatch):
    # one eigh per same-pilot sum serves every training key and both the
    # Monte Carlo and the DE callers, and one per local sum the statistical
    # receiver; the only N x N inverse is the Monte Carlo's regularizer M,
    # one per (SNR point, BS)
    n, k, cells, points = 8, 2, 3, 2
    calls = {"eigh": 0, "inv": []}
    dtypes = set()
    original_eigh, original_inv = np.linalg.eigh, np.linalg.inv

    def eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        dtypes.add(np.asarray(a).dtype)
        return original_eigh(a, *args, **kwargs)

    def inv(a, *args, **kwargs):
        calls["inv"].append(np.shape(a))
        return original_inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "inv", inv)
    combiner_calls = count_combiner_calls(monkeypatch)
    scenario = tmp_path / "three_ring.cfg"
    scenario.write_text(
        SCENARIO_TEXT.replace("n = 16", f"n = {n}").replace("k = 3", f"k = {k}")
        .replace("exponential", "one_ring")
        + "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    )
    links, sums = cells * cells * k, cells * k + cells
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "2")
    assert code == 0 and parse_csv(out)
    # the inverses are one N x N regularizer M per (SNR point, BS), then the
    # statistical K x K LoS resolvent, one stack of the grid per BS
    assert calls == {"eigh": links + sums, "inv": [(n, n)] * (points * cells) + [(points, k, k)] * cells}
    # links, same-pilot sums and regularizers are all real images
    assert dtypes == {np.dtype(np.float64)}
    # B != A with several cells: one combiner per (trial, SNR point, BS)
    assert len(combiner_calls) == 2 * points * cells

    calls.update(eigh=0, inv=[])
    code, out, _ = run_cli(capsys, "asymptotic", "--scenario", str(scenario))
    assert code == 0 and parse_csv(out)
    # the plain DE of one-ring scenarios inverts only its K x K Q matrix, once
    # per (SNR point, BS), and the statistical DE its K x K LoS resolvent,
    # one stack of the grid per BS
    assert calls == {"eigh": links + sums, "inv": [(k, k)] * (points * cells) + [(points, k, k)] * cells}
    assert dtypes == {np.dtype(np.float64)}


def test_covariance_images_built_only_when_read(tmp_path, capsys, monkeypatch):
    # a shared theta makes the statistical receiver diagonal in theta's
    # eigenbasis, so a DE command reads no covariance image and solves no
    # N x N system; a one-ring BS builds its local image once for all SNR
    # points, and a single cell never builds its all-zero inter-cell image
    builds = []
    for name in ("local", "inter"):
        original = getattr(estimation.BSStatistics, name).func

        def counted(self, _name=name, _original=original):
            builds.append((_name, self.j))
            return _original(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(estimation.BSStatistics, name)
        monkeypatch.setattr(estimation.BSStatistics, name, prop)
    events = []
    original_image, original_build = channel.toeplitz_image, sweeps.build_scenario

    def toeplitz_image(first_row):
        events.append("image")
        return original_image(first_row)

    def build_scenario(spec):
        scenario = original_build(spec)
        events.append("built")
        return scenario

    monkeypatch.setattr(channel, "toeplitz_image", toeplitz_image)
    monkeypatch.setattr(sweeps, "build_scenario", build_scenario)
    solves = []
    original_solve = np.linalg.solve

    def solve(a, *args, **kwargs):
        solves.append(np.shape(a))
        return original_solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    optimal = tmp_path / "optimal.cfg"
    optimal.write_text(SCENARIO_TEXT + "tau_mode = optimal\n")
    code, out, _ = run_cli(capsys, "asymptotic", "--scenario", str(optimal))
    assert code == 0 and parse_csv(out)
    assert events.count("built") == 1
    assert "image" not in events[events.index("built") :]
    assert not any(shape[-2:] == (16, 16) for shape in solves)
    assert builds == []

    one_ring = SCENARIO_TEXT.replace("n = 16", "n = 8").replace("exponential", "one_ring")
    three_cell = one_ring + "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    for text, expected in (
        (one_ring, [("local", 0)]),
        (three_cell, [(name, j) for name in ("inter", "local") for j in range(3)]),
    ):
        builds.clear()
        scenario = tmp_path / "one_ring.cfg"
        scenario.write_text(text)
        code, out, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "2")
        assert code == 0 and parse_csv(out)
        assert sorted(builds) == expected


def test_optimal_tau_solves_the_whole_grid_once(tmp_path, capsys, monkeypatch):
    # tau* takes the scenario's SNR grid in one call, which forms the links'
    # SNR-independent operands (one TrainingCurve) once for every point
    calls, curves = [], []
    original_solve, original_init = training.solve_tau_star, training.TrainingCurve.__init__

    def solve_tau_star(profiles, configs):
        calls.append(configs)
        return original_solve(profiles, configs)

    def init(self, *args):
        curves.append(self)
        original_init(self, *args)

    for info in pkgutil.iter_modules(rician_mimo.__path__):
        module = importlib.import_module(f"rician_mimo.{info.name}")
        for name, obj in list(vars(module).items()):
            if obj is original_solve:
                monkeypatch.setattr(module, name, solve_tau_star)
    monkeypatch.setattr(training.TrainingCurve, "__init__", init)
    optimal = tmp_path / "optimal.cfg"
    optimal.write_text(SCENARIO_TEXT.replace("0,10", "-10,0,10") + "tau_mode = optimal\n")
    code, out, _ = run_cli(capsys, "asymptotic", "--scenario", str(optimal))
    assert code == 0 and len(parse_csv(out)) == 3 * 2 * 3  # points x schemes x users
    assert len(calls) == 1 and len(calls[0]) == 3
    assert len(curves) == 1


# ---------------------------------------------------------------------------
# one basis: the deterministic equivalents never leave the real basis


@pytest.mark.parametrize("correlation", ["exponential", "one_ring"])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_asymptotic_never_maps_back_to_the_antenna_basis(
    tmp_path, capsys, monkeypatch, layout, correlation
):
    text = SCENARIO_TEXT.replace("n = 16", "n = 8").replace("exponential", correlation)
    if layout == "three_cell_edge":
        text += "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(text)
    plain, guarded = tmp_path / "plain.csv", tmp_path / "guarded.csv"
    assert cli.main(["asymptotic", "--scenario", str(scenario), "--out", str(plain)]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("antenna_image called by the deterministic equivalents")

    original = channel.antenna_image
    for info in pkgutil.iter_modules(rician_mimo.__path__):
        module = importlib.import_module(f"rician_mimo.{info.name}")
        for name, obj in list(vars(module).items()):
            if obj is original:
                monkeypatch.setattr(module, name, forbidden)
    assert cli.main(["asymptotic", "--scenario", str(scenario), "--out", str(guarded)]) == 0
    assert guarded.read_bytes() == plain.read_bytes()


# ---------------------------------------------------------------------------
# per-command fixed cost: no eigensolve on the import path


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(rician_mimo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_package_root_imports_no_submodule():
    # the root exports only __version__, and each module is imported by name,
    # so a script that reads one module pays for no other; scipy.linalg is
    # still registered (lazily) for the benchmark tracer
    script = textwrap.dedent(
        """
        import sys
        import rician_mimo

        loaded = sorted(name for name in sys.modules if name.startswith("rician_mimo."))
        assert not loaded, loaded
        assert rician_mimo.__version__ == "0.1.0"
        assert "scipy.linalg" in sys.modules
        """
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_import_runs_no_eigensolve():
    # a quadrature rule built at import (leggauss is a dense eigensolve) is
    # paid by every command, including those that never build a one-ring
    # matrix; scipy.linalg must stay in sys.modules (registered lazily, its
    # body unrun) for the benchmark tracer
    script = textwrap.dedent(
        """
        import sys
        import numpy.linalg
        import numpy.polynomial.legendre

        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolve on the import path")

        numpy.linalg.eigvalsh = numpy.linalg.eigh = forbidden
        numpy.polynomial.legendre.leggauss = forbidden
        import rician_mimo.cli
        assert "scipy.linalg" in sys.modules
        """
    )
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_commands_import_no_module_and_leave_scipy_linalg_unloaded(tmp_path):
    # a module first imported by a command is paid in its wall time; the
    # lazily registered scipy.linalg is in sys.modules, but its body never runs
    one_ring = SCENARIO_TEXT.replace("exponential", "one_ring")
    single = tmp_path / "single.cfg"
    single.write_text(one_ring)
    three = tmp_path / "three.cfg"
    three.write_text(
        one_ring.replace("n = 16", "n = 8").replace("trials = 6", "trials = 2")
        + "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    )
    optimal = tmp_path / "optimal.cfg"
    optimal.write_text(one_ring + "tau_mode = optimal\n")
    commands = [
        ["simulate", "--scenario", str(single), "--out", str(tmp_path / "single.csv")],
        ["simulate", "--scenario", str(three), "--out", str(tmp_path / "three.csv")],
        ["asymptotic", "--scenario", str(optimal), "--out", str(tmp_path / "optimal.csv")],
    ]
    script = textwrap.dedent(
        """
        import json
        import sys
        import rician_mimo.cli

        assert "scipy.linalg" in sys.modules
        assert "scipy.linalg._basic" not in sys.modules
        for argv in json.loads(sys.argv[1]):
            before = set(sys.modules)
            assert rician_mimo.cli.main(argv) == 0, argv
            assert set(sys.modules) == before, (argv, sorted(set(sys.modules) - before))
        assert "scipy.linalg._basic" not in sys.modules
        """
    )
    proc = _run_python(script, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / name).stat().st_size for name in ("single.csv", "three.csv", "optimal.csv"))


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, the package
    # imports (no scipy.linalg to register) and a DE command writes its rows
    out = tmp_path / "de.csv"
    script = textwrap.dedent(
        """
        import sys

        sys.modules["scipy"] = None
        import rician_mimo.cli

        assert "scipy.linalg" not in sys.modules
        assert rician_mimo.cli.main(["asymptotic", "--snr", "0:10:10", "--out", sys.argv[1]]) == 0
        """
    )
    proc = _run_python(script, str(out))
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(out.read_text())
    assert {(r.scheme, r.snr_db) for r in rows} == {
        (scheme, snr) for scheme in ("conv_single", "stat_single") for snr in (0.0, 10.0)
    }


def test_quadrature_rule_built_only_for_one_ring(scenario_file, tmp_path, capsys):
    channel._clenshaw_curtis.cache_clear()
    assert cli.main(["asymptotic", "--scenario", scenario_file]) == 0
    assert channel._clenshaw_curtis.cache_info().misses == 0
    one_ring = tmp_path / "one_ring.cfg"
    one_ring.write_text(SCENARIO_TEXT.replace("exponential", "one_ring"))
    assert cli.main(["simulate", "--scenario", str(one_ring), "--trials", "2"]) == 0
    assert channel._clenshaw_curtis.cache_info().misses == 1
    capsys.readouterr()
