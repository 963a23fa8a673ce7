import importlib
import json
import pkgutil

import numpy as np
import pytest
import scipy.linalg

import rician_mimo
from rician_mimo import cli
from rician_mimo.presets import preset_specs, run_preset
from rician_mimo.results import FIELD_NAMES, parse_csv
from rician_mimo.scenarios import serialize_scenario

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


def test_exit_config_error_bad_scheme(scenario_file, capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", scenario_file, "--schemes", "zf"
    )
    assert code == 1


def test_exit_io_missing_scenario(capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "/nonexistent/file.cfg")
    assert code == 3
    assert "i/o error" in err


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
    ],
    ids=["format", "figure", "workers"],
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


# ---------------------------------------------------------------------------
# one BLAS library: every dense factorization is a numpy call


def test_no_scipy_linalg_in_compute_path(scenario_file, tmp_path, capsys, monkeypatch):
    # numpy and scipy each load their own OpenBLAS with its own thread pool;
    # hopping between them per call makes the two pools fight over the cores.
    # toeplitz is construction only and keeps scipy.linalg imported.
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


def test_one_eigendecomposition_per_correlation_matrix(scenario_file, tmp_path, capsys, monkeypatch):
    # the PSD check, R^{1/2}, the tau* eigenvalues and the single-cell
    # estimator all read the eigenpair each profile takes of its theta
    calls = {"eigh": 0, "eigvalsh": 0}
    dtypes = set()
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            dtypes.add(np.asarray(a).dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    optimal = tmp_path / "optimal.cfg"
    optimal.write_text(SCENARIO_TEXT + "tau_mode = optimal\n")
    code, out, _ = run_cli(capsys, "asymptotic", "--scenario", str(optimal))
    assert code == 0 and parse_csv(out)
    # exponential: one theta shared by every link of the scenario
    assert calls == {"eigh": 1, "eigvalsh": 0}
    # every decomposition runs on a real image, none on a complex matrix
    assert dtypes == {np.dtype(np.float64)}

    calls.update(eigh=0, eigvalsh=0)
    one_ring = tmp_path / "one_ring.cfg"
    one_ring.write_text(SCENARIO_TEXT.replace("exponential", "one_ring"))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(one_ring), "--trials", "2")
    assert code == 0 and parse_csv(out)
    # one per link (k = 3), plus one regularizer per (tau*rho_tr key, BS):
    # two SNR points give two keys
    assert calls == {"eigh": 3 + 2, "eigvalsh": 0}
    assert dtypes == {np.dtype(np.float64)}


def test_three_cell_estimators_take_one_eigh_per_same_pilot_sum(tmp_path, capsys, monkeypatch):
    # one eigh per same-pilot sum serves every training key and both the
    # Monte Carlo and the DE callers; no N x N inverse remains
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
    scenario = tmp_path / "three_ring.cfg"
    scenario.write_text(
        SCENARIO_TEXT.replace("n = 16", f"n = {n}").replace("k = 3", f"k = {k}")
        .replace("exponential", "one_ring")
        + "layout = three_cell_edge\nl = 3\nplacement = cell_edge\n"
    )
    links, sums = cells * cells * k, cells * k
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--trials", "2")
    assert code == 0 and parse_csv(out)
    # plus one regularizer per (tau*rho_tr key, BS): two SNR points give two keys;
    # the only inverse is the statistical K x K LoS resolvent, per (SNR point, BS)
    assert calls == {"eigh": links + sums + points * cells, "inv": [(k, k)] * (points * cells)}
    # links, same-pilot sums and regularizers are all real images
    assert dtypes == {np.dtype(np.float64)}

    calls.update(eigh=0, inv=[])
    code, out, _ = run_cli(capsys, "asymptotic", "--scenario", str(scenario))
    assert code == 0 and parse_csv(out)
    # the plain DE of one-ring scenarios inverts only its K x K Q matrix and
    # the statistical DE its K x K LoS resolvent, each once per (SNR point, BS)
    assert calls == {"eigh": links + sums, "inv": [(k, k)] * (2 * points * cells)}
    assert dtypes == {np.dtype(np.float64)}
