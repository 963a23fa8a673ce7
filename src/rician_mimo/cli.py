"""Command-line entry point for the simulation experiments.

Subcommands:
  simulate      Monte Carlo evaluation over the scenario's SNR grid
  asymptotic    deterministic equivalents only (no channel draws)
  optimize-tau  optimal training length per SNR point
  sweep         sweep one axis (snr, kappa_max, n_antennas, tau)
  reproduce     run a built-in figure preset and print its summary

Each subparser names its handler (`run`); simulate and asymptotic are the
SNR `sweep` in mode mc and de.

Exit codes: 0 success, 1 configuration error (usage errors included),
2 numerical failure, 3 I/O error.  Runs are serial and byte-deterministic;
`--workers N` is accepted for compatibility and ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config import ConfigError
from .presets import PRESET_IDS, run_preset, tau_star_rows
from .results import ResultRow, emit_results, render
from .scenarios import (
    ScenarioSpec,
    build_scenario,
    parse_float_list,
    parse_scenario,
    parse_snr_range,
)
from .sweeps import MODES, SWEEP_AXES, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _parse_schemes(text: str) -> tuple[str, ...]:
    schemes = tuple(s.strip() for s in text.split(",") if s.strip())
    for s in schemes:
        if s not in ("conv", "stat"):
            raise ConfigError(f"unknown scheme {s!r}; expected conv and/or stat")
    if not schemes:
        raise ConfigError("--schemes must name at least one scheme")
    return schemes


def _load_spec(args) -> ScenarioSpec:
    if args.scenario:
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                spec = parse_scenario(fh.read())
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"scenario file {args.scenario} is not UTF-8: {exc}") from exc
    else:
        spec = ScenarioSpec()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    # asymptotic and optimize-tau run no Monte Carlo and take no --trials
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if args.snr is not None:
        overrides["snr_grid_db"] = parse_snr_range(args.snr, "--snr")
    if args.bits:
        overrides["log_base"] = "base2"
    return dataclasses.replace(spec, **overrides) if overrides else spec


class _IOFailure(Exception):
    pass


def _emit(rows: list[ResultRow], args) -> None:
    if not rows:
        raise ConfigError("nothing to emit: empty result set")
    try:
        if args.out:
            emit_results(rows, args.format, args.out)
        else:
            sys.stdout.write(render(rows, args.format))
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


SEED_HELP = "override the scenario seed: the user drop and the Monte Carlo draws"
REPRODUCE_SEED_HELP = "override the Monte Carlo seed and the seed column; a preset keeps its user drop"


def _add_common(parser: argparse.ArgumentParser, seed_help: str) -> None:
    """The flags every subcommand reads."""
    parser.add_argument("--seed", type=int, help=seed_help)
    parser.add_argument("--out", help="output path (stdout if omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--workers", type=int, help="ignored; accepted for compatibility (runs are serial)"
    )


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    """The flags of the subcommands that run a scenario file; a preset
    fixes its own scenarios, SNR grids and log base."""
    parser.add_argument("--scenario", help="scenario config file (key = value lines)")
    parser.add_argument("--snr", help="override the SNR grid as lo:hi:step in dB")
    parser.add_argument("--bits", action="store_true", help="report SE in bits (log2)")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors with the configuration-error exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="rician-mimo",
        description="Uplink SE experiments for correlated Rician massive MIMO",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, run in (
        ("simulate", "Monte Carlo SE over the scenario SNR grid", _cmd_sweep),
        ("asymptotic", "deterministic-equivalent SE only", _cmd_sweep),
        ("optimize-tau", "optimal training length per SNR point", _cmd_optimize_tau),
        ("sweep", "sweep one axis", _cmd_sweep),
        ("reproduce", "run a built-in figure preset", _cmd_reproduce),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(run=run)
        _add_common(p, REPRODUCE_SEED_HELP if name == "reproduce" else SEED_HELP)
        if name in ("simulate", "sweep", "reproduce"):
            p.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
        if name == "reproduce":
            p.add_argument("--figure", choices=PRESET_IDS, required=True)
            continue
        _add_scenario(p)
        if name != "optimize-tau":
            # optimize-tau rows are tau* per SNR point, not per scheme
            p.add_argument("--schemes", default="conv,stat", help="comma list: conv,stat")
        if name in ("simulate", "asymptotic"):
            # the SNR sweep of the scenario grid, by Monte Carlo or by the DEs alone
            p.set_defaults(axis="snr", values=None, mode="mc" if name == "simulate" else "de")
        if name == "sweep":
            p.add_argument("--axis", choices=SWEEP_AXES, default="snr")
            p.add_argument("--values", help="comma list of axis values (non-snr axes)")
            p.add_argument("--mode", choices=MODES, default="both")
    return parser


def _cmd_optimize_tau(args) -> int:
    spec = _load_spec(args)
    _emit(tau_star_rows(build_scenario(spec), spec.seed), args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    values = parse_float_list(args.values, "--values") if args.values else None
    rows = run_sweep(spec, _parse_schemes(args.schemes), args.axis, values, args.mode)
    _emit(rows, args)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    rows, summary = run_preset(args.figure, trials=args.trials, seed=args.seed)
    _emit(rows, args)
    # the summary takes stdout unless the rows do
    stream = sys.stdout if args.out else sys.stderr
    stream.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except _IOFailure as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
