"""The three benchmark workloads: CLI subcommand, scenario file and row set.

All three use the paper scale N=150, K=20, T=500 and `--workers 1`.  The
per-command sizes (trials, SNR grid) are cut from the paper's so that one
command takes seconds, not minutes, and a measured run holds several
commands.
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMES = ("conv", "stat")
PAPER_SCALE = {"n": 150, "k": 20, "t": 500}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # "simulate" (Monte Carlo) or "asymptotic" (DE only)
    fields: dict  # scenario-file keys besides seed and scenario_id
    snr_grid: tuple[float, float, float]  # lo, hi, step in dB
    cells: int

    def snr_points(self) -> tuple[float, ...]:
        # same arithmetic as the CLI's lo:hi:step parser, so the row keys
        # compare exactly
        lo, hi, step = self.snr_grid
        count = int(round((hi - lo) / step))
        return tuple(lo + i * step for i in range(count + 1))

    def scenario_text(self, seed: int) -> str:
        lo, hi, step = self.snr_grid
        lines = [f"scenario_id = {self.name}", f"seed = {seed}"]
        lines += [f"{key} = {value}" for key, value in {**PAPER_SCALE, **self.fields}.items()]
        lines.append(f"snr_grid_db = {lo:g}:{hi:g}:{step:g}")
        return "\n".join(lines) + "\n"

    def cli_argv(self, scenario_path: str, out_path: str) -> list[str]:
        return [
            self.subcommand,
            "--scenario", scenario_path,
            "--schemes", ",".join(SCHEMES),
            "--workers", "1",
            "--out", out_path,
        ]

    def row_keys(self) -> set[tuple[str, float, int]]:
        """(scheme, snr_db, user_id) of every row the command must emit."""
        suffix = "multi" if self.cells > 1 else "single"
        users = self.cells * PAPER_SCALE["k"]
        return {
            (f"{scheme}_{suffix}", snr, user)
            for scheme in SCHEMES
            for snr in self.snr_points()
            for user in range(users)
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_single_cell",
            subcommand="simulate",
            fields={
                "layout": "single_cell",
                "correlation": "one_ring",
                "kappa_max": 2.0,
                "trials": 16,
            },
            snr_grid=(-10.0, 30.0, 5.0),
            cells=1,
        ),
        Workload(
            name="mc_three_cell",
            subcommand="simulate",
            fields={
                "layout": "three_cell_edge",
                "l": 3,
                "placement": "cell_edge",
                "correlation": "one_ring",
                "kappa_max": 2.0,
                "trials": 4,
            },
            snr_grid=(-10.0, 30.0, 5.0),
            cells=3,
        ),
        Workload(
            name="de_single_cell",
            subcommand="asymptotic",
            fields={
                "layout": "single_cell",
                "correlation": "exponential",
                "kappa_max": 2.0,
                "tau_mode": "optimal",
            },
            snr_grid=(-10.0, 40.0, 5.0),
            cells=1,
        ),
    )
}
