#!/usr/bin/env python3
"""Cross-validate the deterministic equivalents against Monte Carlo.

Runs a seeded scenario over its SNR grid in `both` mode and prints, per SNR
point, the worst and mean per-user relative gap between the Monte Carlo SE
and the closed-form equivalent for conventional combining.  The `scenario:`
line also gives the Monte Carlo's wall time and the process's peak resident
memory up to the end of the Monte Carlo.

Usage:
    python3 scripts/compare_de_vs_mc.py [--multi] [--trials 200] [--seed 3]
"""

import argparse
import resource
import time

import numpy as np

from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.spectral_efficiency import conventional_mc
from rician_mimo.sweeps import conv_de_per_bs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--multi", action="store_true", help="three-cell layout")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--n", type=int, default=150)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--kappa-max", type=float, default=2.0)
    parser.add_argument("--correlation", default="exponential",
                        choices=("identity", "exponential", "one_ring"))
    args = parser.parse_args()

    spec = ScenarioSpec(
        layout="three_cell_edge" if args.multi else "single_cell",
        l=3 if args.multi else 1,
        n=args.n,
        k=args.k,
        t=500,
        kappa_max=args.kappa_max,
        correlation=args.correlation,
        seed=args.seed,
        trials=args.trials,
    )
    scenario = build_scenario(spec)
    configs = [spec.system_config(snr) for snr in spec.snr_grid_db]
    start = time.perf_counter()
    mc, stderr = conventional_mc(scenario.profiles, configs, args.trials, args.seed)
    mc_elapsed = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"scenario: {spec.layout}, N={spec.n}, K={spec.k}, "
          f"corr={spec.correlation}, kappa_max={spec.kappa_max:g}, "
          f"{args.trials} trials ({mc_elapsed:.1f}s, peak RSS {peak_rss_mb:.1f} MB)")
    print(f"{'snr_db':>7} {'worst_gap':>10} {'mean_gap':>9} {'mc_stderr':>10}")
    de = conv_de_per_bs(scenario, configs)
    # every array is (SNR point, BS, user); flatten each point's BSs and users
    gap = (np.abs(mc - de) / de).reshape(len(configs), -1)
    # one trial gives no standard error
    rel_err = (np.full_like(mc, np.nan) if stderr is None else stderr / mc).reshape(len(configs), -1)
    for snr, g, e in zip(spec.snr_grid_db, gap, rel_err):
        print(f"{snr:>7.1f} {g.max():>10.4f} {g.mean():>9.4f} {e.max():>10.4f}")


if __name__ == "__main__":
    main()
