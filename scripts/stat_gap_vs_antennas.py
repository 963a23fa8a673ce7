#!/usr/bin/env python3
"""Gap between multi-cell and single-cell statistical SE as N grows.

The statistical combiner uses local statistics only, so its multi-cell SE
approaches the single-cell SE as the array grows.  This script prints the
per-user worst relative gap over N to visualize that convergence.

Usage:
    python3 scripts/stat_gap_vs_antennas.py [--n 64 128 256 512] [--snr 10]
"""

import argparse

import numpy as np

from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.spectral_efficiency import se_stat_multicell, se_stat_singlecell


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[64, 128, 256, 512])
    parser.add_argument("--snr", type=float, default=10.0)
    parser.add_argument("--kappa-max", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=19)
    args = parser.parse_args()

    print(f"{'N':>5} {'worst_gap':>10} {'mean_gap':>9}")
    for n in args.n:
        spec = ScenarioSpec(
            layout="three_cell_edge",
            l=3,
            placement="cell_edge",
            n=n,
            k=20,
            t=500,
            kappa_max=args.kappa_max,
            seed=args.seed,
        )
        scenario = build_scenario(spec)
        config = spec.system_config(args.snr)
        multi = se_stat_multicell(scenario.profiles, [config])[0]
        gaps = []
        for bs in range(3):
            single = se_stat_singlecell(scenario.local_profiles(bs), [config])[0]
            mask = single.per_user_se > 1e-9
            gaps.append(
                np.abs(multi[bs].per_user_se - single.per_user_se)[mask]
                / single.per_user_se[mask]
            )
        gap = np.concatenate(gaps)
        print(f"{n:>5d} {gap.max():>10.4f} {gap.mean():>9.4f}")


if __name__ == "__main__":
    main()
