#!/usr/bin/env python3
"""Optimal training length versus SNR and Rician-factor level.

Prints a table of tau* for each kappa_max on a common SNR grid, plus the
average-SE loss of always training with the minimum tau = K.

Usage:
    python3 scripts/tau_star_table.py [--kappa-max 0 0.5 4 10] [--seed 11]
"""

import argparse

from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.training import TrainingCurve, solve_tau_star


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kappa-max", type=float, nargs="+", default=[0.0, 0.5, 4.0, 10.0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n", type=int, default=150)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--t", type=int, default=500)
    args = parser.parse_args()

    snr_grid = tuple(float(s) for s in range(-10, 35, 5))
    print(f"N={args.n}, K={args.k}, T={args.t}, seed={args.seed}")
    header = "kappa_max " + " ".join(f"{s:>6.0f}" for s in snr_grid)
    print(header)
    for kmax in args.kappa_max:
        spec = ScenarioSpec(
            n=args.n, k=args.k, t=args.t, kappa_max=kmax, seed=args.seed
        )
        profiles = build_scenario(spec).local_profiles(0)
        configs = [spec.system_config(snr) for snr in snr_grid]
        solutions = solve_tau_star(profiles, configs)
        curve = TrainingCurve(profiles)
        stars = [sol.tau_star for sol in solutions]
        losses = [
            0.0 if sol.avg_se_at_star <= 0 else 1 - curve.avg_se(float(args.k), c) / sol.avg_se_at_star
            for c, sol in zip(configs, solutions)
        ]
        print(f"{kmax:>9.1f} " + " ".join(f"{t:>6d}" for t in stars))
        print(f"{'loss@K':>9} " + " ".join(f"{l:>6.1%}" for l in losses))


if __name__ == "__main__":
    main()
