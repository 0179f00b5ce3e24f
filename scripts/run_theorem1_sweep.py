"""Sweep the map/free-evolution commutation defect over seeded strict
couplings and report the worst case per system/environment pair.

Strict couplings should sit at rounding noise for every seed; the two
witness rows at the bottom (nonconserving coupling, nonstationary
environment state) show what a genuine violation looks like.
"""
import argparse
import csv
import sys

import numpy as np

from thermolindblad import (
    CompositeModel,
    build_strict_coupling,
    presets,
    theorem1_defect,
)

SYSTEMS = {
    "qubit(1)": presets.qubit(1.0),
    "qutrit(0,1,3)": presets.qutrit(0.0, 1.0, 3.0),
    "ladder(4)": presets.ladder(4, 1.0),
}

ENVIRONMENTS = {
    "qubit(1)": presets.qubit(1.0),
    "ladder(4)": presets.ladder(4, 1.0),
    "ladder(6)": presets.ladder(6, 1.0),
}


def strict_row(sys_label, env_label, seeds, times, beta, scale):
    h_sys = SYSTEMS[sys_label]
    h_env = ENVIRONMENTS[env_label]
    worst = 0.0
    any_transitions = False
    for seed in seeds:
        coupling, induces = build_strict_coupling(
            h_sys, h_env, np.random.default_rng(seed), scale=scale
        )
        any_transitions = any_transitions or induces
        model = CompositeModel(
            system_hamiltonian=h_sys,
            env_hamiltonian=h_env,
            coupling=coupling,
            env_state=presets.thermal_state(h_env, beta),
        )
        worst = max(worst, float(theorem1_defect(model, times).max()))
    return worst, any_transitions


def witness_rows(beta, times):
    h = presets.qubit(1.0)
    upper = presets.LOWER.conj().T
    exchange = 0.3 * (np.kron(upper, presets.LOWER) + np.kron(presets.LOWER, upper))
    nonconserving = CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=h,
        coupling=0.5 * np.kron(presets.SIGMA_X, presets.SIGMA_X),
        env_state=presets.thermal_state(h, beta),
    )
    nonstationary = CompositeModel(
        system_hamiltonian=h,
        env_hamiltonian=h,
        coupling=exchange,
        env_state=np.full((2, 2), 0.5, dtype=complex),
    )
    yield "nonconserving coupling", float(theorem1_defect(nonconserving, times).max())
    yield "nonstationary env state", float(theorem1_defect(nonstationary, times).max())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="seeds per pair (default 5)")
    parser.add_argument("--beta", type=float, default=1.0, help="environment inverse temperature")
    parser.add_argument("--scale", type=float, default=0.8, help="coupling Frobenius norm")
    parser.add_argument("--csv", default=None, help="also write the table to this CSV file")
    args = parser.parse_args(argv)

    times = (0.1, 1.0, 10.0)
    seeds = range(args.seeds)
    rows = []
    print(f"worst commutation defect over t in {times}, {args.seeds} seeds per pair")
    print(f"{'system':>14} {'environment':>12} {'worst defect':>14}  transitions")
    for sys_label in SYSTEMS:
        for env_label in ENVIRONMENTS:
            worst, induces = strict_row(sys_label, env_label, seeds, times, args.beta, args.scale)
            rows.append((sys_label, env_label, worst, induces))
            print(f"{sys_label:>14} {env_label:>12} {worst:14.3e}  {'yes' if induces else 'no'}")
    print()
    for label, defect in witness_rows(args.beta, times):
        rows.append((label, "-", defect, True))
        print(f"{label:>27} {defect:14.3e}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["system", "environment", "worst_defect", "induces_transitions"])
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
