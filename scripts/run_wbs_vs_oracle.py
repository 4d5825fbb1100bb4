#!/usr/bin/env python3
"""Compare wild-bootstrap uncertainty against the Monte-Carlo gold standard.

Sweeps a prolate phantom over SNR levels and prints per-quantity median
ratios (bootstrap / oracle). Writes a CSV when --out is given.

Usage:
  python scripts/run_wbs_vs_oracle.py --voxels 50 --snr 25 30 35 --seed 42
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from dticalib import PhantomSpec, make_phantom, make_scheme, monte_carlo_oracle
from dticalib import wild_bootstrap_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--voxels", type=int, default=50)
    parser.add_argument("--directions", type=int, default=30)
    parser.add_argument("--snr", type=float, nargs="+", default=[30.0])
    parser.add_argument("--fa", type=float, default=0.8)
    parser.add_argument("--md", type=float, default=0.9e-3)
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--realizations", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = parser.parse_args()

    scheme = make_scheme(args.directions)
    rows = []
    for snr in args.snr:
        spec = PhantomSpec(
            n_voxels=args.voxels, scheme=scheme, generator="prolate",
            fa_target=args.fa, md=args.md, orientation="uniform",
            snr_db=snr, seed=args.seed,
        )
        phantom = make_phantom(spec)
        # table columns 5, 6, 7: theta95, sigma_fa, sigma_md
        wbs = wild_bootstrap_table(phantom.signals, scheme, args.iterations, args.seed)[:, 5:8]
        orc = np.array([
            monte_carlo_oracle(t, scheme, snr, n_realizations=args.realizations, seed=2000 + v)
            for v, t in enumerate(phantom.truth)
        ])
        ratio = np.median(wbs / orc, axis=0)
        med = {key: float(r) for key, r in zip(("theta95", "sigma_fa", "sigma_md"), ratio)}
        rows.append((snr, med))
        print(
            f"SNR {snr:5.1f} dB | median WBS/oracle: "
            f"sigma(FA) {med['sigma_fa']:.3f}  sigma(MD) {med['sigma_md']:.3f}  "
            f"theta95 {med['theta95']:.3f}"
        )

    if args.out:
        with open(args.out, "w") as f:
            f.write("snr_db,ratio_sigma_fa,ratio_sigma_md,ratio_theta95\n")
            for snr, med in rows:
                f.write(
                    f"{snr!r},{med['sigma_fa']!r},{med['sigma_md']!r},{med['theta95']!r}\n"
                )
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
