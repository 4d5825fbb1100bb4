#!/usr/bin/env python3
"""Noise-response experiment for the learned uncertainty.

Trains the two-branch model on a mixed-SNR prolate phantom, then evaluates
the aleatoric u and the MC-dropout spread on a fixed phantom re-noised at
each SNR level. Writes a CSV of mean u, sigma(FA), sigma(MD) per SNR.

Usage:
  python scripts/run_noise_sweep.py --out sweep.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from dticalib import PhantomSpec, make_phantom, make_scheme, summarize_uncertainty
from dticalib.mlp import MlpSpec, TrainConfig, normalize_signals, predict_mc_dropout, train


def phantom_inputs(spec, scheme):
    phantom = make_phantom(spec)
    return normalize_signals(phantom.signals, scheme), phantom.truth


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-voxels", type=int, default=5000)
    parser.add_argument("--eval-voxels", type=int, default=300)
    parser.add_argument("--mc-voxels", type=int, default=80)
    parser.add_argument("--snr", type=float, nargs="+",
                        default=[35.0, 32.0, 29.0, 26.0, 23.0, 20.0])
    parser.add_argument("--epochs", type=int, default=250)
    parser.add_argument("--dropout", type=float, default=0.3)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("noise_sweep.csv"))
    args = parser.parse_args()

    scheme = make_scheme(30)
    train_spec = PhantomSpec(
        n_voxels=args.train_voxels, scheme=scheme, generator="prolate",
        fa_target=0.8, md=0.9e-3, snr_range=(18.0, 37.0), seed=100,
    )
    inputs, truth = phantom_inputs(train_spec, scheme)
    print(f"training on {len(inputs)} voxels ...")
    model, hist = train(
        inputs, truth,
        MlpSpec(input_dim=len(scheme), hidden_widths=(64, 64, 64),
                uncertainty_widths=(64, 64), dropout_rate=args.dropout,
                target_scale=4000.0),
        TrainConfig(epochs=args.epochs, seed=args.seed, batch_size=512,
                    learning_rate=1e-3, eval_every=25),
    )
    print(f"done (loss {hist.train_loss[0]:.3f} -> {hist.train_loss[-1]:.3f})")

    rows = []
    for snr in args.snr:
        eval_spec = PhantomSpec(
            n_voxels=args.eval_voxels, scheme=scheme, generator="prolate",
            fa_target=0.8, md=0.9e-3, snr_db=snr, seed=777,
        )
        x_eval, _ = phantom_inputs(eval_spec, scheme)
        mean_u = float(model.predict(x_eval)[1].mean())

        seeds = 3000 + np.arange(args.mc_voxels)
        samples = predict_mc_dropout(model, x_eval[:args.mc_voxels], args.samples, seeds=seeds)
        _, sfa, smd = summarize_uncertainty(samples).T
        rows.append((snr, mean_u, float(np.mean(sfa)), float(np.mean(smd))))
        print(f"SNR {snr:5.1f} dB | mean u {mean_u:+.4f} | "
              f"MC sigma(FA) {rows[-1][2]:.4f} | MC sigma(MD) {rows[-1][3]:.3e}")

    with open(args.out, "w") as f:
        f.write("snr_db,mean_u,mc_sigma_fa,mc_sigma_md\n")
        for row in rows:
            f.write(",".join(repr(v) for v in row) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
