#!/usr/bin/env python3
"""Regenerate reference.json: quality numbers of each workload over many seeds.

    python3 perfbench/make_reference.py [--seeds 16]

Runs one untraced pass of every workload per seed and writes, for each
number in metrics.json (median_abs_error, ence, aucc), the median over seeds
and a tolerance of TOLERANCE_SD standard deviations. A different seed is a
fresh random stream, so the tolerance admits any change of random stream and
little more. Run it only at a commit whose quality numbers are accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import run

TOLERANCE_SD = 6.0
QUALITY_FIELDS = ("median_abs_error", "ence", "aucc")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args(argv)
    run.guard_environment()
    cli = run.import_program()

    import checks
    import workloads

    seeds = list(range(1, args.seeds + 1))
    reference = {"seeds": seeds, "tolerance_sd": TOLERANCE_SD, "samples": {}}
    for name in workloads.NAMES:
        wl = workloads.workload(name)
        samples = {}
        for seed in seeds:
            inputs = run.WORK / f"reference_{os.getpid()}" / "inputs"
            workloads.prepare_inputs(wl, seed, inputs)
            ledger = run.Ledger()
            runner = run.Runner(cli, wl, inputs, ledger, full_size=False)
            runner.run_pass()
            shutil.rmtree(inputs.parent)
            if ledger.failed:
                print(f"{name} seed {seed}: {ledger.failed} failed checks", file=sys.stderr)
                return 1
            for key, value in checks.flatten(runner.metrics).items():
                if key.rsplit(".", 1)[1] in QUALITY_FIELDS:
                    samples.setdefault(key, []).append(value)
            print(f"{name} seed {seed} done", file=sys.stderr)
        reference[name] = {
            key: [statistics.median(v), TOLERANCE_SD * statistics.stdev(v)]
            for key, v in sorted(samples.items())
        }
        reference["samples"][name] = samples
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
