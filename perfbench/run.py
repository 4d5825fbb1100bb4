#!/usr/bin/env python3
"""dticalib benchmark: the CLI stage chains, driven in-process.

    python3 perfbench/run.py --workload wbs_chain --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
./src. The benchmark is one process with no extra threads (BLAS is capped
at one thread) and a closed loop: each stage starts when the previous one
returns, each pass starts when the previous pass has been checked.

--trace 0 times whole passes of the workload's chain and reports the
end-to-end metrics of BENCHMARK.json. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics; spans are kept in memory
and written to .perfbench_run/spans_<workload>.jsonl at the end.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Every stage invocation and every output check
is one attempted operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2  # the manifest of a later pass is compared with the first


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import dticalib from ROOT/src and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401  (part of the program's import cost)
        import dticalib
        import dticalib.cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import dticalib from {src}: {exc}") from None
    if src.resolve() not in Path(dticalib.__file__).resolve().parents:
        raise ProgramMissing(f"dticalib imported from {dticalib.__file__}, not from {src}")
    return dticalib.cli


def guard_environment() -> dict:
    """Cap BLAS threads and drop DTICALIB_THREADS before numpy loads."""
    record = {"dticalib_threads_env": os.environ.pop("DTICALIB_THREADS", None)}
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    return record


def describe_environment(record: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        **record,
        "nproc": os.cpu_count(),
        "cpus_usable": len(affinity) if affinity is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_cap": {var: os.environ.get(var) for var in THREAD_CAPS},
        "mem_free_mb": round(os.sysconf("SC_AVPHYS_PAGES") * page_mb),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * page_mb),
        "machine": platform.machine(),
    }


class Ledger:
    """Counts attempted and failed operations; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def invoke(cli, stage: str, config: Path) -> int:
    """One CLI stage; an exception escaping main counts as a failed stage."""
    try:
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main([stage, "--config", str(config)])
    except Exception:  # the benchmark keeps running and reports the failure
        traceback.print_exc()
        return -1


def link_inputs(src: Path, dst: Path):
    """Fresh pass directory holding the prepared inputs (hard links if possible)."""
    if dst.exists():
        shutil.rmtree(dst)
    dst.mkdir(parents=True)
    for path in src.iterdir():
        try:
            os.link(path, dst / path.name)
        except OSError:
            shutil.copyfile(path, dst / path.name)


class Runner:
    """Passes of one workload: stage chain, timing, checks, manifests."""

    def __init__(self, cli, wl, inputs: Path, ledger: Ledger, full_size: bool):
        self.cli, self.wl, self.inputs, self.ledger = cli, wl, inputs, ledger
        self.full_size = full_size
        self.out = inputs.parent / "pass"
        self.manifest = None  # manifest.json bytes of the first pass
        self.metrics = None  # metrics.json of the last pass
        self.count = 0

    def run_pass(self, tracer=None) -> float:
        """One pass of the chain, then its checks; returns the chain's wall time.

        With a tracer, the wrappers are installed for the stages only, so
        the checks that follow are neither traced nor timed.
        """
        import checks
        import tracing
        from workloads import CONFIG_NAME

        out = self.out
        link_inputs(self.inputs, out)
        config = out / CONFIG_NAME
        codes = []
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            for stage in self.wl.stages:
                with tracer.stage(stage) if tracer else contextlib.nullcontext():
                    codes.append(invoke(self.cli, stage, config))
            elapsed = time.perf_counter() - start

        for stage, code in zip(self.wl.stages, codes):
            self.ledger.record(f"stage {stage}", code == 0, f"exit code {code}")
        for name, ok, detail in checks.check_pass(self.wl, out, self.full_size):
            self.ledger.record(name, ok, detail)
        with contextlib.suppress(OSError, ValueError):
            self.metrics = json.loads((out / "metrics.json").read_text())
        manifest_path = out / "manifest.json"
        manifest = manifest_path.read_bytes() if manifest_path.exists() else None
        kind = "traced" if tracer else "untraced"
        if self.manifest is None:
            self.manifest = manifest
            self.ledger.record("manifest.json written", manifest is not None, "missing")
        else:
            self.ledger.record(
                f"{kind} pass {self.count} manifest identical to pass 0",
                manifest == self.manifest,
                "output hashes differ between passes of one seed",
            )
        shutil.rmtree(out)
        self.count += 1
        return elapsed


def measure_setup(wl, seed: int, import_s: float, workdir: Path):
    """Median of SETUP_REPEATS input preparations, plus the one import."""
    from workloads import prepare_inputs

    times = []
    directory = workdir / "inputs"
    for _ in range(SETUP_REPEATS):
        if directory.exists():
            shutil.rmtree(directory)
        start = time.perf_counter()
        prepare_inputs(wl, seed, directory)
        times.append(time.perf_counter() - start)
    return import_s + statistics.median(times), directory


def untraced_metrics(runner, seconds, wl, setup_s):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(times) <= seconds
    ):
        times.append(runner.run_pass())
    q1, chain_s, q3 = statistics.quantiles(times, n=4, method="inclusive")
    print(
        f"chain_s over {len(times)} passes: median {chain_s:.4f} s, "
        f"quartiles {q1:.4f} .. {q3:.4f} s; passes "
        + " ".join(f"{t:.4f}" for t in times),
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "chain_s": chain_s,
        "voxels_per_s": wl.voxels / chain_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(runner, seconds, wl, ledger, spans_path, env):
    import tracing

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not plain or (
        time.perf_counter() - start + statistics.median(plain) + statistics.median(traced)
        <= seconds
    ):
        plain.append(runner.run_pass())
        last = tracing.Tracer()
        traced.append(runner.run_pass(last))
        errors = tracing.coverage_errors(last.spans, wl)
        if errors:
            raise SystemExit("wrapper coverage self-check failed: " + "; ".join(errors))
        layers.append(tracing.layer_metrics(last.spans, wl))
    last.write(spans_path, {"workload": wl.name, "environment": env})
    # median_low keeps counts integral and every time a measured value
    out = {key: statistics.median_low(d[key] for d in layers) for key in layers[0]}
    out["trace.chain_s"] = statistics.median(traced)
    out["trace.overhead_s"] = out["trace.chain_s"] - statistics.median(plain)
    out["checks.failed_frac"] = ledger.failed / ledger.attempted
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env_record = guard_environment()
    start = time.perf_counter()
    try:
        cli = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.workload(args.workload, args.size)
    env = describe_environment(env_record)
    print("environment " + json.dumps(env, sort_keys=True))

    workdir = WORK / f"run_{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        setup_s, inputs = measure_setup(wl, args.seed, import_s, workdir)
        runner = Runner(cli, wl, inputs, ledger, args.size == "full")
        if args.trace:
            spans = WORK / f"spans_{wl.name}.jsonl"
            values = traced_metrics(runner, args.seconds, wl, ledger, spans, env)
            names = spec["per_layer"]
        else:
            values = untraced_metrics(runner, args.seconds, wl, setup_s)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    failed_frac = ledger.failed / ledger.attempted
    for name, entry in metrics.items():
        print(f"{wl.name} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{wl.name} failed_frac = {failed_frac:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
