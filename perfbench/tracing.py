"""In-memory spans around the program's public functions.

The wrappers live here, in the benchmark, and are installed at every call
site: modules bind names with ``from .x import f``, so each module
attribute that holds a traced function is replaced, not only the one in the
defining module. Methods are wrapped on the class. Uninstalling restores
every original, so untraced passes run the unmodified program.

A span is [name, start, end, parent, stage, rows, bytes]: times from
time.perf_counter, parent and stage as span ids. The stage is the id of the
enclosing ``pipeline.<stage>`` span, which the benchmark opens around each
CLI invocation.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


FIELDS = ("name", "start", "end", "parent", "stage", "rows", "bytes")


def _rows(a) -> int:
    return 1 if np.ndim(a) < 2 else int(np.shape(a)[0])


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _one_file(args, kwargs):
    return _size(_arg(args, kwargs, 0, "path"))


def _two_files(args, kwargs):
    return _size(args[0]) + _size(args[1])


def _hashed(args, kwargs):
    return sum(_size(p) for p in _arg(args, kwargs, 3, "outputs"))


# (module, attribute, span name, rows(args, kwargs), bytes before, bytes after)
TARGETS = (
    ("simulation", "make_phantom", "simulation.make_phantom",
     lambda a, k: _arg(a, k, 0, "spec").n_voxels, None, None),
    ("fitting", "fit_cwlls_batch", "fitting.fit_cwlls_batch",
     lambda a, k: _rows(_arg(a, k, 0, "signals")), None, None),
    ("bootstrap", "wild_bootstrap", "bootstrap.wild_bootstrap", None, None, None),
    ("bootstrap", "summarize_uncertainty", "bootstrap.summarize_uncertainty",
     None, None, None),
    ("tensor", "eigh3_batch", "tensor.eigh3_batch",
     lambda a, k: _rows(_arg(a, k, 0, "mats")), None, None),
    ("mlp", "train", "mlp.train", None, None, None),
    ("mlp", "predict_mc_dropout", "mlp.predict_mc_dropout", None, None, None),
    ("mlp", "TwoBranchMlp.forward", "mlp.forward",
     lambda a, k: _rows(_arg(a, k, 1, "x")), None, None),
    ("calibration", "triples_from_arrays", "calibration.triples_from_arrays",
     lambda a, k: len(_arg(a, k, 0, "truth")), None, None),
    ("calibration", "bin_rmv_rmse", "calibration.bin_rmv_rmse", None, None, None),
    ("calibration", "picp_mpiw_curve", "calibration.picp_mpiw_curve", None, None, None),
    ("calibration", "fit_isotonic", "calibration.fit_isotonic", None, None, None),
    ("dataio", "read_dataset", "dataio.read_dataset", None, _one_file, None),
    ("dataio", "read_predictions", "dataio.read_predictions", None, _one_file, None),
    ("dataio", "read_fits", "dataio.read_fits", None, _one_file, None),
    ("dataio", "read_bvec_bval", "dataio.read_bvec_bval", None, _two_files, None),
    ("dataio", "write_dataset", "dataio.write_dataset", None, None, _one_file),
    ("dataio", "write_predictions", "dataio.write_predictions", None, None, _one_file),
    ("dataio", "write_fits", "dataio.write_fits", None, None, _one_file),
    ("dataio", "write_bvec_bval", "dataio.write_bvec_bval", None, None, _two_files),
    ("dataio", "write_metrics_json", "dataio.write_metrics_json", None, None, _one_file),
    ("dataio", "write_curve_csv", "dataio.write_curve_csv", None, None, _one_file),
    ("dataio", "write_manifest", "dataio.write_manifest", None, _hashed, None),
    ("rng", "rng_from_key", "rng.rng_from_key", None, None, None),
)

READS = ("dataio.read_dataset", "dataio.read_predictions", "dataio.read_fits",
         "dataio.read_bvec_bval")
WRITES = ("dataio.write_dataset", "dataio.write_predictions", "dataio.write_fits",
          "dataio.write_bvec_bval", "dataio.write_metrics_json", "dataio.write_curve_csv")


class Tracer:
    """Collects spans in memory; one per traced call and one per stage."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._stage = None

    def _open(self, name, rows=0, nbytes=0) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._stage, rows, nbytes]
        self.spans.append(span)
        self._stack.append(sid)
        span[1] = time.perf_counter()
        return sid

    def _close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def stage(self, name: str):
        sid = self._open("pipeline." + name)
        self.spans[sid][4] = self._stage = sid
        try:
            yield
        finally:
            self._close(sid)
            self._stage = None

    def wrap(self, fn, name, rows, bytes_before, bytes_after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = rows(args, kwargs) if rows else 0
            b = bytes_before(args, kwargs) if bytes_before else 0
            sid = self._open(name, n, b)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                if bytes_after:
                    self.spans[sid][6] = bytes_after(args, kwargs)

        return traced

    def write(self, path, extra: dict):
        """Spans as JSON lines, after one header line."""
        header = {**extra, "fields": ["id", *FIELDS]}
        with open(path, "w") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, span in enumerate(self.spans):
                f.write(json.dumps([sid, *span]) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of each target with a traced wrapper."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "dticalib" or n.startswith("dticalib."))]
    patches = []
    try:
        for module_name, attr, name, rows, before, after in TARGETS:
            home = sys.modules[f"dticalib.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, tracer.wrap(original, name, rows, before, after))
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(original, name, rows, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        yield
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def aggregate(spans):
    """Per-name totals over the whole pass and per (stage, name).

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap in a single thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start

    def empty():
        return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0, "bytes": 0}

    total = defaultdict(empty)
    by_stage = defaultdict(empty)
    for sid, (name, start, end, parent, stage, rows, nbytes) in enumerate(spans):
        stage_name = spans[stage][0].split(".", 1)[1] if stage is not None else ""
        for entry in (total[name], by_stage[(stage_name, name)]):
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[sid]
            entry["rows"] += rows
            entry["bytes"] += nbytes
    return total, by_stage


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wl) -> dict:
    """Per-layer figures of one traced pass of workload wl."""
    total, by_stage = aggregate(spans)
    rep = wl.replicate_stage

    def t(name, key):
        return total[name][key]

    def s(name, key):
        return by_stage[(rep, name)][key]

    out = {}
    for stage in ("simulate", "fit", "bootstrap", "train", "predict", "calibrate",
                  "evaluate", "curves"):
        out[f"pipeline.{stage}_s"] = t(f"pipeline.{stage}", "total_s")

    out["simulation.make_phantom.self_s"] = t("simulation.make_phantom", "self_s")
    out["simulation.make_phantom.voxels_per_s"] = _ratio(
        t("simulation.make_phantom", "rows"), t("simulation.make_phantom", "total_s"))

    fit = "fitting.fit_cwlls_batch"
    for key in ("calls", "rows", "self_s"):
        out[f"{fit}.{key}"] = t(fit, key)
    out[f"{fit}.rows_per_s"] = _ratio(t(fit, "rows"), t(fit, "total_s"))
    out[f"{fit}.calls_per_voxel"] = _ratio(s(fit, "calls"), wl.voxels)

    for name in ("bootstrap.wild_bootstrap", "bootstrap.summarize_uncertainty"):
        out[f"{name}.calls"] = t(name, "calls")
        out[f"{name}.self_s"] = t(name, "self_s")

    eig = "tensor.eigh3_batch"
    for key in ("calls", "rows", "self_s"):
        out[f"{eig}.{key}"] = t(eig, key)
    # single-row calls decompose one per-voxel tensor (base fit, dyad,
    # point estimate); only multi-row calls hold replicate sets
    replicate_rows = sum(
        span[5] for span in spans
        if span[0] == eig and span[5] > 1 and span[4] is not None
        and spans[span[4]][0] == f"pipeline.{rep}"
    )
    out[f"{eig}.rows_per_replicate"] = _ratio(replicate_rows, wl.voxels * wl.replicates)

    out["mlp.train.self_s"] = t("mlp.train", "self_s")
    out["mlp.forward.calls"] = t("mlp.forward", "calls")
    out["mlp.forward.rows_per_call"] = _ratio(s("mlp.forward", "rows"), s("mlp.forward", "calls"))
    out["mlp.predict_mc_dropout.self_s"] = t("mlp.predict_mc_dropout", "self_s")

    out["calibration.triples_from_arrays.self_s"] = t("calibration.triples_from_arrays", "self_s")
    out["calibration.triples_from_arrays.objects"] = t("calibration.triples_from_arrays", "rows")
    for name in ("bin_rmv_rmse", "picp_mpiw_curve", "fit_isotonic"):
        out[f"calibration.{name}.self_s"] = t(f"calibration.{name}", "self_s")

    out["dataio.read_s"] = sum(t(n, "self_s") for n in READS)
    out["dataio.write_s"] = sum(t(n, "self_s") for n in WRITES)
    out["dataio.bytes_read"] = sum(t(n, "bytes") for n in READS)
    out["dataio.bytes_written"] = sum(t(n, "bytes") for n in WRITES)
    out["dataio.write_manifest.self_s"] = t("dataio.write_manifest", "self_s")
    out["dataio.write_manifest.bytes_hashed"] = t("dataio.write_manifest", "bytes")

    out["rng.rng_from_key.calls"] = t("rng.rng_from_key", "calls")
    return out


def coverage_errors(spans, wl) -> list:
    """Structural lower bounds a complete set of wrappers must reach.

    The bounds count work, not calls, so batching a loop does not trip
    them; a call site the wrappers missed does.
    """
    total, by_stage = aggregate(spans)
    errors = []

    def need(what, got, least):
        if got < least:
            errors.append(f"{what} = {got}, expected at least {least}")

    def rows(stage, name):
        return by_stage[(stage, name)]["rows"]

    for stage in wl.stages:
        need(f"pipeline.{stage} spans", total[f"pipeline.{stage}"]["calls"], 1)
        need(f"dataio.write_manifest calls in {stage}",
             by_stage[(stage, "dataio.write_manifest")]["calls"], 1)
    if "simulate" in wl.stages:
        need("simulation.make_phantom rows", rows("simulate", "simulation.make_phantom"), wl.voxels)
    if wl.name == "wbs_chain":
        need("fitting.fit_cwlls_batch rows in fit", rows("fit", "fitting.fit_cwlls_batch"), wl.voxels)
        need("fitting.fit_cwlls_batch rows in bootstrap",
             rows("bootstrap", "fitting.fit_cwlls_batch"), wl.voxels * wl.replicates)
        need("tensor.eigh3_batch rows in bootstrap",
             rows("bootstrap", "tensor.eigh3_batch"), wl.voxels * wl.replicates)
    if wl.name == "dl_chain":
        need("mlp.forward rows in predict", rows("predict", "mlp.forward"), wl.voxels * wl.replicates)
        need("mlp.forward rows in train", rows("train", "mlp.forward"), 1)
        need("tensor.eigh3_batch rows in predict",
             rows("predict", "tensor.eigh3_batch"), wl.voxels * wl.replicates)
    for stage in ("calibrate", "evaluate", "curves"):
        need(f"dataio.read_predictions calls in {stage}",
             by_stage[(stage, "dataio.read_predictions")]["calls"], 1)
    need("calibration.triples_from_arrays objects",
         total["calibration.triples_from_arrays"]["rows"], wl.voxels)
    return errors
