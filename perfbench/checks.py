"""Output checks for one pass of a workload.

Each check is one (name, ok, detail) item; the benchmark counts every item
as an attempted operation and every failed item as a failed one.

Quality numbers in metrics.json are compared with reference.json. Those
references were measured at the commit that introduced this benchmark, over
many seeds (see make_reference.py); each tolerance admits a fresh random
stream, not a change in the method.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from dticalib import dataio

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# prediction columns that must always be finite
FINITE_COLUMNS = slice(0, 8)
U_COLUMN, THETA_COLUMN, SIGMA_COLUMNS = 8, 5, [6, 7]


def _table_checks(path: Path, rows: int, u_finite: bool, theta_max: float):
    """theta_max is 90 for a method's table, where theta95 is a percentile of
    angles in [0, 90]; recalibration turns it into 2 sigma, which is unbounded."""
    name = path.name
    try:
        _, table = dataio.read_predictions(path)
    except (OSError, ValueError) as exc:
        return [(f"{name} readable", False, str(exc))]
    theta = table[:, THETA_COLUMN]
    u = table[:, U_COLUMN]
    return [
        (f"{name} rows", len(table) == rows, f"{len(table)} rows, expected {rows}"),
        (f"{name} finite", bool(np.all(np.isfinite(table[:, FINITE_COLUMNS]))),
         "non-finite estimate or uncertainty"),
        (f"{name} aleatoric_u", bool(np.all(np.isfinite(u) == u_finite)),
         f"aleatoric_u should be {'finite' if u_finite else 'NaN'}"),
        (f"{name} sigma >= 0", bool(np.all(table[:, SIGMA_COLUMNS] >= 0)), "negative sigma"),
        (f"{name} theta95 in [0, {theta_max}]",
         bool(np.all((theta >= 0) & (theta <= theta_max))),
         f"theta95 outside [0, {theta_max}]"),
    ]


def flatten(metrics: dict, prefix=""):
    out = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _metrics_checks(metrics: dict, rows: int):
    items = []
    for key, value in flatten(metrics).items():
        field = key.rsplit(".", 1)[1]
        if field == "n":
            items.append((f"metrics {key}", value == rows, f"{value}, expected {rows}"))
        elif field == "aucc":
            ok = value is not None and 0.0 <= value <= 1.0
            items.append((f"metrics {key} in [0, 1]", ok, str(value)))
        elif field in ("ence", "median_abs_error"):
            ok = value is not None and math.isfinite(value) and value >= 0
            items.append((f"metrics {key} finite", ok, str(value)))
    return items


def _curve_checks(path: Path, grid: int):
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        picp = np.array([float(r["picp"]) for r in rows])
        mpiw = np.array([float(r["mpiw"]) for r in rows])
    except (OSError, KeyError, ValueError) as exc:
        return [(f"{path.name} readable", False, str(exc))]
    ok = (
        len(rows) == grid
        and bool(np.all(np.isfinite(mpiw)))
        and bool(np.all((picp >= 0) & (picp <= 1)))
        and bool(np.all(np.diff(picp) >= 0))
    )
    return [(f"{path.name} coverage curve", ok, f"{len(rows)} rows, picp not a CDF in [0, 1]")]


def reference_checks(workload: str, metrics: dict, reference=None):
    """Quality numbers against reference.json, |value - ref| <= tol."""
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    flat = flatten(metrics)
    items = []
    for key, (ref, tol) in sorted(reference[workload].items()):
        value = flat.get(key)
        ok = value is not None and abs(value - ref) <= tol
        items.append((f"reference {key}", ok, f"{value}, reference {ref} +/- {tol}"))
    return items


def check_pass(wl, out: Path, full_size: bool, grid: int = 256):
    """Every output check for one finished pass of workload wl in out."""
    items = []
    u_finite = wl.name == "dl_chain"
    items += _table_checks(out / wl.predictions, wl.voxels, u_finite, 90.0)
    holdout = wl.voxels // 2  # calibrate's default split holds out perm[1::2]
    items += _table_checks(out / "predictions_recalibrated.bin", holdout, u_finite, np.inf)
    if "fit" in wl.stages:
        try:
            _, params = dataio.read_fits(out / "fits.bin")
            ok = params.shape == (wl.voxels, 7) and bool(np.all(np.isfinite(params)))
        except (OSError, ValueError):
            ok = False
        items.append(("fits.bin finite", ok, "missing, misshapen or non-finite fits"))
    try:
        metrics = json.loads((out / "metrics.json").read_text())
    except (OSError, ValueError) as exc:
        return items + [("metrics.json readable", False, str(exc))]
    rows = holdout if "before" in metrics else wl.voxels
    items += _metrics_checks(metrics, rows)
    for p in ("fa", "md", "theta"):
        items += _curve_checks(out / f"curves_{p}.csv", grid)
    if wl.name == "calib_large":
        before = metrics.get("before", {}).get("fa", {}).get("ence")
        after = metrics.get("after", {}).get("fa", {}).get("ence")
        ok = before is not None and after is not None and after < before
        items.append(("recalibration lowers FA ENCE", ok, f"before {before}, after {after}"))
    if full_size:
        items += reference_checks(wl.name, metrics)
    return items
