"""File formats: bvec/bval tables, binary voxel datasets, prediction tables,
metrics JSON, curve CSVs, and run manifests.

Binary files share one layout: a single-line JSON header (UTF-8, sorted
keys) that declares the file's kind and format version, followed by
little-endian float64 blocks whose sizes the header pins exactly.
Everything is written deterministically so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .tensor import GradientScheme

# the one format version of each binary kind, and the header fields its
# readers use; a reader refuses another kind, another version or a missing field
VERSIONS = {"dataset": 1, "fits": 1, "predictions": 1, "mlp_checkpoint": 1}
FIELDS = {
    "dataset": ("n_voxels", "m", "has_ground_truth", "scheme_ref"),
    "fits": ("n_voxels",),
    "predictions": ("n_voxels", "columns", "method"),
    "mlp_checkpoint": ("n_parameters", "spec"),
}

# prediction table columns, fixed order
PREDICTION_COLUMNS = (
    "fa_hat",
    "md_hat",
    "v1x",
    "v1y",
    "v1z",
    "theta95",
    "sigma_fa",
    "sigma_md",
    "aleatoric_u",
)


class DataFormatError(ValueError):
    pass


def read_bvec_bval(bvec_path, bval_path) -> GradientScheme:
    """FSL-style tables: bval = one row of m numbers, bvec = three rows.

    Directions with b > 0 are renormalized (with a warning) when their norm
    strays more than 1e-3 from unity; zero vectors are kept for b = 0.
    """
    bvals = _parse_rows(bval_path, expected_rows=1)[0]
    rows = _parse_rows(bvec_path, expected_rows=3)
    if len({len(r) for r in rows} | {len(bvals)}) != 1:
        raise DataFormatError("bvec/bval measurement counts disagree")
    directions = np.stack(rows, axis=1).astype(np.float64)
    bvals = np.asarray(bvals, dtype=np.float64)
    norms = np.linalg.norm(directions, axis=1)
    for i, (norm, b) in enumerate(zip(norms, bvals)):
        if b > 0:
            if norm == 0:
                raise DataFormatError(f"zero direction with b>0 at column {i}")
            if abs(norm - 1.0) > 1e-3:
                warnings.warn(f"renormalizing direction {i} (norm {norm:.6f})")
            directions[i] /= norm
        elif norm > 0:
            directions[i] /= norm
    return GradientScheme(directions, bvals)


def _parse_rows(path, expected_rows: int):
    rows = []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            vals = []
            for col, tok in enumerate(line.split(), start=1):
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: parse failure at line {lineno}, column {col}"
                    ) from None
            rows.append(vals)
    if len(rows) != expected_rows:
        raise DataFormatError(f"{path}: expected {expected_rows} row(s), got {len(rows)}")
    return rows


def write_bvec_bval(bvec_path, bval_path, scheme: GradientScheme):
    with open(bval_path, "w") as f:
        f.write(" ".join(repr(float(b)) for b in scheme.bvalues) + "\n")
    with open(bvec_path, "w") as f:
        for axis in range(3):
            f.write(" ".join(repr(float(v)) for v in scheme.directions[:, axis]) + "\n")


def write_header_blocks(path, kind: str, header: dict, blocks):
    """One sorted-key JSON line of header, kind and version, then each block as <f8."""
    header = {**header, "kind": kind, "version": VERSIONS[kind]}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for block in blocks:
            f.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def _read_header(f, path) -> dict:
    """The JSON object on the first line of the open file f."""
    try:  # bad UTF-8 and bad JSON are ValueErrors
        header = json.loads(f.readline().decode("utf-8"))
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: first line is not a JSON header object")
    return header


def file_kind(path):
    """The kind a file of the shared layout declares in its header."""
    with open(path, "rb") as f:
        return _read_header(f, path).get("kind")


def read_header_blocks(path, kind: str, block_shapes_from_header):
    """(header, blocks) of a file of this kind; each is a DataFormatError naming the path:
    a bad header, another kind or version, a missing field, a short block, trailing bytes."""
    with open(path, "rb") as f:
        header = _read_header(f, path)
        if header.get("kind") != kind:
            raise DataFormatError(f"{path}: not a {kind} file (kind {header.get('kind')!r})")
        missing = [field for field in ("version", *FIELDS[kind]) if field not in header]
        if missing:
            raise DataFormatError(f"{path}: {kind} header lacks {', '.join(missing)}")
        if header["version"] != VERSIONS[kind]:
            raise DataFormatError(f"{path}: unsupported {kind} version {header['version']!r}")
        blocks = []
        for shape in block_shapes_from_header(header):
            count = int(np.prod(shape))
            raw = f.read(8 * count)
            if len(raw) != 8 * count:
                raise DataFormatError(f"{path}: truncated block")
            blocks.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes beyond declared blocks")
    return header, blocks


def write_dataset(
    path,
    signals: np.ndarray,
    scheme_ref: str,
    truth_elements: np.ndarray = None,
    seed: int = 0,
):
    """Voxel dataset: signals (n, m) plus optional truth (n, 6)."""
    signals = np.asarray(signals, dtype=np.float64)
    n, m = signals.shape
    header = {
        "n_voxels": n,
        "m": m,
        "has_ground_truth": truth_elements is not None,
        "has_s0": False,  # version 1 declares an S0 block that no writer fills
        "seed": seed,
        "scheme_ref": scheme_ref,
    }
    blocks = [signals]
    if truth_elements is not None:
        truth_elements = np.asarray(truth_elements, dtype=np.float64)
        if truth_elements.shape != (n, 6):
            raise DataFormatError("truth block must be (n_voxels, 6)")
        blocks.append(truth_elements)
    write_header_blocks(path, "dataset", header, blocks)


def read_dataset(path):
    """Returns (header, signals, truth_elements | None, scheme).

    scheme_ref is resolved relative to the dataset file's directory. Signals
    must be finite and >= 0 and truth finite; the error names the first bad
    voxel.
    """

    def shapes(header):
        n, m = header["n_voxels"], header["m"]
        return [(n, m), (n, 6)] if header["has_ground_truth"] else [(n, m)]

    header, blocks = read_header_blocks(path, "dataset", shapes)
    signals = blocks[0]
    truth = blocks[1] if header["has_ground_truth"] else None
    # min/max propagate NaN, so two reductions cover every bad value
    if not (signals.min(initial=0.0) >= 0 and np.isfinite(signals.max(initial=0.0))):
        voxel, m = np.argwhere(~(np.isfinite(signals) & (signals >= 0)))[0]
        raise DataFormatError(
            f"{path}: voxel {voxel}, measurement {m}: signal {float(signals[voxel, m])!r} "
            "must be finite and >= 0"
        )
    if truth is not None and not np.isfinite(truth).all():
        voxel, k = np.argwhere(~np.isfinite(truth))[0]
        raise DataFormatError(
            f"{path}: voxel {voxel}, tensor element {k}: truth {float(truth[voxel, k])!r} "
            "must be finite"
        )
    ref = Path(path).parent / header["scheme_ref"]
    scheme = read_bvec_bval(str(ref) + ".bvec", str(ref) + ".bval")
    if scheme.n_measurements != header["m"]:
        raise DataFormatError(f"{path}: scheme length disagrees with header")
    return header, signals, truth, scheme


def write_fits(path, params: np.ndarray, estimator: str):
    """Fitted parameters (n, 7): six tensor elements plus ln S0 per voxel."""
    params = np.asarray(params, dtype=np.float64)
    header = {"n_voxels": params.shape[0], "estimator": estimator}
    write_header_blocks(path, "fits", header, [params])


def read_fits(path):
    header, (params,) = read_header_blocks(path, "fits", lambda h: [(h["n_voxels"], 7)])
    return header, params


def write_predictions(path, table: np.ndarray, method: str, meta: dict = None):
    """Per-voxel estimates and uncertainties; columns PREDICTION_COLUMNS."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(PREDICTION_COLUMNS):
        raise DataFormatError("prediction table has wrong width")
    header = {"n_voxels": table.shape[0], "columns": list(PREDICTION_COLUMNS), "method": method}
    if meta:
        header["meta"] = meta
    write_header_blocks(path, "predictions", header, [table])


def read_predictions(path):
    def shapes(header):
        if header["columns"] != list(PREDICTION_COLUMNS):
            raise DataFormatError(f"{path}: unexpected column set")
        return [(header["n_voxels"], len(PREDICTION_COLUMNS))]

    header, (table,) = read_header_blocks(path, "predictions", shapes)
    return header, table


def write_metrics_json(path, metrics: dict):
    with open(path, "w") as f:
        json.dump(metrics, f, sort_keys=True, indent=2)
        f.write("\n")


def write_curve_csv(path, curve):
    """CSV with header beta,mpiw,mpiw_norm,picp."""
    top = float(curve.mpiw[-1])
    with open(path, "w") as f:
        f.write("beta,mpiw,mpiw_norm,picp\n")
        for beta, mpiw, picp in zip(curve.beta_grid, curve.mpiw, curve.picp):
            f.write(
                f"{float(beta)!r},{float(mpiw)!r},{float(mpiw) / top!r},{float(picp)!r}\n"
            )


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, config_text: str, seed: int, outputs):
    """Manifest for one run: config hash, seed, versions, output hashes."""
    from . import __version__

    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "seed": seed,
        "versions": {"dticalib": __version__, "numpy": np.__version__},
        "outputs": {
            str(Path(p).relative_to(out_dir)): sha256_file(p) for p in sorted(outputs)
        },
    }
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    return path
