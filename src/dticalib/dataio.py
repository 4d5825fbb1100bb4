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
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np

from .tensor import DIRECTION_NORM_TOL, GradientScheme

# the one format version of each binary kind, and the header fields its
# readers use with their JSON types; a reader refuses another kind, another
# version, a missing field or one of another type, and a negative int field
# (a block size or a seed, and neither can be negative)
VERSIONS = {"dataset": 1, "fits": 1, "predictions": 1, "mlp_checkpoint": 1}
FIELDS = {
    "dataset": {"n_voxels": int, "m": int, "has_ground_truth": bool, "scheme_ref": str},
    "fits": {"n_voxels": int},
    "predictions": {"n_voxels": int, "columns": list, "method": str},
    "mlp_checkpoint": {"n_parameters": int, "spec": dict, "seed": int},
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


# a sha256 digest as manifest.json records it
SHA256_HEX = re.compile("[0-9a-f]{64}")


class DataFormatError(ValueError):
    pass


def read_bvec_bval(bvec_path, bval_path) -> GradientScheme:
    """FSL-style tables: bval = one row of m numbers, bvec = three rows.

    A direction is renormalized only when its norm strays more than
    DIRECTION_NORM_TOL from unity, so a table that write_bvec_bval wrote reads
    back bit for bit; a b > 0 direction more than 1e-3 off warns. Zero
    vectors are kept for b = 0. Every refusal names the file it concerns.
    """
    bvals = _parse_rows(bval_path, expected_rows=1)[0]
    rows = _parse_rows(bvec_path, expected_rows=3)
    if len({len(r) for r in rows} | {len(bvals)}) != 1:
        raise DataFormatError(f"{bvec_path}, {bval_path}: bvec/bval measurement counts disagree")
    directions = np.stack(rows, axis=1).astype(np.float64)
    bvals = np.asarray(bvals, dtype=np.float64)
    norms = np.linalg.norm(directions, axis=1)
    for i, (norm, b) in enumerate(zip(norms, bvals)):
        if not np.isfinite(norm):  # GradientScheme refuses it below
            continue
        if b > 0:
            if norm == 0:
                raise DataFormatError(f"{bvec_path}: zero direction with b>0 at column {i}")
            if abs(norm - 1.0) > 1e-3:
                warnings.warn(f"renormalizing direction {i} (norm {norm:.6f})")
        if norm > 0 and abs(norm - 1.0) > DIRECTION_NORM_TOL:
            directions[i] /= norm
    try:
        return GradientScheme(directions, bvals)
    except ValueError as exc:  # each message starts with the field it refuses
        path = bval_path if str(exc).startswith("bvalues") else bvec_path
        raise DataFormatError(f"{path}: {exc}") from None


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


def _checked_header(f, path, kind: str, block_shapes_from_header):
    """(header, block shapes) of the open file f of this kind, left at its first
    block; each refusal is a DataFormatError naming the path: a bad header, another
    kind or version, a missing field or one of another type, a negative size, a
    short block, trailing bytes. Block sizes are checked against the file size, in
    Python ints, before any block is allocated or read."""
    header = _read_header(f, path)
    if header.get("kind") != kind:
        raise DataFormatError(f"{path}: not a {kind} file (kind {header.get('kind')!r})")
    fields = {"version": int, **FIELDS[kind]}
    missing = [field for field in fields if field not in header]
    if missing:
        raise DataFormatError(f"{path}: {kind} header lacks {', '.join(missing)}")
    for field, expected in fields.items():
        if type(header[field]) is not expected:  # JSON true is a bool, never an int
            value = header[field]
            raise DataFormatError(f"{path}: {kind} header field {field} = {value!r} "
                                  f"is not {expected.__name__}")
    if header["version"] != VERSIONS[kind]:
        raise DataFormatError(f"{path}: unsupported {kind} version {header['version']!r}")
    for field, expected in FIELDS[kind].items():
        if expected is int and header[field] < 0:
            raise DataFormatError(f"{path}: {kind} header field {field} = "
                                  f"{header[field]} must be >= 0")
    shapes = block_shapes_from_header(header)
    declared = sum(8 * math.prod(shape) for shape in shapes)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if declared > left:
        raise DataFormatError(f"{path}: truncated block")
    if declared < left:
        raise DataFormatError(f"{path}: trailing bytes beyond declared blocks")
    return header, shapes


def _read_block(f, path, shape) -> np.ndarray:
    """The next block of the open file f, of this shape."""
    block = np.empty(shape, dtype="<f8")
    if f.readinto(block) != block.nbytes:  # the file shrank since fstat
        raise DataFormatError(f"{path}: truncated block")
    return block


def read_header_blocks(path, kind: str, block_shapes_from_header):
    """(header, blocks) of a file of this kind, checked as _checked_header says."""
    with open(path, "rb") as f:
        header, shapes = _checked_header(f, path, kind, block_shapes_from_header)
        blocks = [_read_block(f, path, shape) for shape in shapes]
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


def _dataset_shapes(path):
    """The block shapes of a dataset header: signals (n, m), then truth (n, 6)
    if it has one. A dataset holds at least one voxel."""

    def shapes(header):
        n, m = header["n_voxels"], header["m"]
        if n == 0:  # no stage has a voxel to work on
            raise DataFormatError(f"{path}: dataset header field n_voxels = 0 must be >= 1")
        return [(n, m), (n, 6)] if header["has_ground_truth"] else [(n, m)]

    return shapes


def _dataset_scheme(path, header) -> GradientScheme:
    """The scheme of a dataset header, resolved relative to the dataset file's
    directory; its length must be the header's m."""
    ref = Path(path).parent / header["scheme_ref"]
    scheme = read_bvec_bval(str(ref) + ".bvec", str(ref) + ".bval")
    if len(scheme) != header["m"]:
        raise DataFormatError(f"{path}: scheme length disagrees with header")
    return scheme


def read_dataset(path):
    """Returns (header, signals, truth_elements | None, scheme).

    scheme_ref is resolved relative to the dataset file's directory. A dataset
    holds at least one voxel. Signals must be finite and >= 0 and truth
    finite; the error names the first bad voxel.
    """
    header, blocks = read_header_blocks(path, "dataset", _dataset_shapes(path))
    signals = blocks[0]
    truth = blocks[1] if header["has_ground_truth"] else None
    # min/max propagate NaN, so two reductions cover every bad value
    if not (signals.min(initial=0.0) >= 0 and np.isfinite(signals.max(initial=0.0))):
        voxel, m = np.argwhere(~(np.isfinite(signals) & (signals >= 0)))[0]
        raise DataFormatError(
            f"{path}: voxel {voxel}, measurement {m}: signal {float(signals[voxel, m])!r} "
            "must be finite and >= 0"
        )
    if truth is not None:
        _refuse_non_finite(path, truth, "tensor element", "truth")
    return header, signals, truth, _dataset_scheme(path, header)


def read_dataset_truth(path):
    """Returns (header, truth_elements | None, scheme): read_dataset's checks of
    the header, the sizes, the truth and the scheme, but the signals block is
    skipped unread, so its values are not checked."""
    with open(path, "rb") as f:
        header, shapes = _checked_header(f, path, "dataset", _dataset_shapes(path))
        truth = None
        if header["has_ground_truth"]:
            f.seek(8 * math.prod(shapes[0]), os.SEEK_CUR)
            truth = _read_block(f, path, shapes[1])
            _refuse_non_finite(path, truth, "tensor element", "truth")
    return header, truth, _dataset_scheme(path, header)


def _refuse_non_finite(path, block, column: str, what: str):
    """DataFormatError naming path, voxel and column of the first non-finite value."""
    if not np.isfinite(block).all():
        voxel, k = np.argwhere(~np.isfinite(block))[0]
        raise DataFormatError(
            f"{path}: voxel {voxel}, {column} {k}: {what} {float(block[voxel, k])!r} "
            "must be finite"
        )


def write_fits(path, params: np.ndarray, estimator: str):
    """Fitted parameters (n, 7): six tensor elements plus ln S0 per voxel."""
    params = np.asarray(params, dtype=np.float64)
    header = {"n_voxels": params.shape[0], "estimator": estimator}
    write_header_blocks(path, "fits", header, [params])


def read_fits(path):
    """(header, params (n, 7)); params must be finite, and the error names the first
    bad voxel."""
    header, (params,) = read_header_blocks(path, "fits", lambda h: [(h["n_voxels"], 7)])
    _refuse_non_finite(path, params, "element", "fit")
    return header, params


def truth_sha256(truth: np.ndarray) -> str:
    """sha256 of a dataset's truth block as read: its little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(truth, dtype="<f8")).hexdigest()


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


def _digests_on_record(path):
    """({relative path: sha256} of the manifest at path, its stat result), or
    ({}, None) when it is missing or does not parse."""
    try:
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            outputs = json.loads(f.read().decode("utf-8"))["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}, None
    return (outputs, st) if isinstance(outputs, dict) else ({}, None)


def _unchanged_since(path, manifest: os.stat_result) -> bool:
    """Whether the file at path is shown unchanged since that manifest was
    written: its lstat and stat ctime and mtime all strictly earlier than the
    manifest's mtime, on the manifest's device. A change in the manifest's own
    timestamp tick is not shown unchanged."""
    try:
        stats = (os.lstat(path), os.stat(path))
    except OSError:
        return False
    written = manifest.st_mtime_ns
    return all(s.st_dev == manifest.st_dev and s.st_ctime_ns < written
               and s.st_mtime_ns < written for s in stats)


def write_manifest(out_dir: Path, config_text: str, seed: int, outputs):
    """Manifest for one run: config hash, seed, versions, output hashes.

    An output keeps the digest that the manifest.json already in out_dir records
    for it only when _unchanged_since shows it unchanged since that manifest was
    written; every other output, and every output when there is no such manifest
    or it does not parse, is hashed.
    """
    from . import __version__

    path = Path(out_dir) / "manifest.json"
    recorded, previous = _digests_on_record(path)
    digests = {}
    for p in sorted(outputs):
        name = str(Path(p).relative_to(out_dir))
        digest = recorded.get(name)
        if not (isinstance(digest, str) and SHA256_HEX.fullmatch(digest)
                and _unchanged_since(p, previous)):
            digest = sha256_file(p)
        digests[name] = digest
    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "seed": seed,
        "versions": {"dticalib": __version__, "numpy": np.__version__},
        "outputs": digests,
    }
    with open(path, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    return path
