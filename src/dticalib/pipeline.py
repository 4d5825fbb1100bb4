"""Pipeline stages behind the CLI subcommands.

Each stage `run_<name>(cfg)` reads and checks what it needs from an
ExperimentConfig and computes its results; it touches no file. It returns
a writer, `write(out_dir)`, that writes those results through `dataio` (or
`mlp.save_checkpoint`). `run(cfg, stage)` is the one caller of both: it
calls the stage, and only then makes out_dir, calls the writer and
refreshes the run manifest. So a refused input, or a stage that fails in
its work, leaves no out_dir and no output behind. All randomness derives
from the config seed through keyed streams, so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bootstrap as bs
from . import calibration as cal
from . import dataio, mlp, simulation
from .config import SCHEMA, ConfigError, ExperimentConfig
from .fitting import fit_cwlls_batch, fit_ols_batch, fit_wlls_batch, log_signal_rows
from .rng import CALIBRATE_SPLIT, run_stream
from .tensor import GradientScheme, eigh3_batch, principal_scalars

# per parameter, the prediction-table column that holds its sigma and the
# scale from that column to sigma: theta95 / 2 for theta (a 95th percentile
# of a folded normal sits near 2 sigma)
SIGMA_COLUMNS = {"fa": (6, 1.0), "md": (7, 1.0), "theta": (5, 0.5)}
PARAMETERS = tuple(SIGMA_COLUMNS)
# per parameter, the table columns its deviation from the truth reads (theta's is
# the angle of the table's v1 to the truth's); read_dataset_truth checks the truth
DEVIATION_COLUMNS = {"fa": "fa_hat", "md": "md_hat", "theta": "v1x, v1y, v1z"}


def run(cfg: ExperimentConfig, stage):
    """Refuse a config without out_dir, compute the stage, then make out_dir,
    write its outputs and refresh manifest.json over every file in out_dir."""
    out = cfg.out_dir
    write = stage(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write(out)
    outputs = [p for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"]
    dataio.write_manifest(out, cfg.text, cfg.seed, outputs)


def load_scheme(cfg: ExperimentConfig) -> GradientScheme:
    bvec, bval = cfg.get("scheme.bvec"), cfg.get("scheme.bval")
    if bvec and bval:
        return dataio.read_bvec_bval(bvec, bval)
    if bvec or bval:
        given, missing = ("scheme.bvec", "scheme.bval") if bvec else ("scheme.bval", "scheme.bvec")
        raise ConfigError(f"{cfg.sources[given]}: {given} is set without {missing}")
    n_dirs = cfg.get("scheme.n_directions")
    if n_dirs is None:
        raise ConfigError("scheme needs bvec/bval paths or n_directions")
    return simulation.make_scheme(n_dirs, cfg.get("scheme.bvalue"), cfg.get("scheme.n_b0"))


def _build(cfg: ExperimentConfig, section: str, cls, **fixed):
    """cls built from config by name: each field of cls that a `section.<field>`
    key of SCHEMA names takes that key's value, then `fixed` sets the rest.

    Every refusal message starts with the field it refuses, which by this rule
    is the key's last part, so a ValueError becomes a ConfigError naming the
    key's line.
    """
    keys = {f.name: f"{section}.{f.name}" for f in dataclasses.fields(cls)}
    fields = {name: cfg.get(key) for name, key in keys.items() if key in SCHEMA}
    try:
        return cls(**{**fields, **fixed})
    except ValueError as exc:
        key = f"{section}.{exc}".split()[0]
        raise ConfigError(f"{cfg.sources.get(key, 'default')}: {section}.{exc}") from exc


def run_simulate(cfg: ExperimentConfig):
    scheme = load_scheme(cfg)
    spec = _build(
        cfg, "phantom", simulation.PhantomSpec, scheme=scheme, seed=cfg.seed,
        n_voxels=cfg.get("phantom.n_voxels", required=True),
        eig_range=(cfg.get("phantom.eig_min"), cfg.get("phantom.eig_max")),
    )
    phantom = simulation.make_phantom(spec)

    def write(out):
        dataio.write_bvec_bval(out / "scheme.bvec", out / "scheme.bval", scheme)
        dataio.write_dataset(
            out / "dataset.bin", phantom.signals, "scheme", phantom.truth, seed=cfg.seed
        )

    return write


def run_fit(cfg: ExperimentConfig):
    _, signals, _, scheme = dataio.read_dataset(cfg.get("dataset.path"))
    name = cfg.get("fit.estimator")
    # looked up per call, so wrappers installed on the module bindings see it
    kernels = {"ols": fit_ols_batch, "wlls": fit_wlls_batch, "cwlls": fit_cwlls_batch}
    params = kernels[name](log_signal_rows(signals, scheme), scheme)[0]
    return lambda out: dataio.write_fits(out / "fits.bin", params, name)


def _truth_meta(truth) -> dict:
    """The prediction-table meta that records the truth a table was computed from."""
    return {} if truth is None else {"truth_sha256": dataio.truth_sha256(truth)}


def run_bootstrap(cfg: ExperimentConfig):
    _, signals, truth, scheme = dataio.read_dataset(cfg.get("dataset.path"))
    iterations = cfg.get("bootstrap.iterations")
    table = bs.wild_bootstrap_table(signals, scheme, iterations, cfg.seed)
    meta = {"iterations": iterations, **_truth_meta(truth)}
    return lambda out: dataio.write_predictions(out / "predictions_wbs.bin", table, "wbs", meta)


def _refuse_no_truth(path, truth):
    if truth is None:
        raise dataio.DataFormatError(f"{path}: dataset holds no ground-truth tensors")


def _read_truth_dataset(cfg: ExperimentConfig):
    """The truth of dataset.path, its signals block unread (the scoring stages use
    none); a dataset without truth is a data error."""
    path = cfg.get("dataset.path")
    _, truth, _ = dataio.read_dataset_truth(path)
    _refuse_no_truth(path, truth)
    return truth


def run_train(cfg: ExperimentConfig):
    path = cfg.get("dataset.path")
    _, signals, truth, scheme = dataio.read_dataset(path)
    _refuse_no_truth(path, truth)
    inputs = mlp.normalize_signals(signals, scheme)
    spec = _build(cfg, "train", mlp.MlpSpec, input_dim=len(scheme))
    tcfg = _build(cfg, "train", mlp.TrainConfig, seed=cfg.seed)
    model, history = mlp.train(inputs, truth, spec, tcfg)

    def write(out):
        mlp.save_checkpoint(out / "model.bin", model, tcfg, epoch=history.stopped_epoch)
        dataio.write_metrics_json(out / "train_history.json", dataclasses.asdict(history))

    return write


def run_predict(cfg: ExperimentConfig):
    dataset, checkpoint = cfg.get("dataset.path"), cfg.get("predict.model")
    _, signals, truth, scheme = dataio.read_dataset(dataset)
    model, _ = mlp.load_checkpoint(checkpoint)
    if model.spec.input_dim != len(scheme):
        raise dataio.DataFormatError(
            f"{checkpoint}: checkpoint input_dim {model.spec.input_dim} does not match "
            f"the {len(scheme)} measurements of {dataset}"
        )
    n_samples = cfg.get("predict.samples")
    inputs = mlp.normalize_signals(signals, scheme)
    points, u = model.predict(inputs)
    fa, md, v1 = tensor_scalars(points)
    spread = np.empty((len(inputs), 3))
    for rows in bs.voxel_chunks(len(inputs), n_samples):  # whole voxels per forward
        samples = mlp.predict_mc_dropout(
            model, inputs[rows], n_samples, seed=cfg.seed, voxels=range(len(inputs))[rows]
        )
        spread[rows] = bs.summarize_uncertainty(samples)
    table = np.column_stack([fa, md, v1, spread, u])
    meta = {"samples": n_samples, **_truth_meta(truth)}
    return lambda out: dataio.write_predictions(
        out / "predictions_dl.bin", table, "mc_dropout", meta
    )


def tensor_scalars(elements: np.ndarray):
    """(fa, md, v1) of (n, 6) tensor rows: (n,), (n,) and principal axes (n, 3).

    FA and MD are tensor.fa_md's. v1 is `principal_scalars`' closed form, but
    eigh3_batch's on the loose rows (called also with none, so a traced run
    sees the fallback). fa_md's NaN rows are refused before any eigensolve.
    """
    elements = np.asarray(elements, dtype=np.float64)
    fa, md, v1, loose = principal_scalars(elements)
    bad = np.flatnonzero(np.isnan(md))
    if bad.size:
        raise ValueError(f"tensor row {bad[0]} is non-finite or its trace overflows")
    v1[loose] = eigh3_batch(elements[loose])[1][:, 0]
    return fa, md, v1


def angular_error_deg(v_hat: np.ndarray, v_true: np.ndarray) -> np.ndarray:
    cosines = np.clip(np.abs(np.sum(v_hat * v_true, axis=1)), 0.0, 1.0)
    return np.degrees(np.arccos(cosines))


def _row_error(path, rows, row: int, column: str, detail: str):
    """DataFormatError naming the table path, the column and the row in the file of
    row `row` of the rows scored: rows holds each one's row in the file, and is
    None when the rows scored are the file's."""
    at = row if rows is None else int(rows[row])
    return dataio.DataFormatError(f"{path}: row {at}, {column}: {detail}")


@dataclasses.dataclass(frozen=True)
class _Scored:
    """A table as a scoring stage scores it: the rows of table that rows lists
    (all when None; see _row_error), the truth's tensor_scalars of those rows,
    and the table's checked meta.truth_sha256 (or None)."""
    path: object
    header: dict
    table: np.ndarray
    rows: np.ndarray | None
    truth: tuple
    digest: str | None


def triples_by_parameter(view: _Scored, uncertainty="epistemic"):
    """Per-parameter Triples of the rows a scored view scores, against its truth.

    theta uses the angular error as the deviation; each sigma is its
    SIGMA_COLUMNS column times its scale. With uncertainty="aleatoric",
    exp(u) replaces the per-parameter sigma. A refused row is a data error
    naming the view's path, the column and the row in the file (see _row_error).
    """
    table = view.table if view.rows is None else view.table[view.rows]
    fa_true, md_true, v_true = view.truth
    truth = {"fa": fa_true, "md": md_true, "theta": angular_error_deg(table[:, 2:5], v_true)}
    estimate = {"fa": table[:, 0], "md": table[:, 1], "theta": np.zeros(len(table))}
    if uncertainty == "aleatoric":
        bad = np.flatnonzero(~np.isfinite(table[:, 8]))
        if bad.size:
            u = float(table[bad[0], 8])
            raise _row_error(view.path, view.rows, bad[0], "aleatoric_u",
                             f"aleatoric sigma requested, but u = {u!r} is not finite")
        sigma = dict.fromkeys(PARAMETERS, np.exp(table[:, 8]))
        names = dict.fromkeys(PARAMETERS, "aleatoric_u")
    else:
        sigma = {p: table[:, col] * scale for p, (col, scale) in SIGMA_COLUMNS.items()}
        names = {p: dataio.PREDICTION_COLUMNS[col] for p, (col, _) in SIGMA_COLUMNS.items()}
    triples = {}
    for p in PARAMETERS:
        try:
            triples[p] = cal.triples_from_arrays(truth[p], estimate[p], sigma[p])
        except cal.RowError as exc:
            column = names[p] if exc.array == "sigma" else DEVIATION_COLUMNS[p]
            raise _row_error(view.path, view.rows, exc.row, column, exc.detail) from None
    return triples


def _check_truth_digest(cfg: ExperimentConfig, table_path, header: dict, truth, actual=None):
    """DataFormatError when the table's meta.truth_sha256, if it has one, is not
    the digest of dataset.path's truth; returns the digest, or None. Only a
    table with the field needs the truth's digest: actual, when given (one
    already checked against this truth), else the truth hashed here."""
    meta = header.get("meta")
    recorded = meta.get("truth_sha256") if isinstance(meta, dict) else None
    if recorded is not None and recorded != (actual := actual or dataio.truth_sha256(truth)):
        raise dataio.DataFormatError(
            f"{table_path}: meta.truth_sha256 = {recorded} does not match the truth of "
            f"{cfg.get('dataset.path')} ({actual})"
        )
    return recorded


def _load_scored(cfg: ExperimentConfig, key: str, rows=None, read=None, recalibrated=None):
    """[_Scored] of the table at config key `key`, checked in order: dataset.path
    holds truth; the table (read by read, else dataio.read_predictions) holds one
    row per voxel; its meta.truth_sha256 is the truth's. The rows scored are
    rows(row count), or all when rows is None. With recalibrated, a recalibrated
    file's path, they are the distinct rows of the table its meta.holdout lists,
    one per row of that file, whose meta.truth_sha256 is then checked; a second
    view scores that file against the same truth scalars, decomposed once."""
    truth = _read_truth_dataset(cfg)
    path = cfg.get(key)
    header, table = read(path) if read else dataio.read_predictions(path)
    if len(table) != len(truth):
        raise dataio.DataFormatError(
            f"{path}: the table holds {len(table)} rows, but "
            f"{cfg.get('dataset.path')} holds {len(truth)} voxels"
        )
    digest = _check_truth_digest(cfg, path, header, truth)
    scored = rows(len(table)) if rows else None
    if recalibrated is not None:
        recal_header, recal = dataio.read_predictions(recalibrated)
        meta = recal_header.get("meta")
        scored = np.asarray(meta.get("holdout") if isinstance(meta, dict) else None)
        n = len(recal)
        if scored.shape != (n,) or n and not (
            scored.dtype.kind == "i" and 0 <= scored.min() and scored.max() < len(table)
            and np.count_nonzero(np.bincount(scored)) == n
        ):
            raise dataio.DataFormatError(
                f"{recalibrated}: meta.holdout must hold one row index of {path} "
                f"(below {len(table)}) per recalibrated row, {n} in all, none repeated"
            )
        recal_digest = _check_truth_digest(cfg, recalibrated, recal_header, truth, digest)
    scalars = tensor_scalars(truth if scored is None else truth[scored])
    views = [_Scored(path, header, table, scored, scalars, digest)]
    if recalibrated is not None:
        views.append(_Scored(recalibrated, recal_header, recal, None, scalars, recal_digest))
    return views


def _metrics(cfg: ExperimentConfig, view: _Scored, uncertainty):
    """Metrics of the rows a scored view scores (see triples_by_parameter)."""
    bins, grid = cfg.get("metrics.bins"), cfg.get("metrics.grid_size")
    out = {}
    for p, t in triples_by_parameter(view, uncertainty).items():
        entry = {
            "n": len(t.truth),
            "bins": bins,
            "median_abs_error": float(np.median(np.abs(t.truth - t.estimate))),
        }
        if np.all(t.sigma > 0):
            entry["ence"] = cal.ence(cal.bin_rmv_rmse(t, bins))
            entry["aucc"] = cal.picp_mpiw_curve(t, cfg.get(f"metrics.mpiw_cap.{p}"), grid).aucc
        else:
            entry["ence"] = None
            entry["aucc"] = None
        out[p] = entry
    return out


def _load_table_for_eval(path):
    """(header, predictions table) from either a predictions file or a fits file;
    a fits file's header counts as empty."""
    kind = dataio.file_kind(path)
    if kind == "predictions":
        return dataio.read_predictions(path)
    if kind == "fits":
        _, params = dataio.read_fits(path)
        n = len(params)
        zeros = np.zeros(n)
        fa, md, v1 = tensor_scalars(params[:, :6])
        return {}, np.column_stack([fa, md, v1, zeros, zeros, zeros, np.full(n, np.nan)])
    raise dataio.DataFormatError(f"{path}: cannot evaluate file of kind {kind!r}")


def _check_bins(cfg: ExperimentConfig, rows: dict, context: str = "", least: int = 1):
    """ConfigError naming metrics.bins unless it is at least `least` and at most
    the rows of each scored table ({name: row count})."""
    bins = cfg.get("metrics.bins")
    if bins < least or min(rows.values()) < bins:
        counts = ", ".join(f"{name} holds {n}" for name, n in rows.items())
        raise ConfigError(
            f"{cfg.sources.get('metrics.bins', 'default')}: metrics.bins = {bins} must be at "
            f"least {least} and at most the rows of each scored table; {counts}{context}"
        )


def run_evaluate(cfg: ExperimentConfig):
    uncertainty = cfg.get("evaluate.uncertainty")
    views = _load_scored(cfg, "evaluate.predictions", read=_load_table_for_eval,
                         recalibrated=cfg.get("evaluate.recalibrated"))
    names = [str(v.path) if v.rows is None else f"held-out rows of {v.path}" for v in views]
    _check_bins(cfg, {name: len(v.truth[0]) for name, v in zip(names, views)})
    scores = [_metrics(cfg, v, uncertainty) for v in views]
    metrics = scores[0] if len(scores) == 1 else dict(zip(("before", "after"), scores))
    return lambda out: dataio.write_metrics_json(out / "metrics.json", metrics)


def run_calibrate(cfg: ExperimentConfig):
    """Fit isotonic maps on a calibration split; recalibrate the held-out rows.

    The split shuffles voxel indices with the config seed's calibrate-split
    stream and fits on the first round(calibrate.split * n) of them, holding
    out the rest (a stand-in for the held-out-scan split real cohorts would
    use).
    """
    if cfg.get("evaluate.uncertainty") == "aleatoric":
        # the maps recalibrate the three per-parameter sigma columns; one
        # aleatoric u column cannot carry three maps
        raise ConfigError(
            "calibrate needs evaluate.uncertainty = epistemic: it recalibrates the "
            "per-parameter sigma columns, not the aleatoric u column"
        )
    split = cfg.get("calibrate.split")

    def calibration_split(n):
        perm = run_stream(cfg.seed, CALIBRATE_SPLIT).permutation(n)
        cal_idx = np.sort(perm[: int(round(split * n))])
        rows = {"calibration split": len(cal_idx), "held-out split": n - len(cal_idx)}
        where = cfg.sources.get("calibrate.split", "default")
        # an isotonic map needs at least 2 bins
        _check_bins(cfg, rows, f" of {n} rows split by calibrate.split = {split} ({where})", 2)
        return cal_idx

    (view,) = _load_scored(cfg, "calibrate.predictions", rows=calibration_split)
    holdout = np.delete(np.arange(len(view.table)), view.rows)
    triples_cal = triples_by_parameter(view)
    maps = {p: cal.fit_isotonic(triples_cal[p], cfg.get("metrics.bins")) for p in PARAMETERS}

    recal = view.table[holdout]
    for p, (col, scale) in SIGMA_COLUMNS.items():
        try:
            recal[:, col] = cal.recalibrate(maps[p], recal[:, col] * scale) / scale
        except cal.RowError as exc:
            column = dataio.PREDICTION_COLUMNS[col]
            raise _row_error(view.path, holdout, exc.row, column, exc.detail) from None

    maps_json = {
        p: {"breakpoints": maps[p].breakpoints.tolist(), "values": maps[p].values.tolist()}
        for p in PARAMETERS
    }
    meta = {"recalibrated": True, "holdout": holdout.tolist()}
    if view.digest is not None:
        meta["truth_sha256"] = view.digest

    def write(out):
        dataio.write_metrics_json(out / "calibration_maps.json", maps_json)
        dataio.write_predictions(
            out / "predictions_recalibrated.bin", recal, view.header["method"], meta
        )

    return write


def run_curves(cfg: ExperimentConfig):
    (view,) = _load_scored(cfg, "curves.predictions")
    triples = triples_by_parameter(view, cfg.get("evaluate.uncertainty"))
    grid = cfg.get("metrics.grid_size")
    curves = [cal.picp_mpiw_curve(triples[p], cfg.get(f"metrics.mpiw_cap.{p}"), grid)
              for p in PARAMETERS]

    def write(out):
        for p, curve in zip(PARAMETERS, curves):
            dataio.write_curve_csv(out / f"curves_{p}.csv", curve)

    return write
