"""Pipeline steps behind the CLI subcommands.

Each step reads what it needs from an ExperimentConfig, writes its outputs
under the config's out_dir, and refreshes the run manifest. All randomness
derives from the config seed through keyed streams, so reruns are
byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import bootstrap as bs
from . import calibration as cal
from . import dataio, mlp, simulation
from .config import ConfigError, ExperimentConfig
from .fitting import as_signal_rows, fit_cwlls_batch, fit_ols_batch, fit_wlls_batch
from .rng import rng_from_key
from .tensor import GradientScheme, eigh3_batch, elements_to_matrices, fa_md_from_eigenvalues

PARAMETERS = ("fa", "md", "theta")


def _ensure_out_dir(cfg: ExperimentConfig) -> Path:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _refresh_manifest(cfg: ExperimentConfig, out_dir: Path):
    outputs = [
        p
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    ]
    dataio.write_manifest(out_dir, cfg.text, cfg.seed, outputs)


def load_scheme(cfg: ExperimentConfig) -> GradientScheme:
    bvec, bval = cfg.get("scheme.bvec"), cfg.get("scheme.bval")
    if bvec and bval:
        return dataio.read_bvec_bval(bvec, bval)
    n_dirs = cfg.get("scheme.n_directions")
    if n_dirs is None:
        raise ConfigError("scheme needs bvec/bval paths or n_directions")
    return simulation.make_scheme(n_dirs, cfg.get("scheme.bvalue"), cfg.get("scheme.n_b0"))


def _build(cfg: ExperimentConfig, section: str, cls, **fields):
    """cls(**fields), whose ValueError becomes a ConfigError naming the key's line."""
    try:
        return cls(**fields)
    except ValueError as exc:  # each message starts with the field: the key's last part
        key = f"{section}.{exc}".split()[0]
        raise ConfigError(f"{cfg.sources.get(key, 'default')}: {section}.{exc}") from exc


def _phantom_spec(cfg: ExperimentConfig, scheme: GradientScheme) -> simulation.PhantomSpec:
    return _build(
        cfg,
        "phantom",
        simulation.PhantomSpec,
        n_voxels=cfg.get("phantom.n_voxels", required=True),
        scheme=scheme,
        generator=cfg.get("phantom.generator"),
        fa_target=cfg.get("phantom.fa_target"),
        md=cfg.get("phantom.md"),
        eig_range=(cfg.get("phantom.eig_min"), cfg.get("phantom.eig_max")),
        shift=cfg.get("phantom.shift"),
        orientation=cfg.get("phantom.orientation"),
        snr_db=cfg.get("phantom.snr_db"),
        seed=cfg.seed,
    )


def run_simulate(cfg: ExperimentConfig) -> Path:
    scheme = load_scheme(cfg)
    spec = _phantom_spec(cfg, scheme)
    out = _ensure_out_dir(cfg)
    phantom = simulation.make_phantom(spec)
    dataio.write_bvec_bval(out / "scheme.bvec", out / "scheme.bval", scheme)
    path = out / "dataset.bin"
    dataio.write_dataset(path, phantom.signals, "scheme", phantom.truth, seed=cfg.seed)
    _refresh_manifest(cfg, out)
    return path


def run_fit(cfg: ExperimentConfig) -> Path:
    out = _ensure_out_dir(cfg)
    _, signals, _, scheme = dataio.read_dataset(cfg.get("dataset.path"))
    name = cfg.get("fit.estimator")
    # looked up per call, so wrappers installed on the module bindings see it
    kernels = {"ols": fit_ols_batch, "wlls": fit_wlls_batch, "cwlls": fit_cwlls_batch}
    params = kernels[name](as_signal_rows(signals, scheme), scheme)[0]
    path = out / "fits.bin"
    dataio.write_fits(path, params, name)
    _refresh_manifest(cfg, out)
    return path


def run_bootstrap(cfg: ExperimentConfig) -> Path:
    out = _ensure_out_dir(cfg)
    _, signals, _, scheme = dataio.read_dataset(cfg.get("dataset.path"))
    iterations = cfg.get("bootstrap.iterations")
    seeds = _voxel_seeds(cfg.seed, len(signals))
    table = bs.wild_bootstrap_table(signals, scheme, iterations, seeds)
    path = out / "predictions_wbs.bin"
    dataio.write_predictions(path, table, "wbs", meta={"iterations": iterations})
    _refresh_manifest(cfg, out)
    return path


def _read_truth_dataset(cfg: ExperimentConfig):
    """(signals, truth, scheme) of dataset.path; a dataset without truth is a data error."""
    path = cfg.get("dataset.path")
    _, signals, truth, scheme = dataio.read_dataset(path)
    if truth is None:
        raise dataio.DataFormatError(f"{path}: dataset holds no ground-truth tensors")
    return signals, truth, scheme


def _voxel_seeds(seed: int, n_voxels: int) -> list:
    # fold each (seed, voxel) into one integer key; the voxel's replicate stream keys off it
    return [int(np.random.SeedSequence([seed, v]).generate_state(1)[0]) for v in range(n_voxels)]


def run_train(cfg: ExperimentConfig) -> Path:
    signals, truth, scheme = _read_truth_dataset(cfg)
    inputs = mlp.normalize_signals(signals, scheme)
    spec = _build(
        cfg,
        "train",
        mlp.MlpSpec,
        input_dim=scheme.n_measurements,
        hidden_widths=cfg.get("train.hidden_widths"),
        uncertainty_widths=cfg.get("train.uncertainty_widths"),
        dropout_rate=cfg.get("train.dropout_rate"),
    )
    tcfg = _build(
        cfg,
        "train",
        mlp.TrainConfig,
        penalty=cfg.get("train.penalty"),
        learning_rate=cfg.get("train.learning_rate"),
        batch_size=cfg.get("train.batch_size"),
        epochs=cfg.get("train.epochs"),
        seed=cfg.seed,
        val_fraction=cfg.get("train.val_fraction"),
        eval_every=cfg.get("train.eval_every"),
        stop_patience=cfg.get("train.stop_patience"),
    )
    out = _ensure_out_dir(cfg)
    model, history = mlp.train(inputs, truth, spec, tcfg)
    path = out / "model.bin"
    mlp.save_checkpoint(path, model, tcfg, epoch=history.stopped_epoch)
    _refresh_manifest(cfg, out)
    return path


def run_predict(cfg: ExperimentConfig) -> Path:
    out = _ensure_out_dir(cfg)
    _, signals, _, scheme = dataio.read_dataset(cfg.get("dataset.path"))
    model, _ = mlp.load_checkpoint(cfg.get("predict.model"))
    n_samples = cfg.get("predict.samples")
    inputs = mlp.normalize_signals(signals, scheme)
    points, u = model.predict(inputs)
    evals, evecs = eigh3_batch(elements_to_matrices(points))
    fa, md = fa_md_from_eigenvalues(evals)
    seeds = _voxel_seeds(cfg.seed, len(inputs))
    spread = np.empty((len(inputs), 3))
    for voxels in bs.voxel_chunks(len(inputs), n_samples):  # whole voxels per forward
        samples = mlp.predict_mc_dropout(model, inputs[voxels], n_samples, seeds=seeds[voxels])
        spread[voxels] = bs.summarize_uncertainty(samples)
    table = np.column_stack([fa, md, evecs[:, 0, :], spread, u])
    path = out / "predictions_dl.bin"
    dataio.write_predictions(path, table, "mc_dropout", meta={"samples": n_samples})
    _refresh_manifest(cfg, out)
    return path


def truth_scalars(truth_elements: np.ndarray):
    evals, evecs = eigh3_batch(elements_to_matrices(truth_elements))
    fa, md = fa_md_from_eigenvalues(evals)
    return fa, md, evecs[:, 0, :]


def angular_error_deg(v_hat: np.ndarray, v_true: np.ndarray) -> np.ndarray:
    cosines = np.clip(np.abs(np.sum(v_hat * v_true, axis=1)), 0.0, 1.0)
    return np.degrees(np.arccos(cosines))


def triples_by_parameter(table: np.ndarray, true_scalars, uncertainty="epistemic"):
    """Per-parameter Triples from a prediction table and truth_scalars output.

    theta uses the angular error as the deviation and theta95/2 as the
    sigma proxy (a 95th percentile of a folded normal sits near 2 sigma).
    With uncertainty="aleatoric", exp(u) replaces the per-parameter sigma.
    """
    fa_true, md_true, v_true = true_scalars
    theta_err = angular_error_deg(table[:, 2:5], v_true)
    if uncertainty == "aleatoric":
        if np.any(~np.isfinite(table[:, 8])):
            raise ValueError("aleatoric sigma requested but u column is not finite")
        sig_fa = sig_md = sig_theta = np.exp(table[:, 8])
    else:
        sig_fa = table[:, 6]
        sig_md = table[:, 7]
        sig_theta = table[:, 5] / 2.0
    return {
        "fa": cal.triples_from_arrays(fa_true, table[:, 0], sig_fa),
        "md": cal.triples_from_arrays(md_true, table[:, 1], sig_md),
        "theta": cal.triples_from_arrays(theta_err, np.zeros(len(table)), sig_theta),
    }


def _metric_params(cfg: ExperimentConfig):
    caps = {p: cfg.get(f"metrics.mpiw_cap.{p}") for p in PARAMETERS}
    return cfg.get("metrics.bins"), cfg.get("metrics.grid_size"), caps


def _metrics_for_table(table, true_scalars, bins, grid, caps, uncertainty):
    """Metrics of one table against truth_scalars output for the same rows."""
    out = {}
    triples = triples_by_parameter(table, true_scalars, uncertainty)
    for p in PARAMETERS:
        t = triples[p]
        entry = {
            "n": int(len(table)),
            "bins": bins,
            "median_abs_error": float(np.median(np.abs(t.truth - t.estimate))),
        }
        if np.all(t.sigma > 0):
            entry["ence"] = cal.ence(cal.bin_rmv_rmse(t, bins))
            entry["aucc"] = cal.picp_mpiw_curve(t, caps[p], grid).aucc
        else:
            entry["ence"] = None
            entry["aucc"] = None
        out[p] = entry
    return out


def _load_table_for_eval(path):
    """Predictions table from either a predictions file or a fits file."""
    kind = dataio.file_kind(path)
    if kind == "predictions":
        _, table = dataio.read_predictions(path)
        return table
    if kind == "fits":
        _, params = dataio.read_fits(path)
        evals, evecs = eigh3_batch(elements_to_matrices(params[:, :6]))
        fa, md = fa_md_from_eigenvalues(evals)
        n = len(params)
        zeros = np.zeros(n)
        return np.column_stack(
            [fa, md, evecs[:, 0, :], zeros, zeros, zeros, np.full(n, np.nan)]
        )
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


def run_evaluate(cfg: ExperimentConfig) -> Path:
    uncertainty = cfg.get("evaluate.uncertainty")
    _, truth, _ = _read_truth_dataset(cfg)
    pred_path = cfg.get("evaluate.predictions")
    table = _load_table_for_eval(pred_path)
    bins, grid, caps = _metric_params(cfg)
    recal_path = cfg.get("evaluate.recalibrated")
    if recal_path is not None:
        header, recal_table = dataio.read_predictions(recal_path)
        meta = header.get("meta")
        holdout = np.asarray(meta.get("holdout") if isinstance(meta, dict) else None)
        n = len(recal_table)
        if holdout.shape != (n,) or n and not (
            holdout.dtype.kind == "i" and 0 <= holdout.min() and holdout.max() < len(table)
        ):
            raise dataio.DataFormatError(
                f"{recal_path}: meta.holdout must hold one row index of {pred_path} "
                f"(below {len(table)}) per recalibrated row, {n} in all"
            )
        rows = {f"held-out rows of {pred_path}": len(holdout), str(recal_path): len(recal_table)}
        _check_bins(cfg, rows)
        held_truth = truth_scalars(truth[holdout])
        metrics = {
            "before": _metrics_for_table(
                table[holdout], held_truth, bins, grid, caps, uncertainty
            ),
            "after": _metrics_for_table(
                recal_table, held_truth, bins, grid, caps, uncertainty
            ),
        }
    else:
        _check_bins(cfg, {str(pred_path): len(table)})
        metrics = _metrics_for_table(
            table, truth_scalars(truth), bins, grid, caps, uncertainty
        )
    out = _ensure_out_dir(cfg)
    path = out / "metrics.json"
    dataio.write_metrics_json(path, metrics)
    _refresh_manifest(cfg, out)
    return path


def run_calibrate(cfg: ExperimentConfig) -> Path:
    """Fit isotonic maps on a calibration split; recalibrate the held-out rows.

    The split shuffles voxel indices with the config seed and assigns by
    parity (a stand-in for the held-out-scan split real cohorts would use);
    a calibrate.split fraction other than 0.5 takes a prefix of the shuffle
    instead.
    """
    if cfg.get("evaluate.uncertainty") == "aleatoric":
        # the maps recalibrate the three per-parameter sigma columns; one
        # aleatoric u column cannot carry three maps
        raise ConfigError(
            "calibrate needs evaluate.uncertainty = epistemic: it recalibrates the "
            "per-parameter sigma columns, not the aleatoric u column"
        )
    _, truth, _ = _read_truth_dataset(cfg)
    header, table = dataio.read_predictions(cfg.get("calibrate.predictions"))
    bins, _, _ = _metric_params(cfg)

    n = len(table)
    split = cfg.get("calibrate.split")
    perm = rng_from_key(cfg.seed, 2).permutation(n)
    if split == 0.5:
        cal_idx, holdout = np.sort(perm[0::2]), np.sort(perm[1::2])
    else:
        cut = int(round(split * n))
        cal_idx, holdout = np.sort(perm[:cut]), np.sort(perm[cut:])
    rows = {"calibration split": len(cal_idx), "held-out split": len(holdout)}
    where = cfg.sources.get("calibrate.split", "default")
    # an isotonic map needs at least 2 bins
    _check_bins(cfg, rows, f" of {n} rows split by calibrate.split = {split} ({where})", 2)
    out = _ensure_out_dir(cfg)

    triples_cal = triples_by_parameter(table[cal_idx], truth_scalars(truth[cal_idx]))
    maps = {p: cal.fit_isotonic(triples_cal[p], bins) for p in PARAMETERS}

    recal = table[holdout].copy()
    recal[:, 6] = cal.recalibrate(maps["fa"], recal[:, 6])
    recal[:, 7] = cal.recalibrate(maps["md"], recal[:, 7])
    recal[:, 5] = 2.0 * cal.recalibrate(maps["theta"], recal[:, 5] / 2.0)

    maps_json = {
        p: {"breakpoints": maps[p].breakpoints.tolist(), "values": maps[p].values.tolist()}
        for p in PARAMETERS
    }
    dataio.write_metrics_json(out / "calibration_maps.json", maps_json)
    path = out / "predictions_recalibrated.bin"
    dataio.write_predictions(
        path,
        recal,
        header["method"],
        meta={"recalibrated": True, "holdout": [int(i) for i in holdout]},
    )
    _refresh_manifest(cfg, out)
    return path


def run_curves(cfg: ExperimentConfig) -> list:
    uncertainty = cfg.get("evaluate.uncertainty")
    out = _ensure_out_dir(cfg)
    _, truth, _ = _read_truth_dataset(cfg)
    _, table = dataio.read_predictions(cfg.get("curves.predictions"))
    bins, grid, caps = _metric_params(cfg)
    triples = triples_by_parameter(table, truth_scalars(truth), uncertainty)
    paths = []
    for p in PARAMETERS:
        curve = cal.picp_mpiw_curve(triples[p], caps[p], grid)
        path = out / f"curves_{p}.csv"
        dataio.write_curve_csv(path, curve)
        paths.append(path)
    _refresh_manifest(cfg, out)
    return paths
