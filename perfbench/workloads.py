"""Benchmark workloads: the stage chain each one runs and the inputs it gets.

Every input is made from the benchmark seed; the program only ever sees the
generated config file and, for calib_large, the generated data files.

* wbs_chain   -- prolate phantom through fit and wild bootstrap. Fitting,
                 bootstrap refits and 3x3 eigensolves do most of the work;
                 the MLP is never touched.
* dl_chain    -- random_spd phantom through MLP training and MC-dropout
                 prediction. Forward passes dominate; fitting and the wild
                 bootstrap are bypassed.
* calib_large -- 200k voxels of pre-made predictions with a known
                 miscalibration, through calibrate, evaluate and curves.
                 Calibration data structures and manifest hashing dominate;
                 simulation, fitting and the MLP are bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dticalib import dataio
from dticalib.simulation import make_scheme

CONFIG_NAME = "run.cfg"
SNR_DB = 28.0
N_DIRECTIONS = 30

# calib_large: reported sigmas are this share of the true error scale, so
# the uncalibrated FA/MD/theta ENCE sits near |0.5 - 1| / 0.5 = 1.
MISCALIBRATION = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    voxels: int
    replicates: int  # bootstrap iterations or dropout samples; 0 if neither
    replicate_stage: str  # stage that draws the replicates, or ""
    predictions: str  # prediction table the calibration stages read
    config: str  # config body, formatted with seed and the sizes above


_COMMON = """\
out_dir = .
seed = {seed}
scheme.n_directions = {n_dirs}
scheme.bvalue = 1000
phantom.snr_db = {snr}
metrics.bins = 15
calibrate.predictions = {predictions}
evaluate.predictions = {predictions}
curves.predictions = {predictions}
"""

_WBS = """\
phantom.generator = prolate
phantom.fa_target = 0.8
phantom.md = 0.9e-3
phantom.orientation = uniform
phantom.n_voxels = {voxels}
fit.estimator = cwlls
bootstrap.iterations = {replicates}
"""

_DL = """\
phantom.generator = random_spd
phantom.orientation = uniform
phantom.n_voxels = {voxels}
train.epochs = {epochs}
predict.samples = {replicates}
"""

_CALIB = """\
evaluate.recalibrated = predictions_recalibrated.bin
"""

SIZES = {
    # full sizes are the benchmark; tiny sizes exist for the self-tests
    "full": {"wbs_chain": (200, 1000), "dl_chain": (1000, 50), "calib_large": (200_000, 0)},
    "tiny": {"wbs_chain": (40, 30), "dl_chain": (200, 8), "calib_large": (600, 0)},
}
EPOCHS = {"full": 100, "tiny": 20}


def workload(name: str, size: str = "full") -> Workload:
    voxels, replicates = SIZES[size][name]
    if name == "wbs_chain":
        return Workload(
            name,
            ("simulate", "fit", "bootstrap", "calibrate", "evaluate", "curves"),
            voxels,
            replicates,
            "bootstrap",
            "predictions_wbs.bin",
            _COMMON + _WBS,
        )
    if name == "dl_chain":
        return Workload(
            name,
            ("simulate", "train", "predict", "calibrate", "evaluate", "curves"),
            voxels,
            replicates,
            "predict",
            "predictions_dl.bin",
            _COMMON + _DL.replace("{epochs}", str(EPOCHS[size])),
        )
    if name == "calib_large":
        return Workload(
            name,
            ("calibrate", "evaluate", "curves"),
            voxels,
            0,
            "",
            "predictions_wbs.bin",
            _COMMON + _CALIB,
        )
    raise KeyError(name)


NAMES = ("wbs_chain", "dl_chain", "calib_large")


def prepare_inputs(wl: Workload, seed: int, directory: Path):
    """Write the config (and for calib_large the data files) into directory."""
    directory.mkdir(parents=True, exist_ok=True)
    text = wl.config.format(
        seed=seed,
        n_dirs=N_DIRECTIONS,
        snr=SNR_DB,
        predictions=wl.predictions,
        voxels=wl.voxels,
        replicates=wl.replicates,
    )
    (directory / CONFIG_NAME).write_text(text)
    if wl.name == "calib_large":
        write_calibration_inputs(directory, seed, wl.voxels)


def _rotations(q: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotation matrices from (n, 4) unnormalized quaternions."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], 1),
            np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], 1),
            np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], 1),
        ],
        axis=1,
    )


def write_calibration_inputs(directory: Path, seed: int, n: int):
    """Dataset plus a WBS-style prediction table for calib_large.

    Truth tensors have a principal eigenvalue at least 1.3x the others, so
    the principal axis is well defined. Estimates scatter around the truth
    with a per-voxel, log-normally spread error scale s, and the table
    reports MISCALIBRATION * s as the uncertainty: isotonic recalibration
    has a known monotone error to undo.
    """
    rng = np.random.default_rng([seed, n])
    scheme = make_scheme(N_DIRECTIONS, 1000.0, 2)

    minor = rng.uniform(0.2e-3, 1.0e-3, size=(n, 2))
    major = minor.max(axis=1) * rng.uniform(1.3, 3.0, size=n)
    lam = np.column_stack([major, minor])
    rot = _rotations(rng.normal(size=(n, 4)))
    mats = np.einsum("nij,nj,nkj->nik", rot, lam, rot)
    elements = np.stack(
        [mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2], mats[:, 0, 1], mats[:, 0, 2], mats[:, 1, 2]],
        axis=1,
    )

    g = scheme.directions
    quad = np.einsum("mi,nij,mj->nm", g, mats, g)
    clean = np.exp(-scheme.bvalues[None, :] * quad)
    sigma_n = 10.0 ** (-SNR_DB / 20.0)
    n1 = rng.normal(scale=sigma_n, size=clean.shape)
    n2 = rng.normal(scale=sigma_n, size=clean.shape)
    signals = np.sqrt((clean + n1) ** 2 + n2**2)

    md = lam.mean(axis=1)
    fa = np.sqrt(1.5 * np.sum((lam - md[:, None]) ** 2, axis=1) / np.sum(lam**2, axis=1))
    v1 = rot[:, :, 0]

    def spread(scale):
        return scale * np.exp(rng.normal(0.0, 0.5, size=n))

    s_fa, s_md, s_theta = spread(0.01), spread(0.03e-3), spread(3.0)
    fa_hat = fa + s_fa * rng.normal(size=n)
    md_hat = md + s_md * rng.normal(size=n)
    # tilt v1 by |N(0, s_theta)| degrees towards a random perpendicular axis
    perp = rng.normal(size=(n, 3))
    perp -= np.sum(perp * v1, axis=1, keepdims=True) * v1
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    tilt = np.radians(np.minimum(np.abs(s_theta * rng.normal(size=n)), 89.0))
    v1_hat = np.cos(tilt)[:, None] * v1 + np.sin(tilt)[:, None] * perp

    # theta is scored with sigma = theta95 / 2
    table = np.column_stack(
        [
            fa_hat,
            md_hat,
            v1_hat,
            2.0 * MISCALIBRATION * s_theta,
            MISCALIBRATION * s_fa,
            MISCALIBRATION * s_md,
            np.full(n, np.nan),
        ]
    )
    dataio.write_bvec_bval(directory / "scheme.bvec", directory / "scheme.bval", scheme)
    dataio.write_dataset(
        directory / "dataset.bin", signals, "scheme", truth_elements=elements, seed=seed
    )
    dataio.write_predictions(
        directory / "predictions_wbs.bin", table, "wbs", meta={"iterations": 1000}
    )
