"""Diffusion tensor estimation with calibrated uncertainty.

Fits diffusion tensors from diffusion-weighted measurements, attaches
uncertainty via wild bootstrap, Monte-Carlo dropout, and a learned
input-dependent branch, and evaluates/recalibrates those uncertainties
against a Monte-Carlo gold standard on synthetic phantoms.
"""

__version__ = "0.1.0"

from .tensor import GradientScheme, design_matrix, fa_md
from .fitting import fit_cwlls_batch, log_signal_rows
from .bootstrap import (
    replicate_statistics,
    summarize_uncertainty,
    wild_bootstrap,
    wild_bootstrap_table,
)
from .calibration import (
    BinStats,
    CalibrationCurve,
    IsotonicMap,
    Triples,
    bin_rmv_rmse,
    ence,
    fit_isotonic,
    picp_mpiw_curve,
    recalibrate,
    triples_from_arrays,
)
from .simulation import (
    PhantomSpec,
    make_phantom,
    make_scheme,
    monte_carlo_oracle,
)
from .mlp import (
    MlpSpec,
    TrainConfig,
    TwoBranchMlp,
    predict_mc_dropout,
    train,
)

__all__ = [
    "GradientScheme",
    "design_matrix",
    "fa_md",
    "fit_cwlls_batch",
    "log_signal_rows",
    "wild_bootstrap",
    "wild_bootstrap_table",
    "replicate_statistics",
    "summarize_uncertainty",
    "Triples",
    "triples_from_arrays",
    "BinStats",
    "CalibrationCurve",
    "IsotonicMap",
    "bin_rmv_rmse",
    "ence",
    "picp_mpiw_curve",
    "fit_isotonic",
    "recalibrate",
    "PhantomSpec",
    "make_phantom",
    "make_scheme",
    "monte_carlo_oracle",
    "MlpSpec",
    "TrainConfig",
    "TwoBranchMlp",
    "train",
    "predict_mc_dropout",
]
