"""Diffusion tensor estimation with calibrated uncertainty.

Fits diffusion tensors from diffusion-weighted measurements, attaches
uncertainty via wild bootstrap, Monte-Carlo dropout, and a learned
input-dependent branch, and evaluates/recalibrates those uncertainties
against a Monte-Carlo gold standard on synthetic phantoms.
"""

__version__ = "0.1.0"

from .tensor import (
    DiffusionTensor,
    GradientScheme,
    TensorScalars,
    design_matrix,
    eig3_sym,
    predict_signal,
)
from .fitting import FitResult, fit_cwlls, fit_ols, fit_wlls
from .bootstrap import (
    TensorSampleSet,
    UncertaintyBundle,
    cone_angle_95,
    mean_dyadic,
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
    add_rician,
    make_phantom,
    make_scheme,
    monte_carlo_oracle,
)
from .mlp import (
    MlpSpec,
    TrainConfig,
    TwoBranchMlp,
    loss_attenuated,
    predict_mc_dropout,
    train,
)

__all__ = [
    "DiffusionTensor",
    "GradientScheme",
    "TensorScalars",
    "design_matrix",
    "eig3_sym",
    "predict_signal",
    "FitResult",
    "fit_ols",
    "fit_wlls",
    "fit_cwlls",
    "TensorSampleSet",
    "UncertaintyBundle",
    "wild_bootstrap",
    "wild_bootstrap_table",
    "mean_dyadic",
    "cone_angle_95",
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
    "add_rician",
    "monte_carlo_oracle",
    "MlpSpec",
    "TrainConfig",
    "TwoBranchMlp",
    "loss_attenuated",
    "train",
    "predict_mc_dropout",
]
