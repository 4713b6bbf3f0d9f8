"""Mixed-unitary factorisations of depolarise-tensor-Schur channels."""

from .errors import (
    DimensionTooLarge,
    FileFormatError,
    MufactError,
    NoConvergence,
    NormTooLarge,
    NotAFactorisation,
    NotBlockDiagonal,
    NotCP,
    NotHermitian,
    NotPSD,
    NotUnitary,
    ShapeMismatch,
)
from .linalg import (
    ComplexMatrix,
    Seed,
    herm_eig,
    op_norm,
    random_correlation,
    random_haar_unitary,
    rng_from_seed,
)
from .channels import (
    ChannelReport,
    ChoiMatrix,
    KrausChannel,
    MixedUnitaryEnsemble,
    SchurSymbol,
    biaverage_pm_oracle,
    choi_of,
    compress,
    d_biaverage,
    delta_apply,
    delta_compress,
    depolarizing_ensemble,
    embed,
    kraus_from_choi,
    lift_channel,
    lift_schur,
    schur_apply,
    to_blocks,
    verify_channel,
    weyl_unitaries,
)
from .norms import NormEstimate, schur_cb_norm, schur_norm_psd, superop_norm_lb
from .factorise import (
    CorrectionReport,
    DistanceBound,
    GramCertificate,
    UnitaryTupleEnsemble,
    correction_pipeline,
    dist_upper_bound,
    gram_matrix,
    halmos_dilate,
    membership_solve,
    mu_ensemble_from_tuples,
    random_tuple_ensemble,
    tuples_from_ensemble,
    verify_certificate,
)

__version__ = "0.1.0"
