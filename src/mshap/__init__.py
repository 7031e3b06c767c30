"""Attribution toolkit for two-part (product-of-outputs) models.

Combines per-part SHAP explanations into product-model attributions that keep
local accuracy, verifies them against an exact Shapley enumeration oracle,
scores attribution matrices against each other, and reproduces the alpha
weighting comparison and runtime-scaling studies at desk scale.
"""

from .combine import (
    AlphaMethod,
    MshapExplanation,
    combine,
    linear_combine_explanations,
    linear_combine_mshap,
    mean_product_baseline,
)
from .errors import (
    DimensionError,
    EnumerationLimitError,
    InvalidInputError,
    MshapError,
    ResampleLimitError,
    TableFormatError,
)
from .scoring import ScoreParams, score_matrices
from .shapley import (
    ModelFunction,
    ShapExplanation,
    additive_model,
    baseline,
    explain_matrix,
    product_model,
    sampling_explain_matrix,
    validate_local_accuracy,
)
from .simulation import (
    CovariateSpec,
    ScenarioSpec,
    bench_scaling,
    default_grid,
    mean_scores_by_method,
    run_grid,
    run_scenario,
)
from .tables import (
    ShapTable,
    explanation_to_table,
    read_shap_table,
    read_value_table,
    write_shap_table,
    write_value_table,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaMethod",
    "CovariateSpec",
    "DimensionError",
    "EnumerationLimitError",
    "InvalidInputError",
    "ModelFunction",
    "MshapError",
    "MshapExplanation",
    "ResampleLimitError",
    "ScenarioSpec",
    "ScoreParams",
    "ShapExplanation",
    "ShapTable",
    "TableFormatError",
    "additive_model",
    "baseline",
    "bench_scaling",
    "combine",
    "default_grid",
    "explain_matrix",
    "explanation_to_table",
    "linear_combine_explanations",
    "linear_combine_mshap",
    "mean_product_baseline",
    "mean_scores_by_method",
    "product_model",
    "read_shap_table",
    "read_value_table",
    "run_grid",
    "run_scenario",
    "sampling_explain_matrix",
    "score_matrices",
    "validate_local_accuracy",
    "write_shap_table",
    "write_value_table",
]
