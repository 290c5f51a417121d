"""Numerical curvature-tensor verification on Kaehler product patches."""

from .patch import KahlerProductPatch, PatchDomainError, metric_at
from .scenario import (
    DEFAULT_TOLERANCES,
    SasakiCorrespondence,
    ScenarioError,
    build_patch,
    convergence_factor,
    parse_scenario,
    run_batch,
)
from .spaceform import (
    CalibrationError,
    SpaceFormFactor,
    calibrate_space_form,
)
from .tensors import (
    IllConditionedMetric,
    PointTensors,
    chern_divergence_residual,
    chern_tensor_at,
    curvature_at,
    first_pair_trace,
    levi_inverse,
    metric_derivatives,
    point_tensors,
    schouten_at,
    space_form_curvature_oracle,
    symmetry_residuals,
)

__all__ = [
    "CalibrationError",
    "DEFAULT_TOLERANCES",
    "IllConditionedMetric",
    "KahlerProductPatch",
    "PatchDomainError",
    "PointTensors",
    "SasakiCorrespondence",
    "ScenarioError",
    "SpaceFormFactor",
    "build_patch",
    "calibrate_space_form",
    "chern_divergence_residual",
    "chern_tensor_at",
    "convergence_factor",
    "curvature_at",
    "first_pair_trace",
    "levi_inverse",
    "metric_at",
    "metric_derivatives",
    "parse_scenario",
    "point_tensors",
    "run_batch",
    "schouten_at",
    "space_form_curvature_oracle",
    "symmetry_residuals",
]
