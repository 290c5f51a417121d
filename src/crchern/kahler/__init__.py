"""Numerical curvature-tensor verification on Kaehler product patches."""

from .patch import KahlerProductPatch, PatchDomainError, metric_at
from .scenario import (
    BOUNDS,
    CIRCLE_BUNDLE,
    CONTROL_FLOOR,
    DEFAULT_TOLERANCES,
    ScenarioError,
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
    curvature_at,
    first_pair_trace,
    levi_inverse,
    metric_derivatives,
    point_tensors,
    space_form_curvature_oracle,
    symmetry_residuals,
)

__all__ = [
    "BOUNDS",
    "CIRCLE_BUNDLE",
    "CONTROL_FLOOR",
    "CalibrationError",
    "DEFAULT_TOLERANCES",
    "IllConditionedMetric",
    "KahlerProductPatch",
    "PatchDomainError",
    "PointTensors",
    "ScenarioError",
    "SpaceFormFactor",
    "calibrate_space_form",
    "chern_divergence_residual",
    "convergence_factor",
    "curvature_at",
    "first_pair_trace",
    "levi_inverse",
    "metric_at",
    "metric_derivatives",
    "parse_scenario",
    "point_tensors",
    "run_batch",
    "space_form_curvature_oracle",
    "symmetry_residuals",
]
