"""Batch tensor verification over sampled points, plus scenario files.

A scenario is a JSON document::

    {
      "factors": [{"dim": 1, "hsc": "1"}, {"dim": 2, "hsc": "-1"}],
      "samples": 10,
      "seed": 0,
      "tolerances": { ... optional overrides ... }
    }

(schema shipped in ``docs/schemas/scenario.schema.json``).  The batch
evaluates the curvature pipeline at the sampled points and enforces the
pointwise identities; the flatness bound ``s_max`` on the Chern tensor
is what distinguishes a Bochner-flat configuration from a control.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from fractions import Fraction
from typing import Mapping

import numpy as np

from ..chern.report import CheckReport
from ..cohomology.ring import quote, schema_int
from .patch import KahlerProductPatch, PatchDomainError
from .spaceform import calibrate_space_form
from .tensors import (
    IllConditionedMetric,
    chern_divergence_residual,
    curvature_at,
    first_pair_trace,
    sample_stacks,
    space_form_curvature_oracle,
    symmetry_residuals,
)

DEFAULT_TOLERANCES = {
    "s_max": 1e-6,  # flatness bound on |S|_inf
    "curvature_rel": 1e-6,  # FD curvature vs closed-form oracle
    "r_symmetry": 1e-6,  # scaled by (1 + |R|_inf); also bounds cross_block
    "p_trace": 1e-9,
    "s_trace": 1e-6,  # scaled by (1 + |R|_inf)
    "divergence": 1e-3,
    "convergence_low": 3.5,
    "convergence_high": 4.5,
}
# The bounded assertions of a batch, in report order: (assertion name,
# key of the measured maximum, key of the tolerance that bounds it).
BOUNDS = (
    ("curvature matches the space-form closed form", "curvature_rel_err", "curvature_rel"),
    ("curvature symmetries hold", "r_symmetry", "r_symmetry"),
    ("Schouten trace identity holds", "p_trace", "p_trace"),
    ("Chern tensor is trace-free in the first pair", "s_trace", "s_trace"),
    # Holds exactly by construction: each factor's Riemann step assembles
    # its own block of R, which is scattered into a zero array, so a nonzero
    # cross-factor component can only come from a mis-indexed scatter.
    ("metric is block diagonal", "cross_block", "r_symmetry"),
    ("divergence identity residual is small", "divergence", "divergence"),
)
# The least |S|_inf of a negative control (``run_batch(expect_flat=False)``).
CONTROL_FLOOR = 1e-2
CONVERGENCE_STEP = 2e-2  # large enough that truncation dominates roundoff
# The sampler draws from the cube around each factor's ball and rejects
# points outside it: d! (4/pi)^d draws per point, 2.8e5 at d = 8 and
# 8.7e9 at d = 12, so larger factors are refused rather than left to run.
MAX_FACTOR_DIM = 8
# Each sample runs the whole curvature pipeline; ``verify --samples`` has
# the same bound.
MAX_SAMPLES = 50
# An 'hsc' string is a short rational or decimal (``DECIMAL``, also the one
# spelling of ``verify --tol``) after an optional minus sign.  The schema
# carries the same pattern.  Bounding its length and its decimal exponent
# bounds the digits of the Fraction it becomes: "1e999999999" would
# otherwise build a 10^9-digit integer.
_FRACTION_EXPONENT = r"(\.[0-9]+)?([eE][-+]?[0-9]+)?"
HSC_PATTERN = rf"^-?[0-9]+(/[0-9]+|{_FRACTION_EXPONENT})$"
DECIMAL = re.compile(r"[0-9]+" + _FRACTION_EXPONENT)
MAX_HSC_CHARS = 100
MAX_HSC_EXPONENT = 400


class ScenarioError(ValueError):
    """Scenario document failed validation."""


# No manifold is constructed.  On the circle bundle of a negative line
# bundle the contact form is the restricted connection form, its Levi
# form and the pseudo-Hermitian connection and curvature pull back from
# the base Kaehler data, and the torsion vanishes identically.  So every
# tensor computed on the base *is* the corresponding Tanaka-Webster
# tensor upstairs, which is the only fact the batch checks rely on.  A
# batch's witness records this next to the base's factors.
CIRCLE_BUNDLE = {
    "contact_form": "restriction of the connection one-form of the line bundle",
    "levi_form": "pullback of the base Kaehler metric",
    "torsion": "identically zero (Reeb flow preserves the CR structure)",
    "connection": "pullback of the base Kaehler connection and curvature forms",
}


def parse_scenario(doc: Mapping) -> tuple[list[tuple[int, Fraction]], int, int, dict]:
    """Validate a scenario document; raises :class:`ScenarioError`."""
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(doc) - {"factors", "samples", "seed", "tolerances"}
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {quote(sorted(unknown))}")
    factors_raw = doc.get("factors")
    if not isinstance(factors_raw, list) or not factors_raw:
        raise ScenarioError("'factors' must be a nonempty list")
    factors: list[tuple[int, Fraction]] = []
    for i, f in enumerate(factors_raw):
        if not isinstance(f, Mapping) or set(f) - {"dim", "hsc"} or "dim" not in f or "hsc" not in f:
            raise ScenarioError(f"factor #{i} must be an object with 'dim' and 'hsc'")
        dim = schema_int(f["dim"])
        if dim is None or dim < 1:
            raise ScenarioError(f"factor #{i}: 'dim' must be a positive integer")
        if dim > MAX_FACTOR_DIM:
            raise ScenarioError(f"factor #{i}: 'dim' must be at most {MAX_FACTOR_DIM}")
        hsc = _parse_hsc(f["hsc"], i)
        if hsc == 0:
            raise ScenarioError(f"factor #{i}: 'hsc' must be nonzero")
        factors.append((dim, hsc))
    samples = schema_int(doc.get("samples", 10))
    if samples is None or samples < 1:
        raise ScenarioError("'samples' must be a positive integer")
    if samples > MAX_SAMPLES:
        raise ScenarioError(f"'samples' must be at most {MAX_SAMPLES}")
    seed = schema_int(doc.get("seed", 0))
    if seed is None:
        raise ScenarioError("'seed' must be an integer")
    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, Mapping):
        raise ScenarioError("'tolerances' must be an object")
    bad = set(overrides) - set(DEFAULT_TOLERANCES)
    if bad:
        raise ScenarioError(f"unknown tolerance keys: {quote(sorted(bad))}")
    for key, val in overrides.items():
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ScenarioError(f"tolerance {key!r} must be a finite positive number")
        try:
            val = float(val)
        except OverflowError:  # a JSON integer beyond the float range
            val = math.inf
        if not (math.isfinite(val) and val > 0):
            raise ScenarioError(
                f"tolerance {key!r} must be a finite positive number, got {val}"
            )
        tolerances[key] = val
    low, high = tolerances["convergence_low"], tolerances["convergence_high"]
    if low >= high:  # no convergence factor could pass
        raise ScenarioError(
            f"empty convergence range: convergence_low {low} >= convergence_high {high}"
        )
    return factors, samples, seed, tolerances


def _parse_hsc(raw: object, i: int) -> Fraction:
    """Factor ``i``'s curvature: an integer, or a string matching ``HSC_PATTERN``."""
    if (n := schema_int(raw)) is not None:
        return Fraction(n)
    if not isinstance(raw, str):
        raise ScenarioError(f"factor #{i}: 'hsc' must be a string or an integer")
    if len(raw) > MAX_HSC_CHARS:
        raise ScenarioError(f"factor #{i}: 'hsc' must be at most {MAX_HSC_CHARS} characters")
    if re.fullmatch(HSC_PATTERN, raw):
        exponent = raw.lower().partition("e")[2]  # digits after a sign, or none
        if abs(int(exponent or 0)) > MAX_HSC_EXPONENT:
            raise ScenarioError(f"factor #{i}: 'hsc' exponent must be at most {MAX_HSC_EXPONENT}")
        with suppress(ZeroDivisionError):  # "1/0"
            return Fraction(raw)
    raise ScenarioError(f"factor #{i}: bad 'hsc' value {raw!r}")


def convergence_factor(patch: KahlerProductPatch, z: np.ndarray) -> float:
    """Error-reduction factor of the curvature under one step halving."""
    exact = space_form_curvature_oracle(patch, z)
    err_h = float(np.max(np.abs(curvature_at(patch, z, CONVERGENCE_STEP).R - exact)))
    err_h2 = float(
        np.max(np.abs(curvature_at(patch, z, CONVERGENCE_STEP / 2).R - exact))
    )
    return err_h / err_h2 if err_h2 else float("inf")


def run_batch(
    factors: list[tuple[int, Fraction]],
    samples: int = 10,
    seed: int = 0,
    tolerances: Mapping[str, float] | None = None,
    expect_flat: bool = True,
) -> CheckReport:
    """Sample the patch and enforce the pointwise tensor identities.

    Each row of :data:`BOUNDS` holds a measured maximum to its
    tolerance, and a convergence factor for the curvature stencils,
    estimated at the first point, must lie in the convergence range.
    The Chern tensor must then stay below ``s_max`` at every point; a
    negative control (``expect_flat=False``) must instead *exceed*
    :data:`CONTROL_FLOOR`.  The witness records the maxima next to the
    merged tolerance table that held them.  The samples run in the
    stacks of :func:`~crchern.kahler.tensors.sample_stacks`, each stage
    once per stack, and give the rows and maxima of one sample at a time.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    patch = KahlerProductPatch(
        tuple(calibrate_space_form(dim, hsc) for dim, hsc in factors)
    )
    points = patch.sample_points(samples, seed)
    centres = np.array(points)

    columns = []
    for stack in sample_stacks(patch, samples):
        try:
            columns.append(_measure(patch, centres[stack]))
        except (PatchDomainError, IllConditionedMetric):
            # A stack's failure names its first or worst point; one sample
            # at a time names the first failing sample's, in sample order.
            for i in range(stack.start, stack.stop):
                _measure(patch, centres[i : i + 1])
            raise
    measured = {key: np.concatenate([c[key] for c in columns]).tolist() for key in columns[0]}
    maxima = {key: max(0.0, *values) for key, values in measured.items()}
    per_point = [
        {
            "point": [str(c) for c in z],
            "s_inf": s_inf,
            "curvature_rel_err": rel_err,
            "divergence_residual": residual,
        }
        for z, s_inf, rel_err, residual in zip(
            points, measured["s_inf"], measured["curvature_rel_err"], measured["divergence"]
        )
    ]

    conv = convergence_factor(patch, points[0])

    assertions = [(name, maxima[key] <= tol[bound]) for name, key, bound in BOUNDS]
    assertions.append(
        (
            "stencil convergence factor is second order",
            tol["convergence_low"] <= conv <= tol["convergence_high"],
        )
    )
    if expect_flat:
        assertions.append(
            ("Chern tensor vanishes within tolerance", maxima["s_inf"] <= tol["s_max"])
        )
    else:
        assertions.append(
            (
                f"Chern tensor exceeds the control floor {CONTROL_FLOOR}",
                maxima["s_inf"] > CONTROL_FLOOR,
            )
        )

    return CheckReport(
        check="bochner-flat-batch",
        params={
            "factors": [[dim, str(hsc)] for dim, hsc in factors],
            "samples": samples,
            "seed": seed,
            "expect_flat": expect_flat,
        },
        assertions=assertions,
        witnesses=[
            {
                "maxima": maxima,
                "convergence_factor": conv,
                "tolerances": tol,
                "circle_bundle": {
                    "factors": [{"dim": f.dim, "hsc": str(f.hsc)} for f in patch.factors],
                    **CIRCLE_BUNDLE,
                },
            }
        ],
        residuals=per_point,
    )


def _measure(patch: KahlerProductPatch, z: np.ndarray) -> dict[str, np.ndarray]:
    """The measured value behind each maximum of a batch, at each centre of
    the ``(samples, n)`` stack ``z``: one call of each stage per stack."""
    n = patch.total_dim
    t = curvature_at(patch, z)
    tensor = (-4, -3, -2, -1)
    scale = 1 + np.max(np.abs(t.R), axis=tensor)
    exact = space_form_curvature_oracle(patch, z)
    div = chern_divergence_residual(patch, t)
    p_trace = np.einsum("...ab,...ab->...", t.linv, t.P) - t.Scal / (2 * (n + 1))
    return {
        "s_inf": np.max(np.abs(t.S), axis=tensor),
        "curvature_rel_err": np.max(np.abs(t.R - exact), axis=tensor)
        / np.maximum(1e-30, np.max(np.abs(exact), axis=tensor)),
        "r_symmetry": np.maximum(*symmetry_residuals(t.R)) / scale,
        # hypot, the modulus of Python's abs; numpy's complex abs may differ in the last bit
        "p_trace": np.hypot(p_trace.real, p_trace.imag),
        "s_trace": np.max(np.abs(first_pair_trace(t.S, t.linv)), axis=(-2, -1)) / scale,
        "cross_block": _cross_block_max(patch, t.R),
        "divergence": div["residual"],
        "divergence_sides": np.maximum(div["lhs_max"], div["rhs_max"]),
    }


def _cross_block_max(patch: KahlerProductPatch, R: np.ndarray) -> np.ndarray:
    """Largest curvature component with indices in different factor blocks,
    over the last four axes."""
    block_of = np.repeat(np.arange(len(patch.factors)), [f.dim for f in patch.factors])
    a, b, c, d = np.ix_(block_of, block_of, block_of, block_of)
    cross = (a != b) | (a != c) | (a != d)
    return np.max(np.abs(R), axis=(-4, -3, -2, -1), where=cross, initial=0.0)
