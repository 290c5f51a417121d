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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from ..chern.report import CheckReport
from .patch import KahlerProductPatch
from .spaceform import calibrate_space_form
from .tensors import (
    chern_divergence_residual,
    curvature_at,
    first_pair_trace,
    point_tensors,
    space_form_curvature_oracle,
    symmetry_residuals,
)

DEFAULT_TOLERANCES = {
    "s_max": 1e-6,  # flatness bound on |S|_inf
    "curvature_rel": 1e-6,  # FD curvature vs closed-form oracle
    "r_symmetry": 1e-6,  # scaled by (1 + |R|_inf)
    "p_trace": 1e-9,
    "s_trace": 1e-6,  # scaled by (1 + |R|_inf)
    "divergence": 1e-3,
    "convergence_low": 3.5,
    "convergence_high": 4.5,
}
CONVERGENCE_STEP = 2e-2  # large enough that truncation dominates roundoff
# The sampler draws from the cube around each factor's ball and rejects
# points outside it: d! (4/pi)^d draws per point, 2.8e5 at d = 8 and
# 8.7e9 at d = 12, so larger factors are refused rather than left to run.
MAX_FACTOR_DIM = 8
# Each sample runs the whole curvature pipeline; ``verify --samples`` has
# the same bound.
MAX_SAMPLES = 50
# An 'hsc' string is a short rational or decimal: an optional minus sign,
# digits, then a denominator or a fraction and exponent.  The schema
# carries the same pattern.  Bounding its length and its decimal exponent
# bounds the digits of the Fraction it becomes: "1e999999999" would
# otherwise build a 10^9-digit integer.
HSC_PATTERN = r"^-?[0-9]+(/[0-9]+|(\.[0-9]+)?([eE][-+]?[0-9]+)?)$"
MAX_HSC_CHARS = 100
MAX_HSC_EXPONENT = 400


class ScenarioError(ValueError):
    """Scenario document failed validation."""


@dataclass(frozen=True)
class SasakiCorrespondence:
    """Bookkeeping record tying the base patch to its circle bundle.

    No manifold is constructed: on the circle bundle of a negative line
    bundle the contact form is the restricted connection form, its
    Levi form and the pseudo-Hermitian connection and curvature pull
    back from the base Kaehler data, and the torsion vanishes
    identically.  Consequently every tensor computed on the base *is*
    the corresponding Tanaka-Webster tensor upstairs, which is the only
    fact the batch checks rely on.
    """

    base: KahlerProductPatch
    contact_form: str = "restriction of the connection one-form of the line bundle"
    levi_form: str = "pullback of the base Kaehler metric"
    torsion: str = "identically zero (Reeb flow preserves the CR structure)"
    connection: str = "pullback of the base Kaehler connection and curvature forms"

    def to_json_dict(self) -> dict:
        return {
            "factors": [
                {"dim": f.dim, "hsc": str(f.hsc)} for f in self.base.factors
            ],
            "contact_form": self.contact_form,
            "levi_form": self.levi_form,
            "torsion": self.torsion,
            "connection": self.connection,
        }


def parse_scenario(doc: Mapping) -> tuple[list[tuple[int, Fraction]], int, int, dict]:
    """Validate a scenario document; raises :class:`ScenarioError`."""
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(doc) - {"factors", "samples", "seed", "tolerances"}
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    factors_raw = doc.get("factors")
    if not isinstance(factors_raw, list) or not factors_raw:
        raise ScenarioError("'factors' must be a nonempty list")
    factors: list[tuple[int, Fraction]] = []
    for i, f in enumerate(factors_raw):
        if not isinstance(f, Mapping) or set(f) - {"dim", "hsc"} or "dim" not in f or "hsc" not in f:
            raise ScenarioError(f"factor #{i} must be an object with 'dim' and 'hsc'")
        dim = f["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ScenarioError(f"factor #{i}: 'dim' must be a positive integer")
        if dim > MAX_FACTOR_DIM:
            raise ScenarioError(f"factor #{i}: 'dim' must be at most {MAX_FACTOR_DIM}")
        hsc = _parse_hsc(f["hsc"], i)
        if hsc == 0:
            raise ScenarioError(f"factor #{i}: 'hsc' must be nonzero")
        factors.append((dim, hsc))
    samples = doc.get("samples", 10)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise ScenarioError("'samples' must be a positive integer")
    if samples > MAX_SAMPLES:
        raise ScenarioError(f"'samples' must be at most {MAX_SAMPLES}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError("'seed' must be an integer")
    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, Mapping):
        raise ScenarioError("'tolerances' must be an object")
    bad = set(overrides) - set(DEFAULT_TOLERANCES)
    if bad:
        raise ScenarioError(f"unknown tolerance keys: {sorted(bad)}")
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
    return factors, samples, seed, tolerances


def _parse_hsc(raw: object, i: int) -> Fraction:
    """Factor ``i``'s curvature: an integer, or a string matching ``HSC_PATTERN``."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if not isinstance(raw, str):
        raise ScenarioError(f"factor #{i}: 'hsc' must be a string or an integer")
    if len(raw) > MAX_HSC_CHARS:
        raise ScenarioError(f"factor #{i}: 'hsc' must be at most {MAX_HSC_CHARS} characters")
    if not re.fullmatch(HSC_PATTERN, raw):
        raise ScenarioError(f"factor #{i}: bad 'hsc' value {raw!r}")
    exponent = raw.lower().partition("e")[2]
    try:
        if abs(int(exponent or 0)) <= MAX_HSC_EXPONENT:
            return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"factor #{i}: bad 'hsc' value {raw!r}") from exc
    raise ScenarioError(f"factor #{i}: 'hsc' exponent must be at most {MAX_HSC_EXPONENT}")


def build_patch(factors: list[tuple[int, Fraction]]) -> KahlerProductPatch:
    return KahlerProductPatch(
        tuple(calibrate_space_form(dim, hsc) for dim, hsc in factors)
    )


def convergence_factor(patch: KahlerProductPatch, z: np.ndarray) -> float:
    """Error-reduction factor of the curvature under one step halving."""
    exact = space_form_curvature_oracle(patch, z)
    err_h = float(np.max(np.abs(curvature_at(patch, z, CONVERGENCE_STEP)[0] - exact)))
    err_h2 = float(
        np.max(np.abs(curvature_at(patch, z, CONVERGENCE_STEP / 2)[0] - exact))
    )
    return err_h / err_h2 if err_h2 else float("inf")


def run_batch(
    factors: list[tuple[int, Fraction]],
    samples: int = 10,
    seed: int = 0,
    tolerances: Mapping[str, float] | None = None,
    control_floor: float | None = None,
) -> CheckReport:
    """Sample the patch and enforce the pointwise tensor identities.

    The Chern tensor must stay below ``s_max`` at every point; with
    ``control_floor`` set, it must instead *exceed* that floor
    (negative control).  The divergence identity and the
    structural identities are enforced either way, and a convergence
    factor for the curvature stencils is estimated at the first point.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    patch = build_patch(factors)
    n = patch.total_dim
    points = patch.sample_points(samples, seed)

    maxima = {
        "s_inf": 0.0,
        "curvature_rel_err": 0.0,
        "r_symmetry": 0.0,
        "p_trace": 0.0,
        "s_trace": 0.0,
        "cross_block": 0.0,
        "divergence": 0.0,
        "divergence_sides": 0.0,
    }
    per_point = []
    for z in points:
        t = point_tensors(patch, z)
        r_inf = float(np.max(np.abs(t.R)))
        scale = 1 + r_inf

        exact = space_form_curvature_oracle(patch, z)
        rel_err = float(np.max(np.abs(t.R - exact))) / max(
            1e-30, float(np.max(np.abs(exact)))
        )
        sym1, sym2 = symmetry_residuals(t.R)
        p_trace_res = abs(
            complex(np.einsum("ab,ab->", t.linv, t.P))
            - t.Scal / (2 * (n + 1))
        )
        s_trace_res = float(np.max(np.abs(first_pair_trace(t.S, t.linv))))
        cross = _cross_block_max(patch, t.R)
        div = chern_divergence_residual(patch, t)

        maxima["s_inf"] = max(maxima["s_inf"], float(np.max(np.abs(t.S))))
        maxima["curvature_rel_err"] = max(maxima["curvature_rel_err"], rel_err)
        maxima["r_symmetry"] = max(maxima["r_symmetry"], max(sym1, sym2) / scale)
        maxima["p_trace"] = max(maxima["p_trace"], p_trace_res)
        maxima["s_trace"] = max(maxima["s_trace"], s_trace_res / scale)
        maxima["cross_block"] = max(maxima["cross_block"], cross)
        maxima["divergence"] = max(maxima["divergence"], div["residual"])
        maxima["divergence_sides"] = max(
            maxima["divergence_sides"], div["lhs_max"], div["rhs_max"]
        )
        per_point.append(
            {
                "point": [str(c) for c in z],
                "s_inf": float(np.max(np.abs(t.S))),
                "curvature_rel_err": rel_err,
                "divergence_residual": div["residual"],
            }
        )

    conv = convergence_factor(patch, points[0])

    assertions = [
        (
            "curvature matches the space-form closed form",
            maxima["curvature_rel_err"] <= tol["curvature_rel"],
        ),
        ("curvature symmetries hold", maxima["r_symmetry"] <= tol["r_symmetry"]),
        ("Schouten trace identity holds", maxima["p_trace"] <= tol["p_trace"]),
        ("Chern tensor is trace-free in the first pair", maxima["s_trace"] <= tol["s_trace"]),
        ("metric is block diagonal", maxima["cross_block"] <= tol["r_symmetry"]),
        ("divergence identity residual is small", maxima["divergence"] <= tol["divergence"]),
        (
            "stencil convergence factor is second order",
            tol["convergence_low"] <= conv <= tol["convergence_high"],
        ),
    ]
    if control_floor is not None:
        assertions.append(
            (
                f"Chern tensor exceeds the control floor {control_floor}",
                maxima["s_inf"] > control_floor,
            )
        )
    else:
        assertions.append(
            ("Chern tensor vanishes within tolerance", maxima["s_inf"] <= tol["s_max"])
        )

    correspondence = SasakiCorrespondence(patch)
    return CheckReport.from_assertions(
        check="bochner-flat-batch",
        params={
            "factors": [[dim, str(hsc)] for dim, hsc in factors],
            "samples": samples,
            "seed": seed,
            "expect_flat": control_floor is None,
        },
        assertions=assertions,
        witnesses=[
            {
                "maxima": maxima,
                "convergence_factor": conv,
                "circle_bundle": correspondence.to_json_dict(),
            }
        ],
        residuals=per_point,
    )


def _cross_block_max(patch: KahlerProductPatch, R: np.ndarray) -> float:
    """Largest curvature component with indices in different factor blocks."""
    block_of = np.repeat(np.arange(len(patch.factors)), [f.dim for f in patch.factors])
    a, b, c, d = np.ix_(block_of, block_of, block_of, block_of)
    cross = (a != b) | (a != c) | (a != d)
    return float(np.max(np.abs(R[cross]), initial=0.0))
