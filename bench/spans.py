"""Per-layer spans around crchern's public entry points, installed from outside.

``Tracer.install()`` replaces each function listed in ``SPANS`` by a
timing wrapper at every binding that holds it: the defining module, every
``from .x import y`` copy in another ``crchern`` module, and every class
attribute that aliases it (``RingElement.__rmul__`` is the same function
object as ``__mul__``, so it is found by identity and patched too).

A span's self time is its duration minus the durations of the spans it
encloses.  Spans are not kept one by one: each closes into running totals
per span name, which is all the per-layer metrics need.  Public helpers
that are not listed (``levi_inverse``, ``RingPresentation.degree_basis``,
...) are not spans; their time counts as self time of the span that
called them.
"""

from __future__ import annotations

import importlib
import sys
import time

from crchern.cohomology.ring import RingElement


def _count_mul(counters, args, result):
    left, right = args
    width = len(right.terms) if isinstance(right, RingElement) else 1
    counters["ring.mul.term_pairs"] += len(left.terms) * width
    counters["ring.mul.terms_out"] += len(result.terms)


def _count_cup(counters, args, result):
    counters["gysin.cup_matrix.cells"] += result.matrix.rows * result.matrix.cols


def _count_snf(counters, args, result):
    matrix = args[0]
    counters["snf.cells"] += matrix.rows * matrix.cols
    counters["snf.max_side"] = max(counters["snf.max_side"], matrix.rows, matrix.cols)


def _count_batch(counters, args, result):
    counters["scenario.points"] += result.params["samples"]


# (module, attribute path, span name, counter hook).  Several functions
# may share one span name; their calls and self times add up.
SPANS = (
    ("crchern.cohomology.ring", "RingElement.__mul__", "ring.mul", _count_mul),
    ("crchern.cohomology.ring", "RingElement.__add__", "ring.add", None),
    ("crchern.cohomology.ring", "RingElement.__pow__", "ring.pow", None),
    ("crchern.cohomology.ring", "RingPresentation.element", "ring.element", None),
    ("crchern.cohomology.ring", "RingElement.evaluate", "ring.evaluate", None),
    ("crchern.cohomology.gysin", "cup_matrix", "gysin.cup_matrix", _count_cup),
    ("crchern.cohomology.gysin", "image_membership", "gysin.membership", None),
    ("crchern.cohomology.gysin", "cokernel", "gysin.cokernel", None),
    ("crchern.cohomology.snf", "smith_normal_form", "snf", _count_snf),
    ("crchern.chern.bundles", "BundleClass.chern", "bundles", None),
    ("crchern.chern.bundles", "BundleClass.c1", "bundles", None),
    ("crchern.chern.bundles", "chern_projective_space", "bundles", None),
    ("crchern.chern.bundles", "chern_surface", "bundles", None),
    ("crchern.chern.bundles", "chern_fake_projective_plane", "bundles", None),
    ("crchern.chern.bundles", "trivial_bundle", "bundles", None),
    ("crchern.chern.bundles", "bundle_product", "bundles", None),
    ("crchern.chern.checks", "check_thm_1_1", "checks", None),
    ("crchern.chern.checks", "check_prop_1_3", "checks", None),
    ("crchern.chern.checks", "check_prop_4_1", "checks", None),
    ("crchern.chern.checks", "check_prop_1_4", "checks", None),
    ("crchern.chern.checks", "genus2_times_cpn_setup", "checks", None),
    ("crchern.chern.checks", "fpp_times_cpn_setup", "checks", None),
    ("crchern.chern.checks", "cpn_setup", "checks", None),
    ("crchern.chern.checks", "nilsquare_ring", "checks", None),
    ("crchern.chern.spherical", "verify_spherical_on_circle_bundle", "spherical.verify", None),
    ("crchern.chern.spherical", "spherical_residual", "spherical.residual", None),
    ("crchern.chern.tractor", "tractor_determinant_check", "tractor.check", None),
    ("crchern.chern.tractor", "ring_matrix_determinant", "tractor.det", None),
    ("crchern.kahler.spaceform", "calibrate_space_form", "spaceform.calibrate", None),
    ("crchern.kahler.spaceform", "SpaceFormFactor.metric", "spaceform.metric", None),
    ("crchern.kahler.patch", "metric_at", "patch.metric_at", None),
    ("crchern.kahler.tensors", "metric_derivatives", "tensors.metric_derivatives", None),
    ("crchern.kahler.tensors", "point_tensors", "tensors.point_tensors", None),
    ("crchern.kahler.tensors", "chern_divergence_residual", "tensors.divergence", None),
    ("crchern.kahler.tensors", "curvature_at", "tensors.curvature_at", None),
    ("crchern.kahler.tensors", "space_form_curvature_oracle", "tensors.oracle", None),
    ("crchern.kahler.scenario", "run_batch", "scenario.run_batch", _count_batch),
    ("crchern.kahler.scenario", "convergence_factor", "scenario.convergence", None),
    ("crchern.cli", "main", "cli.main", None),
    ("crchern.cli", "build_manifest", "cli.build_manifest", None),
)

COUNTERS = (
    "ring.mul.term_pairs",
    "ring.mul.terms_out",
    "gysin.cup_matrix.cells",
    "snf.cells",
    "snf.max_side",
    "scenario.points",
)


class Tracer:
    """Running totals of calls and self time per span name, plus counters."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[float] = []  # enclosed time of each open span

    def wrap(self, name, fn, count=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        open_spans = self._open
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every function in ``SPANS``."""
        for module_name, path, name, count in SPANS:
            owner = importlib.import_module(module_name)
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[path.rsplit(".", 1)[-1]]
            wrapper = self.wrap(name, original, count)
            patched = 0
            holders = [vars(owner)] if isinstance(owner, type) else []
            holders += [
                vars(module)
                for key, module in list(sys.modules.items())
                if key == "crchern" or key.startswith("crchern.")
            ]
            for namespace in holders:
                for attr, value in list(namespace.items()):
                    if value is original:
                        if isinstance(namespace, dict):
                            namespace[attr] = wrapper
                        else:  # a class __dict__ is a read-only proxy
                            setattr(owner, attr, wrapper)
                        patched += 1
            if not patched:
                raise RuntimeError(f"no binding of {module_name}.{path} found")

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(stat) for name, stat in self.stats.items()},
            "counters": dict(self.counters),
        }
