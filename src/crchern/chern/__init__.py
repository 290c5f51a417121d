"""Chern-class calculus and the named verification checks."""

from .bundles import (
    BundleClass,
    bundle_product,
    chern_fake_projective_plane,
    chern_projective_space,
    chern_surface,
    trivial_bundle,
)
from .checks import (
    check_prop_1_3,
    check_prop_1_4,
    check_prop_4_1,
    check_thm_1_1,
    cpn_setup,
    fpp_times_cpn_setup,
    genus2_times_cpn_setup,
    nilsquare_ring,
)
from .report import CheckReport
from .spherical import (
    CircleBundleSetup,
    spherical_ratio,
    spherical_residual,
    verify_spherical_on_circle_bundle,
)
from .tractor import ring_matrix_determinant, tractor_determinant_check

__all__ = [
    "BundleClass",
    "CheckReport",
    "CircleBundleSetup",
    "bundle_product",
    "check_prop_1_3",
    "check_prop_1_4",
    "check_prop_4_1",
    "check_thm_1_1",
    "chern_fake_projective_plane",
    "chern_projective_space",
    "chern_surface",
    "cpn_setup",
    "fpp_times_cpn_setup",
    "genus2_times_cpn_setup",
    "nilsquare_ring",
    "ring_matrix_determinant",
    "spherical_ratio",
    "spherical_residual",
    "tractor_determinant_check",
    "trivial_bundle",
    "verify_spherical_on_circle_bundle",
]
