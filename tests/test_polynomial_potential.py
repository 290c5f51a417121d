"""The divergence identity on a geometry that is not locally symmetric.

Every factor the package builds is a space form, where div S and V both
vanish, so there the identity ``div S = -n i V`` is only ever 0 = 0.  The
factor here has the polynomial Kaehler potential

    phi(z) = |z|^2 + eps * sum_{alpha, beta} c_{alpha beta} z^alpha conj(z)^beta

over bidegrees (2,2), (3,2) and (2,3) only, with ``c_{beta alpha} =
conj(c_{alpha beta})`` so that phi is real.  Its metric is closed form,

    g_{a b-} = d_a d_b- phi = delta_ab + eps * (J^T C conj(J))_{ab},
    J_{alpha a} = d_a z^alpha,

and the pipeline reads a factor only through ``dim`` and ``metric(z)``.
"""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from crchern.kahler import KahlerProductPatch, chern_divergence_residual, point_tensors

EPS = 0.05


def _exponents(dim: int, degree: int) -> np.ndarray:
    """Every multi-index of ``degree`` in ``dim`` variables, one per row."""
    rows = []
    for combo in combinations_with_replacement(range(dim), degree):
        rows.append(np.bincount(combo, minlength=dim))
    return np.array(rows)


class PolynomialFactor:
    """A factor of the potential above, with coefficients drawn from ``rng``."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        degree2 = _exponents(dim, 2)
        self.exponents = np.concatenate([degree2, _exponents(dim, 3)])
        n2 = len(degree2)
        size = len(self.exponents)

        def normal(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        # Hermitian C with a zero (3,3) block: c_{alpha beta} for (2,2) and
        # (3,2), and (2,3) = conj transpose of (3,2)
        C = np.zeros((size, size), dtype=complex)
        c22 = normal((n2, n2))
        C[:n2, :n2] = (c22 + c22.conj().T) / 2
        C[n2:, :n2] = normal((size - n2, n2))
        C[:n2, n2:] = C[n2:, :n2].conj().T
        self.C = C

    def _jacobian(self, z: np.ndarray) -> np.ndarray:
        """``J[..., alpha, a] = d_a z^alpha = alpha_a z^(alpha - e_a)``."""
        e = self.exponents  # [alpha, b]
        lowered = e[:, None, :] - np.eye(self.dim, dtype=int)[None, :, :]  # [alpha, a, b]
        powers = z[..., None, None, :] ** np.maximum(lowered, 0)
        return e * np.prod(powers, axis=-1)

    def metric(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        J = self._jacobian(z)
        return np.eye(self.dim) + EPS * (np.swapaxes(J, -1, -2) @ self.C @ J.conj())


def _patch() -> KahlerProductPatch:
    rng = np.random.default_rng(0)
    return KahlerProductPatch((PolynomialFactor(2, rng), PolynomialFactor(3, rng)))


def _points() -> list[np.ndarray]:
    """The origin, then points with each factor's |z| in 0.2..0.45."""
    rng = np.random.default_rng(1)
    points = [np.zeros(5, dtype=complex)]
    for _ in range(4):
        parts = []
        for dim in (2, 3):
            w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            parts.append(rng.uniform(0.2, 0.45) * w / np.linalg.norm(w))
        points.append(np.concatenate(parts))
    return points


def test_polynomial_metric_is_hermitian_positive_and_identity_at_origin():
    patch = _patch()
    for f in patch.factors:
        assert np.array_equal(f.metric(np.zeros(f.dim)), np.eye(f.dim))
    for z in _points():
        for f, s in zip(patch.factors, patch.slices()):
            g = f.metric(z[s])
            assert np.allclose(g, g.conj().T, rtol=0, atol=1e-15)
            assert np.linalg.eigvalsh(g).min() > 0.5


@pytest.mark.parametrize("index", range(5), ids=["origin", "p1", "p2", "p3", "p4"])
def test_divergence_identity_holds_where_both_sides_are_not_zero(index):
    # div S = -n i V with both sides of order 0.5: a wrong coefficient of
    # the identity leaves a residual of the order of the sides
    patch = _patch()
    out = chern_divergence_residual(patch, point_tensors(patch, _points()[index]))
    sides = min(out["lhs_max"], out["rhs_max"])
    assert sides > 0.1
    assert out["residual"] < 1e-3 * sides
