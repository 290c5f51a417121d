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

At the origin g = I and d g = 0, so Gamma = 0 and

    R_{a b- c d-}(0) = -d_a d_b- d_c d_d- phi(0),
    d_e R_{a b- c d-}(0) = -d_a d_b- d_c d_d- d_e phi(0),

read exactly off the (2,2) and (3,2) coefficients of ``C``: every other
term of R and of its derivative carries a factor d g(0) = 0.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np
import pytest

from crchern.kahler.patch import KahlerProductPatch
from crchern.kahler.scenario import DEFAULT_TOLERANCES
from crchern.kahler.tensors import chern_divergence_residual, point_tensors

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


def _origin_derivatives(patch: KahlerProductPatch, part) -> tuple[np.ndarray, np.ndarray]:
    """``R(0)`` at ``[a, b, c, d]`` and ``d_e R(0)`` at ``[e, a, b, c, d]``,
    as object arrays of the exact ``Fraction`` value of ``part(C)`` (the
    real or the imaginary part): ``-eps alpha! beta! c_{alpha beta}`` with
    ``alpha`` the holomorphic and ``beta`` the antiholomorphic indices."""
    n = patch.total_dim
    R = np.full((n,) * 4, Fraction(0), dtype=object)
    dR = np.full((n,) * 5, Fraction(0), dtype=object)
    for f, s in zip(patch.factors, patch.slices()):
        row = {tuple(e): i for i, e in enumerate(f.exponents)}
        eye = np.eye(f.dim, dtype=int)

        def coefficient(holomorphic, anti):
            alpha, beta = sum(eye[list(holomorphic)]), sum(eye[list(anti)])
            c = Fraction(float(part(f.C[row[tuple(alpha)], row[tuple(beta)]])))
            weight = prod(map(factorial, alpha)) * prod(map(factorial, beta))
            return -Fraction(EPS) * weight * c

        for a, b, c, d in np.ndindex((f.dim,) * 4):
            R[s.start + a, s.start + b, s.start + c, s.start + d] = coefficient((a, c), (b, d))
            for e in range(f.dim):
                index = (s.start + e, s.start + a, s.start + b, s.start + c, s.start + d)
                dR[index] = coefficient((a, c, e), (b, d))
    return R, dR


def _origin_tensors(R: np.ndarray, dR: np.ndarray) -> dict:
    """S, div S and -n i V at the origin by the ``tensors`` formulas, with
    g = l = I and Gamma = 0, so every covariant derivative is ``d``.

    Each step is real-linear but the factor i of V, so it runs on the
    real and the imaginary part apart: with ``V = i W``, ``-n i V = n W``.
    """
    n = len(R)
    g = np.eye(n, dtype=int)

    def chern(R, P):
        # S = R - P_{a b-} g_{c d-} - P_{c b-} g_{a d-} - P_{c d-} g_{a b-} - P_{a d-} g_{c b-}
        pg, gp = np.multiply.outer(P, g), np.multiply.outer(g, P)
        return R - pg - pg.transpose(2, 1, 0, 3) - gp - gp.transpose(2, 1, 0, 3)

    ric = sum(R[a, a] for a in range(n))  # [c, d]
    scal = sum(ric[c, c] for c in range(n))
    P = (ric - scal / (2 * (n + 1)) * g) / (n + 2)
    d_ric = sum(dR[:, a, a] for a in range(n))  # [e, c, d]
    d_scal = np.array([sum(d_ric[e, c, c] for c in range(n)) for e in range(n)])
    d_P = (d_ric - np.multiply.outer(d_scal, g) / (2 * (n + 1))) / (n + 2)  # [e, a, b]
    d_S = np.array([chern(dR[e], d_P[e]) for e in range(n)])  # [e, a, b, c, d]
    div_S = sum(d_S[r, :, :, :, r] for r in range(n))  # [a, b, c]
    T1 = d_scal / (2 * (n + 1) * (n + 2))
    W = (
        d_P.transpose(1, 2, 0)
        - np.multiply.outer(g, T1)  # T_c l_{a b-}
        - 2 * np.multiply.outer(T1, g.T)  # T_a l_{c b-}
    )
    return {"R": R, "S": chern(R, P), "div_S": div_S, "minus_n_i_V": n * W}


@pytest.fixture(scope="module")
def origin_reference():
    patch = _patch()
    parts = [_origin_tensors(*_origin_derivatives(patch, part)) for part in (np.real, np.imag)]
    return patch, parts


def _complex(parts, name):
    re, im = (p[name].astype(float) for p in parts)
    return re + 1j * im


def test_divergence_identity_holds_exactly_at_the_origin(origin_reference):
    _, parts = origin_reference
    for part in parts:
        assert np.max(np.abs(part["div_S"].astype(float))) > 0.1
        assert np.all(part["div_S"] == part["minus_n_i_V"])


def test_curvature_and_chern_tensor_match_the_exact_origin(origin_reference):
    patch, parts = origin_reference
    t = point_tensors(patch, np.zeros(patch.total_dim, dtype=complex))
    for name in ("R", "S"):
        want = _complex(parts, name).transpose(2, 3, 0, 1)  # the record's [c, d, a, b]
        err = np.max(np.abs(getattr(t, name) - want))
        assert err <= DEFAULT_TOLERANCES["curvature_rel"] * np.max(np.abs(want)), name


def test_divergence_sides_match_the_exact_origin(origin_reference):
    patch, parts = origin_reference
    t = point_tensors(patch, np.zeros(patch.total_dim, dtype=complex))
    out = chern_divergence_residual(patch, t)
    for name in ("div_S", "minus_n_i_V"):
        want = _complex(parts, name)
        assert np.max(np.abs(out[name] - want)) <= 1e-3 * np.max(np.abs(want)), name
