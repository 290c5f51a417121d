"""Pointwise curvature tensors on a Kaehler product patch.

Conventions
-----------
Indices are raised and lowered with the Levi form ``l`` (here: the
Kaehler metric ``g``, which is what the contact form's Levi form pulls
back from on the associated circle bundle).  The curvature is

    R_{a b- c d-} = - d_c d_d- g_{a b-}
                    + g^{r s-} (d_c g_{a s-}) (d_d- g_{r b-}),

with first and second metric derivatives taken by central finite
differences of the closed-form metric (default step ``1e-4``); the
convention is validated by the space-form calibration, under which
positive curvature is the Fubini-Study side.  Contractions:

    Ric_{c d-} = l^{a b-} R_{a b- c d-},     Scal = l^{c d-} Ric_{c d-},
    P = (Ric - Scal/(2(n+1)) l) / (n+2),
    S = R - P l - P l - P l - P l            (four index pairings),
    T_a = grad_a (trace P) / (n+2),
    V_{a b- c} = i grad_c P_{a b-} - i T_c l_{a b-} - 2 i T_a l_{c b-}.

Torsion terms are absent throughout: a circle bundle of a negative line
bundle over a Kaehler base has identically vanishing pseudo-Hermitian
torsion, and its connection coefficients and curvature form pull back
from the base, so every tensor computed here *is* the corresponding
circle-bundle tensor (see :data:`crchern.kahler.scenario.CIRCLE_BUNDLE`).

Third-derivative quantities (``grad P``, ``grad S``) use a larger step
(``1e-3``) and correspondingly looser tolerances.

The stencil, not the point, is the unit of metric evaluation: all
points of one second-derivative stencil go through ``metric_at`` as one
stacked array, and one batched assembly turns the derivatives of any
stack of centres into R, Ric, Scal, P, S and the connection
coefficients.  Every contraction there takes two operands, so the
assembly is O(n^5) per centre: the connection term of R goes through
``Gamma^r_{c a} = l^{r s-} d_c g_{a s-}``, and the divergence stencil
contracts ``l^{r d-}`` into Gamma before it meets S.  The stencil's
offset and index tables are built once per real dimension and shared
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .patch import KahlerProductPatch, PatchDomainError, metric_at

METRIC_STEP = 1e-4
THIRD_ORDER_STEP = 1e-3
CONDITION_LIMIT = 1e8


class IllConditionedMetric(RuntimeError):
    pass


def _real_coords(z: np.ndarray) -> np.ndarray:
    return np.concatenate([np.real(z), np.imag(z)], axis=-1)


@lru_cache(maxsize=32)
def _stencil_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, ia, ib)``: the second-derivative stencil in ``m`` real
    coordinates, built once per ``m`` and shared read-only.

    ``ia, ib`` is the ``triu_indices(m, 1)`` pair.  Rows of ``offsets``:
    the centre, ``+e_a``, ``-e_a``, then for each ``a < b`` (in that
    pair's order) the blocks ``e_a+e_b``, ``e_a-e_b``, ``-e_a+e_b``,
    ``-e_a-e_b``: ``1 + 2m + 2m(m-1)`` points.
    """
    eye = np.eye(m)
    ia, ib = np.triu_indices(m, 1)
    ea, eb = eye[ia], eye[ib]
    offsets = np.concatenate(
        [np.zeros((1, m)), eye, -eye, ea + eb, ea - eb, -ea + eb, -ea - eb]
    )
    for table in (offsets, ia, ib):
        table.setflags(write=False)
    return offsets, ia, ib


def metric_derivatives(
    patch: KahlerProductPatch, z: np.ndarray, step: float = METRIC_STEP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, D1, D2): metric plus first/second real-coordinate derivatives.

    ``D1[..., a]`` and ``D2[..., a, b]`` are the central-difference
    derivatives of the full metric matrix with respect to real
    coordinates; the layout is ``x_1..x_n, y_1..y_n``.  ``z`` is one
    centre or a ``(..., n)`` stack of centres; every stencil point of
    every centre is evaluated in a single ``metric_at`` call.
    """
    z = patch.coordinates(z)
    n = patch.total_dim
    m = 2 * n
    pairs = m * (m - 1) // 2
    offsets, ia, ib = _stencil_tables(m)
    x = _real_coords(z)[..., None, :] + step * offsets
    G = metric_at(patch, x[..., :n] + 1j * x[..., n:])  # [..., point, a, b]
    g0 = G[..., 0, :, :].copy()  # not a view: the stencil buffer is freed on return
    plus, minus = G[..., 1 : 1 + m, :, :], G[..., 1 + m : 1 + 2 * m, :, :]
    pp, pm, mp, mm = (
        G[..., 1 + 2 * m + i * pairs : 1 + 2 * m + (i + 1) * pairs, :, :]
        for i in range(4)
    )

    D1 = (plus - minus) / (2 * step)
    D2 = np.empty(z.shape[:-1] + (m, m, n, n), dtype=complex)
    diag = np.arange(m)
    D2[..., diag, diag, :, :] = (plus - 2 * g0[..., None, :, :] + minus) / step**2
    mixed = (pp - pm - mp + mm) / (4 * step**2)
    D2[..., ia, ib, :, :] = mixed
    D2[..., ib, ia, :, :] = mixed
    return g0, D1, D2


def _holomorphic_split(D1: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    hol = 0.5 * (D1[..., :n, :, :] - 1j * D1[..., n:, :, :])
    anti = 0.5 * (D1[..., :n, :, :] + 1j * D1[..., n:, :, :])
    return hol, anti


def levi_inverse(g: np.ndarray) -> np.ndarray:
    """``l^{a b-}`` with the pairing ``l^{a b-} l_{c b-} = delta^a_c``.

    ``g`` may be a ``(..., n, n)`` stack; the worst condition number in
    the stack is checked.
    """
    cond = float(np.max(np.linalg.cond(g)))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedMetric(f"metric condition number {cond:.3e}")
    return np.swapaxes(np.linalg.inv(g), -1, -2)


@dataclass(frozen=True)
class PointTensors:
    """All pointwise tensors at one centre, ``linv`` = ``l^{a b-}``.

    :func:`point_tensors` gives one point and a float ``Scal``; inside
    the stencils each field is stacked over the centres.
    """

    point: np.ndarray
    g: np.ndarray
    linv: np.ndarray
    R: np.ndarray
    Ric: np.ndarray
    Scal: float | np.ndarray
    P: np.ndarray
    S: np.ndarray
    gammas: np.ndarray


def _curvature(
    z: np.ndarray, g: np.ndarray, D1: np.ndarray, D2: np.ndarray
) -> PointTensors:
    """The curvature assembly, batched over the leading axes.

    Takes the centres ``z`` and their :func:`metric_derivatives`; every
    field of the record is stacked like ``g``.
    """
    n = g.shape[-1]
    linv = levi_inverse(g)
    hol, anti = _holomorphic_split(D1, n)
    # d_c d_d- g_{a b-} built from the four real second derivatives.
    hmix = 0.25 * (
        D2[..., :n, :n, :, :]
        + D2[..., n:, n:, :, :]
        + 1j * (D2[..., :n, n:, :, :] - D2[..., n:, :n, :, :])
    )  # [c, d, a, b]
    # Gamma^r_{c a} = l^{r s-} d_c g_{a s-}, then the connection term
    # Gamma^r_{c a} d_d- g_{r b-}: two contractions, O(n^5) together.
    gammas = np.einsum("...cs,...abs->...cab", linv, hol)
    R = -np.moveaxis(hmix, (-2, -1), (-4, -3)) + np.einsum(
        "...rca,...drb->...abcd", gammas, anti
    )
    ric = np.einsum("...ab,...abcd->...cd", linv, R)
    scal = np.einsum("...cd,...cd->...", linv, ric).real
    # Schouten P = (Ric - Scal/(2(n+1)) g) / (n+2), trace Scal/(2(n+1)),
    # and the trace-free part S of R, zero iff spherical (n >= 2).
    P = (ric - np.asarray(scal)[..., None, None] / (2 * (n + 1)) * g) / (n + 2)
    S = (
        R
        - np.einsum("...ab,...cd->...abcd", P, g)
        - np.einsum("...cb,...ad->...abcd", P, g)
        - np.einsum("...cd,...ab->...abcd", P, g)
        - np.einsum("...ad,...cb->...abcd", P, g)
    )
    return PointTensors(z, g, linv, R, ric, scal, P, S, gammas)


def curvature_at(
    patch: KahlerProductPatch, z: np.ndarray, step: float = METRIC_STEP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Curvature ``R[a,b,c,d]`` plus its Ricci and scalar contractions."""
    t = _curvature(z, *metric_derivatives(patch, z, step))
    return t.R, t.Ric, float(t.Scal)


def point_tensors(patch: KahlerProductPatch, z: np.ndarray) -> PointTensors:
    """The tensors at one point; the first stencil row, the centre, is
    the first point the metric's chart check can name."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise PatchDomainError(
            f"point has {z.shape} coordinates, patch needs {patch.total_dim}"
        )
    t = _curvature(z, *metric_derivatives(patch, z))
    return replace(t, Scal=float(t.Scal))


def _third_order_derivatives(patch: KahlerProductPatch, z: np.ndarray):
    """Holomorphic-direction central differences of P, S, and Scal.

    The two centres ``x0 +- h e_a`` (``h = THIRD_ORDER_STEP``) of each
    direction go through the metric and the curvature assembly as one
    stack; stacking more than one pair at a time only raises peak
    memory.
    """
    n = patch.total_dim
    m = 2 * n
    h = THIRD_ORDER_STEP
    x0 = _real_coords(z)
    dP = np.empty((m, n, n), dtype=complex)
    dS = np.empty((m, n, n, n, n), dtype=complex)
    dScal = np.empty(m)
    for a in range(m):
        e = np.zeros(m)
        e[a] = h
        x = np.stack([x0 + e, x0 - e])
        centres = x[:, :n] + 1j * x[:, n:]
        t = _curvature(centres, *metric_derivatives(patch, centres))
        dP[a] = (t.P[0] - t.P[1]) / (2 * h)
        dS[a] = (t.S[0] - t.S[1]) / (2 * h)
        dScal[a] = (t.Scal[0] - t.Scal[1]) / (2 * h)
    dP_hol = 0.5 * (dP[:n] - 1j * dP[n:])  # [c, a, b]
    dS_hol = 0.5 * (dS[:n] - 1j * dS[n:])  # [r, a, b, c, d]
    dScal_hol = 0.5 * (dScal[:n] - 1j * dScal[n:])
    return dP_hol, dS_hol, dScal_hol


def _assemble_v(dP_hol, dScal_hol, gammas, P, g, n):
    """``grad_c P_{a b-} = d_c P_{a b-} - Gamma^r_{c a} P_{r b-}``: the
    barred index picks up no connection term under a holomorphic-
    direction derivative.  ``T1_a`` is the gradient of the P-trace
    (a multiple of Scal) over ``n + 2``.
    """
    grad_P = dP_hol - np.einsum("rca,rb->cab", gammas, P)
    T1 = dScal_hol / (2 * (n + 1) * (n + 2))
    V = (
        1j * np.transpose(grad_P, (1, 2, 0))
        - 1j * np.einsum("c,ab->abc", T1, g)
        - 2j * np.einsum("a,cb->abc", T1, g)
    )
    return T1, V


def chern_divergence_residual(patch: KahlerProductPatch, t: PointTensors) -> dict:
    """Both sides of the divergence identity ``div S = -n i V`` at ``t.point``.

    ``t`` is ``point_tensors(patch, z)``.  ``div S`` is the trace
    ``l^{r d-} grad_r S_{a b- c d-}`` with the covariant corrections on
    both unbarred slots of S.  ``l^{r d-}`` is contracted into Gamma
    first (``l^{r d-} Gamma^s_{r a}``), so the trace is O(n^5) and
    ``grad S`` itself is never built.  Returns the two sides and the
    residual max-norm for reporting.
    """
    n = patch.total_dim
    dP_hol, dS_hol, dScal_hol = _third_order_derivatives(patch, t.point)

    lg = np.einsum("rd,sra->sad", t.linv, t.gammas)
    div_S = (
        np.einsum("rd,rabcd->abc", t.linv, dS_hol)
        - np.einsum("sad,sbcd->abc", lg, t.S)
        - np.einsum("scd,absd->abc", lg, t.S)
    )

    _T1, V = _assemble_v(dP_hol, dScal_hol, t.gammas, t.P, t.g, n)
    rhs = -n * 1j * V
    return {
        "div_S": div_S,
        "minus_n_i_V": rhs,
        "residual": float(np.max(np.abs(div_S - rhs))),
        "lhs_max": float(np.max(np.abs(div_S))),
        "rhs_max": float(np.max(np.abs(rhs))),
    }


# -- independent oracles -----------------------------------------------------


def space_form_curvature_oracle(
    patch: KahlerProductPatch, z: np.ndarray
) -> np.ndarray:
    """Closed-form curvature of a product of space forms.

    Per factor, ``R = (hsc/2) (g g + g g)`` on the factor's block with
    the exact analytic metric; all cross-factor components vanish.
    This is the reference the finite-difference pipeline is tested
    against.
    """
    z = patch.coordinates(z)
    n = patch.total_dim
    R = np.zeros((n, n, n, n), dtype=complex)
    for f, s in zip(patch.factors, patch.slices()):
        gb = f.metric(z[s])
        block = (f.c / 2) * (
            np.einsum("ab,cd->abcd", gb, gb) + np.einsum("ad,cb->abcd", gb, gb)
        )
        R[s, s, s, s] = block
    return R


def symmetry_residuals(R: np.ndarray) -> tuple[float, float]:
    """Max deviation from the two index symmetries of the curvature."""
    first = float(np.max(np.abs(R - np.transpose(R, (2, 1, 0, 3)))))
    second = float(np.max(np.abs(R - np.transpose(R, (0, 3, 2, 1)))))
    return first, second


def first_pair_trace(tensor4: np.ndarray, linv: np.ndarray) -> np.ndarray:
    """``l^{a b-} T_{a b- c d-}``, with ``linv`` from :class:`PointTensors`."""
    return np.einsum("ab,abcd->cd", linv, tensor4)
