"""Pointwise curvature tensors on a Kaehler product patch.

Conventions
-----------
Indices are raised and lowered with the Levi form ``l`` (here: the
Kaehler metric ``g``, which is what the contact form's Levi form pulls
back from on the associated circle bundle).  The curvature is

    R_{a b- c d-} = - d_c d_d- g_{a b-}
                    + g^{r s-} (d_c g_{a s-}) (d_d- g_{r b-}),

with first and second metric derivatives taken by central finite
differences of the closed-form metric (default step ``1e-4``).  The
space-form calibration reads R at the origin exactly, under this
convention, off the expression the metric evaluates; positive
curvature is the Fubini-Study side.  Contractions:

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

The stencil, not the point, is the unit of metric evaluation, and the
factor is the unit of assembly.  A factor's metric block depends on
that factor's coordinates alone, so each factor runs the
second-derivative stencil in its own ``2 dim`` real coordinates, all
points of all centres in one call of its metric, and keeps its own
blocks of ``g``, ``d g``, ``d- g`` and ``d d- g``: every cross-factor
entry is zero by construction and none is stored.  The one curvature
assembly inverts the whole metric once (:func:`levi_inverse`, the one
inverse and condition check), runs one Riemann step (Gamma, R, Ric,
Scal) on each factor's block of that inverse and of its derivatives,
and scatters the blocks into zero arrays; P and S alone are formed over
the whole patch.  Every contraction takes two operands, so a factor's
step is O(n_k^5) per centre: the connection term of R goes through
``Gamma^r_{c a} = l^{r s-} d_c g_{a s-}``.  Each contraction is one
batched matrix product (``@``, so BLAS), each outer product a rank-2
product or a broadcast, never an ``einsum`` loop.  :func:`curvature_at`
is that assembly, and :class:`PointTensors` holds what it writes: R and
S in ``[c, d, a, b]``, the layout of ``d d- g`` (``R_{a b- c d-}`` at
``[c, d, a, b]``), where a first-pair trace is a matrix-vector product,
and ``gammas[c, a, r] = Gamma^r_{c a}``.

The divergence stencil differences P, Scal and S at the +- centres of
each real direction.  A real direction moves the coordinates of one
factor ``k``, so at its centres every other factor's blocks of ``g``,
R and Ric are the centre's own, bit for bit, and only block ``k``
changes.  The stencil therefore works one factor at a time: the
factor's second-derivative stencil at its moved centres, the inverse of
the whole moved ``g``, one Riemann step on its block ``k`` over all of
them, and the full Ric, Scal and P in closed form from the centre's
values.  R's unmoved blocks cancel in the difference, so the R part of
``l^{r d-} d_r S`` lies in block ``k``; the four P g terms of S are
contracted with the directions' weights before they are formed, one
matrix product over the (direction, sign) axis.  No ``n^4`` array
exists at a moved centre, which costs O(n_k^5 + n^3); ``l^{r d-}`` is
contracted into Gamma before Gamma meets S.  A sample costs ``sum_f 2
m_f (1 + 2 m_f^2)`` metric points over the factors' real dimensions
``m_f`` (1,752 at 3+3).  The stencil's offset and index tables are
built once per real dimension and shared read-only.

Every stage takes a stack of sample centres on leading axes
(:func:`point_tensors` is the one-point form of :func:`curvature_at`),
and a batch runs its samples through each stage in stacks.  One
constant, :data:`STACK_ENTRIES`, bounds the complex entries of the
largest array a stacked call builds, a stencil buffer or an ``n^4``
tensor, with at least one item per call: :func:`sample_stacks` cuts a
batch into stacks of :func:`curvature_at`, and the divergence stencil
stacks (sample, direction, sign) centres per call of a factor's stencil
and whole samples per Riemann step.  Each sample's sums over its
directions then run as they do for that sample alone, so a stack's
results are those of its samples one at a time, bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..cohomology.ring import Record
from .patch import KahlerProductPatch, PatchDomainError
from .spaceform import SpaceFormFactor

METRIC_STEP = 1e-4
THIRD_ORDER_STEP = 1e-3
CONDITION_LIMIT = 1e8
# Complex entries of the largest array one stacked call builds: a stencil
# buffer or an n^4 tensor.  Sample centres, and at a moved centre its
# direction and sign, are stacked until the bound is reached, and at least
# one goes into each call, so a centre or a sample larger than the bound is
# built alone: a single-sample 8+8 scenario runs one centre (32,832
# entries) per stencil call and one sample per Riemann step.  8192 entries
# (128 KiB) keep the 3+3 benchmark batch of 4 samples at 12 centres per
# stencil call and its peak RSS 0.7 MB above one sample at a time; a bound
# that puts its whole stencil in one call adds 1.6 MB and saves no time
# (2-core Xeon, one BLAS thread).
STACK_ENTRIES = 8_192


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


def _stencil_entries(dim: int) -> int:
    """Complex entries of one centre's stencil buffer in a factor of ``dim``:
    ``1 + 2m^2`` metric blocks of ``dim^2``, ``m = 2 dim``."""
    return (1 + 8 * dim * dim) * dim * dim


def _stacks(count: int, entries: int) -> list[slice]:
    """``range(count)`` as consecutive slices of items of ``entries`` complex
    entries each: as many per slice as :data:`STACK_ENTRIES` holds, at least one."""
    step = max(1, STACK_ENTRIES // entries)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def sample_stacks(patch: KahlerProductPatch, count: int) -> list[slice]:
    """``count`` sample centres as the stacks of :func:`curvature_at` calls:
    a centre's largest arrays are its ``n^4`` tensors and each factor's
    stencil buffer."""
    n = patch.total_dim
    return _stacks(count, max(n**4, *(_stencil_entries(f.dim) for f in patch.factors)))


def _factor_derivatives(
    factor: SpaceFormFactor, z: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(g, hol, anti, hmix)`` of one factor's block at the centres ``z``.

    The stencil runs over the factor's own ``m = 2 dim`` real
    coordinates, ``x_1..x_dim, y_1..y_dim``.  All points of all centres
    go through one call of the factor's metric, so its chart check sees
    every point; a centre's own point is the first of its stencil.
    """
    d = factor.dim
    m = 2 * d
    pairs = m * (m - 1) // 2
    offsets, ia, ib = _stencil_tables(m)
    x = _real_coords(z)[..., None, :] + step * offsets
    G = factor.metric(x[..., :d] + 1j * x[..., d:])  # [..., point, a, b]
    g0 = G[..., 0, :, :]
    plus, minus = G[..., 1 : 1 + m, :, :], G[..., 1 + m : 1 + 2 * m, :, :]
    pp, pm, mp, mm = (
        G[..., 1 + 2 * m + i * pairs : 1 + 2 * m + (i + 1) * pairs, :, :]
        for i in range(4)
    )

    D1 = (plus - minus) / (2 * step)
    D2 = np.empty(z.shape[:-1] + (m, m, d, d), dtype=complex)
    diag = np.arange(m)
    D2[..., diag, diag, :, :] = (plus - 2 * g0[..., None, :, :] + minus) / step**2
    mixed = (pp - pm - mp + mm) / (4 * step**2)
    D2[..., ia, ib, :, :] = mixed
    D2[..., ib, ia, :, :] = mixed
    hol = 0.5 * (D1[..., :d, :, :] - 1j * D1[..., d:, :, :])
    anti = 0.5 * (D1[..., :d, :, :] + 1j * D1[..., d:, :, :])
    hmix = 0.25 * (
        D2[..., :d, :d, :, :]
        + D2[..., d:, d:, :, :]
        + 1j * (D2[..., :d, d:, :, :] - D2[..., d:, :d, :, :])
    )
    return g0, hol, anti, hmix


def metric_derivatives(
    patch: KahlerProductPatch, z: np.ndarray, step: float = METRIC_STEP
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """One ``(g, hol, anti, hmix)`` per factor: its metric block and the
    block's complex derivatives.

    ``hol[..., c, a, b] = d_c g_{a b-}``, ``anti[..., c, a, b] =
    d_c- g_{a b-}`` and ``hmix[..., c, d, a, b] = d_c d_d- g_{a b-}``,
    by central differences of step ``step`` in the factor's real
    coordinates (:func:`_factor_derivatives`).  A factor's block depends
    on that factor's coordinates alone, so every cross-factor entry of
    the whole metric's derivatives is exactly zero, and none is stored.
    ``z`` is one centre or a ``(..., n)`` stack of centres.
    """
    z = patch.coordinates(z)
    return [_factor_derivatives(f, z[..., s], step) for f, s in zip(patch.factors, patch.slices())]


def levi_inverse(g: np.ndarray) -> np.ndarray:
    """``l^{a b-}`` with the pairing ``l^{a b-} l_{c b-} = delta^a_c``.

    ``g`` may be a ``(..., n, n)`` stack; the worst condition number in
    the stack is checked.  The condition number is the Frobenius one,
    ``|g|_F |g^-1|_F``, read off the inverse already computed; it is never
    below the 2-norm one, so the limit refuses at least what an SVD's
    condition number would.  An exactly singular member reads ``inf``.
    """
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        cond = np.inf
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            frobenius = np.linalg.norm(g, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
        cond = float(np.max(frobenius))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedMetric(f"metric condition number {cond:.3e}")
    return np.swapaxes(inv, -1, -2)


class PointTensors(Record):
    """The curvature record of :func:`curvature_at`, ``linv`` = ``l^{a b-}``.

    Fields are stacked over the centres' leading axes; at one point
    ``Scal`` is a float.  ``R_{a b- c d-}`` sits at ``R[..., c, d, a, b]``
    (for a Kaehler metric also ``R_{c d- a b-}``, by the pair symmetry),
    likewise S, and ``gammas[..., c, a, r] = Gamma^r_{c a}``.
    """

    __slots__ = ("point", "g", "linv", "R", "Ric", "Scal", "P", "S", "gammas")

    def __init__(
        self,
        point: np.ndarray,
        g: np.ndarray,
        linv: np.ndarray,
        R: np.ndarray,
        Ric: np.ndarray,
        Scal: float | np.ndarray,
        P: np.ndarray,
        S: np.ndarray,
        gammas: np.ndarray,
    ) -> None:
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "linv", linv)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Ric", Ric)
        object.__setattr__(self, "Scal", Scal)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "gammas", gammas)


def first_pair_trace(tensor4: np.ndarray, linv: np.ndarray) -> np.ndarray:
    """``l^{a b-} T_{a b- c d-}`` of ``T`` stored as ``[c, d, a, b]``, like
    the record's R and S, with ``linv`` from :class:`PointTensors`.

    Batched over the leading axes: one ``(c d) x (a b)`` matrix-vector
    product per centre.
    """
    n = linv.shape[-1]
    lead = linv.shape[:-2]
    # "...cdab,...ab->...cd"
    flat = tensor4.reshape(lead + (n * n, n * n))
    return (flat @ linv.reshape(lead + (n * n, 1))).reshape(lead + (n, n))


def _riemann(
    linv: np.ndarray, hol: np.ndarray, anti: np.ndarray, hmix: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(gam, R, Ric, Scal)`` of one factor's block, batched over the
    leading axes.

    ``linv`` is the factor's block of :func:`levi_inverse` of the whole
    metric and ``hol``, ``anti``, ``hmix`` are the factor's
    :func:`metric_derivatives`.  Both vanish off the block, so Gamma, R
    and Ric do too, and Scal is a sum over the factors: O(n_k^5) per
    centre.  ``gam[..., c, a, r] = Gamma^r_{c a}`` and R is stored as
    ``[c, d, a, b]``, the layout of ``hmix``.
    """
    n = linv.shape[-1]
    lead = linv.shape[:-2]
    # Gamma^r_{c a} = l^{r s-} d_c g_{a s-}, stored as [c, a, r].
    # "...cs,...abs->...cab"
    gam = hol.reshape(lead + (n * n, n)) @ np.swapaxes(linv, -1, -2)
    # The connection term Gamma^r_{c a} d_d- g_{r b-}, a (c a) x (d b)
    # product: the O(n^5) step.
    # "...rca,...drb->...abcd"
    conn = gam @ np.swapaxes(anti, -3, -2).reshape(lead + (n, n * n))
    R = np.swapaxes(conn.reshape(lead + (n,) * 4), -3, -2) - hmix  # [c, d, a, b]
    del conn  # one n^4 array fewer at the peak
    ric = first_pair_trace(R, linv)
    # "...cd,...cd->..."
    scal = (linv.reshape(lead + (1, n * n)) @ ric.reshape(lead + (n * n, 1))).real[..., 0, 0]
    return gam.reshape(lead + (n,) * 3), R, ric, scal


def _schouten(ric: np.ndarray, scal: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """Schouten ``P = (Ric - Scal/(2(n+1)) g) / (n+2)``, trace ``Scal/(2(n+1))``."""
    return (ric - scal[..., None, None] / (2 * (n + 1)) * g) / (n + 2)


def curvature_at(
    patch: KahlerProductPatch, z: np.ndarray, step: float = METRIC_STEP
) -> PointTensors:
    """The one curvature assembly, at the centres ``z``, batched over their
    leading axes; every field of the record is stacked like ``z``.

    :func:`levi_inverse` inverts the whole metric, then :func:`_riemann`
    runs on each factor's block of it and of :func:`metric_derivatives`,
    and Gamma, R and Ric are scattered into zero arrays, their Scal
    summed.  P and the trace-free part S of R, zero iff spherical
    (n >= 2), are formed over the whole patch: each outer product one
    rank-2 product or broadcast.  The record holds the arrays they write.
    """
    z = patch.coordinates(z)
    n = patch.total_dim
    lead = z.shape[:-1]
    blocks = list(zip(patch.slices(), metric_derivatives(patch, z, step)))
    g = np.zeros(lead + (n, n), dtype=complex)
    for s, (gk, *_) in blocks:
        g[..., s, s] = gk
    linv = levi_inverse(g)
    gam = np.zeros(lead + (n,) * 3, dtype=complex)  # [c, a, r]
    R = np.zeros(lead + (n,) * 4, dtype=complex)  # [c, d, a, b]
    ric = np.zeros(lead + (n, n), dtype=complex)
    scal = 0.0
    for s, (_gk, *derivatives) in blocks:
        gam[..., s, s, s], R[..., s, s, s, s], ric[..., s, s], scal_k = _riemann(
            linv[..., s, s], *derivatives
        )
        scal += scal_k
    P = _schouten(ric, scal, g, n)
    # P_{a b-} g_{c d-} + P_{c d-} g_{a b-} at [c, d, a, b], one rank-2
    # product; its [c, b, a, d] view is P_{c b-} g_{a d-} + P_{a d-} g_{c b-}.
    # "...ab,...cd->...abcd" + "...cd,...ab->...abcd"
    gp = np.stack([g.reshape(lead + (n * n,)), P.reshape(lead + (n * n,))], axis=-1)
    pg = (gp @ np.swapaxes(gp[..., ::-1], -1, -2)).reshape(lead + (n,) * 4)
    S = R - pg
    # "...cb,...ad->...abcd" + "...ad,...cb->...abcd"
    S -= np.swapaxes(pg, -3, -1)
    return PointTensors(z, g, linv, R, ric, scal, P, S, gam)


def point_tensors(patch: KahlerProductPatch, z: np.ndarray) -> PointTensors:
    """:func:`curvature_at` at one point.  Each factor's chart check sees
    its whole stencil, and the centre is the first point it can name."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise PatchDomainError(
            f"point has {z.shape} coordinates, patch needs {patch.total_dim}"
        )
    return curvature_at(patch, z)


def _third_order_derivatives(
    patch: KahlerProductPatch, t: PointTensors
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holomorphic-direction central differences of P and Scal, and the
    trace ``l^{r d-} d_r S_{a b- c d-}``, at the centres of ``t``.

    ``t`` is ``curvature_at(patch, z)``, one centre or a stack, and the
    results are stacked like ``z``.  Each real direction ``e_r`` has the
    two centres ``x0 +- h e_r`` (``h = THIRD_ORDER_STEP``), and moves the
    coordinates of the factor ``k`` that owns it and no other.  At a moved
    centre every other factor's blocks of ``g``, R and Ric are the
    centre's bit for bit (an unmoved coordinate is ``x0 + 0.0``), so the
    work goes one factor at a time, over its ``2 dim_k`` directions of
    every sample, in chunks of whole samples that :func:`_stacks` bounds by
    a moved centre's largest arrays (block ``k``'s ``n_k^4`` and the ``2
    n^2`` of P and g).  Per chunk:

    - its second-derivative stencil at every (sample, direction, sign)
      centre, as many per call of :func:`_factor_derivatives` as the
      stencil buffer's bound holds; its chart check sees every point;
    - ``g`` is the centre's with block ``k`` replaced, and
      :func:`levi_inverse` inverts and checks it whole: O(n^3) per
      centre;
    - one :func:`_riemann` step on block ``k`` of that inverse alone
      over all the chunk's moved centres, O(n_k^5) each;
    - Ric is the centre's with block ``k`` replaced, ``Scal = sum_{f !=
      k} Scal_f(centre) + Scal_k``, and P is formed with the full ``n``:
      O(n^2) per centre;
    - the difference quotients ``d P``, ``d Scal`` and ``d R`` of block
      ``k``; R's other blocks cancel exactly, so the R part of the trace
      lies in block ``k``;
    - the four P g terms of S, each contracted with its direction's
      weight (``1/2`` for ``x_r``, ``-i/2`` for ``y_r``, times
      ``+-1/(2h) l^{r d-}``) before it is formed: ``u = w g`` and ``v =
      w P``, then ``sum_j P_j (x) u_j + g_j (x) v_j`` is one matrix
      product per sample over the (direction, sign) axis, an ``(n^2,
      n_k)`` array, and its ``a <-> c`` transpose gives the other two
      terms.

    No ``n^4`` array exists at any moved centre: the cost is O(n_k^5 +
    n^3) per moved centre.
    """
    n = patch.total_dim
    h = THIRD_ORDER_STEP
    lead = t.point.shape[:-1]
    count = int(np.prod(lead, dtype=int))
    point, g0, linv0, ric0 = (
        a.reshape((count,) + a.shape[len(lead) :]) for a in (t.point, t.g, t.linv, t.Ric)
    )
    dP = np.empty((count, 2 * n, n, n), dtype=complex)  # rows x_1..x_n, y_1..y_n
    dScal = np.empty((count, 2 * n))
    trace_R = np.zeros((count, n, n, n), dtype=complex)  # [c, a, b]
    pg = np.empty((count, n * n, n), dtype=complex)  # [(a b), c]
    slices = patch.slices()
    scal = [(linv0[:, s, s] * ric0[:, s, s]).reshape(count, -1).sum(axis=-1).real for s in slices]
    for k, (f, s) in enumerate(zip(patch.factors, slices)):
        nk = f.dim
        m = 2 * nk
        rows = np.arange(s.start, s.stop)
        rows = np.concatenate([rows, n + rows])  # x and y of block k
        e = h * np.eye(m)
        x0 = _real_coords(point[:, s])[:, None, :]
        x = np.stack([x0 + e, x0 - e], axis=2)  # [sample, direction, sign, coordinate]
        centres = x[..., :nk] + 1j * x[..., nk:]
        others = sum((scal[j] for j in range(len(slices)) if j != k), np.zeros(count))
        # lw[i, j, d] = w_j l^{r_j d-}: direction j moves x or y of row r_j
        weight = np.concatenate([np.full(nk, 0.5), np.full(nk, -0.5j)])
        lw = weight[:, None] * np.concatenate([linv0[:, s, s], linv0[:, s, s]], axis=1)
        for chunk in _stacks(count, 2 * m * max(nk**4, 2 * n * n)):
            moved = centres[chunk].reshape(-1, nk)
            derivatives = [np.empty((len(moved),) + (nk,) * r, dtype=complex) for r in (2, 3, 3, 4)]
            for call in _stacks(len(moved), _stencil_entries(nk)):
                parts = _factor_derivatives(f, moved[call], METRIC_STEP)
                for full, part in zip(derivatives, parts):
                    full[call] = part
            gk, *derivatives = (d.reshape((-1, m, 2) + d.shape[1:]) for d in derivatives)
            g = np.broadcast_to(g0[chunk, None, None], gk.shape[:3] + (n, n)).copy()
            g[..., s, s] = gk
            _gam, Rk, ric_k, scal_k = _riemann(levi_inverse(g)[..., s, s], *derivatives)
            del derivatives
            ric = np.broadcast_to(ric0[chunk, None, None], g.shape).copy()
            ric[..., s, s] = ric_k
            scal_moved = others[chunk, None, None] + scal_k
            P = _schouten(ric, scal_moved, g, n)
            dP[chunk, rows] = (P[:, :, 0] - P[:, :, 1]) / (2 * h)
            dScal[chunk, rows] = (scal_moved[:, :, 0] - scal_moved[:, :, 1]) / (2 * h)

            dR = (Rk[:, :, 0] - Rk[:, :, 1]) / (2 * h)  # [sample, direction, c, d, a, b]
            # "ijd,ijcdab->icab": for each direction and row c, a (d) x (d, (a b)) product
            trace_R[chunk, s, s, s] = (
                (lw[chunk, :, None, None, :] @ dR.reshape(-1, m, nk, nk, nk * nk))
                .sum(axis=1)
                .reshape((-1,) + (nk,) * 3)
            )
            del Rk, dR
            # the weights carry the difference quotient's +-1/(2h)
            lws = lw[chunk, :, None, :, None] * np.array([1, -1])[:, None, None] / (2 * h)
            u = (gk @ lws)[..., 0]  # w_j g_{c d-} at [sample, direction, sign, c]
            v = (P[..., s, s] @ lws)[..., 0]  # w_j P_{c d-}
            # "ijab,ijc->iabc": P (x) u + g (x) v over the (direction, sign) axis j
            X = np.concatenate([P.reshape(-1, 2 * m, n * n), g.reshape(-1, 2 * m, n * n)], axis=1)
            Y = np.concatenate([u.reshape(-1, 2 * m, nk), v.reshape(-1, 2 * m, nk)], axis=1)
            pg[chunk, :, s] = np.swapaxes(X, -1, -2) @ Y
    pg = pg.reshape(count, n, n, n)  # [a, b, c]
    # S's P g terms: P_{a b-} g_{c d-} + P_{c d-} g_{a b-} + (a <-> c)
    trace_dS = np.moveaxis(trace_R, 1, -1) - pg - np.swapaxes(pg, 1, 3)
    dP_hol = 0.5 * (dP[:, :n] - 1j * dP[:, n:])  # [c, a, b]
    dScal_hol = 0.5 * (dScal[:, :n] - 1j * dScal[:, n:])
    return (
        dP_hol.reshape(lead + (n,) * 3),
        trace_dS.reshape(lead + (n,) * 3),
        dScal_hol.reshape(lead + (n,)),
    )


def _assemble_v(dP_hol, dScal_hol, gammas, P, g, n):
    """``grad_c P_{a b-} = d_c P_{a b-} - Gamma^r_{c a} P_{r b-}``: the
    barred index picks up no connection term under a holomorphic-
    direction derivative.  ``T1_a`` is the gradient of the P-trace
    (a multiple of Scal) over ``n + 2``.  Batched over the leading axes.
    """
    lead = g.shape[:-2]
    # "...car,...rb->...cab"
    grad_P = dP_hol - (gammas.reshape(lead + (n * n, n)) @ P).reshape(lead + (n,) * 3)
    T1 = dScal_hol / (2 * (n + 1) * (n + 2))
    V = (
        1j * np.moveaxis(grad_P, -3, -1)
        - 1j * (g[..., :, :, None] * T1[..., None, None, :])  # "c,ab->abc"
        - 2j * (T1[..., :, None, None] * np.swapaxes(g, -1, -2)[..., None, :, :])  # "a,cb->abc"
    )
    return T1, V


def chern_divergence_residual(patch: KahlerProductPatch, t: PointTensors) -> dict:
    """Both sides of the divergence identity ``div S = -n i V`` at ``t.point``.

    ``t`` is ``curvature_at(patch, z)``, one centre or a stack, and every
    value is stacked like ``z``.  ``div S`` is the trace ``l^{r d-}
    grad_r S_{a b- c d-}`` with the covariant corrections on both
    unbarred slots of S.  The stencil streams ``l^{r d-} d_r S``, and
    ``l^{r d-}`` is contracted into Gamma first (``l^{r d-} Gamma^s_{r
    a}``), so the trace is O(n^5) and neither ``d S`` nor ``grad S`` is
    ever built.  Returns the two sides and the residual max-norm for
    reporting.
    """
    n = patch.total_dim
    lead = t.linv.shape[:-2]
    dP_hol, trace_dS, dScal_hol = _third_order_derivatives(patch, t)

    S = t.S  # S_{a b- c d-} at [c, d, a, b]
    # lg[a, d, s] = l^{r d-} Gamma^s_{r a}: for each a, a (d, r) x (r, s) product
    # "...rd,...ras->...ads"
    lg = np.swapaxes(t.linv, -1, -2)[..., None, :, :] @ np.swapaxes(t.gammas, -3, -2)
    # "...ads,...sbcd->...abc": for each c, an (a, (d s)) x ((d s), b) product
    first = lg.reshape(lead + (1, n, n * n)) @ S.reshape(lead + (n, n * n, n))  # [c, a, b]
    # "...cds,...absd->...abc": one (c, (s d)) x ((s d), (a b)) product
    second = np.swapaxes(lg, -2, -1).reshape(lead + (n, n * n)) @ S.reshape(lead + (n * n, n * n))
    div_S = np.moveaxis(
        np.moveaxis(trace_dS, -1, -3) - first - second.reshape(lead + (n,) * 3), -3, -1
    )

    _T1, V = _assemble_v(dP_hol, dScal_hol, t.gammas, t.P, t.g, n)
    rhs = -n * 1j * V
    tensor = (-3, -2, -1)
    return {
        "div_S": div_S,
        "minus_n_i_V": rhs,
        "residual": np.max(np.abs(div_S - rhs), axis=tensor),
        "lhs_max": np.max(np.abs(div_S), axis=tensor),
        "rhs_max": np.max(np.abs(rhs), axis=tensor),
    }


# -- independent oracles -----------------------------------------------------


def space_form_curvature_oracle(
    patch: KahlerProductPatch, z: np.ndarray
) -> np.ndarray:
    """Closed-form curvature of a product of space forms, at one centre or
    a ``(..., n)`` stack of them.

    Per factor, ``R = (hsc/2) (g g + g g)`` on the factor's block with
    the exact analytic metric; all cross-factor components vanish.  It
    is unchanged by the pair swap, so it is the reference for the
    record's ``[c, d, a, b]`` R.
    """
    z = patch.coordinates(z)
    n = patch.total_dim
    R = np.zeros(z.shape[:-1] + (n,) * 4, dtype=complex)
    for f, s in zip(patch.factors, patch.slices()):
        gb = f.metric(z[..., s])
        block = (f.c / 2) * (
            np.einsum("...ab,...cd->...abcd", gb, gb) + np.einsum("...ad,...cb->...abcd", gb, gb)
        )
        R[..., s, s, s, s] = block
    return R


def symmetry_residuals(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max deviation from R's two index symmetries, in either pair order,
    over the last four axes."""
    tensor = (-4, -3, -2, -1)
    first = np.max(np.abs(R - np.swapaxes(R, -4, -2)), axis=tensor)
    second = np.max(np.abs(R - np.swapaxes(R, -3, -1)), axis=tensor)
    return first, second
