import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crchern.kahler import tensors
from crchern.kahler.patch import KahlerProductPatch, PatchDomainError, metric_at
from crchern.kahler.scenario import _cross_block_max, convergence_factor
from crchern.kahler.spaceform import SpaceFormFactor, calibrate_space_form
from crchern.kahler.tensors import (
    IllConditionedMetric,
    PointTensors,
    _assemble_v,
    _stencil_tables,
    _third_order_derivatives,
    chern_divergence_residual,
    curvature_at,
    first_pair_trace,
    levi_inverse,
    metric_derivatives,
    point_tensors,
    space_form_curvature_oracle,
    symmetry_residuals,
)

# metric_derivatives of a seeded stack, as the per-factor stencil first
# computed them; see test_metric_derivatives_are_pinned_bit_for_bit
PINNED_METRIC_DERIVATIVES = Path(__file__).parent / "data" / "metric_derivatives_pinned.json"


@pytest.fixture(scope="module")
def flat_pair():
    return KahlerProductPatch(
        (calibrate_space_form(1, 1), calibrate_space_form(1, -1))
    )


@pytest.fixture(scope="module")
def mixed_pair():
    return KahlerProductPatch(
        (calibrate_space_form(1, 1), calibrate_space_form(2, -1))
    )


@pytest.fixture(scope="module")
def three_factors():
    # mixed signs and a middle factor of dim 2: each factor's x and y
    # coordinates sit at different offsets in the patch's real layout
    return KahlerProductPatch(
        (
            calibrate_space_form(1, 1),
            calibrate_space_form(2, -1),
            calibrate_space_form(1, Fraction(1, 2)),
        )
    )


@pytest.fixture(scope="module")
def control_pair():
    f = calibrate_space_form(1, 1)
    return KahlerProductPatch((f, f))


class TestMetric:
    def test_block_diagonal_and_hermitian(self, mixed_pair):
        for z in mixed_pair.sample_points(5, seed=2):
            g = metric_at(mixed_pair, z)
            assert np.allclose(g, g.conj().T)
            assert np.abs(g[0, 1:]).max() == 0
            assert np.abs(g[1:, 0]).max() == 0
            assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_point_outside_patch_rejected(self):
        factor = calibrate_space_form(1, -1)
        patch = KahlerProductPatch((factor,))
        outside = np.array([factor.patch_radius * 1.1 + 0j])
        with pytest.raises(PatchDomainError):
            metric_at(patch, outside)

    def test_wrong_shape_rejected(self, flat_pair):
        with pytest.raises(PatchDomainError):
            metric_at(flat_pair, np.zeros(3, dtype=complex))

    def test_stacked_points_match_single_points(self, mixed_pair):
        stack = np.array(mixed_pair.sample_points(6, seed=4)).reshape(2, 3, 3)
        g = metric_at(mixed_pair, stack)
        assert g.shape == (2, 3, 3, 3)
        for i in range(2):
            for j in range(3):
                single = metric_at(mixed_pair, stack[i, j])
                assert np.max(np.abs(g[i, j] - single)) <= 1e-15 * np.max(np.abs(single))

    def test_stack_with_one_point_outside_rejected(self):
        factor = calibrate_space_form(1, -1)
        patch = KahlerProductPatch((factor,))
        outside = round(factor.patch_radius * 1.1, 2)
        stack = np.array([[0.1 + 0j], [outside + 0j], [0.2j]])
        # the factor's metric is the one chart check: both paths name the point
        message = rf"^point \[{outside}\+0\.j\] outside chart of factor dim=1, hsc=-1$"
        with pytest.raises(PatchDomainError, match=message):
            metric_at(patch, stack)
        with pytest.raises(PatchDomainError, match=message):
            factor.metric(stack)

    @pytest.mark.parametrize(
        "hsc,coordinate,named",
        [
            (-2, 1 + 0j, "[1.+0.j]"),
            (-2, 1j, "[0.+1.j]"),
            (-2, complex("nan"), "[nan+0.j]"),
            (1, complex("nan"), "[nan+0.j]"),
            (1, np.inf, "[inf+0.j]"),
        ],
        ids=["boundary", "boundary-imaginary", "nan-ball", "nan-affine", "inf-affine"],
    )
    def test_point_off_the_chart_rejected_by_the_factor(self, hsc, coordinate, named):
        # at hsc = -2 the chart is |z| < 1: b + c|z|^2 is exactly 0 at |z| = 1.
        # The stencil's row 0 is its centre, so point_tensors names the centre.
        factor = calibrate_space_form(1, hsc)
        patch = KahlerProductPatch((calibrate_space_form(1, 1), factor))
        z = np.array([0.1 + 0j, coordinate])
        message = "^" + re.escape(f"point {named} outside chart of factor dim=1, hsc={hsc}") + "$"
        with pytest.raises(PatchDomainError, match=message):
            metric_at(patch, z)
        with pytest.raises(PatchDomainError, match=message):
            point_tensors(patch, z)

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 2)])
    def test_point_tensors_takes_one_point_of_the_patch_dimension(self, flat_pair, shape):
        with pytest.raises(PatchDomainError, match="patch needs 2"):
            point_tensors(flat_pair, np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize(
        "entry",
        [
            metric_at,
            metric_derivatives,
            curvature_at,
            convergence_factor,
            space_form_curvature_oracle,
            point_tensors,
        ],
        ids=lambda f: f.__name__,
    )
    def test_wrong_dimension_rejected_by_every_entry_point(self, flat_pair, entry, count):
        # one shape check, before any stencil offset is added to the point
        message = "^" + re.escape(f"point has ({count},) coordinates, patch needs 2") + "$"
        with pytest.raises(PatchDomainError, match=message):
            entry(flat_pair, np.full(count, 0.1 + 0j))

    def test_levi_inverse_pairing(self, mixed_pair):
        z = mixed_pair.sample_points(1, seed=0)[0]
        g = metric_at(mixed_pair, z)
        linv = levi_inverse(g)
        assert np.allclose(np.einsum("ab,cb->ac", linv, g), np.eye(3))
        # the sample centre's tensors carry the same inverse
        t = point_tensors(mixed_pair, z)
        assert np.array_equal(t.linv, levi_inverse(t.g))


def _reference_metric_derivatives(patch, z, step):
    """The per-point double loop over the whole patch's real coordinates
    ``x_1..x_n, y_1..y_n``, through ``metric_at``, turned into
    ``(g, hol, anti, hmix)``."""
    n = patch.total_dim
    m = 2 * n
    x0 = np.concatenate([z.real, z.imag])

    def g(x):
        return metric_at(patch, x[:n] + 1j * x[n:])

    E = np.eye(m) * step
    g0 = g(x0)
    D1 = np.stack([(g(x0 + E[a]) - g(x0 - E[a])) / (2 * step) for a in range(m)])
    D2 = np.zeros((m, m, n, n), dtype=complex)
    for a in range(m):
        D2[a, a] = (g(x0 + E[a]) - 2 * g0 + g(x0 - E[a])) / step**2
        for b in range(a + 1, m):
            D2[a, b] = D2[b, a] = (
                g(x0 + E[a] + E[b])
                - g(x0 + E[a] - E[b])
                - g(x0 - E[a] + E[b])
                + g(x0 - E[a] - E[b])
            ) / (4 * step**2)
    hol = 0.5 * (D1[:n] - 1j * D1[n:])
    anti = 0.5 * (D1[:n] + 1j * D1[n:])
    hmix = 0.25 * (D2[:n, :n] + D2[n:, n:] + 1j * (D2[:n, n:] - D2[n:, :n]))
    return g0, hol, anti, hmix


def _cross_factor_mask(patch, rank):
    """True where the ``rank`` complex indices do not all lie in one factor."""
    block_of = np.repeat(np.arange(len(patch.factors)), [f.dim for f in patch.factors])
    first, *rest = np.ix_(*[block_of] * rank)
    mask = np.zeros((len(block_of),) * rank, dtype=bool)
    for grid in rest:
        mask |= grid != first
    return mask


RANKS = (2, 3, 3, 4)  # complex indices of g, hol, anti and hmix


def _block(x, s, rank):
    """The factor block ``s`` of the last ``rank`` axes of ``x``."""
    return x[(Ellipsis,) + (s,) * rank]


def _scatter(patch, blocks):
    """The whole patch's ``(g, hol, anti, hmix)`` from the per-factor
    ``metric_derivatives``, zero across factors."""
    n = patch.total_dim
    lead = blocks[0][0].shape[:-2]
    whole = [np.zeros(lead + (n,) * r, dtype=complex) for r in RANKS]
    for s, block in zip(patch.slices(), blocks, strict=True):
        for w, b, r in zip(whole, block, RANKS):
            _block(w, s, r)[...] = b
    return whole


def _fresh_stencil_tables(m):
    """The stencil written out pair by pair, sign block by sign block."""
    eye = np.eye(m)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    rows = [np.zeros(m), *eye, *-eye]
    for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        rows += [sa * eye[a] + sb * eye[b] for a, b in pairs]
    ia = np.array([a for a, _ in pairs], dtype=np.intp)
    ib = np.array([b for _, b in pairs], dtype=np.intp)
    return np.array(rows), ia, ib


def _complex_array(pairs):
    """``[..., 2]`` nested lists of real and imaginary parts, read exactly."""
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


class TestStencil:
    def test_metric_derivatives_are_pinned_bit_for_bit(self):
        # Two centres of the 1+2 patch, drawn at seed 83 and rounded to
        # multiples of 1/64, and a step of 2^-10: every stencil point, |z|^2
        # and z_a conj(z_b) is then exact, and each value below is one
        # correctly rounded operation after another, the same on every
        # IEEE platform whatever its fused multiply-adds.
        doc = json.loads(PINNED_METRIC_DERIVATIVES.read_text())
        patch = KahlerProductPatch(
            tuple(calibrate_space_form(d, Fraction(h)) for d, h in doc["factors"])
        )
        got = metric_derivatives(patch, _complex_array(doc["centres"]), doc["step"])
        for i, (name, rank) in enumerate(zip(("g", "hol", "anti", "hmix"), RANKS)):
            want = _complex_array(doc[name])
            assert not np.any(want[:, _cross_factor_mask(patch, rank)]), name
            for s, blocks in zip(patch.slices(), got, strict=True):
                assert np.array_equal(blocks[i], _block(want, s, rank)), name

    @pytest.mark.parametrize("m", [2, 3, 6, 12])
    def test_cached_tables_match_fresh_ones_and_are_read_only(self, m):
        tables = _stencil_tables(m)
        assert _stencil_tables(m) is tables  # built once per m
        for got, want in zip(tables, _fresh_stencil_tables(m)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1
        assert len(tables[0]) == 1 + 2 * m + 2 * m * (m - 1)

    def test_metric_derivatives_match_reference_loop(self, mixed_pair, three_factors):
        for patch in (mixed_pair, three_factors):
            for z in patch.sample_points(3, seed=67):
                got = metric_derivatives(patch, z)
                want = _reference_metric_derivatives(patch, z, 1e-4)
                for b, rank in zip(want, RANKS, strict=True):
                    # the per-factor stencils store no cross-factor entry, so
                    # they read 0: the loop's mixed differences across two
                    # factors cancel only up to rounding
                    assert np.max(np.abs(b[_cross_factor_mask(patch, rank)])) <= 1e-7
                for s, blocks in zip(patch.slices(), got, strict=True):
                    for a, b, rank in zip(blocks, want, RANKS, strict=True):
                        assert a.shape == _block(b, s, rank).shape
                        assert np.max(np.abs(a - _block(b, s, rank))) <= 1e-7

    def test_stacked_centres_match_single_centres(self, mixed_pair):
        points = mixed_pair.sample_points(2, seed=71)
        stacked = metric_derivatives(mixed_pair, np.array(points))
        for i, z in enumerate(points):
            single = metric_derivatives(mixed_pair, z)
            for blocks, one in zip(stacked, single, strict=True):
                for a, b in zip(blocks, one, strict=True):
                    assert np.max(np.abs(a[i] - b)) <= 1e-12

    def test_ill_conditioned_member_of_a_stack_detected(self):
        good = np.eye(2, dtype=complex)
        bad = np.diag([1.0, 1e-12]).astype(complex)
        assert levi_inverse(np.stack([good, good])).shape == (2, 2, 2)
        with pytest.raises(IllConditionedMetric):
            levi_inverse(np.stack([good, bad, good]))

    @pytest.mark.parametrize(
        "bad",
        [np.ones((2, 2)), np.diag([1.0, 1e-200])],
        ids=["zero pivot", "inverse norm overflows"],
    )
    def test_singular_member_of_a_stack_detected(self, bad):
        # IllConditionedMetric, not LAPACK's LinAlgError or an overflow warning
        good = np.eye(2, dtype=complex)
        with pytest.raises(IllConditionedMetric, match="^metric condition number inf$"):
            levi_inverse(np.stack([good, bad.astype(complex)]))

    def test_inverse_is_the_transposed_lapack_inverse(self, mixed_pair, three_factors):
        # the condition check reads the inverse; it does not change its bits
        rng = np.random.default_rng(89)
        stacks = [
            metric_at(p, np.array(p.sample_points(4, seed=89))) for p in (mixed_pair, three_factors)
        ]
        for n in (1, 2, 3, 6):
            a = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
            stacks.append(a @ np.swapaxes(a.conj(), -1, -2) + np.eye(n))
        for g in stacks:
            assert np.array_equal(levi_inverse(g), np.swapaxes(np.linalg.inv(g), -1, -2))

    def test_condition_limit_refuses_whatever_the_2_norm_refuses(self):
        # Hermitian positive matrices with 2-norm condition numbers from
        # 1e6 to 1e10, on both sides of CONDITION_LIMIT
        rng = np.random.default_rng(97)
        refused_2 = refused = 0
        for _ in range(400):
            n = int(rng.integers(2, 7))
            q, _r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            spread = rng.uniform(6, 10)
            eigenvalues = 10.0 ** -np.concatenate([[0, spread], rng.uniform(0, spread, n - 2)])
            g = (q * eigenvalues) @ q.conj().T
            by_2_norm = np.linalg.cond(g) > tensors.CONDITION_LIMIT
            try:
                levi_inverse(g)
            except IllConditionedMetric:
                refused += 1
            else:
                assert not by_2_norm
            refused_2 += by_2_norm
        assert 100 < refused_2 <= refused < 300

    def test_cross_block_max_matches_elementwise_scan(self, mixed_pair):
        rng = np.random.default_rng(73)
        n = mixed_pair.total_dim
        R = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
        block_of = [0, 1, 1]  # mixed_pair: dims 1 and 2
        worst = 0.0
        it = np.nditer(R, flags=["multi_index"])
        for val in it:
            if len({block_of[i] for i in it.multi_index}) > 1:
                worst = max(worst, abs(complex(val)))
        assert worst > 0
        assert _cross_block_max(mixed_pair, R) == worst
        single = KahlerProductPatch((calibrate_space_form(3, 1),))
        assert _cross_block_max(single, R) == 0.0


def _three_operand_curvature(g, hol, anti, hmix):
    """The assembly written with ``einsum`` throughout, R's connection
    term as one three-operand contraction (the O(n^6) form), in the
    record's layouts: R and S at ``[c, d, a, b]``, gammas at ``[c, a, r]``."""
    n = g.shape[-1]
    linv = levi_inverse(g)
    R = -hmix + np.einsum("...rs,...cas,...drb->...cdab", linv, hol, anti)
    ric = np.einsum("...ab,...cdab->...cd", linv, R)
    scal = np.einsum("...cd,...cd->...", linv, ric).real
    P = (ric - scal[..., None, None] / (2 * (n + 1)) * g) / (n + 2)
    S = (
        R
        - np.einsum("...ab,...cd->...cdab", P, g)
        - np.einsum("...cb,...ad->...cdab", P, g)
        - np.einsum("...cd,...ab->...cdab", P, g)
        - np.einsum("...ad,...cb->...cdab", P, g)
    )
    gammas = np.einsum("...rs,...cas->...car", linv, hol)
    return {"gammas": gammas, "R": R, "Ric": ric, "Scal": scal, "P": P, "S": S}


class TestCurvature:
    @pytest.mark.parametrize(
        "dims",
        [(1,), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)],
        ids=lambda d: f"n={sum(d)}",
    )
    def test_two_step_assembly_matches_three_operand_form(self, dims):
        patch = KahlerProductPatch(
            tuple(calibrate_space_form(d, (-1) ** i) for i, d in enumerate(dims))
        )
        n = sum(dims)
        stack = np.array(patch.sample_points(4, seed=79)).reshape(2, 2, -1)
        for centres in (stack[0, 1], stack):  # one centre, and a (2, 2) stack
            got = curvature_at(patch, centres)
            want = _three_operand_curvature(*_scatter(patch, metric_derivatives(patch, centres)))
            lead = centres.shape[:-1]
            assert got.R.shape == lead + (n,) * 4
            # Scal and S vanish on the matched pairs, so their summands,
            # Ric and R, set their rounding scale
            summands = {"Scal": "Ric", "S": "R"}
            for name, value in want.items():
                assert getattr(got, name).shape == value.shape, name
                scale = np.max(np.abs(want[summands.get(name, name)]))
                err = np.max(np.abs(getattr(got, name) - value))
                assert err <= 1e-12 * scale, name

    def test_point_tensors_is_the_assembly_at_one_point(self, three_factors):
        # one record: curvature_at writes it, point_tensors hands it on, and
        # Ric is the first-pair trace of the stored R, bit for bit
        z = three_factors.sample_points(1, seed=113)[0]
        t = point_tensors(three_factors, z)
        u = curvature_at(three_factors, z)
        for name in PointTensors.fields:
            assert np.array_equal(getattr(u, name), getattr(t, name)), name
        assert np.array_equal(first_pair_trace(t.R, t.linv), t.Ric)
        assert isinstance(t.Scal, float)

    def test_matches_space_form_closed_form(self, mixed_pair):
        for z in mixed_pair.sample_points(10, seed=7):
            R = curvature_at(mixed_pair, z).R
            exact = space_form_curvature_oracle(mixed_pair, z)
            rel = np.max(np.abs(R - exact)) / np.max(np.abs(exact))
            assert rel < 1e-6

    def test_cross_factor_components_vanish(self, flat_pair, three_factors):
        # each factor's blocks are scattered into zero arrays, and the
        # inverse of a block-diagonal metric is block diagonal: every
        # cross-factor component is an exact zero, not a cancellation
        for patch in (flat_pair, three_factors):
            for z in patch.sample_points(5, seed=3):
                t = point_tensors(patch, z)
                for name in ("R", "Ric", "linv", "gammas"):
                    x = getattr(t, name)
                    assert not np.any(x[_cross_factor_mask(patch, x.ndim)]), name

    def test_one_riemann_step_per_factor_block(self, monkeypatch):
        # the assembly hands each factor's block of the whole inverse, and
        # of that factor's derivatives, to its own Riemann step
        patch = _patch((3, 1, 2), (1, -1, 1))
        seen = []
        riemann = tensors._riemann

        def counted_riemann(linv, hol, anti, hmix):
            seen.append((linv.copy(), hmix.shape))
            return riemann(linv, hol, anti, hmix)

        monkeypatch.setattr(tensors, "_riemann", counted_riemann)
        t = point_tensors(patch, patch.sample_points(1, seed=109)[0])
        assert [shape for _, shape in seen] == [(f.dim,) * 4 for f in patch.factors]
        for (linv, _), s in zip(seen, patch.slices(), strict=True):
            assert np.array_equal(linv, t.linv[s, s])

    def test_condition_check_reads_the_whole_metric(self, monkeypatch):
        # As at a moved centre of the divergence stencil: the dim-2 factor
        # near its chart's edge has a Frobenius condition number of about
        # 50 and the unit block of the other factor about 1, while the
        # whole metric's is about 2500.  A limit between them must refuse.
        patch = _patch((2, 1), (-1, 1))
        z = np.array([1.4 + 0j, 0j, 0.1 + 0j])
        t = point_tensors(patch, z)
        blocks = [np.linalg.norm(t.g[s, s]) * np.linalg.norm(t.linv[s, s]) for s in patch.slices()]
        whole = np.linalg.norm(t.g) * np.linalg.norm(t.linv)
        assert 40 * max(blocks) < whole
        monkeypatch.setattr(tensors, "CONDITION_LIMIT", np.sqrt(max(blocks) * whole))
        with pytest.raises(IllConditionedMetric, match="^metric condition number "):
            point_tensors(patch, z)

    def test_symmetries(self, mixed_pair):
        for z in mixed_pair.sample_points(5, seed=5):
            R = curvature_at(mixed_pair, z).R
            s1, s2 = symmetry_residuals(R)
            bound = 1e-6 * (1 + np.max(np.abs(R)))
            assert s1 <= bound and s2 <= bound

    def test_einstein_factor_ricci(self):
        # genus-two model factor: Einstein constant -1 means Ric = -g
        factor = calibrate_space_form(1, -1)
        patch = KahlerProductPatch((factor,))
        for z in patch.sample_points(5, seed=11):
            ric = curvature_at(patch, z).Ric
            g = metric_at(patch, z)
            assert np.max(np.abs(ric + g)) < 1e-6

    def test_second_order_convergence(self, mixed_pair):
        z = mixed_pair.sample_points(1, seed=9)[0]
        factor = convergence_factor(mixed_pair, z)
        assert 3.5 <= factor <= 4.5

    def test_second_order_convergence_single_factors(self):
        for dim, hsc in ((1, 1), (1, -1), (2, -1)):
            patch = KahlerProductPatch((calibrate_space_form(dim, hsc),))
            for z in patch.sample_points(3, seed=61):
                assert 3.5 <= convergence_factor(patch, z) <= 4.5


class TestSchoutenAndChern:
    def test_schouten_trace_identity(self, mixed_pair):
        n = mixed_pair.total_dim
        for z in mixed_pair.sample_points(5, seed=13):
            t = point_tensors(mixed_pair, z)
            trace = complex(np.einsum("ab,ab->", levi_inverse(t.g), t.P))
            assert abs(trace - t.Scal / (2 * (n + 1))) < 1e-9

    def test_einstein_factor_schouten_scalar(self):
        # single Einstein factor: P = lam / (2(n+1)) g with lam = Ric/g
        factor = calibrate_space_form(2, 1)
        patch = KahlerProductPatch((factor,))
        n = 2
        lam = 1.5  # Ric = (3/2) hsc g at hsc = 1
        for z in patch.sample_points(3, seed=17):
            t = point_tensors(patch, z)
            assert np.max(np.abs(t.P - lam / (2 * (n + 1)) * t.g)) < 1e-6

    def test_chern_tensor_flat_pairs(self, flat_pair, mixed_pair):
        for patch in (flat_pair, mixed_pair):
            for z in patch.sample_points(10, seed=19):
                t = point_tensors(patch, z)
                assert np.max(np.abs(t.S)) < 1e-6

    def test_chern_tensor_control_large(self, control_pair):
        values = []
        for z in control_pair.sample_points(10, seed=23):
            t = point_tensors(control_pair, z)
            values.append(np.max(np.abs(t.S)))
        assert max(values) > 1e-2  # curvature magnitude 1: breaks flatness

    def test_chern_tensor_first_pair_tracefree(self, control_pair):
        for z in control_pair.sample_points(5, seed=29):
            t = point_tensors(control_pair, z)
            bound = 1e-6 * (1 + np.max(np.abs(t.R)))
            assert np.max(np.abs(first_pair_trace(t.S, t.linv))) <= bound

    def test_zero_curvature_gives_zero_schouten(self):
        # flat-limit control through a tiny curvature parameter
        from fractions import Fraction

        factor = calibrate_space_form(1, Fraction(1, 10**4))
        patch = KahlerProductPatch((factor,))
        t = point_tensors(patch, np.zeros(1, dtype=complex))
        assert np.max(np.abs(t.P)) < 1e-4


def _whole_patch_third_order_derivatives(patch, z, linv):
    """The third-order stencil as first streamed: every +- centre reruns
    ``metric_derivatives`` over the whole patch, every factor's stencil."""
    n = patch.total_dim
    m = 2 * n
    h = tensors.THIRD_ORDER_STEP
    x0 = np.concatenate([z.real, z.imag])
    weight = np.concatenate([np.full(n, 0.5), np.full(n, -0.5j)])
    lw = weight[:, None] * np.concatenate([linv, linv])
    e = h * np.eye(m)
    x = np.stack([x0 + e, x0 - e], axis=1)
    t = curvature_at(patch, x[..., :n] + 1j * x[..., n:])
    dP = (t.P[:, 0] - t.P[:, 1]) / (2 * h)
    dScal = (t.Scal[:, 0] - t.Scal[:, 1]) / (2 * h)
    dS = (t.S[:, 0] - t.S[:, 1]) / (2 * h)  # [direction, c, d, a, b]
    trace_dS = (lw[:, None, None, :] @ dS.reshape(m, n, n, n * n)).sum(axis=0)
    dP_hol = 0.5 * (dP[:n] - 1j * dP[n:])
    dScal_hol = 0.5 * (dScal[:n] - 1j * dScal[n:])
    return dP_hol, trace_dS.reshape(n, n, n).transpose(1, 2, 0), dScal_hol


def _patch(dims, signs):
    return KahlerProductPatch(tuple(calibrate_space_form(d, s) for d, s in zip(dims, signs)))


def _rounding_unit(patch, t):
    """The rounding of S's own O(|R|) summands over the third-order step.

    The stencil differences the R part and the P g parts of S apart, so
    their quotients, each O(|R| / h), cancel only after rounding.
    """
    n = patch.total_dim
    return 16 * n * np.finfo(float).eps * np.max(np.abs(t.R)) / tensors.THIRD_ORDER_STEP


def v_tensor(patch, z):
    """``(T1, V)`` at ``z``, assembled from the third-order stencil."""
    t = point_tensors(patch, z)
    dP, _trace_dS, dScal = _third_order_derivatives(patch, t)
    return _assemble_v(dP, dScal, t.gammas, t.P, t.g, patch.total_dim)


def _assert_divergence_matches_full_gradient_of_s(dims, signs):
    """div S = l^{r d-} grad_r S_{a b- c d-}, built from the whole array
    d S, one +- pair of point_tensors per real direction, and the whole
    n^5 array grad S: the streamed stencil stores neither."""
    patch = _patch(dims, signs)
    n = patch.total_dim
    z = patch.sample_points(1, seed=83)[0]
    t = point_tensors(patch, z)
    h = tensors.THIRD_ORDER_STEP
    x0 = np.concatenate([z.real, z.imag])
    dS = np.empty((2 * n,) + (n,) * 4, dtype=complex)
    for a in range(2 * n):
        e = np.zeros(2 * n)
        e[a] = h
        S = [point_tensors(patch, x[:n] + 1j * x[n:]).S for x in (x0 + e, x0 - e)]
        dS[a] = (S[0] - S[1]) / (2 * h)
    dS_hol = 0.5 * (dS[:n] - 1j * dS[n:])  # [r, c, d, a, b]
    # Gamma^s_{r a} S_{s b- c d-} + Gamma^s_{r c} S_{a b- s d-}
    gamma_terms = np.einsum("ras,cdsb->rcdab", t.gammas, t.S) + np.einsum(
        "rcs,sdab->rcdab", t.gammas, t.S
    )
    want = np.einsum("rd,rcdab->abc", t.linv, dS_hol - gamma_terms)
    # div S vanishes on space-form products, so the rounding of its
    # summands, not its own size, sets the scale
    scale = max(
        np.max(np.abs(np.einsum("rd,rcdab->abc", t.linv, dS_hol))),
        np.max(np.abs(np.einsum("rd,rcdab->abc", t.linv, gamma_terms))),
    )
    got = chern_divergence_residual(patch, t)["div_S"]
    assert np.max(np.abs(got - want)) <= 1e-12 * scale + _rounding_unit(patch, t)


class TestThirdOrder:
    def test_v_tensor_vanishes_on_einstein_products(self, flat_pair):
        z = flat_pair.sample_points(1, seed=31)[0]
        T1, V = v_tensor(flat_pair, z)
        assert np.max(np.abs(T1)) < 1e-4
        assert np.max(np.abs(V)) < 1e-4

    @pytest.mark.parametrize(
        "dims,signs",
        [((1, 1), (1, 1)), ((1, 2), (1, 1)), ((2, 1), (1, -1)), ((1, 2, 1), (1, -1, 1))],
    )
    def test_divergence_matches_full_gradient_of_s(self, dims, signs):
        _assert_divergence_matches_full_gradient_of_s(dims, signs)

    @pytest.mark.parametrize(
        "dims,signs",
        [((1, 1), (1, -1)), ((2, 2), (1, 1))],
        ids=["1+1: one call per factor", "2+2: calls of 3, 3 and 2 centres per factor"],
    )
    def test_divergence_with_a_partial_last_stack(self, dims, signs, monkeypatch):
        monkeypatch.setattr(tensors, "STACK_ENTRIES", 3 * tensors._stencil_entries(2))
        _assert_divergence_matches_full_gradient_of_s(dims, signs)

    @pytest.mark.parametrize("centres_per_call", [4, 5], ids=["4 centres", "5 centres"])
    @pytest.mark.parametrize("matched", [True, False], ids=["matched", "equal signs"])
    @pytest.mark.parametrize(
        "dims,signs",
        [((1, 1), (1, -1)), ((1, 2), (1, -1)), ((3, 3), (1, -1)), ((1, 2, 1), (1, -1, 1))],
        ids=["1+1", "1+2", "3+3", "1+2+1"],
    )
    def test_factor_local_stencil_matches_whole_patch(
        self, dims, signs, matched, centres_per_call, monkeypatch
    ):
        # The whole-patch stencil assembles every factor's blocks at every
        # centre of one sample and differences S itself; the factor-local
        # one, run on both samples stacked, sums the same difference
        # quotients in another order.  With 5 centres per call of the
        # largest factor's stencil its last call is partial at 1+2 and 3+3,
        # and at 3+3 a call holds centres of both samples.
        largest = tensors._stencil_entries(max(dims))
        monkeypatch.setattr(tensors, "STACK_ENTRIES", centres_per_call * largest)
        patch = _patch(dims, signs if matched else [abs(s) for s in signs])
        zs = np.array(patch.sample_points(2, seed=101))
        got = _third_order_derivatives(patch, curvature_at(patch, zs))
        for i, z in enumerate(zs):
            t = point_tensors(patch, z)
            want = _whole_patch_third_order_derivatives(patch, z, t.linv)
            for name, a, b in zip(("dP_hol", "trace_dS", "dScal_hol"), got, want, strict=True):
                assert a[i].shape == b.shape, name
                assert np.max(np.abs(a[i] - b)) <= _rounding_unit(patch, t), name

    @pytest.mark.parametrize("centres_per_call", [1, 2, 4])
    def test_stencil_buffer_is_bounded_and_each_factor_assembles_once(
        self, centres_per_call, monkeypatch
    ):
        # Each call of the factor stencil holds at most STACK_ENTRIES
        # entries, and every moved centre of every sample is evaluated
        # once, in sample order.  Samples are stacked in chunks of as many
        # whole samples as the bound holds (at least one), by a moved
        # centre's largest arrays: block k's n_k^4 curvature, and P and g
        # side by side (2 n^2).  One Riemann step per factor per chunk, on
        # that factor's block alone.
        bound = centres_per_call * tensors._stencil_entries(3)
        monkeypatch.setattr(tensors, "STACK_ENTRIES", bound)
        patch = _patch((3, 1, 2), (1, -1, 1))
        n, samples = patch.total_dim, 3
        zs = np.array(patch.sample_points(samples, seed=107))
        t = curvature_at(patch, zs)
        calls, blocks = [], []
        factor_derivatives, riemann = tensors._factor_derivatives, tensors._riemann

        def counted_stencil(factor, z, step):
            calls.append((factor.dim, np.array(z)))
            return factor_derivatives(factor, z, step)

        def counted_riemann(linv, *rest):
            blocks.append(linv.shape)
            return riemann(linv, *rest)

        monkeypatch.setattr(tensors, "_factor_derivatives", counted_stencil)
        monkeypatch.setattr(tensors, "_riemann", counted_riemann)
        chern_divergence_residual(patch, t)
        h = tensors.THIRD_ORDER_STEP
        expected_blocks = []
        for f, s in zip(patch.factors, patch.slices()):
            m = 2 * f.dim
            evaluated = [z for dim, z in calls if dim == f.dim]
            assert all(len(z) * tensors._stencil_entries(f.dim) <= bound for z in evaluated)
            x0 = np.concatenate([zs[:, s].real, zs[:, s].imag], axis=-1)[:, None, None, :]
            sign = np.array([1, -1])[:, None]
            x = x0 + sign * h * np.eye(m)[:, None, :]  # [sample, direction, sign, coordinate]
            moved = (x[..., : f.dim] + 1j * x[..., f.dim :]).reshape(-1, f.dim)
            assert np.array_equal(np.concatenate(evaluated), moved)
            per_chunk = max(1, bound // (2 * m * max(f.dim**4, 2 * n * n)))
            for lo in range(0, samples, per_chunk):
                expected_blocks.append((min(per_chunk, samples - lo), m, 2, f.dim, f.dim))
        assert blocks == expected_blocks
        assert len(blocks) > len(patch.factors)

    def test_condition_check_reads_the_whole_moved_metric(self, monkeypatch):
        # The dim-2 factor near its chart's edge has metric eigenvalues of
        # about 2500 and 50, its own Frobenius condition number about 50;
        # with the unit block of the other factor, the whole metric's is
        # about 2500.  A limit between the two must refuse the stencil.
        patch = _patch((2, 1), (-1, 1))
        t = point_tensors(patch, np.array([1.4 + 0j, 0j, 0.1 + 0j]))
        blocks = [np.linalg.norm(t.g[s, s]) * np.linalg.norm(t.linv[s, s]) for s in patch.slices()]
        whole = np.linalg.norm(t.g) * np.linalg.norm(t.linv)
        assert 40 * max(blocks) < whole
        monkeypatch.setattr(tensors, "CONDITION_LIMIT", np.sqrt(max(blocks) * whole))
        with pytest.raises(IllConditionedMetric, match="^metric condition number "):
            chern_divergence_residual(patch, t)

    @pytest.mark.parametrize(
        "dims,signs,points",
        [((3, 3), (1, -1), 1752), ((1, 2, 1), (1, -1, 1), 336)],
        ids=["3+3", "1+2+1"],
    )
    def test_stencil_evaluates_only_the_moved_factor(self, dims, signs, points, monkeypatch):
        # Per factor of real dimension m_f: m_f directions, two centres
        # each, 1 + 2 m_f^2 metric points per centre; the centre's own
        # stencil comes with t and is not evaluated again.
        patch = _patch(dims, signs)
        z = patch.sample_points(1, seed=103)[0]
        t = point_tensors(patch, z)
        seen = []
        metric = SpaceFormFactor.metric

        def counted(factor, w):
            seen.append((factor, np.asarray(w).reshape(-1, factor.dim)))
            return metric(factor, w)

        monkeypatch.setattr(SpaceFormFactor, "metric", counted)
        chern_divergence_residual(patch, t)
        assert sum(len(w) for _, w in seen) == points
        assert points == sum(2 * (2 * d) * (1 + 2 * (2 * d) ** 2) for d in dims)
        for f, s in zip(patch.factors, patch.slices()):
            evaluated = np.concatenate([w for factor, w in seen if factor is f])
            assert len(evaluated) == 2 * (2 * f.dim) * (1 + 2 * (2 * f.dim) ** 2)
            assert not np.any(np.all(evaluated == z[s], axis=-1))

    def test_stencil_leaving_a_chart_names_the_factor_and_an_outside_point(self):
        # hsc = -2: the chart is |z| < 1.  point_tensors' stencil (step 1e-4)
        # stays inside; the +x_2 centre of the third-order stencil does not.
        patch = _patch((1, 1), (1, -2))
        t = point_tensors(patch, np.array([0.1 + 0j, 1 - 5e-4 + 0j]))
        message = r"^point \[(.+)\] outside chart of factor dim=1, hsc=-2$"
        with pytest.raises(PatchDomainError, match=message) as caught:
            chern_divergence_residual(patch, t)
        named = complex(re.match(message, str(caught.value)).group(1))
        assert abs(named) >= 1

    def test_divergence_identity_flat(self, flat_pair):
        for z in flat_pair.sample_points(3, seed=37):
            out = chern_divergence_residual(flat_pair, point_tensors(flat_pair, z))
            assert out["residual"] < 1e-3
            assert out["lhs_max"] < 1e-3 and out["rhs_max"] < 1e-3

    def test_divergence_identity_control(self, control_pair):
        # S is parallel for any space-form product, so both sides still
        # vanish; the cancellation now runs through the connection terms.
        z = control_pair.sample_points(1, seed=41)[0]
        out = chern_divergence_residual(control_pair, point_tensors(control_pair, z))
        assert out["residual"] < 1e-3


def pseudo_einstein_residual(t, n):
    """``Ric - (Scal/n) g``; zero iff the contact form is pseudo-Einstein."""
    return t.Ric - (t.Scal / n) * t.g


class TestPseudoEinstein:
    def test_single_factor_is_pseudo_einstein(self):
        factor = calibrate_space_form(2, -1)
        patch = KahlerProductPatch((factor,))
        for z in patch.sample_points(3, seed=47):
            t = point_tensors(patch, z)
            res = pseudo_einstein_residual(t, 2)
            assert np.max(np.abs(res)) < 1e-7

    def test_opposite_sign_product_is_not(self, flat_pair):
        t = point_tensors(flat_pair, np.zeros(2, dtype=complex))
        res = pseudo_einstein_residual(t, 2)
        assert np.max(np.abs(res)) > 0.1

    def test_scaling_preserves_zero_set(self):
        # a single factor stays pseudo-Einstein at every curvature scale
        for hsc in (1, 5):
            factor = calibrate_space_form(2, hsc)
            patch = KahlerProductPatch((factor,))
            z = patch.sample_points(1, seed=53)[0]
            t = point_tensors(patch, z)
            res = pseudo_einstein_residual(t, 2)
            assert np.max(np.abs(res)) < 1e-6


class TestInvariance:
    def test_quarter_turn_leaves_scalars_unchanged(self, control_pair):
        # diag(i, 1) maps the finite-difference lattice onto itself, so
        # the comparison is exact up to float associativity
        z = control_pair.sample_points(1, seed=59)[0]
        rotated = z.copy()
        rotated[0] *= 1j
        t1 = point_tensors(control_pair, z)
        t2 = point_tensors(control_pair, rotated)
        assert abs(t1.Scal - t2.Scal) < 1e-8
        assert abs(np.max(np.abs(t1.S)) - np.max(np.abs(t2.S))) < 1e-8
        _, V1 = v_tensor(control_pair, z)
        _, V2 = v_tensor(control_pair, rotated)
        assert abs(np.max(np.abs(V1)) - np.max(np.abs(V2))) < 1e-8


def test_ill_conditioned_metric_detected():
    factor = calibrate_space_form(1, -1)
    patch = KahlerProductPatch((factor,))
    # points approaching the chart boundary blow up the metric
    near_edge = np.array([factor.patch_radius * 0.999999 + 0j])
    with pytest.raises((IllConditionedMetric, PatchDomainError)):
        curvature_at(patch, near_edge)
