import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import naive_evaluate
from crchern.chern import tractor
from crchern.chern.tractor import (
    _build_matrix,
    ring_matrix_determinant,
    tractor_determinant_check,
)
from crchern.cohomology.ring import RATIONALS, make_ring


class TestDeterminant:
    def test_two_by_two(self):
        ring = make_ring([("a", 2, 5), ("b", 2, 5), ("c", 2, 5), ("d", 2, 5)], RATIONALS)
        a, b, c, d = (ring.gen(x) for x in "abcd")
        det = ring_matrix_determinant([[a, b], [c, d]])
        assert det == a * d - b * c

    def test_three_by_three_against_rule_of_sarrus(self):
        ring = make_ring([(f"x{i}", 2, 3) for i in range(9)], RATIONALS)
        x = [ring.gen(f"x{i}") for i in range(9)]
        m = [x[0:3], x[3:6], x[6:9]]
        det = ring_matrix_determinant(m)
        sarrus = (
            x[0] * x[4] * x[8]
            + x[1] * x[5] * x[6]
            + x[2] * x[3] * x[7]
            - x[2] * x[4] * x[6]
            - x[0] * x[5] * x[7]
            - x[1] * x[3] * x[8]
        )
        assert det == sarrus

    def test_scalar_matrix(self):
        ring = make_ring([("w", 2, 6)], RATIONALS)
        w = ring.gen("w")
        det = ring_matrix_determinant(
            [[w, ring.zero()], [ring.zero(), w]]
        )
        assert det == w * w

    def test_random_four_by_four_against_leibniz_formula(self):
        rng = random.Random(3)
        ring = make_ring(
            [("a", 2, 4), ("b", 2, 3), ("c", 4, 2), ("d", 2, 2)], RATIONALS
        )
        gens = [ring.gen(x) for x in "abcd"]

        def entry():
            if rng.random() < 0.4:
                return ring.zero()
            el = ring.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for g in rng.sample(gens, rng.randint(0, 2)):
                el = el + rng.randint(-3, 3) * g
            return el

        for _ in range(25):
            m = [[entry() for _ in range(4)] for _ in range(4)]
            leibniz = ring.zero()
            for perm in permutations(range(4)):
                inversions = sum(
                    perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)
                )
                prod = ring.one()
                for row, col in enumerate(perm):
                    prod = prod * m[row][col]
                leibniz = leibniz + (-1) ** inversions * prod
            assert ring_matrix_determinant(m) == leibniz


class TestTractorIdentity:
    def test_family(self):
        for n in range(1, 7):
            report = tractor_determinant_check(n)
            assert report.passed, f"n={n}"

    def test_identity_shape(self):
        report = tractor_determinant_check(2)
        names = [name for name, ok in report.assertions]
        assert "det(I + s*Omega) == (1 + s*w)^(n+2) symbolically" in names
        assert report.residuals == [{"det_minus_rhs": "0"}]
        assert report.witnesses[0]["free_indeterminates"] == 5

    def test_control_depends_on_inserted_entry(self):
        report = tractor_determinant_check(3)
        flags = dict(report.assertions)
        assert flags["control with nonzero middle block fails"]
        assert flags["control failure depends on the inserted entry"]

    def test_starred_entries_cancel_in_symbolic_determinant(self):
        # no term of the one expansion, control entry included, carries a
        # star: stronger than the same statement at xi = 0
        for n in range(1, 5):
            ring, diagonal, matrix = _build_matrix(n)
            full = ring_matrix_determinant(matrix)
            star_indices = [ring.gen_index(f"x{i}") for i in range(1, 2 * n + 2)]
            for exps in full.terms:
                assert all(exps[i] == 0 for i in star_indices), n

    def test_identity_is_not_a_truncation_artifact(self):
        # the top monomial s^(n+2) w^(n+2) must survive in the expansion;
        # if the working truncations ever clipped it, the symbolic
        # comparison would be vacuous
        n = 3
        ring, diagonal, matrix = _build_matrix(n)
        full = ring_matrix_determinant(matrix)
        top = [0] * len(ring.generators)
        top[ring.gen_index("s")] = n + 2
        top[ring.gen_index("w")] = n + 2
        assert full.coefficient(tuple(top)) == 1

    def test_random_point_invariance_with_seeds(self):
        # the identity evaluates equal regardless of the sampled values
        for seed in (0, 1, 2):
            assert tractor_determinant_check(2, seed=seed).passed

    def test_direct_evaluation_at_arbitrary_point(self):
        ring, diagonal, matrix = _build_matrix(1)
        full = ring_matrix_determinant(matrix)
        rng = random.Random(5)
        values = {
            g.name: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for g in ring.generators
        }
        values["xi"] = 0
        lhs = full.evaluate(values)
        rhs = (1 + values["s"] * values["w"]) ** 3
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sample_points_match_all_generator_product(self, n):
        # the check's own draws: every sample point, evaluated through the
        # common-denominator sum, the naive product and the closed form
        ring, diagonal, matrix = _build_matrix(n)
        full = ring_matrix_determinant(matrix)
        xi = ring.gen_index("xi")
        rng = random.Random(0)
        for _ in range(tractor.SAMPLE_POINTS):
            values = {
                g.name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for g in ring.generators[:xi]
            }
            values["xi"] = 0
            closed_form = (1 + values["s"] * values["w"]) ** (n + 2)
            assert full.evaluate(values) == naive_evaluate(full, values) == closed_form

    @pytest.mark.parametrize("n", range(1, 7))
    def test_xi_free_part_evaluates_as_the_expansion_at_xi_zero(self, n):
        # the check evaluates the xi-free part at its sample points, which
        # is the expansion itself there
        ring, diagonal, matrix = _build_matrix(n)
        full = ring_matrix_determinant(matrix)
        xi = ring.gen_index("xi")
        det = ring.element({e: c for e, c in full.terms.items() if not e[xi]})
        assert det != full
        rng = random.Random(n)
        for _ in range(tractor.SAMPLE_POINTS):
            values = {
                g.name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for g in ring.generators[:xi]
            }
            values["xi"] = 0
            assert det.evaluate(values) == full.evaluate(values)

    def test_a_stray_starred_term_fails_symbolically_and_at_the_points(self, monkeypatch):
        def stray(entries):
            full = ring_matrix_determinant(entries)
            ring = full.ring
            return full + ring.gen("s") * ring.gen("x1")

        monkeypatch.setattr(tractor, "ring_matrix_determinant", stray)
        report = tractor_determinant_check(3)
        flags = dict(report.assertions)
        assert not report.passed
        assert not flags["det(I + s*Omega) == (1 + s*w)^(n+2) symbolically"]
        assert not flags[
            f"symbolic identity confirmed at {tractor.SAMPLE_POINTS} random rational points"
        ]
        assert report.residuals == [{"det_minus_rhs": "s*x1"}]

    def test_matrix_entries_match_identity_plus_s_omega(self):
        # every entry, zero ones included, is (1 or 0) + s * Omega_ij
        for n in range(1, 5):
            ring, diagonal, matrix = _build_matrix(n)
            s, w = ring.gen("s"), ring.gen("w")
            size = n + 2
            stars = iter(ring.gen(f"x{i}") for i in range(1, 2 * n + 2))
            omega = [[ring.zero()] * size for _ in range(size)]
            for i in range(size):
                omega[i][i] = w
            for i in range(1, size):
                omega[i][0] = next(stars)
            for j in range(1, size - 1):
                omega[size - 1][j] = next(stars)
            omega[1][1] = w + ring.gen("xi")
            assert diagonal == 1 + s * w
            for i in range(size):
                for j in range(size):
                    base = ring.one() if i == j else ring.zero()
                    assert matrix[i][j] == base + s * omega[i][j], (n, i, j)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_witnesses_match_two_separate_expansions(self, n):
        # the two matrices the check once built, each through Omega in its
        # own ring: the xi-free one gives the determinant witness, the
        # control gives the difference's term count
        def expansion(with_xi):
            size = n + 2
            names = [f"x{i}" for i in range(1, 2 * n + 2)]
            gens = [("s", 2, size + 1), ("w", 2, size + 1)]
            gens += [(name, 2, 2) for name in names] + [("xi", 2, 2)] * with_xi
            ring = make_ring(gens, RATIONALS)
            s, w = ring.gen("s"), ring.gen("w")
            stars = iter(names)
            omega = [[ring.zero()] * size for _ in range(size)]
            for i in range(size):
                omega[i][i] = w
            for i in range(1, size):
                omega[i][0] = ring.gen(next(stars))
            for j in range(1, size - 1):
                omega[size - 1][j] = ring.gen(next(stars))
            if with_xi:
                omega[1][1] = omega[1][1] + ring.gen("xi")
            matrix = [
                [(1 if i == j else 0) + s * omega[i][j] for j in range(size)]
                for i in range(size)
            ]
            return ring_matrix_determinant(matrix), (1 + s * w) ** (n + 2)

        witness = tractor_determinant_check(n).witnesses[0]
        det, _ = expansion(False)
        assert witness["determinant"] == str(det)
        control, rhs = expansion(True)
        assert witness["control_difference_terms"] == len((control - rhs).terms)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_control_difference_closed_form(self, n):
        ring, diagonal, matrix = _build_matrix(n)
        full = ring_matrix_determinant(matrix)
        s, xi = ring.gen("s"), ring.gen("xi")
        assert full - diagonal ** (n + 2) == s * xi * diagonal ** (n + 1)

    def test_one_expansion_per_check(self, monkeypatch):
        calls = []

        def counting(entries):
            calls.append(len(entries))
            return ring_matrix_determinant(entries)

        monkeypatch.setattr(tractor, "ring_matrix_determinant", counting)
        assert tractor_determinant_check(3).passed
        assert calls == [5]
