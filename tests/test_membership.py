import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import assert_canonical
from crchern.chern.checks import cpn_setup, fpp_times_cpn_setup, genus2_times_cpn_setup
from crchern.chern.spherical import spherical_residual
from crchern.cohomology import gysin
from crchern.cohomology.gysin import (
    EULER_SIGN_CONVENTION,
    cokernel,
    cup_matrix,
    factored_cup,
    image_membership,
)
from crchern.cohomology.ring import (
    INTEGERS,
    RATIONALS,
    RingError,
    integers_mod,
    make_ring,
)
from crchern.cohomology.snf import (
    IntegerMatrix,
    invariant_factors,
    smith_normal_form,
    solve_integer_system,
)


def cpn_ring(n, domain=INTEGERS):
    return make_ring([("t", 2, n + 1)], domain)


def th_ring():
    return make_ring([("t", 2, 3), ("h", 2, 3)], RATIONALS)


class TestCupMatrix:
    def test_cpn_times_minus_d(self):
        ring = cpn_ring(3)
        t = ring.gen("t")
        cm = cup_matrix(ring, -5 * t, 4)
        assert cm.matrix.entries == ((-5,),)
        assert cm.denominator_scale == 1

    def test_two_variable_columns(self):
        # columns frozen from the hand expansion of t*(t-3h), h*(t-3h)
        ring = th_ring()
        t, h = ring.gen("t"), ring.gen("h")
        cm = cup_matrix(ring, t - 3 * h, 4)
        cols = [[cm.matrix[i, j] for i in range(3)] for j in range(2)]
        assert cols == [[1, -3, 0], [0, 1, -3]]

    def test_zero_class_gives_zero_matrix(self):
        ring = th_ring()
        cm = cup_matrix(ring, ring.zero(), 4)
        assert cm.matrix.is_zero()

    def test_rational_entries_cleared(self):
        ring = th_ring()
        t = ring.gen("t")
        cm = cup_matrix(ring, Fraction(1, 6) * t, 4)
        assert cm.denominator_scale == 6
        assert cm.matrix.entries[0] == (1, 0)

    def test_inhomogeneous_class_rejected(self):
        ring = th_ring()
        with pytest.raises(RingError):
            cup_matrix(ring, 1 + ring.gen("t"), 4)
        with pytest.raises(RingError):
            cup_matrix(ring, ring.gen("t") ** 2, 4)


def _cup_by_products(ring, e, k):
    """Cup matrix built column by column from general ring products."""
    rows = ring.degree_basis(k)
    cols = ring.degree_basis(k - 2)
    images = [e * ring.element({mono: 1}) for mono in cols]
    scale = lcm(
        1,
        *(
            c.denominator
            for image in images
            for c in image.terms.values()
            if isinstance(c, Fraction)
        ),
    )
    entries = [[int(image.coefficient(m) * scale) for image in images] for m in rows]
    return rows, cols, entries, scale


@pytest.mark.parametrize(
    "domain,coeffs",
    [
        (INTEGERS, (2, -3, 5)),
        (RATIONALS, (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))),
        (RATIONALS, (Fraction(1, 6), 0, 0)),
        (integers_mod(6), (4, 5, 3)),
    ],
)
def test_cup_matrix_matches_column_products(domain, coeffs):
    # several truncated generators; the degree range runs past the top
    # degree, where every shifted monomial is truncated
    ring = make_ring([("a", 2, 3), ("b", 2, 2), ("c", 2, 4), ("w", 4, 2)], domain)
    a, b, c = ring.gen("a"), ring.gen("b"), ring.gen("c")
    e = coeffs[0] * a + coeffs[1] * b + coeffs[2] * c
    for k in range(0, 20, 2):
        cm = cup_matrix(ring, e, k)
        rows, cols, entries, scale = _cup_by_products(ring, e, k)
        assert cm.basis_rows == tuple(rows) and cm.basis_cols == tuple(cols)
        assert cm.matrix.to_lists() == entries
        assert all(type(x) is int for row in cm.matrix.entries for x in row)
        assert (cm.matrix.rows, cm.matrix.cols) == (len(rows), len(cols))
        assert cm.denominator_scale == scale


class TestMembership:
    def test_nonmember_two_variable(self):
        ring = th_ring()
        t, h = ring.gen("t"), ring.gen("h")
        beta = (t + 3 * h) ** 2
        cert = image_membership(ring, t - 3 * h, beta)
        assert not cert.member
        assert cert.residue
        assert cert.to_json_dict()["euler_sign"] == EULER_SIGN_CONVENTION

    def test_nonmember_degree_two(self):
        ring = make_ring([("s", 2, 2), ("h", 2, 2)], RATIONALS)
        s, h = ring.gen("s"), ring.gen("h")
        cert = image_membership(ring, -2 * s - 2 * h, -2 * s + 2 * h)
        assert not cert.member

    def test_member_with_verifiable_preimage(self):
        ring = th_ring()
        t, h = ring.gen("t"), ring.gen("h")
        e = t - 3 * h
        for x in (t, h, t + h, 2 * t - 5 * h):
            beta = e * x
            cert = image_membership(ring, e, beta)
            assert cert.member
            # the certificate is checked through the ring, not the matrix
            assert e * cert.preimage == beta

    def test_zero_is_always_a_member(self):
        ring = th_ring()
        cert = image_membership(ring, ring.gen("t"), ring.zero())
        assert cert.member and cert.preimage.is_zero()

    def test_constants_members_only_if_zero(self):
        ring = th_ring()
        cert = image_membership(ring, ring.gen("t"), ring.one())
        assert not cert.member

    def test_sign_invariance(self):
        ring = th_ring()
        t, h = ring.gen("t"), ring.gen("h")
        e = t - 3 * h
        for beta in ((t + 3 * h) ** 2, e * (t + h), t * h):
            assert (
                image_membership(ring, e, beta).member
                == image_membership(ring, -1 * e, beta).member
            )

    def test_inhomogeneous_target_rejected(self):
        ring = th_ring()
        with pytest.raises(RingError):
            image_membership(ring, ring.gen("t"), 1 + ring.gen("t"))

    def test_integer_vs_rational_verdicts_differ(self):
        # 2t * x = 6t^2 has the integer witness 3t, so 6t^2 dies in the
        # cokernel over Z; 2t * x = 3t^2 has only a rational one.
        zring = cpn_ring(2, INTEGERS)
        qring = cpn_ring(2, RATIONALS)
        tz, tq = zring.gen("t"), qring.gen("t")
        coker = cokernel(zring, 2 * tz, 4)
        assert not any(coker.class_of_element(6 * tz ** 2))
        assert any(coker.class_of_element(3 * tz ** 2))
        assert image_membership(qring, 2 * tq, 3 * tq ** 2).member

    def test_integral_rings_are_refused_before_any_factorization(self):
        # over Z the question is the target's class in the cokernel
        for domain in (INTEGERS, integers_mod(3)):
            ring = cpn_ring(2, domain)
            t = ring.gen("t")
            size = gysin._factor.cache_info().currsize
            with pytest.raises(RingError, match=r"cokernel\(\)"):
                image_membership(ring, 2 * t, t ** 2)
            assert gysin._factor.cache_info().currsize == size

    def test_rational_scaling_recorded(self):
        qring = cpn_ring(2, RATIONALS)
        t = qring.gen("t")
        cert = image_membership(qring, Fraction(1, 2) * t, t ** 2)
        assert cert.member
        assert cert.denominator_scale == 2
        assert Fraction(1, 2) * t * cert.preimage == t ** 2


class TestSharedFactorization:
    """One cup matrix, Smith form and invariant factors per content key, equal to fresh ones."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        gysin._factor.cache_clear()
        yield
        gysin._factor.cache_clear()

    @pytest.mark.parametrize(
        "domain,coeffs",
        [
            (INTEGERS, (2, -3)),
            (RATIONALS, (1, -3)),
            (RATIONALS, (Fraction(1, 6), Fraction(-2, 3))),
            (integers_mod(4), (2, 3)),
            (integers_mod(6), (2, 5)),
        ],
        ids=["Z", "Q", "Q-rational-e", "Z4", "Z6"],
    )
    def test_matches_a_fresh_factorization(self, domain, coeffs):
        # one contract on every domain: over Z/m too, the plain cup matrix
        ring = make_ring([("t", 2, 3), ("h", 2, 4), ("w", 4, 2)], domain)
        e = coeffs[0] * ring.gen("t") + coeffs[1] * ring.gen("h")
        for k in range(0, 16, 2):
            fresh = cup_matrix(ring, e, k)
            U, D, V = smith_normal_form(fresh.matrix)
            expected = (fresh, (U, D, V), invariant_factors(D))
            assert factored_cup(ring, e, k) == expected  # miss
            assert factored_cup(ring, e, k) == expected  # hit
        assert gysin._factor.cache_info().misses == 8

    def test_generator_names_do_not_matter(self):
        a = make_ring([("t", 2, 4), ("h", 2, 3)], INTEGERS)
        b = make_ring([("x", 2, 4), ("y", 2, 3)], INTEGERS)
        shared = factored_cup(a, a.gen("t") - 3 * a.gen("h"), 4)
        assert factored_cup(b, b.gen("x") - 3 * b.gen("y"), 4) is shared
        assert gysin._factor.cache_info().currsize == 1
        # and the answers under either naming are the same: membership
        # over Q, the cokernel over Z
        answers = []
        for ring, (x, y) in ((a, ("t", "h")), (b, ("x", "y"))):
            qring = make_ring([(x, 2, 4), (y, 2, 3)], RATIONALS)
            e = qring.gen(x) - 3 * qring.gen(y)
            cert = image_membership(qring, e, qring.gen(x) ** 2)
            data = cokernel(ring, ring.gen(x) - 3 * ring.gen(y), 4)
            answers.append((cert.to_json_dict(), data.to_json_dict()))
        assert answers[0] == answers[1]
        assert answers[0][0]["member"] is False

    def test_negative_degree_gives_an_empty_cokernel(self):
        # no truncation may be capped below 1: degree -2 reaches no monomial
        ring = cpn_ring(3)
        data = cokernel(ring, -5 * ring.gen("t"), -2)
        assert (data.invariant_factors, data.free_rank) == ((), 0)
        assert (data.basis, data.generator_classes) == ((), ())
        assert data.order() == 1

    def test_inhomogeneous_class_error_names_the_class(self):
        ring = make_ring([("t", 2, 4)], INTEGERS)
        t = ring.gen("t")
        # t^3 lies beyond the truncation capped at degree 2; it still counts
        for e, k in ((1 + t, 4), (t**2, 4), (t + t**3, 2)):
            with pytest.raises(RingError) as excinfo:
                factored_cup(ring, e, k)
            assert str(excinfo.value) == (
                f"cup class must be homogeneous of degree 2, got {e}"
            )
        assert gysin._factor.cache_info().currsize == 0

    def test_truncation_beyond_degree_k_shares_an_entry(self):
        cp3, cp4 = make_ring([("t", 2, 4)], RATIONALS), make_ring([("t", 2, 5)], RATIONALS)
        shared = factored_cup(cp3, -2 * cp3.gen("t"), 4)
        assert factored_cup(cp4, -2 * cp4.gen("t"), 4) is shared
        # degree 8 is reached by t^4, which only CP^4 has
        top3 = factored_cup(cp3, -2 * cp3.gen("t"), 8)
        top4 = factored_cup(cp4, -2 * cp4.gen("t"), 8)
        assert top3 is not top4
        assert top4[0] == cup_matrix(cp4, -2 * cp4.gen("t"), 8)
        assert gysin._factor.cache_info().maxsize == gysin.FACTORED_CUP_MEMO

    def test_other_degrees_or_domain_do_not_share(self):
        rings = [
            make_ring([("t", 2, 4), ("w", 4, 2)], RATIONALS),
            make_ring([("t", 2, 4), ("w", 6, 2)], RATIONALS),
            make_ring([("t", 2, 4), ("w", 4, 2)], INTEGERS),
        ]
        results = [factored_cup(r, -2 * r.gen("t"), 6) for r in rings]
        assert gysin._factor.cache_info().misses == 3
        for ring, result in zip(rings, results):
            fresh = cup_matrix(ring, -2 * ring.gen("t"), 6)
            U, D, V = smith_normal_form(fresh.matrix)
            assert result == (fresh, (U, D, V), invariant_factors(D))
        # degree 6 is t^3, t*w in one ring and t^3 alone in the other
        assert results[0][0].basis_rows != results[1][0].basis_rows

    def test_equal_classes_built_separately_share_an_entry(self):
        # the memo key is the class's content, not the object that holds it
        def classes(domain):
            ring = make_ring([("t", 2, 4), ("h", 2, 3)], domain)
            t, h = ring.gen("t"), ring.gen("h")
            first = 2 * t - 3 * h
            second = ring.element({(1, 0): 4, (0, 1): -3}) - t - t
            assert first is not second and first == second
            assert first.content_key() == second.content_key()
            return ring, first, second

        ring, first, second = classes(RATIONALS)
        beta = ring.gen("t") ** 2 + ring.gen("h") ** 2
        answer = image_membership(ring, first, beta).to_json_dict()
        misses = gysin._factor.cache_info().misses
        assert image_membership(ring, second, beta).to_json_dict() == answer
        assert gysin._factor.cache_info().misses == misses == 1
        ring, first, second = classes(INTEGERS)
        assert cokernel(ring, second, 4) == cokernel(ring, first, 4)
        assert gysin._factor.cache_info().misses == 2

    @pytest.mark.parametrize(
        "domain", [INTEGERS, RATIONALS, integers_mod(4), integers_mod(6)],
        ids=["Z", "Q", "Z4", "Z6"],
    )
    def test_invariant_factors_are_those_of_a_fresh_smith_form(self, domain):
        # membership is asked over Q, of the same integer matrix; e's
        # coefficients are below every modulus, so the entries agree
        gens = [("t", 2, 3), ("h", 2, 4), ("w", 4, 2)]
        ring, qring = make_ring(gens, domain), make_ring(gens, RATIONALS)
        t, h, w = qring.gen("t"), qring.gen("h"), qring.gen("w")
        e = 2 * ring.gen("t") + 3 * ring.gen("h")
        for k, beta in ((2, t), (4, t * h + w), (6, h**3 + t * w), (8, t**2 * w)):
            A = cup_matrix(ring, e, k).matrix
            fresh = invariant_factors(smith_normal_form(A)[1])
            assert factored_cup(ring, e, k)[2] == fresh
            cert = image_membership(qring, 2 * t + 3 * h, beta)
            assert cert.invariant_factors == fresh
            if domain.kind == "Z":
                assert cokernel(ring, e, k).invariant_factors == fresh

    def test_foreign_or_inhomogeneous_class_raises_on_every_call(self):
        # membership over Q, the cokernel over Z: one entry each
        queries = {
            RATIONALS: lambda ring, e: image_membership(ring, e, ring.gen("t") ** 2),
            INTEGERS: lambda ring, e: cokernel(ring, e, 4),
        }
        for domain, query in queries.items():
            ring = make_ring([("t", 2, 4)], domain)
            # same content key as ``ring`` at k = 4, but another ring
            other = make_ring([("t", 2, 5)], domain)
            t = ring.gen("t")
            bad = [other.gen("t") * -2, 1 + t, t**2]
            for _ in range(2):
                # fills the entry the foreign class keys to
                factored_cup(ring, -2 * t, 4)
                query(ring, -2 * t)
                for e in bad:
                    with pytest.raises(RingError):
                        factored_cup(ring, e, 4)
                    with pytest.raises(RingError):
                        query(ring, e)
        assert gysin._factor.cache_info().currsize == 2


class TestCokernel:
    def test_cpn_family_order(self):
        for n in range(2, 7):
            for d in range(1, 11):
                ring = cpn_ring(n)
                t = ring.gen("t")
                data = cokernel(ring, -d * t, 4)
                assert data.order() == d
                assert data.invariant_factors == (d,)
                # the class of t^2 generates: it must be a unit mod d
                (cls,) = data.generator_classes
                assert d == 1 or any(c % d and _is_unit(c, d) for c in cls)

    def test_zero_euler_class_free(self):
        ring = cpn_ring(3)
        data = cokernel(ring, ring.zero(), 4)
        assert data.invariant_factors == ()
        assert data.free_rank == 1
        assert data.order() is None

    def test_degree_one_trivial(self):
        ring = cpn_ring(2)
        data = cokernel(ring, -1 * ring.gen("t"), 4)
        assert data.order() == 1

    def test_requires_integer_coefficients(self):
        ring = cpn_ring(2, RATIONALS)
        with pytest.raises(RingError):
            cokernel(ring, ring.gen("t"), 4)

    def test_class_of_element_linear(self):
        ring = cpn_ring(2)
        t = ring.gen("t")
        data = cokernel(ring, -5 * t, 4)
        a = data.class_of_element(t ** 2)
        b = data.class_of_element(2 * t ** 2)
        assert b[0] % 5 == (2 * a[0]) % 5


def _is_unit(c, d):
    from math import gcd

    return gcd(c % d, d) == 1


def test_membership_vs_brute_force_over_z():
    """Literal brute-force oracle on integral degree-4 membership, which the
    cokernel decides: the class of beta is zero exactly when beta is in the image."""
    from conftest import brute_force_image_member

    rng = random.Random(41)
    ring = make_ring([("t", 2, 3), ("h", 2, 3)], INTEGERS)
    t, h = ring.gen("t"), ring.gen("h")
    checked = 0
    for _ in range(60):
        e = rng.randint(-5, 5) * t + rng.randint(-5, 5) * h
        if rng.random() < 0.5:
            beta = e * (rng.randint(-4, 4) * t + rng.randint(-4, 4) * h)
        else:
            beta = ring.element(
                {
                    (2, 0): rng.randint(-10, 10),
                    (1, 1): rng.randint(-10, 10),
                    (0, 2): rng.randint(-10, 10),
                }
            )
        if beta.is_zero():
            continue
        zero = not any(cokernel(ring, e, 4).class_of_element(beta))
        cm = cup_matrix(ring, e, 4)
        b = [int(beta.coefficient(m)) for m in cm.basis_rows]
        assert zero == brute_force_image_member(cm.matrix, b, bound=50)
        checked += 1
    assert checked > 40


def _in_m_times_cokernel(data, cls, m):
    """Whether a class lies in ``m`` times the cokernel; ``m = 0`` asks for zero.

    ``beta`` lies in the image of cup product with ``e`` over Z/m exactly
    when ``beta = e x + m y`` over Z, that is when its class lies in
    ``m * coker``: each residue mod ``d_i`` divisible by ``gcd(m, d_i)``
    and each free coordinate by ``m``.
    """
    factors = data.invariant_factors
    torsion, free = cls[: len(factors)], cls[len(factors):]
    return all(c % gcd(m, d) == 0 for c, d in zip(torsion, factors)) and all(
        (c % m if m else c) == 0 for c in free
    )


@pytest.mark.parametrize("m", [4, 6, 7])
def test_mod_m_membership_is_read_off_the_integral_cokernel(m):
    """The Z cokernel answers membership mod m; the reference solves
    ``[A | m I] x = b`` over Z, and its solution is checked over Z/m."""
    rng = random.Random(m)
    gens = [("t", 2, 4), ("h", 2, 3), ("s", 2, 2)]
    zring, mring = make_ring(gens, INTEGERS), make_ring(gens, integers_mod(m))
    seen = {"member": 0, "nonmember": 0}
    for _ in range(80):
        e = {x: rng.randrange(m) for x in zring.degree_basis(2)}
        k = rng.choice([2, 4, 6])
        if rng.random() < 0.5:
            below = {x: rng.randrange(m) for x in zring.degree_basis(k - 2)}
            beta = zring.element(e) * zring.element(below)
        else:
            beta = zring.element({x: rng.randrange(m) for x in zring.degree_basis(k)})
        if beta.is_zero():
            continue
        data = cokernel(zring, zring.element(e), k)
        member = _in_m_times_cokernel(data, data.class_of_element(beta), m)
        A = cup_matrix(zring, zring.element(e), k).matrix
        augmented = IntegerMatrix.from_rows(
            [
                list(row) + [m * (j == i) for j in range(A.rows)]
                for i, row in enumerate(A.entries)
            ]
        )
        b = [beta.coefficient(x) for x in data.basis]
        solvable, x = solve_integer_system(augmented, b)
        assert member == solvable
        if solvable:
            preimage = mring.element(dict(zip(zring.degree_basis(k - 2), x[: A.cols])))
            assert mring.element(e) * preimage == mring.element(dict(beta.terms))
        seen["member" if member else "nonmember"] += 1
    assert seen["member"] > 10 and seen["nonmember"] > 5


def test_rational_membership_is_the_free_part_of_the_cokernel():
    """Over Q, beta is a member exactly when its integral class has no free part."""
    rng = random.Random(5)
    gens = [("t", 2, 3), ("h", 2, 3)]
    zring, qring = make_ring(gens, INTEGERS), make_ring(gens, RATIONALS)
    seen = {"member": 0, "nonmember": 0}
    for _ in range(60):
        e = {x: rng.choice([0, 0, 1, -2, 3, 5]) for x in zring.degree_basis(2)}
        k = rng.choice([4, 6])
        beta = {x: rng.randint(-6, 6) for x in zring.degree_basis(k)}
        data = cokernel(zring, zring.element(e), k)
        cls = data.class_of_element(zring.element(beta))
        cert = image_membership(qring, qring.element(e), qring.element(beta))
        assert cert.member == (not any(cls[len(data.invariant_factors):]))
        seen["member" if cert.member else "nonmember"] += 1
    assert seen["member"] > 10 and seen["nonmember"] > 10


def test_membership_independent_rational_oracle():
    """Cross-check the Q verdict against a from-scratch Gaussian solve."""
    rng = random.Random(3)
    ring = th_ring()
    t, h = ring.gen("t"), ring.gen("h")
    for _ in range(150):
        e = rng.randint(-3, 3) * t + rng.randint(-3, 3) * h
        beta_src = rng.choice(["image", "random"])
        if beta_src == "image":
            beta = e * (rng.randint(-3, 3) * t + rng.randint(-3, 3) * h)
        else:
            beta = ring.element(
                {
                    (2, 0): rng.randint(-4, 4),
                    (1, 1): rng.randint(-4, 4),
                    (0, 2): rng.randint(-4, 4),
                }
            )
        if beta.is_zero():
            continue
        cert = image_membership(ring, e, beta)
        assert cert.member == _rational_solvable(ring, e, beta)
        if cert.member:
            assert e * cert.preimage == beta


def _rational_solvable(ring, e, beta):
    """Row-reduction oracle independent of the Smith-form machinery."""
    k = beta.homogeneous_degree()
    rows = ring.degree_basis(k)
    cols = ring.degree_basis(k - 2)
    A = [
        [Fraction((e * ring.element({c: 1})).coefficient(r)) for c in cols]
        for r in rows
    ]
    b = [Fraction(beta.coefficient(r)) for r in rows]
    aug = [row + [rhs] for row, rhs in zip(A, b)]
    pivot_row = 0
    for col in range(len(cols)):
        pivot = next(
            (r for r in range(pivot_row, len(aug)) if aug[r][col] != 0), None
        )
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        pv = aug[pivot_row][col]
        for r in range(len(aug)):
            if r != pivot_row and aug[r][col] != 0:
                factor = aug[r][col] / pv
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
    return all(row[-1] == 0 for row in aug[pivot_row:])


def _fraction_back_substitution(ring, e, beta):
    """Residue and preimage by the ``Fraction`` back-substitution, written out.

    ``z_i = Fraction(y_i, d_i)`` for ``y = U b``, then ``x = V z``; a
    nonzero ``y_i`` beyond the rank is a residue.
    """
    k = beta.homogeneous_degree()
    cup = cup_matrix(ring, e, k)
    b = [beta.coefficient(m) for m in cup.basis_rows]
    b_scale = lcm(1, *(Fraction(x).denominator for x in b))
    U, D, V = smith_normal_form(cup.matrix)
    y = U.matvec([int(x * b_scale) for x in b])
    diag = D.diagonal()
    residue, z = [], [Fraction(0)] * D.cols
    for i, yi in enumerate(y):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if yi:
                residue.append((i, yi, 0))
        else:
            z[i] = Fraction(yi, d)
    if residue:
        return tuple(residue), None
    x = [sum(V[i, j] * z[j] for j in range(D.cols)) for i in range(V.rows)]
    coeffs = [xi * Fraction(cup.denominator_scale, b_scale) for xi in x]
    preimage = ring.element(
        {mono: c for mono, c in zip(cup.basis_cols, coeffs) if c}
    )
    return (), preimage


def test_membership_matches_fraction_back_substitution():
    rng = random.Random(17)
    ring = make_ring([("t", 2, 4), ("h", 2, 3), ("s", 2, 2)], RATIONALS)
    gens = [ring.gen(n) for n in ("t", "h", "s")]

    def coefficient():
        if rng.random() < 0.5:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.choice([-6, -4, -3, -2, 2, 3, 4, 6, 0, 1, -1])

    seen = {"member": 0, "nonmember": 0, "non_unit": 0, "scaled": 0}
    for _ in range(120):
        e = sum((coefficient() * g for g in gens), ring.zero())
        k = rng.choice([4, 6])
        basis = ring.degree_basis(k)
        if rng.random() < 0.5:
            below = ring.element(
                {m: coefficient() for m in ring.degree_basis(k - 2)}
            )
            beta = e * below
        else:
            beta = ring.element({m: coefficient() for m in basis})
        if beta.is_zero():
            continue
        cert = image_membership(ring, e, beta)
        residue, preimage = _fraction_back_substitution(ring, e, beta)
        assert cert.residue == residue
        assert cert.member == (preimage is not None)
        if cert.member:
            assert_canonical(cert.preimage)
            assert cert.preimage == preimage
            assert str(cert.preimage) == str(preimage)
            assert e * cert.preimage == beta
            seen["member"] += 1
        else:
            seen["nonmember"] += 1
        seen["non_unit"] += any(d > 1 for d in cert.invariant_factors)
        seen["scaled"] += cert.denominator_scale > 1
    assert seen["member"] > 10 and seen["nonmember"] > 10
    assert seen["non_unit"] > 10 and seen["scaled"] > 10



# -- membership by substitution: a second decision procedure --------------
#
# Over Q, R = Q[x, h]/(x^(p+1), h^(q+1)) and e = a*x + b*h with a, b != 0
# give R/(e) = Q[x]/(x^(min(p,q)+1)) through h -> -(a/b)*x.  So a class
# of degree 2k is in Im(cup e) exactly when k > min(p, q) or its image
# sum_{i+j=k} r_ij (-a/b)^j is 0.  With one factor and e = a*x != 0,
# R/(e) = Q: every class of positive degree is a member.  The oracle reads
# the class's terms with Fraction arithmetic only.


def _member_by_substitution(e, r):
    gens = e.ring.generators
    if len(gens) == 1:
        assert set(e.terms) == {(1,)}
        return all(exps != (0,) for exps in r.terms)
    assert len(gens) == 2 and set(e.terms) == {(1, 0), (0, 1)}
    ratio = -Fraction(e.terms[(1, 0)]) / Fraction(e.terms[(0, 1)])
    low = min(g.truncation - 1 for g in gens)
    image = {}  # degree k -> coefficient of x^k
    for (i, j), c in r.terms.items():
        image[i + j] = image.get(i + j, 0) + Fraction(c) * ratio**j
    return all(k > low or not v for k, v in image.items())


def _substitution_queries():
    """``(e, target)`` of every thm-1-2 query for n <= 40, thm-1-1's c_1,
    prop-4-1's c_1^2 and the unmatched control e = t + 3h on fpp x CP^(n-2)."""

    def spherical(e, tangent, n):
        for k in range(1, n + 2):
            yield e, spherical_residual(tangent, n, k)

    for n in range(2, 41):
        setup = genus2_times_cpn_setup(n)
        yield from spherical(setup.euler, setup.base_tangent, n)
        yield setup.euler, setup.base_tangent.c1()
        for d in range(1, 6):
            setup = cpn_setup(n, d)
            yield from spherical(setup.euler, setup.base_tangent, n)
    for n in range(4, 41):
        setup = fpp_times_cpn_setup(n)
        yield from spherical(setup.euler, setup.base_tangent, n)
        yield setup.euler, setup.base_tangent.c1() ** 2
        t, h = setup.base.gen("t"), setup.base.gen("h")
        yield from spherical(t + 3 * h, setup.base_tangent, n)


def test_membership_agrees_with_substitution():
    queries = nonmembers = quotient_checked = 0
    for e, r in _substitution_queries():
        member = _member_by_substitution(e, r)
        assert image_membership(e.ring, e, r).member == member, (str(e), str(r))
        queries += 1
        nonmembers += not member
        if len(e.ring.generators) == 2 and r:
            # cup e is onto degree 2k exactly when the quotient there is 0
            p, q = (g.truncation - 1 for g in e.ring.generators)
            k = r.homogeneous_degree() // 2
            cup, _, factors = factored_cup(e.ring, e, 2 * k)
            assert (len(factors) == len(cup.basis_rows)) == (min(p, q) < k <= p + q)
            quotient_checked += 1
    assert (queries, nonmembers, quotient_checked) == (6926, 113, 2410)
