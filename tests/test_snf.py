import hashlib
import random
from fractions import Fraction

import pytest

from conftest import brute_force_image_member, random_matrix
from crchern.cohomology.snf import IntegerMatrix, invariant_factors, smith_normal_form
from reference import determinant, from_rows, is_zero, matmul, solve_integer_system, to_lists, zero


def assert_valid_snf(A):
    U, D, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V).entries == D.entries
    assert determinant(U) in (1, -1)
    assert determinant(V) in (1, -1)
    diag = D.diagonal()
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert D.entries[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros come after the nonzero chain
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return U, D, V


def test_single_negative_entry():
    U, D, V = assert_valid_snf(from_rows([[-5]]))
    assert D.entries == ((5,),)
    assert invariant_factors(D) == (5,)


def test_known_three_by_two():
    # row reduction by hand: rank 2, all invariant factors 1
    A = from_rows([[1, 0], [-3, 1], [0, -3]])
    U, D, V = assert_valid_snf(A)
    assert invariant_factors(D) == (1, 1)
    assert A.rows - len(invariant_factors(D)) == 1  # free cokernel of rank 1


def test_zero_matrix():
    U, D, V = assert_valid_snf(zero(2, 2))
    assert is_zero(D)
    assert invariant_factors(D) == ()


@pytest.mark.parametrize(
    "rows,factors",
    [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
        ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], (1, 1, 30)),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], (2, 6, 12)),
        ([[2, 4, 6], [4, 11, 12], [6, 12, 23]], (1, 1, 30)),
    ],
    ids=["diag-2-3", "diag-6-10-15", "diag-2-3-5", "dense-2-6-12", "dense-1-1-30"],
)
def test_divisibility_fixup(rows, factors):
    # all but dense-2-6-12 meet, mid-elimination, a pivot that does not
    # divide an entry of its cleared block
    _, D, _ = assert_valid_snf(from_rows(rows))
    assert invariant_factors(D) == factors


def test_deterministic():
    A = from_rows([[4, -6, 2], [6, 3, -9]])
    first = smith_normal_form(A)
    second = smith_normal_form(A)
    assert [m.entries for m in first] == [m.entries for m in second]


def test_random_matrices_smoke():
    rng = random.Random(11)
    for _ in range(80):
        assert_valid_snf(random_matrix(rng))


@pytest.mark.parametrize("m,n", [(3, 0), (0, 3), (0, 0)], ids=["3x0", "0x3", "0x0"])
def test_empty_dimensions(m, n):
    A = zero(m, n)
    U, D, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == D  # shapes included
    assert (D.rows, D.cols) == (m, n)


# SHA-256 of the entries of (U, D, V) over pinned_matrices(), so that no
# change to the elimination moves a certificate unnoticed.  Entries only:
# the shapes are asserted one by one.
PINNED_SMITH_SHA256 = "1b24d194a020f9bd0a1d5b26bdb0d72ca328e6a92049cff3fd78bb44ba07ec59"


def pinned_matrices():
    """2,000 seeded matrices: shapes 0..6 x 0..6, entries -9..9, 30% zero."""
    nonzero = [x for x in range(-9, 10) if x]
    rng = random.Random(2024)
    for _ in range(2000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        yield IntegerMatrix(
            m,
            n,
            tuple(
                tuple(0 if rng.random() < 0.3 else rng.choice(nonzero) for _ in range(n))
                for _ in range(m)
            ),
        )


def test_smith_forms_match_the_pinned_digest():
    digest = hashlib.sha256()
    shapes = set()
    for A in pinned_matrices():
        U, D, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == D  # shapes included
        assert (D.rows, D.cols) == (A.rows, A.cols)
        shapes.add((A.rows, A.cols))
        digest.update(repr((U.entries, D.entries, V.entries)).encode())
    assert shapes == {(m, n) for m in range(7) for n in range(7)}
    assert digest.hexdigest() == PINNED_SMITH_SHA256


def test_determinant_matches_cofactor_small():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 3)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if n == 1:
            expected = a[0][0]
        elif n == 2:
            expected = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        else:
            expected = (
                a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
            )
        assert determinant(from_rows(a)) == expected


class TestIntegerSolve:
    def test_solvable_system(self):
        A = from_rows([[2, 0], [0, 3]])
        ok, x = solve_integer_system(A, [4, -9])
        assert ok and A.matvec(x) == [4, -9]

    def test_unsolvable_by_divisibility(self):
        A = from_rows([[2]])
        ok, residue = solve_integer_system(A, [3])
        assert not ok and residue

    def test_unsolvable_by_rank(self):
        A = from_rows([[1], [1]])
        ok, residue = solve_integer_system(A, [1, 2])
        assert not ok

    def test_against_brute_force_smoke(self):
        rng = random.Random(23)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            A = from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            )
            if rng.random() < 0.5:
                x0 = [rng.randint(-4, 4) for _ in range(n)]
                b = A.matvec(x0)
            else:
                b = [rng.randint(-20, 20) for _ in range(m)]
            ok, payload = solve_integer_system(A, b)
            found = brute_force_image_member(A, b, bound=50)
            if found:
                assert ok, f"brute force found a witness the solver missed: {A} {b}"
            if ok:
                assert A.matvec(payload) == b
            else:
                assert not found


def test_solve_integer_system_matches_fraction_back_substitution():
    rng = random.Random(29)
    solved = unsolved = 0
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = from_rows(
            [[rng.choice([0, 2, -2, 3, 4, 6, -6]) for _ in range(n)] for _ in range(m)]
        )
        if rng.random() < 0.5:
            b = A.matvec([rng.randint(-4, 4) for _ in range(n)])
        else:
            b = [rng.randint(-12, 12) for _ in range(m)]
        U, D, V = smith_normal_form(A)
        y = U.matvec(b)
        diag = D.diagonal()
        residue, z = [], [Fraction(0)] * n
        for i, yi in enumerate(y):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if yi:
                    residue.append((i, yi, 0))
            elif yi % d:
                residue.append((i, yi, d))
            else:
                z[i] = Fraction(yi, d)
        ok, out = solve_integer_system(A, b)
        if residue:
            assert not ok and out == tuple(residue)
            unsolved += 1
        else:
            x = [sum(V.entries[i][j] * z[j] for j in range(n)) for i in range(n)]
            assert ok and out == x and A.matvec(out) == b
            assert all(type(v) is int for v in out)
            solved += 1
    assert solved > 40 and unsolved > 40


def test_smith_forms_are_plain_integer_matrices():
    rng = random.Random(31)
    for _ in range(60):
        A = random_matrix(rng)
        U, D, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == D
        for M in (U, D, V):
            same = from_rows(to_lists(M))
            assert M == same and hash(M) == hash(same)
            assert (M.rows, M.cols) == (same.rows, same.cols)
            assert type(M.entries) is tuple
            assert all(type(row) is tuple for row in M.entries)
            assert all(type(x) is int for row in M.entries for x in row)


@pytest.mark.parametrize("bad", [3.9, True], ids=["float", "bool"])
def test_solve_refuses_an_inexact_right_hand_side(bad):
    with pytest.raises(ValueError, match="right-hand side entry is not an exact integer"):
        solve_integer_system(from_rows([[2]]), [bad])
