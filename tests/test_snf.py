import random
from fractions import Fraction

import pytest

from conftest import brute_force_image_member, random_matrix
from crchern.cohomology import (
    IntegerMatrix,
    determinant,
    invariant_factors,
    smith_normal_form,
)
from crchern.cohomology.snf import solve_integer_system


def assert_valid_snf(A):
    U, D, V = smith_normal_form(A)
    assert U.matmul(A).matmul(V).entries == D.entries
    assert determinant(U) in (1, -1)
    assert determinant(V) in (1, -1)
    diag = D.diagonal()
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert D[i, j] == 0
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
    U, D, V = assert_valid_snf(IntegerMatrix.from_rows([[-5]]))
    assert D.entries == ((5,),)
    assert invariant_factors(D) == (5,)


def test_known_three_by_two():
    # row reduction by hand: rank 2, all invariant factors 1
    A = IntegerMatrix.from_rows([[1, 0], [-3, 1], [0, -3]])
    U, D, V = assert_valid_snf(A)
    assert invariant_factors(D) == (1, 1)
    assert A.rows - len(invariant_factors(D)) == 1  # free cokernel of rank 1


def test_zero_matrix():
    U, D, V = assert_valid_snf(IntegerMatrix.zero(2, 2))
    assert D.is_zero()
    assert invariant_factors(D) == ()


def test_divisibility_fixup():
    A = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    _, D, _ = assert_valid_snf(A)
    assert invariant_factors(D) == (1, 6)


def test_deterministic():
    A = IntegerMatrix.from_rows([[4, -6, 2], [6, 3, -9]])
    first = smith_normal_form(A)
    second = smith_normal_form(A)
    assert [m.entries for m in first] == [m.entries for m in second]


def test_random_matrices_smoke():
    rng = random.Random(11)
    for _ in range(80):
        assert_valid_snf(random_matrix(rng))


def test_empty_dimensions():
    A = IntegerMatrix.zero(3, 0)
    U, D, V = smith_normal_form(A)
    assert U.matmul(A).matmul(V).entries == D.entries
    assert D.rows == 3 and D.cols == 0


def test_determinant_matches_cofactor_small():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 3)
        A = IntegerMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        )
        if n == 1:
            expected = A[0, 0]
        elif n == 2:
            expected = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        else:
            expected = (
                A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
                - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
                + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
            )
        assert determinant(A) == expected


class TestIntegerSolve:
    def test_solvable_system(self):
        A = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        ok, x = solve_integer_system(A, [4, -9])
        assert ok and A.matvec(x) == [4, -9]

    def test_unsolvable_by_divisibility(self):
        A = IntegerMatrix.from_rows([[2]])
        ok, residue = solve_integer_system(A, [3])
        assert not ok and residue

    def test_unsolvable_by_rank(self):
        A = IntegerMatrix.from_rows([[1], [1]])
        ok, residue = solve_integer_system(A, [1, 2])
        assert not ok

    def test_against_brute_force_smoke(self):
        rng = random.Random(23)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            A = IntegerMatrix.from_rows(
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
        A = IntegerMatrix.from_rows(
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
            x = [sum(V[i, j] * z[j] for j in range(n)) for i in range(n)]
            assert ok and out == x and A.matvec(out) == b
            assert all(type(v) is int for v in out)
            solved += 1
    assert solved > 40 and unsolved > 40


def test_smith_forms_are_plain_integer_matrices():
    rng = random.Random(31)
    for _ in range(60):
        A = random_matrix(rng)
        U, D, V = smith_normal_form(A)
        assert U.matmul(A).matmul(V) == D
        for M in (U, D, V):
            same = IntegerMatrix.from_rows(M.to_lists())
            assert M == same and hash(M) == hash(same)
            assert (M.rows, M.cols) == (same.rows, same.cols)
            assert type(M.entries) is tuple
            assert all(type(row) is tuple for row in M.entries)
            assert all(type(x) is int for row in M.entries for x in row)


@pytest.mark.parametrize("bad", [1.0, True, Fraction(1), "1"])
def test_caller_entries_are_still_checked(bad):
    with pytest.raises(ValueError):
        IntegerMatrix(1, 1, ((bad,),))
    with pytest.raises(ValueError):
        IntegerMatrix(2, 1, ((1,), (bad,)))


@pytest.mark.parametrize(
    "rows,bad",
    [([[1.5, 2]], "1.5"), ([["7", True]], "'7'"), ([[7, True]], "True")],
    ids=["float", "string", "bool"],
)
def test_from_rows_converts_nothing(rows, bad):
    with pytest.raises(ValueError, match=f"matrix entry is not an exact integer: {bad}"):
        IntegerMatrix.from_rows(rows)


@pytest.mark.parametrize("bad", [3.9, True], ids=["float", "bool"])
def test_solve_refuses_an_inexact_right_hand_side(bad):
    with pytest.raises(ValueError, match="right-hand side entry is not an exact integer"):
        solve_integer_system(IntegerMatrix.from_rows([[2]]), [bad])
