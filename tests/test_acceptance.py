"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced; tolerances and parameter ranges are pinned here and
nowhere else.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import brute_force_image_member, random_element, random_matrix, random_ring
from crchern.chern.checks import (
    check_prop_1_3,
    check_prop_1_4,
    check_prop_4_1,
    cpn_setup,
    fpp_times_cpn_setup,
    genus2_times_cpn_setup,
)
from crchern.chern.spherical import (
    spherical_residual,
    verify_spherical_on_circle_bundle,
)
from crchern.chern.tractor import tractor_determinant_check
from crchern.cli import main
from crchern.cohomology.snf import smith_normal_form
from crchern.kahler.scenario import run_batch
from reference import determinant, from_rows, matmul, solve_integer_system


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_first_chern_family(tmp_path):
    start = time.perf_counter()
    codes = {}
    for n in range(2, 7):
        out = tmp_path / f"thm11_{n}.json"
        codes[n] = main(
            ["verify", "thm-1-1", "--n", str(n), "--format", "json",
             "--out", str(out), "--no-timestamp"]
        )
    elapsed = time.perf_counter() - start
    ok = all(code == 0 for code in codes.values()) and elapsed < 1.0
    _report(
        "1 (thm-1-1 family n=2..6, exact, <1s)",
        ok,
        f"exit codes {codes}, {elapsed:.3f}s",
    )


def test_criterion_2_tractor_identity():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        report = tractor_determinant_check(n)
        flags = dict(report.assertions)
        ok = ok and report.passed
        ok = ok and flags["control with nonzero middle block fails"]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    _report(
        "2 (tractor determinant identity n=1..6 with failing control, <2s)",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_3_spherical_families():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        ok = ok and verify_spherical_on_circle_bundle(genus2_times_cpn_setup(n), n).passed
    for n in range(2, 7):
        for d in range(1, 6):
            ok = ok and verify_spherical_on_circle_bundle(cpn_setup(n, d), n).passed
    for n in range(4, 7):
        ok = ok and verify_spherical_on_circle_bundle(fpp_times_cpn_setup(n), n).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(
        "3 (spherical constraint mod Gysin image, three families, all k<=n+1, <5s)",
        ok,
        f"{elapsed:.3f}s",
    )


def _primes(limit):
    out = []
    for p in range(2, limit + 1):
        if all(p % q for q in out):
            out.append(p)
    return out


def test_criterion_4_integral_counterexample():
    start = time.perf_counter()
    ok = True
    for n in range(2, 5):
        for d in (p for p in _primes(13) if p > n + 1):
            report = check_prop_1_3(n, d)
            w = report.witnesses[0]
            ok = ok and report.passed
            ok = ok and w["cokernel"]["invariant_factors"] == [d]
            ok = ok and w["cokernel"]["free_rank"] == 0
            expected = tuple(
                (-(n + 1) * g) % d for g in w["generator_class"]
            )
            ok = ok and tuple(w["class_mod_d"]) == expected
            ok = ok and any(w["class_mod_d"])
        # negative control: a prime divisor of n+1 kills the class
        for d in (p for p in _primes(13) if (n + 1) % p == 0):
            report = check_prop_1_3(n, d)
            ok = ok and report.passed
            ok = ok and not any(report.witnesses[0]["class_mod_d"])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(
        "4 (integral cokernel Z/d with class -(n+1), controls included, <1s)",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_5_second_chern_family():
    start = time.perf_counter()
    ok = True
    for n in (4, 5, 6):
        report = check_prop_4_1(n)
        ok = ok and report.passed
        # independent recomputation of the exact decomposition
        setup = fpp_times_cpn_setup(n)
        ring = setup.base
        h = ring.gen("h")
        c1 = setup.base_tangent.c1()
        off_image = Fraction((n + 2) ** 2, 9) * (-3 * h) * (-3 * h)
        main_term = setup.euler * (setup.euler + 2 * (n + 2) * h)
        ok = ok and (c1 * c1 == main_term + off_image)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(
        "5 (nonvanishing c1^2 with exact residual decomposition, n=4..6, <1s)",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_6_fillable_contact_family():
    start = time.perf_counter()
    ok = True
    cases = [(m, False) for m in (2, 3, 4)] + [(m, True) for m in (2, 3)]
    for m, even in cases:
        report = check_prop_1_4(m, even_case=even)
        ok = ok and report.passed
        n = report.params["n"]
        # independent recomputation in the nilsquare ring
        from crchern.chern.bundles import BundleClass
        from crchern.chern.checks import nilsquare_ring

        ring = nilsquare_ring(m)
        total = ring.one()
        for j in range(1, m + 1):
            total = total * (1 + ring.gen(f"t{j}"))
        bundle = BundleClass(n, total)
        c1 = bundle.c1()
        c2 = bundle.chern(2)
        ok = ok and (2 * c2 == c1 * c1) and not c2.is_zero()
        residual = spherical_residual(bundle, n, 2)
        ok = ok and residual == Fraction(1, 2 * (n + 2)) * c1 * c1
        ok = ok and not residual.is_zero()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(
        "6 (c2 = c1^2/2 != 0 with residual c1^2/(2(n+2)), m=2..4 odd / 2..3 even, <1s)",
        ok,
        f"{elapsed:.3f}s",
    )


@pytest.fixture(scope="module")
def bochner_batches():
    pairs = [
        [(1, Fraction(1)), (1, Fraction(-1))],
        [(1, Fraction(1)), (2, Fraction(-1))],
        [(2, Fraction(1)), (2, Fraction(-1))],
    ]
    start = time.perf_counter()
    flat = [run_batch(p, samples=10, seed=0) for p in pairs]
    control = run_batch(
        [(1, Fraction(1)), (1, Fraction(1))],
        samples=10,
        seed=0,
        expect_flat=False,
    )
    elapsed = time.perf_counter() - start
    return flat, control, elapsed


def test_criterion_7_bochner_flat_numerics(bochner_batches):
    flat, control, elapsed = bochner_batches
    ok = all(rep.passed for rep in flat)
    for rep in flat:
        maxima = rep.witnesses[0]["maxima"]
        ok = ok and maxima["s_inf"] < 1e-6
        ok = ok and maxima["curvature_rel_err"] < 1e-6
    ok = ok and control.passed
    ok = ok and control.witnesses[0]["maxima"]["s_inf"] > 1e-2
    ok = ok and elapsed < 10.0
    _report(
        "7 (Bochner-flat pairs |S|<1e-6, control >1e-2, oracle 1e-6, <10s)",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_8_tensor_identity_suite(bochner_batches):
    flat, control, _ = bochner_batches
    ok = True
    for rep in flat + [control]:
        maxima = rep.witnesses[0]["maxima"]
        conv = rep.witnesses[0]["convergence_factor"]
        ok = ok and maxima["r_symmetry"] <= 1e-6
        ok = ok and maxima["p_trace"] <= 1e-9
        ok = ok and maxima["s_trace"] <= 1e-6
        ok = ok and maxima["divergence"] <= 1e-3
        ok = ok and 3.5 <= conv <= 4.5
    for rep in flat:
        ok = ok and rep.witnesses[0]["maxima"]["divergence_sides"] <= 1e-3
    _report(
        "8 (R symmetries 1e-6, P-trace 1e-9, S-trace 1e-6, divergence 1e-3, "
        "convergence in [3.5,4.5] at every sampled point)",
        ok,
    )


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = random.Random(20240901)

    axiom_failures = 0
    for _ in range(1000):
        ring = random_ring(rng)
        a, b, c = (random_element(rng, ring) for _ in range(3))
        if not (
            a * b == b * a
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
            and ring.element(a.terms) == a
        ):
            axiom_failures += 1

    snf_failures = 0
    for _ in range(500):
        A = random_matrix(rng, max_dim=6, lo=-9, hi=9)
        U, D, V = smith_normal_form(A)
        good = matmul(matmul(U, A), V).entries == D.entries
        good = good and determinant(U) in (1, -1) and determinant(V) in (1, -1)
        diag = [d for d in D.diagonal() if d]
        good = good and all(b % a == 0 for a, b in zip(diag, diag[1:]))
        if not good:
            snf_failures += 1

    membership_failures = 0
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        )
        if rng.random() < 0.5:
            b = A.matvec([rng.randint(-4, 4) for _ in range(n)])
        else:
            b = [rng.randint(-15, 15) for _ in range(m)]
        solvable, payload = solve_integer_system(A, b)
        witness_found = brute_force_image_member(A, b, bound=50)
        good = (not witness_found) or solvable
        if solvable:
            good = good and A.matvec(payload) == b
        else:
            good = good and not witness_found
        if not good:
            membership_failures += 1

    elapsed = time.perf_counter() - start
    ok = (
        axiom_failures == 0
        and snf_failures == 0
        and membership_failures == 0
        and elapsed < 30.0
    )
    _report(
        "9 (ring axioms x1000, SNF x500, membership-vs-brute-force x200, <30s)",
        ok,
        f"failures: axioms={axiom_failures} snf={snf_failures} "
        f"membership={membership_failures}, {elapsed:.1f}s",
    )
