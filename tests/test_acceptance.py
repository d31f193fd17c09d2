"""Acceptance suite: eleven end-to-end criteria, one test each, plus a
second test for criterion 10 that checks positivity against the oracle.

Every check is exact rational arithmetic against an independent oracle
or a frozen closed form; the three timed criteria assert their runtime
budgets.  Run with ``pytest tests/test_acceptance.py -v`` to get one
pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction as F
from math import ceil, floor, gcd, isqrt, lcm

import pytest

from fiberjoin.admissible import (
    CSC,
    FIBER_INFINITY,
    FIBER_ZERO,
    POSITIVITY_FAILS,
    AdmissibleData,
    AdmissibleEntry,
    RepeatedNodeError,
    admissible_data,
    extremal_profile,
    genus_threshold,
    solve_csc,
)
from fiberjoin.classify import CSC_RAY_IN_CONE, CSC_REGULAR_RAY, SE_EXISTS, classify
from fiberjoin.einstein import fano_index, se_check
from fiberjoin.exactalg import (
    Polynomial,
    SingularMatrixError,
    count_roots_in_open_interval,
    strictly_positive_on,
)
from fiberjoin.model import (
    BaseFactor,
    BaseProduct,
    is_colinear,
    make_spec,
    regular_join_data,
)
from fiberjoin.topology import (
    cohomology_table,
    euler_class,
    homeo_key,
    p1,
    spin_status,
)
from oracles import (
    FractionPolynomial,
    back_solve_csc,
    curvature_equation,
    reduced_characteristic_product,
    reference_solve_csc,
)


def curve_pair(g1, g2, rows, split=(0, 0)):
    return make_spec(
        [BaseFactor.surface(g1), BaseFactor.surface(g2)], rows, split
    )


def poly(*coeffs):
    return FractionPolynomial.from_coeffs(coeffs)


def reference(polynomial):
    """A library polynomial as a reference polynomial."""
    return FractionPolynomial.from_coeffs(polynomial.coeffs)


ONE_MINUS_Z2 = poly(1, 0, -1)


def base_entry(idx, s, r):
    return AdmissibleEntry(f"factor_{idx}", 1, F(s), F(r))


# --- criterion 1 -------------------------------------------------------------


def test_criterion_01_reference_join_full_reproduction():
    started = time.perf_counter()
    spec = curve_pair(5, 3, [[2, 1], [1, 3]])
    data = admissible_data(spec)
    (e1, e2) = data.entries
    assert (e1.s, e2.s, e1.r, e2.r) == (-8, 2, F(1, 3), F(-1, 2))
    result = solve_csc(data)
    assert result.verdict == CSC
    assert result.s == -1
    assert result.certificate.coeffs == (F(1, 12) * poly(9, -2, 1)).coeffs
    assert CSC_REGULAR_RAY in {v.kind for v in classify(spec)}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("criterion 1 PASS: genera (5,3) give s=-1, Q=(1/12)(9-2z+z^2), csc ray")


# --- criterion 2 -------------------------------------------------------------


def test_criterion_02_second_reference_join():
    result = solve_csc(admissible_data(curve_pair(18, 14, [[2, 1], [1, 3]])))
    assert result.verdict == CSC
    assert result.s == -6
    assert result.certificate.coeffs == (F(1, 6) * poly(2, -1, 3)).coeffs
    print("criterion 2 PASS: genera (18,14) give s=-6, Q=(1/6)(2-z+3z^2), csc")


# --- criterion 3 -------------------------------------------------------------


def test_criterion_03_negative_control():
    spec = curve_pair(31, 25, [[2, 1], [1, 3]])
    result = solve_csc(admissible_data(spec))
    assert result.verdict == POSITIVITY_FAILS
    assert result.s == -11
    assert result.certificate.coeffs == (F(1, 12) * poly(-1, -2, 11)).coeffs
    kinds = {v.kind for v in classify(spec)}
    assert CSC_REGULAR_RAY not in kinds and CSC_RAY_IN_CONE not in kinds
    print("criterion 3 PASS: genera (31,25) fail positivity, no csc verdict")


# --- criterion 4 -------------------------------------------------------------


def test_criterion_04_genus_threshold_family():
    for g in range(2, 7):
        threshold = genus_threshold(g)
        assert threshold == (2 * g - 3 + isqrt(4 * g * g - 8 * g + 5)) // 2
        for k in range(1, threshold + 6):
            spec = curve_pair(g, g, [[k + 1, k], [k, k + 1]])
            result = solve_csc(admissible_data(spec))
            expected_s = F(
                2 * (k * k + (3 - 2 * g) * k + (1 - g)),
                6 * k * k + 6 * k + 1,
            )
            assert result.s == expected_s
            assert (result.s > 0) == (k > threshold)
            if k > threshold:
                assert result.verdict == CSC
    spot = solve_csc(admissible_data(curve_pair(2, 2, [[3, 2], [2, 3]])))
    assert spot.s == F(2, 37)
    print("criterion 4 PASS: thresholds match the integer-sqrt oracle; "
          "s formula exact, positive iff k above threshold; s(2,2)=2/37")


# --- criterion 5 -------------------------------------------------------------


def quartet_data(r1, r2):
    return AdmissibleData(
        (
            AdmissibleEntry("factor_0", 1, F(2), r1),
            AdmissibleEntry("factor_1", 1, F(-2), r2),
            AdmissibleEntry(FIBER_ZERO, 1, F(2), F(1)),
            AdmissibleEntry(FIBER_INFINITY, 1, F(-2), F(-1)),
        )
    )


def quartet_closed_form(r1, r2):
    denom = 3 * r1**2 * r2**2 - 7 * r1**2 + 8 * r1 * r2 - 7 * r2**2 + 35
    a0 = 3 * (1 - r1) * (1 - r2) * denom
    a1 = (1 - r2) * (
        12 * r1**3 * r2**2 + 15 * r1**3 * r2 + 7 * r1**3
        + 105 * r1 + 49 * r2**2 + 105 * r2
    ) - (1 - r2) * (
        21 * r1**2 * r2**2 + 13 * r1**2 * r2 + 56 * r1**2
        + 48 * r1 * r2**2 + 91 * r1 * r2
    )
    a2 = 2 * (
        3 * r1**3 * r2**3 + 3 * r1**3 * r2**2 + 8 * r1**3 * r2
        + 2 * r1**2 * r2**2 + 14 * r1**2 + 49 * r1 * r2
        + 7 * r2**3 + 14 * r2**2
    ) - 2 * (
        7 * r1**3 + 3 * r1**2 * r2**3 + 30 * r1**2 * r2
        + 22 * r1 * r2**3 + 30 * r1 * r2**2
    )
    a3 = 10 * r1 * r2 * (2 - r1 + r2) * (r1 + r2)
    shift = poly(1, 1)
    h = poly(a0) + a1 * shift + a2 * shift * shift + a3 * shift * shift * shift
    return ONE_MINUS_Z2 * ONE_MINUS_Z2 * h * F(1, 3 * denom)


def test_criterion_05_quartet_closed_form():
    started = time.perf_counter()
    rng = random.Random(53_33)
    seen = 0
    while seen < 20:
        r1 = F(rng.randint(1, 39), 40)
        r2 = F(rng.randint(1, 39), 40)
        if r1 == r2:
            continue
        profile = extremal_profile(quartet_data(r1, r2)).profile
        assert profile.coeffs == quartet_closed_form(r1, r2).coeffs
        seen += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print("criterion 5 PASS: 20 random pairs match the closed-form profile")


# --- criterion 6 -------------------------------------------------------------


def random_admissible_data(rng):
    entries = []
    used = set()
    for idx in range(rng.randint(1, 3)):
        while True:
            r = F(rng.randint(-9, 9), rng.randint(10, 12))
            if r != 0 and r not in used:
                break
        used.add(r)
        s = F(rng.randint(-20, 20), rng.randint(1, 4))
        entries.append(AdmissibleEntry(f"factor_{idx}", rng.randint(1, 2), s, r))
    d0 = rng.randint(0, 2)
    dinf = rng.randint(0, 2)
    if d0:
        entries.append(AdmissibleEntry(FIBER_ZERO, d0, F(d0 + 1), F(1)))
    if dinf:
        entries.append(AdmissibleEntry(FIBER_INFINITY, dinf, F(-(dinf + 1)), F(-1)))
    return AdmissibleData(tuple(entries))


def test_criterion_06_extremal_postconditions():
    rng = random.Random(66_06)
    for _ in range(200):
        data = random_admissible_data(rng)
        result = extremal_profile(data)
        profile = result.profile
        pc = result.char_product
        fprime = profile.derivative()
        assert profile(1) == 0 and profile(-1) == 0
        assert fprime(1) == -2 * pc(1)
        assert fprime(-1) == 2 * pc(-1)
        reduced = reduced_characteristic_product(data)
        second = profile.derivative().derivative()
        assert second.coeffs == (reduced * reference(result.source)).coeffs
    for _ in range(25):
        data = random_admissible_data(rng)
        clone = data.entries[0]
        doubled = AdmissibleData(
            data.entries
            + (AdmissibleEntry("duplicate", 1, clone.s + 1, clone.r),)
        )
        with pytest.raises(RepeatedNodeError):
            extremal_profile(doubled)
        assert issubclass(RepeatedNodeError, SingularMatrixError)
    print("criterion 6 PASS: 200 data sets satisfy the boundary, derivative, "
          "and factorization identities; repeated nodes are the only "
          "singular systems")


# --- criterion 7 -------------------------------------------------------------


def consistent_csc_data(rng):
    while True:
        r1 = F(rng.randint(-9, 9), rng.randint(10, 12))
        r2 = F(rng.randint(-9, 9), rng.randint(10, 12))
        if r1 and r2 and r1 != r2:
            break
    s1 = F(rng.randint(-20, 20), rng.randint(1, 3))
    _, s2 = back_solve_csc(r1, r2, s1)
    return AdmissibleData((base_entry(0, s1, r1), base_entry(1, s2, r2)))


def test_criterion_07_profile_equals_csc_certificate():
    rng = random.Random(77_07)
    cases = [consistent_csc_data(rng) for _ in range(50)]
    cases += [
        admissible_data(curve_pair(g1, g2, [[2, 1], [1, 3]]))
        for g1, g2 in [(5, 3), (18, 14), (31, 25)]
    ]
    for data in cases:
        result = solve_csc(data)
        assert result.s is not None, "construction guarantees consistency"
        assert result == reference_solve_csc(data)
        (e1, e2) = data.entries
        assert curvature_equation(e1.s, e1.r, e2.r, result.s) == 0
        assert curvature_equation(e2.s, e2.r, e1.r, result.s) == 0
        expected = ONE_MINUS_Z2 * reference(result.certificate)
        assert extremal_profile(data).profile.coeffs == expected.coeffs
    print("criterion 7 PASS: F_extr = (1-z^2)Q on 50 random consistent cases "
          "and the three reference joins")


# --- criterion 8 -------------------------------------------------------------


def test_criterion_08_topology_suite():
    # integral cohomology with torsion Z_e in degree 4
    spec = curve_pair(5, 3, [[2, 1], [1, 3]])
    table = cohomology_table(spec)
    e = 2 * 3 + 1 * 1
    assert euler_class(spec) == e
    pair_rank = 2 * 5 + 2 * 3
    middle_rank = 4 * 5 * 3 + 2
    expected = {
        0: (1, ()),
        1: (pair_rank, ()),
        2: (middle_rank, ()),
        3: (pair_rank, ()),
        4: (pair_rank, (e,)),
        5: (middle_rank, ()),
        6: (pair_rank, ()),
        7: (1, ()),
    }
    assert table.as_dict() == {
        degree: {"free": rank, "torsion": list(torsion)}
        for degree, (rank, torsion) in expected.items()
    }

    # symmetric genus-zero family: keys distinct, p1 and e in closed form
    keys = []
    for k in range(2, 7):
        for l in range(1, k):
            spec = curve_pair(0, 0, [[k, l], [l, k]])
            assert p1(spec) == -2 * (k - l) ** 2
            assert euler_class(spec) == k * k + l * l
            keys.append(homeo_key(spec))
    assert len(keys) == 15 and len(set(keys)) == 15

    # constant p1 on the two-block families over a product of lines
    lines = [BaseFactor.projective_space(1), BaseFactor.projective_space(1)]
    for d0, dinf in [(0, 1), (1, 1), (2, 1), (1, 3)]:
        values = {
            p1(
                make_spec(
                    lines,
                    [[k0, 2]] * (d0 + 1) + [[kinf, 2]] * (dinf + 1),
                    (d0, dinf),
                )
            )
            for k0 in range(1, 6)
            for kinf in range(1, 6)
        }
        assert values == {-8 * (d0 + dinf + 2)}

    # spin status is the mod-2 first Chern class, 500 random specs
    rng = random.Random(88_08)
    for _ in range(500):
        g1, g2 = rng.randint(0, 4), rng.randint(0, 4)
        d0, dinf = rng.randint(0, 2), rng.randint(0, 2)
        w0 = [rng.randint(1, 6), rng.randint(1, 6)]
        winf = [rng.randint(1, 6), rng.randint(1, 6)]
        rows = [w0] * (d0 + 1) + [winf] * (dinf + 1)
        spec = curve_pair(g1, g2, rows, (d0, dinf))
        c1_parity = [
            (2 - 2 * g - (d0 + 1) * a - (dinf + 1) * b) % 2
            for g, a, b in [(g1, w0[0], winf[0]), (g2, w0[1], winf[1])]
        ]
        expected = "spin" if all(x == 0 for x in c1_parity) else "non_spin"
        assert spin_status(spec) == expected

    # the three block-parity cases
    both_odd = curve_pair(2, 3, [[3, 5], [3, 5], [2, 7], [2, 7]], (1, 1))
    assert spin_status(both_odd) == "spin"
    assert spin_status(curve_pair(1, 4, [[2, 3], [4, 5]], (0, 0))) == "spin"
    assert spin_status(curve_pair(1, 4, [[2, 3], [4, 4]], (0, 0))) == "non_spin"
    mixed_spin = curve_pair(2, 2, [[2, 4], [1, 3], [1, 3]], (0, 1))
    assert spin_status(mixed_spin) == "spin"
    mixed_not = curve_pair(2, 2, [[2, 3], [1, 1], [1, 1]], (0, 1))
    assert spin_status(mixed_not) == "non_spin"
    print("criterion 8 PASS: cohomology table, homeomorphism keys, constant "
          "p1 families, and spin parity all match")


# --- criterion 9 -------------------------------------------------------------


def brute_partitions(total, parts):
    def count(remaining, k, minimum):
        if k == 0:
            return 1 if remaining == 0 else 0
        return sum(
            count(remaining - v, k - 1, v)
            for v in range(minimum, remaining // k + 1)
        )

    return count(total, parts, 1)


def compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def test_criterion_09_sasaki_einstein_suite():
    # counting over a single projective space
    for n in range(1, 21):
        spec = make_spec([BaseFactor.projective_space(n)], [[1], [n]], None)
        verdict = se_check(spec)
        assert verdict.possible
        assert verdict.count == (n + 1) // 2 == brute_partitions(n + 1, 2)

    # the arithmetic chain holds on every positive colinear verdict
    bases = [
        BaseProduct((BaseFactor.projective_space(n),)) for n in range(1, 5)
    ] + [
        BaseProduct((BaseFactor.surface(0),)),
        BaseProduct((BaseFactor.projective_space(1), BaseFactor.projective_space(1))),
        BaseProduct((BaseFactor.projective_space(1), BaseFactor.projective_space(3))),
        BaseProduct((BaseFactor.surface(0), BaseFactor.surface(0))),
    ]
    primitive_classes = {
        1: [(1,)],
        2: [(1, 1), (1, 2), (2, 1), (1, 3)],
    }
    checked = 0
    for base in bases:
        width = len(base.factors)
        for primitive in primitive_classes[width]:
            for rows_count in (2, 3, 4):
                for multiples in (
                    m
                    for total in range(rows_count, 9)
                    for m in compositions(total, rows_count)
                ):
                    rows = [[m * c for c in primitive] for m in multiples]
                    if any(e > 8 for row in rows for e in row):
                        continue
                    spec = make_spec(list(base.factors), rows, None)
                    verdict = se_check(spec)
                    if not verdict.possible:
                        continue
                    assert is_colinear(spec)
                    join = regular_join_data(spec)
                    index = fano_index(base)
                    total = sum(join.multiples)
                    assert total == index
                    assert join.b * sum(join.w) == index
                    assert spec.d + 1 <= index <= spec.n + 1
                    checked += 1
    assert checked >= 10

    # blanket obstruction for equal blocks at least the base dimension
    blanket = se_check(
        make_spec([BaseFactor.projective_space(1)], [[2], [2], [1], [1]], (1, 1))
    )
    assert not blanket.possible and "equal split blocks" in blanket.reason

    # the homogeneous join over a product of lines exists
    spec = make_spec(
        [BaseFactor.projective_space(1), BaseFactor.projective_space(1)],
        [[1, 1], [1, 1]],
        (0, 0),
    )
    assert se_check(spec).possible
    assert SE_EXISTS in {v.kind for v in classify(spec)}
    print("criterion 9 PASS: pair counts, index chain on positive colinear "
          "verdicts, blanket obstruction, homogeneous existence")


# --- criterion 10 ------------------------------------------------------------


def primitive_ints(polynomial):
    den = 1
    for c in polynomial.coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in polynomial.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]


def divisors(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def root_count_oracle(polynomial, lo, hi, grid=1024):
    """Distinct real roots in (lo, hi): exhaust rational roots exactly,
    then count sign changes of the deflated remainder on a fine grid.
    Exact at every step because the remainder has no rational roots."""
    ints = primitive_ints(reference(polynomial).squarefree_part())
    shift = 0
    while ints[shift] == 0:
        shift += 1
    roots = set()
    if shift:
        roots.add(F(0))
    body = ints[shift:]
    if len(body) > 1:
        for p_div in divisors(body[0]):
            for q_div in divisors(body[-1]):
                if gcd(p_div, q_div) != 1:
                    continue
                for cand in (F(p_div, q_div), F(-p_div, q_div)):
                    acc = F(0)
                    for c in reversed(body):
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
    inside = sum(1 for r in roots if lo < r < hi)
    reduced = poly(*ints)
    for r in roots:
        reduced, remainder = reduced.divmod(poly(-r, 1))
        assert remainder.is_zero
    coeffs = primitive_ints(reduced)
    degree = len(coeffs) - 1
    if degree == 0:
        return inside
    den = grid * lo.denominator * hi.denominator
    num0 = lo.numerator * grid * hi.denominator
    step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    denpow = [den**k for k in range(degree + 1)]
    changes = 0
    prev = 0
    for j in range(grid + 1):
        num = num0 + j * step
        acc = 0
        for i, c in enumerate(reversed(coeffs)):
            acc = acc * num + c * denpow[i]
        assert acc != 0, "deflated polynomial has no rational roots"
        sign = 1 if acc > 0 else -1
        if j and sign != prev:
            changes += 1
        prev = sign
    return inside + changes


def test_criterion_10_root_count_oracle():
    started = time.perf_counter()
    rng = random.Random(20260816)
    lo, hi = F(-1), F(1)
    disagreements = 0
    for _ in range(1000):
        degree = rng.randint(0, 8)
        coeffs = [rng.randint(-10, 10) for _ in range(degree + 1)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-10, 10)
        polynomial = Polynomial.from_coeffs([F(c) for c in coeffs])
        if count_roots_in_open_interval(polynomial, lo, hi) != root_count_oracle(
            polynomial, lo, hi
        ):
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 10 PASS: 1000 polynomials, zero disagreements, "
          f"{elapsed:.1f}s")


def random_interval(rng):
    lo = F(rng.randint(-12, 12), rng.randint(1, 6))
    return lo, lo + F(rng.randint(1, 12), rng.randint(1, 6))


def test_criterion_10_positivity_oracle():
    """strictly_positive_on (Descartes after a Möbius map, bisection on
    mixed signs) agrees with the oracle: no root inside and positive at the midpoint."""
    started = time.perf_counter()
    rng = random.Random(20261017)
    disagreements = 0
    for trial in range(1000):
        degree = rng.randint(0, 6)
        coeffs = [rng.randint(-10, 10) for _ in range(degree + 1)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-10, 10)
        polynomial = poly(*coeffs)
        if trial % 2:
            polynomial = (
                polynomial
                * poly(1, -1) ** rng.randint(0, 2)
                * poly(1, 1) ** rng.randint(0, 2)
            )
        polynomial = Polynomial.from_coeffs(polynomial.coeffs)
        lo, hi = (F(-1), F(1)) if trial % 4 < 2 else random_interval(rng)
        expected = (
            root_count_oracle(polynomial, lo, hi) == 0
            and polynomial((lo + hi) / 2) > 0
        )
        if strictly_positive_on(polynomial, lo, hi) != expected:
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 10 PASS: 1000 positivity decisions match the oracle, "
          f"{elapsed:.1f}s")


def test_criterion_10_hard_roots_oracle():
    """Root counts and positivity against the oracle on what the tests
    above rarely draw: repeated rational factors whose roots are not
    dyadic, roots at the endpoints, the double irrational roots of
    (z^2 - 1/2)^2, and random rational intervals."""
    started = time.perf_counter()
    rng = random.Random(20261018)
    disagreements = 0
    for trial in range(1000):
        lo, hi = (F(-1), F(1)) if trial % 3 == 0 else random_interval(rng)
        degree = rng.randint(0, 4)
        coeffs = [rng.randint(-10, 10) for _ in range(degree + 1)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-10, 10)
        polynomial = poly(*coeffs)
        for _ in range(rng.randint(0, 3)):
            q = rng.randint(1, 7)
            root = F(rng.randint(floor(lo * q) - 1, ceil(hi * q) + 1), q)
            polynomial = polynomial * poly(-root, 1) ** rng.randint(1, 3)
        if rng.random() < 0.3:
            endpoint = rng.choice([lo, hi])
            polynomial = polynomial * poly(-endpoint, 1) ** rng.randint(1, 2)
        if rng.random() < 0.25:
            polynomial = polynomial * poly(F(-1, 2), 0, 1) ** 2
        polynomial = Polynomial.from_coeffs(polynomial.coeffs)
        count = root_count_oracle(polynomial, lo, hi)
        positive = count == 0 and polynomial((lo + hi) / 2) > 0
        if count_roots_in_open_interval(polynomial, lo, hi) != count:
            disagreements += 1
        if strictly_positive_on(polynomial, lo, hi) != positive:
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 10 PASS: 1000 hard-root polynomials match the oracle, "
          f"{elapsed:.1f}s")


# --- criterion 11 ------------------------------------------------------------


def rank_at_most_one(rows):
    indices = range(len(rows))
    for i in indices:
        for j in indices:
            if i < j:
                for a in range(len(rows[0])):
                    for b in range(len(rows[0])):
                        if a < b:
                            minor = (
                                rows[i][a] * rows[j][b]
                                - rows[i][b] * rows[j][a]
                            )
                            if minor != 0:
                                return False
    return True


def test_criterion_11_colinearity_suite():
    rng = random.Random(11_11)
    factors = {
        1: [BaseFactor.surface(0)],
        2: [BaseFactor.surface(0), BaseFactor.surface(1)],
    }
    for _ in range(500):
        width = rng.randint(1, 2)
        height = rng.randint(2, 5)
        rows = [
            [rng.randint(1, 9) for _ in range(width)] for _ in range(height)
        ]
        spec = make_spec(factors[width], rows, None)
        assert is_colinear(spec) == rank_at_most_one(rows)

    for g1, g2 in [(0, 0), (1, 2)]:
        for a in range(1, 9):
            for b in range(1, 9):
                for c in range(1, 9):
                    for d in range(1, 9):
                        spec = curve_pair(g1, g2, [[a, b], [c, d]], (0, 0))
                        if euler_class(spec) % 2 == 1:
                            assert not is_colinear(spec)
                            assert spin_status(spec) == "non_spin"
    print("criterion 11 PASS: colinearity matches rank-1 brute force; odd "
          "Euler class forces indecomposable and non-spin")
