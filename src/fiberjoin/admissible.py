"""Admissible structures on split joins and their curvature profiles.

A split join whose two classes differ on at least one base factor
carries admissible data: per retained factor a normalized curvature
value s_a and a class parameter r_a in (-1, 1), plus one entry for
each nontrivial fiber block with r = +1 / -1.  From that data the
extremal profile polynomial F is determined by a closed-form source
polynomial, a Lagrange-form sum over the entries plus an affine
multiple alpha + beta*z of the product of the (1 + r_a z), and four
boundary conditions.  The boundary conditions force
F = (1 + z)^(d0 + 1) (1 - z)^(dinf + 1) * H with H of low degree, the
Theta * p_c form of admissible metrics (Apostolov, Calderbank,
Gauduchon and Tønnesen-Friedman, "Hamiltonian 2-forms in Kähler
geometry III"), so the profile is solved for H directly: a triangular
integer system from the top coefficient down, and a 2x2 integer
system for alpha and beta from the values of H at +-1, solved by
Cramer's rule.  Positivity of F on (-1, 1) is positivity of H,
decided by Descartes' rule after a Möbius map, bisecting on mixed
signs; F itself is expanded only to be returned.  Constant scalar
curvature is the extremal case whose affine function is constant, so
for two retained factors it is read off the same solve, with H as its
certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional

from .exactalg import (
    Polynomial, Record, SingularMatrixError, _as_fraction, strictly_positive_on
)
from .model import DigitLimitError, FiberJoinSpec, SpecError, integer


class NotAdmissibleError(SpecError):
    """The split join carries no admissible structure."""


class DegenerateFactorError(SpecError):
    """Two base factors have identical class columns."""


class RepeatedParameterError(SpecError):
    """Two retained factors share the same class parameter r."""


class SingularSystemError(SingularMatrixError):
    """The profile linear system is degenerate."""


class RepeatedNodeError(SingularSystemError):
    """Two entries share a class parameter r, so the values the
    source polynomial must take at -1/r conflict."""


FIBER_ZERO = "fiber_zero"
FIBER_INFINITY = "fiber_infinity"


class AdmissibleEntry(Record):
    """One index of the admissible data: a retained base factor or a
    fiber block.  dim is the complex dimension carried by the index,
    s the normalized scalar curvature, r the class parameter."""

    def __init__(self, label: str, dim: int, s: Fraction, r: Fraction):
        dim, s, r = integer(dim, "dim"), _as_fraction(s), _as_fraction(r)
        vars(self).update(label=label, dim=dim, s=s, r=r, _values=(label, dim, s, r))


class AdmissibleData(Record):
    """The entries of admissible data.  An entry's role is told by its
    r: the fiber blocks are the entries at r = +1 and -1, and every
    other entry is a retained factor; labels only name entries."""

    def __init__(self, entries: tuple[AdmissibleEntry, ...]):
        if not isinstance(entries, tuple) or not all(
            isinstance(e, AdmissibleEntry) for e in entries
        ):
            raise SpecError("admissible data must be a tuple of admissible entries")
        vars(self).update(entries=entries, _values=(entries,))


def admissible_data(spec: FiberJoinSpec) -> AdmissibleData:
    """Build admissible data from a split join.

    Retained factors are those whose split classes differ; each must
    be a curve (complex dimension one) with a well-defined genus, and
    the resulting r values must be pairwise distinct.
    """
    if spec.facts.blocks is None:
        raise SpecError("admissible data needs a split join")
    retained = spec.facts.retained
    if not retained:
        raise NotAdmissibleError("both split classes agree on every factor")
    w0, winf, d0, dinf = spec.facts.blocks
    for i, j in itertools.combinations(retained, 2):
        if (w0[i], winf[i]) == (w0[j], winf[j]):
            raise DegenerateFactorError(f"factors {i} and {j} carry identical class columns")
    entries = []
    for a in retained:
        factor = spec.base.factors[a]
        genus = factor.effective_genus
        if genus is None:
            raise NotAdmissibleError(
                "curvature normalization defined for curve factors only"
            )
        diff = w0[a] - winf[a]
        s = Fraction(2 * (1 - genus), diff)
        r = Fraction(diff, w0[a] + winf[a])
        entries.append(AdmissibleEntry(f"factor_{a}", factor.dim_c, s, r))
    seen = {}  # by r in lowest terms, which hashes faster than the Fraction
    for e in entries:
        key = (e.r.numerator, e.r.denominator)
        if key in seen:
            try:
                message = f"{seen[key]} and {e.label} share r = {e.r}"
            except ValueError as exc:  # only the digit limit raises here
                raise DigitLimitError() from exc
            raise RepeatedParameterError(message)
        seen[key] = e.label
    if d0 > 0:
        entries.append(
            AdmissibleEntry(FIBER_ZERO, d0, Fraction(d0 + 1), Fraction(1))
        )
    if dinf > 0:
        entries.append(
            AdmissibleEntry(FIBER_INFINITY, dinf, Fraction(-(dinf + 1)), Fraction(-1))
        )
    return AdmissibleData(tuple(entries))


class ExtremalProfile(Record):
    """Solution of the extremal profile system.

    profile:       F, the momentum profile polynomial on [-1, 1]
    source:        P, with F'' = (reduced characteristic product) * P
    char_product:  the characteristic product of the data
    positive:      whether F > 0 strictly inside (-1, 1)
    alpha, beta:   the extremal affine function alpha + beta*z in P
    factor:        H, with F = (1 + z)^(u + 1) * (1 - z)^(v + 1) * H,
                   where u and v are the dims of the entries at r = 1
                   and r = -1 (0 if absent): d0 and dinf for data
                   from ``admissible_data``
    """

    def __init__(
        self,
        profile: Polynomial,
        source: Polynomial,
        char_product: Polynomial,
        positive: bool,
        alpha: Fraction,
        beta: Fraction,
        factor: Polynomial,
    ):
        vars(self).update(
            profile=profile, source=source, char_product=char_product,
            positive=positive, alpha=alpha, beta=beta, factor=factor,
            _values=(profile, source, char_product, positive, alpha, beta, factor),
        )


# The ends of the profile's interval, built once rather than per solve.
_MINUS_ONE, _ONE = Fraction(-1), Fraction(1)


def _ends(nums) -> tuple[int, int]:
    """The values at 1 and -1 of the polynomial with these coefficients:
    the sums of the even and odd ones, added and subtracted."""
    even, odd = sum(nums[::2]), sum(nums[1::2])
    return even + odd, even - odd


def _times_linear(nums: list[int], c: int, e: int) -> list[int]:
    """The coefficients of (c + e*z) * f, for f with coefficients nums."""
    return [c * x + e * y for x, y in zip(nums + [0], [0] + nums)]


def _source(l_nums, q_nums, scale, an, bn, det, den) -> Polynomial:
    """L + (alpha + beta z) q for L = l_nums / den, q = q_nums * scale / den,
    alpha = an / det and beta = bn / det, every argument an integer."""
    affine = _times_linear(q_nums, scale * an, scale * bn)
    nums = [det * x for x in l_nums] + [0] * (len(affine) - len(l_nums))
    return Polynomial([x + y for x, y in zip(nums, affine)], den * det)


def _times_binomial_pair(a: int, b: int, nums: list[int], den: int) -> Polynomial:
    """(1 + z)^a (1 - z)^b times the polynomial nums / den.  The pair
    comes from (1 - z^2) f' = (a - b - (a + b) z) f, that is
    (k + 1) f_(k+1) = (a - b) f_k + (k - 1 - a - b) f_(k-1), an exact
    integer division: O(a + b) steps, where powers and products of the
    two factors take O((a + b)^2)."""
    pair, before = [1], 0
    for k in range(a + b):
        pair.append(((a - b) * pair[k] + (k - 1 - a - b) * before) // (k + 1))
        before = pair[k]
    out = [0] * (len(pair) + len(nums) - 1)
    for i, x in enumerate(nums):
        if x:
            for j, y in enumerate(pair, i):
                out[j] += x * y
    return Polynomial(out, den)


def _operator_column(k: int, u: int, v: int) -> list[int]:
    """The coefficients of z^(k-2), z^(k-1), ... in D(z^k), where

        D(H) = (B H)'' / ((1 + z)^max(u-1, 0) (1 - z)^max(v-1, 0)),
        B = (1 + z)^(u+1) (1 - z)^(v+1).

    With s = u + v + 2 and d = u - v, one formula holds for all
    u, v >= 0:

        (B H)'' / ((1 + z)^(u-1) (1 - z)^(v-1)) = (1 - z^2)^2 H''
            + 2 (1 - z^2)(d - s z) H'
            + (d^2 - s - 2 d (s - 1) z + s (s - 1) z^2) H.

    For u = 0 its exponent -1 makes it D(H) times 1 + z, and for v = 0
    D(H) times 1 - z, so D is its exact quotient by each.  D raises the
    degree by (u > 0) + (v > 0), and its top coefficient is
    +-(k + s)(k + s - 1), not zero.
    """
    s, d = u + v + 2, u - v
    column = [
        k * (k - 1),
        2 * k * d,
        d * d - s - 2 * k * (k + s - 1),
        -2 * d * (k + s - 1),
        (k + s) * (k + s - 1),
    ]
    for exponent, sign in ((u, 1), (v, -1)):
        if not exponent:
            # Divide by 1 + sign * z; the last entry is the remainder, 0.
            for i in range(1, len(column)):
                column[i] -= sign * column[i - 1]
            column.pop()
    return column


@functools.lru_cache(maxsize=64)
def _operator_columns(top: int, u: int, v: int) -> tuple[tuple, int]:
    """The columns of z^0 .. z^top as tuples, and the product of their
    top entries, built once per shape: a survey's solves share few."""
    columns = tuple(tuple(_operator_column(k, u, v)) for k in range(top + 1))
    return columns, math.prod(column[-1] for column in columns)


def extremal_profile(data: AdmissibleData) -> ExtremalProfile:
    """Solve for the extremal profile polynomial of the data.

    F is determined by F'' = R * P with R the reduced characteristic
    product, the product of (1 + r_a z)^(dim_a - 1), and the boundary
    conditions F(+-1) = 0, F'(+-1) = -+2 p(+-1) with p = R * q the
    characteristic product.  The source P has the closed form

        P = L + (alpha + beta*z) * q,   q = prod_a (1 + r_a z),
        L = 2 * sum_a dim_a * s_a * r_a * prod_{b != a} (1 + r_b z),

    so P(-1/r_a) = L(-1/r_a) is the value the data prescribes there.

    F is solved for in factored form, the Theta * p_c form of
    admissible metrics (Apostolov, Calderbank, Gauduchon and
    Tønnesen-Friedman, "Hamiltonian 2-forms in Kähler geometry III").
    Let u and v be the dims of the entries at r = 1 and r = -1 (the
    fiber blocks d0 and dinf; 0 if absent).  When u >= 1, R carries
    (1 + z)^(u - 1) and F(-1) = F'(-1) = 0, so F has a root of order
    u + 1 at -1; likewise at +1.  Hence F = B * H with
    B = (1 + z)^(u + 1) (1 - z)^(v + 1), and H has degree at most one
    more than the sum of the other dims.  F'' = R * P becomes
    D(H) = R_base * P, with D the operator of ``_operator_column`` and
    R_base the factors of R at r != +-1.  Its coefficients from
    z^((u > 0) + (v > 0)) up fix H from the top down, as
    H0 + alpha*H1 + beta*H2 over one integer denominator.  Two values
    of H then pin alpha and beta:

    - at -1: if u >= 1, the value of D(H) = R_base * P there, which
      reads 4 u (u + 1) H(-1) = 2^(v = 0) (R_base * L)(-1) because
      q(-1) = 0; if u = 0, F'(-1) = 2 p(-1), which reads
      2^v H(-1) = p(-1);
    - at +1 likewise, with u and v swapped.

    This 2x2 system is singular exactly when the boundary problem is,
    which cannot happen when every |r| <= 1: then p keeps one sign on
    (-1, 1), and the boundary problem is a symmetric moment system that
    Cauchy-Schwarz makes definite.  Data from ``admissible_data`` has
    |r| < 1 on base factors and r = +-1 on fiber blocks, so only
    synthetic data with some |r| > 1 can raise SingularSystemError.
    Repeated r values raise RepeatedNodeError.

    B > 0 on (-1, 1), so F > 0 there exactly when H > 0, and positivity
    is decided on H.  F = B * H and p = R * q are expanded only to be
    returned, each as a power of 1 + z times a power of 1 - z, built by
    ``_times_binomial_pair``, times a polynomial of low degree.
    """
    entries = data.entries
    m = len(entries)
    if m == 0:
        raise SpecError("empty admissible data")
    # Integer numerators: with r_a = e_a / c_a, s_a = n_a / m_a,
    # C = prod c_a and M = lcm m_a,
    #   q = prod (c_a + e_a z) / C,
    #   L = sum_a 2 dim_a n_a (M / m_a) e_a prod_{b != a} (c_b + e_b z) / (C M),
    #   R_base = prod_{r_a != +-1} ((c_a + e_a z) / c_a)^(dim_a - 1).
    pairs = [(e.r.denominator, e.r.numerator) for e in entries]
    if len(set(pairs)) != m:
        raise RepeatedNodeError("repeated class parameters")
    scale = math.lcm(*(e.s.denominator for e in entries))
    u = v = 0
    q_nums, l_nums, q_den, reduced = [1], [], 1, []
    for (c, e), entry in zip(pairs, entries):
        if entry.dim < 1:
            raise ValueError("every admissible entry needs dim >= 1")
        if c != abs(e):
            if entry.dim > 1:
                reduced.append((c, e, entry.dim - 1))
        elif e == 1:
            u = entry.dim
        else:
            v = entry.dim
        # The product rule: L times (c + e z), plus this entry's term,
        # its weight times the product of the entries before it.
        weight = 2 * entry.dim * entry.s.numerator * (scale // entry.s.denominator) * e
        l_nums = [x + weight * y for x, y in zip(_times_linear(l_nums, c, e), q_nums)]
        q_nums = _times_linear(q_nums, c, e)
        q_den *= c
    # R_base * q and R_base * L over den / M and den.
    high, low, den = q_nums, l_nums, q_den * scale
    for c, e, n in reduced:
        for _ in range(n):
            high, low = _times_linear(high, c, e), _times_linear(low, c, e)
            den *= c
    char = _times_binomial_pair(max(u - 1, 0), max(v - 1, 0), high, den // scale)

    # D(H) = R_base * (L + alpha q + beta z q), coefficient by
    # coefficient, with H = (x0 + alpha x1 + beta x2) / T.  Solved from
    # the top: the coefficient of z^(k + shift) fixes H_k.  With
    # T = den * lead, lead the product of the top coefficients of D,
    # every x_k is an integer, so each division is exact.
    shift = (u > 0) + (v > 0)
    top = len(high) - shift
    columns, lead = _operator_columns(top, u, v)
    size = top + shift + 1
    sides = (
        [lead * n for n in low] + [0] * (size - len(low)),
        [lead * scale * n for n in high] + [0],
        [0] + [lead * scale * n for n in high],
    )
    x0, x1, x2 = ([0] * (top + 1) for _ in range(3))
    for k in range(top, -1, -1):
        n = k + shift
        a0, a1, a2 = sides[0][n], sides[1][n], sides[2][n]
        for i in range(1, min(shift + 2, top - k) + 1):
            w = columns[k + i][shift + 2 - i]
            a0 -= x0[k + i] * w
            a1 -= x1[k + i] * w
            a2 -= x2[k + i] * w
        pivot = columns[k][-1]
        x0[k], x1[k], x2[k] = a0 // pivot, a1 // pivot, a2 // pivot
    total = den * lead

    # kappa * H(+-1) = value / value_den at each end, where
    # T * H(+-1) = x0 + alpha x1 + beta x2.  Times kappa * value_den, a
    # row (a0, a1, a2) at -1 and (b0, b1, b2) at +1 of
    # alpha * row[0] + beta * row[1] = row[2], solved by Cramer's rule.
    char_plus, char_minus = _ends(char.nums)
    low_plus, low_minus = _ends(low)
    ends = (
        (4 * u * (u + 1) * den, low_minus * (1 if v else 2))
        if u
        else (2**v * char.den, char_minus),
        (4 * v * (v + 1) * den, low_plus * (1 if u else 2))
        if v
        else (2**u * char.den, char_plus),
    )
    (p0, m0), (p1, m1), (p2, m2) = _ends(x0), _ends(x1), _ends(x2)
    (a0, a1, a2), (b0, b1, b2) = (
        (w * y1, w * y2, total * value - w * y0)
        for (y0, y1, y2), (w, value) in zip(((m0, m1, m2), (p0, p1, p2)), ends)
    )
    det = a0 * b1 - a1 * b0
    if not det:
        raise SingularSystemError("matrix is singular")
    an, bn = a2 * b1 - a1 * b2, a0 * b2 - a2 * b0
    alpha, beta = Fraction(an, det), Fraction(bn, det)
    h_nums = [det * y0 + an * y1 + bn * y2 for y0, y1, y2 in zip(x0, x1, x2)]
    factor = Polynomial(h_nums, total * det)
    profile = _times_binomial_pair(u + 1, v + 1, factor.nums, factor.den)
    source = _source(l_nums, q_nums, scale, an, bn, det, q_den * scale)

    # F'' = R * P, as D(H) = R_base * P.
    image = [0] * (len(factor.nums) + shift)
    for k, x in enumerate(factor.nums):
        for n, c in enumerate(columns[k], k - 2):
            if n >= 0:
                image[n] += x * c
    assert Polynomial(image, factor.den) == (
        source if high is q_nums else _source(low, high, scale, an, bn, det, den)
    )
    # F(+-1) = 0 by the factor B.  F'(-1) = 2 p(-1) and F'(1) = -2 p(1),
    # compared on numerators: F'(-1) is 2^(v+1) H(-1) when u = 0 and 0
    # otherwise, and F'(1) is -2^(u+1) H(1) when v = 0 and 0 otherwise.
    h_plus, h_minus = _ends(factor.nums)
    assert (0 if u else h_minus * 2**v) * char.den == char_minus * factor.den
    assert (0 if v else h_plus * 2**u) * char.den == char_plus * factor.den
    positive = (not factor.is_zero) and strictly_positive_on(factor, _MINUS_ONE, _ONE)
    return ExtremalProfile(
        profile=profile,
        source=source,
        char_product=char,
        positive=positive,
        alpha=alpha,
        beta=beta,
        factor=factor,
    )


CSC = "csc"
POSITIVITY_FAILS = "positivity_fails"
INCONSISTENT = "inconsistent"


class CscResult(Record):
    """Outcome of the two-factor constant-scalar-curvature solve.

    s:           the normalized scalar curvature (None if inconsistent)
    certificate: the quadratic that must be positive on (-1, 1)
    verdict:     csc / positivity_fails / inconsistent
    """

    def __init__(self, s: Optional[Fraction], certificate: Optional[Polynomial], verdict: str):
        vars(self).update(
            s=s, certificate=certificate, verdict=verdict,
            _values=(s, certificate, verdict),
        )


def solve_csc(data: AdmissibleData) -> CscResult:
    """Decide constant scalar curvature for two retained factors and
    trivial fiber blocks, that is two entries, neither at r = +-1, by
    reading the extremal solve of the data (see ``csc_from_profile``)."""
    entries = data.entries
    if len(entries) != 2 or any(abs(e.r) == 1 for e in entries):
        raise SpecError("two retained factors and a trivial split required")
    return csc_from_profile(extremal_profile(data))


def csc_from_profile(extremal: ExtremalProfile) -> CscResult:
    """The CSC reading of the extremal solve of two retained factors on
    a trivial split.

    The structure has constant scalar curvature exactly when the
    extremal affine function is constant, beta = 0; then s = -alpha/6
    and F = (1 - z^2) * Q with Q the certificate quadratic, positive on
    (-1, 1) exactly when F is.  On a trivial split Q is the solve's
    factor H.  Otherwise the data are inconsistent.
    """
    if extremal.beta != 0:
        return CscResult(s=None, certificate=None, verdict=INCONSISTENT)
    verdict = CSC if extremal.positive else POSITIVITY_FAILS
    return CscResult(
        s=-extremal.alpha / 6, certificate=extremal.factor, verdict=verdict
    )


def genus_threshold(genus: int) -> int:
    """Largest k for which the symmetric nearly-colinear family over a
    genus-g square fails the nonnegative-curvature criterion.

    The criterion k^2 + (3-2g)k + (1-g) > 0 holds exactly above the
    integer part of the larger root; computed with exact integer
    square roots.
    """
    if genus < 2:
        return 0
    disc = 4 * genus * genus - 8 * genus + 5
    root = math.isqrt(disc)
    return (2 * genus - 3 + root) // 2
