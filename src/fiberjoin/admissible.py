"""Admissible structures on split joins and their curvature profiles.

A split join whose two classes differ on at least one base factor
carries admissible data: per retained factor a normalized curvature
value s_a and a class parameter r_a in (-1, 1), plus one entry for
each nontrivial fiber block with r = +1 / -1.  From that data the
extremal profile polynomial is determined by a closed-form source
polynomial, a Lagrange-form sum over the entries plus an affine
multiple of the product of the (1 + r_a z), whose two coefficients
solve a symmetric 2x2 exact moment system (Apostolov, Calderbank,
Gauduchon and Tønnesen-Friedman, "Hamiltonian 2-forms in Kähler
geometry III"); its positivity is decided by Descartes' rule after a
Möbius map, bisecting on mixed signs.  Constant scalar curvature is
the extremal case whose affine function alpha + beta*z is constant,
so for two retained factors it is read off the same solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import (
    Polynomial,
    SingularMatrixError,
    solve_linear,
    strictly_positive_on,
)
from .model import (
    FiberJoinSpec,
    SpecError,
    retained_factors,
)


class NotAdmissibleError(SpecError):
    """The split join carries no admissible structure."""


class DegenerateFactorError(SpecError):
    """Two base factors have identical class columns."""


class RepeatedParameterError(SpecError):
    """Two retained factors share the same class parameter r."""


class EqualParameterError(SpecError):
    """The two-factor solver needs distinct class parameters."""


class SingularSystemError(SingularMatrixError):
    """The profile linear system is degenerate."""


class RepeatedNodeError(SingularSystemError):
    """Two entries share a class parameter r, so the values the
    source polynomial must take at -1/r conflict."""


FIBER_ZERO = "fiber_zero"
FIBER_INFINITY = "fiber_infinity"


@dataclass(frozen=True)
class AdmissibleEntry:
    """One index of the admissible data: a retained base factor or a
    fiber block.  dim is the complex dimension carried by the index,
    s the normalized scalar curvature, r the class parameter."""

    label: str
    dim: int
    s: Fraction
    r: Fraction


@dataclass(frozen=True)
class AdmissibleData:
    entries: tuple[AdmissibleEntry, ...]

    @property
    def base_entries(self) -> tuple[AdmissibleEntry, ...]:
        return tuple(
            e for e in self.entries if e.label not in (FIBER_ZERO, FIBER_INFINITY)
        )

    @property
    def d0(self) -> int:
        for e in self.entries:
            if e.label == FIBER_ZERO:
                return e.dim
        return 0

    @property
    def dinf(self) -> int:
        for e in self.entries:
            if e.label == FIBER_INFINITY:
                return e.dim
        return 0


def admissible_data(spec: FiberJoinSpec) -> AdmissibleData:
    """Build admissible data from a split join.

    Retained factors are those whose split classes differ; each must
    be a curve (complex dimension one) with a well-defined genus, and
    the resulting r values must be pairwise distinct.
    """
    if spec.split is None:
        raise SpecError("admissible data needs a split join")
    retained = retained_factors(spec)
    if not retained:
        raise NotAdmissibleError("both split classes agree on every factor")
    w0 = spec.omega_zero()
    winf = spec.omega_infinity()
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
    seen = {}
    for e in entries:
        if e.r in seen:
            raise RepeatedParameterError(
                f"{seen[e.r]} and {e.label} share r = {e.r}"
            )
        seen[e.r] = e.label
    d0, dinf = spec.split
    if d0 > 0:
        entries.append(
            AdmissibleEntry(FIBER_ZERO, d0, Fraction(d0 + 1), Fraction(1))
        )
    if dinf > 0:
        entries.append(
            AdmissibleEntry(FIBER_INFINITY, dinf, Fraction(-(dinf + 1)), Fraction(-1))
        )
    return AdmissibleData(tuple(entries))


@dataclass(frozen=True)
class ExtremalProfile:
    """Solution of the extremal profile system.

    profile:       F, the momentum profile polynomial on [-1, 1]
    source:        P, with F'' = (reduced characteristic product) * P
    char_product:  the characteristic product of the data
    positive:      whether F > 0 strictly inside (-1, 1)
    alpha, beta:   the extremal affine function alpha + beta*z in P
    """

    profile: Polynomial
    source: Polynomial
    char_product: Polynomial
    positive: bool
    alpha: Fraction
    beta: Fraction


def _moment(poly: Polynomial, k: int) -> Fraction:
    """The integral of z^k * poly(z) over [-1, 1]: the sum of
    2 * nums[j] / (j + k + 1) over even j + k, taken over one common
    denominator."""
    terms = [(n, j + k + 1) for j, n in enumerate(poly.nums) if (j + k) % 2 == 0]
    scale = math.lcm(*(d for _, d in terms))
    return Fraction(2 * sum(n * (scale // d) for n, d in terms), scale * poly.den)


def _ends(poly: Polynomial) -> tuple[int, int]:
    """poly(1) and poly(-1) times poly.den: the sums of the even and odd
    numerators, added and subtracted."""
    even, odd = sum(poly.nums[::2]), sum(poly.nums[1::2])
    return even + odd, even - odd


def _antiderivative_from(poly: Polynomial, start) -> Polynomial:
    """The antiderivative of poly that takes the value ``start`` at -1."""
    anti = poly.antiderivative()
    return anti + Polynomial.constant(start - anti(-1))


def extremal_profile(data: AdmissibleData) -> ExtremalProfile:
    """Solve for the extremal profile polynomial of the data.

    F is determined by F'' = R * P with R the reduced characteristic
    product, the product of (1 + r_a z)^(dim_a - 1), and the boundary
    conditions F(+-1) = 0, F'(+-1) = -+2 p(+-1) with p the
    characteristic product.  The source P has the closed form

        P = L + (alpha + beta*z) * q,   q = prod_a (1 + r_a z),
        L = 2 * sum_a dim_a * s_a * r_a * prod_{b != a} (1 + r_b z),

    so P(-1/r_a) = L(-1/r_a) is the value the data prescribes there,
    and R*q = p.  F(+-1) = 0 fix the two integration constants and the
    derivative conditions become the moment conditions

        int_{-1}^{1} R*P = -2 (p(1) + p(-1)),
        int_{-1}^{1} z*R*P = 2 (p(-1) - p(1)),

    a symmetric 2x2 system in alpha and beta.  By Cauchy-Schwarz its
    determinant is positive whenever p keeps one sign on (-1, 1),
    which holds when every |r| <= 1: then no root of p lies inside.
    Data from ``admissible_data`` has |r| < 1 on base factors and
    r = +-1 on fiber blocks, so only synthetic data with some |r| > 1
    can raise SingularSystemError.  Repeated r values raise
    RepeatedNodeError.
    """
    entries = data.entries
    m = len(entries)
    if m == 0:
        raise SpecError("empty admissible data")
    if len({e.r for e in entries}) != m:
        raise RepeatedNodeError("repeated class parameters")

    linears = [Polynomial.linear(1, e.r) for e in entries]
    reduced = Polynomial.one()
    q = Polynomial.one()
    for e, linear in zip(entries, linears):
        reduced = reduced * linear ** (e.dim - 1)
        q = q * linear
    char = reduced * q
    interpolant = Polynomial.zero()
    for a, e in enumerate(entries):
        term = Polynomial.constant(2 * e.dim * e.s * e.r)
        for b, linear in enumerate(linears):
            if b != a:
                term = term * linear
        interpolant = interpolant + term

    # p(1) and p(-1) are these numerators over char.den.
    p_plus, p_minus = _ends(char)
    fixed = reduced * interpolant
    m0, m1, m2 = (_moment(char, k) for k in range(3))
    rhs = [
        Fraction(-2 * (p_plus + p_minus), char.den) - _moment(fixed, 0),
        Fraction(2 * (p_minus - p_plus), char.den) - _moment(fixed, 1),
    ]
    try:
        alpha, beta = solve_linear([[m0, m1], [m1, m2]], rhs)
    except SingularMatrixError as exc:
        raise SingularSystemError(str(exc)) from exc

    source = interpolant + Polynomial.linear(alpha, beta) * q
    # F' and F are the antiderivatives of R * P fixed by F'(-1) = 2 p(-1)
    # and F(-1) = 0; the moment conditions give the values at +1.
    first = _antiderivative_from(reduced * source, Fraction(2 * p_minus, char.den))
    profile = _antiderivative_from(first, 0)

    # F(+-1) = 0 and F'(+-1) = -+2 p(+-1), compared on numerators.
    assert _ends(profile) == (0, 0)
    first_plus, first_minus = _ends(first)
    assert first_plus * char.den == -2 * p_plus * first.den
    assert first_minus * char.den == 2 * p_minus * first.den
    positive = (not profile.is_zero) and strictly_positive_on(profile, -1, 1)
    return ExtremalProfile(
        profile=profile,
        source=source,
        char_product=char,
        positive=positive,
        alpha=alpha,
        beta=beta,
    )


CSC = "csc"
POSITIVITY_FAILS = "positivity_fails"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class CscResult:
    """Outcome of the two-factor constant-scalar-curvature solve.

    s:           the normalized scalar curvature (None if inconsistent)
    certificate: the quadratic that must be positive on (-1, 1)
    verdict:     csc / positivity_fails / inconsistent
    """

    s: Optional[Fraction]
    certificate: Optional[Polynomial]
    verdict: str


def solve_csc(data: AdmissibleData) -> CscResult:
    """Decide constant scalar curvature for two retained factors and
    trivial fiber blocks, by reading the extremal solve of the data
    (see ``csc_from_profile``)."""
    base = data.base_entries
    if len(base) != 2 or data.d0 != 0 or data.dinf != 0:
        raise SpecError("two retained factors and a trivial split required")
    if base[0].r == base[1].r:
        raise EqualParameterError("class parameters must differ")
    return csc_from_profile(extremal_profile(data))


def csc_from_profile(extremal: ExtremalProfile) -> CscResult:
    """The CSC reading of the extremal solve of two retained factors on
    a trivial split.

    The structure has constant scalar curvature exactly when the
    extremal affine function is constant, beta = 0; then s = -alpha/6
    and F = (1 - z^2) * Q with Q the certificate quadratic, positive on
    (-1, 1) exactly when F is.  Otherwise the data are inconsistent.
    """
    if extremal.beta != 0:
        return CscResult(s=None, certificate=None, verdict=INCONSISTENT)
    certificate, rest = extremal.profile.divmod(Polynomial.from_coeffs([1, 0, -1]))
    assert rest.is_zero
    verdict = CSC if extremal.positive else POSITIVITY_FAILS
    return CscResult(s=-extremal.alpha / 6, certificate=certificate, verdict=verdict)


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
