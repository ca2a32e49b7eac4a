"""Meromorphic evaluation of the residue kernel R_{n,m}(alpha, beta; lambda).

The kernel is a product of three Gamma ratios
Gamma(alpha+1)/Gamma(-alpha-n) * Gamma(beta+1)/Gamma(-beta-m)
* Gamma(gamma+1)/Gamma(-gamma-n-m), gamma = -alpha-beta-n-m-2, times the
prefactor -2 pi i lambda^{-alpha'-1} conj(lambda)^{-alpha-1}.  Each ratio is
evaluated with exact zero/pole order bookkeeping: numerator and denominator
arguments differ by an integer, so poles of Gamma can only appear at
non-positive integer arguments and integer detection is exact (rational
inputs, never tolerance-based).

Orders combine additively; a ratio with orders (+1, -1, 0) has a finite
nonzero limit given by the product of Laurent leading coefficients (the same
epsilon shifts every argument, matching the residue computation's limit).
Its value is exact integer arithmetic and math.gamma on [1, 2) (see
_reduce), within 1e-14 relative.  Its integers are bounded by errors.MAX_BITS.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate

from .errors import MAX_BITS, DomainError, PreconditionViolated, exact_int, exact_rational


class MeromorphicValue(namedtuple("MeromorphicValue", "order value reason")):
    """Zero/pole/finite result of a Gamma-ratio product.

    order > 0: pole of that order, no finite value (value is None).
    order < 0: zero; the consumer-facing value is exactly 0.
    order = 0: finite nonzero value.
    value is a complex or None; reason records each pair's contribution as
    (label, order) entries.
    """

    __slots__ = ()

    def __new__(cls, order, value, reason):
        if order > 0:
            assert value is None
        elif order < 0:
            assert value == 0
        return super().__new__(cls, order, value, reason)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too


def _nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _reduce(w: Fraction) -> tuple[int, tuple[int, int, int], float]:
    """(order, (a, q, c), x) with Gamma(w + eps) ~ Gamma(x) (a/q)_c eps^-order,
    x = 1 + frac(w) in [1, 2), where (y)_c = y (y+1) ... (y+c-1), a rising
    product of integers over a power of y's denominator, and (y)_c =
    1/(y)_{-c} for c < 0.  Gamma(-k + eps) = 1/((-k)_k eps) + O(1)."""
    a, q = w.numerator, w.denominator
    if _nonpos_int(w):
        return 1, (a, 1, a), 1.0
    j = a // q - 1
    return 0, (a - j * q if j >= 0 else a, q, j), (a - j * q) / q


def _rising(a: int, q: int, count: int) -> int:
    """a (a+q) ... (a+(count-1)q), halved so that big factors meet big ones."""
    if count <= 16:
        return math.prod(range(a, a + count * q, q))
    half = count // 2
    return _rising(a, q, half) * _rising(a + half * q, q, count - half)


def _pair_ladders(pairs, powers=(), scale=1.0) -> tuple[list[int], float | None]:
    """Orders of the pairs (u, v) of rationals, and the product of the
    Laurent leading coefficients of Gamma(u+eps)/Gamma(v+eps), times
    prod b^e over powers (b, e) and the positive float scale: None at a
    pole, 0.0 at a zero.  The integers count against MAX_BITS at every
    order, as count * (bits of the denominator + bits of count) per rising
    product and |e| * (bits of b) per power."""
    orders, symbols = [], []
    for u, v in pairs:
        order_u, (a_u, q_u, c_u), x_u = _reduce(u)
        order_v, (a_v, q_v, c_v), x_v = _reduce(v)
        orders.append(order_u - order_v)
        symbols += [(a_u, q_u, c_u), (a_v, q_v, -c_v)]
        scale *= math.gamma(x_u) / math.gamma(x_v)
    bits = sum(abs(e) * b.bit_length() for b, e in powers) + sum(
        abs(c) * (q.bit_length() + c.bit_length()) for _, q, c in symbols
    )
    if bits > MAX_BITS:
        raise DomainError(
            f"the exact Gamma products need at least 2^{bits.bit_length() - 1} bits,"
            f" over the bound of {MAX_BITS}"
        )
    if sum(orders):
        return orders, None if sum(orders) > 0 else 0.0
    # every integer factor as base -> exponent, so equal bases cancel unformed
    exponents = Counter(dict(powers))
    for a, q, c in symbols:
        exponents[_rising(a, q, abs(c))] += 1 if c > 0 else -1
        exponents[q] -= c
    num = math.prod(b**e for b, e in exponents.items() if e > 0)
    den = math.prod(b**-e for b, e in exponents.items() if e < 0)
    # num/den rounded once (int/int true division rounds correctly) at a
    # binary scale read off the bit lengths, so the range check is exact
    scale_m, scale_e = math.frexp(scale)
    e = num.bit_length() - den.bit_length()
    m, k = math.frexp(abs(num << max(-e, 0)) / abs(den << max(e, 0)) * scale_m)
    e += scale_e + k
    if not sys.float_info.min_exp <= e <= sys.float_info.max_exp:
        raise DomainError(
            f"|value| = {m:.6g} * 2^{e} lies outside the double range "
            f"[{sys.float_info.min:.6g}, {sys.float_info.max:.6g}]"
        )
    return orders, math.ldexp(m if (num < 0) == (den < 0) else -m, e)


def gamma_ratio(u, v) -> float:
    """Gamma(u)/Gamma(v) for rationals u, v, neither Gamma singular;
    DomainError when |value| leaves the normal double range."""
    orders, value = _pair_ladders([(Fraction(u), 1), (1, Fraction(v))])
    if any(orders):
        raise DomainError("Gamma(u) / Gamma(v) has a Gamma pole at u or v")
    return value


def gamma_pair(u, v) -> MeromorphicValue:
    """One Gamma ratio Gamma(u)/Gamma(v) with exact order bookkeeping.

    Requires u + v integral (true of all three kernel pairs); that makes
    "u integral" and "v integral" equivalent, so mixed integer/non-integer
    pairs cannot occur.  u and v are converted exactly with Fraction.
    """
    u, v = Fraction(u), Fraction(v)
    if (u + v).denominator != 1:
        raise PreconditionViolated("u + v is not an integer")
    # labels name roles, as rnm_closed_form's do: str() of a long argument can raise
    reason = (("Gamma(u)", 1 if _nonpos_int(u) else 0),
              ("1/Gamma(v)", -1 if _nonpos_int(v) else 0))
    (order,), value = _pair_ladders([(u, v)])
    value = None if value is None else complex(value)
    return MeromorphicValue(order=order, value=value, reason=reason)


class RnmParams(namedtuple("RnmParams", "alpha n beta m lam")):
    """Parameters of the kernel; alpha' = alpha + n, beta' = beta + m.

    alpha and beta are rationals, stored as Fraction: a float, int or str
    converts exactly (a float by its binary value, a str unless too long for
    MAX_BITS), and a complex value raises TypeError.  lam is the lambda
    scale: nonzero, possibly complex, with a finite modulus, stored as given.
    """

    __slots__ = ()

    def __new__(cls, alpha, n, beta, m, lam=1.0):
        alpha, beta, z = exact_rational(alpha), exact_rational(beta), complex(lam)
        if z == 0 or not math.isfinite(math.hypot(z.real, z.imag)):
            raise DomainError("lambda must be finite and nonzero")
        return super().__new__(cls, alpha, exact_int(n), beta, exact_int(m), lam)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    @property
    def alpha_prime(self):
        return self.alpha + self.n

    @property
    def beta_prime(self):
        return self.beta + self.m

    @property
    def gamma(self):
        return -self.alpha - self.beta - self.n - self.m - 2

    def pairs(self):
        """The three (u, v) Gamma-ratio argument pairs of the closed form."""
        g = self.gamma
        return (
            ("alpha-pair", self.alpha + 1, -self.alpha - self.n),
            ("beta-pair", self.beta + 1, -self.beta - self.m),
            ("gamma-pair", g + 1, -g - self.n - self.m),
        )


def rnm_closed_form(p: RnmParams) -> MeromorphicValue:
    """Evaluate the closed form of the kernel with order bookkeeping.

    Total order is the sum over the three pairs.  At total order 0 the value
    is -2 pi i lambda^{-alpha'-1} conj(lambda)^{-alpha-1} times the product
    of pair leading coefficients (principal branch for the lambda powers);
    negative total order is an exact zero; positive total order is a pole.
    |lambda|^c, c = -2 alpha - n - 2, joins the pairs' exact integers as
    |lambda|^k for an integer k next to c, so pair coefficients outside
    double range cancel; a value outside the normal double range raises
    DomainError.  For real lambda the phase is exactly -i or i, so the real
    part is +0.0.
    """
    lam = complex(p.lam)
    modulus = math.hypot(lam.real, lam.imag)
    c = -2 * p.alpha - p.n - 2
    # |lambda|^(c - k) lies in [1/|lambda|, 1] or [|lambda|, 1]: a double
    k = math.ceil(c) if modulus >= 1 else math.floor(c)
    top, bottom = modulus.as_integer_ratio()
    labels, u, v = zip(*p.pairs())
    scale = 2.0 * math.pi * modulus ** float(c - k)
    orders, mag = _pair_ladders(zip(u, v), ((top, k), (bottom, -k)), scale)
    order, reason = sum(orders), tuple(zip(labels, orders))
    if order:
        return MeromorphicValue(order=order, value=None if order > 0 else 0j, reason=reason)
    if lam.imag:
        value = -1j * mag * cmath.exp(-1j * p.n * cmath.phase(lam))
    else:
        # the phase is -i, turned by (-1)^n for lambda < 0
        value = complex(0.0, -mag if lam.real > 0 or p.n % 2 == 0 else mag)
    return MeromorphicValue(order=0, value=value, reason=reason)


def symmetry_pair(p: RnmParams) -> tuple[MeromorphicValue, MeromorphicValue]:
    """Closed forms of both sides of the symmetry
    R_{n,m}(alpha, beta; lambda) = R_{-n,-m}(alpha', beta'; conj lambda)."""
    swapped = RnmParams(
        alpha=p.alpha_prime, n=-p.n, beta=p.beta_prime, m=-p.m, lam=complex(p.lam).conjugate()
    )
    return rnm_closed_form(p), rnm_closed_form(swapped)


def symmetry_relerr(a: MeromorphicValue, b: MeromorphicValue) -> float:
    """How far the sides of symmetry_pair differ: 0 or inf on their orders
    when either is a pole or zero, else their values' relative difference."""
    if a.order or b.order:
        return 0.0 if a.order == b.order else math.inf
    return abs(a.value - b.value) / max(abs(a.value), abs(b.value))


def symmetry_check(p: RnmParams, rel_tol: float = 1e-10) -> bool:
    """Verify the symmetry of symmetry_pair: orders must agree and finite
    values must match to rel_tol relative."""
    return symmetry_relerr(*symmetry_pair(p)) <= rel_tol


def hypergeom_sum_at_1(a, b, c, terms: int) -> tuple[float, float, float]:
    """Partial sum of sum_k Gamma(a+k)Gamma(b+k)/(Gamma(c+k) k!) against its
    closed form Gamma(a)Gamma(b)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)).

    Terms follow the stable recurrence t_{k+1} = t_k (a+k)(b+k)/((c+k)(k+1)).
    Requires c - a - b > 0 and c not a non-positive integer; a and b must not
    be non-positive integers either (the term sum is undefined there since
    Gamma(a+k) hits a pole for small k).  Returns (partial, closed, relerr).

    partial is the correctly rounded sum of the first `terms` terms, made one
    at a time, and relerr its relative error against closed; no tail estimate
    is added.  With s = c - a - b the terms decay like k^(-1-s), so for K
    terms that error decays only like K^(-s)/s, up to a constant factor: for
    (1, 1, 3) it is exactly 1/(K+1).
    """
    a, b, c, terms = Fraction(a), Fraction(b), Fraction(c), exact_int(terms)
    if _nonpos_int(c):
        raise DomainError("c is a non-positive integer")
    if _nonpos_int(a) or _nonpos_int(b):
        raise DomainError("a and b must not be non-positive integers")
    if c - a - b <= 0:
        raise DomainError("need c - a - b > 0")
    if terms < 1:
        raise DomainError("need at least one term")

    af, bf, cf = float(a), float(b), float(c)
    t0 = _pair_ladders([(a, c), (b, 1)])[1]
    partial = math.fsum(accumulate(
        range(terms - 1), lambda t, k: t * (af + k) * (bf + k) / ((cf + k) * (k + 1.0)), initial=t0
    ))
    # 0 when c - a or c - b is a pole of Gamma
    closed = _pair_ladders([(a, c - a), (b, c - b), (c - a - b, 1)])[1]
    relerr = abs(partial - closed) / abs(closed) if closed != 0 else math.inf
    return partial, closed, relerr
