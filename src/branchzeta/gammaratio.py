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
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PreconditionViolated

# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set): relative
# error below 1e-13 for Re(z) > 0 in double precision.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# |value| of a finite result must lie in the normal double range
_LOG_MIN, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def log_gamma(z) -> complex:
    """Complex log-Gamma (Lanczos on the right half-plane, reflection on the
    left).  The imaginary part is not branch-normalized; only differences are
    ever exponentiated here, so any 2 pi i ambiguity cancels.  A non-integer
    Fraction whose double is a pole raises DomainError naming the rounding."""
    exact, z = z, complex(z)
    if z.imag == 0 and z.real <= 0 and z.real == round(z.real):
        if isinstance(exact, Fraction) and exact.denominator != 1:
            msg = f"log_gamma argument rounds onto the pole {z.real:g} in double precision"
            raise DomainError(msg)
        raise DomainError(f"log_gamma pole at non-positive integer {z}")
    if z.real < 0.5:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return cmath.log(cmath.pi) - cmath.log(cmath.sin(cmath.pi * z)) - log_gamma(1.0 - z)
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma_ratio(u, v) -> complex:
    """Gamma(u)/Gamma(v) where neither Gamma is singular, from log space;
    DomainError when |value| leaves the normal double range."""
    return _from_polar(*_polar(log_gamma(u) - log_gamma(v)))


@dataclass(frozen=True)
class MeromorphicValue:
    """Zero/pole/finite result of a Gamma-ratio product.

    order > 0: pole of that order, no finite value (value is None).
    order < 0: zero; the consumer-facing value is exactly 0.
    order = 0: finite nonzero value.
    reason records each pair's contribution as (label, order) entries.
    """

    order: int
    value: complex | None
    reason: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.order > 0:
            assert self.value is None
        elif self.order < 0:
            assert self.value == 0


def _nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _polar(log_c: complex, sign: float = 1.0) -> tuple[float, complex]:
    """(log-magnitude, phase as a unit complex) of sign * exp(log_c)."""
    return log_c.real, sign * cmath.exp(1j * log_c.imag)


def _log_factorial_ratio(l: int, k: int) -> float:
    """log(l!/k!), from the exact integer ratio while both fit a double."""
    if max(k, l) <= 170:
        return math.log(math.factorial(l) / math.factorial(k))
    return math.lgamma(l + 1) - math.lgamma(k + 1)


def _pair_ladder(u: Fraction, v: Fraction) -> tuple[int, float, complex]:
    """Order, log-magnitude and phase of the Laurent leading coefficient of
    lim Gamma(u+eps)/Gamma(v+eps), for u + v integral.

    Near a non-positive integer -k, Gamma(-k+eps) = (-1)^k/(k! eps) + O(1).
    The leading coefficient is the value when order = 0, the residue-ratio
    coefficient otherwise; it is finite and nonzero in every case, but may
    lie far outside double range, so it is returned as log|c| and c/|c|.
    """
    u_sing = _nonpos_int(u)
    v_sing = _nonpos_int(v)
    if u_sing and v_sing:
        k, l = int(-u), int(-v)
        return 0, _log_factorial_ratio(l, k), complex((-1.0) ** ((k - l) % 2))
    if u_sing:
        k = int(-u)
        return (1, *_polar(-math.lgamma(k + 1) - log_gamma(v), (-1.0) ** (k % 2)))
    if v_sing:
        l = int(-v)
        return (-1, *_polar(math.lgamma(l + 1) + log_gamma(u), (-1.0) ** (l % 2)))
    if u.denominator == 1:
        # both positive integers (u + v is integral): (u-1)!/(v-1)!
        return 0, _log_factorial_ratio(int(u) - 1, int(v) - 1), complex(1.0)
    return (0, *_polar(log_gamma(u) - log_gamma(v)))


def _from_polar(log_mag: float, phase: complex) -> complex:
    """exp(log_mag) * phase; DomainError when |value| leaves the normal
    double range."""
    if not _LOG_MIN <= log_mag <= _LOG_MAX:
        raise DomainError(
            f"|value| = exp({log_mag:.6g}) lies outside the double range "
            f"[{sys.float_info.min:.6g}, {sys.float_info.max:.6g}]"
        )
    return math.exp(log_mag) * phase


def _meromorphic(order: int, log_mag: float, phase: complex, reason) -> MeromorphicValue:
    """The MeromorphicValue of a product with total order `order` whose
    leading coefficient is exp(log_mag) * phase."""
    if order > 0:
        return MeromorphicValue(order=order, value=None, reason=reason)
    if order < 0:
        return MeromorphicValue(order=order, value=0j, reason=reason)
    return MeromorphicValue(order=0, value=_from_polar(log_mag, phase), reason=reason)


def gamma_pair(u, v) -> MeromorphicValue:
    """One Gamma ratio Gamma(u)/Gamma(v) with exact order bookkeeping.

    Requires u + v integral (true of all three kernel pairs); that makes
    "u integral" and "v integral" equivalent, so mixed integer/non-integer
    pairs cannot occur.  u and v are converted exactly with Fraction.
    """
    u, v = Fraction(u), Fraction(v)
    if (u + v).denominator != 1:
        raise PreconditionViolated(f"u + v = {u + v} is not an integer")
    reason = (
        (f"Gamma({u})", 1 if _nonpos_int(u) else 0),
        (f"1/Gamma({v})", -1 if _nonpos_int(v) else 0),
    )
    return _meromorphic(*_pair_ladder(u, v), reason)


@dataclass(frozen=True)
class RnmParams:
    """Parameters of the kernel; alpha' = alpha + n, beta' = beta + m.

    alpha and beta are rationals, stored as Fraction: a float, int or str
    converts exactly (a float by its binary value), and a complex value
    raises TypeError.  lam is the lambda scale, finite, nonzero and
    possibly complex.
    """

    alpha: Fraction
    n: int
    beta: Fraction
    m: int
    lam: complex = 1.0

    def __post_init__(self):
        lam = complex(self.lam)
        if lam == 0 or not cmath.isfinite(lam):
            raise DomainError("lambda must be finite and nonzero")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))

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
    The product is formed in log space and exponentiated once, so pair
    coefficients outside double range cancel; a value whose magnitude lies
    outside the normal double range raises DomainError.
    """
    total = 0
    log_mag, phase = 0.0, complex(1.0)
    reason = []
    for label, u, v in p.pairs():
        order, pair_log, pair_phase = _pair_ladder(u, v)
        total += order
        log_mag += pair_log
        phase *= pair_phase
        reason.append((label, order))
    if total == 0:
        lam = complex(p.lam)
        a_exp = -complex(p.alpha_prime) - 1
        b_exp = -complex(p.alpha) - 1
        pre_log, pre_phase = _polar(
            math.log(2.0 * math.pi) + a_exp * cmath.log(lam) + b_exp * cmath.log(lam.conjugate()),
            -1j,
        )
        log_mag += pre_log
        phase *= pre_phase
    return _meromorphic(total, log_mag, phase, tuple(reason))


def symmetry_pair(p: RnmParams) -> tuple[MeromorphicValue, MeromorphicValue]:
    """Closed forms of both sides of the symmetry
    R_{n,m}(alpha, beta; lambda) = R_{-n,-m}(alpha', beta'; conj lambda)."""
    swapped = RnmParams(
        alpha=p.alpha_prime, n=-p.n, beta=p.beta_prime, m=-p.m, lam=complex(p.lam).conjugate()
    )
    return rnm_closed_form(p), rnm_closed_form(swapped)


def symmetry_check(p: RnmParams, rel_tol: float = 1e-10) -> bool:
    """Verify the symmetry of symmetry_pair: orders must agree and finite
    values must match to rel_tol relative."""
    a, b = symmetry_pair(p)
    if a.order != b.order:
        return False
    if a.order != 0:
        return True
    return abs(a.value - b.value) <= rel_tol * max(abs(a.value), abs(b.value))


def hypergeom_sum_at_1(a, b, c, terms: int) -> tuple[float, float, float]:
    """Partial sum of sum_k Gamma(a+k)Gamma(b+k)/(Gamma(c+k) k!) against its
    closed form Gamma(a)Gamma(b)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)).

    Terms follow the stable recurrence t_{k+1} = t_k (a+k)(b+k)/((c+k)(k+1)).
    Requires c - a - b > 0 and c not a non-positive integer; a and b must not
    be non-positive integers either (the term sum is undefined there since
    Gamma(a+k) hits a pole for small k).  Returns (partial, closed, relerr).

    partial is the plain sum of the first `terms` terms and relerr is its
    relative error against closed; no tail estimate is added.  With
    s = c - a - b the terms decay like k^(-1-s), so for K terms that error
    decays only like K^(-s)/s, up to a constant factor: for (1, 1, 3) it is
    exactly 1/(K+1).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if _nonpos_int(c):
        raise DomainError(f"c = {c} is a non-positive integer")
    if _nonpos_int(a) or _nonpos_int(b):
        raise DomainError("a and b must not be non-positive integers")
    if c - a - b <= 0:
        raise DomainError(f"need c - a - b > 0, got {c - a - b}")
    if terms < 1:
        raise DomainError("need at least one term")

    t = cmath.exp(log_gamma(a) + log_gamma(b) - log_gamma(c)).real
    acc = [t]
    af, bf, cf = float(a), float(b), float(c)
    for k in range(terms - 1):
        t *= (af + k) * (bf + k) / ((cf + k) * (k + 1.0))
        acc.append(t)
    partial = math.fsum(acc)
    closed = cmath.exp(
        log_gamma(a) + log_gamma(b) + log_gamma(c - a - b) - log_gamma(c - a) - log_gamma(c - b)
    ).real
    relerr = abs(partial - closed) / abs(closed) if closed != 0 else math.inf
    return partial, closed, relerr
