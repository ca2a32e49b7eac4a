"""Toric resolution combinatorics: Bezout step data, divisor multiplicities,
strict-transform linear forms, and the Bell-polynomial utility.

Each characteristic exponent contributes one toric step (n_i, q_i) together
with the unique non-negative Bezout data (a_i, b_i, c_i, d_i) normalized by
0 <= a_i < n_i.  The steps drive the three linear forms rho/A/C that measure
the orders of a deformation monomial along the exceptional divisors.

The multiplicities (N, k+1) of the rupture and dead-end divisors, and the
k_i coefficient D_i of the C form, are not derived here: they are read off
the integer candidate ladders (BranchNumerics.ladders, built once per branch
by poles.Ladder.of) as (N, r) and dead_end, the one place that computes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .branch import BranchNumerics
from .errors import IndexOutOfRange, InvalidIndices


@dataclass(frozen=True)
class ToricStep:
    """Per-exponent Bezout data; all identities hold exactly."""

    i: int
    n: int
    q: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        assert self.n * self.b - self.q * self.a == 1
        assert self.q * self.c - self.n * self.d == 1
        assert self.a * self.q + self.d * self.n == self.n * self.q - 1
        assert self.a + self.c == self.n and self.b + self.d == self.q
        assert 0 <= self.a < self.n


@dataclass(frozen=True)
class DivisorNumerics:
    """Total-transform and canonical multiplicities at step i.

    N_rupture / k_rupture_plus1 belong to the rupture divisor, N_deadend /
    k_deadend_plus1 to the dead-end divisor created by the same step.
    """

    i: int
    N_rupture: int
    k_rupture_plus1: int
    N_deadend: int
    k_deadend_plus1: int

    def __post_init__(self):
        assert self.N_rupture == self.N_deadend * (self.N_rupture // self.N_deadend)
        assert min(self.N_rupture, self.k_rupture_plus1, self.N_deadend, self.k_deadend_plus1) > 0


def toric_steps(bn: BranchNumerics) -> list[ToricStep]:
    """Bezout data for every step; a_i solves q_i*a_i = -1 (mod n_i) in [0, n_i)."""
    steps = []
    for i in range(1, bn.g + 1):
        n, q = bn.nn[i], bn.qq[i]
        a = (-pow(q, -1, n)) % n
        b = (1 + q * a) // n
        steps.append(ToricStep(i=i, n=n, q=q, a=a, b=b, c=n - a, d=q - b))
    return steps


def divisor_numerics(bn: BranchNumerics) -> list[DivisorNumerics]:
    """Multiplicity data (N, k+1) for the rupture and dead-end divisors, read
    off the candidate ladders: (N_i, r_i) at the rupture divisor and
    Ladder.dead_end = (betabar_i, ceil(r_i/n_i)) at the dead end."""
    return [DivisorNumerics(lad.i, lad.N, lad.r, *lad.dead_end) for lad in bn.ladders]


def linear_forms(bn: BranchNumerics, i: int, j: int, ks) -> tuple[int, int, int]:
    """Evaluate the three strict-transform linear forms at the exponent vector.

    rho is the weight defect of the monomial f_0^{k_0}...f_j^{k_j} relative to
    the step-i reference weight n_i*betabar_i; A and C are its orders on the
    two chart axes after the i-th toric modification.  Empty products are 1
    and empty sums 0, so i = j and i = 1 work uniformly (mbar_0 = 1, n_0 = 0).
    """
    if not (1 <= i <= j <= bn.g):
        raise IndexOutOfRange(f"need 1 <= i <= j <= g = {bn.g}, got i={i}, j={j}")
    ks = tuple(int(v) for v in ks)
    if len(ks) != j + 1:
        raise IndexOutOfRange(f"expected {j + 1} exponents, got {len(ks)}")
    if any(v < 0 for v in ks):
        raise IndexOutOfRange("exponents must be non-negative")

    step = bn.steps[i - 1]
    mbar_i = bn.mbar[i]
    dd = bn.ladders[i - 1].D  # c_i n_{i-1} mbar_{i-1} + d_i, the k_i coefficient shared by C
    aa = step.a * bn.nn[i - 1] * bn.mbar[i - 1] + step.b

    rho = -mbar_i * bn.nprod(i, j)
    for l in range(0, i + 1):
        rho += bn.nprod(l + 1, i) * bn.mbar[l] * ks[l]
    for l in range(i + 1, j + 1):
        rho += bn.nn[i] * mbar_i * bn.nprod(i + 1, l - 1) * ks[l]

    a_form = aa * ks[i] - step.a * mbar_i * bn.nprod(i + 1, j)
    for l in range(0, i):
        a_form += step.a * bn.nprod(l + 1, i - 1) * bn.mbar[l] * ks[l]
    for l in range(i + 1, j + 1):
        a_form += step.a * mbar_i * bn.nprod(i + 1, l - 1) * ks[l]

    c_form = dd * ks[i] - dd * bn.nprod(i, j)
    for l in range(0, i):
        c_form += step.c * bn.nprod(l + 1, i - 1) * bn.mbar[l] * ks[l]
    for l in range(i + 1, j + 1):
        c_form += bn.nn[i] * dd * bn.nprod(i + 1, l - 1) * ks[l]

    return rho, a_form, c_form


def bell_polynomial(nu: int, k: int, xs) -> Fraction:
    """Partial exponential Bell polynomial B_{nu,k}(x_1, ..., x_{nu-k+1}).

    Sums nu!/(j_1! ... j_{nu-k+1}!) * prod (x_l / l!)^{j_l} over all j with
    sum j_l = k and sum l*j_l = nu.  Exact rational output.
    """
    if nu < 1 or not (1 <= k <= nu):
        raise InvalidIndices(f"need nu >= 1 and 1 <= k <= nu, got nu={nu}, k={k}")
    xs = [Fraction(x) for x in xs]
    width = nu - k + 1
    if len(xs) != width:
        raise InvalidIndices(f"expected {width} arguments, got {len(xs)}")

    def rec(l: int, jsum: int, lsum: int, term: Fraction) -> Fraction:
        # the sum of the terms whose j_1, .., j_{l-1} made term
        if l > width:
            return term if jsum == k and lsum == nu else Fraction(0)
        total = Fraction(0)
        for j in range(min(k - jsum, (nu - lsum) // l) + 1):
            piece = term * (xs[l - 1] / factorial(l)) ** j / factorial(j)
            total += rec(l + 1, jsum + j, lsum + l * j, piece)
        return total

    return rec(1, 0, 0, Fraction(1)) * factorial(nu)
