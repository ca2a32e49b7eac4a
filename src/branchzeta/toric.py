"""Toric resolution combinatorics: Bezout step data, divisor multiplicities,
strict-transform linear forms, and the Bell-polynomial utility.

Each characteristic exponent contributes one toric step (n_i, q_i) together
with the unique non-negative Bezout data (a_i, b_i, c_i, d_i) normalized by
0 <= a_i < n_i.

The step data, the multiplicities (N, k+1) of the rupture and dead-end
divisors and the slopes a_i, D_i of the chart orders A and C are read off
BranchNumerics.steps and .ladders, which derive_numerics builds once per branch.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .branch import BranchNumerics, ToricStep
from .errors import IndexOutOfRange, InvalidIndices, exact_int


class DivisorNumerics(namedtuple("DivisorNumerics",
                                 "i N_rupture k_rupture_plus1 N_deadend k_deadend_plus1")):
    """Total-transform and canonical multiplicities at step i.

    N_rupture / k_rupture_plus1 belong to the rupture divisor, N_deadend /
    k_deadend_plus1 to the dead-end divisor created by the same step.
    """

    __slots__ = ()

    def __new__(cls, i, N_rupture, k_rupture_plus1, N_deadend, k_deadend_plus1):
        assert N_rupture == N_deadend * (N_rupture // N_deadend)
        assert min(N_rupture, k_rupture_plus1, N_deadend, k_deadend_plus1) > 0
        return super().__new__(cls, i, N_rupture, k_rupture_plus1, N_deadend, k_deadend_plus1)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too


def toric_steps(bn: BranchNumerics) -> list[ToricStep]:
    """Bezout data for every step; a_i solves q_i*a_i = -1 (mod n_i) in [0, n_i)."""
    return list(bn.steps)


def divisor_numerics(bn: BranchNumerics) -> list[DivisorNumerics]:
    """Multiplicity data (N, k+1) for the rupture and dead-end divisors, read
    off the candidate ladders: (N_i, r_i) at the rupture divisor and
    Ladder.dead_end = (betabar_i, ceil(r_i/n_i)) at the dead end."""
    return [DivisorNumerics(lad.i, lad.N, lad.r, *lad.dead_end) for lad in bn.ladders]


def linear_forms(bn: BranchNumerics, i: int, j: int, ks) -> tuple[int, int, int]:
    """Evaluate the three strict-transform linear forms at the exponent vector.

    rho is the weight defect of the monomial f_0^{k_0}...f_j^{k_j} relative to
    the step-i reference weight n_i*betabar_i; A and C are its orders on the
    two chart axes after the i-th toric modification.  With lo and hi the two
    sums below, rho = n_i lo + mbar_i k_i + n_i mbar_i hi, A = (a_i rho + k_i)/n_i
    and C = (D_i rho + lo)/mbar_i.  Empty products are 1 and empty sums 0, so
    i = j and i = 1 work uniformly (mbar_0 = 1, n_0 = 0).
    """
    if not (1 <= i <= j <= bn.g):
        raise IndexOutOfRange(f"need 1 <= i <= j <= g = {bn.g}, got i={i}, j={j}")
    ks = tuple(map(exact_int, ks))
    if len(ks) != j + 1:
        raise IndexOutOfRange(f"expected {j + 1} exponents, got {len(ks)}")
    if any(v < 0 for v in ks):
        raise IndexOutOfRange("exponents must be non-negative")
    lad = bn.ladders[i - 1]
    lo = sum(bn.nprod(l + 1, i - 1) * bn.mbar[l] * ks[l] for l in range(i))
    hi = sum(bn.nprod(i + 1, l - 1) * ks[l] for l in range(i + 1, j + 1)) - bn.nprod(i + 1, j)
    rho = lad.n * lo + lad.mbar * ks[i] + lad.n * lad.mbar * hi
    a_form, a_rem = divmod(lad.a * rho + ks[i], lad.n)
    c_form, c_rem = divmod(lad.D * rho + lo, lad.mbar)
    assert a_rem == 0 and c_rem == 0, "a chart order is not an integer"
    return rho, a_form, c_form


def bell_polynomial(nu: int, k: int, xs) -> Fraction:
    """Partial exponential Bell polynomial B_{nu,k}(x_1, ..., x_{nu-k+1}).

    Exact rational output of the recurrence B_{m,l} = sum_j C(m-1, j-1) x_j
    B_{m-j,l-1}, one row of B_{m,l} per l from B_{m,1} = x_m, for the m that
    x_1, ..., x_{nu-k+1} determine: m < nu - k + 1 + l.
    """
    nu, k = exact_int(nu), exact_int(k)
    if nu < 1 or not (1 <= k <= nu):
        raise InvalidIndices(f"need nu >= 1 and 1 <= k <= nu, got nu={nu}, k={k}")
    xs = [Fraction(x) for x in xs]
    width = nu - k + 1
    if len(xs) != width:
        raise InvalidIndices(f"expected {width} arguments, got {len(xs)}")
    row = [Fraction(0), *xs]
    for l in range(2, k + 1):
        row = [sum((comb(m - 1, j - 1) * xs[j - 1] * row[m - j] for j in range(1, m - l + 2)),
                   Fraction(0)) for m in range(width + l)]
    return row[nu]
