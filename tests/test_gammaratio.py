"""Gamma-ratio kernel tests: Gamma values and the kernel against mpmath,
order bookkeeping goldens, the bound on the exact integers, the kernel
symmetry, vanishing properties over the branch corpus, and the
hypergeometric identity checker."""

import math
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchzeta import errors, gammaratio
from branchzeta.cli import main
from branchzeta.errors import DomainError, PreconditionViolated
from branchzeta.gammaratio import (
    MeromorphicValue,
    RnmParams,
    gamma_pair,
    gamma_ratio,
    hypergeom_sum_at_1,
    rnm_closed_form,
    symmetry_check,
)
from branchzeta.poles import PoleStatus, candidate_pole

mpmath.mp.dps = 40


def mp_gamma(x) -> float:
    return float(mpmath.gamma(mpmath.mpf(x)))


def mp_frac(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


class TestGammaRatio:
    def test_real_axis_gamma_values(self):
        xs = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 3.25, 4.7421875, 7.5, 10.0, 20.0, 31.5, 100.25, 101.0]
        for x in xs:
            got = gamma_ratio(x, 1)
            want = mp_gamma(x)
            assert abs(got - want) <= 1e-14 * abs(want), (x, got, want)

    def test_negative_arguments(self):
        # Gamma(1/4) Gamma(3/4) = pi / sin(pi/4), and values left of 0
        g14, g34 = gamma_ratio(Fraction(1, 4), 1), gamma_ratio(Fraction(3, 4), 1)
        assert abs(g14 * g34 - math.pi / math.sin(math.pi / 4)) <= 1e-14 * 5
        for x in (Fraction(-3, 2), Fraction(-23, 7), Fraction(-101, 3), Fraction(-5, 12)):
            got = gamma_ratio(x, 1)
            want = float(mpmath.gamma(mp_frac(x)))
            assert abs(got - want) <= 1e-14 * abs(want), x

    def test_poles_rejected(self):
        for u, v in [(0, 1), (-1, 1), (-7, 1), (Fraction(1, 2), -3)]:
            with pytest.raises(DomainError, match="has a Gamma pole"):
                gamma_ratio(u, v)

    def test_gamma_ratio_matches_mpmath(self):
        got = gamma_ratio(Fraction(3, 4), Fraction(1, 4))
        want = mp_gamma(0.75) / mp_gamma(0.25)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("u,v", [(Fraction(1000), Fraction(1, 2)),
                                     (Fraction(-179, 14), Fraction(343))],
                             ids=["overflow", "underflow"])
    def test_gamma_ratio_outside_double_range(self, u, v):
        # |Gamma(u)/Gamma(v)| is about exp(5905) or exp(-1678): a DomainError
        # that names the range, neither an OverflowError nor a rounded 0
        with pytest.raises(DomainError, match="outside the double range"):
            gamma_ratio(u, v)

    @pytest.mark.parametrize("u,v", [
        (Fraction(-1000000000000000001, 2), Fraction(1, 2)),
        (Fraction(-1, 10**400), Fraction(2, 10**400)),
    ], ids=["large-half-integer", "tiny-negative"])
    def test_arguments_whose_doubles_are_poles(self, u, v):
        # neither argument is a pole of Gamma, though its double is one:
        # the exact reduction answers, or refuses an input over the bound
        if u.denominator == 2:
            with pytest.raises(DomainError, match=f"over the bound of {errors.MAX_BITS}"):
                gamma_ratio(u, v)
        else:
            want = float(mpmath.gamma(mp_frac(u)) / mpmath.gamma(mp_frac(v)))
            assert abs(gamma_ratio(u, v) - want) <= 1e-14 * abs(want)
            assert abs(want + 2) <= 1e-9


class TestGammaPair:
    def test_zero_from_denominator_pole(self):
        mv = gamma_pair(3, -2)
        assert mv.order == -1
        assert mv.value == 0

    def test_generic_ratio(self):
        mv = gamma_pair(Fraction(3, 4), Fraction(1, 4))
        assert mv.order == 0
        want = mp_gamma(0.75) / mp_gamma(0.25)
        assert abs(mv.value - want) <= 1e-12 * abs(want)
        assert abs(mv.value - 0.3380) <= 5e-4

    def test_both_nonpositive_integers(self):
        # limit of Gamma(-1+e)/Gamma(-3+e) = (-1)^2 Gamma(4)/Gamma(2) = 6
        mv = gamma_pair(-1, -3)
        assert mv.order == 0
        assert abs(mv.value - 6) <= 1e-12 * 6

    def test_both_positive_integers(self):
        mv = gamma_pair(5, 3)
        assert mv.order == 0
        assert mv.value == complex(math.factorial(4) / math.factorial(2))

    def test_pole_case(self):
        mv = gamma_pair(-2, 3)
        assert mv.order == 1
        assert mv.value is None
        assert mv.reason[0][1] == 1

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            gamma_pair(Fraction(1, 2), Fraction(1, 3))

    def test_arguments_too_long_to_write_are_not_written(self):
        # denominators of 5001 digits; the Gamma integers stay within the bound
        eps = Fraction(1, 10**5000)
        mv = gamma_pair(1 + eps, 1 - eps)
        assert (mv.order, mv.value) == (0, 1 + 0j)
        assert mv.reason == (("Gamma(u)", 0), ("1/Gamma(v)", 0))

    def test_reflection_consistency(self):
        # gamma_pair(u, v) * gamma_pair(v, u) = 1 for non-integer u, v
        pool = [Fraction(1, 3), Fraction(-7, 4), Fraction(5, 12), Fraction(-9, 2)]
        for u in pool:
            for shift in (-3, -1, 0, 1, 2, 5):
                v = shift - u
                if v.denominator == 1 or u == v:
                    continue
                a = gamma_pair(u, v)
                b = gamma_pair(v, u)
                assert a.order == 0 and b.order == 0
                prod = a.value * b.value
                assert abs(prod - 1) <= 1e-12

    def test_large_integer_arguments_no_overflow(self):
        mv = gamma_pair(-250, -248)
        assert mv.order == 0
        assert abs(mv.value - 248 * 249 * 250 * (-1.0) ** 2 / (248 * 249 * 250) ** 2) >= 0
        want = float(mpmath.gamma(249) / mpmath.gamma(251))
        assert abs(mv.value - want) <= 1e-10 * abs(want)


class TestRnmClosedForm:
    def test_all_finite_example(self):
        # alpha = beta = -3/5, n = m = 0: value -2 pi i G(2/5)^2 G(1/5) / (G(3/5)^2 G(4/5))
        p = RnmParams(alpha=Fraction(-3, 5), n=0, beta=Fraction(-3, 5), m=0, lam=1.0)
        mv = rnm_closed_form(p)
        assert mv.order == 0
        ratio = (
            mp_gamma(0.4) ** 2 * mp_gamma(0.2) / (mp_gamma(0.6) ** 2 * mp_gamma(0.8))
        )
        want = -2j * math.pi * ratio
        assert abs(mv.value - want) <= 1e-12 * abs(want)
        assert abs(mv.value.imag + 54.97) <= 0.01
        assert abs(mv.value.real) <= 1e-10

    def test_exact_zero_from_gamma_zero(self):
        # alpha = 0 makes the alpha-pair (1, 0): Gamma(0) in the denominator
        p = RnmParams(alpha=0, n=0, beta=Fraction(-1, 2), m=0, lam=1.0)
        mv = rnm_closed_form(p)
        assert mv.order == -1
        assert mv.value == 0
        assert ("alpha-pair", -1) in mv.reason

    def test_example_pairs_all_finite(self):
        # sigma = -5/12, eps1 = -9/4, eps2 = -4/3 of the (4;9) branch at nu = 2
        sigma, eps1, eps2 = Fraction(-5, 12), Fraction(-9, 4), Fraction(-4, 3)
        pairs = [
            (eps1 + 3, -eps1 - 2),
            (sigma, 1 - sigma),
            (eps2 + 2, -eps2 - 1),
        ]
        assert pairs[0] == (Fraction(3, 4), Fraction(1, 4))
        assert pairs[1] == (Fraction(-5, 12), Fraction(17, 12))
        assert pairs[2] == (Fraction(2, 3), Fraction(1, 3))
        prod = complex(1.0)
        for u, v in pairs:
            mv = gamma_pair(u, v)
            assert mv.order == 0
            prod *= mv.value
        want = float(
            mpmath.gamma("0.75")
            * mpmath.gamma(mpmath.mpf(-5) / 12)
            * mpmath.gamma(mpmath.mpf(2) / 3)
            / (
                mpmath.gamma("0.25")
                * mpmath.gamma(mpmath.mpf(17) / 12)
                * mpmath.gamma(mpmath.mpf(1) / 3)
            )
        )
        assert abs(prod.imag) <= 1e-12 * abs(prod)
        assert abs(prod.real - want) <= 1e-12 * abs(want)
        assert abs(prod) > 0

    def test_lambda_powers(self):
        p1 = RnmParams(alpha=Fraction(-3, 5), n=1, beta=Fraction(-7, 10), m=0, lam=2.0)
        p2 = RnmParams(alpha=Fraction(-3, 5), n=1, beta=Fraction(-7, 10), m=0, lam=1.0)
        a, b = rnm_closed_form(p1), rnm_closed_form(p2)
        assert a.order == b.order == 0
        # prefactor scales by lam^(-alpha'-1) * lam^(-alpha-1) for real lam
        scale = 2.0 ** (-(-3 / 5 + 1) - 1) * 2.0 ** (-(-3 / 5) - 1)
        assert abs(a.value - b.value * scale) <= 1e-12 * abs(a.value)

    def test_exact_conversion_of_alpha_and_beta(self):
        p = RnmParams(alpha=0.1, n=0, beta="-1/3", m=0)
        assert p.alpha == Fraction(0.1) and p.beta == Fraction(-1, 3)
        assert RnmParams(alpha=-2, n=0, beta=Fraction(1, 2), m=0).alpha == Fraction(-2)

    @pytest.mark.parametrize(
        "kw",
        [dict(alpha=0.5 + 1j, beta=Fraction(-1, 3)), dict(alpha=Fraction(-1, 3), beta=0.5 + 0j)],
        ids=["alpha", "beta"],
    )
    def test_complex_alpha_or_beta_rejected(self, kw):
        with pytest.raises(TypeError):
            RnmParams(n=0, m=0, **kw)

    def test_zero_lambda_rejected(self):
        with pytest.raises(DomainError):
            RnmParams(alpha=Fraction(1, 2), n=0, beta=Fraction(1, 2), m=0, lam=0)

    def test_gamma_recomputed(self):
        p = RnmParams(alpha=Fraction(-3, 5), n=2, beta=Fraction(-7, 10), m=-1, lam=1.0)
        assert p.gamma == -p.alpha - p.beta - p.n - p.m - 2
        assert p.alpha_prime == p.alpha + 2
        assert p.beta_prime == p.beta - 1


def mp_kernel(alpha, n, beta, m, lam=1):
    """The closed form in mpmath at 40 digits."""
    a = mpmath.mpf(alpha.numerator) / alpha.denominator
    b = mpmath.mpf(beta.numerator) / beta.denominator
    g = -a - b - n - m - 2
    lam = mpmath.mpc(lam)
    return (
        -2j * mpmath.pi
        * lam ** (-a - n - 1) * mpmath.conj(lam) ** (-a - 1)
        * mpmath.gamma(a + 1) / mpmath.gamma(-a - n)
        * mpmath.gamma(b + 1) / mpmath.gamma(-b - m)
        * mpmath.gamma(g + 1) / mpmath.gamma(-g - n - m)
    )


class TestRnmLogSpace:
    """Pair coefficients far outside double range whose product is not."""

    @pytest.mark.parametrize("alpha,n,beta,m", [
        (Fraction(-1, 4), 300, Fraction(-1, 3), 0),     # a pair overflows
        (Fraction(-1, 20), -196, Fraction(-5, 6), 152),  # a pair underflows
    ])
    def test_finite_products_match_mpmath(self, alpha, n, beta, m):
        mv = rnm_closed_form(RnmParams(alpha=alpha, n=n, beta=beta, m=m))
        want = complex(mp_kernel(alpha, n, beta, m))
        assert mv.order == 0 and mv.value != 0
        assert abs(mv.value - want) <= 1e-9 * abs(want)

    def test_sweep_against_mpmath(self):
        """|n|, |m| up to 10^3: a value within 1e-9 of mpmath exactly when
        mpmath's lies in the normal double range, DomainError otherwise."""
        lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
        grid = (-1000, -617, -300, -170, -37, 0, 41, 170, 300, 733, 1000)
        outside = 0
        for alpha, beta, lam in ((Fraction(-1, 4), Fraction(-1, 3), 1.0),
                                 (Fraction(-3, 7), Fraction(-5, 11), 1.5)):
            for n in grid:
                for m in grid:
                    want = mp_kernel(alpha, n, beta, m, lam)
                    log_want = float(mpmath.log(abs(want)))
                    p = RnmParams(alpha=alpha, n=n, beta=beta, m=m, lam=lam)
                    if lo <= log_want <= hi:
                        got = rnm_closed_form(p).value
                        assert abs(got - complex(want)) <= 1e-9 * abs(want), (n, m)
                    else:
                        outside += 1
                        with pytest.raises(DomainError, match="double range"):
                            rnm_closed_form(p)
        assert outside > 0


class TestExactReduction:
    """The kernel from exact rising products: within 1e-14 of mpmath, an
    exactly imaginary value for real lambda, and a bound on the integers."""

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.tuples(st.integers(-99, 99), st.integers(2, 30)),
        b=st.tuples(st.integers(-99, 99), st.integers(2, 30)),
        n=st.integers(-1000, 1000),
        m=st.integers(-1000, 1000),
        lam=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    )
    def test_kernel_against_mpmath(self, a, b, n, m, lam):
        alpha, beta = Fraction(*a), Fraction(*b)
        # integral alpha, beta or gamma puts a pole among mpmath's Gammas
        assume(1 not in {alpha.denominator, beta.denominator, (alpha + beta).denominator})
        with mpmath.workdps(50):
            want = mp_kernel(alpha, n, beta, m, lam)
            p = RnmParams(alpha=alpha, n=n, beta=beta, m=m, lam=lam)
            if not sys.float_info.min <= abs(want) <= sys.float_info.max:
                with pytest.raises(DomainError, match="outside the double range"):
                    rnm_closed_form(p)
                return
            got = rnm_closed_form(p).value
            assert abs(mpmath.mpc(got) - want) <= 1e-14 * abs(want), (got, want)
        assert got.real == 0.0 and math.copysign(1.0, got.real) == 1.0

    @pytest.mark.parametrize("lam", [1.0, 0.5, -2.0, -1.5])
    def test_real_lambda_gives_a_positive_zero_real_part(self, lam, capsys):
        for n in (-3, 0, 1, 2, 300):
            value = rnm_closed_form(RnmParams(Fraction(-1, 4), n, Fraction(-1, 3), 0, lam)).value
            assert value.real == 0.0 and math.copysign(1.0, value.real) == 1.0
            assert main(["residue", "--alpha", "-1/4", "--n", str(n), "--beta", "-1/3",
                         "--m", "0", f"--lambda={lam}"]) == 0
            assert capsys.readouterr().out.splitlines()[1].startswith("value 0.000000000000e+00")

    # alpha with a 1000-bit denominator and m = n: the slowest input shape
    # per counted bit among those tried
    ALPHA = Fraction(-1, 10**300 + 1)

    def _at_bound(self, n):
        return [f"--alpha={self.ALPHA}", "--n", str(n), "--beta", "-1/3", "--m", str(n)]

    def _counted_bits(self, n):
        """The documented count for _at_bound(n) at lambda = 1: per Gamma
        argument w, c * (bits of w's denominator + bits of c) with c = -w at a
        pole and |floor(w) - 1| elsewhere, plus 2 |k| for the power k of
        1 = 1/1, k = ceil(-2 alpha - n - 2)."""
        p = RnmParams(self.ALPHA, n, Fraction(-1, 3), n)
        bits = 2 * abs(math.ceil(-2 * p.alpha - n - 2))
        for _, u, v in p.pairs():
            for w in (u, v):
                c = -int(w) if w.denominator == 1 and w <= 0 else abs(math.floor(w) - 1)
                bits += c * (w.denominator.bit_length() + c.bit_length())
        return bits

    def _largest_n_within_bound(self):
        n = max(n for n in range(1000) if self._counted_bits(n) <= errors.MAX_BITS)
        assert self._counted_bits(n + 1) > errors.MAX_BITS
        return n

    def test_input_over_the_bound_exits_2_at_once(self, capsys):
        n = self._largest_n_within_bound()
        t0 = time.perf_counter()
        assert main(["residue", *self._at_bound(n + 1), "--format", "json"]) == 2
        assert time.perf_counter() - t0 <= 0.1
        reason = capsys.readouterr().out
        assert f"over the bound of {errors.MAX_BITS}" in reason

    def test_input_at_the_bound_finishes_within_half_a_second(self, capsys):
        # the README states 0.5 s for the most expensive accepted input
        n = self._largest_n_within_bound()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            code = main(["residue", *self._at_bound(n), "--format", "json"])
            times.append(time.perf_counter() - t0)
            # the integers are built: the value is then too small for a double
            assert code == 2 and "outside the double range" in capsys.readouterr().out
        assert min(times) <= 0.5


class TestSymmetry:
    def test_reference_cases(self):
        cases = [
            RnmParams(alpha=Fraction(-3, 5), n=1, beta=Fraction(-7, 10), m=0, lam=1.0),
            RnmParams(alpha=Fraction(-3, 5), n=0, beta=Fraction(-7, 10), m=0, lam=1.0),
            RnmParams(alpha=Fraction(-1, 3), n=-2, beta=Fraction(-5, 4), m=1, lam=2.0),
        ]
        for p in cases:
            assert symmetry_check(p)

    def test_identity_swap_is_exact(self):
        p = RnmParams(alpha=Fraction(-2, 3), n=0, beta=Fraction(-2, 3), m=0, lam=1.0)
        assert symmetry_check(p)

    def test_grid(self):
        pool = [Fraction(-3, 5), Fraction(-7, 10), Fraction(-5, 4), Fraction(1, 3)]
        for alpha in pool:
            for beta in pool:
                for n in (-2, 0, 1):
                    for m in (-1, 0, 2):
                        for lam in (1.0, 2.0, 0.5):
                            p = RnmParams(alpha=alpha, n=n, beta=beta, m=m, lam=lam)
                            assert symmetry_check(p), (alpha, n, beta, m, lam)

    def test_complex_lambda(self):
        p = RnmParams(alpha=Fraction(-3, 5), n=1, beta=Fraction(-7, 10), m=1, lam=1 + 1j)
        assert symmetry_check(p)


class TestCorpusVanishing:
    def test_simplicity_at_candidates(self, small_corpus_numerics):
        # at every surviving candidate the three pairs built from
        # (eps1, eps2, e_i sigma) with n = m = 0 are all finite nonzero
        checked = 0
        for bn in small_corpus_numerics:
            for i in range(1, bn.g + 1):
                for nu in range(60):
                    cand = candidate_pole(bn, i, nu)
                    if cand.status is not PoleStatus.POLE_CANDIDATE:
                        continue
                    for t in (cand.eps1, cand.eps2, cand.eps3):
                        mv = gamma_pair(t + 1, -t)
                        assert mv.order == 0, (bn.cs, i, nu, t)
                    checked += 1
        assert checked > 200

    def test_deadend_vanishing(self, small_corpus_numerics):
        # dead-end integrality forces eps1 integral and the shifted pair
        # (eps1+1+k, -eps1-k-n) has a Gamma zero for every admissible k
        checked = 0
        for bn in small_corpus_numerics[:20]:
            for i in range(1, bn.g + 1):
                for nu in range(200):
                    cand = candidate_pole(bn, i, nu)
                    if cand.status is not PoleStatus.EXCLUDED_DEADEND:
                        continue
                    eps1 = cand.eps1
                    assert eps1.denominator == 1
                    for u in (1, 2, 3, 4):
                        k = u - 1 - eps1
                        assert k >= 0 and k.denominator == 1
                        assert Fraction(u) >= Fraction(1, bn.nn[i])
                        for n in (0, 1, 2, 3):
                            mv = gamma_pair(Fraction(u), -eps1 - k - n)
                            assert mv.order == -1, (bn.cs, i, nu, u, n)
                            assert mv.value == 0
                    checked += 1
        assert checked > 50

    def test_double_cancellation(self, small_corpus_numerics):
        # both integrality conditions: one pole pair is dominated by two
        # zero pairs, total order <= -1; built from e_i*(sigma - 1)
        checked = 0
        for bn in small_corpus_numerics[:20]:
            for i in range(1, bn.g + 1):
                for nu in range(200):
                    cand = candidate_pole(bn, i, nu)
                    if cand.status is not PoleStatus.EXCLUDED_BOTH:
                        continue
                    beta = bn.e[i] * (cand.sigma - 1)
                    assert beta.denominator == 1 and beta <= -2
                    p = RnmParams(alpha=0, n=0, beta=beta, m=0, lam=1.0)
                    mv = rnm_closed_form(p)
                    orders = [o for (_, o) in mv.reason]
                    assert sorted(orders) == [-1, -1, 1]
                    assert mv.order == -1
                    assert mv.value == 0
                    checked += 1
        assert checked > 10


class TestHypergeom:
    def test_telescoping_case(self):
        partial, closed, relerr = hypergeom_sum_at_1(1, 1, 3, 10**4)
        assert abs(closed - 1.0) <= 1e-12
        # partial sum is exactly 1 - 1/(K+1) by telescoping
        assert abs(partial - (1 - 1 / 10001)) <= 1e-12
        assert abs(relerr - 1 / 10001) <= 1e-9

    def test_half_half_two(self):
        partial, closed, relerr = hypergeom_sum_at_1(
            Fraction(1, 2), Fraction(1, 2), 2, 10**4
        )
        # closed = G(1/2)^2 G(1) / G(3/2)^2 = pi/(pi/4) = 4
        assert abs(closed - 4.0) <= 1e-12
        assert relerr <= 1e-3

    def test_third_twothirds_two(self):
        partial, closed, relerr = hypergeom_sum_at_1(
            Fraction(1, 3), Fraction(2, 3), 2, 10**4
        )
        want = float(
            mpmath.gamma(mpmath.mpf(1) / 3)
            * mpmath.gamma(mpmath.mpf(2) / 3)
            / (mpmath.gamma(mpmath.mpf(5) / 3) * mpmath.gamma(mpmath.mpf(4) / 3))
        )
        assert abs(closed - want) <= 1e-12 * abs(want)
        assert relerr <= 1e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hypergeom_sum_at_1(2, 3, 2, 100)  # c - a - b = -3
        with pytest.raises(DomainError):
            hypergeom_sum_at_1(1, 1, -1, 100)  # c non-positive integer
        with pytest.raises(DomainError):
            hypergeom_sum_at_1(0, 1, 3, 100)  # a non-positive integer
        with pytest.raises(DomainError):
            hypergeom_sum_at_1(1, 1, 3, 0)  # no terms

    def test_partial_matches_direct_float_sum(self):
        a, b, c = Fraction(1, 2), Fraction(1, 2), Fraction(2)
        partial, _, _ = hypergeom_sum_at_1(a, b, c, 50)
        direct = 0.0
        for k in range(50):
            direct += float(
                mpmath.gamma(a + k) * mpmath.gamma(b + k) / (mpmath.gamma(c + k) * mpmath.factorial(k))
            )
        assert abs(partial - direct) <= 1e-12 * abs(direct)


    def test_partial_sum_holds_no_term_list(self):
        tracemalloc.start()
        try:
            hypergeom_sum_at_1(Fraction(1, 2), Fraction(1, 2), 2, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("a,b,c", [(Fraction(1, 2), Fraction(1, 2), 2),
                                       (Fraction(1, 3), Fraction(2, 3), 2), (1, 1, 3)])
    def test_partial_equals_list_based_fsum(self, a, b, c):
        partial, closed, _ = hypergeom_sum_at_1(a, b, c, 10**4)
        af, bf, cf = float(a), float(b), float(c)
        # the same terms, held in a list: Gamma(a)Gamma(b)/Gamma(c), then the recurrence
        first = gammaratio._pair_ladders([(Fraction(a), Fraction(c)), (Fraction(b), 1)])[1]
        terms = list(accumulate(
            range(10**4 - 1), lambda t, k: t * (af + k) * (bf + k) / ((cf + k) * (k + 1.0)),
            initial=first))
        assert len(terms) == 10**4
        assert partial == math.fsum(terms)


class TestMeromorphicValue:
    def test_invariants(self):
        with pytest.raises(AssertionError):
            MeromorphicValue(order=1, value=1.0, reason=())
        with pytest.raises(AssertionError):
            MeromorphicValue(order=-1, value=2.0, reason=())
