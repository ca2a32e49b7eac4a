"""Resolution-combinatorics tests.

Oracles: exhaustive search over bounded Bezout tuples, set-partition
enumeration for Bell polynomials, and the former loop forms of linear_forms,
bell_polynomial and BranchNumerics.nprod.  The linear-form identities
(weight defect vs chart orders, and their constrained extrema) are checked
exactly on bounded exponent enumerations.
"""

import itertools
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from branchzeta.branch import CharSeq, derive_numerics, random_charseq
from branchzeta.errors import IndexOutOfRange, InvalidIndices
from branchzeta.toric import bell_polynomial, divisor_numerics, linear_forms, toric_steps


def bezout_oracle(n, q):
    """All (a, b, c, d) >= 0 with the three step identities and a < n.

    The identities force d <= q and c <= n, so the box search is complete.
    """
    found = []
    for a in range(n):
        for b in range(q + 1):
            for c in range(n + 1):
                for d in range(q + 1):
                    if (
                        n * b - q * a == 1
                        and q * c - n * d == 1
                        and a * q + d * n == n * q - 1
                    ):
                        found.append((a, b, c, d))
    return found


class TestToricSteps:
    def test_example_4_9(self):
        (s,) = toric_steps(derive_numerics(CharSeq(4, (9,))))
        assert (s.n, s.q, s.a, s.b, s.c, s.d) == (4, 9, 3, 7, 1, 2)

    def test_example_4_6_7(self):
        s1, s2 = toric_steps(derive_numerics(CharSeq(4, (6, 7))))
        assert (s1.n, s1.q, s1.a, s1.b, s1.c, s1.d) == (2, 3, 1, 2, 1, 1)
        assert (s2.n, s2.q, s2.a, s2.b, s2.c, s2.d) == (2, 1, 1, 1, 1, 0)

    def test_example_cusp(self):
        (s,) = toric_steps(derive_numerics(CharSeq(2, (3,))))
        assert (s.n, s.q, s.a, s.b, s.c, s.d) == (2, 3, 1, 2, 1, 1)

    def test_unique_against_exhaustive_search(self, small_corpus_numerics):
        for bn in small_corpus_numerics:
            for step in toric_steps(bn):
                assert bezout_oracle(step.n, step.q) == [(step.a, step.b, step.c, step.d)]


class TestDivisorNumerics:
    def test_example_4_9(self):
        (d,) = divisor_numerics(derive_numerics(CharSeq(4, (9,))))
        assert (d.N_rupture, d.k_rupture_plus1, d.N_deadend, d.k_deadend_plus1) == (36, 13, 9, 4)

    def test_example_4_6_7(self):
        d1, d2 = divisor_numerics(derive_numerics(CharSeq(4, (6, 7))))
        assert (d1.N_rupture, d1.k_rupture_plus1, d1.N_deadend, d1.k_deadend_plus1) == (12, 5, 6, 3)
        assert (d2.N_rupture, d2.k_rupture_plus1, d2.N_deadend, d2.k_deadend_plus1) == (26, 11, 13, 6)

    def test_example_cusp(self):
        (d,) = divisor_numerics(derive_numerics(CharSeq(2, (3,))))
        assert (d.N_rupture, d.k_rupture_plus1, d.N_deadend, d.k_deadend_plus1) == (6, 5, 3, 3)

    def test_rupture_is_multiple_of_deadend(self, small_corpus_numerics):
        for bn in small_corpus_numerics:
            for d in divisor_numerics(bn):
                assert d.N_rupture == bn.nn[d.i] * d.N_deadend


class TestLinearForms:
    def test_example_4_9(self):
        bn = derive_numerics(CharSeq(4, (9,)))
        assert linear_forms(bn, 1, 1, (5, 2)) == (2, 2, 1)
        assert linear_forms(bn, 1, 1, (9, 0)) == (0, 0, 1)

    def test_reference_monomial_has_zero_defect(self, small_corpus_numerics):
        from branchzeta.branch import canonical_representation

        for bn in small_corpus_numerics[:15]:
            for j in range(1, bn.g + 1):
                ks = list(canonical_representation(bn, bn.nn[j] * bn.gens[j])[: j + 1])
                ks[j] = 0
                rho, _, _ = linear_forms(bn, j, j, ks)
                assert rho == 0

    def test_index_errors(self):
        bn = derive_numerics(CharSeq(4, (6, 7)))
        with pytest.raises(IndexOutOfRange):
            linear_forms(bn, 0, 1, (1, 1))
        with pytest.raises(IndexOutOfRange):
            linear_forms(bn, 2, 1, (1, 1))
        with pytest.raises(IndexOutOfRange):
            linear_forms(bn, 1, 3, (1, 1, 1, 1))
        with pytest.raises(IndexOutOfRange):
            linear_forms(bn, 1, 2, (1, 1))  # wrong length
        with pytest.raises(IndexOutOfRange):
            linear_forms(bn, 1, 1, (1, -1))


def enumerate_forms(bn, i, j, max_entry=3):
    for ks in itertools.product(range(max_entry + 1), repeat=j + 1):
        yield ks, linear_forms(bn, i, j, ks)


class TestLinearFormIdentities:
    def test_total_transform_identity(self, small_corpus_numerics):
        """A + C + cross terms = rho + n_{i+1}...n_j, exactly."""
        for bn in small_corpus_numerics[:20]:
            for i in range(1, bn.g + 1):
                for j in range(i, bn.g + 1):
                    for ks, (rho, a, c) in enumerate_forms(bn, i, j):
                        cross = sum(
                            bn.nprod(i + 1, l - 1) * ks[l] for l in range(i + 1, j + 1)
                        )
                        assert a + c + cross == rho + bn.nprod(i + 1, j)

    def test_substitution_identities_and_extrema(self, small_corpus_numerics):
        """On each slice rho = nu: the two chart orders are affine in nu with
        the Bezout slopes, and the four extremal bounds hold."""
        for bn in small_corpus_numerics[:12]:
            steps = toric_steps(bn)
            for i in range(1, bn.g + 1):
                st = steps[i - 1]
                dd = st.c * bn.nn[i - 1] * bn.mbar[i - 1] + st.d
                aa = st.a * bn.nn[i - 1] * bn.mbar[i - 1] + st.b
                for j in range(i, bn.g + 1):
                    slices = {}
                    for ks, (rho, a, c) in enumerate_forms(bn, i, j):
                        # chart order A is (a_i/n_i)nu + k_i/n_i on the slice
                        assert Fraction(a) == Fraction(st.a, st.n) * rho + Fraction(ks[i], st.n)
                        low = sum(
                            bn.nprod(l + 1, i - 1) * bn.mbar[l] * ks[l] for l in range(i)
                        )
                        assert Fraction(c) == (
                            Fraction(dd, bn.mbar[i]) * rho + Fraction(low, bn.mbar[i])
                        )
                        if 0 <= rho <= 40:
                            slices.setdefault(rho, []).append((a, c))
                    tail = bn.nprod(i + 1, j)
                    for nu, pairs in slices.items():
                        amin = min(p[0] for p in pairs)
                        amax = max(p[0] for p in pairs)
                        cmin = min(p[1] for p in pairs)
                        cmax = max(p[1] for p in pairs)
                        assert amin >= Fraction(st.a, st.n) * nu
                        assert cmin >= Fraction(dd, bn.mbar[i]) * nu
                        assert amax <= Fraction(aa, bn.mbar[i]) * nu + tail
                        assert cmax <= Fraction(st.c, st.n) * nu + tail


def set_partitions(items, k):
    """Oracle: all partitions of the list into exactly k nonempty blocks."""
    if not items:
        if k == 0:
            yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, k - 1):
        yield [[first]] + part
    for part in set_partitions(rest, k):
        for idx in range(len(part)):
            yield part[:idx] + [part[idx] + [first]] + part[idx + 1 :]


def bell_oracle(nu, k, xs):
    """Sum over set partitions of {1..nu} into k blocks of prod x_{|block|}."""
    total = Fraction(0)
    for part in set_partitions(list(range(nu)), k):
        term = Fraction(1)
        for block in part:
            term *= Fraction(xs[len(block) - 1])
        total += term
    return total


class TestBellPolynomial:
    def test_examples(self):
        assert bell_polynomial(3, 2, (1, 1)) == 3
        assert bell_polynomial(4, 4, (2,)) == 16
        assert bell_polynomial(4, 2, (1, 1, 1)) == 7

    def test_against_set_partition_oracle(self):
        xs_pool = [Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3, 5), Fraction(5), Fraction(1, 7), Fraction(-4)]
        for nu in range(1, 8):
            for k in range(1, nu + 1):
                xs = xs_pool[: nu - k + 1]
                assert bell_polynomial(nu, k, xs) == bell_oracle(nu, k, xs)

    def test_recurrence(self):
        """B_{nu,k} = sum_j C(nu-1, j-1) x_j B_{nu-j,k-1}, exact on nu <= 8."""
        xs_full = [Fraction(p, 3) for p in (2, -1, 5, 7, 1, -4, 9, 11)]

        def bell(nu, k):
            if k == 0:
                return Fraction(1) if nu == 0 else Fraction(0)
            if k > nu:
                return Fraction(0)
            return bell_polynomial(nu, k, xs_full[: nu - k + 1])

        for nu in range(1, 9):
            for k in range(1, nu + 1):
                rhs = sum(
                    comb(nu - 1, j - 1) * xs_full[j - 1] * bell(nu - j, k - 1)
                    for j in range(1, nu - k + 2)
                )
                assert bell(nu, k) == rhs

    def test_invalid_indices(self):
        with pytest.raises(InvalidIndices):
            bell_polynomial(0, 0, ())
        with pytest.raises(InvalidIndices):
            bell_polynomial(3, 4, (1,))
        with pytest.raises(InvalidIndices):
            bell_polynomial(3, 2, (1, 1, 1))  # wrong arity


def _nprod(bn, lo, hi):
    return math.prod(bn.nn[lo:hi + 1])


def linear_forms_oracle(bn, i, j, ks):
    """The three forms term by term from the Bezout data of step i."""
    step = bn.steps[i - 1]
    mbar_i = bn.mbar[i]
    dd = step.c * bn.nn[i - 1] * bn.mbar[i - 1] + step.d
    aa = step.a * bn.nn[i - 1] * bn.mbar[i - 1] + step.b

    rho = -mbar_i * _nprod(bn, i, j)
    for l in range(0, i + 1):
        rho += _nprod(bn, l + 1, i) * bn.mbar[l] * ks[l]
    for l in range(i + 1, j + 1):
        rho += bn.nn[i] * mbar_i * _nprod(bn, i + 1, l - 1) * ks[l]

    a_form = aa * ks[i] - step.a * mbar_i * _nprod(bn, i + 1, j)
    for l in range(0, i):
        a_form += step.a * _nprod(bn, l + 1, i - 1) * bn.mbar[l] * ks[l]
    for l in range(i + 1, j + 1):
        a_form += step.a * mbar_i * _nprod(bn, i + 1, l - 1) * ks[l]

    c_form = dd * ks[i] - dd * _nprod(bn, i, j)
    for l in range(0, i):
        c_form += step.c * _nprod(bn, l + 1, i - 1) * bn.mbar[l] * ks[l]
    for l in range(i + 1, j + 1):
        c_form += bn.nn[i] * dd * _nprod(bn, i + 1, l - 1) * ks[l]

    return rho, a_form, c_form


def bell_sum_oracle(nu, k, xs):
    """nu!/(j_1! ... j_w!) * prod (x_l / l!)^{j_l} summed over all j with
    sum j_l = k and sum l*j_l = nu, index vector by index vector."""
    xs = [Fraction(x) for x in xs]
    width = nu - k + 1
    f = math.factorial

    def rec(l, jsum, lsum, term):
        if l > width:
            return term if jsum == k and lsum == nu else Fraction(0)
        total = Fraction(0)
        for j in range(min(k - jsum, (nu - lsum) // l) + 1):
            piece = term * (xs[l - 1] / f(l)) ** j / f(j)
            total += rec(l + 1, jsum + j, lsum + l * j, piece)
        return total

    return rec(1, 0, 0, Fraction(1)) * f(nu)


class TestAgainstLoopForms:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_linear_forms(self, seed, data):
        bn = derive_numerics(random_charseq(random.Random(seed), max_n=36, max_beta=1000))
        for i in range(1, bn.g + 1):
            for j in range(i, bn.g + 1):
                ks = data.draw(st.lists(st.integers(0, 10**6), min_size=j + 1, max_size=j + 1))
                assert linear_forms(bn, i, j, ks) == linear_forms_oracle(bn, i, j, ks)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32))
    def test_bell_polynomial(self, seed):
        # rationals drawn from a seed, which shrinks in a few steps
        rng = random.Random(seed)
        xs = [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(12)]
        for nu in range(1, 13):
            for k in range(1, nu + 1):
                args = xs[: nu - k + 1]
                assert bell_polynomial(nu, k, args) == bell_sum_oracle(nu, k, args)

    def test_nprod(self, corpus_numerics):
        for bn in corpus_numerics:
            for lo in range(bn.g + 2):
                for hi in range(bn.g + 1):
                    assert bn.nprod(lo, hi) == _nprod(bn, lo, hi), (bn.cs, lo, hi)
