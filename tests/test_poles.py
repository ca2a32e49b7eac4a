"""Pole-analysis tests.

Oracles: the exact linear relation between residue numbers, a brute-force
Fraction-based integrality filter for the Pi sets (the library uses integer
divisibility shortcuts), and hand-expanded golden multisets for the smallest
branches.
"""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import branchzeta.poles as poles
import fraction_oracle
from branchzeta.branch import (
    CharSeq,
    PlaneSemigroup,
    derive_numerics,
    parse_input,
    random_charseq,
)
from branchzeta.cli import canonical_json, report_to_dict
from branchzeta.errors import (
    IndexOutOfRange,
    InvalidCharSeq,
    NegativeCoefficient,
    NotPlaneBranchSemigroup,
)
from branchzeta.poles import (
    ExponentMultiset,
    PoleStatus,
    branch_report,
    candidate_pole,
    eigenvalue_analysis,
    eigenvalues_distinct,
    log_canonical_threshold,
    pi_multisets,
    yano_multiset,
)


def oracle_pi(bn):
    """Brute-force filter straight from the definition, using Fractions only."""
    sets = []
    for i in range(1, bn.g + 1):
        r = bn.mm[i] + bn.nprod(1, i)
        big_n = bn.nn[i] * bn.gens[i]
        kept = []
        for nu in range(big_n):
            sigma = Fraction(-(r + nu), big_n)
            dead = (bn.gens[i] * sigma).denominator == 1
            prev = (bn.e[i - 1] * sigma).denominator == 1
            if not dead and not prev:
                kept.append(-sigma)
        sets.append(kept)
    return sets


def residue_numbers(bn, i, nu):
    """(eps1, eps2) of candidate_pole, checked against the Fraction oracle."""
    cand = candidate_pole(bn, i, nu)
    assert (cand.eps1, cand.eps2) == fraction_oracle.residue_numbers(bn, i, nu)
    return cand.eps1, cand.eps2


class TestResidueNumbers:
    def test_example_4_9(self):
        bn = derive_numerics(CharSeq(4, (9,)))
        assert residue_numbers(bn, 1, 2) == (Fraction(-9, 4), Fraction(-4, 3))
        eps1, eps2 = residue_numbers(bn, 1, 0)
        assert (eps1, eps2) == (Fraction(-3, 4), Fraction(-8, 9))
        assert eps1 + 1 == Fraction(1, 4) and eps2 + 1 == Fraction(1, 9)

    def test_example_4_6_7(self):
        bn = derive_numerics(CharSeq(4, (6, 7)))
        eps1, eps2 = residue_numbers(bn, 2, 0)
        assert (eps1, eps2) == (Fraction(-1, 2), Fraction(-14, 13))
        assert eps1 + eps2 + Fraction(-11, 26) + 0 + 2 == 0

    def test_bad_indices(self):
        bn = derive_numerics(CharSeq(4, (9,)))
        with pytest.raises(IndexOutOfRange):
            residue_numbers(bn, 2, 0)
        with pytest.raises(IndexOutOfRange):
            residue_numbers(bn, 1, -1)

    def test_relation_and_integrality_equivalences(self, small_corpus_numerics):
        """eps1 + eps2 + e_i sigma + nu + 2 = 0, and the eps integralities
        match the divisor integralities, for nu < 300."""
        for bn in small_corpus_numerics:
            for i in range(1, bn.g + 1):
                r = bn.mm[i] + bn.nprod(1, i)
                big_n = bn.nn[i] * bn.gens[i]
                for nu in range(300):
                    sigma = Fraction(-(r + nu), big_n)
                    eps1, eps2 = residue_numbers(bn, i, nu)
                    assert eps1 + eps2 + bn.e[i] * sigma + nu + 2 == 0
                    assert (eps1.denominator == 1) == (
                        (bn.gens[i] * sigma).denominator == 1
                    )
                    assert (eps2.denominator == 1) == (
                        (bn.e[i - 1] * sigma).denominator == 1
                    )


class TestCandidatePole:
    def test_example_4_9_nu2(self):
        cand = candidate_pole(derive_numerics(CharSeq(4, (9,))), 1, 2)
        assert cand.sigma == Fraction(-5, 12)
        assert cand.status is PoleStatus.POLE_CANDIDATE
        assert (cand.eps1, cand.eps2) == (Fraction(-9, 4), Fraction(-4, 3))

    def test_example_4_9_nu3_excluded(self):
        cand = candidate_pole(derive_numerics(CharSeq(4, (9,))), 1, 3)
        assert cand.sigma == Fraction(-4, 9)
        assert cand.status is PoleStatus.EXCLUDED_DEADEND

    def test_example_4_6_7_deadend(self):
        cand = candidate_pole(derive_numerics(CharSeq(4, (6, 7))), 2, 1)
        assert cand.sigma == Fraction(-6, 13)
        assert cand.status is PoleStatus.EXCLUDED_DEADEND
        assert cand.eps1 == -1  # integer, as Cor. of the dead-end integrality

    def test_status_matches_definition(self, small_corpus_numerics):
        for bn in small_corpus_numerics[:10]:
            for i in range(1, bn.g + 1):
                for nu in range(0, 60):
                    cand = candidate_pole(bn, i, nu)
                    dead = (bn.gens[i] * cand.sigma).denominator == 1
                    prev = (bn.e[i - 1] * cand.sigma).denominator == 1
                    expected = {
                        (False, False): PoleStatus.POLE_CANDIDATE,
                        (True, False): PoleStatus.EXCLUDED_DEADEND,
                        (False, True): PoleStatus.EXCLUDED_PREVIOUS,
                        (True, True): PoleStatus.EXCLUDED_BOTH,
                    }[(dead, prev)]
                    assert cand.status is expected
                    assert cand.eps3 == bn.e[i] * cand.sigma


class TestPiMultisets:
    def test_cusp(self):
        bn = derive_numerics(CharSeq(2, (3,)))
        sets, merged = pi_multisets(bn)
        assert merged.entries == {Fraction(5, 6): 1, Fraction(7, 6): 1}
        assert merged.total == 2 == bn.milnor

    def test_4_9(self):
        bn = derive_numerics(CharSeq(4, (9,)))
        _, merged = pi_multisets(bn)
        assert merged.total == 36 - 9 - 4 + 1 == 24 == bn.milnor
        assert Fraction(13, 36) in merged.entries
        assert Fraction(5, 12) in merged.entries
        assert Fraction(4, 9) not in merged.entries

    def test_4_6_7(self):
        bn = derive_numerics(CharSeq(4, (6, 7)))
        sets, merged = pi_multisets(bn)
        assert sets[0].entries == {
            Fraction(5, 12): 1,
            Fraction(7, 12): 1,
            Fraction(11, 12): 1,
            Fraction(13, 12): 1,
        }
        expected_pi2 = {
            Fraction(11 + nu, 26): 1
            for nu in range(26)
            if (11 + nu) % 2 == 1 and (11 + nu) % 13 != 0
        }
        assert sets[1].entries == expected_pi2
        assert sets[1].total == 12
        assert merged.total == 16 == bn.milnor

    def test_against_fraction_oracle(self, small_corpus_numerics):
        for bn in small_corpus_numerics[:25]:
            sets, merged = pi_multisets(bn)
            oracle = oracle_pi(bn)
            for got, want in zip(sets, oracle):
                assert got.entries == {v: 1 for v in want}
            assert merged.total == bn.milnor


class TestExponentMultiset:
    def test_add_rescales_and_drops_zeros(self):
        ms = ExponentMultiset()
        ms.add(Fraction(1, 2))
        ms.add(Fraction(1, 3), 2)
        ms.add(1)
        ms.add(Fraction(2, 4), -1)
        assert ms.entries == {Fraction(1, 3): 2, Fraction(1): 1}
        assert list(ms.entries.items()) == [(Fraction(1, 3), 2), (Fraction(1), 1)]
        assert ms.total == 3
        assert ms == ExponentMultiset(3, {1: 2, 3: 1})

    def test_zero_counts_dropped_and_counts_copied(self):
        counts = {1: 2, 5: 0, 7: 1}
        ms = ExponentMultiset(6, counts)
        assert ms.counts == {1: 2, 7: 1} and counts == {1: 2, 5: 0, 7: 1}
        whole = {1: 1, 5: 3}  # no zero: copied, not filtered
        ms = ExponentMultiset(6, whole)
        ms.add(Fraction(1, 6), -1)
        assert ms.counts == {5: 3} and whole == {1: 1, 5: 3} and ms.counts is not whole

    def test_finalize_rejects_negative(self):
        ms = ExponentMultiset(6, {5: 1, 7: -1})
        with pytest.raises(NegativeCoefficient) as info:
            ms.finalize()
        assert info.value.exponent == Fraction(7, 6)


class TestYano:
    def test_cusp_golden(self):
        ms = yano_multiset(derive_numerics(CharSeq(2, (3,))))
        assert ms.entries == {Fraction(5, 6): 1, Fraction(7, 6): 1}

    def test_4_9_closed_description(self):
        ms = yano_multiset(derive_numerics(CharSeq(4, (9,))))
        expected = {
            Fraction(13 + nu, 36): 1
            for nu in range(36)
            if (13 + nu) % 4 != 0 and (13 + nu) % 9 != 0
        }
        assert ms.entries == expected
        assert ms.total == 24

    def test_equals_pi_on_corpus(self, small_corpus_numerics):
        for bn in small_corpus_numerics:
            _, merged = pi_multisets(bn)
            assert yano_multiset(bn).entries == merged.entries

    def test_signed_assembly_reaches_the_multiset_without_zeros(self, monkeypatch):
        # the cancelled keys go from the Counter itself, so the multiset copies it once
        seen = []

        class Spy(poles.ExponentMultiset):
            def __init__(self, den=1, counts=()):
                seen.append((len(counts), 0 in counts.values()))
                super().__init__(den, counts)
                assert len(self.counts) == len(counts)

        monkeypatch.setattr(poles, "ExponentMultiset", Spy)
        for cs in (CharSeq(2, (3,)), CharSeq(6, (9, 22)), CharSeq(4, (6, 7))):
            yano_multiset(derive_numerics(cs))
        assert len(seen) == 3 and not any(zero for _, zero in seen)

    def test_negative_assembly_still_raises(self, monkeypatch):
        # each dead-end block subtracted twice: counts below zero must reach finalize
        class Twice(Counter):
            def subtract(self, keys):
                keys = list(keys)
                super().subtract(keys)
                super().subtract(keys)

        monkeypatch.setattr(poles, "Counter", Twice)
        with pytest.raises(NegativeCoefficient):
            yano_multiset(derive_numerics(CharSeq(2, (3,))))


class TestEigenvaluesAndLct:
    def test_lct_examples(self):
        assert log_canonical_threshold(derive_numerics(CharSeq(4, (9,)))) == Fraction(13, 36)
        assert log_canonical_threshold(derive_numerics(CharSeq(2, (3,)))) == Fraction(5, 6)
        assert log_canonical_threshold(derive_numerics(CharSeq(4, (6, 7)))) == Fraction(5, 12)

    def test_distinct_cases(self):
        for cs in (CharSeq(2, (3,)), CharSeq(4, (6, 7))):
            _, merged = pi_multisets(derive_numerics(cs))
            assert eigenvalues_distinct(merged)
            classes = fraction_oracle.classes_of(eigenvalue_analysis(merged), merged)
            assert all(len(items) == 1 for _, items in classes)

    def test_stress_case_6_8_9(self):
        bn = derive_numerics(CharSeq(6, (8, 9)))
        _, merged = pi_multisets(bn)
        classes = fraction_oracle.classes_of(eigenvalue_analysis(merged), merged)
        # internal consistency: class totals account for every exponent
        assert sum(m for _, items in classes for _, m in items) == bn.milnor
        if eigenvalues_distinct(merged):
            assert all(len(items) == 1 for _, items in classes)

    def test_classes_group_by_fractional_part(self):
        _, merged = pi_multisets(derive_numerics(CharSeq(4, (6, 7))))
        analysis = eigenvalue_analysis(merged)
        # every exponent once, sorted by fractional part (numerators mod den), then by value
        assert sorted(analysis.order) == sorted(merged.counts)
        assert analysis.order == tuple(sorted(merged.counts, key=lambda k: (k % analysis.den, k)))


# Two oracles from closed forms.  The Alexander polynomial of a branch is
# (t-1) prod_{i=1..g} (t^{n_i betabar_i} - 1) / prod_{i=0..g} (t^{betabar_i} - 1),
# whose roots are the monodromy eigenvalues; the lct is the least (k+1)/N over
# the rupture and dead-end divisors of the resolution.
NON_DISTINCT = [CharSeq(6, (21, 35)), CharSeq(6, (33, 55))]


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    return [branch_report(cs) for cs in corpus + NON_DISTINCT]


def alexander_multiplicity(bn, d):
    """Multiplicity of a primitive d-th root of unity as a root of the
    Alexander polynomial."""
    return ((d == 1) + sum(bn.nn[i] * bn.gens[i] % d == 0 for i in range(1, bn.g + 1))
            - sum(b % d == 0 for b in bn.gens))


def divisors_of(k):
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return set(small) | {k // d for d in small}


class TestClosedFormOracles:
    def test_eigenvalue_class_multiplicity(self, corpus_reports):
        for rep in corpus_reports:
            for f, items in fraction_oracle.classes_of(rep.eigenvalues, rep.pi_merged):
                d = f.denominator  # the eigenvalue's order as a root of unity
                assert sum(m for _, m in items) == alexander_multiplicity(rep.bn, d), rep.input_text

    def test_distinct_iff_alexander_roots_simple(self, corpus_reports):
        for rep in corpus_reports:
            bn = rep.bn
            orders = set().union(*(divisors_of(bn.nn[i] * bn.gens[i]) for i in range(1, bn.g + 1)))
            simple = all(alexander_multiplicity(bn, d) <= 1 for d in orders)
            assert rep.distinct == simple, rep.input_text
        assert sum(not rep.distinct for rep in corpus_reports) >= 3

    def test_distinct_matches_the_class_listing(self, corpus_reports):
        # every eigenvalue class a singleton of multiplicity one
        for rep in corpus_reports:
            classes = fraction_oracle.classes_of(rep.eigenvalues, rep.pi_merged)
            listed = all(len(items) == 1 and items[0][1] == 1 for _, items in classes)
            assert rep.distinct == listed, rep.input_text

    def test_lct_is_least_divisor_ratio(self, corpus_reports):
        for rep in corpus_reports:
            assert rep.lct == min(
                min(Fraction(d.k_rupture_plus1, d.N_rupture), Fraction(d.k_deadend_plus1, d.N_deadend))
                for d in rep.divisors
            ), rep.input_text


def ladder_candidates(rep):
    """(i, nu, sigma, eps1, eps2, eps3, status) of candidate_pole at every
    shift of the report's ladder lengths, as the Fraction oracle lists them."""
    return [(c.i, c.nu, c.sigma, c.eps1, c.eps2, c.eps3, c.status.value)
            for i, hi in enumerate(rep.ladder_lengths, start=1)
            for c in (candidate_pole(rep.bn, i, nu) for nu in range(hi))]


class TestBranchReport:
    def test_report_4_9(self):
        rep = branch_report("4,9")
        assert rep.bn.milnor == 24
        assert rep.lct == Fraction(13, 36)
        assert rep.pi_merged.total == 24
        assert rep.verdict in ("proved-distinct", "conjectural-generic")
        assert rep.ladder_lengths == (36,)
        assert ladder_candidates(rep) == fraction_oracle.candidates(rep.bn)
        assert rep.strict_transform_poles == "all negative integers"

    def test_semigroup_input_matches_charseq(self):
        a = branch_report("semigroup:4,6,13")
        b = branch_report("4,6,7")
        assert a.bn == b.bn
        assert a.lct == b.lct
        assert a.pi_merged.entries == b.pi_merged.entries
        assert ladder_candidates(a) == ladder_candidates(b) == fraction_oracle.candidates(b.bn)
        assert a.kind == "semigroup" and b.kind == "charseq"

    def test_resonance_4_6_7(self):
        rep = branch_report("4,6,7")
        res = {r.sigma: r for r in rep.resonances}
        assert Fraction(-1, 2) in res
        assert {occ[0] for occ in res[Fraction(-1, 2)].occurrences} == {1, 2}

    @pytest.mark.parametrize("spec", ["6,9,22", "4,6,7"])
    def test_resonances_peak_under_twice_what_they_keep(self, spec):
        """Reading the resonances of long ladders holds no table of every
        numerator: the peak stays under twice the memory still held after."""
        tracemalloc.start()
        try:
            rep = branch_report(spec, nu_max=100_000)
            res = rep.resonances
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res
        assert peak < 2 * current, (peak, current)

    def test_invalid_inputs_propagate(self):
        with pytest.raises(NotPlaneBranchSemigroup):
            branch_report("semigroup:4,6,11")
        with pytest.raises(InvalidCharSeq):
            branch_report("4,8")
        with pytest.raises(ValueError):
            branch_report("4,,9")
        with pytest.raises(ValueError):
            branch_report("4,x")

    def test_input_text_round_trips(self):
        for spec in (CharSeq(2, (3,)), CharSeq(4, (6, 7)), CharSeq(6, (9, 22)),
                     PlaneSemigroup((4, 6, 13))):
            assert parse_input(branch_report(spec).input_text) == spec
        assert branch_report(CharSeq(2, (3,))).input_text == "2,3"

    def test_nu_max_extension(self):
        rep = branch_report("2,3", nu_max=10)
        cands = ladder_candidates(rep)
        assert len(cands) == 11
        assert cands[-1][1] == 10
        assert cands == fraction_oracle.candidates(rep.bn, nu_max=10)

    SECTIONS = ("ladder_lengths", "divisors", "lct", "pi_sets", "pi_merged",
                "yano", "eigenvalues", "distinct", "verdict", "resonances")

    @given(st.integers(min_value=0, max_value=2**31),
           st.none() | st.integers(min_value=0, max_value=60), st.permutations(SECTIONS))
    @settings(max_examples=40, deadline=None)
    def test_sections_read_in_any_order(self, seed, nu_max, order):
        """Each section is built on first read; the order of the reads
        does not change the report's JSON bytes."""
        cs = random_charseq(random.Random(seed), max_n=8, max_beta=80)
        rep = branch_report(cs, nu_max=nu_max)
        for name in order:
            getattr(rep, name)
        fresh = branch_report(cs, nu_max=nu_max)
        assert canonical_json(report_to_dict(rep)) == canonical_json(report_to_dict(fresh))


@st.composite
def bn_strategy(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    return derive_numerics(random_charseq(rng, max_n=10, max_beta=120))


class TestProperties:
    @given(bn_strategy(), st.integers(min_value=0, max_value=2000))
    @settings(max_examples=50, deadline=None)
    def test_relation_any_nu(self, bn, nu):
        for i in range(1, bn.g + 1):
            cand = candidate_pole(bn, i, nu)
            assert cand.eps1 + cand.eps2 + cand.eps3 + nu + 2 == 0

    @given(bn_strategy())
    @settings(max_examples=25, deadline=None)
    def test_pi_total_and_lct(self, bn):
        _, merged = pi_multisets(bn)
        assert merged.total == bn.milnor
        lct = log_canonical_threshold(bn)
        assert min(merged.entries) == lct
