"""Branch-core tests: gcd chain, semigroup generators, conductor, membership.

The oracle for everything conductor-related is a brute-force closure of the
numerical semigroup as a plain set of integers; no formula from the library
is reused on the oracle side.
"""

import contextlib
import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import branchzeta.branch
import branchzeta.cli
import branchzeta.poles
from branchzeta.branch import (
    CharSeq,
    PlaneSemigroup,
    canonical_representation,
    charseq_from_semigroup,
    derive_numerics,
    gaps,
    membership,
    random_charseq,
    validate_plane_semigroup,
)
from branchzeta.errors import InvalidCharSeq, NotInSemigroup, NotPlaneBranchSemigroup


def closure_set(gens, bound):
    """Oracle: all semigroup elements <= bound, by breadth-first closure."""
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for gv in gens:
            w = v + gv
            if w <= bound and w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def oracle_conductor(gens, limit):
    """Oracle: least c such that every integer in [c, limit] is a member."""
    members = closure_set(gens, limit)
    c = limit + 1
    for v in range(limit, -1, -1):
        if v in members:
            c = v
        else:
            break
    return c


class TestDeriveNumerics:
    def test_example_4_9(self):
        bn = derive_numerics(CharSeq(4, (9,)))
        assert bn.gens == (4, 9)
        assert bn.e == (4, 1)
        assert bn.nn == (0, 4)
        assert bn.mm == (0, 9)
        assert bn.qq == (0, 9)
        assert bn.mbar == (1, 9)
        assert (bn.conductor, bn.milnor) == (24, 24)

    def test_example_cusp(self):
        bn = derive_numerics(CharSeq(2, (3,)))
        assert bn.gens == (2, 3)
        assert (bn.conductor, bn.milnor) == (2, 2)

    def test_example_4_6_7(self):
        bn = derive_numerics(CharSeq(4, (6, 7)))
        assert bn.gens == (4, 6, 13)
        assert bn.e == (4, 2, 1)
        assert bn.nn == (0, 2, 2)
        assert bn.mm == (0, 3, 7)
        assert bn.qq == (0, 3, 1)
        assert bn.mbar == (1, 3, 13)
        assert bn.milnor == 16

    def test_conductor_against_bruteforce(self, small_corpus_numerics):
        for bn in small_corpus_numerics:
            limit = bn.conductor + 2 * bn.n
            assert oracle_conductor(bn.gens, limit) == bn.conductor

    def test_gap_count_is_half_conductor(self, small_corpus_numerics):
        for bn in small_corpus_numerics:
            assert bn.conductor % 2 == 0
            members = closure_set(bn.gens, bn.conductor)
            missing = [v for v in range(bn.conductor) if v not in members]
            assert len(missing) == bn.conductor // 2
            assert gaps(bn) == tuple(missing)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidCharSeq):
            CharSeq(4, (8,))  # e0 divides beta1
        with pytest.raises(InvalidCharSeq):
            CharSeq(4, (3,))  # not increasing
        with pytest.raises(InvalidCharSeq):
            CharSeq(1, (2,))  # n too small
        with pytest.raises(InvalidCharSeq):
            CharSeq(4, ())  # g = 0 rejected
        with pytest.raises(InvalidCharSeq):
            CharSeq(6, (8,))  # chain ends at gcd 2
        with pytest.raises(InvalidCharSeq):
            CharSeq(4, (6, 8))  # e1 = 2 divides beta2


class TestSemigroupValidation:
    def test_4_9_passes(self):
        report = validate_plane_semigroup([4, 9])
        assert report.ok
        names = [c.name for c in report.conditions]
        assert "gcd-one" in names and "membership-1" in names

    def test_4_6_13_passes_with_witness(self):
        report = validate_plane_semigroup([4, 6, 13])
        assert report.ok
        member2 = next(c for c in report.conditions if c.name == "membership-2")
        k = member2.witness
        assert sum(ki * gi for ki, gi in zip(k, (4, 6))) == 26

    def test_4_6_11_fails_growth(self):
        report = validate_plane_semigroup([4, 6, 11])
        assert not report.ok
        bad = report.first_failure()
        assert bad.name == "growth-1"

    def test_redundant_generator_fails_minimality(self):
        # 37 = 4*7 + 9 lies in <4,9>, so <4,9,37> passes the membership and
        # growth checks but is not a minimal generator tuple.
        report = validate_plane_semigroup([4, 9, 37])
        assert not report.ok
        assert report.first_failure().name == "strict-divisibility"

    def test_gcd_failure(self):
        report = validate_plane_semigroup([4, 6])
        assert not report.ok
        assert report.first_failure().name == "gcd-one"

    def test_constructor_raises(self):
        with pytest.raises(NotPlaneBranchSemigroup):
            PlaneSemigroup((4, 6, 11))


class TestCharseqFromSemigroup:
    def test_round_trip_g1(self):
        assert charseq_from_semigroup(PlaneSemigroup((4, 9))) == CharSeq(4, (9,))

    def test_4_6_13(self):
        assert charseq_from_semigroup(PlaneSemigroup((4, 6, 13))) == CharSeq(4, (6, 7))

    def test_6_9_31(self):
        # n_1 = gcd-chain quotient 2, so beta_2 = 31 - 2*9 + 9 = 22.
        assert charseq_from_semigroup(PlaneSemigroup((6, 9, 31))) == CharSeq(6, (9, 22))

    def test_round_trip_corpus(self, corpus):
        for cs in corpus:
            gens = derive_numerics(cs).gens
            assert charseq_from_semigroup(PlaneSemigroup(gens)) == cs


def counted_derivations(monkeypatch) -> list:
    """Every call to derive_numerics, counted by a wrapper in each module that holds it."""
    calls, original = [], branchzeta.branch.derive_numerics

    def counted(cs):
        calls.append(cs)
        return original(cs)

    for module in (branchzeta.branch, branchzeta.poles, branchzeta.cli):
        if getattr(module, "derive_numerics", None) is original:
            monkeypatch.setattr(module, "derive_numerics", counted)
    return calls


class TestResolveInput:
    @pytest.mark.parametrize("text", ["semigroup:4,6,13", "4,6,7", "semigroup:2,301"])
    def test_report_derives_once(self, text, monkeypatch):
        calls = counted_derivations(monkeypatch)
        rep = branchzeta.poles.branch_report(text)
        assert calls == [rep.bn.cs]

    @pytest.mark.parametrize("text", ["semigroup:4,6,13", "4,6,7"])
    def test_generate_derives_once(self, text, monkeypatch):
        calls = counted_derivations(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert branchzeta.cli.main(["generate", text]) == 0
        assert calls == [CharSeq(4, (6, 7))]

    def test_round_trip_mismatch_raises(self, monkeypatch):
        # an inversion whose numerics give other generators is refused
        monkeypatch.setattr(branchzeta.branch, "charseq_from_semigroup",
                            lambda sg: CharSeq(4, (6, 9)))
        with pytest.raises(NotPlaneBranchSemigroup, match="round trip failed"):
            branchzeta.poles.branch_report("semigroup:4,6,13")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert branchzeta.cli.main(["analyze", "semigroup:4,6,13"]) == 2
        assert err.getvalue() == "invalid input semigroup:4,6,13\n"


class TestMembership:
    def test_examples(self):
        assert membership((4, 9), 11) == (False, None)
        ok, rep = membership((4, 9), 0)
        assert ok and rep == (0, 0)
        ok, rep = membership((4, 6, 13), 25)
        assert ok
        assert sum(k * gv for k, gv in zip(rep, (4, 6, 13))) == 25

    def test_against_closure(self):
        gens = (5, 7, 9)
        members = closure_set(gens, 60)
        for s in range(61):
            ok, rep = membership(gens, s)
            assert ok == (s in members)
            if ok:
                assert sum(k * gv for k, gv in zip(rep, gens)) == s


class TestCanonicalRepresentation:
    def test_examples(self):
        assert canonical_representation(derive_numerics(CharSeq(4, (9,))), 36) == (9, 0)
        bn = derive_numerics(CharSeq(4, (6, 7)))
        assert canonical_representation(bn, 26) == (5, 1, 0)
        assert canonical_representation(derive_numerics(CharSeq(2, (3,))), 6) == (3, 0)

    def test_not_in_semigroup(self):
        bn = derive_numerics(CharSeq(4, (9,)))
        for s in (1, 2, 3, 5, 11, 23):
            with pytest.raises(NotInSemigroup):
                canonical_representation(bn, s)

    def test_unique_by_exhaustion(self, small_corpus_numerics):
        """Exactly one representation with k_l < n_l exists per member."""
        for bn in small_corpus_numerics[:12]:
            c = bn.conductor
            members = closure_set(bn.gens, c + bn.n)
            for s in range(c + bn.n + 1):
                found = []
                ranges = [range(0, (s // bn.n) + 1)] + [
                    range(0, bn.nn[l]) for l in range(1, bn.g + 1)
                ]

                def rec(l, acc, total):
                    if total > s:
                        return
                    if l > bn.g:
                        if total == s:
                            found.append(tuple(acc))
                        return
                    for k in ranges[l]:
                        rec(l + 1, acc + [k], total + k * bn.gens[l])

                rec(0, [], 0)
                if s in members:
                    assert len(found) == 1
                    assert canonical_representation(bn, s) == found[0]
                else:
                    assert not found


@st.composite
def charseq_strategy(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    return random_charseq(rng, max_n=12, max_beta=150)


class TestProperties:
    @given(charseq_strategy())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, cs):
        bn = derive_numerics(cs)
        assert charseq_from_semigroup(PlaneSemigroup(bn.gens)) == cs

    @given(charseq_strategy())
    @settings(max_examples=40, deadline=None)
    def test_coprimality_and_recursions(self, cs):
        bn = derive_numerics(cs)
        for i in range(1, bn.g + 1):
            assert math.gcd(bn.mm[i], bn.nn[i]) == 1
            assert math.gcd(bn.mbar[i], bn.nn[i]) == 1
            assert bn.nn[i] >= 2
        assert bn.gens[1] == bn.betas[0]
        for i in range(2, bn.g + 1):
            assert bn.gens[i] == bn.nn[i - 1] * bn.gens[i - 1] - bn.betas[i - 2] + bn.betas[i - 1]

    @given(charseq_strategy(), st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_canonical(self, cs, s):
        bn = derive_numerics(cs)
        ok, _ = membership(bn.gens, s)
        if ok:
            rep = canonical_representation(bn, s)
            assert sum(k * gv for k, gv in zip(rep, bn.gens)) == s
            assert all(0 <= rep[l] < bn.nn[l] for l in range(1, bn.g + 1))
        else:
            with pytest.raises(NotInSemigroup):
                canonical_representation(bn, s)
