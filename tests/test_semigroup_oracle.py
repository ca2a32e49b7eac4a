"""Apery-set semigroup arithmetic against the dynamic-programming oracle
(semigroup_oracle.py): membership and its witnesses, every line of the
plane-semigroup validation report, and the gaps; plus the time and memory
of validating generators far too large for the oracle."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import semigroup_oracle as oracle
from branchzeta import branch
from branchzeta.branch import (
    PlaneSemigroup,
    derive_numerics,
    gaps,
    membership,
    random_charseq,
    validate_plane_semigroup,
)
from branchzeta.errors import NotPlaneBranchSemigroup

generators = st.lists(st.integers(min_value=1, max_value=39), min_size=1, max_size=4)


@given(generators, st.integers(min_value=-3, max_value=400))
@settings(max_examples=400, deadline=None)
def test_membership_matches_oracle(gens, s):
    ok, rep = membership(gens, s)
    assert ok == oracle.membership(gens, s)[0]
    if ok:
        assert len(rep) == len(gens)
        assert all(k >= 0 for k in rep)
        assert sum(k * g for k, g in zip(rep, gens)) == s
    else:
        assert rep is None


def test_membership_far_beyond_the_generators():
    ok, rep = membership((4, 6), 2 * (10**12 + 1))
    assert ok and rep[1] == 1 and 4 * rep[0] + 6 == 2 * (10**12 + 1)
    assert membership((4, 6), 10**12 + 1) == (False, None)


def report_lines(gens):
    return [(c.name, c.passed, c.detail) for c in validate_plane_semigroup(gens).conditions]


def oracle_report_lines(gens):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branch, "membership", oracle.membership)
        return report_lines(gens)


FAILING_EACH_CONDITION = [
    (1, 3),           # structure: betabar_0 < 2
    (4,),             # structure: g = 0
    (4, 9, 9),        # structure: not strictly increasing
    (4, 6),           # gcd-one
    (2, 4, 6),        # gcd-one and strict-divisibility
    (4, 9, 37),       # strict-divisibility only
    (3, 4, 5),        # membership-2 (with n_2 = 1)
    (10, 12, 13),     # membership-2 with every n_i >= 2, and growth-1
    (4, 6, 11),       # growth-1 only
    (8, 12, 26, 51),  # growth-2 only
]


@pytest.mark.parametrize("gens", FAILING_EACH_CONDITION + [(4, 9), (4, 6, 13), (6, 9, 31)])
def test_report_matches_oracle_report(gens):
    assert report_lines(gens) == oracle_report_lines(gens)


def test_failing_tuples_cover_every_condition():
    failed = {name.split("-")[0] for gens in FAILING_EACH_CONDITION
              for name, passed, _ in report_lines(gens) if not passed}
    assert failed == {"structure", "gcd", "strict", "membership", "growth"}


@given(generators)
@settings(max_examples=200, deadline=None)
def test_random_tuples_report_matches_oracle(gens):
    gens = sorted(gens)
    assert report_lines(gens) == oracle_report_lines(gens)


@st.composite
def charseqs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    return random_charseq(rng, max_n=12, max_beta=400)


@given(charseqs())
@settings(max_examples=150, deadline=None)
def test_gaps_match_oracle(cs):
    bn = derive_numerics(cs)
    assert gaps(bn) == oracle.gaps(bn)


def test_error_carries_the_report():
    with pytest.raises(NotPlaneBranchSemigroup) as info:
        PlaneSemigroup((4, 6, 11))
    assert info.value.conditions == validate_plane_semigroup((4, 6, 11)).conditions
    assert info.value.failed_condition == "growth-1: n_1*betabar_1 = 12 >= betabar_2 = 11"


@pytest.mark.parametrize("gens", [(2, 10**6 + 1), (4, 6, 10**6 + 1)])
def test_large_generator_validation_memory(gens):
    tracemalloc.start()
    try:
        report = validate_plane_semigroup(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1_000_000


def test_huge_generator_validates_quickly():
    t0 = time.perf_counter()
    report = validate_plane_semigroup((2, 10**9 + 1))
    assert time.perf_counter() - t0 < 0.1
    assert report.ok
