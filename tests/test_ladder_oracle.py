"""The integer ladder core against the Fraction oracle (fraction_oracle.py):
every candidate field and status, the Pi multisets, Yano's multiset, the
eigenvalue classes and the resonances, over random characteristic
sequences, some with an extended ladder; and the divisor data and lct read
off the ladders against their closed forms."""

import random
from dataclasses import astuple

from hypothesis import given, settings, strategies as st

import fraction_oracle as oracle
from branchzeta.branch import parse_input, random_charseq
from branchzeta.poles import (branch_report, candidate_pole, log_canonical_threshold,
                              residue_numbers)
from branchzeta.toric import divisor_numerics


@st.composite
def draws(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    cs = random_charseq(rng, max_n=12, max_beta=150)
    nu_max = draw(st.none() | st.integers(min_value=0, max_value=400))
    return cs, nu_max


def as_tuple(c):
    return (c.i, c.nu, c.sigma, c.eps1, c.eps2, c.eps3, c.status.value)


@given(draws())
@settings(max_examples=40, deadline=None)
def test_report_matches_fraction_oracle(draw):
    cs, nu_max = draw
    rep = branch_report(cs, nu_max=nu_max)
    bn = rep.bn
    assert parse_input(rep.input_text) == cs

    want = oracle.candidates(bn, nu_max)
    assert [as_tuple(c) for c in rep.candidates] == want

    sets, merged = oracle.pi_multisets(bn)
    assert [ms.entries for ms in rep.pi_sets] == sets
    assert [list(ms.entries.items()) for ms in rep.pi_sets] == [sorted(s.items()) for s in sets]
    assert list(rep.pi_merged.entries.items()) == sorted(merged.items())
    assert list(rep.yano.entries.items()) == sorted(merged.items())

    distinct, classes = oracle.eigenvalue_analysis(merged)
    assert rep.eigenvalues.distinct == distinct
    assert rep.eigenvalues.classes == classes
    assert rep.verdict == ("proved-distinct" if distinct else "conjectural-generic")

    got_res = [
        (r.sigma, tuple((i, nu, s.value) for i, nu, s in r.occurrences))
        for r in rep.resonances
    ]
    assert got_res == oracle.resonances(want)


@given(draws(), st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_single_candidates_far_out(draw, nus):
    cs, _ = draw
    bn = branch_report(cs).bn
    for i in range(1, bn.g + 1):
        for nu in nus:
            assert as_tuple(candidate_pole(bn, i, nu)) == oracle.candidate_pole(bn, i, nu)
            assert residue_numbers(bn, i, nu) == oracle.residue_numbers(bn, i, nu)


@given(draws())
@settings(max_examples=60, deadline=None)
def test_divisor_data_and_lct_match_closed_forms(draw):
    cs, _ = draw
    rep = branch_report(cs)
    bn = rep.bn
    want = oracle.divisor_numerics(bn)
    assert [astuple(d) for d in divisor_numerics(bn)] == want
    assert [astuple(d) for d in rep.divisors] == want
    assert log_canonical_threshold(bn) == rep.lct == oracle.log_canonical_threshold(bn)
