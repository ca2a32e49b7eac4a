"""The law table behind verify (branchzeta.checks): every combinatorics row
passes on random characteristic sequences; a ladder with a wrong
coefficient is caught by the Ladder.row identity; the suite builds no
Fraction per candidate; and the rnm symmetry rows and
gammaratio.symmetry_check read one comparison, symmetry_relerr."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import branchzeta.gammaratio as gammaratio
import branchzeta.poles as poles
from branchzeta import checks
from branchzeta.branch import random_charseq
from branchzeta.gammaratio import MeromorphicValue, RnmParams

LAWS = ("pi-total", "pi-vs-yano", "lct-min-pole", "sigma-relation", "integrality-deadend",
        "integrality-previous", "conductor-eq-milnor", "eigenvalue-count")


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_combinatorics_rows_pass_on_random_branches(seed):
    cs = random_charseq(random.Random(seed), max_n=12, max_beta=150)
    rows = list(checks.combinatorics_rows([cs]))
    text = poles.branch_report(cs).input_text
    assert [case for case, *_ in rows] == [f"{law}({text})" for law in LAWS]
    for case, expected, got, relerr, ok in rows:
        assert ok and expected == got and relerr == 0.0, case


@pytest.mark.parametrize("field", ["c2", "D"])
@pytest.mark.parametrize("text", ["4,9", "6,9,22"])
def test_ladder_off_by_one_fires_the_row_identity(monkeypatch, field, text):
    rep = poles.branch_report(text)
    bad = tuple(lad._replace(**{field: getattr(lad, field) + 1}) for lad in rep.bn.ladders)
    monkeypatch.setattr(poles, "branch_report",
                        lambda *args, **kwargs: rep._replace(bn=rep.bn._replace(ladders=bad)))
    with pytest.raises(AssertionError):
        list(checks.combinatorics_rows([text]))


def fractions_built(text: str) -> int:
    """The number of Fractions made while the combinatorics rows of text are
    made, every row passing."""
    made = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counted)
        rows = list(checks.combinatorics_rows([text]))
    assert all(ok for *_, ok in rows)
    return made


def test_no_fraction_per_candidate():
    # 62 candidates against 602 on one ladder each
    assert 0 < fractions_built("2,31") == fractions_built("2,301")


def test_symmetry_relerr_on_orders_and_values():
    pole, zero = MeromorphicValue(1, None, ()), MeromorphicValue(-1, 0j, ())
    assert gammaratio.symmetry_relerr(pole, pole) == gammaratio.symmetry_relerr(zero, zero) == 0.0
    assert gammaratio.symmetry_relerr(pole, zero) == float("inf")
    assert gammaratio.symmetry_relerr(MeromorphicValue(0, 2j, ()), pole) == float("inf")
    assert gammaratio.symmetry_relerr(MeromorphicValue(0, 4j, ()),
                                      MeromorphicValue(0, 3j, ())) == 0.25


def test_symmetry_rows_and_check_read_one_comparison(monkeypatch):
    p = RnmParams(*checks.SYMMETRY_CASES[0])
    assert gammaratio.symmetry_check(p)
    monkeypatch.setattr(gammaratio, "symmetry_relerr", lambda a, b: float("inf"))
    assert not gammaratio.symmetry_check(p)
    # the rnm rows at the largest quadrature tolerance, to keep this quick
    rows = [r for r in checks.rnm_rows(1.0, 1e-2) if r[0].startswith("symmetry(")]
    assert len(rows) == len(checks.SYMMETRY_CASES)
    assert not any(ok for *_, ok in rows)
