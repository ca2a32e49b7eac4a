"""The integer ladder core against the Fraction oracle (fraction_oracle.py):
every candidate field and status, the Pi multisets, Yano's multiset, the
eigenvalue classes and the resonances, over random characteristic
sequences, some with an extended ladder, all over one denominator; the
resonances against the count of every numerator that found them before
(fraction_oracle.py), on g = 1 to 3 and ladders short and extended; Yano's
divisor form against his series expanded from the characteristic
sequence, up to n = 36 and g >= 3, and each dead end's block against the
multiples of n_i in its rupture period; the divisor data (the ladders' dead
ends too) and lct read off the ladders against their closed forms; the
cells of _candidate_cells, the one loop that steps a ladder, against the
stepping generator and the two-generator loop it replaced and against one
row at a time, the closed-form Ladder.row against the stepped rows, and
the candidates that analyze writes from the cells in every format (TSV
lines, JSON records, text lines) against those rows formatted as text
(all in row_oracle.py), and on those rows the laws the cells read: the
gcd identity gcd(t, n mbar) = gcd(eps1 numerator, n) gcd(eps2 numerator,
mbar), the slope a mbar + D n + 1 = n mbar that carries the row identity
from row 0 to every row, and the exclusion code read off that gcd;
the JSON exponent sections, which share Pi's records, and the text Pi and
Yano lines, made from the counts, against sections built one by one
(fraction_oracle.py); exponent-multiset equality on integers against
equality of Fraction-keyed dicts; and the eigenvalue classes and both
derivations of distinctness on multisets with many shared fractional
parts."""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import branchzeta.cli
import branchzeta.poles
import fraction_oracle as oracle
import row_oracle
from branchzeta.branch import parse_input, random_charseq
from branchzeta.cli import _candidate_cells, canonical_json, main, report_to_dict
from branchzeta.poles import (ExponentMultiset, branch_report, candidate_pole,
                              eigenvalue_analysis, eigenvalues_distinct, log_canonical_threshold,
                              yano_multiset)
from branchzeta.toric import divisor_numerics


@st.composite
def draws(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    cs = random_charseq(rng, max_n=12, max_beta=150)
    nu_max = draw(st.none() | st.integers(min_value=0, max_value=400))
    return cs, nu_max


def as_tuple(c):
    return (*c[:-1], c.status.value)


@given(draws())
@settings(max_examples=40, deadline=None)
def test_report_matches_fraction_oracle(draw):
    cs, nu_max = draw
    rep = branch_report(cs, nu_max=nu_max)
    bn = rep.bn
    assert parse_input(rep.input_text) == cs

    want = oracle.candidates(bn, nu_max)
    assert [as_tuple(candidate_pole(bn, i, nu))
            for i, hi in enumerate(rep.ladder_lengths, start=1) for nu in range(hi)] == want

    sets, merged = oracle.pi_multisets(bn)
    assert [ms.entries for ms in rep.pi_sets] == sets
    assert [list(ms.entries.items()) for ms in rep.pi_sets] == [sorted(s.items()) for s in sets]
    assert list(rep.pi_merged.entries.items()) == sorted(merged.items())
    assert list(rep.yano.entries.items()) == sorted(merged.items())
    # one denominator behind every multiset of the report
    assert {ms.den for ms in (*rep.pi_sets, rep.pi_merged, rep.yano, rep.eigenvalues)} == {bn.den}

    distinct, classes = oracle.eigenvalue_analysis(merged)
    assert rep.distinct == distinct
    assert oracle.classes_of(rep.eigenvalues, rep.pi_merged) == classes
    assert rep.verdict == ("proved-distinct" if distinct else "conjectural-generic")

    got_res = [
        (r.sigma, tuple((i, nu, s.value) for i, nu, s in r.occurrences))
        for r in rep.resonances
    ]
    assert got_res == oracle.resonances(want)


@st.composite
def resonance_draws(draw):
    """A random_charseq draw (max_n 12), semigroup:4,6,b or 12,18,20,23
    (g = 3), with nu_max None, 0, 1 to 50, or above every N_i."""
    spec = draw(st.sampled_from(["charseq", "semigroup", "12,18,20,23"]))
    if spec == "charseq":
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
        spec = random_charseq(rng, max_n=12, max_beta=150)
    elif spec == "semigroup":
        spec = f"semigroup:4,6,{2 * draw(st.integers(min_value=6, max_value=60)) + 1}"
    top = max(lad.N for lad in branch_report(spec).bn.ladders)
    nu_max = draw(st.none() | st.just(0) | st.integers(min_value=1, max_value=50)
                  | st.integers(min_value=top, max_value=2 * top))
    return spec, nu_max


@given(resonance_draws())
@settings(max_examples=60, deadline=None)
def test_resonances_match_the_counted_oracle(draw):
    """The resonances read off the pairs of ladders are those that a count of
    every numerator finds, for every g (g = 1 has none, with no test of g)."""
    rep = branch_report(*draw)
    assert rep.resonances == oracle.counted_resonances(rep.bn, rep.ladder_lengths)
    assert rep.bn.g > 1 or rep.resonances == ()


@given(draws(), st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_single_candidates_far_out(draw, nus):
    cs, _ = draw
    bn = branch_report(cs).bn
    for i in range(1, bn.g + 1):
        for nu in nus:
            cand = candidate_pole(bn, i, nu)
            assert as_tuple(cand) == oracle.candidate_pole(bn, i, nu)
            assert (cand.eps1, cand.eps2) == oracle.residue_numbers(bn, i, nu)


@given(draws())
@settings(max_examples=60, deadline=None)
def test_divisor_data_and_lct_match_closed_forms(draw):
    cs, _ = draw
    rep = branch_report(cs)
    bn = rep.bn
    want = oracle.divisor_numerics(bn)
    assert [tuple(d) for d in divisor_numerics(bn)] == want
    assert [tuple(d) for d in rep.divisors] == want
    assert [(lad.i, lad.N, lad.r, *lad.dead_end) for lad in bn.ladders] == want
    assert log_canonical_threshold(bn) == rep.lct == oracle.log_canonical_threshold(bn)


@st.composite
def deep_draws(draw):
    """Characteristic sequences with n <= max_n <= 36, and g >= 3 on half of
    the draws."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    max_n, deep = draw(st.integers(min_value=8, max_value=36)), draw(st.booleans())
    while True:
        cs = random_charseq(rng, max_n=max_n, max_beta=400)
        if cs.g >= 3 or not deep:
            return cs


@given(deep_draws())
@settings(max_examples=60, deadline=None)
def test_yano_divisor_form_matches_yano_definition(cs):
    # each ladder's period less its multiples of n_i, less the first dead end,
    # against Yano's series expanded from the characteristic sequence
    bn = branch_report(cs).bn
    assert list(yano_multiset(bn).entries.items()) == list(oracle.yano_multiset(bn).items())


@given(deep_draws())
@settings(max_examples=60, deadline=None)
def test_dead_end_block_is_the_multiples_of_n_in_the_period(cs):
    # the law yano_multiset reads: the dead end (betabar_i, k) subtracts
    # (k + j)/betabar_i = (k + j) n_i/N_i, j < betabar_i, which are the
    # multiples of n_i in the rupture period [r_i, r_i + N_i)
    for lad in branch_report(cs).bn.ladders:
        betabar, k = lad.dead_end
        assert [(k + j) * lad.n for j in range(betabar)] == [
            t for t in range(lad.r, lad.r + lad.N) if t % lad.n == 0]


FORMATS = ("tsv", "json", "text")
FIELDS = ("i", "nu", "sigma", "eps1", "eps2", "eps3", "status")


def written(text: str, nu_max, fmt: str) -> str:
    """The stdout of `analyze text --format fmt`, with --nu-max where nu_max is set."""
    argv = ["analyze", text, "--format", fmt]
    if nu_max is not None:
        argv += ["--nu-max", str(nu_max)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc == 0
    return out.getvalue()


def written_candidates(text: str, nu_max, fmt: str) -> list:
    """The candidates that analyze writes: its TSV lines, its JSON
    `candidates` records or its text candidate lines."""
    out = written(text, nu_max, fmt)
    if fmt == "json":
        return json.loads(out)["candidates"]
    lines = out.splitlines()
    if fmt == "tsv":
        return lines[1:]
    start = next(j for j, line in enumerate(lines) if line.startswith("candidates (")) + 1
    return lines[start:next(j for j, line in enumerate(lines) if line.startswith("pi ("))]


def oracle_candidates(rep, fmt: str) -> list:
    """The candidates of written_candidates, made from the row oracle."""
    if fmt == "tsv":
        return list(row_oracle.tsv_lines(rep))
    rows = row_oracle.candidate_rows(rep)
    if fmt == "json":
        return [dict(zip(FIELDS, row)) for row in rows]
    return ["  %12s %12s %12s %12s %12s %12s  %s" % row for row in rows]


@given(draws())
@settings(max_examples=40, deadline=None)
def test_candidate_rows_match_row_oracle(draw):
    # the cells joined into rows, then the JSON records and text lines of them
    cs, nu_max = draw
    rep = branch_report(cs, nu_max=nu_max)
    got = [(i, nu, f"{s}{s_den}", f"{e1}{e1_den}", f"{e2}{e2_den}", f"{e3}{e3_den}", status)
           for i, nu, s, s_den, e1, e1_den, e2, e2_den, e3, e3_den, status
           in _candidate_cells(rep)]
    assert got == list(row_oracle.candidate_rows(rep))
    assert got == [(i, nu, *map(str, rest))
                   for i, nu, *rest in oracle.candidates(rep.bn, nu_max)]
    for fmt in ("json", "text"):
        assert written_candidates(rep.input_text, nu_max, fmt) == oracle_candidates(rep, fmt)


@given(draws())
@settings(max_examples=60, deadline=None)
def test_tsv_lines_match_row_oracle(draw):
    # max_n = 12 keeps g at most 3
    cs, nu_max = draw
    rep = branch_report(cs, nu_max=nu_max)
    assert rep.bn.g <= 3
    assert written_candidates(rep.input_text, nu_max, "tsv") == oracle_candidates(rep, "tsv")


@pytest.mark.parametrize("nu_max", [None, 0, 37, 1000])
@pytest.mark.parametrize("text", ["semigroup:2,3", "semigroup:2,301", "semigroup:2,4001",
                                  "semigroup:4,6,13", "semigroup:4,6,301",
                                  "semigroup:4,6,1501"])
def test_tsv_lines_of_semigroup_forms_match_row_oracle(text, nu_max):
    rep = branch_report(text, nu_max=nu_max)
    assert written_candidates(text, nu_max, "tsv") == oracle_candidates(rep, "tsv")


def built_but_candidates(text: str, nu_max=None):
    """The report of text with every section an analyze format reads built,
    but the candidates."""
    rep = branch_report(text, nu_max=nu_max)
    for name in ("ladder_lengths", "divisors", "lct", "pi_sets", "yano", "eigenvalues",
                 "distinct", "resonances"):
        getattr(rep, name)
    return rep


@pytest.mark.parametrize("fmt", FORMATS)
def test_candidate_outputs_step_ladder_rows_and_build_no_fraction(fmt, monkeypatch):
    # every format writes one candidate per row of _candidate_cells
    rep = built_but_candidates("semigroup:4,6,301", nu_max=50)
    stepped, cells = [], branchzeta.cli._candidate_cells

    def counted(rep):
        for row in cells(rep):
            stepped.append(row)
            yield row

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("a Fraction built while writing the candidates")

    monkeypatch.setattr(branchzeta.poles, "branch_report", lambda *args, **kwargs: rep)
    monkeypatch.setattr(branchzeta.cli, "_candidate_cells", counted)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(no_fraction))
    candidates = written_candidates(rep.input_text, 50, fmt)
    monkeypatch.undo()
    assert len(candidates) == len(stepped) == sum(rep.ladder_lengths)


@pytest.mark.parametrize("field", ["c2", "D"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_candidate_outputs_check_the_row_identity(fmt, field, monkeypatch):
    # every candidate of every format comes out of Ladder.rows, whose
    # identity check fires on a broken ladder
    rep = built_but_candidates("4,6,7")
    bad = tuple(lad._replace(**{field: getattr(lad, field) + 1}) for lad in rep.bn.ladders)
    broken = rep._replace(bn=rep.bn._replace(ladders=bad))
    # the other sections as built on the intact ladders, so the check that
    # fires is the candidate loop's own and not one made by a later section
    broken.__dict__.update(rep.__dict__)
    monkeypatch.setattr(branchzeta.poles, "branch_report", lambda *args, **kwargs: broken)
    with pytest.raises(AssertionError), contextlib.redirect_stdout(io.StringIO()):
        main(["analyze", "4,6,7", "--format", fmt])


@st.composite
def cell_draws(draw):
    """A report and its nu_max: random_charseq draws with max_n = 12 (g up to
    3, so ladders with e_i > 1 and e_i = 1), or the forms 2,b, semigroup:2,b
    and semigroup:4,6,b; nu_max None, 0, small or above every N_i."""
    form = draw(st.sampled_from(["random", "2,{}", "semigroup:2,{}", "semigroup:4,6,{}"]))
    if form == "random":
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
        spec = random_charseq(rng, max_n=12, max_beta=150)
    else:
        spec = form.format(2 * draw(st.integers(min_value=7, max_value=600)) + 1)
    top = max(lad.N for lad in branch_report(spec).bn.ladders)
    nu_max = draw(st.none() | st.just(0) | st.integers(min_value=1, max_value=12)
                  | st.integers(min_value=top, max_value=top + 50))
    return branch_report(spec, nu_max=nu_max)


@given(cell_draws())
@settings(max_examples=80, deadline=None)
def test_candidate_cells_match_stepping_oracle(rep):
    assert list(_candidate_cells(rep)) == list(row_oracle.candidate_cells(rep))


@given(draws(), st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_stepped_rows_equal_single_rows(draw, lo, width):
    # the closed-form Ladder.row against the stepped oracle, nu up to 10^6
    cs, _ = draw
    for lad in branch_report(cs).bn.ladders:
        assert list(row_oracle.rows(lad, lo, lo + width)) == [lad.row(nu)
                                                              for nu in range(lo, lo + width)]


@given(draws())
@settings(max_examples=60, deadline=None)
def test_gcd_of_t_and_n_mbar_is_the_product_of_the_eps_gcds(draw):
    # the row identity gives e1 mbar = t mod n and e2 n = t mod mbar, and n,
    # mbar are coprime, so gcd(t, n mbar) = gcd(e1, n) gcd(e2, mbar), which
    # _candidate_cells reads for eps3, and for sigma where e_i = 1 (N = n mbar).
    # It checks the identity once a ladder, on its slope: its left side moves
    # by a mbar + D n + 1 - n mbar a row.  h = g1 g2 fixes g1 = gcd(h, n) and
    # g2 = gcd(h, mbar), so the status it reads off h is the exclusion code
    cs, nu_max = draw
    rep = branch_report(cs, nu_max=nu_max)
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        nm = lad.n * lad.mbar
        assert gcd(lad.n, lad.mbar) == 1 and (lad.N == nm) == (lad.e == 1)
        assert lad.a * lad.mbar + lad.D * lad.n + 1 == nm
        for t, e1, e2, code in row_oracle.rows(lad, 0, hi):
            h = gcd(e1, lad.n) * gcd(e2, lad.mbar)
            assert gcd(t, nm) == h
            assert code == (gcd(h, lad.n) == lad.n) + 2 * (gcd(h, lad.mbar) == lad.mbar)
            if lad.e == 1:
                assert gcd(t, lad.N) == h


@pytest.mark.parametrize("text", ["2,3", "4,9", "4,6,7", "6,9,22"])
@pytest.mark.parametrize("field,first_bad", [("c2", 0), ("D", 1)])
def test_identity_check_fires_on_every_row(text, field, first_bad):
    # c2 shifts eps2 on every row, breaking row 0; D shifts it from nu = 1
    # on, breaking the slope.  Ladder.row fails on each shifted row, and
    # _candidate_cells, which checks row 0 and the slope once a ladder, yields
    # every row of the ladders before the broken one, then fails before its
    # first row
    rep = branch_report(text)
    ladders, lengths = rep.bn.ladders, rep.ladder_lengths
    want = list(row_oracle.candidate_cells(rep))
    for j, lad in enumerate(ladders):
        bad = lad._replace(**{field: getattr(lad, field) + 1})
        assert [bad.row(nu) for nu in range(first_bad)] == [lad.row(nu) for nu in range(first_bad)]
        for nu in range(first_bad, first_bad + 5):
            with pytest.raises(AssertionError):
                bad.row(nu)
        broken = rep._replace(bn=rep.bn._replace(ladders=(*ladders[:j], bad, *ladders[j + 1:])))
        cells = _candidate_cells(broken)
        written = [next(cells) for _ in range(sum(lengths[:j]))]
        assert written == want[:len(written)]
        with pytest.raises(AssertionError):
            next(cells)


SECTIONS = ("pi", "pi_levels", "yano", "eigenvalues")


def written_sections(rep) -> dict:
    """The exponent sections of the report's JSON, read back from its text."""
    d = json.loads(canonical_json(report_to_dict(rep)))
    return {key: d[key] for key in SECTIONS}


@st.composite
def wide_draws(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    return random_charseq(rng, max_n=16, max_beta=120), draw(st.none() | st.just(40))


@given(wide_draws())
@settings(max_examples=60, deadline=None)
def test_exponent_sections_match_oracle(draw):
    cs, nu_max = draw
    rep = branch_report(cs, nu_max=nu_max)
    assert written_sections(rep) == oracle.exponent_sections(rep)


@pytest.mark.parametrize("nu_max", [None, 40])
@pytest.mark.parametrize("text,largest_class,largest_mult", [
    ("10,26,91", 2, 2),  # an eigenvalue class of two exponents
    ("6,45,85", 1, 2),  # an exponent of multiplicity 2, every class a single exponent
])
def test_non_distinct_branches_match_oracle(text, largest_class, largest_mult, nu_max):
    rep = branch_report(text, nu_max=nu_max)
    assert rep.verdict == "conjectural-generic"
    analysis = eigenvalue_analysis(rep.pi_merged)
    got = oracle.classes_of(analysis, rep.pi_merged)
    assert max(len(items) for _, items in got) == largest_class
    assert max(m for _, items in got for _, m in items) == largest_mult
    den = rep.pi_merged.den
    merged = {Fraction(k, den): m for k, m in rep.pi_merged.counts.items()}
    distinct, classes = oracle.eigenvalue_analysis(merged)
    assert not distinct and not rep.distinct
    assert got == classes
    assert rep.eigenvalues == analysis
    assert written_sections(rep) == oracle.exponent_sections(rep)


def moved_yano(bn):
    """Yano's multiset with one exponent moved onto a value that is not in Pi."""
    ms = yano_multiset(bn)
    counts = dict(ms.counts)
    counts.pop(min(counts))
    counts[next(k for k in range(1, ms.den) if k not in counts)] = 1
    return ExponentMultiset(ms.den, counts)


@given(wide_draws(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_text_pi_and_yano_lines_match_oracle(draw, move):
    cs, nu_max = draw
    rep = branch_report(cs, nu_max=nu_max)
    yano = moved_yano(rep.bn) if move else rep.yano
    assert (yano == rep.pi_merged) == (not move)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(branchzeta.poles, "yano_multiset", lambda bn: yano)
        lines = written(rep.input_text, nu_max, "text").splitlines()
    pi_at = next(j for j, line in enumerate(lines) if line.startswith("pi ("))
    yano_at = lines.index("yano:")
    end = next(j for j, line in enumerate(lines) if line.startswith("eigenvalues distinct:"))
    assert lines[pi_at] == f"pi ({rep.bn.milnor} exponents with multiplicity):"
    for got, ms in ((lines[pi_at + 1:yano_at], rep.pi_merged), (lines[yano_at + 1:end], yano)):
        assert got == ["  %(exponent)12s x%(multiplicity)d" % record
                       for record in oracle.exponent_records(ms)]


@st.composite
def multiset_pairs(draw):
    """Two multisets over their own denominators; half of the draws hold the
    same rationals, the second over a multiple of the first's denominator."""
    den = draw(st.integers(min_value=1, max_value=60))
    counts = draw(st.dictionaries(st.integers(-3 * den, 3 * den), st.integers(1, 3), max_size=6))
    a = ExponentMultiset(den, counts)
    if draw(st.booleans()):
        scale = draw(st.integers(min_value=1, max_value=5))
        b_den, b_counts = den * scale, {k * scale: m for k, m in counts.items()}
        if b_counts and draw(st.booleans()):  # move one exponent or change its multiplicity
            k = draw(st.sampled_from(sorted(b_counts)))
            if draw(st.booleans()):
                b_counts[k + 1] = b_counts.pop(k)
            else:
                b_counts[k] += 1
    else:
        b_den = draw(st.integers(min_value=1, max_value=60))
        b_counts = draw(st.dictionaries(st.integers(-3 * b_den, 3 * b_den), st.integers(1, 3),
                                        max_size=6))
    return a, ExponentMultiset(b_den, b_counts)


@given(multiset_pairs())
@settings(max_examples=400, deadline=None)
def test_multiset_equality_matches_fraction_oracle(pair):
    a, b = pair
    assert (a == b) == (b == a) == oracle.multisets_equal(a, b)


@given(st.integers(min_value=1, max_value=12).flatmap(lambda den: st.builds(
    ExponentMultiset, st.just(den),
    st.dictionaries(st.integers(-3 * den, 3 * den), st.integers(1, 2), max_size=8))))
@settings(max_examples=400, deadline=None)
def test_eigenvalue_classes_and_distinctness_match_oracle(pi):
    # distinctness from one pass over Pi, and as read off the classes: both
    # must agree with the oracle
    got = oracle.classes_of(eigenvalue_analysis(pi), pi)
    distinct, classes = oracle.eigenvalue_analysis(
        {Fraction(k, pi.den): m for k, m in pi.counts.items()})
    listed = all(len(items) == 1 and items[0][1] == 1 for _, items in got)
    assert eigenvalues_distinct(pi) == listed == distinct
    assert got == classes
