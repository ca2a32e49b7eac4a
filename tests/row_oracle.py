"""Oracles of branchzeta.cli._candidate_cells, the one loop that steps a
ladder, with one frame and two gcds a row where e_i = 1 (eps3 is sigma
there) and three elsewhere, the row identity checked once a ladder on its
slope and each "/d" text and status read off a gcd the row holds, and which
every analyze format reads, TSV lines, JSON candidate records and text
candidate lines alike:

* rows and candidate_cells, the stepping generator that Ladder.rows was and
  the two-generator loop over it that _candidate_cells was, four gcds and
  the row identity checked a row, each text made from its denominator;
* candidate_rows and tsv_lines, the candidate rows as text, one Ladder.row
  call and one str(Fraction) per field, and the TSV lines of those rows
  through one template for every row.

Nothing here reads the text helpers of cli: each denominator text and
each rational is written here, by den_text and str(Fraction).
"""

from fractions import Fraction
from math import gcd

from branchzeta.poles import PoleStatus

STATUS = tuple(PoleStatus)  # by code: dead end excludes + 2 * previous level excludes


def den_text(d):
    """The "/d" text of a denominator d, "" for d = 1."""
    return "" if d == 1 else "/" + str(d)


def rows(lad, start, stop):
    """(t, eps1 numerator, eps2 numerator, code) of lad for start <= nu < stop,
    each numerator stepped by its constant increment, after checking
    e1 mbar + e2 n - t + (nu + 2) n mbar = 0 on every row."""
    n, mbar, a, D = lad.n, lad.mbar, lad.a, lad.D
    nm = n * mbar
    t, e1, e2, w = lad.r + start, 1 - n - a * start, lad.c2 - D * start, (start + 2) * nm
    for _ in range(start, stop):
        assert e1 * mbar + e2 * n - t + w == 0
        yield t, e1, e2, (t % n == 0) + 2 * (t % mbar == 0)
        t += 1
        e1 -= a
        e2 -= D
        w += nm


def candidate_cells(rep):
    """The cells of every candidate from one rows pass per ladder, four gcds a row."""
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        i, N, n, mbar = lad.i, lad.N, lad.n, lad.mbar
        nm = n * mbar
        for nu, (t, e1, e2, code) in enumerate(rows(lad, 0, hi)):
            g, g1, g2, h = gcd(t, N), gcd(e1, n), gcd(e2, mbar), gcd(t, nm)
            yield (i, nu, -t // g, den_text(N // g), e1 // g1, den_text(n // g1),
                   e2 // g2, den_text(mbar // g2), -t // h, den_text(nm // h),
                   STATUS[code].value)


def candidate_rows(rep):
    """(i, nu, sigma, eps1, eps2, eps3, status) of every candidate, the
    rationals as text made straight from the integer ladders."""
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        nm = lad.n * lad.mbar
        for nu in range(hi):
            t, e1, e2, code = lad.row(nu)
            yield (lad.i, nu, str(Fraction(-t, lad.N)), str(Fraction(e1, lad.n)),
                   str(Fraction(e2, lad.mbar)), str(Fraction(-t, nm)), STATUS[code].value)


def tsv_lines(rep):
    """The TSV line of every candidate, each row of candidate_rows formatted
    by one template."""
    return map("%d\t%d\t%s\t%s\t%s\t%s\t%s".__mod__, candidate_rows(rep))
