"""The candidate rows as text, one Ladder.row call and one _ratio call per
field, kept as an oracle for branchzeta.cli._candidate_rows, which steps
each ladder once through Ladder.rows and shares one gcd between sigma and
eps3; and the TSV lines of those rows through one template for every row,
kept as an oracle for branchzeta.cli._candidate_tsv, which formats each row
from the integers through one template per ladder.
"""

from branchzeta.cli import _candidate_rows, _ratio


def candidate_rows(rep):
    """(i, nu, sigma, eps1, eps2, eps3, status) of every candidate, the
    rationals as text made straight from the integer ladders."""
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        nm = lad.n * lad.mbar
        for nu in range(hi):
            t, e1, e2, status = lad.row(nu)
            yield (lad.i, nu, _ratio(-t, lad.N), _ratio(e1, lad.n),
                   _ratio(e2, lad.mbar), _ratio(-t, nm), status.value)


def tsv_lines(rep):
    """The TSV line of every candidate, each row of _candidate_rows formatted
    again by one template."""
    return map("%d\t%d\t%s\t%s\t%s\t%s\t%s".__mod__, _candidate_rows(rep))
