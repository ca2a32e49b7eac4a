"""The candidate rows as text, one Ladder.row call and one _ratio call per
field, and the TSV lines of those rows through one template for every row:
the oracle of branchzeta.cli._candidate_cells, which steps each ladder once
through Ladder.rows and which every analyze format reads, TSV lines, JSON
candidate records and text candidate lines alike.
"""

from branchzeta.cli import _ratio
from branchzeta.poles import PoleStatus

STATUS = tuple(PoleStatus)  # by code: dead end excludes + 2 * previous level excludes


def candidate_rows(rep):
    """(i, nu, sigma, eps1, eps2, eps3, status) of every candidate, the
    rationals as text made straight from the integer ladders."""
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        nm = lad.n * lad.mbar
        for nu in range(hi):
            t, e1, e2, code = lad.row(nu)
            yield (lad.i, nu, _ratio(-t, lad.N), _ratio(e1, lad.n),
                   _ratio(e2, lad.mbar), _ratio(-t, nm), STATUS[code].value)


def tsv_lines(rep):
    """The TSV line of every candidate, each row of candidate_rows formatted
    by one template."""
    return map("%d\t%d\t%s\t%s\t%s\t%s\t%s".__mod__, candidate_rows(rep))
