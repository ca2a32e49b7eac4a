"""The self-checks of `verify`, each law stated once: the case tables and one
generator of rows (case, expected, got, relerr, pass) per suite.  An exact
law passes with relerr 0 and fails with inf; expected and got are values,
which the CLI writes.  The combinatorics laws read the closed-form integer
Ladder.row of each candidate, apart from the CLI's loop, and the report's
integer multisets, with one Fraction per ladder.  The rnm rows integrate
each grid pair once (quadrature.rnm_integral) and write both lambda rows
from it through quadrature.rnm_prefactor.  Like cli, this module
imports no layer at module level: each suite imports the layers it runs and
calls them as module attributes."""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import inf

GRID_PAIRS = ((Fraction(-3, 5), Fraction(-7, 10)), (Fraction(-2, 3), Fraction(-2, 3)),
              (Fraction(-11, 20), Fraction(-19, 20)))

# (alpha, n, beta, m, lam) of each symmetry check
SYMMETRY_CASES = (
    (Fraction(-3, 5), 1, Fraction(-7, 10), 0, 1.0),
    (Fraction(-3, 5), 0, Fraction(-3, 5), 0, 1.0),
    (Fraction(-1, 3), -2, Fraction(-5, 4), 1, 2.0),
)

# (n, alpha, R) of each vanishing integral
VANISHING_CASES = ((1, Fraction(-1, 4), 1.0), (3, Fraction(-3, 4), 2.0), (-1, Fraction(1, 4), 1.5))

COMBINATORIC_CASES = ("2,3", "4,9", "4,6,7", "6,9,22")


def _exact(case: str, expected, got) -> tuple:
    ok = expected == got
    return case, expected, got, 0.0 if ok else inf, ok


def rnm_rows(tol: float, rel_tol: float) -> Iterator[tuple]:
    """Closed form against quadrature on the grid, within tol; symmetry, within 1e-10."""
    from . import gammaratio, quadrature

    cfg = quadrature.QuadConfig(rel_tol=rel_tol)
    for a, b in GRID_PAIRS:
        # one integral a pair: lambda enters the kernel only through its prefactor
        total = quadrature.rnm_integral(gammaratio.RnmParams(alpha=a, n=0, beta=b, m=0), cfg)
        for lam in (1.0, 2.0):
            p = gammaratio.RnmParams(alpha=a, n=0, beta=b, m=0, lam=lam)
            want = gammaratio.rnm_closed_form(p).value
            got = -2j * quadrature.rnm_prefactor(p) * total  # rnm_quadrature(p, cfg), bit for bit
            rel = abs(got - want) / abs(want)
            yield f"rnm(alpha={a},n=0,beta={b},m=0,lambda={lam:g})", want, got, rel, rel <= tol
    for alpha, n, beta, m, lam in SYMMETRY_CASES:
        sides = gammaratio.symmetry_pair(gammaratio.RnmParams(alpha, n, beta, m, lam))
        rel = gammaratio.symmetry_relerr(*sides)
        shown = [s.value if s.order == 0 else f"order={s.order}" for s in sides]
        case = f"symmetry(alpha={alpha},n={n},beta={beta},m={m},lambda={lam:g})"
        yield case, *shown, rel, rel <= 1e-10


def combinatorics_rows(cases=COMBINATORIC_CASES) -> Iterator[tuple]:
    """The paper's laws on each branch of cases (CLI text, CharSeq or
    PlaneSemigroup), named by its input text."""
    from . import branch, poles

    for case in cases:
        rep = poles.branch_report(case)
        bn, text = rep.bn, rep.input_text
        yield _exact(f"pi-total({text})", bn.milnor, rep.pi_merged.total)
        same = rep.pi_merged == poles.yano_multiset(bn)  # Yano's own series, not rep.yano
        yield _exact(f"pi-vs-yano({text})", "equal", "equal" if same else "differ")
        # (t, eps1 numerator, eps2 numerator, dead end excludes + 2 * previous level excludes)
        ladders = [(lad, list(map(lad.row, range(hi))))
                   for lad, hi in zip(bn.ladders, rep.ladder_lengths)]
        # each ladder's least kept pole value t/N comes first in t
        yield _exact(f"lct-min-pole({text})", rep.lct, min(
            Fraction(next(t for t, *_, ex in rows if not ex), lad.N) for lad, rows in ladders))
        # eps1 + eps2 + eps3 + nu + 2 over n mbar, with nu = t - r
        yield _exact(f"sigma-relation({text})", 0, max(
            abs(e1 * lad.mbar + e2 * lad.n - t + (t - lad.r + 2) * lad.n * lad.mbar)
            for lad, rows in ladders for t, e1, e2, _ in rows))
        # eps1 (eps2) is an integer exactly where the dead end (previous level) excludes
        for name, k, q, bit in (("deadend", 1, "n", 1), ("previous", 2, "mbar", 2)):
            yield _exact(f"integrality-{name}({text})", True, all(
                (row[k] % getattr(lad, q) == 0) == bool(row[3] & bit)
                for lad, rows in ladders for row in rows))
        # mu = 2 delta for a branch, delta counted as the semigroup's gaps
        yield _exact(f"conductor-eq-milnor({text})", bn.conductor, 2 * len(branch.gaps(bn)))
        class_total = sum(map(rep.pi_merged.counts.__getitem__, rep.eigenvalues.order))
        yield _exact(f"eigenvalue-count({text})", bn.milnor, class_total)


def vanishing_rows() -> Iterator[tuple]:
    """The kernel's vanishing integrals against their radial mass, within
    1e-8, and the exact cancellation of their symbolic form."""
    from . import quadrature

    for n, alpha, R in VANISHING_CASES:
        res = abs(quadrature.vanishing_integral_check(n, alpha, R))
        rel = res / quadrature.radial_mass(n, alpha, R)
        yield f"vanishing(n={n},alpha={alpha},R={R:g})", 0, res, rel, rel <= 1e-8
    out = quadrature.vanishing_symbolic_cancellation(Fraction(-1, 4))
    yield _exact("vanishing-symbolic(alpha=-1/4)", 0, out)
