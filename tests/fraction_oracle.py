"""Fraction implementations of the candidate ladders, kept as an oracle for
the integer ladder core of branchzeta.poles.

Every candidate here rebuilds the toric steps and its exact values from
BranchNumerics with Fraction arithmetic, straight from the formulas:
sigma = -(r_i + nu)/(n_i betabar_i), eps1 + 1 = (-a_i nu + 1)/n_i,
eps2 + 1 = (-(c_i n_{i-1} mbar_{i-1} + d_i) nu + m_{i-1} - n_{i-1} mbar_{i-1}
+ n_1...n_{i-1})/mbar_i, eps3 = e_i sigma, and the exclusion tests are the
integrality of betabar_i sigma (dead end) and e_{i-1} sigma (previous
level).  Statuses are the PoleStatus value strings.

The divisor data and the log canonical threshold are here too, in closed
form from BranchNumerics rather than off the ladders: N = n_i betabar_i and
k + 1 = m_i + n_1...n_i at the rupture divisor, betabar_i and
ceil((k + 1)/n_i) at the dead end, and lct = (m_1 + n_1)/(n_1 betabar_1).

Yano's multiset is expanded here from the characteristic sequence, as Yano
defines his generating series: R_i from its defining sum
e_i R_i = beta_i e_{i-1} + sum_{l<i} beta_l (e_{l-1} - e_l),
r_i = (beta_i + n)/e_i, r'_i = floor(r_i e_i/e_{i-1}) + 1 and
R'_i = R_i/n_i, with no ladder and no divisor read.

The exponent sections of the JSON report (pi, pi_levels, yano and the
eigenvalue classes) are built here section by section, each from its own
multiset's Fractions (yano from Yano's series above), as branchzeta.cli
built them before the sections shared one record list; the report's
eigenvalue order, Pi's numerators sorted by residue, is cut back into those
classes by classes_of; and exponent multisets are compared here as
Fraction-keyed dicts.

The resonances are also found here as branchzeta.poles found them before it
read them off the pairs of ladders: every numerator of every ladder counted
in one Counter, and each key counted twice or more kept.  Their JSON section
is built here as dicts from the candidates above, as branchzeta.cli built it
before it made each resonance's record as finished text.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain, groupby

from branchzeta.poles import _STATUS, Resonance
from branchzeta.toric import toric_steps

STATUS = {
    (False, False): "PoleCandidate",
    (True, False): "ExcludedDeadEnd",
    (False, True): "ExcludedPrevious",
    (True, True): "ExcludedBoth",
}


def residue_numbers(bn, i, nu):
    st = toric_steps(bn)[i - 1]
    dd = st.c * bn.nn[i - 1] * bn.mbar[i - 1] + st.d
    eps1 = -1 + Fraction(-st.a * nu + 1, st.n)
    top = -dd * nu + bn.mm[i - 1] - bn.nn[i - 1] * bn.mbar[i - 1] + bn.nprod(1, i - 1)
    eps2 = -1 + Fraction(top, bn.mbar[i])
    return eps1, eps2


def candidate_pole(bn, i, nu):
    """(i, nu, sigma, eps1, eps2, eps3, status)."""
    r = bn.mm[i] + bn.nprod(1, i)
    sigma = Fraction(-(r + nu), bn.nn[i] * bn.gens[i])
    eps1, eps2 = residue_numbers(bn, i, nu)
    eps3 = bn.e[i] * sigma
    assert eps1 + eps2 + eps3 + nu + 2 == 0
    dead = (bn.gens[i] * sigma).denominator == 1
    prev = (bn.e[i - 1] * sigma).denominator == 1
    return i, nu, sigma, eps1, eps2, eps3, STATUS[dead, prev]


def divisor_numerics(bn):
    """(i, N_rupture, k_rupture_plus1, N_deadend, k_deadend_plus1) per step."""
    out = []
    for i in range(1, bn.g + 1):
        r = bn.mm[i] + bn.nprod(1, i)
        out.append((i, bn.nn[i] * bn.gens[i], r, bn.gens[i], -(-r // bn.nn[i])))
    return out


def log_canonical_threshold(bn):
    return Fraction(bn.mm[1] + bn.nn[1], bn.nn[1] * bn.gens[1])


def candidates(bn, nu_max=None):
    out = []
    for i in range(1, bn.g + 1):
        hi = bn.nn[i] * bn.gens[i]
        if nu_max is not None:
            hi = max(hi, nu_max + 1)
        out += [candidate_pole(bn, i, nu) for nu in range(hi)]
    return out


def pi_multisets(bn):
    """Per-level dicts {-sigma: 1} over one period, and their merged dict."""
    sets, merged = [], {}
    for i in range(1, bn.g + 1):
        level = {}
        for nu in range(bn.nn[i] * bn.gens[i]):
            _, _, sigma, _, _, _, status = candidate_pole(bn, i, nu)
            if status == "PoleCandidate":
                level[-sigma] = level.get(-sigma, 0) + 1
                merged[-sigma] = merged.get(-sigma, 0) + 1
        sets.append(level)
    return sets, merged


def yano_multiset(bn):
    """{exponent: multiplicity} of Yano's series, in increasing order: each
    positive block adds (r_i + j)/R_i, each negative block subtracts
    (r'_i + j)/R'_i, the i = 0 block subtracts (2 + j)/n, and +t adds 1."""
    signed = {}

    def block(start, size, sign):
        for j in range(size):
            x = Fraction(start + j, size)
            signed[x] = signed.get(x, 0) + sign

    for i in range(1, bn.g + 1):
        top = bn.betas[i - 1] * bn.e[i - 1] + sum(bn.betas[l - 1] * (bn.e[l - 1] - bn.e[l])
                                                  for l in range(1, i))
        big_r, rem = divmod(top, bn.e[i])
        assert rem == 0
        r = (bn.betas[i - 1] + bn.n) // bn.e[i]
        block(r, big_r, 1)
        block((r * bn.e[i]) // bn.e[i - 1] + 1, big_r // bn.nn[i], -1)
    block(2, bn.n, -1)
    signed[Fraction(1)] += 1
    assert min(signed.values()) >= 0
    return {x: m for x, m in sorted(signed.items()) if m}


def eigenvalue_analysis(pi):
    """(distinct, classes) of an {exponent: multiplicity} dict, each class a
    (fractional part, ((exponent, multiplicity), ...)) pair."""
    groups = {}
    for exp, mult in sorted(pi.items()):
        frac = exp - (exp.numerator // exp.denominator)
        groups.setdefault(frac, []).append((exp, mult))
    classes = tuple((frac, tuple(items)) for frac, items in sorted(groups.items()))
    distinct = all(len(items) == 1 and items[0][1] == 1 for _, items in classes)
    return distinct, classes


def classes_of(analysis, pi):
    """The classes of branchzeta's EigenvalueAnalysis in the form of
    eigenvalue_analysis here: its order cut into runs of one residue mod den,
    each member's multiplicity read off pi's counts."""
    den = analysis.den
    return tuple((Fraction(f, den), tuple((Fraction(k, den), pi.counts[k]) for k in run))
                 for f, run in groupby(analysis.order, lambda k: k % den))


def resonances(cands):
    """[(sigma, ((i, nu, status), ...))] for values shared by two or more
    ladders, largest sigma first."""
    by_sigma = {}
    for i, nu, sigma, _, _, _, status in cands:
        by_sigma.setdefault(sigma, []).append((i, nu, status))
    return [
        (sigma, tuple(group))
        for sigma, group in sorted(by_sigma.items(), reverse=True)
        if len({i for i, _, _ in group}) >= 2
    ]


def counted_resonances(bn, ends):
    """The Resonance records of the numerators that two or more ladders
    hold, ladder i holding 0 <= nu < ends[i - 1], largest sigma first."""
    tops = [range(lad.r * s, (lad.r + hi) * s, s)
            for lad, hi in zip(bn.ladders, ends) for s in (bn.den // lad.N,)]
    hits = Counter(chain.from_iterable(tops))
    return tuple(
        Resonance(Fraction(-key, bn.den), tuple(
            (lad.i, key // top.step - lad.r, _STATUS[lad.row(key // top.step - lad.r)[3]])
            for lad, top in zip(bn.ladders, tops) if key in top))
        for key in sorted(k for k, c in hits.items() if c > 1))


def multisets_equal(a, b):
    """Whether two ExponentMultisets hold the same rationals with the same
    multiplicities, compared as {Fraction: multiplicity} dicts."""
    def entries(ms):
        return {Fraction(k, ms.den): m for k, m in ms.counts.items()}

    return entries(a) == entries(b)


def exponent_records(ms):
    """The {exponent, multiplicity} records of a multiset, in increasing order."""
    return [{"exponent": str(Fraction(k, ms.den)), "multiplicity": m}
            for k, m in sorted(ms.counts.items())]


def exponent_sections(rep):
    """The pi, pi_levels, yano and eigenvalues sections of a report's JSON,
    each section built from its own multiset, yano from Yano's series as
    expanded here."""
    distinct, classes = eigenvalue_analysis(
        {Fraction(k, rep.pi_merged.den): m for k, m in rep.pi_merged.counts.items()})
    return {
        "pi": exponent_records(rep.pi_merged),
        "pi_levels": [exponent_records(ms) for ms in rep.pi_sets],
        "yano": [{"exponent": str(e), "multiplicity": m} for e, m in yano_multiset(rep.bn).items()],
        "eigenvalues": {
            "distinct": distinct,
            "classes": [{"fraction": str(frac),
                         "members": [{"exponent": str(e), "multiplicity": m} for e, m in items]}
                        for frac, items in classes],
        },
    }


def resonance_records(rep):
    """The resonances section of a report's JSON, found among the candidates here."""
    return [{"sigma": str(sigma), "occurrences": [{"i": i, "nu": nu, "status": status}
                                                 for i, nu, status in group]}
            for sigma, group in resonances(candidates(rep.bn, rep.nu_max))]
