"""Candidate poles of the complex zeta function and everything built on them:
residue numbers, generic pole sets (b-exponents), the Yano exponent multiset,
monodromy-eigenvalue distinctness, and the branch report, whose sections
are built on first read.

The candidate attached to rupture divisor i and shift nu is
sigma_{i,nu} = -(r_i + nu) / N_i, excluded when the dead-end divisor or the
previous-step divisor chain forces the residue to vanish; the survivors, as
b-exponents -sigma, form the sets Pi_i; Yano's multiset is read off the
same divisors, rupture blocks minus dead-end blocks.  All of it is integer
arithmetic on one Ladder record per rupture index, which holds both divisors
of its step, over one denominator, BranchNumerics.den = lcm(N_i); exact
Fractions are built only when a result is read.  No floats.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .branch import BranchNumerics, derive_numerics, resolve_input
from .errors import IndexOutOfRange, NegativeCoefficient
from .toric import divisor_numerics


class PoleStatus(Enum):
    POLE_CANDIDATE = "PoleCandidate"
    EXCLUDED_DEADEND = "ExcludedDeadEnd"
    EXCLUDED_PREVIOUS = "ExcludedPrevious"
    EXCLUDED_BOTH = "ExcludedBoth"


_STATUS = tuple(PoleStatus)  # index: dead end excludes + 2 * previous level excludes


class Ladder(namedtuple("Ladder", "i r N n mbar e a D c2")):
    """Integer record of the candidate ladder at rupture index i: n = n_i,
    e = e_i, mbar = mbar_i, r = m_i + n_1...n_i, N = n_i betabar_i = n e mbar,
    D = c_i n_{i-1} mbar_{i-1} + d_i, c2 = m_{i-1} - n_{i-1} mbar_{i-1}
    + n_1...n_{i-1} - mbar_i (n_0 = m_0 = 0, mbar_0 = 1).  With t = r + nu:
    sigma = -t/N, eps1 = (1 - n - a_i nu)/n, eps2 = (c2 - D nu)/mbar and
    eps3 = e sigma = -t/(n mbar).  betabar_i sigma is integral (dead end)
    iff n | t, and e_{i-1} sigma (previous level) iff mbar | t."""

    __slots__ = ()

    # (N, k+1) of the step's dead end, (betabar_i, ceil(r_i/n_i)); of its rupture divisor, (N, r)
    dead_end = property(lambda self: (self.N // self.n, -(-self.r // self.n)))

    @classmethod
    def of(cls, bn: BranchNumerics, i: int) -> Ladder:
        st, prev = bn.steps[i - 1], bn.nn[i - 1] * bn.mbar[i - 1]
        return cls(i, bn.mm[i] + bn.nprod(1, i), bn.nn[i] * bn.gens[i], bn.nn[i],
                   bn.mbar[i], bn.e[i], st.a, st.c * prev + st.d,
                   bn.mm[i - 1] - prev + bn.nprod(1, i - 1) - bn.mbar[i])

    def rows(self, start: int, stop: int, statuses: tuple = _STATUS) -> Iterator[tuple]:
        """(t, eps1 numerator, eps2 numerator, status) for start <= nu < stop,
        each numerator stepped by its constant increment, after checking
        eps1 + eps2 + eps3 + nu + 2 = 0 as e1 mbar + e2 n - t + (nu + 2) n mbar = 0
        on every row.  The status is statuses[dead end excludes + 2 * previous
        level excludes]; the default gives the PoleStatus."""
        n, mbar, a, D = self.n, self.mbar, self.a, self.D
        nm = n * mbar
        t, e1, e2, w = self.r + start, 1 - n - a * start, self.c2 - D * start, (start + 2) * nm
        for _ in range(start, stop):
            assert e1 * mbar + e2 * n - t + w == 0
            yield t, e1, e2, statuses[(t % n == 0) + 2 * (t % mbar == 0)]
            t += 1
            e1 -= a
            e2 -= D
            w += nm

    def row(self, nu: int) -> tuple[int, int, int, PoleStatus]:
        """The row of rows() at shift nu."""
        return next(self.rows(nu, nu + 1))


class CandidatePole(namedtuple("CandidatePole", "ladder nu")):
    """One candidate; its exact values are built from the integers when read.
    No __slots__: _row is cached in the instance __dict__."""

    _row = cached_property(lambda self: self.ladder.row(self.nu))  # read once per candidate
    i = property(lambda self: self.ladder.i)
    sigma = property(lambda self: Fraction(-self.ladder.r - self.nu, self.ladder.N))
    eps1 = property(lambda self: Fraction(self._row[1], self.ladder.n))
    eps2 = property(lambda self: Fraction(self._row[2], self.ladder.mbar))
    eps3 = property(lambda self: self.ladder.e * self.sigma)
    status = property(lambda self: self._row[3])


class ExponentMultiset:
    """Map from exact rational exponent to multiplicity, counted on integer
    numerators over one denominator (`counts` over `den`); `entries`, the
    Fraction-keyed view in increasing order, is built on each read.  Signed
    counts may occur transiently; finalize() enforces non-negativity."""

    def __init__(self, den: int = 1, counts=()):
        self.den, self.counts = den, {k: m for k, m in dict(counts).items() if m}

    def add(self, exponent, mult: int = 1) -> None:
        exponent = Fraction(exponent)
        scale = exponent.denominator // math.gcd(self.den, exponent.denominator)
        if scale > 1:
            self.den *= scale
            self.counts = {k * scale: m for k, m in self.counts.items()}
        key = exponent.numerator * (self.den // exponent.denominator)
        self.counts[key] = self.counts.get(key, 0) + mult
        if not self.counts[key]:
            del self.counts[key]

    def finalize(self) -> ExponentMultiset:
        for key, mult in self.counts.items():
            if mult < 0:
                raise NegativeCoefficient(Fraction(key, self.den), mult)
        return self

    entries = property(lambda self: {Fraction(k, self.den): m for k, m in self.sorted_counts()})
    total = property(lambda self: sum(self.counts.values()))

    def sorted_counts(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    def __eq__(self, other):
        """Equal as multisets of rationals: the counts compared over a common
        denominator, on integers."""
        if not isinstance(other, ExponentMultiset) or len(self.counts) != len(other.counts):
            return False
        if self.den == other.den:
            return self.counts == other.counts
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return ({k * a: m for k, m in self.counts.items()}
                == {k * b: m for k, m in other.counts.items()})


def residue_numbers(bn: BranchNumerics, i: int, nu: int) -> tuple[Fraction, Fraction]:
    """The residue numbers (eps_{1,nu}, eps_{2,nu}) at rupture index i."""
    cand = candidate_pole(bn, i, nu)
    return cand.eps1, cand.eps2


def candidate_pole(bn: BranchNumerics, i: int, nu: int) -> CandidatePole:
    """The candidate at rupture index i and shift nu, with its exclusion status."""
    if not (1 <= i <= bn.g) or nu < 0:
        raise IndexOutOfRange(f"need 1 <= i <= {bn.g} and nu >= 0, got i={i}, nu={nu}")
    return CandidatePole(bn.ladders[i - 1], nu)


def _numerators(den: int, start: int, count: int, q: int) -> range:
    """Numerators over den of (start + j)/q for 0 <= j < count (q | den)."""
    step = den // q
    return range(start * step, (start + count) * step, step)


def pi_multisets(bn: BranchNumerics) -> tuple[list[ExponentMultiset], ExponentMultiset]:
    """Generic pole sets as b-exponents -sigma, one per rupture index, plus
    their merged union.  One full period 0 <= nu < N_i per index; the
    survivor count is N_i - betabar_i - n_i e_i + e_i and the merged total
    equals the Milnor number.  Every set counts over bn.den."""
    den, sets, merged = bn.den, [], Counter()
    for lad in bn.ladders:
        n, mbar, r, N = lad.n, lad.mbar, lad.r, lad.N  # locals: the loop reads them per row
        step = den // N
        kept = [t * step for t in range(r, r + N) if t % n and t % mbar]
        expected = N - N // n - N // mbar + lad.e
        assert len(kept) == expected, "survivor count disagrees with inclusion-exclusion"
        sets.append(ExponentMultiset(den, dict.fromkeys(kept, 1)))
        merged.update(kept)
    merged = ExponentMultiset(den, merged)
    assert merged.total == bn.milnor
    return sets, merged


def yano_multiset(bn: BranchNumerics) -> ExponentMultiset:
    """Yano's generating series as an exact exponent multiset over bn.den,
    read off the divisors of each ladder.  By (1 - t)/(1 - t^{1/R}) =
    sum_{j<R} t^{j/R}, each rupture divisor (N_i, r_i) adds the block
    (r_i + j)/N_i, each dead end (betabar_i, k) and the first dead end (n, 2)
    subtract (k + j)/betabar_i and (2 + j)/n, and +t restores the
    doubly-subtracted exponent 1.  Raises NegativeCoefficient if the signed
    assembly ever finalizes below zero."""
    den, signed = bn.den, Counter()  # n | N_1 and betabar_i | N_i
    for lad in bn.ladders:
        signed.update(_numerators(den, lad.r, lad.N, lad.N))
        dead_n, dead_k = lad.dead_end
        signed.subtract(_numerators(den, dead_k, dead_n, dead_n))
    signed.subtract(_numerators(den, 2, bn.n, bn.n))
    signed[den] += 1
    ms = ExponentMultiset(den, signed).finalize()
    assert ms.total == bn.milnor
    return ms


class EigenvalueAnalysis(namedtuple("EigenvalueAnalysis", "den groups")):
    """groups: (fractional part, sorted (exponent, multiplicity) pairs) per
    class, every rational as its numerator over den."""

    __slots__ = ()


def eigenvalues_distinct(pi: ExponentMultiset) -> bool:
    """Whether the eigenvalues e^{-2 pi i alpha} over pi are pairwise
    different: they coincide exactly when the exponents agree mod 1, so every
    multiplicity must be one and no two exponents may agree mod 1."""
    return (set(pi.counts.values()) <= {1}
            and len(set(map(pi.den.__rmod__, pi.counts))) == len(pi.counts))


def eigenvalue_analysis(pi: ExponentMultiset) -> EigenvalueAnalysis:
    """Group b-exponents by fractional part (= monodromy eigenvalue class);
    the eigenvalues are distinct (eigenvalues_distinct) when every class is
    one exponent of multiplicity one."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for k, mult in pi.sorted_counts():
        groups.setdefault(k % pi.den, []).append((k, mult))
    return EigenvalueAnalysis(pi.den,
                              tuple((f, tuple(items)) for f, items in sorted(groups.items())))


def log_canonical_threshold(bn: BranchNumerics) -> Fraction:
    """lct = r_1/N_1 = (m_1 + n_1)/(n_1 betabar_1), the opposite of the largest
    pole: the first candidate (nu = 0) of the first ladder."""
    first = bn.ladders[0]
    return Fraction(first.r, first.N)


class Resonance(namedtuple("Resonance", "sigma occurrences")):
    """A candidate value sigma and its (i, nu, status) on each ladder."""

    __slots__ = ()


def _resonances(bn: BranchNumerics, ends: tuple[int, ...]) -> tuple[Resonance, ...]:
    """Candidate values on two or more ladders, largest sigma first."""
    tops = [_numerators(bn.den, lad.r, hi, lad.N) for lad, hi in zip(bn.ladders, ends)]
    hits = Counter(chain.from_iterable(tops))
    return tuple(
        Resonance(Fraction(-key, bn.den), tuple(
            (lad.i, key // top.step - lad.r, lad.row(key // top.step - lad.r)[3])
            for lad, top in zip(bn.ladders, tops) if key in top))
        for key in sorted(k for k, c in hits.items() if c > 1))


class BranchReport(namedtuple("BranchReport", "input_text kind bn nu_max")):
    """Every invariant of one branch.  Only the input is stored (kind is
    "charseq" or "semigroup", nu_max an int or None); each other section is
    built from bn and nu_max when first read, and kept in the instance
    __dict__ (no __slots__)."""

    # The strict transform contributes the pole ladder -1, -2, -3, ...
    strict_transform_poles = "all negative integers"

    divisors = cached_property(lambda self: tuple(divisor_numerics(self.bn)))
    lct = cached_property(lambda self: log_canonical_threshold(self.bn))
    pi_sets = property(lambda self: self._pi[0])
    pi_merged = property(lambda self: self._pi[1])
    yano = cached_property(lambda self: yano_multiset(self.bn))
    eigenvalues = cached_property(lambda self: eigenvalue_analysis(self.pi_merged))
    distinct = cached_property(lambda self: eigenvalues_distinct(self.pi_merged))
    verdict = cached_property(lambda self: "proved-distinct" if self.distinct
                              else "conjectural-generic")

    @cached_property
    def ladder_lengths(self) -> tuple[int, ...]:
        """Ladder i holds the candidates 0 <= nu < length: n_i betabar_i or up to nu_max."""
        return tuple(lad.N if self.nu_max is None else max(lad.N, self.nu_max + 1)
                     for lad in self.bn.ladders)

    @cached_property
    def _pi(self) -> tuple[tuple[ExponentMultiset, ...], ExponentMultiset]:
        """(pi_sets, pi_merged) from one pi_multisets call."""
        sets, merged = pi_multisets(self.bn)
        # the smallest kept pole value: every ladder's lies in its first period
        assert self.lct == Fraction(min(merged.counts), merged.den)
        return tuple(sets), merged

    @cached_property
    def resonances(self) -> tuple[Resonance, ...]:
        return _resonances(self.bn, self.ladder_lengths) if self.bn.g > 1 else ()


def branch_report(input_spec, nu_max: int | None = None) -> BranchReport:
    """The report of a CharSeq, a PlaneSemigroup or an input string in either
    CLI syntax; input_text is in CLI syntax.  The candidates cover one full
    period 0 <= nu < n_i betabar_i per rupture index; nu_max >= 0 extends it."""
    text, kind, cs = resolve_input(input_spec)
    if nu_max is not None and nu_max < 0:
        raise IndexOutOfRange(f"need nu_max >= 0, got nu_max={nu_max}")
    return BranchReport(text, kind, derive_numerics(cs), nu_max)
