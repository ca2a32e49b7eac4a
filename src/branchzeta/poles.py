"""Candidate poles of the complex zeta function and everything built on them:
residue numbers, generic pole sets (b-exponents), the Yano exponent multiset,
monodromy-eigenvalue distinctness, and the branch report, whose sections
are built on first read.

The candidate attached to rupture divisor i and shift nu is
sigma_{i,nu} = -(r_i + nu) / N_i, excluded when the dead-end divisor or the
previous-step divisor chain forces the residue to vanish; the survivors, as
b-exponents -sigma, form the sets Pi_i; Yano's multiset is each period less
its multiples of n_i (the dead end), less the first dead end's block.  All
of it is integer arithmetic on one Ladder record per rupture index
(BranchNumerics.ladders), which holds both divisors of its step, over one
denominator, BranchNumerics.den = lcm(N_i), both built by derive_numerics;
exact Fractions are built only for a result that is reported.  No floats.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .branch import BranchNumerics, Ladder, resolve_input
from .errors import IndexOutOfRange, NegativeCoefficient, exact_int
from .toric import divisor_numerics


class PoleStatus(Enum):
    POLE_CANDIDATE = "PoleCandidate"
    EXCLUDED_DEADEND = "ExcludedDeadEnd"
    EXCLUDED_PREVIOUS = "ExcludedPrevious"
    EXCLUDED_BOTH = "ExcludedBoth"


_STATUS = tuple(PoleStatus)  # index: dead end excludes + 2 * previous level excludes


class CandidatePole(namedtuple("CandidatePole", "i nu sigma eps1 eps2 eps3 status")):
    """One candidate's exact values, sigma = -t/N, eps1, eps2 and
    eps3 = e sigma = -t/(n mbar), and its PoleStatus."""

    __slots__ = ()


class ExponentMultiset:
    """Map from exact rational exponent to multiplicity, counted on integer
    numerators over one denominator (`counts` over `den`); `entries`, the
    Fraction-keyed view in increasing order, is built on each read.  Signed
    counts may occur transiently; finalize() enforces non-negativity."""

    def __init__(self, den: int = 1, counts=()):
        self.den, self.counts = den, dict(counts)  # a copy; no report passes a 0, a caller may
        if 0 in self.counts.values():
            self.counts = {k: m for k, m in self.counts.items() if m}

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


def candidate_pole(bn: BranchNumerics, i: int, nu: int) -> CandidatePole:
    """The candidate at rupture index i and shift nu, with its exclusion status,
    built from the ladder's row at nu."""
    i, nu = exact_int(i), exact_int(nu)
    if not (1 <= i <= bn.g) or nu < 0:
        raise IndexOutOfRange(f"need 1 <= i <= {bn.g} and nu >= 0, got i={i}, nu={nu}")
    lad = bn.ladders[i - 1]
    t, e1, e2, code = lad.row(nu)
    return CandidatePole(i, nu, Fraction(-t, lad.N), Fraction(e1, lad.n), Fraction(e2, lad.mbar),
                         Fraction(-t, lad.n * lad.mbar), _STATUS[code])


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
    read off each ladder's period.  By (1 - t)/(1 - t^{1/R}) = sum_{j<R} t^{j/R},
    each rupture divisor adds the block (r_i + j)/N_i, each dead end
    (betabar_i, k) and the first dead end (n, 2) subtract (k + j)/betabar_i and
    (2 + j)/n, and +t restores the exponent 1.  A dead end's block is
    (k + j) n_i/N_i: k n_i is the first multiple of n_i at or above r_i and the
    betabar_i of them end below r_i + N_i, so ladder i adds the t of its period
    [r_i, r_i + N_i) that n_i does not divide.  Raises NegativeCoefficient if
    the signed assembly finalizes below zero."""
    den, signed = bn.den, Counter()
    for lad in bn.ladders:
        step = den // lad.N
        signed.update([t * step for t in range(lad.r, lad.r + lad.N) if t % lad.n])
    first = range(2 * den // bn.n, (bn.n + 2) * den // bn.n, den // bn.n)  # n | N_1 | den
    signed.subtract(first)
    signed[den] += 1
    for key in first:  # only these keys can hold a 0; negative counts stay, for finalize
        if not signed[key]:
            signed.pop(key)
    ms = ExponentMultiset(den, signed).finalize()
    assert ms.total == bn.milnor
    return ms


class EigenvalueAnalysis(namedtuple("EigenvalueAnalysis", "den order")):
    """order: the exponents' numerators over den sorted by residue mod den
    (the class, the fractional part), then by value; a class is a run of
    equal residues, the multiplicities are Pi's counts."""

    __slots__ = ()


def eigenvalues_distinct(pi: ExponentMultiset) -> bool:
    """Whether the eigenvalues e^{-2 pi i alpha} over pi are pairwise
    different: they coincide exactly when the exponents agree mod 1, so every
    multiplicity must be one and no two exponents may agree mod 1."""
    return (set(pi.counts.values()) <= {1}
            and len(set(map(pi.den.__rmod__, pi.counts))) == len(pi.counts))


def eigenvalue_analysis(pi: ExponentMultiset) -> EigenvalueAnalysis:
    """Order b-exponents by fractional part (= monodromy eigenvalue class),
    each class by value; the eigenvalues are distinct (eigenvalues_distinct)
    when every class is one exponent of multiplicity one."""
    return EigenvalueAnalysis(pi.den, tuple(sorted(sorted(pi.counts), key=pi.den.__rmod__)))


def log_canonical_threshold(bn: BranchNumerics) -> Fraction:
    """lct = r_1/N_1 = (m_1 + n_1)/(n_1 betabar_1), the opposite of the largest
    pole: the first candidate (nu = 0) of the first ladder."""
    first = bn.ladders[0]
    return Fraction(first.r, first.N)


class Resonance(namedtuple("Resonance", "sigma occurrences")):
    """A candidate value sigma and its (i, nu, status) on each ladder."""

    __slots__ = ()


def _resonances(bn: BranchNumerics, ends: tuple[int, ...]) -> tuple[Resonance, ...]:
    """Candidate values on two or more ladders, largest sigma first: ladder i
    holds the multiples of s_i = den/N_i in [r_i s_i, (r_i + ends_i) s_i), and
    each pair shares one progression, those of lcm(s_i, s_j) in both (any g)."""
    tops = [range(lad.r * s, (lad.r + hi) * s, s)
            for lad, hi in zip(bn.ladders, ends) for s in (bn.den // lad.N,)]
    shared = set()
    for a, b in combinations(tops, 2):
        lo, step = max(a.start, b.start), math.lcm(a.step, b.step)
        shared.update(range(lo + -lo % step, min(a.stop, b.stop), step))
    return tuple(
        Resonance(Fraction(-key, bn.den), tuple(
            (lad.i, nu := top.index(key), _STATUS[lad.row(nu)[3]])
            for lad, top in zip(bn.ladders, tops) if key in top))
        for key in sorted(shared))


class BranchReport(namedtuple("BranchReport", "input_text kind bn nu_max")):
    """Every invariant of one branch.  Only the input is stored (kind is
    "charseq" or "semigroup", nu_max an int or None); each other section,
    the resonances for every g too, is built from bn and nu_max when first
    read, and kept in the instance __dict__ (no __slots__)."""

    # The strict transform contributes the pole ladder -1, -2, -3, ...
    strict_transform_poles = "all negative integers"

    divisors = cached_property(lambda self: tuple(divisor_numerics(self.bn)))
    lct = cached_property(lambda self: log_canonical_threshold(self.bn))
    pi_sets = property(lambda self: self._pi[0])
    pi_merged = property(lambda self: self._pi[1])
    yano = cached_property(lambda self: yano_multiset(self.bn))
    resonances = cached_property(lambda self: _resonances(self.bn, self.ladder_lengths))
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


def branch_report(input_spec, nu_max: int | None = None) -> BranchReport:
    """The report of a CharSeq, a PlaneSemigroup or an input string in either
    CLI syntax; input_text is in CLI syntax.  The candidates cover one full
    period 0 <= nu < n_i betabar_i per rupture index; nu_max >= 0 extends it."""
    text, kind, bn = resolve_input(input_spec)
    if nu_max is not None and (nu_max := exact_int(nu_max)) < 0:
        raise IndexOutOfRange(f"need nu_max >= 0, got nu_max={nu_max}")
    return BranchReport(text, kind, bn, nu_max)
