"""Curve equations attached to a plane-branch semigroup.

Three constructions, all exact over the rationals:

* the monomial-curve complete intersection ``h_1, ..., h_g`` in the
  variables ``u_0, ..., u_g``, where ``h_i`` subtracts from ``u_i^{n_i}``
  the canonical monomial of the same weight in the earlier variables;
* the plane equation obtained by running the same recursion inside
  ``C[x, y]`` from ``f_0 = x``, ``f_1 = y``, each level one sum in which
  the lambda term is a part like any deformation term;
* weighted deformation families of the plane equation, enumerating for
  each recursion level the canonical exponent vectors whose weight lies
  strictly above the level weight and at most a cutoff.

Polynomials are kept sparse as exponent-vector -> rational maps (an int
where the value is integral, else a Fraction) with a graded-lexicographic
canonical order used for printing and JSON output.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cache
from itertools import chain, product

from .branch import BranchNumerics, canonical_representation
from .errors import DomainError, IndexOutOfRange, InvalidCutoff, ZeroLambda, exact_int


def _accumulate(pairs: Iterable[tuple[tuple[int, ...], Fraction]]) -> dict:
    """Sum (exponents, coefficient) pairs per exponent vector, dropping zeros."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in pairs:
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


class SparsePoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map exponent tuples (one entry per variable) to nonzero
    rationals: a coefficient of type int is kept, any other is converted to
    a Fraction.  Zero coefficients are dropped on construction so equality
    is plain dict equality.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], object] = ()):
        self.variables = tuple(variables)
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = [(tuple(map(exact_int, exps)), c if type(c) is int else Fraction(c))
                 for exps, c in items]
        if bad := [e for e, _ in pairs if len(e) != len(self.variables) or min(e, default=0) < 0]:
            raise IndexOutOfRange(f"need {len(self.variables)} exponents >= 0, got {bad[0]}")
        self.terms = _accumulate(pairs)

    @classmethod
    def _from_clean(cls, variables: tuple[str, ...], terms: dict) -> "SparsePoly":
        # terms already well formed (exponent tuples, nonzero ints or Fractions)
        p = cls.__new__(cls)
        p.variables, p.terms = variables, terms
        return p

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables)

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coeff=1) -> "SparsePoly":
        return cls(variables, {tuple(exps): coeff})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        exps = [0] * len(variables)
        exps[list(variables).index(name)] = 1
        return cls.monomial(variables, exps)

    def _check_same(self, other: "SparsePoly") -> None:
        if self.variables != other.variables:
            raise DomainError(f"variable sets differ: {self.variables} and {other.variables}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._from_clean(self.variables, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_same(other)
        return SparsePoly._from_clean(
            self.variables, _accumulate(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other) -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return SparsePoly.zero(self.variables)
            return SparsePoly._from_clean(
                self.variables, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_same(other)
        return SparsePoly._from_clean(self.variables, _accumulate(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SparsePoly":
        if (k := exact_int(k)) < 0:
            raise DomainError(f"power {k} is negative")
        if len(self.terms) == 1:
            # a monomial power is one term: no k-fold product needed
            ((e, c),) = self.terms.items()
            return SparsePoly._from_clean(self.variables, {tuple(a * k for a in e): c**k})
        out = SparsePoly.monomial(self.variables, (0,) * len(self.variables))
        for _ in range(k):
            out = out * self
        return out

    def min_total_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def canonical_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        # graded lex: degree ascending, then earlier variables with larger
        # exponent first
        key = lambda item: (sum(item[0]), tuple(-e for e in item[0]))
        return sorted(self.terms.items(), key=key)

    def substitute_powers(self, powers: Sequence[int]) -> "SparsePoly":
        """Substitute variable j by t^powers[j]; result lives in C[t]."""
        if len(powers) != len(self.variables):
            raise IndexOutOfRange(f"expected {len(self.variables)} powers, got {len(powers)}")
        return SparsePoly._from_clean(("t",), _accumulate(
            ((sum(p * k for p, k in zip(powers, exps)),), coeff)
            for exps, coeff in self.terms.items()))

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for i, (exps, coeff) in enumerate(self.canonical_terms()):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            mono = self._monomial_str(exps)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                chunks.append(body if sign == "+" else f"-{body}")
            else:
                chunks.append(f" {sign} {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


def _canonical_exponents(bn: BranchNumerics, i: int) -> tuple[int, ...]:
    # exponent vector below level i representing the weight N_i = n_i betabar_i
    rep = canonical_representation(bn, bn.ladders[i - 1].N)
    assert all(rep[l] == 0 for l in range(i, bn.g + 1))
    return rep[:i]


def monomial_curve_equations(bn: BranchNumerics) -> list[SparsePoly]:
    """Quasi-homogeneous complete-intersection equations in u_0..u_g."""
    names = tuple(f"u{j}" for j in range(bn.g + 1))
    out = []
    for i in range(1, bn.g + 1):
        lead = [0] * (bn.g + 1)
        lead[i] = bn.nn[i]
        tail = _canonical_exponents(bn, i) + (0,) * (bn.g + 1 - i)
        out.append(SparsePoly(names, {tuple(lead): 1, tail: -1}))
    return out


def _term(pw, exps: Sequence[int], coeff=1) -> SparsePoly:
    """coeff * prod f_l^{k_l} in C[x, y], each power f_l^k read as pw(l, k)."""
    out = SparsePoly.monomial(("x", "y"), (0, 0), coeff)
    for l, k in enumerate(exps):
        out = out * pw(l, k)
    return out


def _plane_recursion(
    bn: BranchNumerics,
    lambdas: Sequence[Fraction],
    parts: Sequence[tuple[tuple[int, ...], Fraction]] = (),
) -> list[SparsePoly]:
    """Run f_{i+1} = f_i^{n_i} + sum of c * prod(f_l^{k_l}) over level i's
    parts (k, c), and return f_0, .., f_{g+1}; the last is the plane equation.
    Level i's parts are (rep_i, -lambda_i), rep_i the canonical exponents of
    n_i betabar_i and lambdas one entry per level 1..g (the first pinned to
    1), and each given part whose vector (k_0, .., k_i) has length i + 1.  A
    level is one _accumulate pass; each f_l^k is made once, for this call.
    """
    names = ("x", "y")
    fs = [SparsePoly.variable(names, "x"), SparsePoly.variable(names, "y")]
    pw = cache(lambda l, k: fs[l] ** k)
    for i in range(1, bn.g + 1):
        level = [(_canonical_exponents(bn, i), -lambdas[i - 1]),
                 *((e, c) for e, c in parts if c and len(e) == i + 1)]
        fs.append(SparsePoly._from_clean(names, _accumulate(chain(
            pw(i, bn.nn[i]).terms.items(), *(_term(pw, e, c).terms.items() for e, c in level)))))
    return fs


def plane_equation(bn: BranchNumerics) -> SparsePoly:
    """Canonical plane equation; lowest-degree part at the origin is y^n."""
    return _plane_recursion(bn, [1] * bn.g)[-1]


def weight_of_monomial(bn: BranchNumerics, ks: Sequence[int]) -> int:
    """Weighted degree sum(betabar_l * k_l) of an exponent vector."""
    ks = tuple(map(exact_int, ks))
    if len(ks) > bn.g + 1:
        raise IndexOutOfRange(f"expected at most {bn.g + 1} exponents, got {len(ks)}")
    if any(k < 0 for k in ks):
        raise IndexOutOfRange("exponents must be non-negative")
    return sum(bn.gens[l] * k for l, k in enumerate(ks))


class DeformationTerm(namedtuple("DeformationTerm",
                                 "parameter level exponents weight monomial coefficient")):
    """One deformation monomial: parameter id, level, exponents, weight,
    the expanded product f_0^{k_0}..f_i^{k_i}, and its coefficient (None
    while symbolic)."""

    __slots__ = ()


class DeformationFamily(namedtuple("DeformationFamily", "bn base terms lambdas weight_cutoff")):
    """Weighted deformation family of a plane-branch equation.

    base is the undeformed equation with the lambda factors included;
    terms are in deterministic order (level, weight, exponents).  The
    lambdas tuple stores levels 2..g (level 1 is pinned to 1).
    """

    __slots__ = ()

    def instantiate(self, values: Mapping | Iterable = ()) -> SparsePoly:
        """Plane equation of the fiber with the given coefficients.

        values, a mapping or (key, value) pairs, gives the coefficients of
        the symbolic terms keyed by exponent vector (k_0, .., k_level); a
        symbolic term it omits gets zero, a stored coefficient is kept, and
        a key that is no term's exponent vector raises IndexOutOfRange.
        The recursion is rerun with the terms as parts, so a level-i term
        feeds the later levels as the family defines, not to first order.
        """
        values = dict(values)
        known = {t.exponents for t in self.terms}
        if unknown := [k for k in values if k not in known]:
            raise IndexOutOfRange(f"no term has the exponents {', '.join(map(str, unknown))}")
        return _plane_recursion(self.bn, [1, *self.lambdas], [
            (t.exponents, values.get(t.exponents, 0) if t.coefficient is None else t.coefficient)
            for t in self.terms])[-1]


def _draw_coefficient(rng: random.Random) -> Fraction:
    # nonzero rational with numerator and denominator bounded by 100
    p = rng.randint(1, 100) * rng.choice((1, -1))
    q = rng.randint(1, 100)
    return Fraction(p, q)


def deformation_family(
    bn: BranchNumerics,
    weight_cutoff: int | None = None,
    lambdas: Sequence | None = None,
    coefficient_source=None,
) -> DeformationFamily:
    """Enumerate the canonical deformation terms up to a weight cutoff.

    Level i contributes every exponent vector (k_0, .., k_i) with
    0 <= k_l < n_l for l >= 1 and level weight n_i*betabar_i < weight <=
    weight_cutoff.  The cutoff defaults to n_g*betabar_g plus the
    conductor.  coefficient_source selects the coefficients: None keeps
    them symbolic (explicit values then go to instantiate()), and an int
    seeds a generator of nonzero rationals.
    """
    top = bn.ladders[-1].N  # N_i = n_i betabar_i grows with i
    if weight_cutoff is None:
        weight_cutoff = top + bn.conductor
    weight_cutoff = exact_int(weight_cutoff)
    if weight_cutoff < top:
        raise InvalidCutoff(f"cutoff {weight_cutoff} below top level weight {top}")

    if lambdas is None:
        lams = [1] * (bn.g - 1)
    else:
        lams = [Fraction(v) for v in lambdas]
        if len(lams) != bn.g - 1:
            takes = ("no lambda values" if bn.g == 1
                     else f"{bn.g - 1} lambda values, for levels 2..{bn.g}")
            raise IndexOutOfRange(f"g = {bn.g} takes {takes}, got {len(lams)}")
    if any(v == 0 for v in lams):
        raise ZeroLambda("lambda values must be nonzero")

    rng = None
    if isinstance(coefficient_source, int) and not isinstance(coefficient_source, bool):
        rng = random.Random(coefficient_source)
    elif coefficient_source is not None:
        raise TypeError("coefficient_source must be None or an int seed")

    base_fs = _plane_recursion(bn, [1, *lams])
    pw = cache(lambda l, k: base_fs[l] ** k)

    terms: list[DeformationTerm] = []
    for i in range(1, bn.g + 1):
        level_weight = bn.ladders[i - 1].N
        found: list[tuple[int, tuple[int, ...]]] = []
        for rest in product(*(range(bn.nn[l]) for l in range(1, i + 1))):
            w = sum(g * k for g, k in zip(bn.gens[1:], rest))
            # k_0 runs over level_weight < w + n k_0 <= weight_cutoff
            lo = max(0, (level_weight - w) // bn.n + 1)
            for k0 in range(lo, (weight_cutoff - w) // bn.n + 1):
                found.append((w + bn.n * k0, (k0, *rest)))
        found.sort()
        for weight, exps in found:
            mono = _term(pw, exps)
            coeff = None if rng is None else _draw_coefficient(rng)
            label = f"t^({i})_({','.join(map(str, exps))})"
            terms.append(DeformationTerm(label, i, exps, weight, mono, coeff))

    return DeformationFamily(
        bn=bn,
        base=base_fs[-1],
        terms=tuple(terms),
        lambdas=tuple(lams),
        weight_cutoff=weight_cutoff,
    )
