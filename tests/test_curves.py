"""Curve-generation tests: golden equations, parametric annihilation,
deformation enumeration, and SparsePoly arithmetic against a sympy
expansion oracle."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import curves_oracle
from branchzeta import curves
from branchzeta.branch import CharSeq, derive_numerics, random_charseq
from branchzeta.curves import (
    DeformationFamily,
    SparsePoly,
    deformation_family,
    monomial_curve_equations,
    plane_equation,
    weight_of_monomial,
)
from branchzeta.errors import DomainError, IndexOutOfRange, InvalidCutoff, ZeroLambda

B49 = derive_numerics(CharSeq(4, (9,)))
B4613 = derive_numerics(CharSeq(4, (6, 7)))
B23 = derive_numerics(CharSeq(2, (3,)))
B6922 = derive_numerics(CharSeq(6, (9, 22)))


def to_sympy(p: SparsePoly):
    syms = sp.symbols(p.variables)
    return sp.expand(
        sum(sp.Rational(c) * sp.prod([s**e for s, e in zip(syms, exps)])
            for exps, c in p.terms.items())
    )


class TestSparsePoly:
    def test_construction_drops_zeros(self):
        p = SparsePoly(("x", "y"), {(1, 0): 2, (0, 1): 0})
        assert p.terms == {(1, 0): Fraction(2)}

    def test_cancellation(self):
        x = SparsePoly.variable(("x", "y"), "x")
        assert (x - x).is_zero()
        assert str(x - x) == "0"

    def test_arithmetic_vs_sympy(self):
        names = ("x", "y")
        a = SparsePoly(names, {(2, 0): 3, (0, 1): Fraction(-1, 2), (1, 1): 1})
        b = SparsePoly(names, {(0, 2): 1, (1, 0): -4, (0, 0): Fraction(5, 3)})
        got = (a * b - b) * a + b ** 3
        x, y = sp.symbols(names)
        sa = 3 * x**2 - sp.Rational(1, 2) * y + x * y
        sb = y**2 - 4 * x + sp.Rational(5, 3)
        assert to_sympy(got) == sp.expand((sa * sb - sb) * sa + sb**3)

    def test_str_ordering(self):
        # graded lex: degree ascending, larger x-power first at equal degree
        p = SparsePoly(("x", "y"), {(9, 0): -1, (0, 4): 1})
        assert str(p) == "y^4 - x^9"
        q = SparsePoly(("x", "y"), {(6, 0): 1, (5, 1): -1, (0, 4): 1, (3, 2): -2})
        assert str(q) == "y^4 - 2*x^3*y^2 + x^6 - x^5*y"

    def test_str_coefficients(self):
        p = SparsePoly(("x",), {(0,): Fraction(-3, 2), (1,): 1, (2,): Fraction(1, 7)})
        assert str(p) == "-3/2 + x + 1/7*x^2"

    def test_substitute_powers(self):
        p = SparsePoly(("x", "y"), {(3, 0): 1, (0, 2): -1})
        assert p.substitute_powers((2, 3)).is_zero()
        q = p.substitute_powers((1, 1))
        assert q.terms == {(3,): Fraction(1), (2,): Fraction(-1)}

    def test_pow_and_degree(self):
        y = SparsePoly.variable(("x", "y"), "y")
        assert (y ** 0).terms == {(0, 0): Fraction(1)}
        assert SparsePoly.zero(("x",)).min_total_degree() is None

    @pytest.mark.parametrize("k", range(9))
    def test_monomial_power_matches_repeated_product(self, k):
        p = SparsePoly.monomial(("x", "y"), (3, 1), Fraction(-2, 3))
        want = SparsePoly.monomial(("x", "y"), (0, 0))
        for _ in range(k):
            want = want * p
        assert p**k == want


# the names the calls below read, made in this process and in a python -O child
CALLER_SETUP = """
from fractions import Fraction
from branchzeta.branch import CharSeq, derive_numerics
from branchzeta.curves import SparsePoly, weight_of_monomial
B49 = derive_numerics(CharSeq(4, (9,)))
X, XY = SparsePoly(("x",), {(1,): 1}), SparsePoly(("x", "y"), {(1, 0): 1})
"""

# caller input the curves layer refuses with a reason, asserts stripped or not
BAD_CALLS = {
    "weight-negative": ("weight_of_monomial(B49, (1, -1))", IndexOutOfRange),
    "weight-too-long": ("weight_of_monomial(B49, (1, 1, 1))", IndexOutOfRange),
    "poly-negative": ("SparsePoly(('x',), {(-1,): 1})", IndexOutOfRange),
    "poly-too-long": ("SparsePoly(('x',), {(1, 2): 1})", IndexOutOfRange),
    "add-variables": ("X + XY", DomainError),
    "mul-variables": ("X * XY", DomainError),
    "pow-negative": ("X ** -1", DomainError),
    "pow-negative-binomial": ("(X + X * X) ** -2", DomainError),
    "pow-fraction": ("X ** Fraction(3, 2)", ValueError),
    "substitute-length": ("XY.substitute_powers((1,))", IndexOutOfRange),
}


class TestCallerInput:
    @pytest.mark.parametrize("call,error", BAD_CALLS.values(), ids=list(BAD_CALLS))
    def test_refused(self, call, error):
        names = {}
        exec(CALLER_SETUP, names)
        with pytest.raises(error):
            eval(call, names)

    def test_refused_under_python_O(self):
        script = CALLER_SETUP + (
            "import sys\n"
            "print(__debug__)\n"
            "for call in sys.argv[1:]:\n"
            "    try:\n"
            "        print('returned', repr(eval(call)))\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        calls = [c for c, _ in BAD_CALLS.values()]
        r = subprocess.run([sys.executable, "-O", "-c", script, *calls],
                           capture_output=True, text=True, env=env, timeout=120)
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.split("\n") == ["False", *(e.__name__ for _, e in BAD_CALLS.values()), ""]


class TestMonomialCurve:
    def test_4_9(self):
        hs = monomial_curve_equations(B49)
        assert [str(h) for h in hs] == ["u1^4 - u0^9"]

    def test_4_6_13(self):
        hs = monomial_curve_equations(B4613)
        assert [str(h) for h in hs] == ["u1^2 - u0^3", "u2^2 - u0^5*u1"]

    def test_2_3(self):
        assert [str(h) for h in monomial_curve_equations(B23)] == ["u1^2 - u0^3"]

    def test_parametric_annihilation_corpus(self, small_corpus_numerics):
        for bn in small_corpus_numerics:
            for h in monomial_curve_equations(bn):
                assert h.substitute_powers(bn.gens).is_zero(), bn.gens


class TestPlaneEquation:
    def test_goldens(self):
        assert str(plane_equation(B49)) == "y^4 - x^9"
        assert str(plane_equation(B4613)) == "y^4 - 2*x^3*y^2 + x^6 - x^5*y"
        assert str(plane_equation(B23)) == "y^2 - x^3"

    def test_4_6_13_is_nested_form(self):
        x, y = sp.symbols("x y")
        assert to_sympy(plane_equation(B4613)) == sp.expand((y**2 - x**3) ** 2 - x**5 * y)

    def test_long_ladder_is_not_built_by_repeated_products(self, monkeypatch):
        # x^200001 of f = y^2 - x^200001 is one term, not 200001 products
        calls = []
        mul = SparsePoly.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(SparsePoly, "__mul__", counting_mul)
        f = plane_equation(derive_numerics(CharSeq(2, (200001,))))
        assert str(f) == "y^2 - x^200001"
        assert len(calls) < 100

    def test_multiplicity_corpus(self, small_corpus_numerics):
        for bn in small_corpus_numerics:
            f = plane_equation(bn)
            assert f.min_total_degree() == bn.n, bn.cs
            assert f.terms.get((0, bn.n)) == 1, bn.cs


class TestWeights:
    def test_examples(self):
        assert weight_of_monomial(B49, (5, 2)) == 38
        assert weight_of_monomial(B49, ()) == 0
        assert weight_of_monomial(B4613, (0, 0, 2)) == 26 == B4613.nn[2] * B4613.gens[2]


class TestIntegralCoefficients:
    def test_int_kept_other_types_converted(self):
        p = SparsePoly(("x", "y"), {(1, 0): 2, (0, 1): True, (1, 1): Fraction(4, 2), (2, 0): 0.5})
        assert [type(c) for c in p.terms.values()] == [int, Fraction, Fraction, Fraction]
        assert p.terms == {(1, 0): 2, (0, 1): 1, (1, 1): 2, (2, 0): Fraction(1, 2)}

    def test_plane_recursion_stays_in_ints(self):
        fam = deformation_family(B4613)
        for f in (plane_equation(B4613), *monomial_curve_equations(B4613), fam.base,
                  fam.instantiate({(2, 1): 3}), *(t.monomial for t in fam.terms)):
            assert {type(c) for c in f.terms.values()} == {int}, f
        half = fam.instantiate({(2, 1): Fraction(1, 2)})
        assert Fraction in {type(c) for c in half.terms.values()}


class TestDeformationFamily:
    def test_enumeration_golden_4_9(self):
        fam = deformation_family(B49, weight_cutoff=38)
        assert [(t.exponents, t.weight) for t in fam.terms] == [((7, 1), 37), ((5, 2), 38)]
        assert [str(t.monomial) for t in fam.terms] == ["x^7*y", "x^5*y^2"]
        assert all(t.level == 1 and t.coefficient is None for t in fam.terms)
        assert fam.terms[1].parameter == "t^(1)_(5,2)"

    def test_enumeration_golden_2_3(self):
        fam = deformation_family(B23, weight_cutoff=7)
        assert [(t.exponents, t.weight) for t in fam.terms] == [((2, 1), 7)]
        assert str(fam.terms[0].monomial) == "x^2*y"

    def test_instantiate_example_fiber(self):
        fam = deformation_family(B49)
        fiber = fam.instantiate({(5, 2): 1})
        assert fiber == SparsePoly(("x", "y"), {(0, 4): 1, (9, 0): -1, (5, 2): 1})
        # values are keyed by exponent vector alone: a (level, exponents) key names no term
        with pytest.raises(IndexOutOfRange, match=r"\(1, \(5, 2\)\)"):
            fam.instantiate({(1, (5, 2)): 1})
        assert fam.instantiate() == fam.base == plane_equation(B49)

    def test_instantiate_keys_are_exponent_vectors_of_terms(self):
        fam = deformation_family(B4613)
        fiber = fam.instantiate({(2, 1): 1})
        assert fam.instantiate([((2, 1), 1)]) == fiber  # pairs read as a mapping
        # (0, 0) has the length of a level-1 vector, but its weight names no term
        with pytest.raises(IndexOutOfRange, match=r"\(0, 0\)"):
            fam.instantiate({(2, 1): 1, (0, 0): 1})
        seeded = deformation_family(B4613, coefficient_source=3)
        # a term's stored coefficient is kept; its key is still a known one
        assert seeded.instantiate({t.exponents: 5 for t in seeded.terms}) == seeded.instantiate()

    def test_enumeration_matches_brute_force(self):
        fam = deformation_family(B49, weight_cutoff=60)
        brute = sorted(
            (4 * k0 + 9 * k1, (k0, k1))
            for k0 in range(16)
            for k1 in range(4)
            if 36 < 4 * k0 + 9 * k1 <= 60
        )
        assert [(t.weight, t.exponents) for t in fam.terms] == brute

    def test_weight_constraint_and_bounds(self, small_corpus_numerics):
        for bn in small_corpus_numerics[:12]:
            fam = deformation_family(bn)
            assert fam.weight_cutoff == bn.nn[bn.g] * bn.gens[bn.g] + bn.conductor
            for t in fam.terms:
                assert len(t.exponents) == t.level + 1
                assert t.weight == weight_of_monomial(bn, t.exponents)
                assert bn.nn[t.level] * bn.gens[t.level] < t.weight <= fam.weight_cutoff
                for l in range(1, t.level + 1):
                    assert 0 <= t.exponents[l] < bn.nn[l]

    def test_lambda_weights_base(self):
        fam = deformation_family(B4613, lambdas=[Fraction(2)])
        x, y = sp.symbols("x y")
        assert to_sympy(fam.base) == sp.expand((y**2 - x**3) ** 2 - 2 * x**5 * y)

    def test_cross_level_instantiation(self):
        # a level-1 term must enter the level-2 square, not be appended
        fam = deformation_family(B4613)
        x, y = sp.symbols("x y")
        want = sp.expand((y**2 - x**3 + x**2 * y) ** 2 - x**5 * y)
        assert to_sympy(fam.instantiate({(2, 1): 1})) == want

    def test_seeded_coefficients_deterministic(self):
        f1 = deformation_family(B4613, coefficient_source=11)
        f2 = deformation_family(B4613, coefficient_source=11)
        f3 = deformation_family(B4613, coefficient_source=12)
        c1 = [t.coefficient for t in f1.terms]
        assert c1 == [t.coefficient for t in f2.terms]
        assert c1 != [t.coefficient for t in f3.terms]
        for c in c1:
            assert c != 0
            assert abs(c.numerator) <= 100 * 100 and c.denominator <= 100 * 100
        assert f1.instantiate() == f2.instantiate()

    def test_invalid_cutoff(self):
        with pytest.raises(InvalidCutoff):
            deformation_family(B49, weight_cutoff=35)
        with pytest.raises(InvalidCutoff):
            deformation_family(B4613, weight_cutoff=25)
        # the boundary cutoff is allowed and yields an empty enumeration
        assert deformation_family(B49, weight_cutoff=36).terms == ()

    def test_zero_lambda(self):
        with pytest.raises(ZeroLambda):
            deformation_family(B4613, lambdas=[0])
        # a wrong count is a length mismatch, not a zero lambda
        with pytest.raises(IndexOutOfRange,
                           match=r"^g = 2 takes 1 lambda values, for levels 2\.\.2, got 2"):
            deformation_family(B4613, lambdas=[1, 1])
        with pytest.raises(IndexOutOfRange, match=r"^g = 1 takes no lambda values, got 1"):
            deformation_family(B49, lambdas=[2])

    def test_bad_source_type(self):
        with pytest.raises(TypeError):
            deformation_family(B49, coefficient_source="seed")
        # explicit values go to instantiate(), not to the family
        with pytest.raises(TypeError):
            deformation_family(B49, coefficient_source={(5, 2): 1})


def same(p: SparsePoly, q: SparsePoly) -> bool:
    """Equal polynomials whose coefficients also have equal types, so that
    both print the same text."""
    return p == q and {e: type(c) for e, c in p.terms.items()} == {
        e: type(c) for e, c in q.terms.items()}


@st.composite
def families(draw):
    """(numerics, cutoff, lambdas) of a small branch: multiplicity <= 8,
    beta_1 <= 30, a cutoff at most 8 over the top level weight, and for
    g >= 2 either the default lambdas or nonzero drawn ones."""
    bn = derive_numerics(random_charseq(random.Random(draw(st.integers(0, 2**32 - 1))),
                                        max_n=8, max_beta=30))
    top = max(bn.nn[i] * bn.gens[i] for i in range(1, bn.g + 1))
    lam = st.fractions(-3, 3, max_denominator=4).filter(bool)
    lambdas = (draw(st.lists(lam, min_size=bn.g - 1, max_size=bn.g - 1))
               if bn.g >= 2 and draw(st.booleans()) else None)
    return bn, top + draw(st.integers(0, 8)), lambdas


class TestPlaneRecursionOracle:
    """Each level as one sum, against tests/curves_oracle.py, which sums a
    level one term at a time and makes every power again for each term."""

    @given(families(), st.integers(0, 2**31), st.data())
    @settings(max_examples=30, deadline=None)
    def test_recursion_matches_the_pairwise_oracle(self, drawn, seed, data):
        bn, cutoff, lambdas = drawn
        assert same(plane_equation(bn), curves_oracle.plane_recursion(bn, [1] * bn.g)[-1])
        fam = deformation_family(bn, cutoff, lambdas)
        base_fs = curves_oracle.plane_recursion(bn, [1, *fam.lambdas])
        assert same(fam.base, base_fs[-1])
        for t in fam.terms:
            assert same(t.monomial, curves_oracle.product(base_fs, t.exponents))
        # explicit values, zero among them, on some of the symbolic terms
        coeff = st.fractions(-3, 3, max_denominator=4)
        values = {t.exponents: data.draw(coeff) for t in fam.terms if data.draw(st.booleans())}
        assert same(fam.instantiate(values), curves_oracle.instantiate(fam, values))
        seeded = deformation_family(bn, cutoff, lambdas, coefficient_source=seed)
        assert same(seeded.instantiate(), curves_oracle.instantiate(seeded))

    def test_each_power_made_once_per_recursion(self, monkeypatch):
        fam = deformation_family(B6922, weight_cutoff=150, coefficient_source=2)
        seen = []
        pow_ = SparsePoly.__pow__

        def counting_pow(self, k):
            seen.append((self.variables, tuple(sorted(self.terms.items())), k))
            return pow_(self, k)

        monkeypatch.setattr(SparsePoly, "__pow__", counting_pow)
        parts = [(t.exponents, t.coefficient) for t in fam.terms]
        fiber = curves._plane_recursion(B6922, [1, *fam.lambdas], parts)[-1]
        assert seen and len(set(seen)) == len(seen)
        # the oracle makes some power again, so the count can tell them apart
        seen.clear()
        assert curves_oracle.instantiate(fam) == fiber
        assert len(set(seen)) < len(seen)
