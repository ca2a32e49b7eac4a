"""Integer inputs are taken exactly: every public constructor or function
that reads an integer refuses, with a ValueError naming it, a number that
int() would change, and still converts a str or an integral float; and two
library inputs that have no answer raise ValueError at once."""

import random
from fractions import Fraction

import pytest

from branchzeta.branch import (CharSeq, PlaneSemigroup, canonical_representation,
                               derive_numerics, membership, random_charseq,
                               validate_plane_semigroup)
from branchzeta.curves import SparsePoly, deformation_family, weight_of_monomial
from branchzeta.errors import exact_int
from branchzeta.gammaratio import RnmParams, hypergeom_sum_at_1
from branchzeta.poles import branch_report, candidate_pole
from branchzeta.quadrature import vanishing_integral_check
from branchzeta.toric import bell_polynomial, linear_forms

BN = derive_numerics(CharSeq(4, (9,)))

# each call site of exact_int: (the refused value, a call that passes it, a call that converts)
CALL_SITES = {
    "CharSeq": (9.7, lambda: CharSeq(4, (9.7,)), lambda: CharSeq(4.0, ("9",)) == (4, (9,))),
    "PlaneSemigroup": (6.5, lambda: PlaneSemigroup((4, 6.5, 13)),
                       lambda: PlaneSemigroup(("4", 6.0, 13)).gens == (4, 6, 13)),
    "validate_plane_semigroup": (6.5, lambda: validate_plane_semigroup((4, 6.5, 13)),
                                 lambda: validate_plane_semigroup((4.0, "6", 13)).ok),
    "RnmParams.n": (1.9, lambda: RnmParams(Fraction(-1, 4), 1.9, Fraction(-1, 3), 0),
                    lambda: RnmParams(Fraction(-1, 4), "2", Fraction(-1, 3), 0).n == 2),
    "RnmParams.m": (Fraction(1, 2), lambda: RnmParams(0, 0, 0, Fraction(1, 2)),
                    lambda: RnmParams(0, 0, 0, Fraction(3)).m == 3),
    "weight_of_monomial": (1.5, lambda: weight_of_monomial(BN, (1.5, 0)),
                           lambda: weight_of_monomial(BN, ("1", 0.0)) == 4),
    "linear_forms": (0.9, lambda: linear_forms(BN, 1, 1, (0.9, 1.2)),
                     lambda: linear_forms(BN, 1, 1, (0.0, "1")) == linear_forms(BN, 1, 1, (0, 1))),
    "SparsePoly": (1.5, lambda: SparsePoly(("x",), {(1.5,): 1}),
                   lambda: str(SparsePoly(("x",), {(2.0,): 1})) == "x^2"),
    "membership": (3.5, lambda: membership((2, 3.5), 5),
                   lambda: membership(("2", 3.0), 5) == (True, (1, 1))),
    "vanishing_integral_check": (1.5, lambda: vanishing_integral_check(1.5, -0.25, 1.0),
                                 lambda: vanishing_integral_check(1.0, -0.25, 1.0) is not None),
    "membership.s": (5.5, lambda: membership((2, 3), 5.5),
                     lambda: membership((2, 3), 5.0) == (True, (1, 1))),
    "canonical_representation": (13.5, lambda: canonical_representation(BN, 13.5),
                                 lambda: canonical_representation(BN, 13.0) == (1, 1)),
    "candidate_pole.i": (1.5, lambda: candidate_pole(BN, 1.5, 0),
                         lambda: candidate_pole(BN, 1.0, 0) == candidate_pole(BN, 1, 0)),
    "candidate_pole.nu": (2.5, lambda: candidate_pole(BN, 1, 2.5),
                          lambda: candidate_pole(BN, 1, "2") == candidate_pole(BN, 1, 2)),
    "branch_report.nu_max": (40.5, lambda: branch_report("4,9", nu_max=40.5),
                             lambda: branch_report("4,9", nu_max=40.0).ladder_lengths == (41,)),
    "bell_polynomial": (3.5, lambda: bell_polynomial(3.5, 1, (1, 1, 1)),
                        lambda: bell_polynomial(3.0, "1", (1, 1, 1)) == 1),
    "hypergeom_sum_at_1": (2.5, lambda: hypergeom_sum_at_1(1, 1, 3, 2.5),
                           lambda: (hypergeom_sum_at_1(1, 1, 3, 2.0)
                                    == hypergeom_sum_at_1(1, 1, 3, 2))),
    "deformation_family": (40.5, lambda: deformation_family(BN, 40.5),
                           lambda: type(deformation_family(BN, 40.0).weight_cutoff) is int),
}


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_call_site_refuses_a_non_integral_number(site):
    value, refused, converted = CALL_SITES[site]
    with pytest.raises(ValueError, match=f"^{value} is not an integer$"):
        refused()
    assert converted()


def test_exact_int():
    cases = (("4", 4), (" -7 ", -7), (7.0, 7), (Fraction(6, 2), 3), (True, 1), (-0.0, 0))
    for value, want in cases:
        got = exact_int(value)
        assert got == want and type(got) is int
    for value in (9.7, -0.5, Fraction(3, 2), 1e-300):
        with pytest.raises(ValueError, match=f"^{value} is not an integer$"):
            exact_int(value)
    with pytest.raises(ValueError):
        exact_int("4.5")  # int() refuses the text itself


def test_random_charseq_without_a_draw_raises_at_once():
    for max_n, max_beta in ((12, 2), (1, 400)):
        with pytest.raises(ValueError, match="no characteristic sequence"):
            random_charseq(random.Random(0), max_n=max_n, max_beta=max_beta)
    assert random_charseq(random.Random(0), max_n=2, max_beta=3) == (2, (3,))


def test_membership_refuses_a_non_positive_generator():
    for gens in ((0, 3), (4, -6), ()):
        with pytest.raises(ValueError, match=r"need positive generators, got \("):
            membership(gens, 5)
