"""The record contract: every public record is an immutable namedtuple
class with the fields below, assigning to a field raises AttributeError, a
record converts to a dict by _asdict() and is changed by _replace(), and a
validated record converts and raises in its constructor as before, and
again in _replace()."""

import math
from fractions import Fraction
from importlib import import_module

import pytest

import branchzeta
from branchzeta.branch import derive_numerics, validate_plane_semigroup
from branchzeta.curves import deformation_family
from branchzeta.errors import DomainError, InvalidCharSeq, NotPlaneBranchSemigroup
from branchzeta.gammaratio import gamma_pair
from branchzeta.poles import PoleStatus, branch_report, candidate_pole

# each public record's fields, in order; those in WITH_DICT keep an instance
# __dict__ for their cached properties, the others have __slots__ = ()
FIELDS = {
    "CharSeq": ("n", "betas"),
    "ConditionCheck": ("name", "passed", "detail", "witness"),
    "ValidationReport": ("gens", "conditions"),
    "PlaneSemigroup": ("gens",),
    "BranchNumerics": ("cs", "gens", "e", "nn", "mm", "qq", "mbar", "conductor", "steps",
                       "ladders", "den"),
    "ToricStep": ("i", "n", "q", "a", "b", "c", "d"),
    "DivisorNumerics": ("i", "N_rupture", "k_rupture_plus1", "N_deadend", "k_deadend_plus1"),
    "CandidatePole": ("i", "nu", "sigma", "eps1", "eps2", "eps3", "status"),
    "EigenvalueAnalysis": ("den", "order"),
    "Resonance": ("sigma", "occurrences"),
    "BranchReport": ("input_text", "kind", "bn", "nu_max"),
    "MeromorphicValue": ("order", "value", "reason"),
    "RnmParams": ("alpha", "n", "beta", "m", "lam"),
    "QuadConfig": ("rel_tol",),
    "DeformationTerm": ("parameter", "level", "exponents", "weight", "monomial", "coefficient"),
    "DeformationFamily": ("bn", "base", "terms", "lambdas", "weight_cutoff"),
}
WITH_DICT = {"BranchReport"}


def instances() -> dict:
    rep = branch_report("4,6,7")
    bn = rep.bn
    fam = deformation_family(derive_numerics(branchzeta.CharSeq(4, (9,))), 38,
                             coefficient_source=1)
    report = validate_plane_semigroup((4, 6, 13))
    return {
        "CharSeq": bn.cs, "ConditionCheck": report.conditions[0], "ValidationReport": report,
        "PlaneSemigroup": branchzeta.PlaneSemigroup((4, 6, 13)), "BranchNumerics": bn,
        "ToricStep": bn.steps[0], "DivisorNumerics": rep.divisors[0], "Ladder": bn.ladders[0],
        "CandidatePole": candidate_pole(bn, 1, 0), "EigenvalueAnalysis": rep.eigenvalues,
        "Resonance": rep.resonances[0], "BranchReport": rep,
        "MeromorphicValue": gamma_pair(Fraction(1, 2), Fraction(1, 2)),
        "RnmParams": branchzeta.RnmParams(Fraction(-1, 4), 0, Fraction(-1, 3), 0),
        "QuadConfig": branchzeta.QuadConfig(), "DeformationTerm": fam.terms[0],
        "DeformationFamily": fam,
    }


RECORDS = instances()


def test_every_record_is_a_namedtuple_with_its_fields():
    from branchzeta.poles import Ladder

    assert Ladder._fields == ("i", "r", "N", "n", "mbar", "e", "a", "D", "c2")
    for name, fields in FIELDS.items():
        record = RECORDS[name]
        cls = type(record)
        assert cls.__name__ == name and getattr(import_module(cls.__module__), name) is cls
        assert isinstance(record, tuple) and record._fields == fields, name
        assert record._asdict() == {f: getattr(record, f) for f in fields}, name
        assert hasattr(record, "__dict__") == (name in WITH_DICT), name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_a_field_raises_attribute_error(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_eigenvalue_analysis_is_hashable_and_holds_no_list():
    """A report caches its EigenvalueAnalysis, so no caller can change its order in place."""
    eig = branch_report("6,9,22").eigenvalues
    assert type(eig.order) is tuple and all(type(k) is int for k in eig.order)
    assert hash(eig) == hash(branch_report("6,9,22").eigenvalues)


def test_cached_properties_keep_their_values_on_the_instance():
    rep = branch_report("4,9")
    assert rep.yano is rep.yano and "yano" in vars(rep)


def test_candidate_pole_holds_the_values_of_its_row():
    bn = branch_report("4,9").bn
    lad = bn.ladders[0]
    t, e1, e2, code = lad.row(3)
    assert code == 1  # the dead end excludes
    assert candidate_pole(bn, 1, 3) == (
        1, 3, Fraction(-t, lad.N), Fraction(e1, lad.n), Fraction(e2, lad.mbar),
        lad.e * Fraction(-t, lad.N), PoleStatus.EXCLUDED_DEADEND)


def test_charseq_converts_and_raises():
    cs = branchzeta.CharSeq("4", ["6", 7.0])
    assert cs == (4, (6, 7)) and type(cs.n) is int and type(cs.betas) is tuple
    assert cs.g == 2 and str(cs) == "(4,6,7)"
    for n, betas, message in [
        (1, (3,), "multiplicity n = 1 must be >= 2"),
        (4, (), "at least one characteristic exponent required (g >= 1)"),
        (4, (6, 6), "entries must increase strictly: beta_2 = 6 <= 6"),
        (4, (8, 9), "gcd chain stalls: e_0 = 4 divides beta_1 = 8"),
        (4, (6,), "gcd chain must end at 1, got e_g = 2"),
    ]:
        with pytest.raises(InvalidCharSeq) as info:
            branchzeta.CharSeq(n, betas)
        assert info.value.reason == message
    with pytest.raises(ValueError):
        branchzeta.CharSeq(4, ("x",))
    with pytest.raises(InvalidCharSeq):
        cs._replace(betas=(6,))


def test_plane_semigroup_converts_and_raises():
    sg = branchzeta.PlaneSemigroup(["4", 6, 13])
    assert sg.gens == (4, 6, 13) and sg.g == 2
    with pytest.raises(NotPlaneBranchSemigroup) as info:
        branchzeta.PlaneSemigroup((4, 6, 12))
    assert info.value.failed_condition.startswith("gcd-one: ")
    assert [c.name for c in info.value.conditions][:2] == ["structure", "gcd-one"]
    with pytest.raises(NotPlaneBranchSemigroup):
        sg._replace(gens=(4, 6))


def test_rnm_params_converts_and_raises():
    p = branchzeta.RnmParams("-1/4", "2", -0.5, 3.0, 2)
    assert p == (Fraction(-1, 4), 2, Fraction(-1, 2), 3, 2) and type(p.m) is int
    assert type(p.lam) is int  # lambda is checked, and stored as given
    assert branchzeta.RnmParams(0.1, 0, 0, 0).alpha == Fraction(0.1)  # a float's binary value
    assert branchzeta.RnmParams(0, 0, 0, 0).lam == 1.0
    with pytest.raises(TypeError):
        branchzeta.RnmParams(1j, 0, 0, 0)
    for lam in (0, math.nan, math.inf, complex(math.inf, 1)):
        with pytest.raises(DomainError, match="lambda must be finite and nonzero"):
            branchzeta.RnmParams(0, 0, 0, 0, lam)
    with pytest.raises(DomainError, match="over the bound of 524288 bits"):
        branchzeta.RnmParams("1e10000000", 0, 0, 0)
    with pytest.raises(DomainError):
        p._replace(lam=0)


def test_quad_config_raises():
    assert branchzeta.QuadConfig().rel_tol == 1e-5
    assert branchzeta.QuadConfig(rel_tol=1e-3)._replace(rel_tol=0.5) == (0.5,)
    for rel_tol in (0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="rel_tol must be positive and finite"):
            branchzeta.QuadConfig(rel_tol)
    with pytest.raises(DomainError):
        branchzeta.QuadConfig()._replace(rel_tol=0)


def test_toric_step_asserts_its_identities():
    good = (1, 2, 3, 1, 2, 1, 1)  # i, n, q, a, b, c, d
    assert branchzeta.ToricStep(*good) == good
    for k in range(1, 7):
        bad = list(good)
        bad[k] += 1
        with pytest.raises(AssertionError):
            branchzeta.ToricStep(*bad)
    with pytest.raises(AssertionError):
        branchzeta.ToricStep(*good)._replace(a=0)


def test_divisor_numerics_asserts_its_multiplicities():
    good = (1, 6, 5, 3, 2)  # i, N_rupture, k_rupture_plus1, N_deadend, k_deadend_plus1
    assert branchzeta.DivisorNumerics(*good)._asdict()["N_deadend"] == 3
    for bad in ((1, 7, 5, 3, 2), (1, 6, 0, 3, 2), (1, 6, 5, 3, 0)):
        with pytest.raises(AssertionError):
            branchzeta.DivisorNumerics(*bad)


def test_meromorphic_value_asserts_its_order():
    assert branchzeta.MeromorphicValue(1, None, ()).value is None
    assert branchzeta.MeromorphicValue(-2, 0j, ()).value == 0
    assert branchzeta.MeromorphicValue(0, 1.5j, (("Gamma(u)", 0),)).order == 0
    for order, value in ((1, 0j), (-1, 1j)):
        with pytest.raises(AssertionError):
            branchzeta.MeromorphicValue(order, value, ())
    with pytest.raises(AssertionError):
        branchzeta.MeromorphicValue(1, None, ())._replace(value=2j)
