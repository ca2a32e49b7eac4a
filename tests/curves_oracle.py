"""The plane recursion of branchzeta.curves as it was before each level
became one sum, kept as an oracle:

* product, coeff * prod f_l^{k_l} with every power f_l^k made again for
  each term;
* plane_recursion, f_{i+1} = f_i^{n_i} - lambda_i * prod(f_l^{rep_l}),
  then each deformation term of level i added to it one at a time, the
  terms handed over as a level -> (exponent vector, coefficient) mapping;
* instantiate, a family's fiber through that mapping, built by level as
  DeformationFamily.instantiate built it.

Only canonical_representation is read from the code under test.

It also keeps the generate command's JSON payload as it was built before
its polynomial records were written by template, as dicts for json.dumps:

* poly_dict, a polynomial's {text, variables, terms} record;
* generate_payload, the whole payload, each deformation term the dict of
  its DeformationTerm fields with its monomial and coefficient replaced.
"""

from branchzeta.branch import canonical_representation
from branchzeta.curves import SparsePoly


def canonical_exponents(bn, i):
    """The exponent vector below level i of the weight n_i betabar_i."""
    return canonical_representation(bn, bn.nn[i] * bn.gens[i])[:i]


def product(fs, exps, coeff=1):
    """coeff * prod f_l^{k_l} in C[x, y] for the exponent vector k."""
    out = SparsePoly.monomial(("x", "y"), (0, 0), coeff)
    for f, k in zip(fs, exps):
        out = out * f**k
    return out


def plane_recursion(bn, lambdas, level_terms={}):
    """Every f_0, .., f_{g+1}, each level summed one term at a time."""
    names = ("x", "y")
    fs = [SparsePoly.variable(names, "x"), SparsePoly.variable(names, "y")]
    for i in range(1, bn.g + 1):
        nxt = fs[i] ** bn.nn[i] - lambdas[i - 1] * product(fs, canonical_exponents(bn, i))
        for exps, coeff in level_terms.get(i, ()):
            nxt = nxt + product(fs, exps, coeff)
        fs.append(nxt)
    return fs


def instantiate(fam, values=()):
    """The fiber of fam with the given coefficients by exponent vector,
    a stored coefficient kept and an omitted symbolic one zero."""
    values = dict(values)
    by_level = {}
    for t in fam.terms:
        given = values.pop(t.exponents, 0)
        coeff = given if t.coefficient is None else t.coefficient
        if coeff:
            by_level.setdefault(t.level, []).append((t.exponents, coeff))
    assert not values, values
    return plane_recursion(fam.bn, [1, *fam.lambdas], by_level)[-1]


def poly_dict(p):
    """p's JSON record: its text, variables and terms in canonical order."""
    return {
        "text": str(p),
        "variables": list(p.variables),
        "terms": [
            {"exponents": list(e), "coefficient": str(c)}
            for e, c in p.canonical_terms()
        ],
    }


def generate_payload(text, kind, plane, hs, fam=None, fiber=None):
    """The JSON payload of generate for its input text and kind, plane
    equation, monomial curve equations hs, deformation family and fiber."""
    payload = {
        "input": {"text": text, "kind": kind},
        "plane": poly_dict(plane),
        "monomial_curve": [poly_dict(h) for h in hs],
        "deformation": None,
    }
    if fam is not None:
        payload["deformation"] = {
            "cutoff": fam.weight_cutoff,
            "lambdas": list(map(str, fam.lambdas)),
            "base": poly_dict(fam.base),
            "terms": [
                {**t._asdict(), "monomial": poly_dict(t.monomial),
                 "coefficient": None if t.coefficient is None else str(t.coefficient)}
                for t in fam.terms
            ],
            "fiber": None if fiber is None else poly_dict(fiber),
        }
    return payload
