"""Command-line front end.

Four subcommands: analyze (full invariant report for a branch), residue
(one kernel evaluation), verify (self-checking suites with a TSV table),
and generate (curve equations and deformation families).

Output conventions, kept byte-stable for golden tests:
* JSON is canonical: sorted keys, two-space indent, rationals as "p/q"
  strings in lowest terms, complex numbers as {"re":, "im":} objects;
  parsing emitted JSON and re-serializing it reproduces the bytes.  An
  analyze report makes the record of each exponent of Pi once; the sections
  that list the same exponents share it, and the writer converts a list
  that comes up again once.
* Exit codes: 0 success, 1 input syntax error, 2 domain validation
  failure, 3 verification failure. A reader that closes stdout early
  changes neither the exit code nor stderr, and gets no traceback.
* Results go to stdout, diagnostics to stderr. Each command writes its
  stderr lines, then returns its exit code and stdout lines for main to
  write, 512 lines to a write; TSV and text lines are generated as they are
  written, the candidate TSV lines straight from the integer ladders through
  one %-template per ladder.  The parser is built once per process, and main
  reads the command function off the module when it runs.

At module level this file imports only the standard library and `errors`.
Each command imports the layers it runs in its own body and calls them as
module attributes: analyze loads `poles` (with `branch` and `toric`),
residue `gammaratio`, generate `branch` and `curves`, and verify `branch`
and `poles` for combinatorics, `gammaratio` and `quadrature` (so numpy)
for rnm, and `quadrature` for vanishing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import accumulate, chain, islice, starmap
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Iterable, Iterator

from .errors import BranchZetaError, DomainError, InvalidCharSeq, NotPlaneBranchSemigroup


class _SyntaxError(Exception):
    """Raised in place of argparse's sys.exit(2) so main can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _SyntaxError(message)


def _ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, printed as str(Fraction) prints it."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class _DenText(dict):
    """The "/d" text of a denominator d, "" for d = 1, made on first use."""
    def __missing__(self, d: int) -> str:
        text = self[d] = f"/{d}" if d != 1 else ""
        return text


_DEN_TEXT = _DenText()
_CHUNK_LINES = 512  # lines joined into one stdout write


def _cx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _fmt_cx(z: complex) -> str:
    return f"{z.real:.12e}{z.imag:+.12e}i"


def _float_text(x: float) -> str:
    s = float.__repr__(x)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(s, s)


# JSON text of each scalar type, keyed by exact type as json.dumps writes it
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


@functools.lru_cache(maxsize=256)
def _dict_template(keys: tuple, ind: str):
    """(%-template, sorted keys) of a dict with these keys whose lines after
    the first start with ind; None when a key is not a str."""
    if not all(type(k) is str for k in keys):
        return None
    order = sorted(keys)
    inner = ind + "  "
    fields = (inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in order)
    return "{" + ",".join(fields) + ind + "}", order


def _column(values: list, ind: str, memo: dict) -> list[str]:
    """The JSON text of each of values, its lines after the first starting
    with ind (a newline and the indentation).  A column of one type and
    shape is converted at once: scalars by one map, dicts with one key set
    through one template whose fields are the columns of their keys, lists
    (or tuples) through the column of all their items.  memo keeps the text
    of each non-empty list or tuple written as a single value by id(); where
    the same object comes up again, that text is re-indented by one replace
    of its leading indentation (JSON text never holds a raw newline inside a
    string)."""
    if len(values) == 1 and id(values[0]) in memo:
        text, at = memo[id(values[0])]
        return [text if at == ind else text.replace(at, ind)]
    kinds = set(map(type, values))
    t = kinds.pop() if len(kinds) == 1 else None
    if t in _SCALAR_TEXT:
        return list(map(_SCALAR_TEXT[t], values))
    inner = ind + "  "
    if t is dict and all(values):
        shapes = set(map(tuple, values))
        tpl = _dict_template(shapes.pop(), ind) if len(shapes) == 1 else None
        if tpl is not None:
            fmt, order = tpl
            fields = [_column([v[k] for v in values], inner, memo) for k in order]
            return list(map(fmt.__mod__, zip(*fields)))
    elif (t is list or t is tuple) and all(values):
        items = _column(list(chain.from_iterable(values)), inner, memo)
        ends = list(accumulate(map(len, values)))
        sep = "," + inner
        texts = ["[" + inner + sep.join(items[a:b]) + ind + "]" for a, b in zip([0, *ends], ends)]
        if len(values) == 1:
            memo[id(values[0])] = texts[0], ind
        return texts
    if len(values) != 1:  # mixed types or shapes: value by value
        return [_column([v], ind, memo)[0] for v in values]
    # an empty container, non-str keys, a subclass of a scalar type, anything
    # else: json.dumps decides; JSON text never holds a raw newline inside a
    # string
    return [json.dumps(values[0], sort_keys=True, indent=2).replace("\n", ind)]


def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), written
    without its pure-Python encoder: values of one shape are converted as
    one column, a dict of each shape through one cached template, and a list
    or tuple that obj holds more than once is converted once.  The memo lives for
    this call only, while obj keeps each id in it alive."""
    return _column([obj], "\n", {})[0]


def _poly_dict(p) -> dict:
    return {
        "text": str(p),
        "variables": list(p.variables),
        "terms": [
            {"exponents": list(e), "coefficient": str(c)}
            for e, c in p.canonical_terms()
        ],
    }


def _exponent_table(rep) -> tuple[int, dict[int, str]]:
    """(den, texts): the text in lowest terms of each exponent of Pi, keyed
    by its numerator over den = pi_merged.den.  Pi_i, Yano and the eigenvalue
    classes hold the same exponents, so each is made once per report."""
    den = rep.pi_merged.den
    return den, {k: _ratio(k, den) for k in rep.pi_merged.counts}


def _exponent_records(items, item_den: int, table) -> Iterator[dict]:
    """The {exponent, multiplicity} record of each (numerator over item_den,
    multiplicity) of items, the exponent's text read from the table, or made
    for a key that is not in it; lazily, so that text streams its lines."""
    den, texts = table
    scale, rem = divmod(den, item_den)
    assert rem == 0, "an exponent denominator that does not divide the table's"
    return ({"exponent": texts.get(k * scale) or _ratio(k, item_den), "multiplicity": m}
            for k, m in items)


def _candidate_record(i, nu, sigma, eps1, eps2, eps3, status) -> dict:
    """The JSON record of one row of _candidate_rows."""
    return {"i": i, "nu": nu, "sigma": sigma, "eps1": eps1, "eps2": eps2, "eps3": eps3,
            "status": status}


# the record's keys in row order, which the TSV header and the text heading read
_CANDIDATE_FIELDS = tuple(_candidate_record(*range(7)))


def _candidate_rows(rep):
    """(i, nu, sigma, eps1, eps2, eps3, status) of every candidate, the
    rationals as text in lowest terms made straight from the integer
    ladders: sigma = -t/N and eps3 = -t/(n mbar) share one gcd, since
    n mbar divides N."""
    from .poles import PoleStatus

    status_text = tuple(s.value for s in PoleStatus)  # in the order Ladder.rows indexes
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        i, N, n, mbar = lad.i, lad.N, lad.n, lad.mbar
        nm = n * mbar
        for nu, (t, e1, e2, status) in enumerate(lad.rows(0, hi, status_text)):
            g = gcd(t, N)
            h = gcd(g, nm)
            g1 = gcd(e1, n)
            g2 = gcd(e2, mbar)
            yield (i, nu,
                   str(-t // g) if g == N else f"{-t // g}/{N // g}",
                   str(e1 // g1) if g1 == n else f"{e1 // g1}/{n // g1}",
                   str(e2 // g2) if g2 == mbar else f"{e2 // g2}/{mbar // g2}",
                   str(-t // h) if h == nm else f"{-t // h}/{nm // h}",
                   status)


def _candidate_tsv(rep) -> Iterator[str]:
    """The TSV line of each row of _candidate_rows, formatted straight from
    the integers of Ladder.rows through one template per ladder."""
    from .poles import PoleStatus

    status_text, den = tuple(s.value for s in PoleStatus), _DEN_TEXT
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        N, n, mbar = lad.N, lad.n, lad.mbar
        nm, fmt = n * mbar, f"{lad.i}\t%d\t%d%s\t%d%s\t%d%s\t%d%s\t%s".__mod__
        for nu, (t, e1, e2, status) in enumerate(lad.rows(0, hi, status_text)):
            g, g1, g2, h = gcd(t, N), gcd(e1, n), gcd(e2, mbar), gcd(t, nm)
            yield fmt((nu, -t // g, den[N // g], e1 // g1, den[n // g1], e2 // g2,
                       den[mbar // g2], -t // h, den[nm // h], status))


def report_to_dict(rep) -> dict:
    bn, pi, eig = rep.bn, rep.pi_merged, rep.eigenvalues
    table = _exponent_table(rep)
    den, texts = table
    assert eig.den == den
    # Pi's record of each exponent, made once: Yano and Pi_1 (g = 1) are
    # this list where they equal Pi, and the eigenvalue classes list its dicts
    record = {k: {"exponent": texts[k], "multiplicity": m} for k, m in pi.sorted_counts()}
    pi_records = list(record.values())

    def records(ms) -> list[dict]:
        if ms == pi:
            return pi_records
        return list(_exponent_records(ms.sorted_counts(), ms.den, table))

    return {
        "input": {"text": rep.input_text, "kind": rep.kind},
        "numerics": {
            "n": bn.n,
            "g": bn.g,
            "betas": list(bn.cs.betas),
            "betabar": list(bn.gens),
            "e": list(bn.e),
            "nn": list(bn.nn),
            "mm": list(bn.mm),
            "qq": list(bn.qq),
            "mbar": list(bn.mbar),
            "conductor": bn.conductor,
        },
        "mu": bn.milnor,
        "lct": str(rep.lct),
        "toric_steps": [asdict(s) for s in rep.bn.steps],
        "divisors": [asdict(d) for d in rep.divisors],
        "candidates": list(starmap(_candidate_record, _candidate_rows(rep))),
        "pi": pi_records,
        "pi_levels": list(map(records, rep.pi_sets)),
        "yano": records(rep.yano),
        "eigenvalues": {
            "distinct": eig.distinct,
            # a class's fraction is its exponents' fractional part, often one of them
            "classes": [
                {"fraction": texts.get(frac) or _ratio(frac, den),
                 "members": [record[k] for k, _ in items]}
                for frac, items in eig.groups
            ],
        },
        "resonances": [
            {
                "sigma": str(r.sigma),
                "occurrences": [
                    {"i": i, "nu": nu, "status": st.value} for i, nu, st in r.occurrences
                ],
            }
            for r in rep.resonances
        ],
        "strict_transform": rep.strict_transform_poles,
        "verdict": rep.verdict,
    }


def _analyze_text(rep) -> Iterator[str]:
    bn = rep.bn
    yield f"input {rep.input_text} kind {rep.kind}"
    yield (
        f"n {bn.n}  g {bn.g}  betabar {','.join(map(str, bn.gens))}"
        f"  conductor {bn.conductor}  mu {bn.milnor}"
    )
    yield f"lct {rep.lct}"
    yield f"verdict {rep.verdict}"
    yield "toric steps:"
    for s in rep.bn.steps:
        yield f"  i={s.i} n={s.n} q={s.q} a={s.a} b={s.b} c={s.c} d={s.d}"
    yield "divisors:"
    for d in rep.divisors:
        yield (
            f"  i={d.i} rupture N={d.N_rupture} k+1={d.k_rupture_plus1}"
            f" deadend N={d.N_deadend} k+1={d.k_deadend_plus1}"
        )
    yield f"candidates ({', '.join(_CANDIDATE_FIELDS)}):"
    yield from map("  %12s %12s %12s %12s %12s %12s  %s".__mod__, _candidate_rows(rep))
    table = _exponent_table(rep)
    for head, ms in ((f"pi ({rep.pi_merged.total} exponents with multiplicity):", rep.pi_merged),
                     ("yano:", rep.yano)):
        yield head
        yield from map("  %(exponent)12s x%(multiplicity)d".__mod__,
                       _exponent_records(ms.sorted_counts(), ms.den, table))
    yield f"eigenvalues distinct: {str(rep.distinct).lower()}"
    for r in rep.resonances:
        where = ", ".join(f"(i={i}, nu={nu})" for i, nu, _ in r.occurrences)
        yield f"resonance sigma={r.sigma} at {where}"
    yield f"strict transform poles: {rep.strict_transform_poles}"


def _write_stdout(rc: int, lines: Iterable[str]) -> int:
    """Write each of lines and a newline to stdout, _CHUNK_LINES to a write,
    flush it and return rc; nothing else writes stdout.  A reader that closes
    stdout early changes neither rc nor stderr, fixed before this runs."""
    lines = iter(lines)
    try:
        while chunk := list(islice(lines, _CHUNK_LINES)):
            sys.stdout.write("\n".join(chunk) + "\n")
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped reading: send what is still buffered to devnull
        # so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return rc


def cmd_analyze(ns) -> tuple[int, Iterable[str]]:
    from . import poles

    rep = poles.branch_report(ns.input, nu_max=ns.nu_max)
    if ns.format == "json":
        return 0, [canonical_json(report_to_dict(rep))]
    if ns.format == "tsv":
        return 0, chain(["\t".join(_CANDIDATE_FIELDS)], _candidate_tsv(rep))
    return 0, _analyze_text(rep)


def _validation_failure(text: str, exc: Exception, fmt: str) -> list[str]:
    """The stdout lines of a failed validation; text and tsv write their
    heading to stderr first."""
    # a semigroup failure carries its whole validation report
    conditions = [
        {"name": c.name, "passed": c.passed, "detail": c.detail}
        for c in getattr(exc, "conditions", ())
    ] or [{"name": "charseq", "passed": False, "detail": str(exc)}]
    if fmt == "json":
        return [canonical_json({"error": "validation", "input": text, "conditions": conditions})]
    print(f"invalid input {text}", file=sys.stderr)
    return [f"{c['name']}\t{'ok' if c['passed'] else 'FAIL'}\t{c['detail']}" for c in conditions]


def cmd_residue(ns) -> tuple[int, Iterable[str]]:
    from . import gammaratio

    p = gammaratio.RnmParams(alpha=ns.alpha, n=ns.n, beta=ns.beta, m=ns.m, lam=ns.lam)
    out = gammaratio.rnm_closed_form(p)
    if ns.format == "json":
        value = None if out.value is None else _cx(out.value)
        reason = [{"factor": lbl, "order": k} for lbl, k in out.reason]
        return 0, [canonical_json({"order": out.order, "value": value, "reason": reason})]
    if ns.format == "tsv":
        val = "none" if out.value is None else _fmt_cx(out.value)
        reason = ",".join(f"{lbl}:{k}" for lbl, k in out.reason)
        return 0, ["\t".join(["order", "value", "reason"]),
                   "\t".join([str(out.order), val, reason])]
    return 0, [
        f"order {out.order}",
        "value " + ("none (pole)" if out.value is None else _fmt_cx(out.value)),
        "reason " + " ".join(f"{lbl}:{k:+d}" for lbl, k in out.reason),
    ]


GRID_PAIRS = (
    (Fraction(-3, 5), Fraction(-7, 10)),
    (Fraction(-2, 3), Fraction(-2, 3)),
    (Fraction(-11, 20), Fraction(-19, 20)),
)

# (alpha, n, beta, m, lam) of each symmetry check
SYMMETRY_CASES = (
    (Fraction(-3, 5), 1, Fraction(-7, 10), 0, 1.0),
    (Fraction(-3, 5), 0, Fraction(-3, 5), 0, 1.0),
    (Fraction(-1, 3), -2, Fraction(-5, 4), 1, 2.0),
)

VANISHING_CASES = (
    (1, Fraction(-1, 4), 1.0),
    (3, Fraction(-3, 4), 2.0),
    (-1, Fraction(1, 4), 1.5),
)

COMBINATORIC_CASES = ("2,3", "4,9", "4,6,7", "6,9,22")


def _suite_rnm(tol: float, rel_tol: float) -> Iterator[tuple[str, str, str, float, bool]]:
    from . import gammaratio, quadrature

    cfg = quadrature.QuadConfig(rel_tol=rel_tol)
    for (a, b) in GRID_PAIRS:
        for lam in (1.0, 2.0):
            p = gammaratio.RnmParams(alpha=a, n=0, beta=b, m=0, lam=lam)
            want = gammaratio.rnm_closed_form(p).value
            got = quadrature.rnm_quadrature(p, cfg)
            rel = abs(got - want) / abs(want)
            case = f"rnm(alpha={a},n=0,beta={b},m=0,lambda={lam:g})"
            yield case, _fmt_cx(want), _fmt_cx(got), rel, rel <= tol
    for params in SYMMETRY_CASES:
        p = gammaratio.RnmParams(*params)
        a, b = gammaratio.symmetry_pair(p)
        if a.order == 0 and b.order == 0:
            rel = abs(a.value - b.value) / max(abs(a.value), abs(b.value))
            exp_s, got_s = _fmt_cx(a.value), _fmt_cx(b.value)
        else:
            rel = 0.0 if a.order == b.order else float("inf")
            exp_s, got_s = f"order={a.order}", f"order={b.order}"
        case = (
            f"symmetry(alpha={p.alpha},n={p.n},beta={p.beta},m={p.m},"
            f"lambda={complex(p.lam).real:g})"
        )
        yield case, exp_s, got_s, rel, rel <= 1e-10


def _exact(case: str, expected, got) -> tuple[str, str, str, float, bool]:
    """The row of an exact check: relative error 0 when it passes, else inf."""
    ok = expected == got
    return case, str(expected), str(got), 0.0 if ok else float("inf"), ok


def _suite_combinatorics() -> Iterator[tuple[str, str, str, float, bool]]:
    from . import branch, poles
    from .poles import PoleStatus

    for text in COMBINATORIC_CASES:
        rep = poles.branch_report(text)
        bn = rep.bn
        yield _exact(f"pi-total({text})", bn.milnor, rep.pi_merged.total)
        yield _exact(
            f"pi-vs-yano({text})",
            "equal",
            "equal" if rep.pi_merged == rep.yano else "differ",
        )
        kept = [
            -c.sigma for c in rep.candidates if c.status is PoleStatus.POLE_CANDIDATE
        ]
        yield _exact(f"lct-min-pole({text})", rep.lct, min(kept))
        worst = max(
            abs(c.eps1 + c.eps2 + c.eps3 + c.nu + 2) for c in rep.candidates
        )
        yield _exact(f"sigma-relation({text})", Fraction(0), worst)
        # eps1 (eps2) is an integer exactly where the dead end (previous level) excludes
        for name, eps, own in (("deadend", "eps1", PoleStatus.EXCLUDED_DEADEND),
                               ("previous", "eps2", PoleStatus.EXCLUDED_PREVIOUS)):
            excluded = (own, PoleStatus.EXCLUDED_BOTH)
            ok = all((getattr(c, eps).denominator == 1) == (c.status in excluded)
                     for c in rep.candidates)
            yield _exact(f"integrality-{name}({text})", True, ok)
        # mu = 2 delta for a branch, delta counted as the semigroup's gaps
        yield _exact(f"conductor-eq-milnor({text})", bn.conductor, 2 * len(branch.gaps(bn)))
        class_total = sum(m for _, items in rep.eigenvalues.groups for _, m in items)
        yield _exact(f"eigenvalue-count({text})", bn.milnor, class_total)


def _suite_vanishing() -> Iterator[tuple[str, str, str, float, bool]]:
    from . import quadrature

    for n, alpha, R in VANISHING_CASES:
        res = quadrature.vanishing_integral_check(n, alpha, R)
        mass = quadrature.radial_mass(n, alpha, R)
        rel = abs(res) / mass
        case = f"vanishing(n={n},alpha={alpha},R={R:g})"
        yield case, "0", f"{abs(res):.6e}", rel, rel <= 1e-8
    out = quadrature.vanishing_symbolic_cancellation(Fraction(-1, 4))
    yield _exact("vanishing-symbolic(alpha=-1/4)", 0, out)


def cmd_verify(ns) -> tuple[int, Iterable[str]]:
    if not ns.tol > 0:
        raise DomainError("tol must be positive")
    rows: list[tuple[str, str, str, float, bool]] = []
    if ns.suite in ("rnm", "all"):
        rows += _suite_rnm(ns.tol, ns.rel_tol)
    if ns.suite in ("combinatorics", "all"):
        rows += _suite_combinatorics()
    if ns.suite in ("vanishing", "all"):
        rows += _suite_vanishing()
    failures = [c for c, *_, ok in rows if not ok]
    for c in failures:
        print(f"FAILED {c}", file=sys.stderr)
    rc = 3 if failures else 0
    if ns.format == "json":
        payload = {
            "suite": ns.suite,
            "passed": not failures,
            "rows": [
                {"case": c, "expected": e, "got": g, "relerr": r, "pass": ok}
                for c, e, g, r, ok in rows
            ],
        }
        return rc, [canonical_json(payload)]
    if ns.format == "text":
        width = max(len(c) for c, *_ in rows)
        return rc, [
            f"{'ok  ' if ok else 'FAIL'} {c:<{width}}  expected {e}  got {g}  relerr {r:.6e}"
            for c, e, g, r, ok in rows
        ]
    return rc, ["\t".join(["case", "expected", "got", "relerr"]),
                *("\t".join([c, e, g, f"{r:.6e}"]) for c, e, g, r, _ in rows)]


def cmd_generate(ns) -> tuple[int, Iterable[str]]:
    from . import branch, curves

    text, kind, cs = branch.resolve_input(ns.input)
    bn = branch.derive_numerics(cs)
    plane = curves.plane_equation(bn)
    hs = curves.monomial_curve_equations(bn)
    fam = None
    fiber = None
    if ns.deform:
        lambdas = None
        if ns.lambdas is not None:
            lambdas = [Fraction(v) for v in ns.lambdas.split(",")] if ns.lambdas else []
        fam = curves.deformation_family(
            bn,
            weight_cutoff=ns.cutoff,
            lambdas=lambdas,
            coefficient_source=ns.seed,
        )
        if ns.seed is not None:
            fiber = fam.instantiate()

    if ns.format == "json":
        payload = {
            "input": {"text": text, "kind": kind},
            "plane": _poly_dict(plane),
            "monomial_curve": [_poly_dict(h) for h in hs],
            "deformation": None,
        }
        if fam is not None:
            payload["deformation"] = {
                "cutoff": fam.weight_cutoff,
                "lambdas": [str(v) for v in fam.lambdas],
                "base": _poly_dict(fam.base),
                "terms": [
                    {
                        "parameter": t.parameter,
                        "level": t.level,
                        "exponents": list(t.exponents),
                        "weight": t.weight,
                        "monomial": _poly_dict(t.monomial),
                        "coefficient": None if t.coefficient is None else str(t.coefficient),
                    }
                    for t in fam.terms
                ],
                "fiber": None if fiber is None else _poly_dict(fiber),
            }
        return 0, [canonical_json(payload)]
    if ns.format == "tsv":
        return 0, _generate_tsv(plane, hs, fam, fiber)
    return 0, _generate_text(plane, hs, fam, fiber)


def _poly_rows(name: str, p) -> Iterator[str]:
    for e, c in p.canonical_terms():
        yield "\t".join([name, ",".join(map(str, e)), str(c)])


def _generate_tsv(plane, hs, fam, fiber) -> Iterator[str]:
    yield "\t".join(["object", "exponents", "coefficient"])
    yield from _poly_rows("plane", plane)
    for i, h in enumerate(hs, start=1):
        yield from _poly_rows(f"h{i}", h)
    if fam is not None:
        for t in fam.terms:
            coeff = t.parameter if t.coefficient is None else str(t.coefficient)
            yield "\t".join([t.parameter, ",".join(map(str, t.exponents)), coeff])
        if fiber is not None:
            yield from _poly_rows("fiber", fiber)


def _generate_text(plane, hs, fam, fiber) -> Iterator[str]:
    yield str(plane)
    for i, h in enumerate(hs, start=1):
        yield f"h{i} = {h}"
    if fam is not None:
        lam_s = ",".join(str(v) for v in fam.lambdas) or "-"
        yield f"deformation cutoff={fam.weight_cutoff} lambdas={lam_s}"
        for t in fam.terms:
            coeff = "symbolic" if t.coefficient is None else str(t.coefficient)
            yield (
                f"  {t.parameter} level={t.level} weight={t.weight}"
                f" monomial={t.monomial} coeff={coeff}"
            )
        if fiber is not None:
            yield f"fiber = {fiber}"


def _scalar(text: str):
    # rational syntax accepted for convenience; the scale is a float/complex
    try:
        return float(Fraction(text))
    except ValueError:
        return complex(text)


_VALUE_FLAGS = {"--alpha", "--beta", "--lambda", "--n", "--m", "--nu-max",
                "--cutoff", "--seed", "--tol", "--rel-tol", "--lambdas"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ["--alpha", "-3/5"] as ["--alpha=-3/5"].

    argparse treats a bare "-3/5" as an option string, so spaced negative
    values for known value flags are merged into the = form.
    """
    out, i = [], 0
    while i < len(argv):
        tok, nxt = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        merge = tok in _VALUE_FLAGS and nxt[:1] == "-" and (nxt[1:2].isdigit() or nxt[1:2] == ".")
        out.append(f"{tok}={nxt}" if merge else tok)
        i += 1 + merge
    return out


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process."""
    parser = _Parser(prog="branchzeta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default):
        p.add_argument("--format", choices=("json", "tsv", "text"), default=default)

    p = sub.add_parser("analyze", help="full invariant report for a branch")
    p.add_argument("input", help='"n,b1,..,bg" or "semigroup:g0,..,gg"')
    p.add_argument("--nu-max", type=int, default=None)
    add_format(p, "text")

    p = sub.add_parser("residue", help="evaluate one residue kernel value")
    p.add_argument("--alpha", type=Fraction, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=Fraction, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_scalar, default=1.0)
    add_format(p, "text")

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", choices=("rnm", "combinatorics", "vanishing", "all"), default="all")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--rel-tol", type=float, default=1e-5, help="quadrature target")
    add_format(p, "tsv")

    p = sub.add_parser("generate", help="curve equations and deformations")
    p.add_argument("input", help='"n,b1,..,bg" or "semigroup:g0,..,gg"')
    p.add_argument("--deform", action="store_true")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambdas", type=str, default=None,
                   help="comma-separated values for levels 2..g")
    add_format(p, "text")

    return parser


def main(argv=None) -> int:
    argv = _merge_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        ns = build_parser().parse_args(argv)
    except (_SyntaxError, ArithmeticError) as exc:
        # ArithmeticError: a number Fraction or float cannot convert (1/0, 1e400)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        # read at call time, so that a replaced cmd_* attribute is the one run
        return _write_stdout(*globals()[f"cmd_{ns.command}"](ns))
    except (InvalidCharSeq, NotPlaneBranchSemigroup) as exc:
        return _write_stdout(2, _validation_failure(ns.input, exc, ns.format))
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BranchZetaError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _write_stdout(2, [canonical_json({"error": "domain", "reason": str(exc)})])


if __name__ == "__main__":
    sys.exit(main())
