"""Command-line front end.

Four subcommands: analyze (full invariant report for a branch), residue
(one kernel evaluation), verify (the rows of the self-checks in `checks`,
TSV by default), and generate (curve equations and deformation families).

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
  written.  The parser is built once per process, and main reads the
  command function off the module when it runs.
* analyze writes its candidates in every format from one loop over the
  integer ladders, _candidate_cells; text writes each Pi and Yano line from
  the counts, so it keeps no exponent text.

At module level this file imports only the standard library and `errors`.
Each command imports the layers it runs in its own body and calls them as
module attributes: analyze loads `poles` (with `branch` and `toric`),
residue `gammaratio`, generate `branch` and `curves`, and verify `checks`,
whose suites load their own layers (rnm and vanishing numpy too).  verify
states no law: it checks --tol, runs the suites asked for, writes the rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii
from math import gcd, inf

from .errors import BranchZetaError, DomainError, InvalidCharSeq, NotPlaneBranchSemigroup


class _SyntaxError(Exception):
    """Raised in place of argparse's sys.exit(2) so main can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _SyntaxError(message)


def _ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, printed as str(Fraction) prints it."""
    g = gcd(num, den)
    return f"{num // g}{_DEN_TEXT[den // g]}"


class _DenText(dict):
    """The "/d" text of a denominator d, "" for d = 1, made on first use."""
    def __missing__(self, d: int) -> str:
        text = self[d] = f"/{d}" if d != 1 else ""
        return text


_DEN_TEXT = _DenText()
_CHUNK_LINES = 512  # lines joined into one stdout write
_MAX_DIGITS = 4300  # Python's default limit on the digits str() writes of an int


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


# a candidate record's keys in row order, which the TSV header and the text
# heading read; its TSV line is made from its cells, its text line from its record
_CANDIDATE_FIELDS = ("i", "nu", "sigma", "eps1", "eps2", "eps3", "status")
_CANDIDATE_TSV = "%d\t%d\t%d%s\t%d%s\t%d%s\t%d%s\t%s"
_CANDIDATE_TEXT = "  %(i)12s %(nu)12s %(sigma)12s %(eps1)12s %(eps2)12s %(eps3)12s  %(status)s"


def _candidate_cells(rep) -> Iterator[tuple]:
    """The cells of every candidate, ladder by ladder, from one Ladder.rows
    pass per ladder with four gcds a row and no Fraction: i, nu, the
    numerator and "/d" text (_DEN_TEXT) of sigma = -t/N, eps1, eps2 and
    eps3 = -t/(n mbar) in lowest terms, and the status text."""
    from .poles import PoleStatus

    status_text, den = tuple(s.value for s in PoleStatus), _DEN_TEXT
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        i, N, n, mbar = lad.i, lad.N, lad.n, lad.mbar
        nm = n * mbar
        for nu, (t, e1, e2, status) in enumerate(lad.rows(0, hi, status_text)):
            g, g1, g2, h = gcd(t, N), gcd(e1, n), gcd(e2, mbar), gcd(t, nm)
            yield (i, nu, -t // g, den[N // g], e1 // g1, den[n // g1], e2 // g2,
                   den[mbar // g2], -t // h, den[nm // h], status)


def _candidate_records(rep) -> Iterator[dict]:
    """The JSON record of every candidate, one dict display of its cells."""
    return ({"i": i, "nu": nu, "sigma": f"{sigma}{sigma_den}", "eps1": f"{eps1}{eps1_den}",
             "eps2": f"{eps2}{eps2_den}", "eps3": f"{eps3}{eps3_den}", "status": status}
            for i, nu, sigma, sigma_den, eps1, eps1_den, eps2, eps2_den, eps3, eps3_den, status
            in _candidate_cells(rep))


def report_to_dict(rep) -> dict:
    bn, pi, eig = rep.bn, rep.pi_merged, rep.eigenvalues
    den = bn.den  # every exponent multiset of the report counts over it
    # Pi's record of each exponent, made once: Yano and Pi_1 (g = 1) are this
    # list where they equal Pi, the eigenvalue classes list its dicts, and the
    # other exponent lists read each text off it where it has one
    record = {k: {"exponent": _ratio(k, den), "multiplicity": m} for k, m in pi.sorted_counts()}
    pi_records = list(record.values())

    def records(ms) -> list[dict]:
        if ms == pi:
            return pi_records
        return [{"exponent": record[k]["exponent"] if k in record else _ratio(k, den),
                 "multiplicity": m} for k, m in ms.sorted_counts()]

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
        "toric_steps": [s._asdict() for s in rep.bn.steps],
        "divisors": [d._asdict() for d in rep.divisors],
        "candidates": list(_candidate_records(rep)),
        "pi": pi_records,
        "pi_levels": list(map(records, rep.pi_sets)),
        "yano": records(rep.yano),
        "eigenvalues": {
            "distinct": rep.distinct,
            # a class's fraction is its exponents' fractional part, often one of them
            "classes": [
                {"fraction": record[frac]["exponent"] if frac in record else _ratio(frac, den),
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
    yield from map(_CANDIDATE_TEXT.__mod__, _candidate_records(rep))
    for head, ms in ((f"pi ({rep.pi_merged.total} exponents with multiplicity):", rep.pi_merged),
                     ("yano:", rep.yano)):
        yield head
        for k, m in ms.sorted_counts():
            yield f"  {_ratio(k, ms.den):>12} x{m}"
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
        return 0, chain(["\t".join(_CANDIDATE_FIELDS)],
                        map(_CANDIDATE_TSV.__mod__, _candidate_cells(rep)))
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


def _cell(value) -> str:
    """A verify row's value as written: complex as residue writes it, a float in 7 digits."""
    return (_fmt_cx(value) if isinstance(value, complex)
            else f"{value:.6e}" if isinstance(value, float) else str(value))


def cmd_verify(ns) -> tuple[int, Iterable[str]]:
    from . import checks

    if not 0 < ns.tol < inf:
        raise DomainError("tol must be positive and finite")
    rows = []
    if ns.suite in ("rnm", "all"):
        rows += checks.rnm_rows(ns.tol, ns.rel_tol)
    if ns.suite in ("combinatorics", "all"):
        rows += checks.combinatorics_rows()
    if ns.suite in ("vanishing", "all"):
        rows += checks.vanishing_rows()
    rows = [(c, _cell(e), _cell(g), r, ok) for c, e, g, r, ok in rows]
    failures = [c for c, *_, ok in rows if not ok]
    for c in failures:
        print(f"FAILED {c}", file=sys.stderr)
    rc = 3 if failures else 0
    if ns.format == "json":
        return rc, [canonical_json({"suite": ns.suite, "passed": not failures, "rows": [
            {"case": c, "expected": e, "got": g, "relerr": r, "pass": ok}
            for c, e, g, r, ok in rows]})]
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

    flag = next((f for f in ("cutoff", "seed", "lambdas") if getattr(ns, f) is not None), None)
    if flag and not ns.deform:
        raise ValueError(f"--{flag} needs --deform")
    text, kind, cs = branch.resolve_input(ns.input)
    bn = branch.derive_numerics(cs)
    plane = curves.plane_equation(bn)
    hs = curves.monomial_curve_equations(bn)
    fam = None
    fiber = None
    if ns.deform:
        fam = curves.deformation_family(
            bn,
            weight_cutoff=ns.cutoff,
            lambdas=ns.lambdas,
            coefficient_source=ns.seed,
        )
        if ns.seed is not None:
            fiber = fam.instantiate()
    # every coefficient the format prints, sized before the first line: tsv and text stream
    polys, values = [plane, *hs, *([] if fiber is None else [fiber])], []
    if fam is not None:
        values = [t.coefficient for t in fam.terms if t.coefficient is not None]
        if ns.format != "tsv":  # text and json also print the lambdas and the monomials
            values += fam.lambdas
            polys += [t.monomial for t in fam.terms]
        if ns.format == "json":
            polys.append(fam.base)
    _check_printable(chain(values, *(p.terms.values() for p in polys)))

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


def _check_printable(values) -> None:
    """DomainError when str() of a Fraction of values would pass the 4300
    digits that Python writes of an int (its default limit), checked as
    num or den >= 10^4300 without building the text."""
    bound = 10 ** _MAX_DIGITS
    for v in values:
        if abs(v.numerator) >= bound or v.denominator >= bound:
            big = max(abs(v.numerator), v.denominator)
            raise DomainError(f"a coefficient of about {big.bit_length() * 3 // 10} digits,"
                              f" over the bound of {_MAX_DIGITS} digits that str() writes")


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
    # rational syntax accepted for convenience, sized as --alpha is; the scale is a float/complex
    from .gammaratio import _rational

    try:
        return float(_rational(text))
    except ValueError:
        return complex(text)


def _lambdas(text: str) -> list[Fraction]:
    # sized as --alpha is, against the _MAX_DIGITS that str() writes of an int
    # (Python's limit), 10/3 bits a digit: the writers print each value
    from .gammaratio import _rational

    return [_rational(v, _MAX_DIGITS * 10 // 3 + 1) for v in text.split(",")] if text else []


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
    p.add_argument("--nu-max", type=int, default=None,
                   help="only extends each period 0 <= nu < n_i*betabar_i, up to nu_max")
    add_format(p, "text")

    p = sub.add_parser("residue", help="evaluate one residue kernel value")
    p.add_argument("--alpha", required=True)  # RnmParams sizes, then converts
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", required=True)  # RnmParams sizes, then converts
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
    p.add_argument("--lambdas", type=_lambdas, default=None,
                   help="comma-separated values for levels 2..g")
    add_format(p, "text")

    return parser


def main(argv=None) -> int:
    argv = _merge_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        ns = build_parser().parse_args(argv)
    except (_SyntaxError, ArithmeticError, DomainError) as exc:
        # a number Fraction or float cannot convert (1/0, 1e400), or too long to build
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
