"""Command-line front end.

Four subcommands: analyze (full invariant report for a branch), residue
(one kernel evaluation), verify (the rows of the self-checks in `checks`,
TSV by default), and generate (curve equations and deformation families).

Output conventions, kept byte-stable for golden tests:
* JSON is canonical: sorted keys, two-space indent, rationals as "p/q"
  strings in lowest terms, complex numbers as {"re":, "im":} objects;
  parsing emitted JSON and re-serializing it reproduces the bytes.  One
  walker, _json_lines, sets every indentation and yields the text in pieces;
  analyze's row sections and generate's term records are _Rows, records
  made once as finished text at their depth, which the walker checks.
* Exit codes: 0 success, 1 input syntax error, 2 domain validation
  failure, 3 verification failure. A reader that closes stdout early
  changes neither the exit code nor stderr, and gets no traceback.
* Results go to stdout, diagnostics to stderr. Each command writes its
  stderr lines, then returns its exit code and stdout lines for main to
  write, _RUN lines to a write.  analyze makes its lines (JSON pieces in
  JSON) as they are written; generate makes every line (piece) before the
  first write, so a coefficient str() would refuse writes no line.  The
  parser is built once per process; main reads the command off the module.
* analyze writes its candidates in every format (TSV, text, JSON) as the
  finished lines of _candidate_lines, the one loop that steps a ladder;
  text writes each Pi and Yano line from Pi's counts, keeping no exponent text;
  JSON's classes are one pass over the class order, one member's record held.

At module level this file imports only the standard library and `errors`
(whose exact_rational sizes --lambda and --lambdas).  Each command imports
its layers in its body and calls them as module attributes: analyze `poles`
(with `branch`, `toric`), residue `gammaratio`, generate `branch` and
`curves`, verify `checks`, whose rnm suite loads `gammaratio` and `quadrature`
(numpy too), vanishing `quadrature` alone.  verify states no law: it checks
--tol, runs the suites asked for, writes the rows.

A process enters through entry(), both as `python -m branchzeta.cli` and as
the `branchzeta` script: where the environment sets none of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS, it sets
OPENBLAS_NUM_THREADS=1 before main runs, so numpy starts no BLAS thread
pool; any of them set by the caller is kept.  When main returns, entry
flushes stdout and stderr and ends the process with main's exit code
through os._exit, skipping the interpreter's teardown.  main itself changes
no environment variable and ends no process, so in-process callers see
neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from math import gcd, inf, isqrt
from operator import floordiv

from .errors import (MAX_BITS, BranchZetaError, DomainError, InvalidCharSeq,
                     NotPlaneBranchSemigroup, exact_rational)


class _SyntaxError(Exception):
    """Raised in place of argparse's sys.exit(2) so main can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _SyntaxError(message)


def _den_text(d: int) -> str:
    return f"/{d}" if d != 1 else ""


def _ratios(nums, den: int) -> Iterator[str]:
    """Each num/den of the sequence nums (den > 0) in lowest terms, as str(Fraction)
    prints it, made as read: C-level maps, a gcd a number, one _den_text a distinct gcd."""
    gs = list(map(gcd, nums, repeat(den)))
    dtext = {g: _den_text(den // g) for g in set(gs)}
    return map("%d%s".__mod__, zip(map(floordiv, nums, gs), map(dtext.__getitem__, gs)))


_RUN = 128  # records of a _Rows joined into one piece, and lines into one stdout write


def _fmt_cx(z: complex) -> str:
    return f"{z.real:.12e}{z.imag:+.12e}i"


class _Rows:
    """A lazy JSON list: each of lines is a record's finished JSON text,
    every line of it (the first too) written by its maker at the
    indentation inner, where the document places the list's records; an
    iterator is written once."""

    def __init__(self, inner: str, lines: Iterable[str]):
        self.inner, self.lines = inner, lines


def _json_lines(obj, ind: str, head: str, tail: str) -> Iterator[str]:
    """Pieces whose "\n".join is head, obj's JSON text as json.dumps(obj,
    sort_keys=True, indent=2) writes it with ind (spaces) before each line
    after the first, and tail.  A _Rows is _RUN records a piece, joined as
    written: one made for another depth than the walker's, or whose first
    record does not start at it, is a bug of its maker and raises
    AssertionError before any of its text is yielded.  json.dumps writes what
    is not an exact str, int, dict of str keys or non-empty list or tuple
    (floats, bools, None, [], IntEnum, ...)."""
    t, inner = type(obj), ind + "  "
    if t is _Rows:
        lines = iter(obj.lines)
        run = list(islice(lines, _RUN))
        if obj.inner != inner or run and len(run[0]) - len(run[0].lstrip(" ")) != len(inner):
            raise AssertionError(f"records made at {len(obj.inner)} spaces placed at {len(inner)}")
        yield head + ("[" if run else "[]" + tail)
        while run:
            text = ",\n".join(run)
            run = list(islice(lines, _RUN))
            yield text + "," if run else f"{text}\n{ind}]{tail}"
        return
    if t is dict and obj and all(type(k) is str for k in obj):
        items = [(f"{inner}{encode_basestring_ascii(k)}: ", obj[k]) for k in sorted(obj)]
    elif (t is list or t is tuple) and obj:
        items = [(inner, v) for v in obj]
    else:
        text = (encode_basestring_ascii(obj) if t is str else int.__repr__(obj) if t is int
                else json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + ind))
        yield head + text + tail
        return
    yield head + ("{" if t is dict else "[")
    for j, (h, v) in enumerate(items, 1 - len(items)):  # j = 0 on the last item
        yield from _json_lines(v, inner, h, "," if j else "")
    yield ind + ("}" if t is dict else "]") + tail


def canonical_json(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), joined from the
    pieces of _json_lines."""
    return "\n".join(_json_lines(obj, "", "", ""))


def _digit_limit() -> int:
    """The digits str() writes of an int, read now (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _printable(x) -> str:
    """str(x) of an int, Fraction or polynomial x, or DomainError where the
    numerator or denominator of a coefficient it prints reaches 10^L, L =
    _digit_limit(); 10^L is formed only for an integer over 3L bits."""
    bound = _digit_limit()
    for c in x.terms.values() if hasattr(x, "terms") else (x,):
        big = max(abs(c.numerator), c.denominator)
        if bound and big.bit_length() > 3 * bound and big >= 10**bound:
            raise DomainError(f"a coefficient of about {big.bit_length() * 3 // 10} digits,"
                              f" over the bound of {bound} digits that str() writes")
    return str(x)


# a candidate record's keys in row order, which the TSV header and the text heading read
_CANDIDATE_FIELDS = ("i", "nu", "sigma", "eps1", "eps2", "eps3", "status")


def _ints(e, ind: str) -> str:
    """A vector of ints as JSON text, the line of its key at indentation ind."""
    return f"[\n{ind}  " + f",\n{ind}  ".join(map(str, e)) + f"\n{ind}]" if e else "[]"


def _term(ind: str, c, e) -> str:
    """A polynomial term's record at indentation ind (a coefficient's str() needs no escape)."""
    return (f'{ind}{{\n{ind}  "coefficient": "{c}",\n{ind}  "exponents": '
            f'{_ints(e, ind + "  ")}\n{ind}}}')


def _poly_dict(p, inner: str) -> dict:
    """p's JSON record, its terms' records made at inner; str(p) is made first,
    so an oversized coefficient is refused before any term is written."""
    return {"text": _printable(p), "variables": p.variables,
            "terms": _Rows(inner, (_term(inner, c, e) for e, c in p.canonical_terms()))}


def _monomial(p, ind: str) -> str:
    """A deformation term's monomial as JSON text, the line of its key at indentation ind."""
    text = encode_basestring_ascii(_printable(p))
    terms = ",\n".join([_term(ind + "    ", c, e) for e, c in p.canonical_terms()])
    names = f",\n{ind}    ".join(map(encode_basestring_ascii, p.variables))
    return (f'{{\n{ind}  "terms": [\n{terms}\n{ind}  ],\n{ind}  "text": {text},'
            f'\n{ind}  "variables": [\n{ind}    {names}\n{ind}  ]\n{ind}}}')


def _candidate_lines(rep, fmt: str) -> Iterator[str]:
    """Each candidate's TSV line, text line or JSON record at 4 spaces (where
    report_to_dict places it) by fmt, from the one loop that steps a ladder,
    one frame a row and no Fraction: t, e1 and e2 stepped from Ladder.row(0)
    by 1, -a and -D give i, nu, sigma = -t/N, eps1, eps2, eps3 = -t/(n mbar)
    and the status.  row(0) checks the row identity at nu = 0, and the slope
    a mbar + D n + 1 = n mbar, checked once a ladder, carries it to every row;
    so gcd(t, n mbar) = g1 g2 = h, and each "/d" text is read off a gcd from
    per-ladder dicts, the status off h (gcd(n, mbar) = 1: g1 = n iff n | h).
    e = 1 makes eps3 sigma's text: 2 gcds a row, else 3 and a text more."""
    from .poles import PoleStatus

    status_text = tuple(s.value for s in PoleStatus)
    js, tsv = fmt == "json", fmt == "tsv"
    for lad, hi in zip(rep.bn.ladders, rep.ladder_lengths):
        i, N, n, mbar, a, D, one = lad.i, lad.N, lad.n, lad.mbar, lad.a, lad.D, lad.e == 1
        nm, (t, e1, e2, _) = n * mbar, lad.row(0)
        assert a * mbar + D * n + 1 == nm  # the row identity's slope
        divs = [q for d in range(1, isqrt(N) + 1) if N % d == 0 for q in (d, N // d)]
        dN, dn, dm, dnm = ({g: _den_text(M // g) for g in divs if M % g == 0}
                           for M in (N, n, mbar, nm))
        status = {h: status_text[(h % n == 0) + 2 * (h % mbar == 0)] for h in dnm}
        for nu in range(hi):
            h = (g1 := gcd(e1, n)) * (g2 := gcd(e2, mbar))  # gcd(t, n mbar)
            g = h if one else gcd(t, N)
            sig = f"{-t // g}{dN[g]}"
            e3 = sig if one else f"{-t // h}{dnm[h]}"
            if js:
                yield (f'    {{\n      "eps1": "{e1 // g1}{dn[g1]}",\n      "eps2": "{e2 // g2}'
                       f'{dm[g2]}",\n      "eps3": "{e3}",\n      "i": {i},\n      "nu": {nu},'
                       f'\n      "sigma": "{sig}",\n      "status": "{status[h]}"\n    }}')
            elif tsv:
                yield f"{i}\t{nu}\t{sig}\t{e1 // g1}{dn[g1]}\t{e2 // g2}{dm[g2]}\t{e3}\t{status[h]}"
            else:
                yield "  %12d %12d %12s %12s %12s %12s  %s" % (  # widths: % beats an f-string
                    i, nu, sig, f"{e1 // g1}{dn[g1]}", f"{e2 // g2}{dm[g2]}", e3, status[h])
            t, e1, e2 = t + 1, e1 - a, e2 - D


def report_to_dict(rep) -> dict:
    """The analyze report for _json_lines: small sections as values, row
    sections as _Rows of records made from the integers as they are written,
    at their depth, no dict a row (candidates, Pi, Yano, resonances at 4
    spaces, Pi levels and classes 6, occurrences 8, members 10; the classes in
    one pass over eig.order).  Yano is Pi, certified (rep.yano) before any line."""
    bn, counts, eig = rep.bn, rep.yano.counts, rep.eigenvalues  # rep.yano: Pi, certified
    den, keys = bn.den, sorted(counts)  # every exponent multiset of the report counts over den
    exp = dict(zip(keys, _ratios(keys, den)))  # each exponent's text, made once

    def at4() -> Iterator[str]:  # Pi's (Yano's) records
        return (f'    {{\n      "exponent": "{exp[k]}",\n      "multiplicity": '
                f'{counts[k]}\n    }}' for k in keys)

    def at6(c) -> Iterator[str]:  # a Pi level's records, its keys sorted when first read
        for k in sorted(c):
            yield f'      {{\n        "exponent": "{exp[k]}",\n        "multiplicity": {c[k]}\n      }}'

    def classes() -> Iterator[str]:  # one pass over the class order, a member's record a piece
        held, last, close = "", None, "\n        ]\n      }"  # held: the record last made
        for k in eig.order:
            head = ""
            if (f := k % den) != last:  # k opens a class; f outside Pi is reduced by _ratios' rule
                text = exp.get(f) or f"{f // (g := gcd(f, den))}{_den_text(den // g)}"
                last, head = f, f'      {{\n        "fraction": "{text}",\n        "members": [\n'
            if held:  # its class ends where k opens one
                yield held + close if head else held
            held = (f'{head}          {{\n            "exponent": "{exp[k]}",\n            '
                    f'"multiplicity": {counts[k]}\n          }}')
        if held:
            yield held + close

    def resonances() -> Iterator[str]:  # resonance records at 4 spaces, occurrences at 8
        for r in rep.resonances:
            occ = ",\n".join([f'        {{\n          "i": {i},\n          "nu": {nu},\n          '
                              f'"status": "{st.value}"\n        }}' for i, nu, st in r.occurrences])
            yield (f'    {{\n      "occurrences": [\n{occ}\n      ],\n'
                   f'      "sigma": "{r.sigma}"\n    }}')

    return {
        "input": {"text": rep.input_text, "kind": rep.kind},
        "numerics": {"n": bn.n, "g": bn.g, "betas": list(bn.cs.betas), "betabar": list(bn.gens),
                     "e": list(bn.e), "nn": list(bn.nn), "mm": list(bn.mm), "qq": list(bn.qq),
                     "mbar": list(bn.mbar), "conductor": bn.conductor},
        "mu": bn.milnor,
        "lct": str(rep.lct),
        "toric_steps": [s._asdict() for s in rep.bn.steps],
        "divisors": [d._asdict() for d in rep.divisors],
        "candidates": _Rows("    ", _candidate_lines(rep, "json")),
        "pi": _Rows("    ", at4()),
        "pi_levels": [_Rows("      ", at6(ms.counts)) for ms in rep.pi_sets],
        "yano": _Rows("    ", at4()),
        "eigenvalues": {
            "distinct": rep.distinct,
            "classes": _Rows("      ", classes()),
        },
        "resonances": _Rows("    ", resonances()),
        "strict_transform": rep.strict_transform_poles,
        "verdict": rep.verdict,
    }


def _analyze_text(rep) -> Iterator[str]:
    bn, pi = rep.bn, rep.yano  # Yano is Pi: its certificate checked before the first line
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
    yield from _candidate_lines(rep, "text")
    ks, counts = sorted(pi.counts), pi.counts
    for head in (f"pi ({pi.total} exponents with multiplicity):", "yano:"):
        yield head
        yield from map("  %12s x%d".__mod__, zip(_ratios(ks, pi.den), map(counts.__getitem__, ks)))
    yield f"eigenvalues distinct: {str(rep.distinct).lower()}"
    for r in rep.resonances:
        where = ", ".join(f"(i={i}, nu={nu})" for i, nu, _ in r.occurrences)
        yield f"resonance sigma={r.sigma} at {where}"
    yield f"strict transform poles: {rep.strict_transform_poles}"


def _write_stdout(rc: int, lines: Iterable[str]) -> int:
    """Write each of lines and a newline to stdout, _RUN lines to a write,
    flush it and return rc; nothing else writes stdout.  A reader that closes
    stdout early changes neither rc nor stderr, fixed before this runs."""
    lines = iter(lines)
    try:
        while chunk := list(islice(lines, _RUN)):
            chunk.append("")  # the last newline joined in, not added to a copy
            sys.stdout.write("\n".join(chunk))
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
        return 0, _json_lines(report_to_dict(rep), "", "", "")
    if ns.format == "tsv":
        return 0, chain(["\t".join(_CANDIDATE_FIELDS)], _candidate_lines(rep, "tsv"))
    return 0, _analyze_text(rep)


def _validation_failure(text: str, exc: Exception, fmt: str) -> list[str]:
    """The stdout lines of a failed validation; text and tsv write their
    heading to stderr first."""
    # a semigroup failure carries its whole validation report
    conditions = [{"name": c.name, "passed": c.passed, "detail": c.detail}
                  for c in getattr(exc, "conditions", ())] or [
                      {"name": "charseq", "passed": False, "detail": str(exc)}]
    if fmt == "json":
        return [canonical_json({"error": "validation", "input": text, "conditions": conditions})]
    print(f"invalid input {text}", file=sys.stderr)
    return [f"{c['name']}\t{'ok' if c['passed'] else 'FAIL'}\t{c['detail']}" for c in conditions]


def cmd_residue(ns) -> tuple[int, Iterable[str]]:
    from . import gammaratio

    p = gammaratio.RnmParams(alpha=ns.alpha, n=ns.n, beta=ns.beta, m=ns.m, lam=ns.lam)
    out = gammaratio.rnm_closed_form(p)
    if ns.format == "json":
        value = None if out.value is None else {"re": out.value.real, "im": out.value.imag}
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
    text, kind, bn = branch.resolve_input(ns.input)
    plane = curves.plane_equation(bn)
    hs = curves.monomial_curve_equations(bn)
    fam = fiber = None
    if ns.deform:
        fam = curves.deformation_family(bn, weight_cutoff=ns.cutoff, lambdas=ns.lambdas,
                                        coefficient_source=ns.seed)
        fiber = None if ns.seed is None else fam.instantiate()
    if ns.format == "json":
        deformation = None if fam is None else {
            "cutoff": fam.weight_cutoff,
            "lambdas": list(map(_printable, fam.lambdas)),
            "base": _poly_dict(fam.base, " " * 8),
            "terms": _Rows(" " * 6, map(_deformation_term, fam.terms)),
            "fiber": None if fiber is None else _poly_dict(fiber, " " * 8),
        }
        doc = {"input": {"text": text, "kind": kind}, "plane": _poly_dict(plane, " " * 6),
               "monomial_curve": [_poly_dict(h, " " * 8) for h in hs], "deformation": deformation}
        return 0, list(_json_lines(doc, "", "", ""))  # every piece made before the first write
    # every line made before the first is written, _RUN joined to a text
    lines = (_generate_tsv if ns.format == "tsv" else _generate_text)(plane, hs, fam, fiber)
    return 0, ["\n".join(c) for c in iter(lambda: list(islice(lines, _RUN)), [])]


def _deformation_term(t) -> str:
    """A deformation term's record (the DeformationTerm fields, sorted) at 6 spaces."""
    coefficient = "null" if t.coefficient is None else f'"{_printable(t.coefficient)}"'
    return (f'      {{\n        "coefficient": {coefficient},\n        "exponents": '
            f'{_ints(t.exponents, " " * 8)},\n        "level": {t.level},\n        "monomial": '
            f'{_monomial(t.monomial, " " * 8)},\n        "parameter": '
            f'{encode_basestring_ascii(t.parameter)},\n        "weight": {t.weight}\n      }}')


def _poly_rows(name: str, p) -> Iterator[str]:
    for e, c in p.canonical_terms():
        yield "\t".join([name, ",".join(map(str, e)), _printable(c)])


def _generate_tsv(plane, hs, fam, fiber) -> Iterator[str]:
    yield "\t".join(["object", "exponents", "coefficient"])
    yield from _poly_rows("plane", plane)
    for i, h in enumerate(hs, start=1):
        yield from _poly_rows(f"h{i}", h)
    if fam is not None:
        for t in fam.terms:
            coeff = t.parameter if t.coefficient is None else _printable(t.coefficient)
            yield "\t".join([t.parameter, ",".join(map(str, t.exponents)), coeff])
        if fiber is not None:
            yield from _poly_rows("fiber", fiber)


def _generate_text(plane, hs, fam, fiber) -> Iterator[str]:
    yield _printable(plane)
    for i, h in enumerate(hs, start=1):
        yield f"h{i} = {_printable(h)}"
    if fam is not None:
        lam_s = ",".join(map(_printable, fam.lambdas)) or "-"
        yield f"deformation cutoff={fam.weight_cutoff} lambdas={lam_s}"
        for t in fam.terms:
            coeff = "symbolic" if t.coefficient is None else _printable(t.coefficient)
            yield (
                f"  {t.parameter} level={t.level} weight={t.weight}"
                f" monomial={_printable(t.monomial)} coeff={coeff}"
            )
        if fiber is not None:
            yield f"fiber = {_printable(fiber)}"


def _scalar(text: str):
    # rational syntax accepted for convenience, sized as --alpha is; the scale is a float/complex
    try:
        return float(exact_rational(text))
    except ValueError:
        return complex(text)


def _lambdas(text: str) -> list:
    # Fractions sized as --alpha is, 10/3 bits a digit, against the digits str()
    # writes of an int (the writers print each value), or MAX_BITS where no limit
    digits = _digit_limit()
    bits = digits * 10 // 3 + 1 if digits else MAX_BITS
    return [exact_rational(v, bits) for v in text.split(",")] if text else []


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ["--alpha", "-3/5"] as ["--alpha=-3/5"].

    argparse treats a bare "-3/5" as an option string, so a spaced negative
    number after any long flag without "=" is merged into the = form; a flag
    that takes no value (--deform) then refuses it, as argparse refuses the
    spaced form.
    """
    out, i = [], 0
    while i < len(argv):
        tok, nxt = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        merge = (tok[:2] == "--" and len(tok) > 2 and "=" not in tok and nxt[:1] == "-"
                 and (nxt[1:2].isdigit() or nxt[1:2] == "."))
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
    p.add_argument("--tol", type=float, default=1e-4,
                   help="bounds only the rnm rows' closed form against quadrature; symmetry"
                        " rows keep 1e-10, vanishing rows 1e-8, combinatorics rows are exact")
    p.add_argument("--rel-tol", type=float, default=1e-5, help="the rnm quadrature's target")
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
        # a number float cannot convert (1e400), or too long to build
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


# the variables OpenBLAS sizes its thread pool by
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def entry():
    """The process entry, which never returns: main, with
    OPENBLAS_NUM_THREADS=1 where none of _BLAS_THREAD_VARS is set (the
    quadrature's products are too small to split, and starting a pool costs
    start-up time); then the process ends with main's code, its output
    flushed, without the interpreter's teardown, which would only free what
    the process is about to drop.  An exception from main, SystemExit too,
    ends the process the usual way."""
    if not any(map(os.environ.__contains__, _BLAS_THREAD_VARS)):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    rc = main()
    for stream in (sys.stdout, sys.stderr):  # None where the descriptor was closed
        if stream is not None:
            stream.flush()
    os._exit(rc)


if __name__ == "__main__":
    entry()
