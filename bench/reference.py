"""Checks of the program's outputs against computations made apart from it.

The integer invariants are re-derived here from the input text with the
benchmark's own code; Gamma-ratio values come from mpmath at 30 digits.
Every checker takes the input and the program's output text and returns a
list of problems; an empty list means the output is correct.  The checkers
run outside every timed region.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

STATUS_KEPT = "PoleCandidate"
STATUS = {(False, False): "PoleCandidate", (True, False): "ExcludedDeadEnd",
          (False, True): "ExcludedPrevious", (True, True): "ExcludedBoth"}


@dataclass(frozen=True)
class Branch:
    """Integer data of a plane branch, 1-based lists with slot 0 unused."""

    n: int
    betas: tuple[int, ...]   # beta_1..beta_g
    bbar: tuple[int, ...]    # betabar_0..betabar_g
    e: tuple[int, ...]       # e_0..e_g
    nn: tuple[int, ...]      # 0, n_1..n_g
    conductor: int

    @property
    def g(self) -> int:
        return len(self.betas)

    def big_n(self, i: int) -> int:
        return self.nn[i] * self.bbar[i]

    def r(self, i: int) -> int:
        """k+1 of rupture divisor i: beta_i/e_i + n_1...n_i."""
        return self.betas[i - 1] // self.e[i] + math.prod(self.nn[1 : i + 1])

    def mbar(self, i: int) -> int:
        return self.bbar[i] // self.e[i]

    def survivors(self, i: int) -> int:
        return self.big_n(i) - self.bbar[i] - self.nn[i] * self.e[i] + self.e[i]

    @property
    def lct(self) -> Fraction:
        return Fraction(self.betas[0] // self.e[1] + self.nn[1], self.nn[1] * self.bbar[1])


def branch_from_text(text: str) -> Branch:
    """Parse "n,b1,..,bg" or "semigroup:g0,..,gg" and derive every integer."""
    semigroup = text.startswith("semigroup:")
    vals = [int(v) for v in text.removeprefix("semigroup:").split(",")]
    e = [vals[0]]
    for v in vals[1:]:
        e.append(math.gcd(e[-1], v))
    g = len(vals) - 1
    nn = [0] + [e[i - 1] // e[i] for i in range(1, g + 1)]
    if not semigroup:
        betas = vals[1:]
        bbar = [vals[0], betas[0]]
        for i in range(2, g + 1):
            bbar.append(nn[i - 1] * bbar[i - 1] - betas[i - 2] + betas[i - 1])
    else:
        bbar = vals
        betas = [bbar[1]]
        for i in range(2, g + 1):
            betas.append(bbar[i] - nn[i - 1] * bbar[i - 1] + betas[-1])
    # conductor as 1 + the largest gap of <bbar>: independent of any closed formula
    top = sum((nn[i] - 1) * bbar[i] for i in range(1, g + 1)) + 1
    member = bytearray(top + 1)
    member[0] = 1
    for gen in bbar:
        for v in range(gen, top + 1):
            if member[v - gen]:
                member[v] = 1
    last_gap = max((v for v in range(top + 1) if not member[v]), default=-1)
    return Branch(vals[0], tuple(betas), tuple(bbar), tuple(e), tuple(nn), last_gap + 1)


def _frac(s: str) -> Fraction:
    p, _, q = s.partition("/")
    return Fraction(int(p), int(q) if q else 1)


def check_candidate_rows(br: Branch, rows, problems: list[str]) -> list[Fraction]:
    """rows: (i, nu, sigma, eps1, eps2, eps3, status) as strings.  Checks the
    ladder sigma = -(r_i + nu)/N_i, the exclusion rule and
    eps1 + eps2 + eps3 + nu + 2 = 0; returns the kept -sigma values."""
    want = sum(br.big_n(i) for i in range(1, br.g + 1))
    if len(rows) != want:
        problems.append(f"{len(rows)} candidate rows, expected sum N_i = {want}")
    kept = []
    level = {i: (br.r(i), br.big_n(i), br.nn[i], br.mbar(i)) for i in range(1, br.g + 1)}
    for row in rows:
        i, nu = int(row[0]), int(row[1])
        r, big_n, n_i, mbar_i = level[i]
        sigma = _frac(row[2])
        if sigma != Fraction(-(r + nu), big_n):
            problems.append(f"sigma({i},{nu}) = {row[2]}, expected {Fraction(-(r + nu), big_n)}")
        if _frac(row[3]) + _frac(row[4]) + _frac(row[5]) + nu + 2 != 0:
            problems.append(f"eps1+eps2+eps3+nu+2 != 0 at ({i},{nu})")
        status = STATUS[((r + nu) % n_i == 0, (r + nu) % mbar_i == 0)]
        if row[6] != status:
            problems.append(f"status({i},{nu}) = {row[6]}, expected {status}")
        if status == STATUS_KEPT:
            kept.append(-sigma)
        if len(problems) > 20:
            break
    return kept


def _multiset(entries) -> Counter:
    return Counter({_frac(d["exponent"]): d["multiplicity"] for d in entries})


def check_report_json(text: str, out: str) -> list[str]:
    """Full check of one analyze report in canonical JSON."""
    problems: list[str] = []
    doc = json.loads(out)
    if json.dumps(doc, sort_keys=True, indent=2) != out:
        problems.append("JSON does not re-serialize byte-identically")
    br = branch_from_text(text)
    num = doc["numerics"]
    for key, want in (("e", list(br.e)), ("betabar", list(br.bbar)), ("conductor", br.conductor)):
        if num[key] != want:
            problems.append(f"numerics.{key} = {num[key]}, expected {want}")
    if doc["mu"] != br.conductor:
        problems.append(f"mu = {doc['mu']}, expected conductor {br.conductor}")
    if _frac(doc["lct"]) != br.lct:
        problems.append(f"lct = {doc['lct']}, expected {br.lct}")
    rows = [(c["i"], c["nu"], c["sigma"], c["eps1"], c["eps2"], c["eps3"], c["status"])
            for c in doc["candidates"]]
    kept = check_candidate_rows(br, rows, problems)
    pi, yano = _multiset(doc["pi"]), _multiset(doc["yano"])
    if sum(pi.values()) != br.conductor:
        problems.append(f"pi total {sum(pi.values())} != conductor {br.conductor}")
    if pi != yano:
        problems.append("pi differs from yano as a multiset")
    if pi != Counter(kept):
        problems.append("pi differs from the kept candidates")
    if len(doc["pi_levels"]) != br.g:
        problems.append(f"{len(doc['pi_levels'])} pi levels, expected g = {br.g}")
    for i, level in enumerate(doc["pi_levels"][: br.g], start=1):
        total = sum(d["multiplicity"] for d in level)
        if total != br.survivors(i):
            problems.append(f"level {i} keeps {total}, expected {br.survivors(i)}")
    if br.g == 1:
        # monodromy of y^n = x^b: eigenvalue classes i/n + j/b mod 1
        n, b = br.n, br.betas[0]
        want = Counter((Fraction(i, n) + Fraction(j, b)) % 1
                       for i in range(1, n) for j in range(1, b))
        if Counter(x % 1 for x in pi.elements()) != want:
            problems.append("fractional parts of pi differ from {i/n + j/b}")
    if text == "2,3" and pi != Counter({Fraction(5, 6): 1, Fraction(7, 6): 1}):
        problems.append("cusp pi is not {5/6, 7/6}")
    return problems


def check_ladder_tsv(text: str, out: str) -> list[str]:
    """One analyze --format tsv ladder."""
    problems: list[str] = []
    lines = out.splitlines()
    if not lines or lines[0] != "i\tnu\tsigma\teps1\teps2\teps3\tstatus":
        return ["missing TSV header"]
    br = branch_from_text(text)
    kept = check_candidate_rows(br, [ln.split("\t") for ln in lines[1:]], problems)
    if len(kept) != br.conductor:
        problems.append(f"{len(kept)} survivors, expected conductor {br.conductor}")
    if br.n == 2:
        b = br.bbar[1]
        if sorted(kept) != [Fraction(b + 2 * j, 2 * b) for j in range(1, b)]:
            problems.append("kept -sigma values differ from {1/2 + j/b}")
    return problems


def kernel_mp(alpha: Fraction, n: int, beta: Fraction, m: int, lam) -> complex:
    """R_{n,m}(alpha, beta; lambda) for real lambda > 0, by mpmath at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        b = mp.mpf(beta.numerator) / beta.denominator
        g = -a - b - n - m - 2
        lam = mp.mpf(Fraction(lam).numerator) / Fraction(lam).denominator
        val = (-2j * mp.pi * mp.power(lam, -2 * a - n - 2)
               * mp.gamma(a + 1) * mp.rgamma(-a - n)
               * mp.gamma(b + 1) * mp.rgamma(-b - m)
               * mp.gamma(g + 1) * mp.rgamma(-g - n - m))
        return complex(val)


def relerr(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


def check_kernel(point, order: int, closed, quad, swapped, rel_tol: float) -> list[str]:
    """closed: the op's closed-form value; quad: its quadrature value;
    swapped: the closed form at (alpha', -n, beta', -m, conj lambda)."""
    if order != 0 or closed is None:
        return [f"closed form order {order}, expected a finite nonzero value"]
    problems = []
    want = kernel_mp(*point)
    if relerr(closed, want) > 1e-10:
        problems.append(f"closed form {closed} vs mpmath {want}: relerr {relerr(closed, want):.3e}")
    if relerr(quad, closed) > 10 * rel_tol:
        problems.append(f"quadrature {quad} vs closed form: relerr {relerr(quad, closed):.3e}")
    if swapped is None or relerr(swapped, closed) > 1e-10:
        problems.append(f"symmetry fails: {swapped} vs {closed}")
    return problems


def _cx_text(s: str) -> complex:
    return complex(s.replace("i", "j"))


def residue_point(argv) -> tuple:
    """(alpha, n, beta, m, lambda) of a `residue` command line."""
    args = dict(zip(argv[1::2], argv[2::2]))
    return (_frac(args["--alpha"]), int(args["--n"]), _frac(args["--beta"]), int(args["--m"]),
            _frac(args.get("--lambda", "1")))


def _check_residue(argv, out: str) -> list[str]:
    want = kernel_mp(*residue_point(argv))
    if "--format" in argv:
        doc = json.loads(out)
        if json.dumps(doc, sort_keys=True, indent=2) + "\n" != out:
            return ["residue JSON does not round-trip"]
        if doc["order"] != 0 or doc["value"] is None:
            return [f"residue order {doc['order']}, expected 0"]
        got = complex(doc["value"]["re"], doc["value"]["im"])
    else:
        lines = dict(ln.split(" ", 1) for ln in out.splitlines() if " " in ln)
        if lines.get("order") != "0":
            return [f"residue order {lines.get('order')}, expected 0"]
        got = _cx_text(lines["value"])
    if relerr(got, want) > 1e-9:
        return [f"residue {got} vs mpmath {want}"]
    return []


def _vanish(poly: dict, weights) -> bool:
    """Does the polynomial vanish after u_j -> t^weights[j]?"""
    acc: Counter = Counter()
    for term in poly["terms"]:
        acc[sum(w * k for w, k in zip(weights, term["exponents"]))] += _frac(term["coefficient"])
    return not any(acc.values())


def _check_generate(argv, out: str) -> list[str]:
    doc = json.loads(out)
    if json.dumps(doc, sort_keys=True, indent=2) + "\n" != out:
        return ["generate JSON does not round-trip"]
    br = branch_from_text(argv[1])
    problems = []
    if len(doc["monomial_curve"]) != br.g:
        problems.append("wrong number of monomial-curve equations")
    for h in doc["monomial_curve"]:
        if not _vanish(h, br.bbar):
            problems.append(f"{h['text']} does not vanish at t^betabar")
    if br.g == 1 and not _vanish(doc["plane"], (br.bbar[0], br.bbar[1])):
        problems.append("plane equation of a g = 1 branch does not vanish at (t^n, t^b)")
    if "--deform" in argv:
        fam = doc["deformation"]
        cutoff = fam["cutoff"]
        if "--cutoff" in argv and cutoff != int(argv[argv.index("--cutoff") + 1]):
            problems.append("cutoff differs from the one asked for")
        if not fam["terms"]:
            problems.append("no deformation terms")
        for t in fam["terms"]:
            i, ks = t["level"], t["exponents"]
            weight = sum(w * k for w, k in zip(br.bbar, ks))
            if len(ks) != i + 1 or t["weight"] != weight:
                problems.append(f"{t['parameter']}: weight {t['weight']}, expected {weight}")
            if not br.big_n(i) < weight <= cutoff:
                problems.append(f"{t['parameter']}: weight {weight} outside ({br.big_n(i)}, {cutoff}]")
            if any(not 0 <= k < br.nn[l] for l, k in enumerate(ks) if l >= 1):
                problems.append(f"{t['parameter']}: exponent out of range")
            if t["coefficient"] is None:
                problems.append(f"{t['parameter']}: no coefficient despite --seed")
        if fam["fiber"] is None:
            problems.append("no fiber despite --seed")
    return problems


# rows of each verify suite and the tolerance every relerr must meet
VERIFY_ROWS = {"combinatorics": (32, 0.0), "vanishing": (4, 1e-8), "rnm": (9, 1e-4)}


def _check_verify(argv, out: str) -> list[str]:
    suite = argv[argv.index("--suite") + 1]
    rows = [ln.split("\t") for ln in out.splitlines()]
    want_rows, tol = VERIFY_ROWS[suite]
    if rows[0] != ["case", "expected", "got", "relerr"] or len(rows) != want_rows + 1:
        return [f"verify {suite}: {len(rows) - 1} rows, expected {want_rows}"]
    bad = [r[0] for r in rows[1:] if not float(r[3]) <= tol]
    return [f"verify {suite}: {c} misses {tol}" for c in bad]


def check_cli(argv, rc: int, out: str) -> list[str]:
    """One command of the cli cycle, from its exit code and stdout."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    cmd = argv[0]
    if cmd == "residue":
        return _check_residue(argv, out)
    if cmd == "verify":
        return _check_verify(argv, out)
    if cmd == "generate":
        return _check_generate(argv, out)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "json":
        return check_report_json(argv[1], out.removesuffix("\n"))
    if fmt == "tsv":
        return check_ladder_tsv(argv[1], out)
    br = branch_from_text(argv[1])
    head = out.splitlines()
    want = (f"n {br.n}  g {br.g}  betabar {','.join(map(str, br.bbar))}"
            f"  conductor {br.conductor}  mu {br.conductor}")
    problems = []
    if head[1] != want:
        problems.append(f"summary line {head[1]!r}, expected {want!r}")
    if head[2] != f"lct {br.lct}":
        problems.append(f"{head[2]!r}, expected 'lct {br.lct}'")
    start = head.index("candidates (i, nu, sigma, eps1, eps2, eps3, status):") + 1
    stop = next(k for k in range(start, len(head)) if head[k].startswith("pi ("))
    check_candidate_rows(br, [ln.split() for ln in head[start:stop]], problems)
    return problems
