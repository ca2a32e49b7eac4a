"""Characteristic sequences, plane-branch semigroups, derived integer data.

An irreducible plane curve germ is described by its characteristic sequence
(n; beta_1, ..., beta_g).  From it we derive the gcd chain e_i, the quotients
n_i = e_{i-1}/e_i, the reduced exponents m_i = beta_i/e_i, the semigroup
generators betabar_i with their reductions mbar_i = betabar_i/e_i, the
auxiliary q_i = m_i - n_i m_{i-1}, and the conductor c (equal to the Milnor
number mu).  BranchNumerics bundles all of those integers and is the single
source of truth for every downstream formula; in one loop over the levels,
derive_numerics also builds the toric steps, the ladders and their lcm(N_i).

Index conventions: arrays have length g+1 and slot 0 holds the boundary
values n_0 = 0, m_0 = 0, mbar_0 = 1, betabar_0 = n, e_0 = n.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .errors import InvalidCharSeq, NotInSemigroup, NotPlaneBranchSemigroup, exact_int


class CharSeq(namedtuple("CharSeq", "n betas")):
    """Characteristic sequence (n; beta_1, ..., beta_g), validated on build."""

    __slots__ = ()

    def __new__(cls, n, betas):
        n, betas = exact_int(n), tuple(map(exact_int, betas))
        if n < 2:
            raise InvalidCharSeq(f"multiplicity n = {n} must be >= 2")
        if len(betas) < 1:
            raise InvalidCharSeq("at least one characteristic exponent required (g >= 1)")
        prev = n
        for i, b in enumerate(betas, start=1):
            if b <= prev:
                raise InvalidCharSeq(
                    f"entries must increase strictly: beta_{i} = {b} <= {prev}"
                )
            prev = b
        e, nn = _gcd_chain((n, *betas))
        for i, b in enumerate(betas, start=1):
            if nn[i] == 1:
                raise InvalidCharSeq(
                    f"gcd chain stalls: e_{i - 1} = {e[i - 1]} divides beta_{i} = {b}"
                )
        if e[-1] != 1:
            raise InvalidCharSeq(f"gcd chain must end at 1, got e_g = {e[-1]}")
        return super().__new__(cls, n, betas)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    @property
    def g(self) -> int:
        return len(self.betas)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in (self.n, *self.betas)) + ")"


class ConditionCheck(namedtuple("ConditionCheck", "name passed detail witness",
                                defaults=(None,))):
    """One line of a semigroup validation report."""

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "gens conditions")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    def first_failure(self) -> ConditionCheck | None:
        return next((c for c in self.conditions if not c.passed), None)


class PlaneSemigroup(namedtuple("PlaneSemigroup", "gens")):
    """Semigroup <betabar_0, ..., betabar_g> of a plane branch; validated."""

    __slots__ = ()

    def __new__(cls, gens):
        report = validate_plane_semigroup(gens)
        if not report.ok:
            bad = report.first_failure()
            raise NotPlaneBranchSemigroup(f"{bad.name}: {bad.detail}", report.conditions)
        return super().__new__(cls, report.gens)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    @property
    def g(self) -> int:
        return len(self.gens) - 1


class ToricStep(namedtuple("ToricStep", "i n q a b c d")):
    """Per-exponent Bezout data; all identities hold exactly."""

    __slots__ = ()

    def __new__(cls, i, n, q, a, b, c, d):
        assert n * b - q * a == 1
        assert q * c - n * d == 1
        assert a * q + d * n == n * q - 1
        assert a + c == n and b + d == q
        assert 0 <= a < n
        return super().__new__(cls, i, n, q, a, b, c, d)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too


class Ladder(namedtuple("Ladder", "i r N n mbar e a D c2")):
    """Integer record of the candidate ladder at rupture index i: n = n_i,
    e = e_i, mbar = mbar_i, r = m_i + n_1...n_i, N = n_i betabar_i = n e mbar,
    D = c_i n_{i-1} mbar_{i-1} + d_i, c2 = m_{i-1} - n_{i-1} mbar_{i-1}
    + n_1...n_{i-1} - mbar_i (n_0 = m_0 = 0, mbar_0 = 1).  With t = r + nu:
    sigma = -t/N, eps1 = (1 - n - a_i nu)/n, eps2 = (c2 - D nu)/mbar and
    eps3 = e sigma = -t/(n mbar).  betabar_i sigma is integral (dead end)
    iff n | t, and e_{i-1} sigma (previous level) iff mbar | t.  Along a
    ladder t, e1 and e2 move by the constant slopes 1, -a and -D, so the
    row identity that row() checks holds on every row iff it holds at
    nu = 0 and a mbar + D n + 1 = n mbar; the one loop that steps them is
    cli._candidate_lines, which checks those two once a ladder, and row()
    serves the readers of single rows."""

    __slots__ = ()

    # (N, k+1) of the step's dead end, (betabar_i, ceil(r_i/n_i)); of its rupture divisor, (N, r)
    dead_end = property(lambda self: (self.N // self.n, -(-self.r // self.n)))

    def row(self, nu: int) -> tuple[int, int, int, int]:
        """(t, eps1 numerator, eps2 numerator, code) at shift nu, in closed
        form, after checking eps1 + eps2 + eps3 + nu + 2 = 0 as
        e1 mbar + e2 n - t + (nu + 2) n mbar = 0.  code = (dead end excludes)
        + 2 * (previous level excludes), the index of its PoleStatus in
        poles._STATUS."""
        n, mbar = self.n, self.mbar
        t, e1, e2 = self.r + nu, 1 - n - self.a * nu, self.c2 - self.D * nu
        assert e1 * mbar + e2 * n - t + (nu + 2) * n * mbar == 0
        return t, e1, e2, (t % n == 0) + 2 * (t % mbar == 0)


class BranchNumerics(namedtuple("BranchNumerics",
                                "cs gens e nn mm qq mbar conductor steps ladders den")):
    """All derived integers of a characteristic sequence (see module doc):
    gens[0] = n, gens[i] = betabar_i; e[0] = n, e[i] = gcd(e[i-1], beta_i),
    e[g] = 1; nn[0] = 0, nn[i] = e[i-1] // e[i] (n_i >= 2); mm[0] = 0,
    mm[i] = beta_i // e[i]; qq[0] = 0, qq[1] = mm[1], qq[i] = mm[i] -
    nn[i]*mm[i-1]; mbar[0] = 1, mbar[i] = gens[i] // e[i]; steps[i-1] and
    ladders[i-1] are level i's ToricStep and Ladder; den = lcm(N_1, ..., N_g)
    is the one denominator of every exponent multiset."""

    __slots__ = ()

    @property
    def g(self) -> int:
        return self.cs.g

    @property
    def milnor(self) -> int:
        """Milnor number mu; equal to the conductor for a plane branch."""
        return self.conductor

    @property
    def n(self) -> int:
        return self.cs.n

    @property
    def betas(self) -> tuple[int, ...]:
        return self.cs.betas

    def nprod(self, lo: int, hi: int) -> int:
        """Product n_lo * ... * n_hi = e_{lo-1}/e_hi; empty (lo > hi) products
        are 1, and a product from lo = 0 is 0 (n_0 = 0)."""
        if lo > hi:
            return 1
        return self.e[lo - 1] // self.e[hi] if lo else 0


def _gcd_chain(gens) -> tuple[list[int], list[int]]:
    """e_0 = gens[0], e_i = gcd(e_{i-1}, gens[i]); nn[0] = 0, nn[i] = e_{i-1}/e_i."""
    e = [gens[0]]
    for v in gens[1:]:
        e.append(math.gcd(e[-1], v))
    return e, [0] + [a // b for a, b in zip(e, e[1:])]


def derive_numerics(cs: CharSeq) -> BranchNumerics:
    """Compute every derived integer of a characteristic sequence.

    Generators follow the recursion betabar_1 = beta_1 and
    betabar_i = n_{i-1} betabar_{i-1} - beta_{i-1} + beta_i; the conductor is
    c = sum (n_i - 1) betabar_i - n + 1, which coincides with the Milnor
    number and with n_g betabar_g - beta_g - (n - 1).  Yano's defining sum
    e_i R_i = beta_i e_{i-1} + sum_{l<i} beta_l (e_{l-1} - e_l) is checked to
    give R_i = n_i betabar_i, the rupture multiplicity N_i.  The same loop
    builds each level's toric step, with a_i = -q_i^{-1} mod n_i in [0, n_i),
    b_i = (1 + q_i a_i)/n_i, c_i = n_i - a_i and d_i = q_i - b_i, its
    Ladder, and den = lcm(N_i).
    """
    g = cs.g
    e, nn = _gcd_chain((cs.n, *cs.betas))
    mm = [0] + [cs.betas[i - 1] // e[i] for i in range(1, g + 1)]
    gens = [cs.n, cs.betas[0]]
    for i in range(2, g + 1):
        gens.append(nn[i - 1] * gens[i - 1] - cs.betas[i - 2] + cs.betas[i - 1])
    mbar = [1] + [gens[i] // e[i] for i in range(1, g + 1)]
    qq = [0] + [mm[i] - nn[i] * mm[i - 1] for i in range(1, g + 1)]

    conductor = sum((nn[i] - 1) * gens[i] for i in range(1, g + 1)) - cs.n + 1
    alt = nn[g] * gens[g] - cs.betas[g - 1] - (cs.n - 1)
    assert conductor == alt, "conductor formulas disagree"
    tail = 0  # sum_{l<i} beta_l (e_{l-1} - e_l)
    steps, ladders = [], []
    for i in range(1, g + 1):
        assert gens[i] % e[i] == 0 and math.gcd(mbar[i], nn[i]) == 1
        if i >= 2:
            assert mbar[i] == nn[i] * nn[i - 1] * mbar[i - 1] + qq[i]
        assert cs.betas[i - 1] * e[i - 1] + tail == e[i - 1] * gens[i], "Yano's R_i is not N_i"
        tail += cs.betas[i - 1] * (e[i - 1] - e[i])
        n, q, prev = nn[i], qq[i], nn[i - 1] * mbar[i - 1]
        a = (-pow(q, -1, n)) % n
        b = (1 + q * a) // n
        steps.append(st := ToricStep(i, n, q, a, b, n - a, q - b))
        ladders.append(Ladder(i, mm[i] + e[0] // e[i], n * gens[i], n, mbar[i], e[i], a,
                              st.c * prev + st.d, mm[i - 1] - prev + e[0] // e[i - 1] - mbar[i]))

    return BranchNumerics(cs, *map(tuple, (gens, e, nn, mm, qq, mbar)), conductor, tuple(steps),
                          tuple(ladders), math.lcm(*(lad.N for lad in ladders)))


def _apery(gens: tuple[int, ...]) -> tuple[list, list[int]]:
    """Apery set of gens[0] in <gens> (positive generators): ap[r] is the least
    element congruent to r mod gens[0] (inf if none), last[r] the index of the
    generator added last on a shortest sum reaching it.  Shortest paths over
    the residues: O(gens[0]) memory (Rosales and Garcia-Sanchez, ch. 1)."""
    n = gens[0]
    ap: list = [math.inf] * n
    last = [-1] * n
    ap[0] = 0
    heap = [(0, 0)]
    while heap:
        w, r = heapq.heappop(heap)
        if w > ap[r]:
            continue
        for idx, gv in enumerate(gens):
            t = (r + gv) % n
            if w + gv < ap[t]:
                ap[t] = w + gv
                last[t] = idx
                heapq.heappush(heap, (w + gv, t))
    return ap, last


def membership(gens, s: int) -> tuple[bool, tuple[int, ...] | None]:
    """Decide s in <gens> (positive generators): s is a member iff
    s >= Ap[s mod gens[0]], the Apery element of its residue class.

    Returns (True, representation) with representation k such that
    s = sum k_l * gens[l], or (False, None).
    """
    gens, s = tuple(map(exact_int, gens)), exact_int(s)
    if not gens or min(gens) <= 0:
        raise ValueError(f"need positive generators, got {gens}")
    if s < 0:
        return False, None
    ap, last = _apery(gens)
    r = s % gens[0]
    if s < ap[r]:
        return False, None
    rep = [0] * len(gens)
    rep[0] = (s - ap[r]) // gens[0]
    while r:
        idx = last[r]
        rep[idx] += 1
        r = (r - gens[idx]) % gens[0]
    return True, tuple(rep)


def validate_plane_semigroup(gens) -> ValidationReport:
    """Check the plane-branch semigroup characterization, condition by condition.

    Conditions: structural sanity (positive, strictly increasing, first entry
    >= 2); gcd of all generators equals 1; strict divisibility of the gcd
    chain (every n_i >= 2, so the listed generators are genuinely needed);
    n_i betabar_i in <betabar_0..betabar_{i-1}> with a witness representation;
    and n_i betabar_i < betabar_{i+1}.  Failures are report content, never
    exceptions.
    """
    gens = tuple(map(exact_int, gens))
    checks: list[ConditionCheck] = []

    structural = True
    if len(gens) < 2:
        structural, why = False, "need at least two generators (g >= 1)"
    elif gens[0] < 2:
        structural, why = False, f"multiplicity betabar_0 = {gens[0]} must be >= 2"
    elif any(gens[i] <= gens[i - 1] for i in range(1, len(gens))):
        structural, why = False, "generators must increase strictly"
    else:
        why = "positive, strictly increasing, betabar_0 >= 2"
    checks.append(ConditionCheck("structure", structural, why))
    if not structural:
        return ValidationReport(gens, tuple(checks))

    g = len(gens) - 1
    e, nn = _gcd_chain(gens)
    ok_gcd = e[-1] == 1
    checks.append(
        ConditionCheck(
            "gcd-one", ok_gcd, f"gcd(all generators) = {e[-1]}" + ("" if ok_gcd else " != 1")
        )
    )

    ok_min = all(nn[i] >= 2 for i in range(1, g + 1))
    detail = "every n_i = e_{i-1}/e_i is >= 2"
    if not ok_min:
        bad = next(i for i in range(1, g + 1) if nn[i] < 2)
        detail = f"n_{bad} = {nn[bad]} < 2: generator betabar_{bad} is redundant"
    checks.append(ConditionCheck("strict-divisibility", ok_min, detail))

    for i in range(1, g + 1):
        inside, rep = membership(gens[:i], nn[i] * gens[i])
        detail = f"n_{i}*betabar_{i} = {nn[i] * gens[i]}"
        detail += " in" if inside else " not in"
        detail += f" <{','.join(str(v) for v in gens[:i])}>"
        checks.append(ConditionCheck(f"membership-{i}", inside, detail, rep))

    for i in range(1, g):
        ok_growth = nn[i] * gens[i] < gens[i + 1]
        checks.append(
            ConditionCheck(
                f"growth-{i}",
                ok_growth,
                f"n_{i}*betabar_{i} = {nn[i] * gens[i]} "
                + ("<" if ok_growth else ">=")
                + f" betabar_{i + 1} = {gens[i + 1]}",
            )
        )
    return ValidationReport(gens, tuple(checks))


def charseq_from_semigroup(sg: PlaneSemigroup) -> CharSeq:
    """Invert the generator recursion: beta_i = betabar_i - n_{i-1} betabar_{i-1} + beta_{i-1}.
    resolve_input checks the round trip on the numerics it derives."""
    gens = sg.gens
    g = len(gens) - 1
    _, nn = _gcd_chain(gens)
    betas = [gens[1]]
    for i in range(2, g + 1):
        betas.append(gens[i] - nn[i - 1] * gens[i - 1] + betas[-1])
    try:
        return CharSeq(gens[0], tuple(betas))
    except InvalidCharSeq as exc:  # pragma: no cover - blocked by validation
        raise NotPlaneBranchSemigroup(f"inversion produced invalid sequence: {exc}") from exc


def canonical_representation(bn: BranchNumerics, s: int) -> tuple[int, ...]:
    """Unique representation s = sum k_l betabar_l with 0 <= k_l < n_l for l >= 1.

    Works top-down: at level l the residue of s/e_l modulo n_l determines k_l
    because mbar_l is invertible mod n_l; what remains is divisible by
    e_{l-1}.  Raises NotInSemigroup when the leftover at level 0 is negative.
    """
    s = exact_int(s)
    if s < 0:
        raise NotInSemigroup(f"{s} < 0")
    rem = s
    ks = [0] * (bn.g + 1)
    for l in range(bn.g, 0, -1):
        q, r = divmod(rem, bn.e[l])
        assert r == 0, "residue not divisible by e_l; invariant broken upstream"
        k = (q * pow(bn.mbar[l], -1, bn.nn[l])) % bn.nn[l]
        ks[l] = k
        rem -= k * bn.gens[l]
        if rem < 0:
            raise NotInSemigroup(f"{s} not in <{','.join(map(str, bn.gens))}>")
    q, r = divmod(rem, bn.n)
    if r != 0:  # pragma: no cover - divisibility is automatic at level 0
        raise NotInSemigroup(f"{s} not in <{','.join(map(str, bn.gens))}>")
    ks[0] = q
    return tuple(ks)


def parse_input(text: str):
    """Parse an input string: "n,b1,..,bg" (CharSeq) or "semigroup:g0,..,gg".

    Syntax problems raise ValueError; domain failures raise InvalidCharSeq or
    NotPlaneBranchSemigroup from the respective constructors.
    """
    body = text.strip()
    is_semigroup = False
    if body.lower().startswith("semigroup:"):
        is_semigroup = True
        body = body[len("semigroup:") :]
    parts = [p.strip() for p in body.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"empty entry in input {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"input entries must be integers, got {text!r}") from None
    if is_semigroup:
        return PlaneSemigroup(tuple(values))
    if len(values) < 2:
        raise ValueError("characteristic sequence needs n plus at least one exponent")
    return CharSeq(values[0], tuple(values[1:]))


def resolve_input(input_spec) -> tuple[str, str, BranchNumerics]:
    """(text in CLI syntax, kind "charseq" | "semigroup", BranchNumerics) of
    a CharSeq, a PlaneSemigroup or an input string in either CLI syntax; a
    string keeps its own text.  The numerics are derived once; a semigroup's
    generators must come back from them."""
    text = None if isinstance(input_spec, (CharSeq, PlaneSemigroup)) else str(input_spec)
    spec = input_spec if text is None else parse_input(text)
    if isinstance(spec, PlaneSemigroup):
        bn = derive_numerics(charseq_from_semigroup(spec))
        if bn.gens != spec.gens:
            raise NotPlaneBranchSemigroup(f"round trip failed: {bn.gens} != {spec.gens}")
        return text or "semigroup:" + ",".join(map(str, spec.gens)), "semigroup", bn
    return text or ",".join(map(str, (spec.n, *spec.betas))), "charseq", derive_numerics(spec)


def random_charseq(rng, max_n: int = 12, max_beta: int = 400) -> CharSeq:
    """Draw a uniformly-scattered valid characteristic sequence.

    Construction guarantees validity: factor n into quotients n_i >= 2, then
    pick reduced exponents m_i coprime to n_i with m_1 > n_1 and
    m_i > n_i m_{i-1}, so beta_i = e_i m_i increases and keeps the gcd chain.
    """
    if max_n < 2 or max_beta < 3:  # the least sequence is (2,3)
        raise ValueError(f"no characteristic sequence has n <= {max_n} and beta_1 <= {max_beta}")
    while True:
        n = rng.randint(2, max_n)
        factors = []
        rem = n
        while rem > 1:
            d = rng.choice([d for d in range(2, rem + 1) if rem % d == 0])
            factors.append(d)
            rem //= d
        rng.shuffle(factors)
        e = [n]
        for d in factors:
            e.append(e[-1] // d)
        betas: list[int] = []
        ms: list[int] = []
        for i, ni in enumerate(factors, start=1):
            lo = ni + 1 if i == 1 else ni * ms[-1] + 1
            hi = max_beta // e[i]
            cands = [m for m in range(lo, hi + 1) if math.gcd(m, ni) == 1]
            if not cands:
                break  # draw again
            m = rng.choice(cands)
            ms.append(m)
            betas.append(e[i] * m)
        else:
            return CharSeq(n, tuple(betas))


def gaps(bn: BranchNumerics) -> tuple[int, ...]:
    """All positive integers outside the semigroup (there are c/2 of them):
    in each residue class mod n, the ones below its Apery element."""
    ap, _ = _apery(bn.gens)
    return tuple(sorted(v for r, w in enumerate(ap) for v in range(r, w, bn.n)))
