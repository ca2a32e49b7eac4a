"""Seeded inputs of the four workloads, as command-line syntax text.

Everything here is the benchmark's own: the branch draw repeats the
construction of ``branchzeta.branch.random_charseq`` (the one the tests use)
instead of calling it, so a later change to the package or to the test
fixtures cannot alter a workload.  Inputs reach the program only as text
(``"4,9"``, ``"semigroup:4,6,13"``, ``--alpha -3/7``); ``str(CharSeq)``
gives ``"(2,3)"``, which the program's own parser rejects.

Each workload is one *round*: a fixed-length list of operations whose cost
does not depend on the seed.  The seed picks which inputs fill each slot,
but every slot has a fixed size class (candidate count for branches,
convergence margins and frequency pattern for kernel points), so two seeds
give rounds of nearly equal work.  That is what keeps medians steady from
seed to seed on a small, noisy machine.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

FIXED_BRANCHES = ("2,3", "4,9", "4,6,7", "6,9,22")

# Candidate counts sum(n_i * betabar_i) at the 2.5 %, 7.5 %, ..., 97.5 %
# quantiles of the test corpus draw (n <= 12, beta <= 400), measured over
# 20,000 draws.  One corpus slot per quantile band.
CORPUS_TARGETS = (
    93, 230, 363, 490, 606, 726, 860, 1004, 1158, 1334,
    1518, 1716, 1922, 2156, 2395, 2712, 3069, 3518, 4090, 5224,
)
SLOT_WIDTH = 0.04  # a drawn branch fills a slot within +-4 % of its target

# Ladder slots: (input form, b centre).  Thirteen ladders with b growing by
# 21 % a step from 250 to 2400, cycling through "2,b", "semigroup:2,b"
# (one ladder of N = 2b) and "semigroup:4,6,b" (ladders of 12 and 2b), so
# that neighbouring sizes differ little and the median and the tail fall
# inside a smooth range of sizes, not on a jump between two; then one "2,b"
# near b = 12000 (N = 2.4e4).  The semigroup forms add the validation DP
# over n_i*betabar_i.
LADDER_FORMS = ("charseq", "semigroup2", "semigroup46")
LADDER_SLOTS = tuple((LADDER_FORMS[k % 3], round(300 * 8 ** (k / 11))) for k in range(-1, 12)) + (
    ("charseq", 12000),
)

# Kernel slots: frequency pattern (n, m) times margin cell (x, y), where
# x = 2*alpha + n + 2 > 0, y = 2*beta + m + 2 > 0 and z = 2 - x - y > 0 are
# the distances to the three boundaries of the absolute-convergence region.
# Cells keep every margin >= 0.3 so that every quadrature converges.
KERNEL_PATTERNS = ((0, 0), (1, 0), (0, 1), (-1, 1), (2, -1), (1, 1), (-2, 1), (0, -1))
KERNEL_CELLS = ((0.4, 0.4), (0.4, 1.1), (1.1, 0.4), (0.7, 0.7), (0.5, 0.8))
CELL_JITTER = 0.06
KERNEL_REL_TOL = 1e-5
LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))

# Residue commands that fail on every run because rnm_closed_form multiplies
# the three pair coefficients in linear space (see the README).
KNOWN_FAULT_RESIDUES = (
    ("--alpha", "-1/4", "--n", "300", "--beta", "-1/3", "--m", "0"),
    ("--alpha", "-1/20", "--n", "-196", "--beta", "-5/6", "--m", "152"),
)


def draw_charseq(rng: random.Random, max_n: int = 12, max_beta: int = 400) -> tuple[int, ...]:
    """(n, beta_1, .., beta_g) by the construction the tests use: factor n
    into quotients n_i >= 2, then pick reduced exponents m_i coprime to n_i
    with m_1 > n_1 and m_i > n_i m_{i-1}; beta_i = e_i m_i."""
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
            cands = [m for m in range(lo, max_beta // e[i] + 1) if math.gcd(m, ni) == 1]
            if not cands:
                break
            ms.append(rng.choice(cands))
            betas.append(e[i] * ms[-1])
        else:
            return (n, *betas)


def candidate_count(seq: tuple[int, ...]) -> int:
    """sum n_i * betabar_i of a characteristic sequence (own arithmetic)."""
    n, betas = seq[0], seq[1:]
    e, bbar, total = n, 0, 0
    for i, b in enumerate(betas):
        e_next = math.gcd(e, b)
        n_i = e // e_next
        bbar = b if i == 0 else n_prev * bbar - betas[i - 1] + b
        total += n_i * bbar
        e, n_prev = e_next, n_i
    return total


def _fill(rng: random.Random, target: int) -> str:
    lo, hi = target * (1 - SLOT_WIDTH), target * (1 + SLOT_WIDTH)
    while True:
        seq = draw_charseq(rng)
        if lo <= candidate_count(seq) <= hi:
            return ",".join(map(str, seq))


def corpus_round(seed: int) -> list[str]:
    """Four fixed branches, then one seeded branch per quantile band."""
    rng = random.Random(seed)
    return list(FIXED_BRANCHES) + [_fill(rng, t) for t in CORPUS_TARGETS]


def _odd_near(rng: random.Random, centre: int) -> int:
    return 2 * rng.randint(centre // 2, centre // 2 + max(centre // 80, 1)) + 1


def ladder_round(seed: int) -> list[str]:
    """Single long ladders: 2,b and semigroup:2,b (one ladder of N = 2b),
    semigroup:4,6,b (ladders of 12 and 2b); b odd, within 2.5 % above its centre."""
    rng = random.Random(seed)
    out = []
    for kind, centre in LADDER_SLOTS:
        b = _odd_near(rng, centre)
        out.append({"charseq": f"2,{b}", "semigroup2": f"semigroup:2,{b}",
                    "semigroup46": f"semigroup:4,6,{b}"}[kind])
    return out


def _rational_near(rng: random.Random, centre: float) -> Fraction:
    """A rational with odd denominator 7..23 near centre, never an integer
    and never a half-integer (so alpha, beta and alpha + beta stay off the
    integer lattice)."""
    q = rng.choice((7, 9, 11, 13, 15, 17, 19, 21, 23))
    x = centre + rng.uniform(-CELL_JITTER, CELL_JITTER)
    p = round(x * q)
    if p % q == 0:
        p += 1
    return Fraction(p, q)


def kernel_point(rng: random.Random, pattern, cell) -> tuple[Fraction, int, Fraction, int, Fraction]:
    """(alpha, n, beta, m, lambda) with margins x, y, z near the cell."""
    n, m = pattern
    while True:
        x = _rational_near(rng, cell[0])
        y = _rational_near(rng, cell[1])
        alpha, beta = (x - 2 - n) / 2, (y - 2 - m) / 2
        if (alpha + beta).denominator != 1 and x + y < 2:
            return alpha, n, beta, m, rng.choice(LAMBDAS)


def kernel_round(seed: int) -> list[tuple[Fraction, int, Fraction, int, Fraction]]:
    rng = random.Random(seed)
    return [kernel_point(rng, pat, cell) for pat in KERNEL_PATTERNS for cell in KERNEL_CELLS]


def residue_argv(point) -> list[str]:
    alpha, n, beta, m, lam = point
    return ["residue", "--alpha", str(alpha), "--n", str(n), "--beta", str(beta),
            "--m", str(m), "--lambda", str(lam)]


def cli_round(seed: int) -> list[list[str]]:
    """A fixed cycle of small commands; the seed picks the branches, the
    residue points and the deformation coefficients."""
    rng = random.Random(seed)
    small = [_fill(rng, t) for t in (60, 120, 200)]
    points = [kernel_point(rng, pat, (0.7, 0.7)) for pat in ((0, 0), (1, 1))]
    coeff_seed = str(rng.randint(1, 10**6))
    return [
        ["analyze", small[0]],
        ["analyze", small[1], "--format", "json"],
        ["analyze", "semigroup:4,6,13", "--format", "json"],
        residue_argv(points[0]),
        residue_argv(points[1]) + ["--format", "json"],
        ["verify", "--suite", "combinatorics"],
        ["verify", "--suite", "vanishing"],
        ["verify", "--suite", "rnm"],
        ["generate", "4,9", "--deform", "--cutoff", "38", "--seed", coeff_seed, "--format", "json"],
        ["generate", "4,6,7", "--deform", "--seed", coeff_seed, "--format", "json"],
        ["generate", small[2], "--format", "json"],
        ["analyze", small[2], "--format", "tsv"],
        ["residue", *KNOWN_FAULT_RESIDUES[0]],
        ["residue", *KNOWN_FAULT_RESIDUES[1]],
    ]
