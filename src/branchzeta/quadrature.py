"""Numerical oracle for the residue kernel and the vanishing integral.

rnm_quadrature integrates z^{alpha'} conj(z)^alpha (1-lambda z)^{beta'}
(1-conj(lambda z))^beta over the complex plane in polar coordinates
lambda z = r e^{i theta}, with the measure convention dz dconj(z) =
-2i r dr dtheta.  For real lambda > 0 and integer n = alpha' - alpha,
m = beta' - beta the integrand reduces to

    r^{2 alpha + n + 1} e^{i n theta} s^beta (1 - r e^{i theta})^m,
    s = |1 - r e^{i theta}|^2 = (1-r)^2 + 4 r sin^2(theta/2),

which is branch-free.  Conjugate symmetry in theta folds the angular range
to [0, pi] with twice the real part.  The plan is deterministic: dyadic
panels graded toward r = 0, L-infinity dyadic shells around the integrable
singularity at (r, theta) = (1, 0), smooth rectangles beside it, and dyadic
radial panels outward from _R_MAX until an analytic power-law remainder
bound certifies the neglected tail below tolerance.  All omitted regions
(shell core, innermost disk, far tail) are controlled by explicit bounds,
so tightening rel_tol only ever adds panels.

The bounds read only the refinement levels, so each pass lists its panels
before it evaluates any.  Each panel is split into tiles of 24 x 24 Gauss
nodes, taken in blocks of _BLOCK tiles whose node geometry is computed at
once, then in batches of _TILES tiles with one numpy evaluation of the
integrand and one np.vecdot reduction each: the working arrays stay below
0.5 MB however many panels a pass adds.  np.vecdot reduces each tile with
the same ddot as one dot per tile and each panel sums its tiles in order,
so the result has the same bits as one evaluation per tile.
vanishing_integral_check evaluates all its radial panels in one numpy call,
and all its angular panels in another.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .gammaratio import RnmParams


# Fixed mesh geometry in the scaled variable r = |lambda z|: the graded
# region around r = 0 ends at _SPLIT, the singular box around (r, theta) =
# (1, 0) has half-width _SPLIT, and the fine mesh ends at _R_MAX > 2.  Three
# regions then refine level by level: at level k the inner disk has radius
# and the singular core half-width _SPLIT 2^-k, and the tail starts at radius
# _R_MAX 2^k.  Inner grading and singular shells stop with ConvergenceFailure
# past level _MAX_SUBDIVISIONS, the tail past radius 1e60.  All panels use
# the 24-point Gauss-Legendre rule _GAUSS (nodes, weights on [-1, 1]).
_R_MAX = 1e3
_MAX_SUBDIVISIONS = 512
_SPLIT = 0.5
_GAUSS = np.polynomial.legendre.leggauss(24)
_TILES = 8  # tiles per numpy evaluation; its working arrays stay below 0.5 MB
_BLOCK = 256  # tiles whose node geometry is computed at once, about 0.25 MB


class QuadConfig(namedtuple("QuadConfig", "rel_tol")):
    """Target relative accuracy of the quadrature oracle: each
    neglected-region bound is pushed below rel_tol/10 of the accumulated
    integral."""

    __slots__ = ()

    def __new__(cls, rel_tol=1e-5):
        if not 0 < rel_tol < math.inf:
            raise DomainError("rel_tol must be positive and finite")
        return super().__new__(cls, rel_tol)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too


def _edges(a: float, b: float, sub: int) -> list[float]:
    """sub + 1 equally spaced points from a to b: k (b - a)/sub + a, then b
    itself, the same doubles as numpy's evenly spaced edges."""
    step = (b - a) / sub
    return [k * step + a for k in range(sub)] + [b]


def _tiles(panels):
    """(panel index, r0, u from, u to, theta from, theta to) of every tile of
    each panel (r0, a, b, c, d, sub): the rectangle u in [a,b], t in [c,d]
    split sub x sub, in row-major order."""
    for p, (r0, a, b, c, d, sub) in enumerate(panels):
        rs, ts = _edges(a, b, sub), _edges(c, d, sub)
        for r_lo, r_hi in zip(rs, rs[1:]):
            for t_lo, t_hi in zip(ts, ts[1:]):
                yield p, r0, r_lo, r_hi, t_lo, t_hi


def _panels(f, panels) -> list[float]:
    """Tensor Gauss-Legendre of f(r, 1 - r, t, sin(t/2), cos(t/2)) over each
    panel's tiles: node geometry once per block of _BLOCK tiles, f once per
    batch of _TILES, each tile reduced by np.vecdot(w @ vals, w) (one ddot
    per tile), and each panel's value the sum of its tiles in order."""
    x, w = _GAUSS
    tiles, sums = _tiles(panels), [0.0] * len(panels)
    while block := list(islice(tiles, _BLOCK)):
        panel, r0, r_lo, r_hi, t_lo, t_hi = np.array(block).T
        half_r, half_t = 0.5 * (r_hi - r_lo), 0.5 * (t_hi - t_lo)
        u = (0.5 * (r_hi + r_lo))[:, None] + half_r[:, None] * x
        t = ((0.5 * (t_hi + t_lo))[:, None] + half_t[:, None] * x)[:, None, :]
        r, d = (r0[:, None] + u)[:, :, None], ((1.0 - r0)[:, None] - u)[:, :, None]
        sh, ch = np.sin(0.5 * t), np.cos(0.5 * t)
        hw, panel = half_r * half_t, panel.astype(int).tolist()
        for i in range(0, len(block), _TILES):
            b = slice(i, i + _TILES)
            vals = f(r[b], d[b], t[b], sh[b], ch[b])
            for p, v in zip(panel[b], (hw[b] * np.vecdot(w @ vals, w)).tolist()):
                sums[p] += v
    return sums


def _integrand(p0: float, beta: float, n: int, m: int):
    """Folded integrand on theta in [0, pi] (the x2 fold factor is applied
    by the caller): r^{p0} s^beta Re[e^{i n theta} (1 - r e^{i theta})^m],
    s = (1-r)^2 + 4 r sin^2(theta/2).  _panels passes d = 1 - r computed as
    (1 - r0) - u, so r0 = 1 keeps it exact near the singular point for
    subdivision depths far below the spacing of doubles at r = 1."""

    def f(r, d, t, sh, ch):
        # r^{p0} s^beta, with s built in place; products in place
        acc = 4.0 * r * sh
        acc *= sh
        acc += d * d
        np.power(acc, beta, out=acc)
        np.multiply(np.power(r, p0), acc, out=acc)
        if n == 0 and m == 0:
            return acc
        phase = np.exp(1j * n * t)
        if m != 0:
            lin = d + 2.0 * r * sh * (sh - 1j * ch)
            phase = phase * (lin if m == 1 else lin**m)  # lin**1 is a copy of lin
        return np.multiply(acc, np.real(phase), out=acc)

    return f


def rnm_quadrature(p: RnmParams, cfg: QuadConfig = QuadConfig()) -> complex:
    """Numerically integrate the kernel in its absolute-convergence region.

    Preconditions (DomainError otherwise): Re(alpha'+alpha) > -2,
    Re(beta'+beta) > -2, Re(alpha'+alpha+beta'+beta) < -2, lambda real > 0.
    Raises ConvergenceFailure, with the levels reached, when a refinement
    loop exhausts its budget.  Deterministic: fixed mesh construction and
    summation order.
    """
    lam = complex(p.lam)
    if lam.imag != 0 or lam.real <= 0:
        raise DomainError("quadrature oracle requires real lambda > 0")
    lam = lam.real
    alpha = float(p.alpha)
    beta = float(p.beta)
    n, m = p.n, p.m
    two_a = 2.0 * alpha + n
    two_b = 2.0 * beta + m
    if not two_a > -2:
        raise DomainError(f"Re(alpha'+alpha) = {two_a} must exceed -2")
    if not two_b > -2:
        raise DomainError(f"Re(beta'+beta) = {two_b} must exceed -2")
    if not two_a + two_b < -2:
        raise DomainError(f"Re(alpha'+alpha+beta'+beta) = {two_a + two_b} must be below -2")

    p0 = two_a + 1.0  # radial power at r = 0, > -1
    w = two_b  # local exponent at (r, theta) = (1, 0), > -2
    pt = two_a + two_b + 1.0  # radial power at infinity, < -1
    f = _integrand(p0, beta, n, m)
    eps_frac = cfg.rel_tol / 10.0
    d = _SPLIT

    # panels are (r0, u from, u to, theta from, theta to, tiles per side) in
    # u = r - r0; r0 = 1 around the singular point.  Fixed smooth rectangles
    # beside the singular box, then dyadic radial panels from 2 out to r_max
    mesh = [(1.0, -d, d, d, math.pi, 4), (0.0, 1.0 + d, 2.0, 0.0, math.pi, 4)]
    r_lo = 2.0
    while r_lo < _R_MAX:
        r_hi = min(2.0 * r_lo, _R_MAX)
        mesh.append((0.0, r_lo, r_hi, 0.0, math.pi, 2))
        r_lo = r_hi

    # each refinement region at level k: a bound on the part it still
    # neglects (all constants are crude upper envelopes) and the panels that
    # take it to level k + 1
    def inner_bound(k: int) -> float:
        # |s^beta (1-re^{it})^m| <= cw on r <= 1/2
        r_in = d * 2.0**-k
        cw = (1.0 - r_in) ** w if w < 0 else (1.0 + r_in) ** w
        return math.pi * cw * r_in ** (p0 + 1.0) / (p0 + 1.0)

    def inner_panels(k: int) -> list[tuple]:
        r_in = d * 2.0**-k
        return [(0.0, r_in / 2.0, r_in, 0.0, math.pi, 2)]

    def core_bound(k: int) -> float:
        h = d * 2.0**-k
        cr = max((1.0 - d) ** p0, (1.0 + d) ** p0)
        cw = math.sqrt(2.0 / math.pi**2) if w < 0 else 2.0
        return cr * cw**w * 4.0 * h ** (w + 2.0) / (w + 2.0)

    def shell_panels(k: int) -> list[tuple]:
        # one L-infinity dyadic shell around (1, 0), in local coordinates
        h = d * 2.0**-k
        hh = h / 2.0
        return [(1.0, -h, -hh, 0.0, h, 2), (1.0, hh, h, 0.0, h, 2), (1.0, -hh, hh, hh, h, 2)]

    def tail_bound(k: int) -> float:
        c = 2.0 ** (2.0 * abs(beta)) * 2.0 ** abs(m)
        return math.pi * c * (r_lo * 2.0**k) ** (pt + 1.0) / (-(pt + 1.0))

    def tail_panels(k: int) -> list[tuple]:
        r = r_lo * 2.0**k
        return [(0.0, r, 2.0 * r, 0.0, math.pi, 2)]

    regions = (  # (bound, panels, budget spent at level k, message)
        (inner_bound, inner_panels, lambda k: k > _MAX_SUBDIVISIONS,
         "inner grading budget exhausted"),
        (core_bound, shell_panels, lambda k: k > _MAX_SUBDIVISIONS,
         "singular-shell budget exhausted"),
        (tail_bound, tail_panels, lambda k: r_lo * 2.0**k > 1e60,
         "tail decays too slowly to certify"),
    )
    for k in range(8):
        mesh += inner_panels(k) + shell_panels(k)
    levels = [8, 8, 0]  # inner disk, singular shells, tail
    pieces = _panels(f, mesh)

    # the bounds read only the levels and tol, so each pass lists its panels
    # (and meets any exhausted budget) before it evaluates them
    for _ in range(16):
        scale = max(abs(math.fsum(pieces)), 1e-300)
        tol = eps_frac * scale
        before = list(levels)
        mesh = []
        for j, (bound, panels, exhausted, message) in enumerate(regions):
            while bound(levels[j]) >= tol:
                mesh += panels(levels[j])
                levels[j] += 1
                if exhausted(levels[j]):
                    raise ConvergenceFailure(message, list(levels))
        if levels == before:
            break
        pieces += _panels(f, mesh)
    else:
        raise ConvergenceFailure("refinement did not stabilize", list(levels))

    total = 2.0 * math.fsum(pieces)  # theta fold
    return -2j * lam ** (-(two_a + 2.0)) * total


def _nodes(edges: list[float]):
    """Half-widths, and the Gauss nodes one row per panel, of the panels
    between consecutive edges."""
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (hi - lo)
    return half.tolist(), (0.5 * (hi + lo))[:, None] + half[:, None] * _GAUSS[0]


def vanishing_integral_check(n: int, alpha, R: float) -> complex:
    """Integrate z^{alpha+n} conj(z)^alpha over |z| <= R numerically.

    The angular factor integrates to exactly zero for n != 0; the returned
    magnitude is the numerical residual, to be compared against
    1e-8 x (radial mass).  The n = 0 case is analytic-continuation
    cancellation, handled symbolically by vanishing_symbolic_cancellation.
    """
    n = int(n)
    if n == 0:
        raise DomainError("n = 0 is checked symbolically, not numerically")
    a = float(alpha)
    power = 2.0 * a + n + 1.0
    if not power > -1:
        raise DomainError(f"radial power {power} is not integrable at 0")
    if not R > 0:
        raise DomainError("R must be positive")

    wts = _GAUSS[1]
    # radial factor on dyadic panels, the innermost ending at R / 2^40
    edges = [0.0, R / 2.0**40]
    while edges[-1] < R:
        edges.append(min(2.0 * edges[-1], R))
    halves, r = _nodes(edges)
    rad = math.fsum((np.vecdot(np.power(r, power), wts) * halves).tolist())
    # angular factor on equal panels; each row is summed on its own
    panels = max(8, 4 * abs(n))
    halves, t = _nodes([2.0 * math.pi * k / panels for k in range(panels + 1)])
    angular = sum(half * complex(np.sum(row)) for half, row in zip(halves, wts * np.exp(1j * n * t)))
    return -2j * rad * angular


def radial_mass(n: int, alpha, R: float) -> float:
    """2 pi int_0^R r^{2 alpha + n + 1} dr, the comparison scale for the
    vanishing check (closed form)."""
    a = float(alpha)
    power = 2.0 * a + n + 2.0
    if not power > 0:
        raise DomainError("radial mass diverges")
    return 2.0 * math.pi * R**power / power


def vanishing_symbolic_cancellation(alpha) -> Fraction:
    """Exact cancellation of the two analytic continuations at n = 0.

    Both continuations of the radial integral carry the coefficient
    -2 pi i R^{2(alpha+1)}/(alpha+1) with opposite signs; their sum is
    identically zero as an exact rational coefficient, for every R.
    Returns that coefficient sum (always Fraction(0)).
    """
    a = Fraction(alpha)
    if a == -1:
        raise DomainError("alpha = -1 is outside the cancellation identity")
    inward = Fraction(-2) / (a + 1)
    outward = Fraction(2) / (a + 1)
    return inward + outward
