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
before it evaluates any.  numpy lists their 24 x 24-node tiles from the
panel table, computes the node geometry of _BLOCK tiles at once, and
evaluates the integrand, which builds s and 1 - r e^{i theta} in place, on
_TILES tiles at once with one np.vecdot reduction: the working arrays stay
below 0.5 MB however many panels a pass adds.  np.vecdot reduces each tile
with one ddot and each panel sums its tiles in order, so the result has the
same bits as one evaluation per tile.  A pass whose sum is not finite, or a
bound past the range of doubles, fails as an exhausted budget does.
vanishing_integral_check evaluates all its radial panels in one numpy call,
and all its angular panels in another.  Of the package it imports errors only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .errors import ConvergenceFailure, DomainError, exact_int


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
_TILES = 16  # tiles per numpy evaluation; its working arrays peak at about 0.45 MB
_BLOCK = 256  # tiles whose node geometry is computed at once, about 0.3 MB


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


def _tiles(panels):
    """Columns (panel index, r0, u from, u to, theta from, theta to) of the
    tiles of panels (r0, a, b, c, d, sub), each rectangle u in [a,b], t in
    [c,d] split sub x sub in row-major order.  Edge k of [a, b] is
    k (b - a)/sub + a and the last is b, as numpy's evenly spaced edges."""
    table = np.array(panels)
    panel = np.repeat(np.arange(len(table)), (table[:, 5] ** 2).astype(int))
    r0, a, b, c, d, sub = table[panel].T
    i, j = np.divmod(np.arange(len(panel)) - np.searchsorted(panel, panel), sub)

    def edges(k, lo, hi):
        step = (hi - lo) / sub
        return k * step + lo, np.where(k + 1 == sub, hi, (k + 1) * step + lo)

    return panel, r0, *edges(i, a, b), *edges(j, c, d)


def _panels(f, panels) -> list[float]:
    """Tensor Gauss-Legendre of f(r, 1 - r, t, sin(t/2), cos(t/2)) over each
    panel's tiles: node geometry once per block of _BLOCK tiles, f once per
    batch of _TILES, each tile reduced by np.vecdot(w @ vals, w) (one ddot
    per tile), and each panel's value the sum of its tiles in order."""
    x, w = _GAUSS
    panel, r0, r_lo, r_hi, t_lo, t_hi = _tiles(panels)
    half_r, half_t = 0.5 * (r_hi - r_lo), 0.5 * (t_hi - t_lo)
    mid_r, mid_t = 0.5 * (r_hi + r_lo), 0.5 * (t_hi + t_lo)
    values = np.empty(len(panel))
    for i in range(0, len(panel), _BLOCK):
        b = slice(i, i + _BLOCK)
        u = mid_r[b, None] + half_r[b, None] * x
        t = (mid_t[b, None] + half_t[b, None] * x)[:, None, :]
        r, d = (r0[b, None] + u)[:, :, None], ((1.0 - r0)[b, None] - u)[:, :, None]
        sh, ch = np.sin(0.5 * t), np.cos(0.5 * t)
        for j in range(0, len(u), _TILES):
            s = slice(j, j + _TILES)
            values[i + j:i + j + _TILES] = np.vecdot(w @ f(r[s], d[s], t[s], sh[s], ch[s]), w)
    sums = np.zeros(len(panels))
    np.add.at(sums, panel, half_r * half_t * values)  # tile by tile, in order
    return sums.tolist()


def _integrand(p0: float, beta: float, n: int, m: int):
    """Folded integrand on theta in [0, pi] (the x2 fold factor is applied
    by the caller): r^{p0} s^beta Re[e^{i n theta} (1 - r e^{i theta})^m],
    s = (1-r)^2 + 4 r sin^2(theta/2).  _panels passes d = 1 - r computed as
    (1 - r0) - u, so r0 = 1 keeps it exact near the singular point for
    subdivision depths far below the spacing of doubles at r = 1."""

    def f(r, d, t, sh, ch):
        # s = d^2 + (4r) sh^2 in place; for m != 0 the product is 2 (q sh),
        # q = 2r sh (the same doubles: scaling by 2 is exact above the
        # subnormals), and 1 - r e^{it} = (d + q sh) - i q ch goes into lin
        if m == 0:
            acc = 4.0 * r * sh
            acc *= sh
        else:
            q = 2.0 * r * sh
            acc = q * sh
            lin = np.empty(acc.shape, complex)
            np.add(d, acc, out=lin.real)
            np.multiply(q, -ch, out=lin.imag)
            acc *= 2.0
        acc += d * d
        np.power(acc, beta, out=acc)
        np.multiply(np.power(r, p0), acc, out=acc)
        if m != 0:
            lin = lin if m == 1 else lin**m
            if n != 0:  # numpy's complex product; Re taken by hand rounds otherwise
                np.multiply(np.exp(1j * n * t), lin, out=lin)
            return np.multiply(acc, lin.real, out=acc)
        return acc if n == 0 else np.multiply(acc, np.exp(1j * n * t).real, out=acc)

    return f


def rnm_quadrature(p, cfg: QuadConfig = QuadConfig()) -> complex:
    """Numerically integrate the kernel at p.alpha, p.n, p.beta, p.m, p.lam.

    Preconditions (DomainError otherwise): Re(alpha'+alpha) > -2,
    Re(beta'+beta) > -2, Re(alpha'+alpha+beta'+beta) < -2, lambda real > 0,
    lambda^{-(2 alpha + n + 2)} a normal double (checked before any panel).
    Raises ConvergenceFailure, with the levels reached, when a refinement
    loop exhausts its budget or a pass's sum or a bound is not finite.
    Deterministic: fixed mesh construction and summation order.
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
    try:
        prefactor = lam ** (-(two_a + 2.0))
    except OverflowError:
        prefactor = math.inf
    if not 2.0**-1022 <= prefactor < math.inf:  # from the least normal double up
        raise DomainError(f"lambda^{-(two_a + 2.0):.6g} = {prefactor:.6g} is not a normal double")

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
    def inner(k: int) -> tuple[float, list[tuple]]:
        # |s^beta (1-re^{it})^m| <= cw on r <= 1/2
        r_in = d * 2.0**-k
        cw = (1.0 - r_in) ** w if w < 0 else (1.0 + r_in) ** w
        return (math.pi * cw * r_in ** (p0 + 1.0) / (p0 + 1.0),
                [(0.0, r_in / 2.0, r_in, 0.0, math.pi, 2)])

    def core(k: int) -> tuple[float, list[tuple]]:
        # one L-infinity dyadic shell around (1, 0), in local coordinates
        h = d * 2.0**-k
        hh = h / 2.0
        cr = max((1.0 - d) ** p0, (1.0 + d) ** p0)
        cw = math.sqrt(2.0 / math.pi**2) if w < 0 else 2.0
        return (cr * cw**w * 4.0 * h ** (w + 2.0) / (w + 2.0),
                [(1.0, -h, -hh, 0.0, h, 2), (1.0, hh, h, 0.0, h, 2), (1.0, -hh, hh, hh, h, 2)])

    def tail(k: int) -> tuple[float, list[tuple]]:
        r = r_lo * 2.0**k
        c = 2.0 ** (2.0 * abs(beta)) * 2.0 ** abs(m)
        return math.pi * c * r ** (pt + 1.0) / (-(pt + 1.0)), [(0.0, r, 2.0 * r, 0.0, math.pi, 2)]

    regions = (  # (region, budget spent at level k, message)
        (inner, lambda k: k > _MAX_SUBDIVISIONS, "inner grading budget exhausted"),
        (core, lambda k: k > _MAX_SUBDIVISIONS, "singular-shell budget exhausted"),
        (tail, lambda k: r_lo * 2.0**k > 1e60, "tail decays too slowly to certify"),
    )
    for k in range(8):
        mesh += inner(k)[1] + core(k)[1]
    levels = [8, 8, 0]  # inner disk, singular shells, tail
    pieces = _panels(f, mesh)

    # the bounds read only the levels and tol, so each pass lists its panels
    # (and meets any exhausted budget) before it evaluates them; a sum that
    # is not finite, or a bound past the range of doubles, fails the same way
    for _ in range(16):
        before, mesh = list(levels), []
        try:
            if not math.isfinite(scale := math.fsum(pieces)):  # ValueError on inf - inf
                raise OverflowError
            tol = eps_frac * max(abs(scale), 1e-300)
            for j, (region, exhausted, message) in enumerate(regions):
                while (step := region(levels[j]))[0] >= tol:
                    mesh += step[1]
                    levels[j] += 1
                    if exhausted(levels[j]):
                        raise ConvergenceFailure(message, list(levels))
        except (OverflowError, ValueError):
            raise ConvergenceFailure("panel sum or bound not finite", list(levels)) from None
        if levels == before:
            break
        pieces += _panels(f, mesh)
    else:
        raise ConvergenceFailure("refinement did not stabilize", list(levels))

    total = 2.0 * math.fsum(pieces)  # theta fold
    return -2j * prefactor * total


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
    n = exact_int(n)
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
