"""The per-panel quadrature of branchzeta.quadrature, kept as an oracle for
its batched tiles.

rnm_quadrature here evaluates each 24 x 24 Gauss-Legendre tile with its own
call of the integrand, one _panel call per panel, in the order the mesh is
built.  The package lists the same panels first and evaluates their tiles in
fixed-size batches; each tile's reduction, each panel's sum over its tiles
and the final math.fsum are the same, so both return the same bits.  The
mesh constants are read from the package, so a test that patches them there
does not patch them here.
"""

from __future__ import annotations

import math

import numpy as np

from branchzeta.errors import ConvergenceFailure, DomainError
from branchzeta.gammaratio import RnmParams
from branchzeta.quadrature import _GAUSS, _MAX_SUBDIVISIONS, _R_MAX, _SPLIT, QuadConfig


def _panel(f, a, b, c, d, sub=2):
    """Tensor Gauss-Legendre of f over [a,b] x [c,d], split sub x sub."""
    x, w = _GAUSS
    total = 0.0
    rs = np.linspace(a, b, sub + 1)
    ts = np.linspace(c, d, sub + 1)
    for i in range(sub):
        half_r = 0.5 * (rs[i + 1] - rs[i])
        mid_r = 0.5 * (rs[i + 1] + rs[i])
        rn = mid_r + half_r * x
        for j in range(sub):
            half_t = 0.5 * (ts[j + 1] - ts[j])
            mid_t = 0.5 * (ts[j + 1] + ts[j])
            tn = mid_t + half_t * x
            vals = f(rn[:, None], tn[None, :])
            total += half_r * half_t * float(w @ vals @ w)
    return total


def _integrand(p0: float, beta: float, n: int, m: int, r0: float):
    """Folded integrand on theta in [0, pi] (the x2 fold factor is applied
    by the caller): r^{p0} s^beta Re[e^{i n theta} (1 - r e^{i theta})^m],
    s = (1-r)^2 + 4 r sin^2(theta/2), in the coordinate u = r - r0.  With
    1 - r computed as (1 - r0) - u, r0 = 1 keeps it exact near the singular
    point for subdivision depths far below the spacing of doubles at r = 1."""

    def f(u, t):
        r = r0 + u
        d = (1.0 - r0) - u
        sh = np.sin(0.5 * t)
        s = d * d + 4.0 * r * sh * sh
        acc = np.power(r, p0) * np.power(s, beta)
        if n == 0 and m == 0:
            return acc
        phase = np.exp(1j * n * t)
        if m != 0:
            lin = d + 2.0 * r * sh * (sh - 1j * np.cos(0.5 * t))
            phase = phase * lin**m
        return acc * np.real(phase)

    return f


def rnm_quadrature(p: RnmParams, cfg: QuadConfig = QuadConfig()) -> complex:
    """Numerically integrate the kernel in its absolute-convergence region.

    Preconditions (DomainError otherwise): Re(alpha'+alpha) > -2,
    Re(beta'+beta) > -2, Re(alpha'+alpha+beta'+beta) < -2, lambda real > 0.
    Raises ConvergenceFailure when a refinement loop exhausts its budget.
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

    p0 = two_a + 1.0  # radial power at r = 0, > -1
    w = two_b  # local exponent at (r, theta) = (1, 0), > -2
    pt = two_a + two_b + 1.0  # radial power at infinity, < -1
    f = _integrand(p0, beta, n, m, 0.0)
    floc = _integrand(p0, beta, n, m, 1.0)  # u = r - 1 around the singular point
    eps_frac = cfg.rel_tol / 10.0
    d = _SPLIT

    # fixed smooth rectangles beside the singular box, then dyadic radial
    # panels from 2 out to r_max
    pieces = [_panel(floc, -d, d, d, math.pi, sub=4), _panel(f, 1.0 + d, 2.0, 0.0, math.pi, sub=4)]
    r_lo = 2.0
    while r_lo < _R_MAX:
        r_hi = min(2.0 * r_lo, _R_MAX)
        pieces.append(_panel(f, r_lo, r_hi, 0.0, math.pi))
        r_lo = r_hi

    # each refinement region at level k: a bound on the part it still
    # neglects (all constants are crude upper envelopes) and the panels that
    # take it to level k + 1
    def inner_bound(k: int) -> float:
        # |s^beta (1-re^{it})^m| <= cw on r <= 1/2
        r_in = d * 2.0**-k
        cw = (1.0 - r_in) ** w if w < 0 else (1.0 + r_in) ** w
        return math.pi * cw * r_in ** (p0 + 1.0) / (p0 + 1.0)

    def inner_panels(k: int) -> list[float]:
        r_in = d * 2.0**-k
        return [_panel(f, r_in / 2.0, r_in, 0.0, math.pi)]

    def core_bound(k: int) -> float:
        h = d * 2.0**-k
        cr = max((1.0 - d) ** p0, (1.0 + d) ** p0)
        cw = math.sqrt(2.0 / math.pi**2) if w < 0 else 2.0
        return cr * cw**w * 4.0 * h ** (w + 2.0) / (w + 2.0)

    def shell_panels(k: int) -> list[float]:
        # one L-infinity dyadic shell around (1, 0), in local coordinates
        h = d * 2.0**-k
        hh = h / 2.0
        return [_panel(floc, -h, -hh, 0.0, h), _panel(floc, hh, h, 0.0, h),
                _panel(floc, -hh, hh, hh, h)]

    def tail_bound(k: int) -> float:
        c = 2.0 ** (2.0 * abs(beta)) * 2.0 ** abs(m)
        return math.pi * c * (r_lo * 2.0**k) ** (pt + 1.0) / (-(pt + 1.0))

    def tail_panels(k: int) -> list[float]:
        r = r_lo * 2.0**k
        return [_panel(f, r, 2.0 * r, 0.0, math.pi)]

    regions = (  # (bound, panels, budget spent at level k, message)
        (inner_bound, inner_panels, lambda k: k > _MAX_SUBDIVISIONS,
         "inner grading budget exhausted"),
        (core_bound, shell_panels, lambda k: k > _MAX_SUBDIVISIONS,
         "singular-shell budget exhausted"),
        (tail_bound, tail_panels, lambda k: r_lo * 2.0**k > 1e60,
         "tail decays too slowly to certify"),
    )
    for k in range(8):
        pieces += inner_panels(k) + shell_panels(k)
    levels = [8, 8, 0]  # inner disk, singular shells, tail

    for _ in range(16):
        scale = max(abs(math.fsum(pieces)), 1e-300)
        tol = eps_frac * scale
        before = list(levels)
        for j, (bound, panels, exhausted, message) in enumerate(regions):
            while bound(levels[j]) >= tol:
                pieces += panels(levels[j])
                levels[j] += 1
                if exhausted(levels[j]):
                    raise ConvergenceFailure(message)
        if levels == before:
            break
    else:
        raise ConvergenceFailure("refinement did not stabilize")

    total = 2.0 * math.fsum(pieces)  # theta fold
    return -2j * lam ** (-(two_a + 2.0)) * total
