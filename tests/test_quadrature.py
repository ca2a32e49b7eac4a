"""Quadrature oracle tests: convergence-region gates, agreement with the
closed form on the full admissible grid, mesh-refinement monotonicity,
determinism, bit identity with the per-panel oracle (quadrature_oracle.py)
on every integrand branch and of np.vecdot with one dot per tile, the
memory of one batched evaluation, ConvergenceFailure where a sum or a bound
leaves the doubles, and the vanishing-integral checks."""

import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import quadrature_oracle as oracle

from branchzeta import quadrature
from branchzeta.errors import ConvergenceFailure, DomainError
from branchzeta.gammaratio import RnmParams, rnm_closed_form
from branchzeta.quadrature import (
    QuadConfig,
    radial_mass,
    rnm_quadrature,
    vanishing_integral_check,
    vanishing_symbolic_cancellation,
)

GRID_PAIRS = [
    (Fraction(-3, 5), Fraction(-7, 10)),
    (Fraction(-2, 3), Fraction(-2, 3)),
    (Fraction(-11, 20), Fraction(-19, 20)),
]


def in_convergence_region(alpha: Fraction, n: int, beta: Fraction, m: int) -> bool:
    return (
        2 * alpha + n > -2
        and 2 * beta + m > -2
        and 2 * alpha + n + 2 * beta + m < -2
    )


class TestConfig:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.rel_tol == 1e-5

    @pytest.mark.parametrize(
        "bad",
        [
            dict(rel_tol=0.0),
            dict(rel_tol=-1e-3),
            dict(rel_tol=float("inf")),
        ],
    )
    def test_invalid(self, bad):
        with pytest.raises(DomainError):
            QuadConfig(**bad)

    def test_mesh_geometry_is_not_configurable(self):
        with pytest.raises(TypeError):
            QuadConfig(r_max=4.0)


class TestGates:
    def test_total_power_gate(self):
        # Re sum = -0.4 is not below -2
        p = RnmParams(alpha=Fraction(-1, 10), n=0, beta=Fraction(-1, 10), m=0, lam=1.0)
        with pytest.raises(DomainError):
            rnm_quadrature(p)

    def test_shifted_case_outside_region(self):
        # 2*(-3/5)+1 + 2*(-7/10) = -1.6 > -2: the oracle's own precondition
        # excludes this parameter point, closed form only
        p = RnmParams(alpha=Fraction(-3, 5), n=1, beta=Fraction(-7, 10), m=0, lam=1.0)
        assert rnm_closed_form(p).order == 0
        with pytest.raises(DomainError):
            rnm_quadrature(p)

    def test_alpha_gate(self):
        p = RnmParams(alpha=Fraction(-3, 2), n=0, beta=Fraction(-3, 5), m=0, lam=1.0)
        with pytest.raises(DomainError):
            rnm_quadrature(p)

    def test_beta_gate(self):
        p = RnmParams(alpha=Fraction(-4, 5), n=2, beta=Fraction(-19, 20), m=-1, lam=1.0)
        with pytest.raises(DomainError):
            rnm_quadrature(p)

    def test_lambda_gate(self):
        for lam in (-1.0, 1 + 1j):
            p = RnmParams(alpha=Fraction(-3, 5), n=0, beta=Fraction(-3, 5), m=0, lam=lam)
            with pytest.raises(DomainError):
                rnm_quadrature(p)

    @pytest.mark.parametrize("lam", [1e-300, 1e-250, 1e250, 1e300])
    def test_prefactor_outside_the_doubles(self, lam):
        # lambda^-1.4 overflows below 1e-220 and leaves the normal doubles
        # above 1e220; the closed form refuses its value there too
        p = RnmParams(alpha=Fraction(-3, 10), n=0, beta=Fraction(-4, 5), m=0, lam=lam)
        with pytest.raises(DomainError, match="outside the double range"):
            rnm_closed_form(p)
        with pytest.raises(DomainError, match=r"lambda\^-1\.4 = (inf|0) is not a normal double"):
            rnm_quadrature(p)

    @pytest.mark.parametrize("alpha, beta, budget, message", [
        # radial power 2 alpha + n + 1 = -0.1 at r = 0: the inner bound
        # falls as r^0.9 and 8 levels of inner grading cannot certify it
        (Fraction(-11, 20), Fraction(-19, 20), 8, "inner grading budget exhausted"),
        # (2 beta + m) + 2 = 0.04 needs hundreds of shells; an 8-shell budget
        # cannot certify the singular core
        (Fraction(-1, 40), Fraction(-49, 50), 8, "singular-shell budget exhausted"),
        # radial power -1.01 at infinity: the tail bound falls as r^-0.01 and
        # is still above tolerance at radius 1e60
        (Fraction(-1, 2), Fraction(-101, 200), None, "tail decays too slowly to certify"),
    ], ids=["inner", "shell", "tail"])
    def test_budget_exhaustion(self, monkeypatch, alpha, beta, budget, message):
        if budget is not None:
            monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
        p = RnmParams(alpha=alpha, n=0, beta=beta, m=0, lam=1.0)
        with pytest.raises(ConvergenceFailure, match=message):
            rnm_quadrature(p)


    @pytest.mark.parametrize("alpha, beta, budget, levels", [
        (Fraction(-11, 20), Fraction(-19, 20), 8, [9, 8, 0]),
        (Fraction(-1, 40), Fraction(-49, 50), 8, [8, 9, 0]),
        # 1e3 * 2^190 is the first tail radius past 1e60
        (Fraction(-1, 2), Fraction(-101, 200), None, [16, 18, 190]),
    ], ids=["inner", "shell", "tail"])
    def test_budget_exhaustion_levels(self, monkeypatch, alpha, beta, budget, levels):
        # [inner, shell, tail] at the raise: the exhausted region is one past its budget
        if budget is not None:
            monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
        p = RnmParams(alpha=alpha, n=0, beta=beta, m=0, lam=1.0)
        with pytest.raises(ConvergenceFailure) as info:
            rnm_quadrature(p)
        assert info.value.levels == levels

    @pytest.mark.parametrize("m, closed", [(120, -1.2414), (200, -0.9137), (1100, -0.3285)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_integrand_fails_with_levels(self, m, closed):
        # admissible, with a finite closed form, but lin^m and s^beta leave
        # the range of doubles on the first pass; at m = 1100 the tail bound's
        # 2^|m| would overflow too
        p = RnmParams(alpha=Fraction(-7, 10), n=0, beta=(Fraction(-7, 10) - m) / 2, m=m, lam=1)
        assert in_convergence_region(p.alpha, p.n, p.beta, p.m)
        assert abs(rnm_closed_form(p).value - closed * 1j) < 1e-4
        with pytest.raises(ConvergenceFailure, match="not finite") as info:
            rnm_quadrature(p)
        assert info.value.levels == [8, 8, 0]

    def test_overflowing_bound_fails_with_levels(self, monkeypatch):
        # a finite integrand, so only the tail bound 2^|m| leaves the doubles
        monkeypatch.setattr(quadrature, "_integrand", lambda *a: lambda r, d, t, sh, ch: r * sh)
        p = RnmParams(alpha=Fraction(-7, 10), n=0, beta=Fraction(-11007, 20), m=1100, lam=1)
        with pytest.raises(ConvergenceFailure, match="not finite") as info:
            rnm_quadrature(p)
        assert info.value.levels == [8, 8, 0]  # the tail's first bound raised


class TestOracleAgreement:
    def test_grid_intersection_is_nm_zero(self):
        # the reference grid n, m in {-2..2}^2 meets the convergence region
        # only at n = m = 0 for all three (alpha, beta) pairs
        admissible = set()
        for (a, b), n, m in product(GRID_PAIRS, range(-2, 3), range(-2, 3)):
            if in_convergence_region(a, n, b, m):
                admissible.add((a, b, n, m))
        assert admissible == {(a, b, 0, 0) for (a, b) in GRID_PAIRS}

    @pytest.mark.parametrize("pair", GRID_PAIRS, ids=str)
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_grid_agreement(self, pair, lam):
        a, b = pair
        p = RnmParams(alpha=a, n=0, beta=b, m=0, lam=lam)
        closed = rnm_closed_form(p)
        assert closed.order == 0
        quad = rnm_quadrature(p)
        rel = abs(quad - closed.value) / abs(closed.value)
        assert rel <= 1e-4, (pair, lam, rel)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=Fraction(-4, 5), n=1, beta=Fraction(-9, 10), m=0, lam=1.0),
            dict(alpha=Fraction(-4, 5), n=0, beta=Fraction(-9, 10), m=1, lam=1.0),
            dict(alpha=Fraction(1, 5), n=-1, beta=Fraction(-9, 10), m=0, lam=2.0),
            dict(alpha=Fraction(-4, 5), n=0, beta=Fraction(-1, 4), m=-1, lam=1.0),
        ],
    )
    def test_oscillatory_cases(self, kw):
        # nonzero Fourier index n and binomial index m inside the region
        p = RnmParams(**kw)
        assert in_convergence_region(p.alpha, p.n, p.beta, p.m)
        closed = rnm_closed_form(p)
        assert closed.order == 0
        quad = rnm_quadrature(p)
        rel = abs(quad - closed.value) / abs(closed.value)
        assert rel <= 1e-4, (kw, rel)

    def test_lambda_only_scales_prefactor(self):
        a, b = Fraction(-3, 5), Fraction(-7, 10)
        q1 = rnm_quadrature(RnmParams(alpha=a, n=0, beta=b, m=0, lam=1.0))
        q2 = rnm_quadrature(RnmParams(alpha=a, n=0, beta=b, m=0, lam=2.0))
        scale = 2.0 ** -(2 * float(a) + 0 + 2)
        assert abs(q2 - q1 * scale) <= 1e-14 * abs(q1)

    def test_smaller_r_max_still_converges(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_R_MAX", 4.0)
        p = RnmParams(alpha=Fraction(-2, 3), n=0, beta=Fraction(-2, 3), m=0, lam=1.0)
        closed = rnm_closed_form(p).value
        quad = rnm_quadrature(p)
        assert abs(quad - closed) / abs(closed) <= 1e-4


# Seeded kernel points inside the convergence region (alpha, n, beta, m,
# lambda) with float.hex of the closed form and of the quadrature at the
# default rel_tol, the latter as computed before the mesh geometry became
# fixed.
FROZEN_VALUES = [
    (Fraction(-9, 11), 0, Fraction(-5, 6), 0, Fraction(2, 1),
     ("0x0.0p+0", "-0x1.cdd3d6f74e090p+5"), ("0x0.0p+0", "-0x1.cdd3b86b86d41p+5")),
    (Fraction(-53, 42), 1, Fraction(-21, 46), 0, Fraction(1, 1),
     ("0x0.0p+0", "-0x1.48220b32c6ed4p+3"), ("0x0.0p+0", "-0x1.4822078027f15p+3")),
    (Fraction(-2, 3), 0, Fraction(-27, 23), 1, Fraction(1, 1),
     ("0x0.0p+0", "-0x1.2673fd28375c9p+4"), ("0x0.0p+0", "-0x1.2673ea4ebadd2p+4")),
    (Fraction(-11, 46), -1, Fraction(-29, 26), 1, Fraction(1, 2),
     ("0x0.0p+0", "0x1.8cc8fb8dce2c2p+4"), ("0x0.0p+0", "0x1.8cc8f91962e47p+4")),
    (Fraction(-29, 30), 1, Fraction(-22, 17), 1, Fraction(1, 2),
     ("0x0.0p+0", "-0x1.1ebdd7c493645p+4"), ("0x0.0p+0", "-0x1.1ebdd7c492fb8p+4")),
    (Fraction(-25, 38), 0, Fraction(-1, 6), -1, Fraction(2, 1),
     ("0x0.0p+0", "-0x1.645cf1e633618p+3"), ("0x0.0p+0", "-0x1.645ce206d71f7p+3")),
]


@pytest.mark.parametrize("alpha,n,beta,m,lam,closed_hex,quad_hex", FROZEN_VALUES)
def test_frozen_values_bit_for_bit(alpha, n, beta, m, lam, closed_hex, quad_hex):
    p = RnmParams(alpha=alpha, n=n, beta=beta, m=m, lam=lam)
    closed = rnm_closed_form(p)
    quad = rnm_quadrature(p)
    assert closed.order == 0
    assert (closed.value.real.hex(), closed.value.imag.hex()) == closed_hex
    assert (quad.real.hex(), quad.imag.hex()) == quad_hex


@st.composite
def region_points(draw):
    """(alpha, n, beta, m, lambda) with every margin of the convergence region,
    x = 2 alpha + n + 2, y = 2 beta + m + 2 and 2 - x - y, at least 0.3."""
    n, m = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    x = Fraction(draw(st.integers(300, 1400)), 1000)
    y = Fraction(draw(st.integers(300, 1700 - int(1000 * x))), 1000)
    lam = draw(st.floats(min_value=0.01, max_value=100.0))
    return (x - n - 2) / 2, n, (y - m - 2) / 2, m, lam


@given(st.integers(1, 8).flatmap(lambda rows: hnp.arrays(
    np.float64, (rows, 24), elements=st.floats(1e-30, 1e30) | st.floats(-1e30, -1e-30))))
def test_vecdot_is_one_ddot_per_row(rows):
    # the batched tile reduction has the bits of one dot per tile
    w = quadrature._GAUSS[1]
    assert np.vecdot(rows, w).tolist() == [float(row @ w) for row in rows]


@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("n", [0, 1])
def test_every_integrand_branch_matches_oracle(n, m):
    # one point per branch of the integrand, at margins x = 2 alpha + n + 2
    # and y = 2 beta + m + 2 inside the region
    x, y = Fraction(3, 5), Fraction(7, 10)
    p = RnmParams(alpha=(x - n - 2) / 2, n=n, beta=(y - m - 2) / 2, m=m, lam=1)
    cfg = QuadConfig(rel_tol=1e-5)
    got, want = rnm_quadrature(p, cfg), oracle.rnm_quadrature(p, cfg)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


class TestBatchedTiles:
    @given(region_points(), st.sampled_from([1e-3, 1e-5]))
    @settings(max_examples=40, deadline=None)
    def test_bits_match_per_panel_oracle(self, point, rel_tol):
        alpha, n, beta, m, lam = point
        p = RnmParams(alpha=alpha, n=n, beta=beta, m=m, lam=lam)
        cfg = QuadConfig(rel_tol=rel_tol)
        got, want = rnm_quadrature(p, cfg), oracle.rnm_quadrature(p, cfg)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("lam", [1, 2])
    def test_deep_grid_point_matches_oracle_in_bounded_memory(self, lam):
        # the second pass at (-11/20, -19/20) lists 2,772 tiles, eleven blocks
        a, b = GRID_PAIRS[2]
        p = RnmParams(alpha=a, n=0, beta=b, m=0, lam=lam)
        want = oracle.rnm_quadrature(p)
        tracemalloc.start()
        try:
            got = rnm_quadrature(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert peak < 4e6, peak

    def test_memory_of_one_call_is_bounded(self):
        # all the tiles of a pass in one evaluation peak at about 26 MB here
        p = RnmParams(alpha=Fraction(-11, 6), n=2, beta=Fraction(-1, 3), m=-1, lam=1)
        tracemalloc.start()
        try:
            rnm_quadrature(p, QuadConfig(rel_tol=1e-5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


class TestRefinement:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=Fraction(-3, 5), n=0, beta=Fraction(-7, 10), m=0, lam=1.0),
            dict(alpha=Fraction(-3, 5), n=0, beta=Fraction(-7, 10), m=0, lam=2.0),
            dict(alpha=Fraction(-2, 3), n=0, beta=Fraction(-2, 3), m=0, lam=1.0),
            dict(alpha=Fraction(-11, 20), n=0, beta=Fraction(-19, 20), m=0, lam=1.0),
            dict(alpha=Fraction(-4, 5), n=1, beta=Fraction(-9, 10), m=0, lam=1.0),
        ],
    )
    def test_halving_rel_tol_never_increases_deviation(self, kw):
        p = RnmParams(**kw)
        closed = rnm_closed_form(p).value
        devs = []
        rel_tol = 1e-3
        for _ in range(6):
            q = rnm_quadrature(p, QuadConfig(rel_tol=rel_tol))
            devs.append(abs(q - closed) / abs(closed))
            rel_tol /= 2
        for coarse, fine in zip(devs, devs[1:]):
            assert fine <= coarse, devs

    def test_bit_identical_reruns(self):
        p = RnmParams(alpha=Fraction(-2, 3), n=0, beta=Fraction(-2, 3), m=0, lam=1.0)
        runs = {rnm_quadrature(p, QuadConfig()) for _ in range(3)}
        assert len(runs) == 1


class TestVanishing:
    @pytest.mark.parametrize(
        "n,alpha,R",
        [(1, Fraction(-1, 4), 1.0), (3, Fraction(-3, 4), 2.0), (-1, Fraction(1, 4), 1.5)],
    )
    def test_angular_orthogonality(self, n, alpha, R):
        res = vanishing_integral_check(n, alpha, R)
        mass = radial_mass(n, alpha, R)
        assert mass > 0
        assert abs(res) <= 1e-8 * mass

    @pytest.mark.parametrize("n,alpha,R,hexes", [
        (1, Fraction(-1, 4), 1.0, ("0x1.9999999999999p-53", "0x1.9999999999999p-54")),
        (3, Fraction(-3, 4), 2.0, ("0x1.d17a716114ce2p-47", "0x1.02995b6ed2ab6p-48")),
        (-1, Fraction(1, 4), 1.5, ("-0x1.3988e1409212ep-51", "0x1.3988e1409212ep-52")),
        (12, Fraction(-5, 4), 10.0, ("0x1.f9c9fca4faa12p-15", "-0x1.234f1182aa462p-14")),
    ])
    def test_residual_bit_for_bit(self, n, alpha, R, hexes):
        # float.hex of the residual as one numpy call per panel computed it
        res = vanishing_integral_check(n, alpha, R)
        assert (res.real.hex(), res.imag.hex()) == hexes

    def test_radial_mass_closed_form(self):
        # 2 pi R^{2a+n+2} / (2a+n+2) at n=1, a=-1/4, R=1
        import math

        assert abs(radial_mass(1, Fraction(-1, 4), 1.0) - 2 * math.pi / 2.5) <= 1e-14

    @pytest.mark.parametrize("n,alpha", [(0, Fraction(-1)), (1, Fraction(-3, 2)), (-4, 1)])
    def test_radial_mass_diverges(self, n, alpha):
        # 2*alpha + n + 2 <= 0: the integral of r^{2 alpha + n + 1} diverges at 0
        with pytest.raises(DomainError, match="radial mass diverges"):
            radial_mass(n, alpha, 1.0)

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            vanishing_integral_check(0, Fraction(-1, 4), 1.0)

    def test_rejects_nonintegrable(self):
        with pytest.raises(DomainError):
            vanishing_integral_check(-2, Fraction(-1, 3), 1.0)
        with pytest.raises(DomainError):
            vanishing_integral_check(1, Fraction(-1, 4), -1.0)

    def test_symbolic_cancellation_exact(self):
        for alpha in [Fraction(-1, 4), Fraction(-3, 4), Fraction(2, 3), Fraction(5)]:
            out = vanishing_symbolic_cancellation(alpha)
            assert isinstance(out, Fraction)
            assert out == 0

    def test_symbolic_pole_rejected(self):
        with pytest.raises(DomainError):
            vanishing_symbolic_cancellation(Fraction(-1))
