import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oscoal import specfun
from oscoal.specfun import (
    assoc_laguerre,
    double_factorial,
    erf,
    gauss_2f1_neg1,
    hermite,
    spherical_harmonic,
)


def hermite_explicit(n, u):
    # independent oracle, evaluated exactly: the float u is a dyadic rational
    uq = Fraction(u)
    total = math.factorial(n) * sum(
        Fraction((-1) ** m, math.factorial(m) * math.factorial(n - 2 * m)) * (2 * uq) ** (n - 2 * m)
        for m in range(n // 2 + 1)
    )
    return float(total)


def laguerre_explicit(n, two_alpha, u):
    # independent oracle with exact generalized binomials C(n + alpha, n - i),
    # summed exactly in rational arithmetic
    uq = Fraction(u)
    total = Fraction(0)
    for i in range(n + 1):
        c = Fraction(1)
        for j in range(n - i):
            c *= Fraction(two_alpha, 2) + i + 1 + j
        c /= math.factorial(n - i)
        total += c * (-uq) ** i / math.factorial(i)
    return float(total)


class TestHermite:
    def test_h0_is_one(self):
        assert hermite(0, 1.7) == 1.0

    def test_h1(self):
        assert hermite(1, 0.5) == 1.0

    def test_h4_against_explicit_polynomial(self):
        # 16 u^4 - 48 u^2 + 12 at u = 1
        assert hermite(4, 1.0) == pytest.approx(-20.0, rel=1e-14)

    def test_recurrence_matches_explicit(self, rng):
        for n in range(11):
            for u in rng.uniform(-3, 3, 100):
                ref = hermite_explicit(n, u)
                assert hermite(n, u) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_vectorized(self):
        u = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(hermite(3, u), [hermite(3, v) for v in u])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0)


class TestAssocLaguerre:
    def test_l0_is_one(self):
        assert assoc_laguerre(0, 0.5, 3.3) == 1.0

    def test_l1_at_zero_is_alpha_plus_one(self):
        assert assoc_laguerre(1, 0.5, 0.0) == 1.5

    def test_l2_three_halves_explicit(self):
        # u^2/2 - (7/2) u + 35/8 at u = 1
        assert assoc_laguerre(2, 1.5, 1.0) == pytest.approx(1.375, rel=1e-14)

    def test_recurrence_matches_explicit(self, rng):
        for n in range(11):
            for two_alpha in (-1, 0, 1, 3, 5):
                for u in rng.uniform(0, 6, 20):
                    ref = laguerre_explicit(n, two_alpha, u)
                    got = assoc_laguerre(n, two_alpha / 2, u)
                    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_value_at_zero_is_binomial(self):
        # L_n^(alpha)(0) = C(n + alpha, n)
        for n in range(6):
            for two_alpha in (1, 3):
                ref = laguerre_explicit(n, two_alpha, 0.0)
                assert assoc_laguerre(n, two_alpha / 2, 0.0) == pytest.approx(ref, rel=1e-14)

    def test_non_half_integer_alpha_rejected(self):
        with pytest.raises(ValueError):
            assoc_laguerre(2, 0.3, 1.0)


class TestDoubleFactorial:
    @pytest.mark.parametrize("n,expected", [(-1, 1), (0, 1), (1, 1), (5, 15), (9, 945)])
    def test_values(self, n, expected):
        assert double_factorial(n) == expected

    def test_iterated_product_oracle(self):
        for n in range(1, 22, 2):
            prod = 1
            for j in range(n, 0, -2):
                prod *= j
            assert double_factorial(n) == prod

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(4)


class TestGauss2F1:
    def test_empty_series(self):
        assert gauss_2f1_neg1(0, -3, 5) == 1

    def test_two_term_sum(self):
        # 1 + (-1)(-1)/(2*1) * (-1) = 1/2
        assert gauss_2f1_neg1(-1, -1, 2) == Fraction(1, 2)

    def test_term_by_term_oracle(self):
        def brute(a, b, c):
            total = Fraction(0)
            for j in range(0, -a + 1):
                poch = lambda x, n: math.prod(Fraction(x) + i for i in range(n))
                total += poch(a, j) * poch(b, j) / (poch(c, j) * math.factorial(j)) * (-1) ** j
            return total

        assert gauss_2f1_neg1(-2, -2, 1) == brute(-2, -2, 1) == -2

    def test_results_are_exact_rationals(self, rng):
        for _ in range(30):
            a = -int(rng.integers(0, 5))
            b = -int(rng.integers(0, 5))
            c = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            val = gauss_2f1_neg1(a, b, c)
            assert isinstance(val, Fraction)
            assert (val * val.denominator).denominator == 1
            if val != 0:  # mpmath cannot certify the exact zeros
                ref = mpmath.hyp2f1(a, b, mpmath.mpf(c.numerator) / c.denominator, -1)
                assert float(val) == pytest.approx(float(ref), rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            gauss_2f1_neg1(-3, -3, -1)

    def test_nonterminating_rejected(self):
        with pytest.raises(ValueError):
            gauss_2f1_neg1(1, -2, 3)


class TestSphericalHarmonic:
    def test_ground_harmonic_constant(self):
        assert spherical_harmonic(0, 0, 0.7, 1.9) == pytest.approx(
            1 / math.sqrt(4 * math.pi), rel=1e-14
        )
        assert abs(spherical_harmonic(0, 0, 0.7, 1.9) - 0.2820947918) < 1e-9

    def test_y10_at_pole(self):
        assert spherical_harmonic(1, 0, 0.0, 0.0) == pytest.approx(
            math.sqrt(3 / (4 * math.pi)), rel=1e-14
        )

    def test_y21_against_explicit_formula(self):
        # explicit associated-Legendre oracle in this library's convention
        th, ph = math.pi / 3, math.pi / 4
        ref = -math.sqrt(15 / (8 * math.pi)) * math.sin(th) * math.cos(th) * cmath.exp(-1j * ph)
        assert spherical_harmonic(2, 1, th, ph) == pytest.approx(ref, rel=1e-14)
        assert ref == pytest.approx(-0.23654367393939005 + 0.23654367393939j)

    def test_orthonormality_by_quadrature(self):
        x, wx = np.polynomial.legendre.leggauss(24)
        theta = np.arccos(x)
        nphi = 32
        phi = 2 * math.pi * np.arange(nphi) / nphi
        tg, pg = np.meshgrid(theta, phi, indexing="ij")
        for l in range(5):
            for m in range(-l, l + 1):
                y = spherical_harmonic(l, m, tg, pg)
                norm = np.sum(wx[:, None] * np.abs(y) ** 2) * (2 * math.pi / nphi)
                assert abs(norm - 1.0) < 1e-10

    def test_conjugation_symmetry(self, rng):
        for l in range(5):
            for m in range(-l, l + 1):
                th = rng.uniform(0, math.pi)
                ph = rng.uniform(0, 2 * math.pi)
                lhs = spherical_harmonic(l, m, th, ph).conjugate()
                rhs = (-1) ** m * spherical_harmonic(l, -m, th, ph)
                assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            spherical_harmonic(1, 2, 0.0, 0.0)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestErf:
    # the range breaks of `specfun.erf` and its saturation point
    BREAKS = (specfun._ERF_SMALL, specfun._ERF_MID, specfun._ERF_SATURATION)
    CHUNK = specfun._ERF_CHUNK

    @staticmethod
    def points(rng):
        """Positive points over every range, tiny magnitudes and 200 doubles each side of a break."""
        steps = np.arange(1, 201)
        near = [np.concatenate([b - steps * np.spacing(b), [b], b + steps * np.spacing(b)])
                for b in TestErf.BREAKS]
        return np.concatenate([
            rng.uniform(0.0, specfun._ERF_SMALL, 8000),
            rng.uniform(specfun._ERF_SMALL, specfun._ERF_MID, 6000),
            rng.uniform(specfun._ERF_MID, 6.5, 10000), 10.0 ** rng.uniform(-300, 0, 4000), *near,
        ])

    def test_ulp_bound_against_mpmath(self, rng):
        # 29203 points; the worst measured 0.903 ulp, in the a + a q(a^2) range
        # (0.71 in the middle range, 0.69 in the tail).  scipy.special.erf
        # measured 2.65 ulp on the same points.
        x = self.points(rng)
        got = erf(x)
        worst = 0.0
        with mpmath.workdps(50):
            for xi, gi in zip(x.tolist(), got.tolist()):
                exact = mpmath.erf(xi)
                ulp = np.spacing(float(exact))
                worst = max(worst, float(abs(mpmath.mpf(gi) - exact)) / ulp)
        assert worst <= 0.91, worst

    def test_odd_bitwise(self, rng):
        x = np.concatenate([self.points(rng), rng.normal(0, 3, 10000), [0.0, np.inf]])
        assert np.array_equal(bits(erf(-x)), bits(-erf(x)))

    def test_specials(self):
        got = erf(np.array([np.inf, -np.inf, 0.0, -0.0, np.nan, -np.nan]))
        assert np.array_equal(bits(got[:4]), bits([1.0, -1.0, 0.0, -0.0]))
        assert np.all(np.isnan(got[4:]))
        assert erf(0.5) == erf(np.array([0.5]))[0] and np.ndim(erf(0.5)) == 0

    def test_saturation(self):
        big = np.concatenate([[6.0, np.nextafter(6.0, 7.0)], np.geomspace(6.0, 1e308, 1000)])
        assert np.all(erf(big) == 1.0) and np.all(erf(-big) == -1.0)
        assert erf(np.nextafter(6.0, 0.0)) == 1.0  # erfc(6) is below half an ulp of 1
        assert erf(5.5) < 1.0

    def test_nondecreasing(self):
        # so every smeared share (erf(z2) - erf(z1)) / 2 with z1 <= z2 is >= 0
        grid = np.linspace(-7.0, 7.0, 2_000_001)
        assert np.all(np.diff(erf(grid)) >= 0)
        for b in self.BREAKS:
            x = b + np.arange(-2000, 2001) * np.spacing(b)
            assert np.all(np.diff(erf(x)) >= 0) and np.all(np.diff(erf(-x[::-1])) >= 0)

    def test_out_may_alias_input(self, rng):
        x = rng.normal(0, 2, (301, 161))
        fresh = erf(x)
        y = x.copy()
        assert erf(y, out=y) is y
        assert np.array_equal(bits(y), bits(fresh))
        out = np.empty_like(x)
        assert erf(x, out=out) is out and np.array_equal(bits(out), bits(fresh))

    @pytest.mark.parametrize("n", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_sizes_off_the_chunk(self, rng, n):
        x = rng.normal(0, 2, n)
        got = erf(x)
        assert got.shape == (n,)
        # an element's bits do not depend on its place in the array
        perm = rng.permutation(n)
        assert np.array_equal(bits(erf(x[perm])), bits(got[perm]))
        assert np.array_equal(bits(got[:3]), bits([erf(v) for v in x[:3]]))

    def test_bad_out_rejected(self):
        x = np.zeros((4, 5))
        for out in (np.zeros((5, 4)), np.zeros((4, 5), dtype=np.float32), np.zeros((5, 4)).T):
            with pytest.raises(ValueError):
                erf(x, out=out)
