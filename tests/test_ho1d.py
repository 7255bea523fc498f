import cmath
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from oscoal.ho1d import (
    OscParams,
    Phase1D,
    _wigner_poly,
    phi_n,
    quasi_amplitudes,
    quasi_prob,
    quasi_prob_table,
    quasi_prob_zeta1,
    wigner_1d,
    wigner_1d_gen,
)


def wigner_transform_quad(n_prime, n, x, q, params):
    """Direct adaptive quadrature of the defining transform integral."""
    nu, hbar = params.nu, params.hbar

    def f(xp):
        return (
            cmath.exp(1j * xp * q / hbar)
            * phi_n(n_prime, x + xp / 2, params)
            * phi_n(n, x - xp / 2, params)
            / (2 * math.pi * hbar)
        )

    span = 20.0 / nu
    re, _ = quad(lambda s: f(s).real, -span, span, limit=300, epsabs=1e-13)
    im, _ = quad(lambda s: f(s).imag, -span, span, limit=300, epsabs=1e-13)
    return complex(re, im)


def series_coefficient_fft(fun, n_prime, n, radius=0.7, m=64):
    """Taylor coefficient of alpha^{n'} beta^n via FFT on a torus."""
    ks = np.arange(m)
    alph = radius * np.exp(2j * np.pi * ks / m)
    beta = radius * np.exp(2j * np.pi * ks / m)
    vals = np.array([[fun(a, b) for b in beta] for a in alph])
    coeffs = np.fft.fft2(vals) / m**2
    return coeffs[n_prime, n] / radius ** (n_prime + n)


class TestOscParams:
    def test_zeta_is_derived(self):
        p = OscParams(nu=1.3, delta=0.25)
        assert p.zeta == 2 * 0.25 * 1.3
        assert OscParams.from_zeta(2.0, 1.0).delta == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            OscParams(nu=0.0, delta=0.5)
        with pytest.raises(ValueError):
            OscParams.from_zeta(1.0, -2.0)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["nu", "delta", "hbar"])
    def test_rejects_zero_and_nonfinite(self, name, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            OscParams(**{"nu": 1.0, "delta": 0.5, "hbar": 1.0, name: bad})

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
    def test_from_zeta_checks_before_dividing(self, bad):
        for nu, zeta in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                OscParams.from_zeta(nu, zeta)


    @pytest.mark.parametrize(
        "kwargs, scale",
        [(dict(nu=1e-200, delta=0.5), "nu^2"), (dict(nu=1e-160, delta=0.5), "nu^2"),
         (dict(nu=1e200, delta=1e-200), "nu^2"), (dict(nu=1.0, delta=0.5, hbar=1e-300), "(hbar nu)^2"),
         (dict(nu=1e100, delta=1e-100, hbar=1e100), "(hbar nu)^2"),
         (dict(nu=1.0, delta=1e80), "zeta^4"), (dict(nu=1.0, delta=1e-80), "zeta^4")],
        ids=["nu-underflows", "nu-reciprocal-overflows", "nu-overflows", "hbar-nu-underflows",
             "hbar-nu-overflows", "zeta-overflows", "zeta-underflows"],
    )
    def test_rejects_scales_out_of_range(self, kwargs, scale):
        with pytest.raises(ValueError, match=re.escape(f"{scale} = ") + ".*finite and nonzero"):
            OscParams(**kwargs)

    def test_accepts_scales_in_range(self):
        for kwargs in (dict(nu=1e150, delta=1e-150), dict(nu=1e-150, delta=1e150, hbar=1e150),
                       dict(nu=1.0, delta=1e76), dict(nu=1.0, delta=1e-76)):
            OscParams(**kwargs)

class TestPhiN:
    def test_ground_state_peak(self, params):
        assert phi_n(0, 0.0, params) == pytest.approx((1 / math.pi) ** 0.25, rel=1e-14)
        assert phi_n(0, 0.0, params) == pytest.approx(0.7511255445, abs=1e-10)

    def test_odd_parity_zero_at_origin(self):
        for nu in (0.7, 1.0, 2.3):
            assert phi_n(1, 0.0, OscParams(nu=nu, delta=0.5)) == 0.0

    def test_phi3_value_and_normalization(self):
        p = OscParams(nu=1.3, delta=0.5)
        # frozen from the explicit normalized Hermite form
        assert phi_n(3, 0.7, p) == pytest.approx(-0.39965014922139325, rel=1e-13)
        norm, _ = quad(lambda x: phi_n(3, x, p) ** 2, -10, 10)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_orthonormality(self, params):
        for n1 in range(4):
            for n2 in range(n1, 4):
                val, _ = quad(lambda x: phi_n(n1, x, params) * phi_n(n2, x, params), -12, 12)
                assert val == pytest.approx(1.0 if n1 == n2 else 0.0, abs=1e-12)


class TestWigner1D:
    def test_ground_state_peak(self, params):
        got = wigner_1d(0, 0, Phase1D(0.0, 0.0), params)
        assert got == pytest.approx(1 / math.pi, rel=1e-14)
        assert got.real == pytest.approx(0.3183098862, abs=1e-10)
        assert got.imag == 0.0

    def test_hermiticity(self, params, rng):
        for _ in range(10):
            x, q = rng.uniform(-1.5, 1.5, 2)
            npr, n = rng.integers(0, 5, 2)
            a = wigner_1d(int(npr), int(n), Phase1D(x, q), params)
            b = wigner_1d(int(n), int(npr), Phase1D(x, q), params)
            assert a == pytest.approx(b.conjugate(), abs=1e-15)

    def test_21_against_frozen_quadrature(self, params):
        got = wigner_1d(2, 1, Phase1D(0.4, -0.8), params)
        assert got == pytest.approx(-0.022884136228357364 + 0.04576827245671468j, abs=1e-13)

    def test_against_live_transform_quadrature(self):
        p = OscParams(nu=1.2, delta=0.4, hbar=0.9)
        for npr, n, x, q in ((0, 0, 0.0, 0.0), (2, 1, 0.4, -0.8), (0, 3, -0.5, 0.6), (3, 3, 0.8, 0.2)):
            closed = wigner_1d(npr, n, Phase1D(x, q), p)
            ref = wigner_transform_quad(npr, n, x, q, p)
            assert closed == pytest.approx(ref, abs=1e-10)

    def test_diagonal_real(self, params, rng):
        for n in range(5):
            x, q = rng.uniform(-2, 2, 2)
            assert wigner_1d(n, n, Phase1D(x, q), params).imag == 0.0

    def test_normalization(self, params):
        t, w = np.polynomial.hermite.hermgauss(28)
        for n in range(5):
            vals = np.array(
                [
                    [
                        wigner_1d(n, n, Phase1D(xi / params.nu, eta * params.hbar * params.nu), params).real
                        * math.exp(xi**2 + eta**2)
                        for eta in t
                    ]
                    for xi in t
                ]
            )
            norm = float(np.sum(np.outer(w, w) * vals)) * params.hbar
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_poly_on_a_grid_matches_pointwise(self, rng):
        # the P_{n'n} quadrature oracle evaluates its node grid in one call
        xi, eta = rng.normal(size=9), rng.normal(size=7)
        for lo in range(5):
            for hi in range(lo, 9):
                grid = _wigner_poly(lo, hi, xi[:, None], eta[None, :])
                ref = np.array([[_wigner_poly(lo, hi, a, b) for b in eta] for a in xi])
                np.testing.assert_allclose(grid, ref, rtol=1e-14, atol=0)


class TestWigner1DGen:
    def test_origin_value(self, params):
        assert wigner_1d_gen(0.0, 0.0, Phase1D(0.0, 0.0), params) == pytest.approx(
            1 / math.pi, rel=1e-14
        )

    def test_zeroth_coefficient_is_w00(self, params, rng):
        x, q = rng.uniform(-1, 1, 2)
        ph = Phase1D(x, q)
        c00 = series_coefficient_fft(lambda a, b: wigner_1d_gen(a, b, ph, params), 0, 0)
        assert c00 == pytest.approx(wigner_1d(0, 0, ph, params), abs=1e-12)

    def test_extraction_matches_closed_form_21(self, params):
        ph = Phase1D(0.4, -0.8)
        c21 = series_coefficient_fft(lambda a, b: wigner_1d_gen(a, b, ph, params), 2, 1)
        expected = wigner_1d(2, 1, ph, params) / math.sqrt(math.factorial(2) * math.factorial(1))
        assert c21 == pytest.approx(expected, abs=1e-12)


class TestQuasiProb:
    def test_p00_closed_form_any_zeta(self):
        for z in (0.5, 1.0, 2.0, 4.0):
            p = OscParams.from_zeta(1.1, z, hbar=0.8)
            r0, p0 = 0.7, -0.4
            rho = 1.1 * r0
            pit = p0 / (1.1 * 0.8)
            vhat = (rho**2 + z**2 * pit**2) / (1 + z**2)
            expected = 2 * z / (1 + z**2) * math.exp(-vhat)
            assert quasi_prob(0, 0, r0, p0, p) == pytest.approx(expected, rel=1e-14)

    def test_p10_is_conjugate_of_p01(self, rng):
        p = OscParams.from_zeta(1.0, 2.0)
        for _ in range(5):
            r0, p0 = rng.uniform(-1.5, 1.5, 2)
            assert quasi_prob(1, 0, r0, p0, p) == pytest.approx(
                quasi_prob(0, 1, r0, p0, p).conjugate(), abs=1e-15
            )

    def test_p01_explicit(self):
        p = OscParams.from_zeta(1.0, 2.0)
        got = quasi_prob(0, 1, 1.0, 0.5, p)
        p00 = quasi_prob(0, 0, 1.0, 0.5, p).real
        expected = p00 * math.sqrt(2) * (1.0 + 1j * 0.5 * 4.0) / 5.0
        assert got == pytest.approx(expected, rel=1e-14)

    def test_p11_closed_form_oracle(self):
        # frozen: P00 = (4/5) e^{-2/5}, P11 = 0.4 * P00 at r=1, p=1/2, zeta=2
        p = OscParams.from_zeta(1.0, 2.0)
        assert quasi_prob(0, 0, 1.0, 0.5, p) == pytest.approx(0.5362560368285115, rel=1e-14)
        assert quasi_prob(1, 1, 1.0, 0.5, p) == pytest.approx(0.21450241473140463, rel=1e-14)

    def test_hermiticity_property(self, rng):
        for _ in range(20):
            z = rng.uniform(0.3, 3.0)
            p = OscParams.from_zeta(1.2, z, hbar=0.7)
            npr, n = (int(v) for v in rng.integers(0, 5, 2))
            r0, p0 = rng.uniform(-1.5, 1.5, 2)
            assert quasi_prob(npr, n, r0, p0, p) == pytest.approx(
                quasi_prob(n, npr, r0, p0, p).conjugate(), abs=1e-15
            )

    def test_zeta_inversion_symmetry(self, rng):
        nu, hbar = 1.3, 0.7
        for z in (0.25, 0.5, 2.0, 4.0):
            pa = OscParams.from_zeta(nu, z, hbar=hbar)
            pb = OscParams.from_zeta(nu, 1.0 / z, hbar=hbar)
            for n in range(4):
                for _ in range(5):
                    r0, p0 = rng.uniform(-1.5, 1.5, 2)
                    rho, pit = nu * r0, p0 / (nu * hbar)
                    swapped = quasi_prob(n, n, pit / nu, rho * nu * hbar, pb)
                    assert quasi_prob(n, n, r0, p0, pa) == pytest.approx(swapped, abs=1e-12)

    def test_phase_space_sum_rule(self):
        t, w = np.polynomial.hermite.hermgauss(40)
        nu, hbar = 1.4, 0.8
        for z in (0.5, 1.0, 2.0):
            p = OscParams.from_zeta(nu, z, hbar=hbar)
            s = math.sqrt(1 + z * z)
            R, P = np.meshgrid(t * s / nu, t * s * nu * hbar / z, indexing="ij")
            e = np.exp(np.add.outer(t**2, t**2))
            for n in range(4):
                tab = quasi_prob_table(R, P, p, n)[n, n].real
                total = float(np.sum(np.outer(w, w) * e * tab)) * hbar * s * s / z
                assert total == pytest.approx(2 * math.pi * hbar, abs=1e-8)

    def test_completeness(self, rng):
        # sum_n P_nn = sum_n |g_n|^2 -> 1: the relative state is normalized
        for z in (0.3, 3.0):
            p = OscParams.from_zeta(1.2, z, hbar=0.7)
            r0, p0 = rng.uniform(-1.5, 1.5, (2, 4))
            g = quasi_amplitudes(r0, p0, p, 60)
            partial = np.cumsum(np.abs(g) ** 2, axis=0)
            assert np.all(np.diff(partial, axis=0) >= 0)
            assert np.all(partial <= 1 + 1e-12)
            assert np.all(np.abs(partial[-1] - 1) <= 1e-4)

    def test_table_matches_scalar_calls(self, rng):
        p = OscParams.from_zeta(1.0, 1.7)
        r0, p0 = 0.3, -1.1
        tab = quasi_prob_table(r0, p0, p, 3)
        for npr in range(4):
            for n in range(4):
                assert tab[npr, n] == pytest.approx(quasi_prob(npr, n, r0, p0, p), abs=1e-15)


class TestQuasiProbZeta1:
    def test_ground_state(self, params, rng):
        for _ in range(5):
            r0, p0 = rng.uniform(-1.5, 1.5, 2)
            v = 0.5 * (r0**2 + p0**2)
            assert quasi_prob_zeta1(0, 0, r0, p0, params) == pytest.approx(math.exp(-v), rel=1e-14)

    def test_centered_packets_populate_ground_state_only(self, params):
        for n in range(1, 5):
            assert quasi_prob_zeta1(n, n, 0.0, 0.0, params) == 0.0

    def test_22_frozen_value(self, params):
        got = quasi_prob_zeta1(2, 2, 1.0, 1.0, params)
        assert got == pytest.approx(0.18393972058572117, rel=1e-14)
        assert got == pytest.approx(quasi_prob(2, 2, 1.0, 1.0, params), abs=1e-15)

    def test_series_extraction_matches_closed_form(self, params, rng):
        for npr in range(5):
            for n in range(5):
                for _ in range(4):
                    r0, p0 = rng.uniform(-1.5, 1.5, 2)
                    a = quasi_prob(npr, n, r0, p0, params)
                    b = quasi_prob_zeta1(npr, n, r0, p0, params)
                    assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_other_zeta(self):
        p = OscParams.from_zeta(1.0, 2.0)
        with pytest.raises(ValueError, match="zeta"):
            quasi_prob_zeta1(0, 0, 0.5, 0.5, p)
