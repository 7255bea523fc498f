import math
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc

from conftest import random_rotation
from oscoal import coalescence, expansion, ho1d
from oscoal.coalescence import (
    PhasePoint,
    WavePacket,
    j_overlap,
    p_kl,
    p_kl_batch,
    p_kl_closed,
    p_kl_oracle,
    p_klm,
    p_klm_differential,
    poisson_sum,
    shell_states,
    v_and_t,
)
from oscoal.expansion import Ame, bilinear_assemble, bilinear_table, coeff, degenerate_subspace
from oscoal.ho1d import OscParams, quasi_amplitudes, quasi_prob_table
from oscoal.selftest import _p_klm_factorized
from oscoal.specfun import double_factorial

LEVELS_N3 = ((0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1))
LEVELS_N8 = tuple(lv for N in range(9) for lv in shell_states(N))
LEVELS_N12 = tuple(lv for N in range(13) for lv in shell_states(N))

# Origin, on-axis points and r parallel to p: many m-resolved probabilities
# are 0 exactly here, where a P_klm summed from signed terms can dip below 0.
SPECIAL_POINTS = (
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.7, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (0.0, -1.1, 0.0)),
    ((0.0, 0.0, 1.3), (0.0, 0.0, 0.0)),
    ((0.6, 0.0, 0.0), (0.0, 0.9, 0.0)),
    ((0.0, 0.0, -0.8), (1.2, 0.0, 0.0)),
    ((0.5, 0.0, 0.0), (1.5, 0.0, 0.0)),
    ((0.0, 0.4, 0.0), (0.0, -0.9, 0.0)),
    ((0.0, 0.0, 1.0), (0.0, 0.0, 0.6)),
    ((0.3, -0.6, 0.9), (-0.4, 0.8, -1.2)),
)

# The paper's printed zeta = 1 forms e^v P_kl(v, t) for the shells N <= 3.
PRINTED_N3 = {
    (0, 0): lambda v, t: 1.0,
    (0, 1): lambda v, t: v,
    (0, 2): lambda v, t: (2 * v**2 + t) / 6,
    (1, 0): lambda v, t: (v**2 - t) / 6,
    (0, 3): lambda v, t: (2 * v**3 + 3 * v * t) / 30,
    (1, 1): lambda v, t: (3 * v**3 - 3 * v * t) / 30,
}


class TestInvariants:
    def test_origin(self, params):
        assert v_and_t((0, 0, 0), (0, 0, 0), params) == (0.0, 0.0)

    def test_parallel_vectors_have_zero_t(self, params):
        v, t = v_and_t((1.0, 2.0, -0.5), (2.0, 4.0, -1.0), params)
        assert t == 0.0
        assert v > 0

    def test_reference_point(self, params):
        # |r| = 1/nu and |p| = hbar nu at right angle: v = 1, t = 1
        v, t = v_and_t((1.0, 0, 0), (0, 1.0, 0), params)
        assert v == pytest.approx(1.0) and t == pytest.approx(1.0)

    def test_units(self):
        p = OscParams(nu=2.0, delta=0.1, hbar=0.5)
        v, t = v_and_t((0.3, 0, 0), (0, 0.4, 0), p)
        assert v == pytest.approx(0.5 * (4 * 0.09) + 0.5 * 0.16 / (0.5 * 2.0) ** 2)
        assert t == pytest.approx((0.3 * 0.4) ** 2 / 0.25)

    def test_arrays_match_single_points_bitwise(self, rng):
        p = OscParams.from_zeta(1.3, 2.0, 0.7)
        r_vecs, p_vecs = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        v, t = v_and_t(r_vecs, p_vecs, p)
        assert v.shape == t.shape == (50,)
        single = [v_and_t(a, b, p) for a, b in zip(r_vecs, p_vecs)]
        assert all(type(x) is float for pair in single for x in pair)
        assert single == list(zip(v.tolist(), t.tolist()))

    def test_no_cancellation_near_parallel(self, params):
        r = (1.0, 0.0, 0.0)
        p = (1.0, 1e-9, 0.0)
        _, t = v_and_t(r, p, params)
        assert t == pytest.approx(1e-18, rel=1e-6)

    @pytest.mark.parametrize("nu, hbar", [(1.0, 1.0), (1.3, 0.9), (0.37, 2.6)])
    def test_matches_exact_rational_arithmetic(self, rng, nu, hbar):
        # against v and t in Fractions of the same float inputs: v within 4 eps
        # relative, t within 4 eps |r|^2 |p|^2 / hbar^2; every other p nearly
        # parallel to its r, where t cancels most
        n = 2000
        r_vecs = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        p_vecs = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        p_vecs[::2] = (r_vecs[::2] * rng.uniform(-2, 2, (n // 2, 1))
                       + p_vecs[::2] * 10.0 ** rng.uniform(-12, -4, (n // 2, 1)))
        v, t = v_and_t(r_vecs, p_vecs, OscParams(nu=nu, delta=0.5, hbar=hbar))
        bound = 4 * Fraction(np.finfo(float).eps)
        f_nu, f_hbar = Fraction(nu), Fraction(hbar)
        for rv, pv, v_got, t_got in zip(r_vecs.tolist(), p_vecs.tolist(), v.tolist(), t.tolist()):
            (a, b, c), (x, y, z) = map(Fraction, rv), map(Fraction, pv)
            rr, pp = a * a + b * b + c * c, x * x + y * y + z * z
            v_exact = (f_nu**2 * rr + pp / (f_hbar * f_nu) ** 2) / 2
            t_exact = ((b * z - c * y) ** 2 + (c * x - a * z) ** 2 + (a * y - b * x) ** 2) / f_hbar**2
            assert abs(Fraction(v_got) - v_exact) <= bound * v_exact
            assert abs(Fraction(t_got) - t_exact) <= bound * rr * pp / f_hbar**2

    def test_phase_point_helpers(self, params):
        a = WavePacket((1, 0, 0), (0, 1, 0), 0.5)
        b = WavePacket((0, 0, 0), (0, -1, 0), 0.5)
        rel = PhasePoint.from_packets(a, b)
        assert rel.r_vec == (1.0, 0.0, 0.0)
        assert rel.p_vec == (0.0, 1.0, 0.0)
        assert v_and_t(rel.r_vec, rel.p_vec, params) == pytest.approx((1.0, 1.0))


def _accuracy_points(rng, n=4):
    """(params, rel_r, rel_p) at zeta 0.25, 1 and 3 with nu = 1.3, hbar = 0.9, n points each."""
    for zeta in (0.25, 1.0, 3.0):
        yield (OscParams.from_zeta(1.3, zeta, hbar=0.9), *rng.uniform(-1, 1, (2, n, 3)))


def _p_kl_mpmath(k, l, r, p, params):
    """P_kl = |G0|^6 n_kl |F_kl|^2 L_l of the module notes in mpmath, at the float inputs."""
    mpf = mpmath.mpf
    z, nu, hbar = mpf(params.zeta), mpf(params.nu), mpf(params.hbar)
    s, rho, pit = 1 + z * z, [mpf(x) * nu for x in r], [mpf(x) / (nu * hbar) for x in p]
    rr, pp = sum(x * x for x in rho), sum(x * x for x in pit)
    b2 = 2 * (rr + z**4 * pp) / s**2
    bb = mpmath.mpc(2 * (rr - z**4 * pp), 4 * z * z * sum(x * y for x, y in zip(rho, pit))) / s**2
    c = (z * z - 1) / (2 * s)
    f = sum(c ** (k - j) * bb**j / (2**j * math.factorial(j) * math.factorial(k - j)
                                     * double_factorial(2 * l + 2 * j + 1)) for j in range(k + 1))
    q = [mpf(1), b2]
    for i in range(1, l):
        q.append(((2 * i + 1) * b2 * q[i] - i * abs(bb) ** 2 * q[i - 1]) / (i + 1))
    norm = 2**k * math.factorial(k) * double_factorial(2 * k + 2 * l + 1) * (2 * l + 1)
    g6 = (2 * z / s) ** 3 * mpmath.exp(-(rr + z * z * pp) / s)
    return float(g6 * norm * abs(f) ** 2 * q[l])


@lru_cache(maxsize=None)
def _coeff_terms_mpmath(k, l, m):
    """(C_{klm, t}, t) for the nonzero exact coefficients, each converted to
    a 50-digit mpc from its sign, radicand, i^n2 and s with no float step."""
    with mpmath.workdps(50):
        terms = []
        for t in degenerate_subspace(2 * k + l):
            c = coeff(Ame(k, l, m), t)
            if not c.is_zero:
                root = mpmath.sqrt(mpmath.mpf(c.radicand.numerator) / c.radicand.denominator)
                phase = (1, mpmath.j, -1, -mpmath.j)[c.n2 % 4]
                terms.append((c.sign * root * c.s.numerator / c.s.denominator * phase, tuple(t)))
        return tuple(terms)


def _amplitudes_mpmath(x, q, params, nmax):
    """g_n, n <= nmax, by the recurrence of `ho1d.quasi_amplitudes` in mpmath."""
    mpf = mpmath.mpf
    z, nu, hbar = mpf(params.zeta), mpf(params.nu), mpf(params.hbar)
    s, rho, pit = 1 + z * z, mpf(x) * nu, mpf(q) / (nu * hbar)
    b, c2 = mpmath.sqrt(2) * mpmath.mpc(rho, z * z * pit) / s, (z * z - 1) / s
    g = [mpmath.sqrt(2 * z / s * mpmath.exp(-(rho**2 + z * z * pit**2) / s))]
    g.append(b * g[0])
    for n in range(1, nmax):
        g.append((b * g[n] + c2 * mpmath.sqrt(n) * g[n - 1]) / mpmath.sqrt(n + 1))
    return g


class TestPKl:
    def test_ground_state_is_poisson_weight(self, params, rng):
        for _ in range(5):
            rv, pv = rng.uniform(-1.5, 1.5, (2, 3))
            rel = PhasePoint(tuple(rv), tuple(pv))
            v, _ = v_and_t(rv, pv, params)
            assert p_kl(0, 0, rel, params) == pytest.approx(math.exp(-v), rel=1e-13)

    def test_p01_vanishes_at_origin(self, params):
        assert p_kl(0, 1, PhasePoint((0, 0, 0), (0, 0, 0)), params) == pytest.approx(0.0, abs=1e-15)

    def test_closed_forms_match_factorized(self, params, rng):
        rel_r, rel_p = rng.uniform(-1.5, 1.5, (2, 15, 3))
        batch = p_kl_batch(LEVELS_N8, rel_r, rel_p, params)
        for i, (v, t) in enumerate(zip(*v_and_t(rel_r, rel_p, params))):
            for k, l in LEVELS_N8:
                assert batch[(k, l)][i] == pytest.approx(p_kl_closed(k, l, v, t), abs=1e-12)

    def test_closed_forms_at_generic_units(self, rng):
        # zeta = 1 with nu, hbar away from 1: delta = 1/(2 nu)
        p = OscParams(nu=1.6, delta=1 / 3.2, hbar=0.75)
        rel_r, rel_p = rng.uniform(-1, 1, (2, 8, 3))
        batch = p_kl_batch(LEVELS_N8, rel_r, rel_p, p)
        for i, (v, t) in enumerate(zip(*v_and_t(rel_r, rel_p, p))):
            for k, l in LEVELS_N8:
                assert batch[(k, l)][i] == pytest.approx(p_kl_closed(k, l, v, t), abs=1e-12)

    def test_general_zeta_against_quadrature_oracle(self, rng):
        for z in (0.5, 1.0, 2.0):
            p = OscParams.from_zeta(1.0, z)
            for _ in range(4):
                rel = PhasePoint(tuple(rng.uniform(-1.2, 1.2, 3)), tuple(rng.uniform(-1.2, 1.2, 3)))
                for k, l in ((0, 0), (0, 1), (0, 2), (1, 0)):
                    assert p_kl(k, l, rel, p) == pytest.approx(
                        p_kl_oracle(k, l, rel, p), abs=1e-7
                    )

    def test_p11_at_zeta2_matches_oracle(self, rng):
        p = OscParams.from_zeta(1.0, 2.0)
        rel = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
        assert p_kl(1, 1, rel, p) == pytest.approx(p_kl_oracle(1, 1, rel, p), abs=1e-7)
        # every level of the shells N = 4, 5, one point per zeta
        for z in (0.5, 2.0):
            p = OscParams.from_zeta(1.0, z)
            rel = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
            for k, l in shell_states(4) + shell_states(5):
                assert p_kl(k, l, rel, p) == pytest.approx(p_kl_oracle(k, l, rel, p), abs=1e-7)

    def test_rotation_invariance(self, params, rng):
        for k, l in ((0, 2), (1, 1)):
            for _ in range(5):
                rv, pv = rng.uniform(-1, 1, (2, 3))
                rot = random_rotation(rng)
                a = p_kl(k, l, PhasePoint(tuple(rv), tuple(pv)), params)
                b = p_kl(k, l, PhasePoint(tuple(rot @ rv), tuple(rot @ pv)), params)
                assert a == pytest.approx(b, abs=1e-12)

    def test_nonnegativity_on_grid(self, params):
        rs = np.linspace(0, 3, 20)
        ps = np.linspace(0, 3, 20)
        ths = np.linspace(0, math.pi / 2, 5)
        pts = [
            PhasePoint.from_invariants(r, p, th)
            for r in rs for p in ps for th in ths
        ]
        rel_r = np.array([pt.r_vec for pt in pts])
        rel_p = np.array([pt.p_vec for pt in pts])
        probs = p_kl_batch(LEVELS_N3, rel_r, rel_p, params)
        for k, l in LEVELS_N3:
            assert float(np.min(probs[(k, l)])) >= -1e-12

    def test_imaginary_residue_small(self, params, rng):
        rel = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
        triples, table = bilinear_table(1, 1)
        mats = [quasi_prob_table(rel.r_vec[i], rel.p_vec[i], params, 3) for i in range(3)]
        total = bilinear_assemble(table, triples, *mats)
        assert abs(total.imag) < 1e-12
        assert total.real == pytest.approx(p_kl(1, 1, rel, params), abs=1e-14)

    def test_m_resolved_levels_sum_to_p_kl(self, rng):
        # the m-terms |Y~_{l,-m}|^2 against the Legendre recurrence of L_l,
        # every level the CLI accepts; over 75 points the gap stayed below
        # 1.2e-16 absolute and 1.6e-14 relative
        for p, rel_r, rel_p in _accuracy_points(rng):
            batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
            for i in range(len(rel_r)):
                rel = PhasePoint(tuple(rel_r[i]), tuple(rel_p[i]))
                for k, l in LEVELS_N12:
                    parts = [p_klm(k, l, m, rel, p) for m in range(-l, l + 1)]
                    assert min(parts) >= 0
                    gap = abs(sum(parts) - batch[(k, l)][i])
                    assert gap <= 3e-16 and gap <= 5e-14 * batch[(k, l)][i], (k, l)

    def test_m_resolved_against_50_digit_factorized_sum(self, rng):
        # the paper's route |sum_t C_{klm, t} g_t1 g_t2 g_t3|^2 in 50-digit
        # arithmetic on the same float inputs, one point per zeta: it shares
        # nothing with the closed form of `p_klm`.  Over 75 points the closed
        # form stayed within 1.2e-16 absolute and 5.8e-14 relative, while the
        # same sum in floats (`_p_klm_factorized`) kept 2.3e-16 absolute but
        # lost up to 3.6 relative where P_klm is tiny
        for p, rel_r, rel_p in _accuracy_points(rng, n=1):
            r, q = rel_r[0], rel_p[0]
            rel = PhasePoint(tuple(r), tuple(q))
            with mpmath.workdps(50):
                g = [_amplitudes_mpmath(r[i], q[i], p, 12) for i in range(3)]
                prod = {tuple(t): g[0][t.n1] * g[1][t.n2] * g[2][t.n3]
                        for N in range(13) for t in degenerate_subspace(N)}
                for k, l in LEVELS_N12:
                    for m in range(-l, l + 1):
                        amp = sum(c * prod[t] for c, t in _coeff_terms_mpmath(k, l, m))
                        exact = float(abs(amp) ** 2)
                        gap = abs(p_klm(k, l, m, rel, p) - exact)
                        assert gap <= 3e-16 and gap <= 2e-13 * exact, (k, l, m)
                        assert abs(_p_klm_factorized(k, l, m, rel, p) - exact) <= 5e-16, (k, l, m)

    def test_m_resolved_rotation_about_z_and_mirror(self, rng):
        # a rotation about z turns b_x +- i b_y by a phase and keeps b_z and
        # B, so |Y~_lm|^2 stays; the mirror y -> -y negates b_y, which maps
        # m to -m with every bit kept
        flip = np.array([1.0, -1.0, 1.0])
        for p, rel_r, rel_p in _accuracy_points(rng, n=2):
            for r, q in zip(rel_r, rel_p):
                phi = rng.uniform(0, 2 * math.pi)
                turn = np.array([[math.cos(phi), -math.sin(phi), 0.0],
                                 [math.sin(phi), math.cos(phi), 0.0], [0.0, 0.0, 1.0]])
                rel = PhasePoint(tuple(r), tuple(q))
                turned = PhasePoint(tuple(turn @ r), tuple(turn @ q))
                mirrored = PhasePoint(tuple(r * flip), tuple(q * flip))
                for k, l in LEVELS_N12:
                    for m in range(-l, l + 1):
                        got = p_klm(k, l, m, rel, p)
                        assert p_klm(k, l, m, turned, p) == pytest.approx(got, rel=1e-13)
                        assert p_klm(k, l, -m, mirrored, p) == got

    def test_closed_form_against_50_digit_evaluation(self, rng):
        # the same closed form in 50-digit arithmetic on the same float inputs:
        # `p_kl_batch` stays within 1e-12 relative where P is tiny, while the
        # m-sum of signed amplitudes loses up to 1.7e-6 relative there (seen
        # over 240 points); both stay within 3e-16 absolute
        for p, rel_r, rel_p in _accuracy_points(rng):
            batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
            for i in range(len(rel_r)):
                for k, l in LEVELS_N12:
                    with mpmath.workdps(50):
                        exact = _p_kl_mpmath(k, l, rel_r[i], rel_p[i], p)
                    gap = abs(batch[(k, l)][i] - exact)
                    assert gap <= 3e-16 and gap <= 2e-12 * exact, (k, l)

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_m_resolved_nonnegative_at_special_points(self, zeta):
        p = OscParams.from_zeta(1.0, zeta)
        for r_vec, p_vec in SPECIAL_POINTS:
            rel = PhasePoint(r_vec, p_vec)
            for k, l in LEVELS_N8:
                for m in range(-l, l + 1):
                    assert p_klm(k, l, m, rel, p) >= 0.0, (r_vec, p_vec, k, l, m)

    def test_m_resolved_rejects_bad_labels(self, params):
        rel = PhasePoint((0.1, 0, 0), (0, 0.2, 0))
        for k, l, m in ((0, 1, 2), (-1, 2, 0), (0, -1, 0)):
            with pytest.raises(ValueError, match="nonnegative|must not exceed"):
                p_klm(k, l, m, rel, params)

    def test_batch_matches_scalar(self, params, rng):
        rel_r = rng.uniform(-1, 1, (6, 3))
        rel_p = rng.uniform(-1, 1, (6, 3))
        batch = p_kl_batch(LEVELS_N3, rel_r, rel_p, params)
        for k, l in LEVELS_N3:
            for i in range(6):
                rel = PhasePoint(tuple(rel_r[i]), tuple(rel_p[i]))
                assert batch[(k, l)][i] == pytest.approx(p_kl(k, l, rel, params), abs=1e-14)

    def test_batch_value_independent_of_neighbours(self, rng):
        # Several blocks plus a one-point tail, and levels with a long Legendre
        # recurrence and a long F_kl sum: each point's value is bitwise its own.
        p = OscParams.from_zeta(1.0, 2.0)
        levels = ((0, 0), (1, 1), (0, 5), (4, 3))
        rel_r = rng.uniform(-2, 2, (2 * coalescence._BLOCK + 1, 3))
        rel_p = rng.uniform(-2, 2, rel_r.shape)
        batch = p_kl_batch(levels, rel_r, rel_p, p)
        for i in (0, coalescence._BLOCK - 1, coalescence._BLOCK, rel_r.shape[0] - 1):
            alone = p_kl_batch(levels, rel_r[i : i + 1], rel_p[i : i + 1], p)
            for lv in levels:
                assert batch[lv][i] == alone[lv][0]

    @pytest.mark.parametrize("levels", [[(0, -1)], [(-1, 2)], [(0, 0), (-2, 0)]])
    def test_negative_level_rejected(self, params, levels):
        with pytest.raises(ValueError, match="nonnegative k and l"):
            p_kl_batch(levels, np.zeros((2, 3)), np.zeros((2, 3)), params)
        k, l = levels[-1]
        with pytest.raises(ValueError, match="nonnegative k and l"):
            p_kl(k, l, PhasePoint((0.3, 0, 0), (0, 0.2, 0)), params)

    @pytest.mark.parametrize(
        "shape_r, shape_p",
        [((3,), (3,)), ((4, 2), (4, 2)), ((4, 3), (5, 3)), ((4, 3), (4,)), ((2, 4, 3), (2, 4, 3))],
    )
    def test_point_shapes_rejected(self, params, shape_r, shape_p):
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            p_kl_batch([(0, 1)], np.ones(shape_r), np.ones(shape_p), params)

    @pytest.mark.parametrize("zeta", [0.25, 1.0, 3.0])
    def test_far_separations_are_zero(self, zeta):
        # |G0|^6 underflows long before the polynomial overflows; the product
        # is 0, with no NaN and no floating-point warning
        p = OscParams.from_zeta(1.0, zeta)
        mags = 10.0 ** np.array([3.0, 14.0, 30.0, 100.0, 150.0])[:, None]
        zero = np.zeros((len(mags), 3))
        rel_r = np.concatenate([mags * [0.6, -0.48, 0.64], zero, mags * [0.0, 0.0, 1.0]])
        rel_p = np.concatenate([zero, mags * [0.0, 1.0, 0.0], mags * [0.8, 0.0, -0.6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
        for lv in LEVELS_N12:
            assert batch[lv].tolist() == [0.0] * len(rel_r), lv

    @pytest.mark.parametrize("zeta", [0.25, 0.5, 2.0, 4.0])
    def test_zeta_exchange(self, zeta, rng):
        # Swapping the roles of rho = nu r and pi~ = p/(nu hbar) maps zeta to 1/zeta:
        # P_kl(r, p; zeta) = P_kl(p/(nu^2 hbar), nu^2 hbar r; 1/zeta)
        nu, hbar = 1.3, 0.9
        rel_r = rng.uniform(-2, 2, (2000, 3)) / nu
        rel_p = rng.uniform(-2, 2, (2000, 3)) * nu * hbar
        direct = p_kl_batch(LEVELS_N12, rel_r, rel_p, OscParams.from_zeta(nu, zeta, hbar))
        swapped = p_kl_batch(LEVELS_N12, rel_p / (nu * nu * hbar), nu * nu * hbar * rel_r,
                             OscParams.from_zeta(nu, 1.0 / zeta, hbar))
        assert len(LEVELS_N12) == 49
        for lv in LEVELS_N12:
            assert np.max(np.abs(direct[lv] - swapped[lv])) <= 4e-15, lv

    def test_batch_builds_no_coefficient_matrix(self, rng, monkeypatch):
        # P_kl and P_klm both come from the Bargmann closed form: neither builds
        # a coefficient matrix or the 1-D amplitudes
        def refuse(*args):
            raise AssertionError(f"factorized route requested with {args}")

        assert not hasattr(coalescence, "_coeff_matrix")
        assert not hasattr(coalescence, "quasi_amplitudes")
        monkeypatch.setattr(expansion, "_coeff_matrix", refuse)
        monkeypatch.setattr(expansion, "coeff", refuse)
        monkeypatch.setattr(ho1d, "quasi_amplitudes", refuse)
        p = OscParams.from_zeta(1.0, 2.0)
        rel_r, rel_p = rng.uniform(-1, 1, (2, 5, 3))
        batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
        assert all(np.all(batch[lv] > 0) for lv in LEVELS_N12)
        rel = PhasePoint(tuple(rel_r[0]), tuple(rel_p[0]))
        assert p_kl(2, 3, rel, p) == batch[(2, 3)][0]
        parts = [p_klm(2, 3, m, rel, p) for m in range(-3, 4)]
        assert min(parts) > 0 and sum(parts) == pytest.approx(batch[(2, 3)][0], rel=5e-14)

    @pytest.mark.parametrize("zeta", [0.25, 0.5, 1.0, 2.0, 3.0])
    def test_matches_exact_rational_evaluation(self, zeta, rng):
        # At dyadic rho, pi~ and zeta the polynomial part n_kl |F_kl|^2 L_l is
        # rational: evaluate it in Fractions (L_l by its power sum, F_kl term
        # by term) and multiply by the float prefactor |G0|^6.
        p = OscParams.from_zeta(1.0, zeta)
        z = Fraction(zeta)
        s = 1 + z * z
        c = (z * z - 1) / (2 * s)
        rel_r, rel_p = rng.integers(-16, 17, (2, 8, 3)) / 8
        batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
        for i in range(len(rel_r)):
            rho = [Fraction(x) for x in rel_r[i]]
            pit = [Fraction(x) for x in rel_p[i]]
            rr = sum(x * x for x in rho)
            pp = sum(x * x for x in pit)
            rp = sum(x * y for x, y in zip(rho, pit))
            b2 = 2 * (rr + z**4 * pp) / s**2
            bb = (2 * (rr - z**4 * pp) / s**2, 4 * z * z * rp / s**2)
            bb2 = bb[0] ** 2 + bb[1] ** 2
            g6 = float((2 * z / s) ** 3) * math.exp(float(-(rr + z * z * pp) / s))
            for k, l in LEVELS_N12:
                f_re, f_im, power = Fraction(0), Fraction(0), (Fraction(1), Fraction(0))
                for j in range(k + 1):
                    w = c ** (k - j) / (2**j * math.factorial(j) * math.factorial(k - j)
                                        * double_factorial(2 * l + 2 * j + 1))
                    f_re, f_im = f_re + w * power[0], f_im + w * power[1]
                    power = (power[0] * bb[0] - power[1] * bb[1],
                             power[0] * bb[1] + power[1] * bb[0])
                legendre = sum(
                    (-1) ** h * math.comb(l, h) * math.comb(2 * l - 2 * h, l)
                    * b2 ** (l - 2 * h) * bb2**h
                    for h in range(l // 2 + 1)
                ) / 2**l
                norm = 2**k * math.factorial(k) * double_factorial(2 * k + 2 * l + 1) * (2 * l + 1)
                exact = g6 * float(norm * (f_re**2 + f_im**2) * legendre)
                assert abs(batch[(k, l)][i] - exact) <= 1e-15, (i, k, l)


class TestClosedForms:
    def test_printed_forms(self, rng):
        for v in np.concatenate([[0.0, 1.0], rng.uniform(0, 4, 40)]).tolist():
            for t in (0.0, v * v, *rng.uniform(0, v * v, 3).tolist()):
                for (k, l), form in PRINTED_N3.items():
                    assert p_kl_closed(k, l, v, t) == pytest.approx(
                        math.exp(-v) * form(v, t), abs=1e-15)

    def test_p01_at_v1(self):
        assert p_kl_closed(0, 1, 1.0, 0.3) == pytest.approx(math.exp(-1), rel=1e-14)
        assert p_kl_closed(0, 1, 1.0, 0.7) == pytest.approx(0.3678794412, abs=1e-10)

    def test_maximal_angular_momentum_kills_radial(self):
        for v in (0.5, 1.0, 2.5):
            assert p_kl_closed(1, 0, v, v * v) == pytest.approx(0.0, abs=1e-16)

    def test_p03_formula_evaluation(self, params):
        got = p_kl_closed(0, 3, 2.0, 1.0)
        assert got == pytest.approx(math.exp(-2) * (0.4 * 8 + 0.6 * 2) / 6, rel=1e-14)
        assert got == pytest.approx(0.09924587437351598, rel=1e-12)
        # cross-check against the factorized route at a matching point
        rel = PhasePoint.from_invariants(math.sqrt(2 + math.sqrt(3)), math.sqrt(2 - math.sqrt(3)),
                                         math.pi / 2)
        v, t = v_and_t(rel.r_vec, rel.p_vec, params)
        assert (v, t) == (pytest.approx(2.0), pytest.approx(1.0))
        assert p_kl(0, 3, rel, params) == pytest.approx(got, abs=1e-13)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="closed form"):
            p_kl_closed(-1, 0, 1.0, 0.0)

    def test_unphysical_t_rejected(self):
        with pytest.raises(ValueError, match="violated"):
            p_kl_closed(0, 2, 1.0, 1.5)


class TestPoissonSum:
    def test_shell_zero(self, params):
        rel = PhasePoint((0.4, 0.1, -0.2), (0.3, -0.5, 0.2))
        v, _ = v_and_t(rel.r_vec, rel.p_vec, params)
        assert poisson_sum(0, rel, params) == pytest.approx(math.exp(-v), rel=1e-13)

    def test_n2_at_v1_is_t_independent(self, params):
        for th in (0.0, 0.4, math.pi / 2):
            rel = PhasePoint.from_invariants(1.0, 1.0, th)
            assert poisson_sum(2, rel, params) == pytest.approx(math.exp(-1) / 2, abs=1e-13)

    def test_n3_formula(self, params):
        # point realizing v = 1.5, t = 0.8
        rel = PhasePoint((1.0, 0, 0), (1.0954451150103321, 0.8944271909999159, 0))
        v, t = v_and_t(rel.r_vec, rel.p_vec, params)
        assert (v, t) == (pytest.approx(1.5), pytest.approx(0.8))
        assert poisson_sum(3, rel, params) == pytest.approx(
            math.exp(-1.5) * 1.5**3 / 6, abs=1e-12
        )

    def test_poisson_rule_random_points(self, params, rng):
        for _ in range(25):
            rv, pv = rng.uniform(-1.5, 1.5, (2, 3))
            rel = PhasePoint(tuple(rv), tuple(pv))
            v, _ = v_and_t(rv, pv, params)
            for N in range(5):
                assert poisson_sum(N, rel, params) == pytest.approx(
                    math.exp(-v) * v**N / math.factorial(N), abs=1e-10
                )

    @pytest.mark.parametrize("zeta", [0.25, 1.0, 3.0])
    def test_shell_sum_at_every_zeta(self, zeta, rng):
        # by unitarity of C the levels of shell N sum to the N-th term of the
        # convolution of the three 1-D sequences |g_n|^2; no 3-D coefficient
        # enters that side
        p = OscParams.from_zeta(1.3, zeta, 0.9)
        rel_r, rel_p = rng.uniform(-1.5, 1.5, (2, 500, 3))
        batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
        g2 = np.abs(quasi_amplitudes(rel_r.T, rel_p.T, p, 12)) ** 2
        for N in range(13):
            expected = sum(
                g2[n1, 0] * g2[n2, 1] * g2[N - n1 - n2, 2]
                for n1 in range(N + 1)
                for n2 in range(N + 1 - n1)
            )
            got = sum(batch[lv] for lv in shell_states(N))
            assert np.max(np.abs(got - expected)) <= 1e-14, N

    def test_completeness(self, params):
        rel = PhasePoint.from_invariants(1.2, 1.1, 0.7)
        v, _ = v_and_t(rel.r_vec, rel.p_vec, params)
        assert v <= 2.0
        total = sum(poisson_sum(N, rel, params) for N in range(13))
        assert abs(total - 1.0) <= 1e-6

    @staticmethod
    def _points(rng, p, vmax, n=2000):
        """n random points whose v spreads over [0, vmax]."""
        rel_r, rel_p = rng.normal(size=(2, n, 3))
        v, _ = v_and_t(rel_r, rel_p, p)
        scale = np.sqrt(rng.uniform(0.0, vmax, n) / v)[:, None]
        return rel_r * scale, rel_p * scale

    def test_completeness_at_every_shell(self, rng):
        # at zeta = 1 the levels through Nmax sum to the Poisson CDF in v, for
        # every Nmax the CLI accepts
        p = OscParams.from_zeta(1.3, 1.0, 0.9)
        rel_r, rel_p = self._points(rng, p, 18.0)
        v, _ = v_and_t(rel_r, rel_p, p)
        assert v.max() > 17.0
        batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
        total = np.zeros(len(v))
        for nmax in range(13):
            total += sum(batch[lv] for lv in shell_states(nmax))
            assert np.max(np.abs(total - gammaincc(nmax + 1, v))) <= 1e-14, nmax

    @pytest.mark.parametrize("zeta", [0.25, 3.0])
    def test_partial_sums_grow_to_at_most_one(self, zeta, rng):
        p = OscParams.from_zeta(1.3, zeta, 0.9)
        rel_r, rel_p = self._points(rng, p, 18.0)
        batch = p_kl_batch(LEVELS_N12, rel_r, rel_p, p)
        total = np.zeros(len(rel_r))
        for nmax in range(13):
            grown = total + sum(batch[lv] for lv in shell_states(nmax))
            assert np.all(grown >= total) and np.all(grown <= 1.0 + 1e-15), nmax
            total = grown

    def test_requires_zeta_one(self):
        p = OscParams.from_zeta(1.0, 2.0)
        with pytest.raises(ValueError, match="zeta"):
            poisson_sum(1, PhasePoint((1, 0, 0), (0, 1, 0)), p)


class TestThetaDependence:
    def test_fig3_monotonicity_and_endpoints(self, params):
        thetas = np.linspace(0, math.pi / 2, 41)
        p03 = [p_kl(0, 3, PhasePoint.from_invariants(1, 1, th), params) for th in thetas]
        p11 = [p_kl(1, 1, PhasePoint.from_invariants(1, 1, th), params) for th in thetas]
        assert all(b >= a - 1e-14 for a, b in zip(p03, p03[1:]))
        assert all(b <= a + 1e-14 for a, b in zip(p11, p11[1:]))
        # the two states exhaust the N = 3 shell at v = 1
        for a, b in zip(p03, p11):
            assert a + b == pytest.approx(math.exp(-1) / 6, abs=1e-10)


class TestMomentumOverlap:
    def test_peak_value(self, params):
        d = params.delta
        peak = j_overlap((0.2, 0.1, 0.0), (0.2, 0.1, 0.0), d, params.hbar)
        assert peak == pytest.approx(d**3 / math.pi**1.5, rel=1e-14)
        assert peak == pytest.approx(0.02244839026564582, rel=1e-13)

    def test_normalization(self, params):
        # gaussian integral over P_f, exact by Gauss-Hermite
        t, w = np.polynomial.hermite.hermgauss(8)
        d, hbar = params.delta, params.hbar
        scale = hbar / d
        total = 0.0
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    pf = np.array([t[i], t[j], t[k]]) * scale
                    total += (
                        w[i] * w[j] * w[k]
                        * j_overlap((0, 0, 0), tuple(pf), d, hbar)
                        * math.exp(t[i] ** 2 + t[j] ** 2 + t[k] ** 2)
                    )
        assert total * scale**3 == pytest.approx(1.0, rel=1e-12)

    def test_differential_recovers_p_kl(self, params):
        w1 = WavePacket((0.5, 0, 0), (0.2, 0.4, 0), params.delta)
        w2 = WavePacket((0, 0.3, 0), (-0.2, 0.1, 0.5), params.delta)
        rel = PhasePoint.from_packets(w1, w2)
        k, l = 0, 1
        # integral over P_f of J is one, so sum_m of the densities integrates
        # to p_kl; evaluate the P_f integral by Gauss-Hermite around P_i
        p_i = np.array(w1.centroid_p) + np.array(w2.centroid_p)
        t, w = np.polynomial.hermite.hermgauss(6)
        d, hbar = params.delta, params.hbar
        scale = hbar / d
        total = 0.0
        for m in range(-l, l + 1):
            for i in range(6):
                for j in range(6):
                    for s in range(6):
                        pf = p_i + np.array([t[i], t[j], t[s]]) * scale
                        total += (
                            w[i] * w[j] * w[s]
                            * p_klm_differential(k, l, m, tuple(pf), (w1, w2), params)
                            * math.exp(t[i] ** 2 + t[j] ** 2 + t[s] ** 2)
                        )
        total *= scale**3
        assert total == pytest.approx(p_kl(k, l, rel, params), rel=1e-10)

    def test_delta_limit_peak(self, params):
        w1 = WavePacket((0, 0, 0), (0.3, 0, 0), params.delta)
        w2 = WavePacket((0.4, 0, 0), (-0.1, 0, 0), params.delta)
        dens = p_klm_differential(0, 0, 0, (0.2, 0.0, 0.0), (w1, w2), params)
        rel = PhasePoint.from_packets(w1, w2)
        assert dens == pytest.approx(
            j_overlap((0.2, 0, 0), (0.2, 0, 0), params.delta) * p_klm(0, 0, 0, rel, params),
            rel=1e-14,
        )


class TestShellStates:
    def test_enumeration(self):
        assert shell_states(0) == [(0, 0)]
        assert shell_states(3) == [(0, 3), (1, 1)]
        assert shell_states(4) == [(0, 4), (1, 2), (2, 0)]
