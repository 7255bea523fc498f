import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_rotation
from oscoal.coalescence import PhasePoint, canonical_points, p_kl_batch, shell_states, v_and_t
from oscoal.expansion import Ame, coeff, degenerate_subspace, psi_klm
from oscoal.gridio import read_wigner_grid, write_wigner_grid
from oscoal.ho1d import OscParams, phi_n
from oscoal.wigner3d import (
    CLOSED_FORM_STATES,
    PhasePoint3D,
    REFERENCE_TABULATION,
    _derive_et,
    _husimi_input,
    _laplacian_et,
    _normalization_exact,
    _normalization_quadrature,
    _shell_trace_residue,
    _to_abc,
    derive_invariant_poly,
    export_grid,
    level_crossings,
    wigner_kl,
    wigner_kl_closed,
    wigner_kl_oracle,
    wigner_klm,
    wigner_klm_oracle,
)

F = Fraction


class TestPhasePoint3D:
    def test_alias(self):
        # the Wigner argument (r, q) is the relative point of coalescence
        assert PhasePoint3D is PhasePoint

    def test_invariants(self):
        # |r|^2 = 9, |q|^2 = 25, r.q = -2: v = 17 and t = 9 * 25 - 4, exactly
        pt = PhasePoint3D((1.0, 2.0, 2.0), (0.0, 3.0, -4.0))
        assert v_and_t(pt.r_vec, pt.p_vec, OscParams(nu=1.0, delta=0.5)) == (17.0, 221.0)

    def test_from_invariants(self):
        pt = PhasePoint3D.from_invariants(2.0, 3.0, math.pi / 3)
        assert pt.r_vec == (2.0, 0.0, 0.0)
        assert pt.p_vec == pytest.approx((1.5, 1.5 * math.sqrt(3), 0.0))
        v, t = v_and_t(pt.r_vec, pt.p_vec, OscParams(nu=1.0, delta=0.5))
        assert (v, t) == pytest.approx(((4.0 + 9.0) / 2, (2.0 * 3.0) ** 2 * 0.75))

    def test_from_invariants_matches_canonical_points_bitwise(self, rng):
        r, p = rng.uniform(0, 3, (2, 40))
        theta = np.concatenate([rng.uniform(-4, 4, 37), [0.0, math.pi / 2, math.pi]])
        rel_r, rel_p = canonical_points(r, p, theta)
        for i, (ri, pi, th) in enumerate(zip(r.tolist(), p.tolist(), theta.tolist())):
            pt = PhasePoint.from_invariants(ri, pi, th)
            scalar = [ri, 0.0, 0.0, pi * math.cos(th), pi * math.sin(th), 0.0]
            got = np.array(pt.r_vec + pt.p_vec)
            assert got.tobytes() == np.concatenate([rel_r[i], rel_p[i]]).tobytes()
            assert got.tobytes() == np.array(scalar).tobytes()


class TestPsiKlm:
    def test_ground_state_at_origin(self):
        for nu in (0.8, 1.0, 1.7):
            p = OscParams(nu=nu, delta=0.5)
            got = psi_klm(Ame(0, 0, 0), 0.0, 0.3, 0.9, p)
            assert got == pytest.approx(nu**1.5 * math.pi**-0.75, rel=1e-14)

    def test_orbital_states_vanish_at_origin(self, params):
        assert psi_klm(Ame(0, 1, 0), 0.0, 0.2, 0.4, params) == 0

    def test_expansion_identity(self, params, rng):
        # Psi_klm = sum_t C_t Phi_t pointwise, the dual route through phi_n
        for k, l, m in ((0, 1, 1), (1, 0, 0), (0, 2, -1), (1, 1, 0), (0, 3, 2)):
            state = Ame(k, l, m)
            for _ in range(5):
                xyz = rng.uniform(-1.5, 1.5, 3)
                r = float(np.linalg.norm(xyz))
                theta = math.acos(xyz[2] / r)
                phi = math.atan2(xyz[1], xyz[0])
                lhs = psi_klm(state, r, theta, phi, params)
                rhs = sum(
                    coeff(state, t).value
                    * phi_n(t.n1, xyz[0], params)
                    * phi_n(t.n2, xyz[1], params)
                    * phi_n(t.n3, xyz[2], params)
                    for t in degenerate_subspace(2 * k + l)
                )
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_radial_excitation_value(self, params):
        # (1,0,0) at r = 1/nu, cross-checked by the expansion identity above;
        # direct value from the normalized Laguerre form
        got = psi_klm(Ame(1, 0, 0), 1.0, 0.1, 0.2, params)
        pref = math.sqrt(8 * 1 / (math.sqrt(math.pi) * 3))
        expected = pref * math.exp(-0.5) * (1.5 - 1.0) / math.sqrt(4 * math.pi)
        assert got == pytest.approx(expected, rel=1e-13)


class TestWignerKlm:
    def test_ground_state_peak(self, params):
        got = wigner_klm(Ame(0, 0, 0), PhasePoint((0, 0, 0), (0, 0, 0)), params)
        assert got.real == pytest.approx(1 / math.pi**3, rel=1e-14)

    def test_diagonal_reality(self, params, rng):
        for k, l, m in ((0, 1, 1), (0, 2, -2), (1, 1, 0), (0, 3, 3)):
            pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
            assert abs(wigner_klm(Ame(k, l, m), pt, params).imag) < 1e-12

    def test_against_transform_oracle(self, params, rng):
        for k, l, m in ((0, 1, 1), (1, 0, 0), (0, 2, -1)):
            pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
            a = wigner_klm(Ame(k, l, m), pt, params)
            b = wigner_klm_oracle(Ame(k, l, m), pt, params)
            assert a == pytest.approx(b, abs=1e-8)

    def test_oracle_over_full_multiplets(self, params, rng):
        for k, l in ((1, 1), (0, 3)):
            for m in range(-l, l + 1):
                for _ in range(2):
                    pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
                    a = wigner_klm(Ame(k, l, m), pt, params)
                    b = wigner_klm_oracle(Ame(k, l, m), pt, params)
                    assert a == pytest.approx(b, abs=1e-8)

    def test_oracle_at_generic_units(self, rng):
        p = OscParams(nu=1.4, delta=0.3, hbar=0.8)
        for k, l, m in ((0, 1, -1), (1, 1, 1)):
            pt = PhasePoint(tuple(rng.uniform(-0.7, 0.7, 3)), tuple(rng.uniform(-0.9, 0.9, 3)))
            a = wigner_klm(Ame(k, l, m), pt, p)
            b = wigner_klm_oracle(Ame(k, l, m), pt, p)
            assert a == pytest.approx(b, abs=1e-8)


    def test_multiplet_oracle_is_mean_of_per_m_oracle(self, rng):
        """The one-pass addition-theorem oracle against the per-m definition."""
        p = OscParams(nu=1.3, delta=0.5, hbar=0.8)
        for k, l in CLOSED_FORM_STATES:
            for _ in range(3):
                pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
                per_m = sum(wigner_klm_oracle(Ame(k, l, m), pt, p).real for m in range(-l, l + 1))
                assert wigner_kl_oracle(k, l, pt, p) == pytest.approx(per_m / (2 * l + 1), abs=1e-12)


class TestWignerKl:
    def test_peak_value(self, params):
        got = wigner_kl(0, 0, PhasePoint((0, 0, 0), (0, 0, 0)), params)
        assert got == pytest.approx(0.03225153444, abs=1e-11)

    def test_l1_node_location(self, params):
        # node where nu^2 r^2 + q^2/(hbar nu)^2 = 3/2
        r = math.sqrt(0.9)
        q = math.sqrt(0.6)
        pt = PhasePoint((r, 0, 0), (0, q, 0))
        assert abs(wigner_kl(0, 1, pt, params)) < 1e-15

    def test_matches_closed_form_11(self, params, rng):
        for _ in range(10):
            pt = PhasePoint(tuple(rng.uniform(-1.3, 1.3, 3)), tuple(rng.uniform(-1.3, 1.3, 3)))
            a = wigner_kl(1, 1, pt, params)
            b = wigner_kl_closed(1, 1, pt.r_vec, pt.p_vec, params)
            assert a == pytest.approx(b, abs=1e-14)

    def test_w10_literal_spot_value(self, params):
        # a = b = 1, c = 0: W_10 / W_00 = 1 - 4/3 - 4/3 + 2/3 - 4/3 + 2/3 = -5/3
        pt = PhasePoint((1.0, 0, 0), (0, 1.0, 0))
        expected = -5 / 3 * math.exp(-2.0) / math.pi**3
        assert wigner_kl(1, 0, pt, params) == pytest.approx(expected, rel=1e-12)


class TestClosedForms:
    def test_audit_against_printed_tabulation(self):
        # only the two documented (1,1) coefficients may differ
        diffs = {}
        for (k, l), ref in REFERENCE_TABULATION.items():
            d = derive_invariant_poly(k, l)
            delta = {
                key
                for key in set(d) | set(ref)
                if d.get(key, F(0)) != ref.get(key, F(0))
            }
            if delta:
                diffs[(k, l)] = delta
        assert diffs == {(1, 1): {(0, 2, 0), (0, 3, 0)}}
        assert derive_invariant_poly(1, 1)[(0, 2, 0)] == F(-22, 15)
        assert derive_invariant_poly(1, 1)[(0, 3, 0)] == F(4, 15)

    def test_mirror_symmetry_of_tables(self):
        # the nu r <-> q/(hbar nu) mirror swaps a and b, for every derived level
        for N in range(13):
            for k, l in shell_states(N):
                poly = derive_invariant_poly(k, l)
                for (i, j, h), c in poly.items():
                    assert poly.get((j, i, h)) == c, (k, l, (i, j, h))

    def test_w02_angular_dependence_only_through_c(self, params):
        poly = derive_invariant_poly(0, 2)
        assert all(h <= 1 for (_, _, h) in poly)
        # same a and b, r.q = +-0.3: the angle enters only through (r.q)^2
        s = math.sqrt(1.0 - 0.09)
        a = wigner_kl_closed(0, 2, (1.0, 0, 0), (0.3, s, 0), params)
        b = wigner_kl_closed(0, 2, (1.0, 0, 0), (-0.3, s, 0), params)
        assert a == b

    def test_ground_state_form(self, params, rng):
        for _ in range(5):
            rv, qv = rng.uniform(-1, 1, (2, 3))
            got = wigner_kl_closed(0, 0, rv, qv, params)
            assert got == pytest.approx(math.exp(-rv @ rv - qv @ qv) / math.pi**3, rel=1e-14)

    def test_accepts_every_level(self, params, rng):
        # levels outside the printed tabulation evaluate their derived polynomial
        for k, l in ((2, 0), (1, 3), (0, 5)):
            for _ in range(4):
                pt = PhasePoint(tuple(rng.uniform(-1.2, 1.2, 3)), tuple(rng.uniform(-1.2, 1.2, 3)))
                a = wigner_kl(k, l, pt, params)
                b = wigner_kl_closed(k, l, pt.r_vec, pt.p_vec, params)
                assert a == pytest.approx(b, abs=1e-12)
        with pytest.raises(ValueError, match="nonnegative"):
            wigner_kl_closed(-1, 2, (1.0, 0, 0), (1.0, 0, 0), params)

    def test_factorized_vs_closed_everywhere(self, params, rng):
        for k, l in CLOSED_FORM_STATES:
            for _ in range(8):
                pt = PhasePoint(tuple(rng.uniform(-1.4, 1.4, 3)), tuple(rng.uniform(-1.4, 1.4, 3)))
                a = wigner_kl(k, l, pt, params)
                b = wigner_kl_closed(k, l, pt.r_vec, pt.p_vec, params)
                assert a == pytest.approx(b, abs=1e-12)

    def test_factorized_vs_closed_generic_units(self, rng):
        # unit scaling of the closed forms at nu, hbar away from 1
        p = OscParams(nu=1.4, delta=0.3, hbar=0.8)
        for k, l in CLOSED_FORM_STATES:
            for _ in range(4):
                pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
                a = wigner_kl(k, l, pt, p)
                b = wigner_kl_closed(k, l, pt.r_vec, pt.p_vec, p)
                assert a == pytest.approx(b, abs=1e-12)


def _exact_w(k, l, E, T):
    """pi^3 hbar^3 W_kl at float E, T: `_derive_et` in exact integers, times math.exp(-E)."""
    poly = _derive_et(k, l)
    (ne, de), (nt, dt) = E.as_integer_ratio(), T.as_integer_ratio()
    imax, jmax = max(i for i, _ in poly), max(j for _, j in poly)
    den = math.lcm(*(c.denominator for c in poly.values()))
    num = sum(c.numerator * (den // c.denominator) * ne**i * de ** (imax - i) * nt**j * dt ** (jmax - j)
              for (i, j), c in poly.items())
    return math.exp(-E) * (num / (den * de**imax * dt**jmax))


ALL_LEVELS = [kl for N in range(13) for kl in shell_states(N)]


@pytest.mark.filterwarnings("error")
class TestEvaluator:
    def test_grid_accuracy_every_level(self, params):
        # the (a, b, c) monomials read 4.3e-13 at N = 12 on these cells
        ax = np.linspace(0.0, 4.0, 9)
        theta = np.array([0.0, 1e-4, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2])
        a, b = ax[:, None, None] ** 2, ax[None, :, None] ** 2
        E = np.broadcast_to(a + b, (9, 9, 6))
        T = a * b * np.sin(theta) ** 2
        worst = 0.0
        for k, l in ALL_LEVELS:
            got = export_grid(k, l, ax, ax, theta, params).values * math.pi**3
            for idx in np.ndindex(got.shape):
                worst = max(worst, abs(got[idx] - _exact_w(k, l, float(E[idx]), float(T[idx]))))
        assert worst <= 5e-14

    def test_point_accuracy_every_level(self, rng):
        p = OscParams(nu=1.3, delta=0.3, hbar=0.9)
        r, q = rng.uniform(-2.0, 2.0, (2, 16, 3))
        v, t = v_and_t(r, q, p)
        worst = 0.0
        for k, l in ALL_LEVELS:
            got = wigner_kl_closed(k, l, r, q, p) * (math.pi * p.hbar) ** 3
            for i in range(len(v)):
                worst = max(worst, abs(got[i] - _exact_w(k, l, 2.0 * v[i], t[i])))
        assert worst <= 5e-14

    def test_points_batch_matches_single_bitwise(self, params, rng):
        r, q = rng.uniform(-2.0, 2.0, (2, 20, 3))
        for k, l in ((0, 0), (1, 3), (3, 6)):
            batch = wigner_kl_closed(k, l, r, q, params)
            single = [wigner_kl_closed(k, l, r[i], q[i], params) for i in range(20)]
            assert isinstance(single[0], float)
            assert batch.tobytes() == np.array(single).tobytes()

    def test_grid_matches_points_at_theta_zero(self, params):
        # export_grid forms E as v_and_t does, so the two agree bitwise at T = 0
        ax = np.linspace(0.0, 3.0, 7)
        g = export_grid(2, 3, ax, ax, [0.0], params)
        r, q = canonical_points(np.repeat(ax, 7), np.tile(ax, 7), np.zeros(49))
        assert g.values[:, :, 0].ravel().tobytes() == wigner_kl_closed(2, 3, r, q, params).tobytes()

    def test_far_grid_is_zero(self, params):
        # W_00 underflows while the polynomial overflows; the cell is 0, not nan
        r_axis = np.array([0.0, 1.0, 1e14, 1e200])
        q_axis = np.array([0.0, 4.0, 1e200])
        for k, l in ALL_LEVELS:
            values = export_grid(k, l, r_axis, q_axis, [0.0, 1.0], params).values
            assert np.all(values[2:] == 0.0) and np.all(values[:, 2] == 0.0)
            assert np.all(np.isfinite(values))

    def test_far_points_are_zero(self, params, rng):
        u = rng.normal(size=(2, 12, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        scale = np.array([1e14, 1e30, 1e100, 1e200] * 3)[:, None]
        for k, l in ALL_LEVELS:
            assert np.all(wigner_kl_closed(k, l, scale * u[0], u[1], params) == 0.0)
            assert wigner_kl_closed(k, l, (1e30, 0, 0), (1.0, 0, 0), params) == 0.0
            assert wigner_kl_closed(k, l, (1e200, 0, 0), (0, 1e200, 0), params) == 0.0

    def test_nan_input_gives_nan(self, params):
        assert math.isnan(wigner_kl_closed(1, 2, (math.nan, 0, 0), (1.0, 0, 0), params))
        assert math.isnan(wigner_kl_closed(0, 0, (0, 0, 0), (0, math.nan, 0), params))


def _laplacian_abc(poly):
    """The 6-D Laplacian in (xi, eta) of a polynomial in (a, b, c), the oracle.

    On a^i b^j c^h it is i(4i+2+8h) a^{i-1} b^j c^h + j(4j+2+8h) a^i b^{j-1} c^h
    + h(4h-2) (a^{i+1} b^j + a^i b^{j+1}) c^{h-1}.
    """
    out = {}
    for (i, j, h), c in poly.items():
        for key, f in (((i - 1, j, h), i * (4 * i + 2 + 8 * h)),
                       ((i, j - 1, h), j * (4 * j + 2 + 8 * h)),
                       ((i + 1, j, h - 1), h * (4 * h - 2)),
                       ((i, j + 1, h - 1), h * (4 * h - 2))):
            if f:
                out[key] = out.get(key, 0) + f * c
    return {key: c for key, c in out.items() if c}


def _flow_generator(poly):
    """dP/da - dP/db + (b - a) dP/dc, as a dict of its nonzero coefficients."""
    out = defaultdict(Fraction)
    for (i, j, h), cf in poly.items():
        if i:
            out[(i - 1, j, h)] += i * cf
        if j:
            out[(i, j - 1, h)] -= j * cf
        if h:
            out[(i, j + 1, h - 1)] += h * cf
            out[(i + 1, j, h - 1)] -= h * cf
    return {key: v for key, v in out.items() if v}


class TestHarmonicFlow:
    """An eigenstate's W is constant along xi -> xi cos f + eta sin f,
    eta -> eta cos f - xi sin f.  On P(a, b, c) = W_kl/W_00 the generator of
    that flow is 2 (xi.eta) (dP/da - dP/db + (b - a) dP/dc), which must vanish
    identically; equivalently P is a polynomial in a + b and ab - c.

    The derivation runs in E = a + b and T = ab - c, so for the derived levels
    this checks only their expansion into (a, b, c); that W_kl itself is
    flow invariant is checked against the factorized sum in
    `TestDerivation.test_matches_factorized_sum_in_full_space`."""

    @pytest.mark.parametrize("N", range(13))
    def test_derived_levels(self, N):
        for k, l in shell_states(N):
            assert _flow_generator(derive_invariant_poly(k, l)) == {}

    def test_printed_11_tabulation_violates_it(self):
        assert _flow_generator(REFERENCE_TABULATION[(1, 1)]) != {}


class TestSymmetries:
    def test_rotation_invariance(self, params, rng):
        for k, l in ((0, 2), (0, 3), (1, 1)):
            for _ in range(5):
                rv = rng.uniform(-1, 1, 3)
                qv = rng.uniform(-1, 1, 3)
                rot = random_rotation(rng)
                a = wigner_kl(k, l, PhasePoint(tuple(rv), tuple(qv)), params)
                b = wigner_kl(k, l, PhasePoint(tuple(rot @ rv), tuple(rot @ qv)), params)
                assert a == pytest.approx(b, abs=1e-12)

    def test_position_momentum_mirror(self, rng):
        p = OscParams(nu=1.0, delta=0.5, hbar=1.0)
        for k, l in CLOSED_FORM_STATES:
            for _ in range(5):
                rv = rng.uniform(-1, 1, 3)
                qv = rng.uniform(-1, 1, 3)
                a = wigner_kl(k, l, PhasePoint(tuple(rv), tuple(qv)), p)
                b = wigner_kl(k, l, PhasePoint(tuple(qv), tuple(rv)), p)
                assert a == pytest.approx(b, abs=1e-12)

    def test_multiplet_trace_identity(self, params, rng):
        from oscoal.coalescence import shell_states

        for N in (1, 2, 3):
            pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
            direct = sum(
                wigner_klm(Ame(k, l, m), pt, params).real
                for k, l in shell_states(N)
                for m in range(-l, l + 1)
            )
            averaged = sum(
                (2 * l + 1) * wigner_kl(k, l, pt, params) for k, l in shell_states(N)
            )
            assert direct == pytest.approx(averaged, abs=1e-12)


class TestDerivation:
    @pytest.mark.parametrize(
        "k, l", [(0, 4), (1, 2), (2, 0), (0, 5), (1, 3), (2, 1), (1, 4), (3, 0), (2, 4), (0, 8)]
    )
    def test_matches_factorized_sum_in_full_space(self, k, l, rng):
        # the derivation never evaluates the factorized sum; W_00 * P must
        # equal the factorized W_kl at general points and at their rotated,
        # reflected, nu r <-> q/(hbar nu) mirrored and harmonic-flow images.
        # P depends on (E, T) only by construction, so this is the test of the
        # flow invariance the derivation assumes
        p = OscParams(nu=1.4, delta=0.3, hbar=0.8)
        poly = derive_invariant_poly(k, l)
        for _ in range(3):
            rv, qv = rng.uniform(-1.0, 1.0, (2, 3))
            a = p.nu**2 * (rv @ rv)
            b = (qv @ qv) / (p.hbar * p.nu) ** 2
            c = (rv @ qv) ** 2 / p.hbar**2
            expected = (
                math.exp(-a - b) / (math.pi**3 * p.hbar**3)
                * sum(float(cf) * a**i * b**j * c**h for (i, j, h), cf in poly.items())
            )
            rot = random_rotation(rng)
            refl = np.diag([1.0, 1.0, -1.0]) @ rot
            scale = p.hbar * p.nu**2
            f = rng.uniform(0.2, 1.3)
            flow = (rv * math.cos(f) + qv / scale * math.sin(f),
                    qv * math.cos(f) - rv * scale * math.sin(f))
            for r_img, q_img in ((rv, qv), (rot @ rv, rot @ qv), (refl @ rv, refl @ qv),
                                 (qv / scale, rv * scale), flow):
                got = wigner_kl(k, l, PhasePoint(tuple(r_img), tuple(q_img)), p)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_husimi_input_matches_factorized_kernel(self, rng):
        # e^{-v} p is the zeta = 1 coalescence probability of the factorized
        # kernel, with v = E/2, E = a + b and T = |xi x eta|^2
        p = OscParams.from_zeta(1.3, 1.0, 0.9)
        rel_r, rel_p = rng.uniform(-1.5, 1.5, (2, 2000, 3))
        levels = [lv for N in range(9) for lv in shell_states(N)]
        batch = p_kl_batch(levels, rel_r, rel_p, p)
        e = (p.nu**2 * np.sum(rel_r * rel_r, axis=1)
             + np.sum(rel_p * rel_p, axis=1) / (p.hbar * p.nu) ** 2)
        t = np.sum(np.cross(rel_r, rel_p) ** 2, axis=1) / p.hbar**2
        for k, l in levels:
            poly = sum(float(cf) * e**i * t**j for (i, j), cf in _husimi_input(k, l).items())
            assert np.max(np.abs(np.exp(-e / 2) * poly - batch[(k, l)])) <= 1e-14, (k, l)

    def test_laplacian_matches_abc_oracle(self):
        # expand(Delta_ET m) = Delta_abc(expand m) for every monomial E^i T^j
        for i in range(13):
            for j in range((12 - i) // 2 + 1):
                mono = {(i, j): F(1)}
                assert _to_abc(_laplacian_et(mono)) == _laplacian_abc(_to_abc(mono)), (i, j)

    @pytest.mark.parametrize("N", range(13))
    def test_shell_sum_rule(self, N):
        # sum_{2k+l=N} (2l+1) W_kl / W_00 = (-1)^N L_N^(2)(2(a+b)), the
        # Wigner function of the shell projector
        assert _shell_trace_residue(N) == {}

    def test_rejects_negative_quantum_numbers(self):
        for k, l in ((1, -1), (-1, 2)):
            with pytest.raises(ValueError, match="nonnegative"):
                derive_invariant_poly(k, l)


class TestNormalization:
    def test_phase_space_integral_is_one(self):
        for N in range(6):
            for k, l in shell_states(N):
                got = _normalization_quadrature(derive_invariant_poly(k, l))
                assert got == pytest.approx(1.0, abs=1e-8)

    def test_exact_integral_is_one(self):
        for N in range(13):
            for k, l in shell_states(N):
                assert _normalization_exact(derive_invariant_poly(k, l)) == 1

    def test_printed_11_tabulation_is_not_normalized(self):
        printed = REFERENCE_TABULATION[(1, 1)]
        assert _normalization_exact(printed) == F(85, 4)
        assert _normalization_quadrature(printed) == pytest.approx(85 / 4, abs=1e-8)


class TestExportGrid:
    def test_ground_state_grid_positive(self, params):
        grid = export_grid(0, 0, np.linspace(0, 3, 40), np.linspace(0, 3, 40),
                           np.array([0.0]), params)
        assert np.all(grid.values > 0)
        assert grid.nodes[0].size == 0

    def test_l1_node_curve(self, params):
        grid = export_grid(0, 1, np.linspace(0.01, 3, 120), np.linspace(0.01, 3, 120),
                           np.array([0.0]), params)
        pts = grid.nodes[0]
        assert len(pts) > 0
        # node curve: nu^2 r^2 + q^2/(hbar nu)^2 = 3/2
        vals = pts[:, 0] ** 2 + pts[:, 1] ** 2
        assert np.max(np.abs(vals - 1.5)) < 1e-3

    def test_node_count_matches_polynomial_roots(self, params):
        # theta = pi/2 slice of (1,1): along q = const the nodes are the real
        # roots of the restricted invariant polynomial (recomputed reference)
        q0 = 0.8
        r_axis = np.linspace(0.005, 4.0, 400)
        grid = export_grid(1, 1, r_axis, np.array([q0, q0 + 0.005]),
                           np.array([math.pi / 2]), params)
        row = grid.values[:, 0, 0]
        crossings = np.sum(row[:-1] * row[1:] < 0)
        poly = derive_invariant_poly(1, 1)
        b = q0**2
        coeffs = np.zeros(4)
        for (i, j, h), c in poly.items():
            if h == 0:  # c = 0 at theta = pi/2
                coeffs[i] += float(c) * b**j
        roots = np.roots(coeffs[::-1])
        real_pos = [
            z.real for z in roots
            if abs(z.imag) < 1e-10 and 0 < z.real < r_axis[-1] ** 2
        ]
        assert crossings == len(real_pos)

    def test_derives_polynomial_for_untabulated_state(self, params):
        # (0, 4) lies outside the printed tabulation; the grid derives it like every level
        grid = export_grid(0, 4, np.linspace(0.2, 2.0, 5), np.linspace(0.2, 2.0, 5),
                           np.array([0.5]), params)
        for i in (0, 2, 4):
            for j in (1, 3):
                pt = PhasePoint.from_invariants(grid.r_axis[i], grid.q_axis[j], 0.5)
                ref = wigner_kl(0, 4, pt, params)
                assert grid.values[i, j, 0] == pytest.approx(ref, abs=1e-12)

    def test_rejects_bad_axes(self, params):
        with pytest.raises(ValueError):
            export_grid(0, 0, np.array([1.0, 0.5]), np.array([0.0, 1.0]),
                        np.array([0.0]), params)

    def test_grid_file_round_trip(self, params, tmp_path):
        grid = export_grid(0, 2, np.linspace(0, 2, 9), np.linspace(0, 2, 7),
                           np.array([0.0, math.pi / 2]), params)
        path = tmp_path / "grid.dat"
        write_wigner_grid(grid, path)
        header, values = read_wigner_grid(path)
        assert header["state"] == {"k": 0, "l": 2}
        np.testing.assert_array_equal(values, grid.values)
        np.testing.assert_array_equal(header["axes"]["r"], grid.r_axis)
        # emitting again is byte-identical
        path2 = tmp_path / "grid2.dat"
        write_wigner_grid(grid, path2)
        assert path.read_bytes() == path2.read_bytes()


def _crossings_reference(x_axis, y_axis, values, level=0.0):
    """Cell-by-cell scan of `level_crossings`, in its documented point order."""
    f = np.asarray(values, dtype=float) - level
    pts = []
    nx, ny = f.shape
    for i in range(nx - 1):
        for j in range(ny):
            a, b = f[i, j], f[i + 1, j]
            if a == 0.0:
                pts.append((x_axis[i], y_axis[j]))
            if a * b < 0.0:
                s = a / (a - b)
                pts.append((x_axis[i] + s * (x_axis[i + 1] - x_axis[i]), y_axis[j]))
    for i in range(nx):
        for j in range(ny - 1):
            a, b = f[i, j], f[i, j + 1]
            if a * b < 0.0:
                s = a / (a - b)
                pts.append((x_axis[i], y_axis[j] + s * (y_axis[j + 1] - y_axis[j])))
    pts.extend((x_axis[-1], y_axis[j]) for j in range(ny) if f[-1, j] == 0.0)
    return np.array(pts, dtype=float).reshape(-1, 2)


class TestLevelCrossings:
    @pytest.mark.parametrize("level", [0.0, 0.3])
    def test_matches_cell_scan(self, rng, level):
        for nx, ny in ((9, 7), (2, 2), (1, 5), (12, 1)):
            xs = np.sort(rng.uniform(-2, 2, nx)) + np.arange(nx)
            ys = np.sort(rng.uniform(-1, 3, ny)) + np.arange(ny)
            z = rng.normal(size=(nx, ny))
            # exact zeros (and -0.0) in interior cells, the last row and the last column
            for i, j in ((nx // 2, ny // 2), (nx - 1, 0), (nx - 1, ny - 1), (0, ny - 1)):
                z[i, j] = level
            z[nx // 3, 0] = -0.0 + level
            expected = _crossings_reference(xs, ys, z, level)
            pts = level_crossings(xs, ys, z, level)
            assert pts.shape == expected.shape
            assert np.array_equal(pts, expected)

    def test_no_crossings(self):
        xs, ys = np.linspace(0, 1, 4), np.linspace(0, 2, 5)
        pts = level_crossings(xs, ys, np.ones((4, 5)), 0.0)
        assert pts.shape == (0, 2) and pts.dtype == float
        assert np.array_equal(pts, _crossings_reference(xs, ys, np.ones((4, 5))))

    def test_simple_circle(self):
        xs = np.linspace(-2, 2, 81)
        ys = np.linspace(-2, 2, 81)
        z = 1.0 - (xs[:, None] ** 2 + ys[None, :] ** 2)
        pts = level_crossings(xs, ys, z, 0.0)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 2e-3
