import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_rotation
from oscoal.coalescence import PhasePoint, canonical_points, p_kl_batch, shell_states, v_and_t
from oscoal.expansion import Ame, _coeff_matrix, coeff, degenerate_subspace, psi_klm
from oscoal.gridio import read_wigner_grid, write_wigner_grid
from oscoal.ho1d import OscParams, phi_n
from oscoal.specfun import _gh_grid, _laguerre_orders, double_factorial
from oscoal.wigner3d import (
    CLOSED_FORM_STATES,
    PhasePoint3D,
    REFERENCE_TABULATION,
    _circular_weights,
    _derive_et,
    _normalization_exact,
    _normalization_quadrature,
    _shell_trace_residue,
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
        assert worst <= 2e-15

    def test_point_accuracy_every_level(self, rng):
        p = OscParams(nu=1.3, delta=0.3, hbar=0.9)
        r, q = rng.uniform(-2.0, 2.0, (2, 16, 3))
        v, t = v_and_t(r, q, p)
        worst = 0.0
        for k, l in ALL_LEVELS:
            got = wigner_kl_closed(k, l, r, q, p) * (math.pi * p.hbar) ** 3
            for i in range(len(v)):
                worst = max(worst, abs(got[i] - _exact_w(k, l, 2.0 * v[i], t[i])))
        assert worst <= 2e-15

    def test_bounded_by_one(self, rng):
        # |e^{-u/2} L_n(u)| <= 1 and sum_ab w_ab = 2l + 1 give |pi^3 hbar^3 W| <= 1,
        # reached at the origin, where W = (-1)^N/(pi hbar)^3
        p = OscParams(nu=1.3, delta=0.3, hbar=0.9)
        scale = (math.pi * p.hbar) ** 3
        r, q = rng.normal(scale=1.5, size=(2, 400, 3))
        ax = np.linspace(0.0, 5.0, 21)
        theta = rng.uniform(0.0, math.pi, 7)
        for k, l in ALL_LEVELS:
            points = wigner_kl_closed(k, l, r, q, p) * scale
            grid = export_grid(k, l, ax, ax, theta, p).values * scale
            assert max(np.max(np.abs(points)), np.max(np.abs(grid))) <= 1 + 1e-15, (k, l)
            origin = wigner_kl_closed(k, l, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), p) * scale
            assert origin == pytest.approx((-1) ** (2 * k + l), abs=1e-15)
            assert grid[0, 0, 0] == pytest.approx((-1) ** (2 * k + l), abs=1e-15)

    def test_parallel_points(self, params, rng):
        # q parallel to r: t is the square of a cross product, never ab - c,
        # whose rounding can go negative under the square root
        r = rng.normal(size=(300, 3))
        s = rng.uniform(-2.0, 2.0, (300, 1))
        norm = np.linalg.norm(r, axis=1)
        zero = np.zeros(300)
        on_axis = np.column_stack([norm, zero, zero]), np.column_stack([s[:, 0] * norm, zero, zero])
        for k, l in ((1, 3), (0, 12)):
            got = wigner_kl_closed(k, l, r, s * r, params)
            assert np.max(np.abs(got - wigner_kl_closed(k, l, *on_axis, params))) * math.pi**3 <= 1e-14

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

    @pytest.mark.parametrize("N", range(13))
    def test_shell_sum_rule(self, N):
        # sum_{2k+l=N} (2l+1) W_kl / W_00 = (-1)^N L_N^(2)(2(a+b)), the
        # Wigner function of the shell projector: on the circular weights, and
        # on the (E, T) form against the projector's Laguerre coefficients
        assert _shell_trace_residue(N) == {}
        out = defaultdict(Fraction)
        for k, l in shell_states(N):
            for key, cf in _derive_et(k, l).items():
                out[key] += (2 * l + 1) * cf
        for m in range(N + 1):
            out[(m, 0)] -= F((-1) ** (N + m) * math.comb(N + 2, N - m) * 2**m, math.factorial(m))
        assert {key: c for key, c in out.items() if c} == {}

    def test_rejects_negative_quantum_numbers(self):
        for k, l in ((1, -1), (-1, 2)):
            with pytest.raises(ValueError, match="nonnegative"):
                derive_invariant_poly(k, l)


def _abc_integral_exact(poly):
    """Int d^3r d^3q W_00 P(a, b, c) as an exact Fraction, the (a, b, c) oracle.

    W_00 makes xi and eta independent N(0, I/2).  With eta = u xi/|xi| +
    eta_perp, a^i b^j c^h = |xi|^{2(i+h)} u^{2h} (u^2 + |eta_perp|^2)^j, and
    E|xi|^{2n} = (2n+1)!!/2^n, E u^{2n} = (2n-1)!!/2^n, E|eta_perp|^{2n} = n!.
    """
    def moment(n, shift):
        return F(double_factorial(2 * n + shift), 2**n)

    total = F(0)
    for (i, j, h), cf in poly.items():
        eta = sum(math.comb(j, s) * moment(h + s, -1) * math.factorial(j - s) for s in range(j + 1))
        total += cf * moment(i + h, 1) * eta
    return total


def _abc_integral_quadrature(poly):
    """The same integral in float monomials, by 6-node Gauss-Hermite quadrature."""
    tt, w3 = _gh_grid(6)
    a = np.sum(tt * tt, axis=1)[:, None]
    b, c = a.T, (tt @ tt.T) ** 2
    vals = sum(float(cf) * a**i * b**j * c**h for (i, j, h), cf in poly.items())
    return float(w3 @ vals @ w3) / math.pi**3


def _circular_in_cartesian(p, q):
    """{(nx, ny): <nx, ny | p, q>} of the circular state (A+^dag)^p (A-^dag)^q |0> / sqrt(p! q!).

    A+- = (A_x -+ i A_y)/sqrt(2), so A+^dag = (A_x^dag + i A_y^dag)/sqrt(2).
    """
    out = defaultdict(complex)
    norm = math.sqrt(math.factorial(p) * math.factorial(q) * 2 ** (p + q))
    for i in range(p + 1):
        for j in range(q + 1):
            nx, ny = i + j, p + q - i - j
            out[(nx, ny)] += (math.comb(p, i) * math.comb(q, j) * 1j ** (p - i) * (-1j) ** (q - j)
                              * math.sqrt(math.factorial(nx) * math.factorial(ny)) / norm)
    return out


class TestCircularWeights:
    @pytest.mark.parametrize("N", range(17))
    def test_positive_symmetric_banded_mixture(self, N):
        # w_ab = sum_m |<k l m | a, b, N - a - b>|^2 over the circular modes,
        # so n+ - n- = m: nonnegative, symmetric, |a - b| <= l, a + b <= N;
        # the exact normalization and shell identities hold beyond N = 12
        for k, l in shell_states(N):
            w = _circular_weights(k, l)[0]
            assert all(isinstance(c, Fraction) and c > 0 for c in w.values()), (k, l)
            assert all(w.get((b, a)) == c for (a, b), c in w.items()), (k, l)
            assert all(abs(a - b) <= l and a + b <= N for a, b in w), (k, l)
            assert sum(w.values()) == 2 * l + 1, (k, l)
            assert _normalization_exact(k, l) == 1, (k, l)
        assert _shell_trace_residue(N) == {}

    @pytest.mark.parametrize("N", range(9))
    def test_weights_are_circular_populations(self, N):
        # the oracle, from the expansion coefficients instead of the
        # generating function: w_ab = sum_m |<a, b, N - a - b | k l m>|^2 in
        # the cylindrical basis; N <= 8 keeps the coefficient tables under 0.3 s
        triples = degenerate_subspace(N)
        column = {(t.n1, t.n2, t.n3): i for i, t in enumerate(triples)}
        states = [(a, b) for a in range(N + 1) for b in range(N + 1 - a)]
        basis = np.zeros((len(states), len(triples)), dtype=complex)  # <n1 n2 n3 | a, b, n_z>
        for row, (a, b) in enumerate(states):
            for (nx, ny), c in _circular_in_cartesian(a, b).items():
                basis[row, column[(nx, ny, N - a - b)]] = c
        for k, l in shell_states(N):
            got = np.sum(np.abs(_coeff_matrix(k, l)[1] @ basis.conj().T) ** 2, axis=0)
            w = _circular_weights(k, l)[0]
            expected = [float(w.get(ab, 0)) for ab in states]
            assert np.max(np.abs(got - expected)) <= 1e-12, (k, l)

    def test_float_rows_are_rounded_weights(self):
        for k, l in ALL_LEVELS:
            w, rows = _circular_weights(k, l)
            floats = {(a, b): f for a, row in rows for b, f in row}
            sign = (-1) ** (2 * k + l)
            assert floats == {key: float(sign * c / (2 * l + 1)) for key, c in w.items()}

    def test_cached_tables_are_read_only(self):
        # each result is the one its cache holds: an edit would reach every later caller
        audit = dict(derive_invariant_poly(0, 1))
        for table, key in ((_circular_weights(0, 1)[0], (0, 0)), (_derive_et(0, 1), (0, 0)),
                           (derive_invariant_poly(0, 1), (0, 0, 0))):
            with pytest.raises(TypeError):
                table[key] = 7
        with pytest.raises(ValueError, match="read-only"):
            _coeff_matrix(0, 1)[1][0, 0] = 7
        assert _normalization_exact(0, 1) == 1
        assert derive_invariant_poly(0, 1) == audit == REFERENCE_TABULATION[(0, 1)]

    def test_laguerre_recurrence(self):
        u = np.array([0.0, 0.5, 3.0, 17.25])
        for n, values in enumerate(_laguerre_orders(12, 0, u)):
            ref = [sum(F((-1) ** j * math.comb(n, j), math.factorial(j)) * F(x) ** j
                       for j in range(n + 1)) for x in u.tolist()]
            assert np.max(np.abs(values - np.array([float(c) for c in ref]))) <= 1e-13 * n


class TestNormalization:
    def test_pair_integrals(self):
        # the identity behind `_normalization_exact`: the W_00 mean of
        # sym[L_a(u+) L_b(u-)] is 1 for a = b and (-1)^d 2d for d = |a - b| > 0;
        # 9 nodes integrate degree 2(a + b) <= 16 exactly
        tt, w3 = _gh_grid(9)
        a = np.sum(tt * tt, axis=1)
        cross = np.cross(tt[:, None, :], tt[None, :, :])
        t, c = np.sum(cross * cross, axis=-1), (tt @ tt.T) ** 2
        e = a[:, None] + a[None, :]
        up = e + 2.0 * np.sqrt(t)
        um = np.divide((a[:, None] - a[None, :]) ** 2 + 4.0 * c, up,
                       out=np.zeros_like(up), where=up > 0)
        lp, lm = _laguerre_orders(4, 0, up), _laguerre_orders(4, 0, um)
        for i in range(5):
            for j in range(i, 5):
                mean = float(w3 @ (lp[i] * lm[j] + lp[j] * lm[i]) @ w3) / (2 * math.pi**3)
                d = j - i
                assert mean == pytest.approx(1 if d == 0 else (-1) ** d * 2 * d, abs=1e-12), (i, j)

    def test_phase_space_integral_is_one(self):
        # quadrature of the evaluator behind `wigner`, exact up to roundoff for N <= 5
        for N in range(6):
            for k, l in shell_states(N):
                assert _normalization_quadrature(k, l) == pytest.approx(1.0, abs=1e-13), (k, l)

    def test_exact_integral_is_one(self):
        # every level the CLI accepts, by the circular weights and by the (a, b, c) oracle
        for k, l in ALL_LEVELS:
            assert _normalization_exact(k, l) == 1, (k, l)
            assert _abc_integral_exact(derive_invariant_poly(k, l)) == 1, (k, l)

    def test_printed_11_tabulation_is_not_normalized(self):
        printed = REFERENCE_TABULATION[(1, 1)]
        assert _abc_integral_exact(printed) == F(85, 4)
        assert _abc_integral_quadrature(printed) == pytest.approx(85 / 4, abs=1e-8)


class TestPhaseSpaceOverlap:
    """P_kl(r, p) = (2l+1) int W_kl(x, q) prod_i 2 exp(-(x_i - r_i)^2/(4 delta^2)
    - 4 delta^2 (q_i - p_i)^2/hbar^2) d^3x d^3q: the coalescence probability
    is the phase-space overlap of W_kl with the wave-packet kernel of
    `coalescence._quasi_prob_quad`."""

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_p_kl_is_overlap_of_w_kl(self, zeta, rng):
        # W_kl times the kernel is a Gaussian centred at (x0, q0) times a
        # polynomial of degree <= 2N <= 8 in each coordinate, so the shifted
        # tensor Gauss-Hermite rule with 5 nodes per axis (degree 9) is exact
        p = OscParams.from_zeta(1.3, zeta, 0.9)
        nu, hbar, d2 = p.nu, p.hbar, p.delta**2
        r, q = rng.uniform(-1.2, 1.2, (2, 3, 3))
        ax, aq = nu**2 + 1 / (4 * d2), 1 / (hbar * nu) ** 2 + 4 * d2 / hbar**2
        tt, w3 = _gh_grid(5)
        xs = r[:, None, None] / (4 * d2 * ax) + tt[:, None] / math.sqrt(ax)
        qs = 4 * d2 * q[:, None, None] / (hbar**2 * aq) + tt / math.sqrt(aq)
        xs, qs = np.broadcast_arrays(xs, qs)  # (point, x node, q node, axis)
        kernel = 8 * np.exp(-np.sum((xs - r[:, None, None]) ** 2, axis=-1) / (4 * d2)
                            - 4 * d2 * np.sum((qs - q[:, None, None]) ** 2, axis=-1) / hbar**2)
        weight = w3 * np.exp(np.sum(tt * tt, axis=1))  # the rule's weight, divided out
        weight = np.outer(weight, weight) / (ax * aq) ** 1.5
        levels = [lv for N in range(5) for lv in shell_states(N)]
        batch = p_kl_batch(levels, r, q, p)
        for k, l in levels:
            w = wigner_kl_closed(k, l, xs.reshape(-1, 3), qs.reshape(-1, 3), p)
            got = (2 * l + 1) * np.sum(w.reshape(kernel.shape) * kernel * weight, axis=(1, 2))
            # 5.6e-16 at worst here; 4 nodes per axis miss by up to 0.2
            assert np.max(np.abs(got - batch[(k, l)])) <= 1e-15, (k, l)


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

    def test_temporaries_bounded(self, params):
        # 300 x 300 x 5 cells at N = 12, whose values take 3.6 MB: the evaluator
        # works on slabs of SLAB_CELLS cells, the node lines on one theta slice
        ax = np.linspace(0.0, 4.0, 300)
        theta = [0.0, 0.3, 0.7, 1.1, 1.5]
        export_grid(0, 12, ax[:2], ax[:2], theta, params)  # the weights, outside the trace
        tracemalloc.start()
        try:
            grid = export_grid(0, 12, ax, ax, theta, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - grid.values.nbytes
        assert extra < 4e6, f"temporaries {extra / 1e6:.1f} MB"

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
