import math
from fractions import Fraction

import pytest

from oscoal.expansion import (
    Ame,
    FeTriple,
    bilinear_table,
    coeff,
    coeff_k0,
    coeff_oracle,
    d_coeff,
    d_coeff_reduced,
    degenerate_subspace,
    norm_squared_exact,
    overlap_s_part,
    _binomial_alternating_sum,
)
from oscoal.selftest import REFERENCE_COEFFICIENTS, all_states_through
from oscoal.specfun import gauss_2f1_neg1

F = Fraction


class TestTypes:
    def test_ame_validation(self):
        with pytest.raises(ValueError):
            Ame(0, 1, 2)
        with pytest.raises(ValueError):
            Ame(-1, 0, 0)
        assert Ame(2, 3, -3).energy_quantum == 7

    def test_triple_validation(self):
        with pytest.raises(ValueError):
            FeTriple(0, -1, 0)
        assert FeTriple(1, 2, 3).energy_quantum == 6

    def test_exact_coeff_representation(self):
        c = coeff(Ame(0, 1, 1), FeTriple(1, 0, 0))
        assert c.exact_str() == "+1*sqrt(1/2)*(-1 + 0 i)"
        assert c.abs2() == F(1, 2)
        assert c.value == pytest.approx(-1 / math.sqrt(2))
        z = coeff(Ame(0, 1, 0), FeTriple(1, 0, 0))
        assert z.is_zero and z.exact_str() == "0" and z.value == 0

    @pytest.mark.parametrize("state, triple, text, value", [
        # one case per phase i^n2 and per sign (-1)^k; the zero part keeps
        # the sign of sign * sqrt(R) * 0.0, which the `coeff` files print
        ((0, 1, 1), (0, 1, 0), "+1*sqrt(1/2)*(0 + 1 i)", (0.0, math.sqrt(1 / 2))),
        ((0, 2, 2), (0, 2, 0), "+1*sqrt(1/1)*(-1/2 + 0 i)", (-0.5, 0.0)),
        ((0, 3, 3), (0, 3, 0), "+1*sqrt(9/2)*(0 + -1/6 i)", (0.0, -math.sqrt(9 / 2) / 6)),
        ((1, 0, 0), (2, 0, 0), "-1*sqrt(1/3)*(1 + 0 i)", (-math.sqrt(1 / 3), -0.0)),
        ((1, 1, 1), (0, 3, 0), "-1*sqrt(3/10)*(0 + 1 i)", (-0.0, -math.sqrt(3 / 10))),
    ])
    def test_exact_coeff_every_phase(self, state, triple, text, value):
        c = coeff(Ame(*state), FeTriple(*triple))
        assert c.exact_str() == text
        for got, want in zip((c.value.real, c.value.imag), value):
            assert got == pytest.approx(want, rel=1e-15)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestDegenerateSubspace:
    def test_shell_zero(self):
        assert degenerate_subspace(0) == [FeTriple(0, 0, 0)]

    def test_shell_dimensions(self):
        assert len(degenerate_subspace(2)) == 6
        assert len(degenerate_subspace(5)) == 21
        for N in range(9):
            assert len(degenerate_subspace(N)) == (N + 1) * (N + 2) // 2

    def test_lexicographic_and_deterministic(self):
        ts = degenerate_subspace(3)
        assert ts == sorted(ts, key=lambda t: (t.n1, t.n2, t.n3))
        assert ts == degenerate_subspace(3)


class TestLowOrderTable:
    def test_reference_coefficients_bit_exact(self):
        for ((k, l, m), t), expected in REFERENCE_COEFFICIENTS.items():
            got = coeff(Ame(k, l, m), FeTriple(*t)).signed_squares()
            assert got == expected, f"state ({k},{l},{m}) triple {t}"

    def test_anchor_values(self):
        assert coeff(Ame(0, 0, 0), FeTriple(0, 0, 0)).value == 1
        assert coeff(Ame(0, 1, 1), FeTriple(1, 0, 0)).value == pytest.approx(-1 / math.sqrt(2))
        assert coeff(Ame(1, 0, 0), FeTriple(0, 0, 2)).value == pytest.approx(-1 / math.sqrt(3))
        assert coeff(Ame(0, 2, 0), FeTriple(0, 0, 2)).value == pytest.approx(math.sqrt(2 / 3))
        assert coeff(Ame(0, 1, 0), FeTriple(1, 0, 0)).is_zero


class TestSelectionRules:
    def test_constraint_completeness(self):
        # zero exactly iff the energy or parity rule fails, enumerated to N = 6
        for state in all_states_through(6):
            N = state.energy_quantum
            for Nt in range(7):
                for t in degenerate_subspace(Nt):
                    c = coeff(state, t)
                    if Nt != N or (state.l + state.m - t.n3) % 2 != 0:
                        assert c.is_zero, (state, t)

    def test_unitarity_exact(self):
        for state in all_states_through(6):
            assert norm_squared_exact(state) == 1

    def test_abs_squared_is_rational(self):
        for state in all_states_through(4):
            for t in degenerate_subspace(state.energy_quantum):
                c = coeff(state, t)
                sq = c.abs2()
                assert isinstance(sq, Fraction)
                assert float(sq) == pytest.approx(abs(c.value) ** 2, abs=1e-15)

    def test_orthogonality_exact(self):
        states = all_states_through(6)
        by_shell = {}
        for s in states:
            by_shell.setdefault(s.energy_quantum, []).append(s)
        for shell in by_shell.values():
            for i, a in enumerate(shell):
                for b in shell[i + 1 :]:
                    assert overlap_s_part(a, b) == 0, (a, b)

    def test_high_shell_spot_checks(self):
        # the CLI exposes shells up to 2k + l = 12; sample exactness there
        for k, l, m in ((0, 8, 3), (2, 4, -4), (4, 0, 0), (0, 10, -7), (5, 0, 0)):
            assert norm_squared_exact(Ame(k, l, m)) == 1
        for a, b in (((0, 8, 2), (1, 6, 2)), ((2, 4, 0), (4, 0, 0)), ((3, 2, 1), (2, 4, 1))):
            assert overlap_s_part(Ame(*a), Ame(*b)) == 0
        # every level of the shells 6-8 at m = 0 and m = l, every triple
        oracle_states = {(0, 7, 2), (3, 1, 0), (0, 8, -8)}
        oracle_states |= {(k, N - 2 * k, m) for N in (6, 7, 8) for k in range(N // 2 + 1)
                          for m in (0, N - 2 * k)}
        for k, l, m in sorted(oracle_states):
            s = Ame(k, l, m)
            for t in degenerate_subspace(s.energy_quantum):
                assert abs(coeff(s, t).value - coeff_oracle(s, t)) < 1e-8, (s, t)


class TestK0ClosedForm:
    def test_anchor_values(self):
        assert coeff_k0(1, -1, FeTriple(0, 1, 0)).value == pytest.approx(1j / math.sqrt(2))
        assert coeff_k0(2, 2, FeTriple(1, 1, 0)).value == pytest.approx(-1j / math.sqrt(2))

    def test_matches_general_formula_exactly(self):
        for l in range(7):
            for m in range(-l, l + 1):
                for t in degenerate_subspace(l):
                    assert coeff_k0(l, m, t).signed_squares() == coeff(
                        Ame(0, l, m), t
                    ).signed_squares()

    def test_l3_example(self):
        got = coeff_k0(3, 1, FeTriple(2, 1, 0))
        ref = coeff(Ame(0, 3, 1), FeTriple(2, 1, 0))
        assert got.signed_squares() == ref.signed_squares()

    def test_wrong_shell_returns_zero(self):
        assert coeff_k0(2, 0, FeTriple(1, 0, 0)).is_zero


class TestHypergeometricRoute:
    def test_binomial_sum_equals_2f1_when_pole_free(self):
        # the inner coefficient sum is C(b, K) 2F1(-K, -a; b - K + 1; -1)
        for a in range(5):
            for b in range(5):
                for kk in range(b):  # b - kk + 1 >= 1 keeps parameters pole-free
                    direct = _binomial_alternating_sum(a, b, kk)
                    hyp = math.comb(b, kk) * gauss_2f1_neg1(-kk, -a, b - kk + 1)
                    assert direct == hyp

    def test_pole_limit_case_handled(self):
        # the (0,1,1)/(1,0,0) entry needs kk > b, where the 2F1 form is 0 * pole
        assert _binomial_alternating_sum(1, 0, 1) == -1


class TestOracle:
    def test_normalization(self):
        assert coeff_oracle(Ame(0, 0, 0), FeTriple(0, 0, 0)) == pytest.approx(1.0, abs=1e-10)

    def test_table_anchor(self):
        got = coeff_oracle(Ame(0, 1, 1), FeTriple(1, 0, 0))
        assert got == pytest.approx(-1 / math.sqrt(2), abs=1e-10)

    def test_agreement_with_closed_formula_shell4(self):
        state = Ame(1, 2, 0)
        for t in degenerate_subspace(4):
            dev = abs(coeff(state, t).value - coeff_oracle(state, t))
            assert dev < 1e-10

    def test_agreement_through_shell3(self):
        for state in all_states_through(3):
            for t in degenerate_subspace(state.energy_quantum):
                dev = abs(coeff(state, t).value - coeff_oracle(state, t))
                assert dev < 1e-10, (state, t, dev)

    def test_cost_guard(self):
        with pytest.raises(ValueError):
            coeff_oracle(Ame(0, 9, 0), FeTriple(9, 0, 0))


class TestDCoeff:
    def test_single_term_subspace(self):
        assert d_coeff(0, 0, FeTriple(0, 0, 0), FeTriple(0, 0, 0)) == 1

    def test_diagonal_l1(self):
        got = d_coeff(0, 1, FeTriple(0, 0, 1), FeTriple(0, 0, 1))
        assert got == pytest.approx(1 / 3, rel=1e-15)

    def test_off_diagonal_hand_sum(self):
        # sum over m = +/-1 of conj(C_{m,(0,1,0)}) C_{m,(1,0,0)} cancels
        got = d_coeff(0, 1, FeTriple(1, 0, 0), FeTriple(0, 1, 0))
        assert got == pytest.approx(0.0, abs=1e-16)

    def test_hermitian_symmetry_and_trace(self):
        for k, l in ((0, 1), (0, 2), (1, 0), (1, 1)):
            triples = degenerate_subspace(2 * k + l)
            trace = 0.0
            for a in triples:
                trace += d_coeff(k, l, a, a).real
                for b in triples:
                    lhs = d_coeff(k, l, a, b)
                    rhs = d_coeff(k, l, b, a).conjugate()
                    assert lhs == pytest.approx(rhs, abs=1e-15)
            assert trace == pytest.approx(1.0, rel=1e-12)

    def test_shell_mismatch_is_zero(self):
        assert d_coeff(0, 1, FeTriple(0, 0, 1), FeTriple(0, 0, 2)) == 0

    def test_reduced_matches_float(self, rng):
        for k, l in ((0, 2), (1, 1)):
            triples = degenerate_subspace(2 * k + l)
            for _ in range(8):
                a = triples[rng.integers(len(triples))]
                b = triples[rng.integers(len(triples))]
                red = d_coeff_reduced(k, l, a, b)
                assert isinstance(red, Fraction)
                q = math.prod(math.factorial(n) for n in (*a, *b))
                phase = 1j ** ((a.n2 - b.n2) % 4)
                assert phase * float(red) * math.sqrt(q) == pytest.approx(
                    d_coeff(k, l, a, b), abs=1e-14
                )

    def test_reduced_trace_is_one_exactly(self):
        # sum_t D(k, l; t, t) = (1/(2l+1)) sum_m sum_t |C_{klm, t}|^2 = 1
        for N in range(8):
            triples = degenerate_subspace(N)
            for k in range(N // 2 + 1):
                trace = 0
                for t in triples:
                    q = math.factorial(t.n1) * math.factorial(t.n2) * math.factorial(t.n3)
                    trace += d_coeff_reduced(k, N - 2 * k, t, t) * q
                assert trace == 1, (k, N - 2 * k)

    def test_bilinear_table_consistency(self):
        triples, tab = bilinear_table(0, 1)
        for i, a in enumerate(triples):
            for j, b in enumerate(triples):
                assert tab[i, j] / 3 == pytest.approx(d_coeff(0, 1, b, a), abs=1e-15)


class TestMemoization:
    def test_cached_instances_are_reused(self):
        a = coeff(Ame(0, 2, 1), FeTriple(1, 0, 1))
        b = coeff(Ame(0, 2, 1), FeTriple(1, 0, 1))
        assert a is b
