"""Acceptance suite: the headline correctness gates of the package.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them inline.  The same families of checks are reachable via
`oscoal selftest`.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_rotation
from oscoal import coalescence, expansion, ho1d, wigner3d, yields
from oscoal.expansion import Ame, FeTriple
from oscoal.coalescence import PhasePoint
from oscoal.ho1d import OscParams
from oscoal.selftest import REFERENCE_COEFFICIENTS, all_states_through, run_selftest
from oscoal.wigner3d import CLOSED_FORM_STATES

F = Fraction


def report(n, label, passed, detail=""):
    line = f"ACCEPTANCE {n:2d} {'PASS' if passed else 'FAIL'}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def test_01_low_order_table_exact_reproduction(params):
    t0 = time.time()
    bad = []
    for ((k, l, m), t), expected in REFERENCE_COEFFICIENTS.items():
        got = expansion.coeff(Ame(k, l, m), FeTriple(*t)).signed_squares()
        if got != expected:
            bad.append(((k, l, m), t))
    # spot anchors in plain form
    ok = (
        not bad
        and expansion.coeff(Ame(0, 1, 1), FeTriple(1, 0, 0)).signed_squares() == (F(-1, 2), F(0))
        and expansion.coeff(Ame(1, 0, 0), FeTriple(0, 0, 2)).signed_squares() == (F(-1, 3), F(0))
    )
    elapsed = time.time() - t0
    report(1, "low-order coefficient table reproduced bit-exactly",
           ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_02_coefficient_oracle_equivalence():
    t0 = time.time()
    md = 0.0
    count = 0
    for N in range(6):
        for s in all_states_through(N):
            if s.energy_quantum != N:
                continue
            for t in expansion.degenerate_subspace(N):
                md = max(md, abs(expansion.coeff(s, t).value - expansion.coeff_oracle(s, t)))
                count += 1
    elapsed = time.time() - t0
    report(2, f"closed formula vs quadrature oracle over {count} coefficients (N <= 5)",
           md <= 1e-8 and elapsed < 60.0, f"max dev {md:.2e}, {elapsed:.1f}s")


def test_03_unitarity_orthogonality_exact():
    ok = True
    states = all_states_through(6)
    for s in states:
        ok &= expansion.norm_squared_exact(s) == 1
    by_shell = {}
    for s in states:
        by_shell.setdefault(s.energy_quantum, []).append(s)
    for shell in by_shell.values():
        for i, a in enumerate(shell):
            for b in shell[i + 1:]:
                ok &= expansion.overlap_s_part(a, b) == 0
    report(3, "exact unitarity and orthogonality through N = 6", ok)


def test_04_wigner3d_consistency(params):
    rng = np.random.default_rng(404)
    md_oracle = 0.0
    for k, l in CLOSED_FORM_STATES:
        for _ in range(50):
            pt = PhasePoint(tuple(rng.uniform(-1.2, 1.2, 3)), tuple(rng.uniform(-1.2, 1.2, 3)))
            md_oracle = max(
                md_oracle,
                abs(wigner3d.wigner_kl(k, l, pt, params) - wigner3d.wigner_kl_oracle(k, l, pt, params)),
            )
    # normalization by quadrature of the evaluator behind `wigner`, exact up to roundoff
    md_norm = max(abs(wigner3d._normalization_quadrature(k, l) - 1.0) for k, l in CLOSED_FORM_STATES)
    md_sym = 0.0
    for k, l in CLOSED_FORM_STATES:
        for _ in range(10):
            rv, qv = rng.uniform(-1.2, 1.2, (2, 3))
            a = wigner3d.wigner_kl(k, l, PhasePoint(tuple(rv), tuple(qv)), params)
            rot = random_rotation(rng)
            md_sym = max(
                md_sym,
                abs(a - wigner3d.wigner_kl(k, l, PhasePoint(tuple(rot @ rv), tuple(rot @ qv)), params)),
                abs(a - wigner3d.wigner_kl(k, l, PhasePoint(tuple(qv), tuple(rv)), params)),
            )
    ok = md_oracle <= 1e-8 and md_norm <= 1e-8 and md_sym <= 1e-12
    report(4, "3-D Wigner: transform oracle, normalization, symmetries", ok,
           f"oracle {md_oracle:.2e}, norm {md_norm:.2e}, sym {md_sym:.2e}")


def test_05_closed_forms_and_typo_flags(params):
    rng = np.random.default_rng(505)
    md = 0.0
    for k, l in CLOSED_FORM_STATES:
        for _ in range(25):
            pt = PhasePoint(tuple(rng.uniform(-1.5, 1.5, 3)), tuple(rng.uniform(-1.5, 1.5, 3)))
            md = max(
                md,
                abs(
                    wigner3d.wigner_kl(k, l, pt, params)
                    - wigner3d.wigner_kl_closed(k, l, pt.r_vec, pt.p_vec, params)
                ),
            )
    # every selftest group passes, and the two documented deviations from
    # the printed tabulation are flagged by its audit group
    all_passed, results = run_selftest(echo=None)
    audit = next(r for r in results if "audit" in r.name)
    flagged = (
        audit.passed
        and any("(0,3)" in note for note in audit.notes)
        and any("(1,1)" in note for note in audit.notes)
    )
    ok = md <= 1e-12 and flagged and all_passed
    report(5, "closed forms match factorized sum; printed-form deviations flagged",
           ok, f"max dev {md:.2e}")


def test_06_poisson_sum_rule(params):
    rng = np.random.default_rng(606)
    md = 0.0
    for _ in range(100):
        r = rng.uniform(0, 1.8)
        p = rng.uniform(0, 1.8)
        th = rng.uniform(0, math.pi)
        rel = coalescence.PhasePoint.from_invariants(r, p, th)
        v, _ = coalescence.v_and_t(rel.r_vec, rel.p_vec, params)
        for N in range(5):
            md = max(
                md,
                abs(coalescence.poisson_sum(N, rel, params) - math.exp(-v) * v**N / math.factorial(N)),
            )
    # t-dependence cancels within each shell: vary theta at fixed magnitudes
    md_t = 0.0
    for N in (2, 3, 4):
        vals = [
            coalescence.poisson_sum(N, coalescence.PhasePoint.from_invariants(1.1, 0.9, th), params)
            for th in np.linspace(0, math.pi / 2, 7)
        ]
        md_t = max(md_t, max(vals) - min(vals))
    ok = md <= 1e-10 and md_t <= 1e-14
    report(6, "Poisson sum rule over shells N <= 4 at 100 random points",
           ok, f"max dev {md:.2e}, t-residual {md_t:.2e}")


def test_07_theta_dependence_of_n3_shell(params):
    thetas = np.linspace(0, math.pi / 2, 61)
    p03 = [coalescence.p_kl(0, 3, coalescence.PhasePoint.from_invariants(1, 1, th), params)
           for th in thetas]
    p11 = [coalescence.p_kl(1, 1, coalescence.PhasePoint.from_invariants(1, 1, th), params)
           for th in thetas]
    mono = all(b >= a - 1e-14 for a, b in zip(p03, p03[1:])) and all(
        b <= a + 1e-14 for a, b in zip(p11, p11[1:])
    )
    crossing = p03[0] < p11[0] and p03[-1] > p11[-1]
    endpoint = max(abs(a + b - math.exp(-1) / 6) for a, b in zip(p03, p11))
    ok = mono and crossing and endpoint <= 1e-10
    report(7, "N = 3 angular trend: monotone split, shell weight e^-1/6",
           ok, f"endpoint dev {endpoint:.2e}")


def test_08_zeta_inversion_symmetry():
    nu, hbar = 1.0, 1.0
    rng = np.random.default_rng(808)
    md = 0.0
    for z in (0.25, 0.5, 2.0, 4.0):
        pa = OscParams.from_zeta(nu, z, hbar)
        pb = OscParams.from_zeta(nu, 1.0 / z, hbar)
        for n in range(4):
            for _ in range(10):
                r0, p0 = rng.uniform(-1.5, 1.5, 2)
                swapped = ho1d.quasi_prob(n, n, p0 / (nu * nu * hbar), r0 * nu * nu * hbar, pb)
                md = max(md, abs(ho1d.quasi_prob(n, n, r0, p0, pa) - swapped))
    # the 0.2-level regions at zeta = 4 and 1/4 mirror under axis swap
    rho = np.linspace(0, 5, 121)
    R, P = np.meshgrid(rho / nu, rho * nu * hbar, indexing="ij")
    md_grid = 0.0
    contours = {}
    for z in (4.0, 0.25):
        pz = OscParams.from_zeta(nu, z, hbar)
        vals = ho1d.quasi_prob_table(R, P, pz, 2)
        for n in (0, 1, 2):
            contours[(z, n)] = wigner3d.level_crossings(rho, rho, vals[n, n].real, 0.2)
        md_grid = max(md_grid, float(np.max(np.abs(vals[2, 2].real - ho1d.quasi_prob_table(
            R, P, OscParams.from_zeta(nu, 1 / z, hbar), 2)[2, 2].real.T))))
    mirror_ok = True
    for n in (0, 1, 2):
        a = set(map(tuple, np.round(contours[(4.0, n)], 9)))
        b = set(map(tuple, np.round(contours[(0.25, n)][:, ::-1], 9)))
        mirror_ok &= a == b
    ok = md <= 1e-12 and md_grid <= 1e-12 and mirror_ok
    report(8, "zeta <-> 1/zeta exchange identity and mirrored 0.2-level contours",
           ok, f"identity {md:.2e}, grids {md_grid:.2e}")


def test_09_phase_space_sum_rule():
    t, w = np.polynomial.hermite.hermgauss(40)
    md = 0.0
    for z in (0.5, 1.0, 2.0):
        params = OscParams.from_zeta(1.0, z, hbar=1.0)
        s = math.sqrt(1 + z * z)
        R, P = np.meshgrid(t * s, t * s / z, indexing="ij")
        e = np.exp(np.add.outer(t**2, t**2))
        for n in range(4):
            tab = ho1d.quasi_prob_table(R, P, params, n)[n, n].real
            total = float(np.sum(np.outer(w, w) * e * tab)) * s * (s / z)
            md = max(md, abs(total - 2 * math.pi * params.hbar))
    report(9, "phase-space sum rule Int P_nn dr dp = 2 pi hbar (zeta 1/2, 1, 2)",
           md <= 1e-8, f"max dev {md:.2e}")


def test_10_yields(params):
    chans = yields.channel_table()
    u = [yields.ParticleRecord("u", (0, 0, 0), (0, 0, 0))]
    d = [yields.ParticleRecord("dbar", (0, 0, 0), (0, 0, 0))]
    rep = yields.pair_yields(u, d, chans, params, yields.MCConfig(seed=0))
    sane = abs(rep.channels["pi+"].value - 1 / 36) <= 1e-15 and all(
        abs(rep.channels[n].value) <= 1e-15
        for n in ("b1+", "a0+", "a1+", "a2+", "pi(1300)+", "rho(1450)+")
    )
    rng = np.random.default_rng(1010)
    us = [yields.ParticleRecord("u", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)))
          for _ in range(100)]
    ds = [yields.ParticleRecord("dbar", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)))
          for _ in range(100)]
    t0 = time.time()
    r1 = yields.pair_yields(us, ds, chans, params, yields.MCConfig(seed=77))
    elapsed = time.time() - t0
    r2 = yields.pair_yields(us, ds, chans, params, yields.MCConfig(seed=77))
    ratio = (
        r1.channels["rho+"].value == 3 * r1.channels["pi+"].value
        and r1.channels["rho(1450)+"].value == 3 * r1.channels["pi(1300)+"].value
    )
    deterministic = json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
    ok = sane and ratio and deterministic and r1.mc["pairs"] == 10000 and elapsed < 10.0
    report(10, "yields: single-pair sanity, exact 1:3 ratios, determinism",
           ok, f"10^4 pairs in {elapsed:.2f}s")
