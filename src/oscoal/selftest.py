"""Invariant self-test suite: one pass/fail line per check group.

Each group exercises one family of identities (exact coefficient algebra,
dual-route oracles, symmetries, sum rules) and reports its worst deviation
against the tolerance it asserts.  `run_selftest` returns machine-readable
results; the CLI `selftest` subcommand prints them and sets the exit code.

The closed-form audit group also reports, as informational flags, the two
places where the re-derived (0,3) and (1,1) distributions deviate from their
commonly tabulated printed forms; those deviations are expected and the group
fails if they ever change.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import coalescence, expansion, ho1d, wigner3d, yields
from .coalescence import PhasePoint
from .expansion import Ame, FeTriple
from .ho1d import OscParams, Phase1D
from .specfun import _gh_grid, gauss_2f1_neg1, spherical_harmonic

__all__ = ["CheckResult", "run_selftest", "all_states_through", "REFERENCE_COEFFICIENTS"]

F = Fraction

# Low-order coefficients as (k, l, m), (n1, n2, n3) -> signed squares of the
# real and imaginary parts.  Independently fixed by quadrature of the
# defining overlap integrals; every N <= 2 coefficient is listed.
REFERENCE_COEFFICIENTS = {
    ((0, 0, 0), (0, 0, 0)): (F(1), F(0)),
    # N = 1
    ((0, 1, 1), (1, 0, 0)): (F(-1, 2), F(0)),
    ((0, 1, 1), (0, 1, 0)): (F(0), F(1, 2)),
    ((0, 1, 1), (0, 0, 1)): (F(0), F(0)),
    ((0, 1, 0), (1, 0, 0)): (F(0), F(0)),
    ((0, 1, 0), (0, 1, 0)): (F(0), F(0)),
    ((0, 1, 0), (0, 0, 1)): (F(1), F(0)),
    ((0, 1, -1), (1, 0, 0)): (F(1, 2), F(0)),
    ((0, 1, -1), (0, 1, 0)): (F(0), F(1, 2)),
    ((0, 1, -1), (0, 0, 1)): (F(0), F(0)),
    # N = 2, l = 2
    ((0, 2, 2), (2, 0, 0)): (F(1, 4), F(0)),
    ((0, 2, 2), (1, 1, 0)): (F(0), F(-1, 2)),
    ((0, 2, 2), (0, 2, 0)): (F(-1, 4), F(0)),
    ((0, 2, 2), (0, 1, 1)): (F(0), F(0)),
    ((0, 2, 2), (0, 0, 2)): (F(0), F(0)),
    ((0, 2, 2), (1, 0, 1)): (F(0), F(0)),
    ((0, 2, 1), (2, 0, 0)): (F(0), F(0)),
    ((0, 2, 1), (1, 1, 0)): (F(0), F(0)),
    ((0, 2, 1), (0, 2, 0)): (F(0), F(0)),
    ((0, 2, 1), (0, 1, 1)): (F(0), F(1, 2)),
    ((0, 2, 1), (0, 0, 2)): (F(0), F(0)),
    ((0, 2, 1), (1, 0, 1)): (F(-1, 2), F(0)),
    ((0, 2, 0), (2, 0, 0)): (F(-1, 6), F(0)),
    ((0, 2, 0), (1, 1, 0)): (F(0), F(0)),
    ((0, 2, 0), (0, 2, 0)): (F(-1, 6), F(0)),
    ((0, 2, 0), (0, 1, 1)): (F(0), F(0)),
    ((0, 2, 0), (0, 0, 2)): (F(2, 3), F(0)),
    ((0, 2, 0), (1, 0, 1)): (F(0), F(0)),
    ((0, 2, -1), (2, 0, 0)): (F(0), F(0)),
    ((0, 2, -1), (1, 1, 0)): (F(0), F(0)),
    ((0, 2, -1), (0, 2, 0)): (F(0), F(0)),
    ((0, 2, -1), (0, 1, 1)): (F(0), F(1, 2)),
    ((0, 2, -1), (0, 0, 2)): (F(0), F(0)),
    ((0, 2, -1), (1, 0, 1)): (F(1, 2), F(0)),
    ((0, 2, -2), (2, 0, 0)): (F(1, 4), F(0)),
    ((0, 2, -2), (1, 1, 0)): (F(0), F(1, 2)),
    ((0, 2, -2), (0, 2, 0)): (F(-1, 4), F(0)),
    ((0, 2, -2), (0, 1, 1)): (F(0), F(0)),
    ((0, 2, -2), (0, 0, 2)): (F(0), F(0)),
    ((0, 2, -2), (1, 0, 1)): (F(0), F(0)),
    # N = 2, k = 1
    ((1, 0, 0), (2, 0, 0)): (F(-1, 3), F(0)),
    ((1, 0, 0), (1, 1, 0)): (F(0), F(0)),
    ((1, 0, 0), (0, 2, 0)): (F(-1, 3), F(0)),
    ((1, 0, 0), (0, 1, 1)): (F(0), F(0)),
    ((1, 0, 0), (0, 0, 2)): (F(-1, 3), F(0)),
    ((1, 0, 0), (1, 0, 1)): (F(0), F(0)),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    tol: float
    notes: list = field(default_factory=list)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name}: max dev {self.max_dev:.3e} (tol {self.tol:.1e})"
        for note in self.notes:
            out += f"\n     flag: {note}"
        return out


def all_states_through(nmax):
    """All (k, l, m) with 2k + l <= nmax."""
    out = []
    for N in range(nmax + 1):
        for k in range(N // 2 + 1):
            l = N - 2 * k
            for m in range(-l, l + 1):
                out.append(Ame(k, l, m))
    return out


def _check_low_order_coefficients():
    bad = 0
    for ((k, l, m), t), expected in REFERENCE_COEFFICIENTS.items():
        got = expansion.coeff(Ame(k, l, m), FeTriple(*t)).signed_squares()
        if got != expected:
            bad += 1
    return CheckResult("low-order coefficient table (exact)", bad == 0, float(bad), 0.0)


def _check_unitarity_orthogonality():
    bad = 0
    states = all_states_through(6)
    for s in states:
        if expansion.norm_squared_exact(s) != 1:
            bad += 1
    by_shell = {}
    for s in states:
        by_shell.setdefault(s.energy_quantum, []).append(s)
    for shell in by_shell.values():
        for i, a in enumerate(shell):
            for b in shell[i + 1 :]:
                if expansion.overlap_s_part(a, b) != 0:
                    bad += 1
    return CheckResult("coefficient unitarity and orthogonality (exact, N <= 6)",
                       bad == 0, float(bad), 0.0)


def _check_coeff_oracle():
    md = 0.0
    for N in range(6):
        for s in all_states_through(N):
            if s.energy_quantum != N:
                continue
            for t in expansion.degenerate_subspace(N):
                md = max(md, abs(expansion.coeff(s, t).value - expansion.coeff_oracle(s, t)))
    return CheckResult("coefficients vs quadrature oracle (N <= 5)", md <= 1e-8, md, 1e-8)


def _check_k0_closed_form():
    bad = 0
    for l in range(7):
        for m in range(-l, l + 1):
            for t in expansion.degenerate_subspace(l):
                a = expansion.coeff_k0(l, m, t).signed_squares()
                b = expansion.coeff(Ame(0, l, m), t).signed_squares()
                if a != b:
                    bad += 1
    return CheckResult("k = 0 closed form vs general formula (exact)", bad == 0, float(bad), 0.0)


def _hermite_explicit(n, u):
    total = 0.0
    for m in range(n // 2 + 1):
        total += (
            (-1) ** m
            / (math.factorial(m) * math.factorial(n - 2 * m))
            * (2 * u) ** (n - 2 * m)
        )
    return math.factorial(n) * total


def _laguerre_coeffs(n, two_alpha):
    """Float values of the exact coefficients C(n + alpha, n - i), i = 0..n."""
    coeffs = []
    for i in range(n + 1):
        c = F(1)
        for j in range(n - i):
            c *= F(two_alpha, 2) + i + 1 + j
        c /= math.factorial(n - i)
        coeffs.append(float(c))
    return coeffs


def _laguerre_explicit(coeffs, u):
    total = 0.0
    for i, c in enumerate(coeffs):
        total += c * (-u) ** i / math.factorial(i)
    return total


def _check_special_functions():
    from .specfun import assoc_laguerre, hermite

    rng = np.random.default_rng(314)
    md = 0.0
    for n in range(11):
        coeffs = {two_alpha: _laguerre_coeffs(n, two_alpha) for two_alpha in (-1, 0, 1, 2, 3)}
        for u in rng.uniform(-3, 3, 100):
            he = _hermite_explicit(n, u)
            md = max(md, abs(hermite(n, u) - he) / max(1.0, abs(he)))
            for two_alpha in (-1, 0, 1, 2, 3):
                le = _laguerre_explicit(coeffs[two_alpha], abs(u))
                md = max(
                    md,
                    abs(assoc_laguerre(n, two_alpha / 2.0, abs(u)) - le) / max(1.0, abs(le)),
                )
    ok = md <= 1e-12
    if gauss_2f1_neg1(-1, -1, 2) != F(1, 2) or gauss_2f1_neg1(-2, -2, 1) != F(-2):
        ok = False
    return CheckResult("special-function recurrences vs explicit polynomials", ok, md, 1e-12)


def _check_spherical_harmonics():
    from numpy.polynomial.legendre import leggauss

    x, wx = leggauss(24)
    theta = np.arccos(x)
    nphi = 32
    phi = 2 * math.pi * np.arange(nphi) / nphi
    th_g, ph_g = np.meshgrid(theta, phi, indexing="ij")
    md = 0.0
    for l in range(5):
        for m in range(-l, l + 1):
            y = spherical_harmonic(l, m, th_g, ph_g)
            norm = np.sum(wx[:, None] * np.abs(y) ** 2) * (2 * math.pi / nphi)
            md = max(md, abs(norm - 1.0))
            y_conj = np.conj(y)
            y_neg = spherical_harmonic(l, -m, th_g, ph_g)
            md = max(md, float(np.max(np.abs(y_conj - (-1.0) ** m * y_neg))))
    return CheckResult("spherical harmonic orthonormality and conjugation", md <= 1e-10, md, 1e-10)


def _check_wigner1d():
    params = OscParams(nu=1.2, delta=0.4, hbar=0.9)

    def pair(npr, n):
        return lambda a, b: ho1d.phi_n(npr, a[:, 0], params) * ho1d.phi_n(n, b[:, 0], params)

    md = 0.0
    for npr, n, x, q in ((0, 0, 0.0, 0.0), (2, 1, 0.4, -0.8), (1, 3, -0.6, 0.5), (2, 2, 0.9, 0.3)):
        transform = wigner3d._transform_oracle(pair(npr, n), (x,), (q,), params, nodes=40)
        md = max(md, abs(ho1d.wigner_1d(npr, n, Phase1D(x, q), params) - transform))

    # normalization of the diagonals by Gauss-Hermite in xi = nu x, eta = q/(hbar nu)
    tt, w2 = _gh_grid(24, 2)
    for n in range(5):
        vals = [
            ho1d.wigner_1d(n, n, Phase1D(xi / params.nu, eta * params.hbar * params.nu),
                           params).real * math.exp(xi**2 + eta**2)
            for xi, eta in tt
        ]
        md = max(md, abs(float(w2 @ vals) * params.hbar - 1.0))
    return CheckResult("1-D Wigner closed form vs transform; normalization", md <= 1e-10, md, 1e-10)


def _check_quasi_probabilities():
    rng = np.random.default_rng(2718)
    md = 0.0
    # recurrence vs closed form at zeta = 1
    params1 = OscParams(nu=1.0, delta=0.5)
    for npr in range(5):
        for n in range(5):
            for _ in range(4):
                r0, p0 = rng.uniform(-1.5, 1.5, 2)
                a = ho1d.quasi_prob(npr, n, r0, p0, params1)
                b = ho1d.quasi_prob_zeta1(npr, n, r0, p0, params1)
                md = max(md, abs(a - b))
    # Hermiticity and zeta inversion
    for z in (0.25, 0.5, 2.0, 4.0):
        pz = OscParams.from_zeta(1.1, z, hbar=0.8)
        pz_inv = OscParams.from_zeta(1.1, 1.0 / z, hbar=0.8)
        for n in range(4):
            for _ in range(4):
                r0, p0 = rng.uniform(-1.5, 1.5, 2)
                md = max(
                    md,
                    abs(
                        ho1d.quasi_prob(n + 1, n, r0, p0, pz)
                        - ho1d.quasi_prob(n, n + 1, r0, p0, pz).conjugate()
                    ),
                )
                rho, pit = 1.1 * r0, p0 / (1.1 * 0.8)
                swapped = ho1d.quasi_prob(n, n, pit / 1.1, rho * 1.1 * 0.8, pz_inv)
                md = max(md, abs(ho1d.quasi_prob(n, n, r0, p0, pz) - swapped))
    ok = md <= 1e-12
    # phase-space sum rule, quadrature
    md_sum = 0.0
    tt, w2 = _gh_grid(40, 2)
    e = np.exp(np.sum(tt * tt, axis=1))
    for z in (0.5, 1.0, 2.0):
        pz = OscParams.from_zeta(1.0, z, hbar=1.0)
        s = math.sqrt(1 + z * z)
        for n in range(4):
            tab = ho1d.quasi_prob_table(tt[:, 0] * s, tt[:, 1] * s / z, pz, n)[n, n].real
            total = float(w2 @ (e * tab)) * s * (s / z)
            md_sum = max(md_sum, abs(total - 2 * math.pi))
    return CheckResult(
        "quasi-probabilities: closed form, symmetry, sum rule",
        ok and md_sum <= 1e-8,
        max(md, md_sum),
        1e-8,
    )


def _check_closed_form_audit():
    # fresh derivations against the printed tabulation: the deviations are
    # exactly the two known misprints, so any change to a derived N <= 3
    # coefficient changes the pattern and fails the group
    notes = []
    ok = True
    diffs = {}
    for (k, l), ref in wigner3d.REFERENCE_TABULATION.items():
        d = wigner3d.derive_invariant_poly(k, l)
        delta = {key: (d.get(key, F(0)), ref.get(key, F(0)))
                 for key in set(d) | set(ref) if d.get(key, F(0)) != ref.get(key, F(0))}
        if delta:
            diffs[(k, l)] = delta
    expected_diffs = {
        (1, 1): {
            (0, 2, 0): (F(-22, 15), F(-4, 15)),
            (0, 3, 0): (F(4, 15), F(22, 15)),
        }
    }
    if diffs != expected_diffs:
        ok = False
        notes.append(f"unexpected deviation pattern vs reference tabulation: {diffs}")
    else:
        notes.extend(wigner3d.REFERENCE_TABULATION_NOTES)
    return CheckResult("3-D closed forms re-derived (audit vs printed tabulation)",
                       ok, 0.0 if ok else 1.0, 0.0, notes)


def _check_wigner3d_consistency():
    params = OscParams(nu=1.0, delta=0.5)
    rng = np.random.default_rng(99)
    md_closed = 0.0
    md_sym = 0.0
    for k, l in wigner3d.CLOSED_FORM_STATES:
        for _ in range(6):
            rv = rng.uniform(-1.3, 1.3, 3)
            qv = rng.uniform(-1.3, 1.3, 3)
            pt = PhasePoint(tuple(rv), tuple(qv))
            a = wigner3d.wigner_kl(k, l, pt, params)
            b = wigner3d.wigner_kl_closed(k, l, pt.r_vec, pt.p_vec, params)
            md_closed = max(md_closed, abs(a - b))
            # nu r <-> q/(hbar nu) mirror and rotation invariance
            mirror = PhasePoint(tuple(qv), tuple(rv))
            md_sym = max(md_sym, abs(a - wigner3d.wigner_kl(k, l, mirror, params)))
            mat = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(mat) < 0:
                mat[:, 0] = -mat[:, 0]
            rot = PhasePoint(tuple(mat @ rv), tuple(mat @ qv))
            md_sym = max(md_sym, abs(a - wigner3d.wigner_kl(k, l, rot, params)))
    ok = md_closed <= 1e-12 and md_sym <= 1e-12
    return CheckResult("3-D Wigner factorized vs closed; symmetries",
                       ok, max(md_closed, md_sym), 1e-12)


def _check_wigner3d_oracle():
    params = OscParams(nu=1.0, delta=0.5)
    rng = np.random.default_rng(123)
    md = 0.0
    for k, l in wigner3d.CLOSED_FORM_STATES:
        for _ in range(3):
            pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
            md = max(md, abs(wigner3d.wigner_kl(k, l, pt, params)
                             - wigner3d.wigner_kl_oracle(k, l, pt, params)))
    # normalization: the exact circular-weight identity for every level the
    # CLI accepts (N <= 12), the float quadrature of the evaluator for N <= 3
    exact_ok = all(wigner3d._normalization_exact(k, l) == 1
                   for N in range(13) for k, l in coalescence.shell_states(N))
    md_norm = max(abs(wigner3d._normalization_quadrature(k, l) - 1.0)
                  for k, l in wigner3d.CLOSED_FORM_STATES)
    ok = exact_ok and md <= 1e-8 and md_norm <= 1e-8
    return CheckResult("3-D Wigner transform oracle and normalization",
                       ok, max(md, md_norm), 1e-8)


def _check_multiplet_trace():
    # sum over the full shell of W_klm computed two ways
    params = OscParams(nu=1.0, delta=0.5)
    rng = np.random.default_rng(17)
    md = 0.0
    for N in (1, 2, 3):
        for _ in range(4):
            pt = PhasePoint(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
            direct = sum(
                wigner3d.wigner_klm(Ame(k, l, m), pt, params).real
                for k, l in coalescence.shell_states(N)
                for m in range(-l, l + 1)
            )
            averaged = sum(
                (2 * l + 1) * wigner3d.wigner_kl(k, l, pt, params)
                for k, l in coalescence.shell_states(N)
            )
            md = max(md, abs(direct - averaged))
    # exact: sum_{2k+l=N} (2l+1) W_kl / W_00 = (-1)^N L_N^(2)(2(a+b)), on the
    # circular weights for every shell the CLI accepts
    exact_ok = not any(wigner3d._shell_trace_residue(N) for N in range(13))
    return CheckResult("degenerate multiplet trace identity", exact_ok and md <= 1e-12, md, 1e-12)


def _check_coalescence_closed():
    params = OscParams(nu=1.0, delta=0.5)
    rng = np.random.default_rng(31)
    md_closed = 0.0
    md_poisson = 0.0
    for _ in range(25):
        rv = rng.uniform(-1.5, 1.5, 3)
        pv = rng.uniform(-1.5, 1.5, 3)
        rel = PhasePoint(tuple(rv), tuple(pv))
        v, t = coalescence.v_and_t(rv, pv, params)
        for k, l in ((0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1)):
            md_closed = max(
                md_closed,
                abs(coalescence.p_kl(k, l, rel, params) - coalescence.p_kl_closed(k, l, v, t)),
            )
        for N in range(5):
            md_poisson = max(
                md_poisson,
                abs(
                    coalescence.poisson_sum(N, rel, params)
                    - math.exp(-v) * v**N / math.factorial(N)
                ),
            )
    thetas = np.linspace(0, math.pi / 2, 25)
    p03 = [coalescence.p_kl(0, 3, PhasePoint.from_invariants(1, 1, th), params) for th in thetas]
    p11 = [coalescence.p_kl(1, 1, PhasePoint.from_invariants(1, 1, th), params) for th in thetas]
    mono = all(b >= a - 1e-14 for a, b in zip(p03, p03[1:])) and all(
        b <= a + 1e-14 for a, b in zip(p11, p11[1:])
    )
    endpoint = max(abs(p03[0] + p11[0] - math.exp(-1) / 6),
                   abs(p03[-1] + p11[-1] - math.exp(-1) / 6))
    ok = md_closed <= 1e-12 and md_poisson <= 1e-10 and mono and endpoint <= 1e-10
    return CheckResult("coalescence closed forms, Poisson rule, angular trend",
                       ok, max(md_closed, md_poisson, endpoint), 1e-10)


def _check_coalescence_oracle():
    rng = np.random.default_rng(41)
    md = 0.0
    for z in (0.5, 1.0, 2.0):
        params = OscParams.from_zeta(1.0, z)
        for _ in range(4):
            rel = PhasePoint(tuple(rng.uniform(-1.2, 1.2, 3)), tuple(rng.uniform(-1.2, 1.2, 3)))
            for k, l in ((0, 0), (0, 1), (0, 2), (1, 0)):
                md = max(md, abs(coalescence.p_kl(k, l, rel, params)
                                 - coalescence.p_kl_oracle(k, l, rel, params)))
    # the factorized m-resolved split against the closed-form m-sum
    md_m = 0.0
    for z in (0.5, 2.0):
        params = OscParams.from_zeta(1.0, z)
        rel = PhasePoint(tuple(rng.uniform(-1.2, 1.2, 3)), tuple(rng.uniform(-1.2, 1.2, 3)))
        for N in range(7):
            for k, l in coalescence.shell_states(N):
                parts = sum(coalescence.p_klm(k, l, m, rel, params) for m in range(-l, l + 1))
                md_m = max(md_m, abs(parts - coalescence.p_kl(k, l, rel, params)))
    return CheckResult("coalescence vs quadrature (zeta 1/2, 1, 2); sum_m P_klm = P_kl (N <= 6)",
                       md <= 1e-7 and md_m <= 1e-14, max(md, md_m), 1e-7)


def _check_yields():
    import json

    params = OscParams(nu=1.0, delta=0.5)
    chans = yields.channel_table()
    u = [yields.ParticleRecord("u", (0, 0, 0), (0, 0, 0))]
    d = [yields.ParticleRecord("dbar", (0, 0, 0), (0, 0, 0))]
    rep = yields.pair_yields(u, d, chans, params, yields.MCConfig(seed=1))
    md = abs(rep.channels["pi+"].value - 1.0 / 36.0)
    for name in ("b1+", "a0+", "a1+", "a2+", "pi(1300)+", "rho(1450)+"):
        md = max(md, abs(rep.channels[name].value))
    rng = np.random.default_rng(8)
    us = [yields.ParticleRecord("u", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)))
          for _ in range(40)]
    ds = [yields.ParticleRecord("dbar", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)))
          for _ in range(40)]
    r1 = yields.pair_yields(us, ds, chans, params, yields.MCConfig(seed=11))
    r2 = yields.pair_yields(us, ds, chans, params, yields.MCConfig(seed=11))
    ok = (
        md <= 1e-15
        and r1.channels["rho+"].value == 3 * r1.channels["pi+"].value
        and r1.channels["rho(1450)+"].value == 3 * r1.channels["pi(1300)+"].value
        and json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())
    )
    return CheckResult("ensemble yields: sanity, exact ratios, determinism", ok, md, 1e-15)


_CHECKS = [
    _check_low_order_coefficients,
    _check_unitarity_orthogonality,
    _check_coeff_oracle,
    _check_k0_closed_form,
    _check_special_functions,
    _check_spherical_harmonics,
    _check_wigner1d,
    _check_quasi_probabilities,
    _check_closed_form_audit,
    _check_wigner3d_consistency,
    _check_wigner3d_oracle,
    _check_multiplet_trace,
    _check_coalescence_closed,
    _check_coalescence_oracle,
    _check_yields,
]


def run_selftest(echo=print):
    """Run every invariant group; returns (all_passed, [CheckResult])."""
    results = []
    for check in _CHECKS:
        res = check()
        results.append(res)
        if echo is not None:
            echo(res.line())
    ok = all(r.passed for r in results)
    if echo is not None:
        echo(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} "
             "invariant groups passed")
    return ok, results
