"""Independent checks of each job's result file.

Every check function takes the result file and the workload seed, and
returns a list of (check name, message) failures; an empty list
means the output passed.  The tolerances allow last-digit changes from
reordered arithmetic and, in sampled mode, resampling noise, but not wrong
physics:

* yields: channel yields against closed-form reference sums computed here
  from the generated arrays (the zeta = 1 forms of `p_kl_closed`), exact
  integer ratios inside each level, spectra that integrate to the yields;
* prob: P >= 0, v and t recomputed from (r, p, theta), a seeded spread of
  rows against the quadrature oracle `p_kl_oracle`;
* wigner: the file read back, a seeded spread of cells against the
  factorized `wigner_kl`, node points on every theta slice.
"""

import json
import math
from fractions import Fraction

import numpy as np

import workloads as wl

# The eight u-dbar channels: (k, l) level and spin-color weight.
CHANNELS = {
    "pi+": ((0, 0), Fraction(1, 36)),
    "rho+": ((0, 0), Fraction(3, 36)),
    "b1+": ((0, 1), Fraction(1, 36)),
    "a0+": ((0, 1), Fraction(3, 324)),
    "a1+": ((0, 1), Fraction(9, 324)),
    "a2+": ((0, 1), Fraction(15, 324)),
    "pi(1300)+": ((1, 0), Fraction(1, 36)),
    "rho(1450)+": ((1, 0), Fraction(3, 36)),
}

# P_kl e^v at zeta = 1 for the levels the channels use.
_CLOSED_POLY = {
    (0, 0): lambda v, t: np.ones_like(v),
    (0, 1): lambda v, t: v,
    (1, 0): lambda v, t: (v * v - t) / 6.0,
}

EXACT_REL_TOL = 1e-10
SAMPLED_SIGMAS = 5.0
ORACLE_SAMPLE = 200_000
# Smeared spectra lose the mass beyond the bin range: the edges sit five
# standard deviations out, so less than 1e-6 of each yield.
SMEAR_INTEGRAL_TOL = 1e-5
PROB_ORACLE_ROWS = 48
PROB_ORACLE_TOL = 1e-7
WIGNER_CELLS = 200
WIGNER_TOL = 1e-10


def closed_p(level, r, p):
    """Closed-form P_kl at zeta = 1 for relative points r, p of shape (n, 3)."""
    v = 0.5 * (wl.NU**2 * np.einsum("ij,ij->i", r, r)
               + np.einsum("ij,ij->i", p, p) / (wl.HBAR * wl.NU) ** 2)
    cross = np.cross(r, p)
    t = np.einsum("ij,ij->i", cross, cross) / wl.HBAR**2
    return np.exp(-v) * _CLOSED_POLY[level](v, t)


def _pairs(particles, i, j):
    """Relative coordinates of the pairs (dbar i, u j)."""
    (ra, pa), (rb, pb) = particles["dbar"], particles["u"]
    return ra[i] - rb[j], 0.5 * (pa[i] - pb[j]), pa[i, wl.PF_AXIS] + pb[j, wl.PF_AXIS]


def _edges():
    lo, hi, n = wl.PF_BINS.split(":")
    return np.linspace(float(lo), float(hi), int(n) + 1)


def _integer_multiples(values, nums):
    """True when every value is the float nums[c] * u for one float u."""
    c0 = min(values, key=nums.get)
    u = values[c0] / nums[c0]
    candidates = [u]
    for direction in (-np.inf, np.inf):
        c = u
        for _ in range(2):
            c = float(np.nextafter(c, direction))
            candidates.append(c)
    return any(all(nums[c] * cand == values[c] for c in values) for cand in candidates)


def _yield_report_checks(report, expect_mode, expect_pairs):
    fails = []
    mc = report.get("mc", {})
    if mc.get("mode") != expect_mode or mc.get("pairs") != expect_pairs:
        fails.append(("yields.mc", f"mc = {mc}, expected mode {expect_mode}, "
                                   f"{expect_pairs} pairs"))
    yields = {c["name"]: c for c in report.get("channels", [])}
    if sorted(yields) != sorted(CHANNELS):
        fails.append(("yields.channels", f"channels {sorted(yields)}"))
        return fails, None
    for level in sorted({lv for lv, _ in CHANNELS.values()}):
        names = [n for n, (lv, _) in CHANNELS.items() if lv == level]
        common = math.lcm(*(CHANNELS[n][1].denominator for n in names))
        nums = {n: int(CHANNELS[n][1] * common) for n in names}
        if not _integer_multiples({n: yields[n]["yield"] for n in names}, nums):
            fails.append(("yields.ratios", f"level {level}: yields are not exact "
                                           f"multiples {nums} of one unit"))
    return fails, yields


def _spectrum_integral(report, name):
    sp = report["spectra"][name]
    return float(np.sum(np.asarray(sp["values"]) * np.diff(np.asarray(sp["edges"]))))


def check_yields_exact(path, seed):
    report = json.loads(path.read_text())
    parts = wl.particles(wl.JOBS["yields_exact"], seed)
    n = len(parts["u"][0])
    fails, yields = _yield_report_checks(report, "exact", n * n)
    if yields is None:
        return fails
    i, j = np.divmod(np.arange(n * n), n)
    r, p, p_i = _pairs(parts, i, j)
    edges = _edges()
    bins = np.searchsorted(edges, p_i, side="right") - 1
    inside = (bins >= 0) & (bins < len(edges) - 1)
    spectra = report.get("spectra") or {}
    probs = {level: closed_p(level, r, p) for level, _ in CHANNELS.values()}
    for name, (level, weight) in CHANNELS.items():
        mass = float(weight) * probs[level]
        ref = float(np.sum(mass))
        got = yields[name]["yield"]
        if abs(got - ref) > EXACT_REL_TOL * abs(ref):
            fails.append(("yields_exact.closed_form",
                          f"{name}: yield {got!r}, closed-form sum {ref!r}"))
        if name not in spectra:
            fails.append(("yields_exact.spectrum", f"{name}: no spectrum"))
            continue
        ref_dens = np.bincount(bins[inside], mass[inside], len(edges) - 1) / np.diff(edges)
        dens = np.asarray(spectra[name]["values"])
        if dens.shape != ref_dens.shape or np.any(
            np.abs(dens - ref_dens) > EXACT_REL_TOL * (np.abs(ref_dens) + ref_dens.max())
        ):
            fails.append(("yields_exact.spectrum", f"{name}: sharp spectrum differs "
                                                   "from the closed-form deposit"))
        integral = _spectrum_integral(report, name)
        lost = float(np.sum(mass[~inside]))
        if abs(integral + lost - got) > EXACT_REL_TOL * abs(got):
            fails.append(("yields_exact.integral",
                          f"{name}: spectrum integrates to {integral!r}, yield {got!r}"))
    for name, c in yields.items():
        if c["stderr"] != 0.0:
            fails.append(("yields.mc", f"{name}: exact enumeration with stderr {c['stderr']}"))
    return fails


def check_yields_sampled(path, seed):
    report = json.loads(path.read_text())
    fails, yields = _yield_report_checks(report, "sampled", wl.SAMPLED_BUDGET)
    if yields is None:
        return fails
    if report["mc"].get("seed") != seed:
        fails.append(("yields.mc", f"mc.seed {report['mc'].get('seed')} != {seed}"))
    parts = wl.particles(wl.JOBS["yields_sampled_smeared"], seed)
    n = len(parts["u"][0])
    # An estimate of our own, from a different sample of the same pair set.
    rng = np.random.default_rng([seed, 23])
    i, j = np.divmod(rng.integers(0, n * n, size=ORACLE_SAMPLE), n)
    r, p, _ = _pairs(parts, i, j)
    spectra = report.get("spectra") or {}
    probs = {level: closed_p(level, r, p) for level, _ in CHANNELS.values()}
    for name, (level, weight) in CHANNELS.items():
        mass = float(weight) * n * n * probs[level]
        est, est_err = float(np.mean(mass)), float(np.std(mass, ddof=1)) / math.sqrt(len(mass))
        got, got_err = yields[name]["yield"], yields[name]["stderr"]
        sigma = math.hypot(est_err, got_err)
        if not got_err > 0 or abs(got - est) > SAMPLED_SIGMAS * sigma:
            fails.append(("yields_sampled.estimate",
                          f"{name}: yield {got!r} +- {got_err!r}, independent "
                          f"estimate {est!r} +- {est_err!r}"))
        if name not in spectra:
            fails.append(("yields_sampled.integral", f"{name}: no spectrum"))
            continue
        integral = _spectrum_integral(report, name)
        if abs(integral - got) > SMEAR_INTEGRAL_TOL * abs(got):
            fails.append(("yields_sampled.integral",
                          f"{name}: spectrum integrates to {integral!r}, yield {got!r}"))
    return fails


def _read_table(path, header_line):
    """JSON header, column line and CSV body of a result file."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        columns = fh.readline().strip()
        if columns != header_line:
            raise ValueError(f"column line {columns!r}, expected {header_line!r}")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, body


def _spread(n_total, n_pick, seed, tag):
    """n_pick seeded indices, one in each of n_pick equal strata of range(n_total)."""
    rng = np.random.default_rng([seed, tag])
    edges = np.linspace(0, n_total, n_pick + 1).astype(int)
    return [int(rng.integers(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def check_prob_table(path, seed):
    from oscoal.coalescence import PhasePoint, p_kl_oracle
    from oscoal.ho1d import OscParams

    try:
        header, rows = _read_table(path, "k,l,r,p,theta,v,t,P")
    except ValueError as exc:
        return [("prob.format", str(exc))]
    fails = []
    if header.get("type") != "prob_table" or header.get("zeta") != wl.PROB_ZETA:
        fails.append(("prob.format", f"header {header}"))
    axis = np.linspace(*wl.PROB_AXIS)
    block = len(axis) ** 2 * len(wl.DEFAULT_THETAS)
    if rows.shape != (len(wl.PROB_LEVELS) * block, 8):
        return fails + [("prob.format", f"table shape {rows.shape}")]
    levels = [tuple(int(x) for x in rows[b * block, :2]) for b in range(len(wl.PROB_LEVELS))]
    R, P, T = np.meshgrid(axis, axis, wl.DEFAULT_THETAS, indexing="ij")
    grid = np.tile(np.stack([R.ravel(), P.ravel(), T.ravel()], axis=1), (len(levels), 1))
    if (sorted(levels) != sorted(wl.PROB_LEVELS)
            or np.any(rows[:, :2] != np.repeat(levels, block, axis=0))
            or np.any(rows[:, 2:5] != grid)):
        fails.append(("prob.format", "rows do not cover the default grid level by level"))
        return fails
    r, p, th, v, t, prob = rows[:, 2:].T
    if np.any(prob < -1e-15):
        fails.append(("prob.nonnegative", f"min P = {prob.min()!r}"))
    params = OscParams.from_zeta(1.0, wl.PROB_ZETA, 1.0)
    v_ref = 0.5 * ((params.nu * r) ** 2 + (p / (params.hbar * params.nu)) ** 2)
    t_ref = (r * p * np.sin(th) / params.hbar) ** 2
    if (np.any(np.abs(v - v_ref) > 1e-12 * np.abs(v_ref) + 1e-15)
            or np.any(np.abs(t - t_ref) > 1e-12 * np.abs(t_ref) + 1e-15)):
        fails.append(("prob.invariants", "v or t disagrees with (r, p, theta)"))
    if np.any(prob.reshape(len(levels), block).sum(axis=0) > 1.0 + 1e-12):
        fails.append(("prob.completeness", "levels of one point sum above 1"))
    worst = 0.0
    for idx in _spread(len(rows), PROB_ORACLE_ROWS, seed, 31):
        k, l = (int(x) for x in rows[idx, :2])
        rel = PhasePoint.from_invariants(r[idx], p[idx], th[idx])
        worst = max(worst, abs(prob[idx] - p_kl_oracle(k, l, rel, params)))
    if not worst <= PROB_ORACLE_TOL:
        fails.append(("prob.oracle", f"max |P - quadrature| = {worst:.3e}"))
    return fails


def check_wigner_grid(path, seed):
    from oscoal.ho1d import OscParams
    from oscoal.wigner3d import PhasePoint3D, wigner_kl

    try:
        header, rows = _read_table(path, "r,q,theta,W")
    except ValueError as exc:
        return [("wigner.format", str(exc))]
    fails = []
    k, l = wl.WIGNER_STATE
    axes = {name: np.array([float(x) for x in header["axes"][name]])
            for name in ("r", "q", "theta")}
    if (header.get("type") != "wigner_grid" or header.get("state") != {"k": k, "l": l}
            or not np.array_equal(axes["r"], np.linspace(*wl.WIGNER_AXIS))
            or not np.array_equal(axes["q"], np.linspace(*wl.WIGNER_AXIS))
            or not np.array_equal(axes["theta"], np.array(wl.DEFAULT_THETAS))):
        fails.append(("wigner.format", "header state or axes differ from the job"))
        return fails
    R, Q, T = np.meshgrid(axes["r"], axes["q"], axes["theta"], indexing="ij")
    grid = np.stack([R.ravel(), Q.ravel(), T.ravel()], axis=1)
    if rows.shape != (len(grid), 4) or np.any(rows[:, :3] != grid):
        fails.append(("wigner.format", f"{rows.shape[0]} rows do not cover the grid"))
        return fails
    params = OscParams.from_zeta(1.0, 1.0, 1.0)
    worst = 0.0
    for idx in _spread(len(rows), WIGNER_CELLS, seed, 37):
        r, q, th, w = rows[idx]
        worst = max(worst, abs(w - wigner_kl(k, l, PhasePoint3D.from_invariants(r, q, th),
                                             params)))
    if not worst <= WIGNER_TOL:
        fails.append(("wigner.factorized", f"max |W - wigner_kl| = {worst:.3e}"))
    nodes = header.get("nodes", [])
    if len(nodes) != len(axes["theta"]) or not all(nodes):
        fails.append(("wigner.nodes", f"node points per slice: {[len(s) for s in nodes]}"))
    return fails


CHECKS = {
    "yields_exact": check_yields_exact,
    "yields_sampled_smeared": check_yields_sampled,
    "prob_table": check_prob_table,
    "wigner_grid": check_wigner_grid,
}
