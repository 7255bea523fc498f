"""Command-line front end: reproducible batch jobs over the library.

Subcommands: coeff, wigner, prob, yields, figures, selftest.  Exit codes:
0 success, 1 usage error, 2 invariant failure, 3 I/O error.  All outputs are
deterministic for a fixed argument list (including the seed): headers use
sorted JSON keys and floats carry 17 significant digits.
"""

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .expansion import ORACLE_MAX_N, Ame, coeff, coeff_oracle, degenerate_subspace
from .gridio import fmt17, write_prob_table, write_table, write_wigner_grid
from .ho1d import OscParams, quasi_prob
from .coalescence import PhasePoint, canonical_points, p_kl_batch, shell_states, v_and_t
from .coalescence import p_kl  # unused here; perfbench/spans.py wraps this name
from .wigner3d import CLOSED_FORM_STATES, SLAB_CELLS, export_grid, level_crossings
from .yields import MCConfig, channel_table, load_particles, pair_yields

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

DEFAULT_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
MAX_SHELL = 12  # largest 2k + l that coeff, wigner and prob accept
# rows of one prob, wigner or figures file; a prob table at the cap peaks at 35 MB
MAX_ROWS = 10**7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: `figures --out` must not pass as `--outdir`
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise _UsageError(message)


_OPTIONS = {
    "--nu": dict(type=float, default=1.0, help="oscillator inverse length"),
    "--delta": dict(type=float, default=None, help="wave-packet width"),
    "--hbar": dict(type=float, default=1.0),
    "--zeta": dict(type=float, default=None,
                   help="scale ratio 2*delta*nu; must agree with --delta if both are given"),
    "--seed": dict(type=int, default=0),
    "--out": dict(type=str, default=None, help="output path (default stdout)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--verify": dict(action="store_true",
                     help="also run the quadrature oracle where available"),
}
_PARAM_OPTS = ("--nu", "--delta", "--hbar", "--zeta")


def _add_opts(parser, names):
    """Register the shared options a subcommand reads, and only those."""
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def _check_rows(rows, what):
    """Refuse, before any compute, a result file of more than MAX_ROWS rows."""
    if rows > MAX_ROWS:
        raise _UsageError(f"{what} would write {rows} rows; one file holds at most {MAX_ROWS}")


def _check_level(k, l):
    """Refuse, before any compute, a negative level or one above the shell cap."""
    if k < 0 or l < 0:
        raise _UsageError(f"--k and --l must be nonnegative, got {k} and {l}")
    if 2 * k + l > MAX_SHELL:
        raise _UsageError(f"shells limited to 2k + l <= {MAX_SHELL}")


def _check_out(out):
    """Refuse, before any compute, an `--out` whose directory does not exist."""
    if out is not None and not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


def _resolve_params(args):
    nu, hbar = args.nu, args.hbar
    if args.zeta is not None:
        params = OscParams.from_zeta(nu, args.zeta, hbar)
        if args.delta is not None and not math.isclose(2 * args.delta * nu, args.zeta, rel_tol=1e-12):
            raise _UsageError(
                f"--delta {args.delta} and --zeta {args.zeta} disagree (zeta = 2 delta nu)"
            )
        return params
    if args.delta is not None:
        return OscParams(nu=nu, delta=args.delta, hbar=hbar)
    return OscParams.from_zeta(nu, 1.0, hbar)


def _reject_zeta_and_delta(args, what):
    """Refuse --zeta and --delta where the result is W_kl, which depends only on nu and hbar."""
    if args.zeta is not None or args.delta is not None:
        raise _UsageError(f"{what} writes W_kl, which depends only on nu and hbar; "
                          "it reads no --zeta or --delta")


def parse_grid_spec(spec, radial_names=("r", "q")):
    """Parse 'r:min:max:n,q:min:max:n,theta:v1,v2,...' into axes.

    The theta list must come last; its values may contain further commas.
    """
    tokens = spec.split(",")
    axes = {}
    thetas = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("theta:"):
            tok = ",".join(tokens[i:])
            thetas = np.array([_number(float, v, tok) for v in tok[len("theta:"):].split(",") if v])
            if not len(thetas) or not np.all(np.isfinite(thetas)):
                raise _UsageError(f"theta list must be nonempty and finite in {spec!r}")
            break
        name, *rest = tok.split(":")
        if name not in radial_names or len(rest) != 3 or name in axes:
            raise _UsageError(f"bad or repeated grid token {tok!r}")
        lo, hi = (_number(float, v, tok) for v in rest[:2])
        n = _number(int, rest[2], tok)
        if n < 2 or not 0 < hi - lo < math.inf:
            raise _UsageError(f"bad grid range in {tok!r}")
        _check_rows(n, f"grid token {tok!r}")
        axes[name] = np.linspace(lo, hi, n)
        i += 1
    for name in radial_names:
        axes.setdefault(name, np.linspace(0.0, 4.0, 400))
    if thetas is None:
        thetas = np.array(DEFAULT_THETAS)
    return axes, thetas


def _number(kind, text, tok):
    """`kind(text)`, or a usage error naming `text` and its grid token `tok`."""
    try:
        return kind(text)
    except ValueError:
        raise _UsageError(f"grid token {tok!r}: cannot read {text!r} as {kind.__name__}") from None


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------

def _coeff_rows(states, verify):
    rows = []
    max_dev = 0.0
    for state in states:
        for t in degenerate_subspace(state.energy_quantum):
            c = coeff(state, t)
            row = {
                "k": state.k, "l": state.l, "m": state.m,
                "n1": t.n1, "n2": t.n2, "n3": t.n3,
                "re": c.value.real, "im": c.value.imag,
                "exact": c.exact_str(),
            }
            if verify:
                o = coeff_oracle(state, t)
                row["oracle_re"] = o.real
                row["oracle_im"] = o.imag
                max_dev = max(max_dev, abs(c.value - o))
            rows.append(row)
    return rows, (max_dev if verify else None)


def cmd_coeff(args):
    if args.N is None and (args.k is None or args.l is None):
        raise _UsageError("coeff needs either --N or both --k and --l")
    if args.N is not None and (args.k is not None or args.l is not None):
        raise _UsageError("coeff takes either --N or --k and --l, not both")
    states = []
    if args.N is not None:
        if args.N < 0 or args.N > MAX_SHELL:
            raise _UsageError(f"--N must be in 0..{MAX_SHELL}")
        for k, l in shell_states(args.N):
            ms = [args.m] if args.m is not None else range(-l, l + 1)
            states.extend(Ame(k, l, m) for m in ms if abs(m) <= l)
    else:
        _check_level(args.k, args.l)
        ms = [args.m] if args.m is not None else range(-args.l, args.l + 1)
        states.extend(Ame(args.k, args.l, m) for m in ms)
    if not states:
        raise _UsageError("no states match the requested quantum numbers")
    if args.verify and max(s.energy_quantum for s in states) > ORACLE_MAX_N:
        raise _UsageError(f"coeff --verify needs 2k + l <= {ORACLE_MAX_N} (the oracle's range)")
    _check_out(args.out)
    rows, max_dev = _coeff_rows(states, args.verify)
    if args.format == "json":
        _emit(json.dumps(rows, sort_keys=True, indent=1), args.out)
        if max_dev is not None:
            print(f"max oracle deviation: {max_dev:.3e}", file=sys.stderr)
    else:
        cols = ["k", "l", "m", "n1", "n2", "n3", "re", "im", "exact"]
        if args.verify:
            cols += ["oracle_re", "oracle_im"]
        lines = [",".join(cols)]
        for row in rows:
            vals = []
            for c in cols:
                v = row[c]
                vals.append(fmt17(v) if isinstance(v, float) else str(v))
            lines.append(",".join(vals))
        if max_dev is not None:
            lines.append(f"# max_oracle_dev,{fmt17(max_dev)}")
        _emit("\n".join(lines) + "\n", args.out)
    if max_dev is not None and max_dev > 1e-8:
        print(f"oracle deviation {max_dev:.3e} exceeds 1e-8", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_wigner(args):
    if args.out is None:
        raise _UsageError("wigner requires --out (grids are large)")
    _check_level(args.k, args.l)
    params = _resolve_params(args)  # first, so that a bad value is named as such
    _reject_zeta_and_delta(args, "wigner")
    axes, thetas = parse_grid_spec(args.grid, radial_names=("r", "q"))
    _check_rows(len(axes["r"]) * len(axes["q"]) * len(thetas), "wigner")
    _check_out(args.out)
    grid = export_grid(args.k, args.l, axes["r"], axes["q"], thetas, params)
    if args.verify:
        from .wigner3d import wigner_kl, wigner_kl_oracle

        md = 0.0
        ri = np.linspace(0, len(grid.r_axis) - 1, 4, dtype=int)
        qi = np.linspace(0, len(grid.q_axis) - 1, 3, dtype=int)
        for i in ri:
            for j in qi:
                for s, th in enumerate(grid.theta_axis):
                    pt = PhasePoint.from_invariants(grid.r_axis[i], grid.q_axis[j], th)
                    md = max(md, abs(grid.values[i, j, s] - wigner_kl(args.k, args.l, pt, params)))
        md_oracle = 0.0
        if 2 * args.k + args.l <= 3:
            for i in ri[1:3]:
                pt = PhasePoint.from_invariants(grid.r_axis[i], grid.q_axis[qi[1]],
                                                grid.theta_axis[0])
                md_oracle = max(
                    md_oracle,
                    abs(grid.values[i, qi[1], 0] - wigner_kl_oracle(args.k, args.l, pt, params)),
                )
        if md > 1e-10 or md_oracle > 1e-8:
            print(f"verification failed: factorized dev {md:.3e}, oracle dev {md_oracle:.3e}",
                  file=sys.stderr)
            return EXIT_INVARIANT
    write_wigner_grid(grid, args.out)
    return EXIT_OK


def cmd_prob(args):
    if args.out is None:
        raise _UsageError("prob requires --out")
    if (args.k is None) != (args.l is None):
        raise _UsageError("give both --k and --l, or neither for all N <= 3")
    if args.k is not None:
        _check_level(args.k, args.l)
    params = _resolve_params(args)
    axes, thetas = parse_grid_spec(args.grid, radial_names=("r", "p"))
    levels = [(args.k, args.l)] if args.k is not None else list(CLOSED_FORM_STATES)
    r_axis, p_axis = axes["r"], axes["p"]
    shape = (len(levels), len(r_axis), len(p_axis), len(thetas))
    n = math.prod(shape)
    _check_rows(n, "prob")
    _check_out(args.out)
    # the direction (cos, sin, 0) of p at each theta, with the bits of canonical_points
    _, unit = canonical_points(np.zeros(len(thetas)), np.ones(len(thetas)), thetas)

    def rows(level, i, j, s):
        """The v, t and P columns of one block of rows, levels outermost."""
        rel_r, rel_p = np.zeros((2, len(level), 3))
        rel_r[:, 0] = r_axis[i]
        rel_p[:, :2] = p_axis[j, None] * unit[s, :2]
        prob = np.empty(len(level))
        for lv in np.unique(level).tolist():
            at = level == lv
            prob[at] = p_kl_batch([levels[lv]], rel_r[at], rel_p[at], params)[levels[lv]]
        return [*v_and_t(rel_r, rel_p, params), prob]

    if args.verify:
        from .coalescence import p_kl_oracle

        index = np.unravel_index(np.arange(0, n, max(1, n // 12)), shape)
        md = 0.0
        for lv, i, j, s, prob in zip(*(a.tolist() for a in index), rows(*index)[-1]):
            rel = PhasePoint.from_invariants(r_axis[i], p_axis[j], thetas[s])
            md = max(md, abs(prob - p_kl_oracle(*levels[lv], rel, params)))
        if md > 1e-7:
            print(f"verification failed: oracle dev {md:.3e}", file=sys.stderr)
            return EXIT_INVARIANT
    write_prob_table(levels, (r_axis, p_axis, thetas), rows, params, args.out)
    return EXIT_OK


def _pf_edges(spec):
    """Bin edges of a `--pf-bins lo:hi:nbins` spec; MCConfig checks the range.

    The bin count is checked first, as 8 channel spectra of nbins values.
    """
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        _check_rows(len(channel_table()) * n, "the channel spectra of --pf-bins")
        return tuple(np.linspace(lo, hi, n + 1))
    except ValueError:
        raise _UsageError(f"--pf-bins expects lo:hi:nbins, got {spec!r}") from None


# The keys a `yields --params` sidecar may hold.
_SIDECAR_KEYS = ("nu", "delta", "hbar", "zeta_override")


def _species_tables(path):
    """The loader's tables of the two species in the particle list at `path`, in tag order."""
    tables = load_particles(path)
    if len(tables) != 2:
        raise _UsageError(f"need exactly two species, found {list(tables)}")
    return tuple(tables.values())


def cmd_yields(args):
    if args.pf_bins is None and (args.smear or args.pf_axis is not None):
        raise _UsageError("--smear and --pf-axis shape the spectrum; they need --pf-bins")
    cfg = MCConfig(seed=args.seed, max_pairs=args.budget,
                   pf_bins=None if args.pf_bins is None else _pf_edges(args.pf_bins),
                   pf_axis=2 if args.pf_axis is None else args.pf_axis, smear=args.smear)
    _check_out(args.out)
    params_file = json.loads(Path(args.params).read_text(), parse_int=float)
    if not isinstance(params_file, dict):
        raise _UsageError(f"params file {args.params} must hold a JSON object")
    unknown = [key for key in params_file if key not in _SIDECAR_KEYS]
    if unknown:
        raise _UsageError(f"params file {args.params} has unknown key "
                          f"{', '.join(map(repr, unknown))}; known: {', '.join(_SIDECAR_KEYS)}")
    required = ("nu",) if "zeta_override" in params_file else ("nu", "delta")
    missing = [key for key in required if key not in params_file]
    if missing:
        raise _UsageError(f"params file {args.params} lacks {', '.join(map(repr, missing))}")
    for key in _SIDECAR_KEYS:
        if not isinstance(params_file.get(key, 1.0), float):  # JSON integers parse as floats
            raise _UsageError(f"params file {args.params}: {key!r} must be a JSON number")
    nu, hbar = params_file["nu"], params_file.get("hbar", 1.0)
    if "zeta_override" in params_file:
        params = OscParams.from_zeta(nu, params_file["zeta_override"], hbar)
    else:
        params = OscParams(nu=nu, delta=params_file["delta"], hbar=hbar)
    report = pair_yields(*_species_tables(args.particles), channel_table(), params, cfg)
    _emit(json.dumps(report.to_json_dict(), sort_keys=True, indent=1), args.out)
    return EXIT_OK


def _figure1(outdir, params, resolution):
    paths = []
    r_axis = np.linspace(0.0, 4.0 / params.nu, resolution)
    q_axis = np.linspace(0.0, 4.0 * params.hbar * params.nu, resolution)
    for k, l in CLOSED_FORM_STATES:
        grid = export_grid(k, l, r_axis, q_axis, np.array(DEFAULT_THETAS), params)
        path = Path(outdir) / f"fig1_w{k}{l}.dat"
        write_wigner_grid(grid, path)
        paths.append(path)
    return paths


def _figure2(outdir, params, resolution):
    paths = []
    r_axis = np.linspace(0.0, 5.0, resolution) / params.nu
    p_axis = np.linspace(0.0, 5.0, resolution) * params.nu * params.hbar
    vals = np.empty((resolution, resolution))
    step = max(1, SLAB_CELLS // resolution)
    for n in (0, 1, 2):
        for zeta in (0.25, 1.0, 4.0):
            pz = OscParams.from_zeta(params.nu, zeta, params.hbar)
            for lo in range(0, resolution, step):  # slabs of r: one float grid in all
                vals[lo:lo + step] = quasi_prob(n, n, r_axis[lo:lo + step, None], p_axis, pz).real
            contour = level_crossings(r_axis, p_axis, vals, 0.2)
            path = Path(outdir) / f"fig2_p{n}{n}_zeta{zeta:g}.dat"
            header = {"type": "quasi_prob_grid", "n": n, "zeta": zeta,
                      "params": {"nu": pz.nu, "delta": pz.delta, "hbar": pz.hbar},
                      "axes": {"r": [fmt17(v) for v in r_axis],
                               "p": [fmt17(v) for v in p_axis]},
                      "contour_0p2": [[fmt17(x), fmt17(y)] for x, y in contour]}
            write_table(path, header, ("r", "p", "P"), (r_axis, p_axis), lambda *i: [vals[i]])
            paths.append(path)
    return paths


def _figure3(outdir, params, resolution):
    r0 = 1.0 / params.nu
    p0 = params.hbar * params.nu
    path = Path(outdir) / "fig3_theta.dat"
    header = {"type": "theta_scan", "r": fmt17(r0), "p": fmt17(p0),
              "params": {"nu": params.nu, "delta": params.delta, "hbar": params.hbar}}
    step = (math.pi / 2) / (resolution - 1)

    def rows(i):
        """One block of rows; theta as np.linspace(0, pi/2, resolution) gives it."""
        theta = np.where(i == resolution - 1, math.pi / 2, i * step)
        rel_r, rel_p = canonical_points(np.full(len(i), r0), np.full(len(i), p0), theta)
        probs = p_kl_batch([(0, 3), (1, 1)], rel_r, rel_p, params)
        return [theta, *v_and_t(rel_r, rel_p, params), probs[(0, 3)], probs[(1, 1)]]

    # theta is a column, not an axis whose text would be formatted whole
    write_table(path, header, ("theta", "v", "t", "P03", "P11"), (np.empty((resolution, 0)),),
                rows)
    return [path]


def cmd_figures(args):
    if args.resolution is not None and args.resolution < 2:
        raise _UsageError(f"--resolution must be at least 2, got {args.resolution}")
    if args.id == 2 and (args.zeta is not None or args.delta is not None):
        raise _UsageError("figures 2 scans zeta = 0.25, 1, 4 itself; it reads no --zeta or --delta")
    if args.id == 1:
        _reject_zeta_and_delta(args, "figures 1")
    resolution = args.resolution or (400 if args.id != 3 else 181)
    rows = {1: resolution**2 * len(DEFAULT_THETAS), 2: resolution**2, 3: resolution}[args.id]
    _check_rows(rows, f"figures {args.id}")
    params = _resolve_params(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fig = {1: _figure1, 2: _figure2, 3: _figure3}[args.id]
    paths = fig(outdir, params, resolution)
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_selftest(args):
    from .selftest import run_selftest

    ok, _ = run_selftest()
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser():
    parser = _Parser(prog="oscoal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"oscoal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="exact expansion coefficients")
    _add_opts(p, ("--out", "--format", "--verify"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--N", type=int, default=None, help="whole energy shell")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("wigner", help="m-averaged Wigner distribution grid")
    _add_opts(p, _PARAM_OPTS + ("--out", "--verify"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--grid", type=str, default="r:0:4:400,q:0:4:400")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("prob", help="coalescence probability tables")
    _add_opts(p, _PARAM_OPTS + ("--out", "--verify"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--grid", type=str, default="r:0:3:31,p:0:3:31")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("yields", help="ensemble yields from a particle list")
    _add_opts(p, ("--seed", "--out"))
    p.add_argument("--particles", type=str, required=True, help="particle CSV")
    p.add_argument("--params", type=str, required=True, help="params JSON sidecar")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--pf-bins", type=str, default=None, help="lo:hi:nbins")
    p.add_argument("--pf-axis", type=int, default=None, choices=(0, 1, 2),
                   help="momentum axis of the spectrum (default 2)")
    p.add_argument("--smear", action="store_true", help="J-smeared spectra")
    p.set_defaults(func=cmd_yields)

    p = sub.add_parser("figures", help="emit the data grids behind the figures")
    _add_opts(p, _PARAM_OPTS)
    p.add_argument("id", type=int, choices=(1, 2, 3))
    p.add_argument("--outdir", type=str, default=".")
    p.add_argument("--resolution", type=int, default=None)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
