import ast
import gc
import importlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oscoal import cli, yields
from oscoal.cli import (EXIT_INVARIANT, EXIT_IO, EXIT_OK, EXIT_USAGE, build_parser, main,
                        parse_grid_spec)
from oscoal.gridio import read_prob_table, read_wigner_grid, write_table
from oscoal.ho1d import OscParams
from oscoal.selftest import REFERENCE_COEFFICIENTS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def _must_not_compute(*args, **kwargs):
    raise RuntimeError("usage errors must be raised before any compute")


def _p_nn_mpmath(n, r, p, params):
    """1-D P_nn from the beta^n coefficient of exp(b beta + c beta^2), in mpmath."""
    mpf = mpmath.mpf
    z, nu, hbar = mpf(params.zeta), mpf(params.nu), mpf(params.hbar)
    s, rho, pit = 1 + z * z, mpf(r) * nu, mpf(p) / (nu * hbar)
    b, c = mpmath.sqrt(2) * mpmath.mpc(rho, z * z * pit) / s, (z * z - 1) / (2 * s)
    h = sum(b ** (n - 2 * j) * c**j / (math.factorial(n - 2 * j) * math.factorial(j))
            for j in range(n // 2 + 1))
    g0_squared = 2 * z / s * mpmath.exp(-(rho**2 + z * z * pit**2) / s)
    return g0_squared * math.factorial(n) * abs(h) ** 2


def _traced_peak(argv):
    """The exit code of `main(argv)` and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridSpec:
    def test_full_spec(self):
        axes, thetas = parse_grid_spec("r:0:2:5,q:0:4:9,theta:0,0.5,1.0")
        assert axes["r"].tolist() == [0, 0.5, 1.0, 1.5, 2.0]
        assert len(axes["q"]) == 9
        assert thetas.tolist() == [0.0, 0.5, 1.0]

    def test_defaults(self):
        axes, thetas = parse_grid_spec("r:0:1:3")
        assert len(axes["q"]) == 400
        assert len(thetas) == 5

    def test_bad_token(self):
        from oscoal.cli import _UsageError

        for spec in ("x:0:1:3", "theta:", "r:0:1:3,theta:", "theta:nan", "theta:0,inf",
                     "r:0:1:3,r:0:2:3", "r:0:nan:3", "r:-inf:1:3", "r:1:1:3", "r:0:1:1",
                     "r:0:1:1e3", "r:0:a:3", "theta:abc", "theta:0,x"):
            with pytest.raises(_UsageError):
                parse_grid_spec(spec)


class TestCoeffCommand:
    def test_shell_zero(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["coeff", "--N", "0", "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())
        assert isinstance(rows, list) and len(rows) == 1
        assert rows[0]["re"] == 1.0 and rows[0]["exact"].endswith("(1 + 0 i)")

    def test_l1_block_matches_reference(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["coeff", "--k", "0", "--l", "1", "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 9
        for row in rows:
            key = ((row["k"], row["l"], row["m"]), (row["n1"], row["n2"], row["n3"]))
            sq_re, sq_im = REFERENCE_COEFFICIENTS[key]
            assert math.copysign(row["re"] ** 2, row["re"]) == pytest.approx(float(sq_re), abs=1e-15)
            assert math.copysign(row["im"] ** 2, row["im"]) == pytest.approx(float(sq_im), abs=1e-15)

    def test_verify_passes(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["coeff", "--k", "1", "--l", "2", "--verify", "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())
        for row in rows:
            dev = abs(complex(row["re"], row["im"]) - complex(row["oracle_re"], row["oracle_im"]))
            assert dev <= 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["coeff", "--k", "0", "--l", "2", "--out", str(a)])
        run(["coeff", "--k", "0", "--l", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_usage_errors(self):
        assert run(["coeff"]) == EXIT_USAGE
        assert run(["coeff", "--k", "5", "--l", "4"]) == EXIT_USAGE
        assert run(["coeff", "--k", "0", "--l", "1", "--m", "7"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra", [["--k", "5"], ["--l", "0"], ["--k", "5", "--l", "0"]], ids=["k", "l", "k-l"]
    )
    def test_shell_with_k_or_l_rejected(self, extra, monkeypatch):
        # --N would silently override --k and --l
        monkeypatch.setattr("oscoal.cli._coeff_rows", _must_not_compute)
        assert run(["coeff", "--N", "1", *extra, "--format", "csv"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "levels", [["--N", "9"], ["--k", "0", "--l", "9"], ["--k", "4", "--l", "2", "--m", "0"]],
        ids=["shell", "k-l", "k-l-m"],
    )
    def test_verify_above_oracle_range_rejected(self, levels, monkeypatch, capsys):
        # coeff_oracle would raise only after the rows below N = 9 were computed
        monkeypatch.setattr("oscoal.cli._coeff_rows", _must_not_compute)
        assert run(["coeff", *levels, "--verify", "--format", "csv"]) == EXIT_USAGE
        assert "2k + l <= 8" in capsys.readouterr().err

    def test_shell_with_m_filters_states(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["coeff", "--N", "2", "--m", "2", "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())
        assert {(r["k"], r["l"], r["m"]) for r in rows} == {(0, 2, 2)}


class TestTableFormat:
    def test_readers_reject_wrong_columns(self, tmp_path):
        path = tmp_path / "t.dat"
        write_table(path, {"type": "x"}, ("a", "b"), [np.arange(3)],
                    lambda i: [np.linspace(0, 1, 3)[i]])
        assert path.read_text() == '{"type":"x"}\na,b\n0,0\n1,0.5\n2,1\n'
        for reader, cols in ((read_prob_table, "k,l,r,p,theta,v,t,P"),
                             (read_wigner_grid, "r,q,theta,W")):
            with pytest.raises(ValueError, match="expected columns " + cols) as exc:
                reader(path)
            assert str(path) in str(exc.value)

    def test_bytes_match_per_value_formatting(self, tmp_path, rng, monkeypatch):
        # At most 7 rows per block, so the first three tables take several
        # blocks.  The row functions gather the block's rows of full-length
        # columns; the first table's only axis is the row number.
        monkeypatch.setattr("oscoal.gridio._CHUNK", 7)
        n = 7 * 40 + 3
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, math.inf, -math.nan, 0.1, 1.0]
        columns = [
            np.tile(special, n // len(special) + 1)[:n],
            np.arange(n) % 7 - 3,
            rng.normal(size=n),
            np.repeat(rng.normal(size=3), [n - 200, 150, 50]),
            (np.arange(n, dtype=np.int32) // 50) * -1,
            rng.normal(size=n).astype(np.float32),
        ]
        grid = [np.array([-0.0, 0.0, 0.25]), np.array([1e-320, 0.5, -math.inf, 3.0]),
                np.array([0.0, math.pi / 6, math.pi / 2])]
        levels = np.array([(0, 0), (1, 3), (0, 12)])
        prob = [levels, np.array([0.0, 1.5]), np.array([-0.0, 1 / 3, 2.0]), np.array([0.0, 1.0])]
        cases = [
            ((np.arange(n),), columns, "iabcdef"),
            (grid, [np.resize(special, 36)], "rqtW"),
            (prob, [rng.normal(size=36), np.resize(special[::-1], 36), np.resize(special, 36)],
             "klrptvTP"),
            # two 2-D axes: integer levels, then points of five float fields
            ([levels[1:2], np.resize(special, (6, 5))], [rng.normal(size=6)], "klrptvTP"),
        ]
        for axes, columns, names in cases:
            path = tmp_path / "t.dat"
            shape = [len(a) for a in axes]
            write_table(path, {"type": "x", "n": n}, tuple(names), axes,
                        lambda *i: [c[np.ravel_multi_index(i, shape)] for c in columns])
            lines = ['{"n":%d,"type":"x"}' % n, ",".join(names)]
            points = [[np.atleast_1d(v).tolist() for v in a] for a in axes]
            prefixes = list(itertools.product(*points))
            for prefix, row in zip(prefixes, zip(*(c.tolist() for c in columns)), strict=True):
                values = [*itertools.chain.from_iterable(prefix), *row]
                lines.append(",".join(format(v, "d" if isinstance(v, int) else ".17g")
                                      for v in values))
            written = path.read_text().split("\n")
            assert written[-1] == "" and len(written) == len(lines) + 1
            # the first differing line, not a diff of two long strings
            assert next((i for i, line in enumerate(lines) if written[i] != line), None) is None
            assert "-0," in "".join(written[2:])  # a signed zero in a column or an axis

    def test_unequal_columns_rejected(self, tmp_path):
        # a block of two rows: a column too short, one too long, one too many
        for columns in ([[1.0]], [[1.0, 2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]]):
            with pytest.raises(ValueError):
                write_table(tmp_path / "t.dat", {}, ("a", "b"), [[1.0, 2.0]], lambda i: columns)


class TestWignerCommand:
    def test_grid_round_trip(self, tmp_path):
        out = tmp_path / "w.dat"
        code = run(
            ["wigner", "--k", "0", "--l", "1", "--grid", "r:0:3:21,q:0:3:21,theta:0", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, values = read_wigner_grid(out)
        assert header["state"] == {"k": 0, "l": 1}
        assert values.shape == (21, 21, 1)
        # spot value against the library
        from oscoal.coalescence import PhasePoint
        from oscoal.ho1d import OscParams
        from oscoal.wigner3d import wigner_kl_closed

        p = OscParams(nu=1.0, delta=0.5)
        pt = PhasePoint.from_invariants(header["axes"]["r"][7], header["axes"]["q"][11], 0.0)
        assert values[7, 11, 0] == wigner_kl_closed(0, 1, pt.r_vec, pt.p_vec, p)

    def test_far_grid_writes_zeros(self, tmp_path):
        # e^{-E} underflows where the polynomial overflows: 0 in the file, not nan
        out = tmp_path / "w.dat"
        code = run(["wigner", "--k", "0", "--l", "1", "--grid", "r:0:1e200:3,q:0:4:3,theta:0,1",
                    "--out", str(out)])
        assert code == EXIT_OK
        _, values = read_wigner_grid(out)
        assert np.all(values[1:] == 0.0) and np.all(np.isfinite(values))

    def test_requires_out(self, monkeypatch):
        monkeypatch.setattr("oscoal.cli.export_grid", _must_not_compute)
        assert run(["wigner", "--k", "0", "--l", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "levels",
        [["--k", "1", "--l", "-1", "--grid", "r:0:1:3,q:0:1:3,theta:0"], ["--k", "1", "--l", "-1"],
         ["--k", "-1", "--l", "2"], ["--k", "0", "--l", "13"], ["--k", "6", "--l", "1"]],
        ids=["negative-l-grid", "negative-l", "negative-k", "shell-13-by-l", "shell-13-by-k"],
    )
    def test_bad_levels_before_compute(self, levels, tmp_path, monkeypatch):
        monkeypatch.setattr("oscoal.cli.parse_grid_spec", _must_not_compute)
        monkeypatch.setattr("oscoal.cli.export_grid", _must_not_compute)
        out = tmp_path / "w.dat"
        assert run(["wigner", *levels, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_verify_gate(self, tmp_path):
        out = tmp_path / "w.dat"
        code = run(
            ["wigner", "--k", "1", "--l", "1", "--verify",
             "--grid", "r:0:2:9,q:0:2:9,theta:0,0.6", "--out", str(out)]
        )
        assert code == EXIT_OK and out.exists()

    @pytest.mark.parametrize("k, l", [(6, 0), (3, 6), (0, 12)])
    def test_verify_at_shell_cap(self, k, l, tmp_path):
        # the grid against the factorized sum at the largest shell the CLI accepts
        out = tmp_path / "w.dat"
        code = run(["wigner", "--k", str(k), "--l", str(l), "--verify",
                    "--grid", "r:0:4:9,q:0:4:9", "--out", str(out)])
        assert code == EXIT_OK and out.exists()

    @pytest.mark.parametrize("nr, nq", [(150, 200), (300, 400)], ids=["6e4", "2.4e5"])
    def test_large_grid_memory_bounded(self, nr, nq, tmp_path):
        # the values stay whole for the header's node lines (8 bytes a cell);
        # beyond them the slabs, the node lines of one theta slice and the
        # writer's blocks need about 2 slices and 1 MB at both sizes
        grid = f"r:0:4:{nr},q:0:4:{nq},theta:0,0.9"
        argv = ["wigner", "--k", "1", "--l", "3", "--grid", grid, "--out", str(tmp_path / "w.dat")]
        code, peak = _traced_peak(argv)
        assert code == EXIT_OK
        extra, slice_bytes = peak - 8 * nr * nq * 2, 8 * nr * nq
        assert extra < 3 * slice_bytes + 2e6, f"{extra / 1e6:.1f} MB beyond the values"


class TestProbCommand:
    def test_table_round_trip_and_values(self, tmp_path):
        out = tmp_path / "p.dat"
        code = run(
            ["prob", "--zeta", "2.0", "--grid", "r:0:2:5,p:0:2:5,theta:0,1.5707963267948966",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_prob_table(out)
        assert header["zeta"] == 2.0
        from oscoal.coalescence import PhasePoint, p_kl, v_and_t

        params = OscParams.from_zeta(1.0, 2.0)
        seen_levels = {(k, l) for k, l, *_ in rows}
        assert seen_levels == {(0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1)}
        assert len(rows) == 6 * 5 * 5 * 2
        for k, l, r, p, th, v, t, prob in rows:
            rel = PhasePoint.from_invariants(r, p, th)
            assert prob == p_kl(k, l, rel, params)
            assert (v, t) == v_and_t(rel.r_vec, rel.p_vec, params)

    def test_default_table_memory_bounded(self, tmp_path):
        # 28830 rows: their text formatted in one block takes about 16 MB
        code, peak = _traced_peak(["prob", "--zeta", "2.0", "--out", str(tmp_path / "p.dat")])
        assert code == EXIT_OK
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("grid", ["r:0:3:400,p:0:3:500,theta:0.5",
                                      "r:0:3:800,p:0:3:1000,theta:0.5"], ids=["2e5", "8e5"])
    def test_large_table_memory_bounded(self, grid, tmp_path):
        # the rows are computed and written a block at a time, so the peak
        # does not grow with the table (whole columns of 8e5 rows take 6 MB each)
        argv = ["prob", "--k", "0", "--l", "0", "--grid", grid, "--out", str(tmp_path / "p.dat")]
        code, peak = _traced_peak(argv)
        assert code == EXIT_OK
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for path in (a, b):
            run(["prob", "--k", "0", "--l", "1", "--grid", "r:0:1:4,p:0:1:4,theta:0", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_verify_gate(self, tmp_path):
        out = tmp_path / "p.dat"
        code = run(
            ["prob", "--k", "1", "--l", "0", "--zeta", "2.0", "--verify",
             "--grid", "r:0:2:4,p:0:2:4,theta:0,0.9", "--out", str(out)]
        )
        assert code == EXIT_OK and out.exists()

    def test_verify_gate_fails(self, tmp_path, monkeypatch, capsys):
        # an oracle off by 1e-6, ten times the gate's tolerance: exit 2, no table
        from oscoal import coalescence

        oracle = coalescence.p_kl_oracle
        monkeypatch.setattr(coalescence, "p_kl_oracle", lambda *args: oracle(*args) + 1e-6)
        out = tmp_path / "p.dat"
        code = run(
            ["prob", "--k", "1", "--l", "0", "--zeta", "2.0", "--verify",
             "--grid", "r:0:2:4,p:0:2:4,theta:0,0.9", "--out", str(out)]
        )
        assert code == EXIT_INVARIANT and not out.exists()
        assert "verification failed: oracle dev" in capsys.readouterr().err

    def test_verify_at_shell_cap(self, tmp_path):
        out = tmp_path / "p.dat"
        code = run(["prob", "--k", "0", "--l", "12", "--zeta", "0.25", "--verify",
                    "--grid", "r:0:3:5,p:0:3:5", "--out", str(out)])
        assert code == EXIT_OK and out.exists()

    @pytest.mark.parametrize("levels", [["--k", "1", "--l", "-1"], ["--k", "-1", "--l", "0"]],
                             ids=["negative-l", "negative-k"])
    def test_negative_levels_before_compute(self, levels, tmp_path, monkeypatch):
        monkeypatch.setattr("oscoal.cli.parse_grid_spec", _must_not_compute)
        monkeypatch.setattr("oscoal.cli.p_kl_batch", _must_not_compute)
        out = tmp_path / "p.dat"
        assert run(["prob", *levels, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "levels",
        [["--k", "0", "--l", "13"], ["--k", "6", "--l", "1"],
         ["--k", "0", "--l", "120", "--grid", "r:0:1:2,p:0:1:2,theta:0"]],
        ids=["shell-13-by-l", "shell-13-by-k", "shell-120-grid"],
    )
    def test_shell_cap_before_compute(self, levels, tmp_path, monkeypatch, capsys):
        # the same 2k + l <= 12 cap as coeff and wigner, before the grid is parsed
        monkeypatch.setattr("oscoal.cli.parse_grid_spec", _must_not_compute)
        monkeypatch.setattr("oscoal.cli.p_kl_batch", _must_not_compute)
        out = tmp_path / "p.dat"
        assert run(["prob", *levels, "--out", str(out)]) == EXIT_USAGE
        assert "2k + l <= 12" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_out(self, monkeypatch):
        monkeypatch.setattr("oscoal.cli.p_kl", _must_not_compute)
        monkeypatch.setattr("oscoal.cli.p_kl_batch", _must_not_compute)
        assert run(["prob", "--k", "0", "--l", "0"]) == EXIT_USAGE


class TestYieldsCommand:
    def test_end_to_end(self, tmp_path):
        parts = tmp_path / "parts.csv"
        parts.write_text(
            "species,rx,ry,rz,px,py,pz\n"
            "u,0,0,0,0,0,0\n"
            "u,0.5,0,0,0,0.2,0\n"
            "dbar,0,0.5,0,0.1,0,0\n"
        )
        pjson = tmp_path / "params.json"
        pjson.write_text('{"nu": 1.0, "delta": 0.5}')
        out = tmp_path / "rep.json"
        code = run(
            ["yields", "--particles", str(parts), "--params", str(pjson), "--seed", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        names = [c["name"] for c in rep["channels"]]
        assert names[0] == "pi+" and len(names) == 8
        y = {c["name"]: c["yield"] for c in rep["channels"]}
        assert y["rho+"] == 3 * y["pi+"]
        assert rep["mc"]["mode"] == "exact" and rep["mc"]["pairs"] == 2

    def test_pairs_run_on_the_loaders_own_tables(self, tmp_path, monkeypatch):
        parts = tmp_path / "parts.csv"
        parts.write_text("species,rx,ry,rz,px,py,pz\n"
                         "u,0,0,0,0,0,0\ndbar,1,0.5,0,0.1,0,0\nu,2,0,0,0,0,0\n")
        pjson = tmp_path / "params.json"
        pjson.write_text('{"nu": 1.0, "delta": 0.5}')
        load, pairs, loaded, received = cli.load_particles, cli.pair_yields, [], []

        def tracked_load(path):
            tables = load(path)
            loaded.append(list(tables.values()))
            return tables

        def checked_pairs(*args):
            # every table alive is one the pairs run on: no table of the whole file
            alive = [obj for obj in gc.get_objects() if isinstance(obj, yields.ParticleTable)]
            received.append((args[:2], alive))
            return pairs(*args)

        monkeypatch.setattr(cli, "load_particles", tracked_load)
        monkeypatch.setattr(cli, "pair_yields", checked_pairs)
        out = tmp_path / "rep.json"
        assert run(["yields", "--particles", str(parts), "--params", str(pjson),
                    "--out", str(out)]) == EXIT_OK
        [tables] = loaded
        [(args, alive)] = received
        assert len(args) == 2 and all(a is b for a, b in zip(args, tables))
        assert sorted(map(id, alive)) == sorted(map(id, tables))
        dbar, u = args
        assert (dbar.tag, u.tag) == ("dbar", "u")
        assert u.r[:, 0].tolist() == [0.0, 2.0] and dbar.r[:, 0].tolist() == [1.0]

    def test_zeta_override(self, tmp_path):
        parts = tmp_path / "parts.csv"
        parts.write_text("species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\ndbar,0,0,0,0,0,0\n")
        pjson = tmp_path / "params.json"
        pjson.write_text('{"nu": 1.0, "delta": 0.3, "zeta_override": 1.0}')
        out = tmp_path / "rep.json"
        assert run(["yields", "--particles", str(parts), "--params", str(pjson), "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        y = {c["name"]: c["yield"] for c in rep["channels"]}
        assert y["pi+"] == pytest.approx(1 / 36, abs=1e-16)

    @pytest.mark.parametrize(
        "extra",
        [["--budget", "0"], ["--pf-bins", "1:2"], ["--pf-bins", "a:b:c"], ["--pf-bins", "1:0:4"],
         ["--pf-bins", "nan:1:4"], ["--pf-bins", "0:1:0"], ["--pf-bins", "0:1:1250001"],
         ["--smear"], ["--pf-axis", "0"],
         ['{"nu": 1.0}'], ['{"delta": 0.5}'], ['{"zeta_override": 1.0, "delta": 0.5}'],
         ["3"], ['"nu delta"'], ["--seed", "-1"]],
        ids=["budget", "pf-bins-short", "pf-bins-text", "pf-bins-reversed", "pf-bins-nan",
             "pf-bins-empty", "pf-bins-over-cap", "smear-alone", "pf-axis-alone",
             "sidecar-no-delta", "sidecar-no-nu", "sidecar-zeta-no-nu", "sidecar-number",
             "sidecar-string", "seed-negative"],
    )
    def test_usage_errors_before_loading(self, extra, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("oscoal.cli.load_particles", _must_not_compute)
        sidecar = tmp_path / "p.json"
        if not extra[0].startswith("--"):
            sidecar.write_text(extra[0])  # a params sidecar that is not a usable object
            extra = []
        argv = ["yields", "--particles", "p.csv", "--params", str(sidecar)] + extra
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        if extra == ["--pf-bins", "1:2"]:
            assert "lo:hi:nbins" in err
        if extra == ["--pf-bins", "0:1:1250001"]:
            # 8 channel spectra of 1250001 bins, one value over MAX_ROWS
            assert "10000008 rows" in err
        if extra == ["--seed", "-1"]:
            assert "seed must be nonnegative, got -1" in err
        if sidecar.exists():
            content = json.loads(sidecar.read_text())
            if not isinstance(content, dict):
                expected = "JSON object"
            else:
                expected = "'nu'" if "nu" not in content else "'delta'"
            assert str(sidecar) in err and expected in err

    @pytest.mark.parametrize(
        "sidecar, key",
        [('{"nu": null, "delta": 0.5}', "nu"), ('{"nu": 1.0, "delta": [0.5]}', "delta"),
         ('{"nu": 1.0, "delta": 0.5, "zeta_override": null}', "zeta_override"),
         ('{"nu": "abc", "delta": 0.5}', "nu"), ('{"nu": 1.0, "delta": 0.5, "hbar": true}', "hbar")],
        ids=["null", "list", "zeta-null", "string", "bool"],
    )
    def test_sidecar_value_not_a_number(self, sidecar, key, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("oscoal.cli.load_particles", _must_not_compute)
        path = tmp_path / "p.json"
        path.write_text(sidecar)
        assert run(["yields", "--particles", "p.csv", "--params", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    def test_sidecar_integer_beyond_float_range(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("oscoal.cli.load_particles", _must_not_compute)
        path = tmp_path / "p.json"
        path.write_text('{"nu": 1' + "0" * 400 + ', "delta": 0.5}')
        assert run(["yields", "--particles", "p.csv", "--params", str(path)]) == EXIT_USAGE
        assert "positive and finite" in capsys.readouterr().err

    def test_sidecar_unknown_key(self, tmp_path, monkeypatch, capsys):
        # a misspelt key must not leave the run at a default value
        monkeypatch.setattr("oscoal.cli.load_particles", _must_not_compute)
        path = tmp_path / "p.json"
        path.write_text('{"nu": 1.0, "delta": 0.5, "hbarr": 0.9}')
        assert run(["yields", "--particles", "p.csv", "--params", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and "unknown key 'hbarr'" in err

    @pytest.mark.parametrize("field", ['"1' + "1" * 139_999 + '"', "0." + "0" * 139_997 + "1"],
                             ids=["quoted", "unquoted"])
    def test_field_above_csv_limit_is_line_error(self, field, tmp_path, capsys):
        parts = tmp_path / "parts.csv"
        parts.write_text(f"species,rx,ry,rz,px,py,pz\ndbar,{field},0,0,0,0,0\nu,0,0,0,0,0,0\n")
        pjson = tmp_path / "params.json"
        pjson.write_text('{"nu": 1.0, "delta": 0.5}')
        assert run(["yields", "--particles", str(parts), "--params", str(pjson)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: line 2: field larger than field limit (131072)")

    def test_sampled_budget_cap(self, tmp_path, monkeypatch):
        # 20 x 20 pairs: a budget of all 400 runs exact and draws nothing
        parts = tmp_path / "parts.csv"
        rows = (f"{s},{i / 10},0,0,0,{i / 20},0\n" for s in ("u", "dbar") for i in range(20))
        parts.write_text("species,rx,ry,rz,px,py,pz\n" + "".join(rows))
        pjson = tmp_path / "params.json"
        pjson.write_text('{"nu": 1.0, "delta": 0.5}')
        out = tmp_path / "rep.json"
        monkeypatch.setattr("oscoal.yields.np.random.default_rng", _must_not_compute)
        argv = ["yields", "--particles", str(parts), "--params", str(pjson), "--out", str(out)]
        assert run([*argv, "--budget", "400"]) == EXIT_OK
        assert json.loads(out.read_text())["mc"] == {"seed": 0, "pairs": 400, "mode": "exact"}

    def test_missing_file_is_io_error(self, tmp_path):
        pjson = tmp_path / "params.json"
        pjson.write_text('{"nu": 1.0, "delta": 0.5}')
        assert run(["yields", "--particles", str(tmp_path / "nope.csv"), "--params", str(pjson)]) == EXIT_IO


class TestFiguresCommand:
    def test_figure1_ground_state_positive(self, tmp_path, capsys):
        assert run(["figures", "1", "--outdir", str(tmp_path), "--resolution", "24"]) == EXIT_OK
        capsys.readouterr()
        header, values = read_wigner_grid(tmp_path / "fig1_w00.dat")
        assert np.all(values > 0)
        assert header["nodes"] == [[]] * 5

    def test_figure1_l1_node_curve(self, tmp_path, capsys):
        assert run(["figures", "1", "--outdir", str(tmp_path), "--resolution", "60"]) == EXIT_OK
        capsys.readouterr()
        header, _ = read_wigner_grid(tmp_path / "fig1_w01.dat")
        pts = np.array(header["nodes"][0])
        vals = pts[:, 0] ** 2 + pts[:, 1] ** 2
        assert np.max(np.abs(vals - 1.5)) < 5e-3

    def test_figure2_mirror_contours(self, tmp_path, capsys):
        assert run(["figures", "2", "--outdir", str(tmp_path), "--resolution", "51"]) == EXIT_OK
        capsys.readouterr()
        for n in (0, 1, 2):
            h4 = json.loads((tmp_path / f"fig2_p{n}{n}_zeta4.dat").read_text().splitlines()[0])
            hq = json.loads((tmp_path / f"fig2_p{n}{n}_zeta0.25.dat").read_text().splitlines()[0])
            c4 = np.array([[float(x), float(y)] for x, y in h4["contour_0p2"]])
            cq = np.array([[float(x), float(y)] for x, y in hq["contour_0p2"]])
            assert len(c4) == len(cq)
            if len(c4):
                a = set(map(tuple, np.round(c4, 9)))
                b = set(map(tuple, np.round(cq[:, ::-1], 9)))
                assert a == b

    def test_figure2_against_50_digit_amplitudes(self, tmp_path, capsys):
        # P_nn = (2z/s) e^const n! |h_n|^2 with h_n the beta^n coefficient of
        # exp(b beta + c beta^2) (`ho1d.quasi_amplitudes`), summed term by term
        # in 50 digits at the grid floats read back, for every file written.
        # Worst seen on 9, 23 and 31 point grids (nu, hbar up to 1.7): 3.9e-16
        # absolute, 8.1e-15 relative
        argv = ["figures", "2", "--outdir", str(tmp_path), "--resolution", "9",
                "--nu", "1.3", "--hbar", "0.9"]
        assert run(argv) == EXIT_OK
        capsys.readouterr()
        for n in (0, 1, 2):
            for zeta in ("0.25", "1", "4"):
                lines = (tmp_path / f"fig2_p{n}{n}_zeta{zeta}.dat").read_text().splitlines()
                header = json.loads(lines[0])
                params = OscParams(**header["params"])
                assert lines[1] == "r,p,P" and len(lines) == 2 + 81
                for line in lines[2:]:
                    r, p, got = map(float, line.split(","))
                    with mpmath.workdps(50):
                        exact = float(_p_nn_mpmath(n, r, p, params))
                    gap = abs(got - exact)
                    assert gap <= 5e-16 and gap <= 2e-14 * exact, (n, zeta, r, p)

    @pytest.mark.parametrize("resolution", ["0", "1", "-3"])
    def test_bad_resolution_before_outdir(self, resolution, tmp_path, monkeypatch):
        monkeypatch.setattr("oscoal.cli._figure1", _must_not_compute)
        outdir = tmp_path / "figs"
        argv = ["figures", "1", "--outdir", str(outdir), "--resolution", resolution]
        assert run(argv) == EXIT_USAGE
        assert not outdir.exists()

    @pytest.mark.parametrize("extra", [["--zeta", "3"], ["--delta", "0.5"]], ids=["zeta", "delta"])
    def test_figure2_rejects_zeta_and_delta(self, extra, tmp_path, monkeypatch, capsys):
        # figure 2 scans its own zeta set, so these would be silently ignored
        monkeypatch.setattr("oscoal.cli._figure2", _must_not_compute)
        outdir = tmp_path / "figs"
        assert run(["figures", "2", "--outdir", str(outdir), *extra]) == EXIT_USAGE
        assert "no --zeta or --delta" in capsys.readouterr().err
        assert not outdir.exists()

    def test_figure3_matches_p_kl(self, tmp_path, capsys):
        from oscoal.coalescence import PhasePoint, p_kl, v_and_t

        argv = ["figures", "3", "--outdir", str(tmp_path), "--resolution", "13",
                "--zeta", "2.0", "--nu", "1.3"]
        assert run(argv) == EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "fig3_theta.dat").read_text().splitlines()
        header = json.loads(lines[0])
        assert lines[1] == "theta,v,t,P03,P11" and len(lines) == 2 + 13
        params = OscParams.from_zeta(1.3, 2.0)
        for line in lines[2:]:
            th, v, t, p03, p11 = map(float, line.split(","))
            rel = PhasePoint.from_invariants(float(header["r"]), float(header["p"]), th)
            assert (v, t) == v_and_t(rel.r_vec, rel.p_vec, params)
            assert p03 == p_kl(0, 3, rel, params) and p11 == p_kl(1, 1, rel, params)

    @pytest.mark.parametrize("resolution", [120, 240])
    def test_figure2_memory_bounded(self, resolution, tmp_path, capsys):
        # one float grid filled by slabs of r, and the contour's temporaries:
        # about 3.5 grids in all; full-grid complex amplitudes took 18
        argv = ["figures", "2", "--outdir", str(tmp_path), "--resolution", str(resolution)]
        code, peak = _traced_peak(argv)
        assert code == EXIT_OK
        grid = 8 * resolution**2
        assert peak < 4 * grid + 1e6, f"peak {peak / 1e6:.1f} MB, {peak / grid:.1f} grids"

    @pytest.mark.parametrize("resolution", [20000, 100000], ids=["2e4", "1e5"])
    def test_figure3_memory_bounded(self, resolution, tmp_path, capsys):
        # theta, v, t and both P are computed a block of rows at a time, so the
        # peak does not grow with the scan (whole columns took 19 MB at 1e5)
        argv = ["figures", "3", "--outdir", str(tmp_path), "--resolution", str(resolution)]
        code, peak = _traced_peak(argv)
        assert code == EXIT_OK
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_figure3_theta_is_linspace(self, tmp_path, capsys):
        # the block-wise theta column holds the bits of np.linspace
        for resolution in (2, 3, 181, 9973):
            argv = ["figures", "3", "--outdir", str(tmp_path), "--resolution", str(resolution)]
            assert run(argv) == EXIT_OK
            lines = (tmp_path / "fig3_theta.dat").read_text().splitlines()[2:]
            got = np.array([float(line.split(",", 1)[0]) for line in lines])
            assert got.tobytes() == np.linspace(0.0, math.pi / 2, resolution).tobytes()

    def test_figure3_monotone(self, tmp_path, capsys):
        assert run(["figures", "3", "--outdir", str(tmp_path), "--resolution", "41"]) == EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "fig3_theta.dat").read_text().splitlines()
        rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
        p03 = [r[3] for r in rows]
        p11 = [r[4] for r in rows]
        assert all(b >= a - 1e-14 for a, b in zip(p03, p03[1:]))
        assert all(b <= a + 1e-14 for a, b in zip(p11, p11[1:]))
        assert p03[-1] == max(p03) and p11[-1] == min(p11)


class TestOutDirectory:
    """A missing `--out` directory is an i/o error (exit 3) before any compute."""

    @pytest.mark.parametrize(
        "argv, compute",
        [(["coeff", "--N", "2"], "_coeff_rows"),
         (["wigner", "--k", "0", "--l", "0"], "export_grid"),
         (["prob", "--zeta", "2.0"], "p_kl_batch"),
         (["yields", "--budget", "50000", "--seed", "7", "--pf-bins=-10:10:160", "--smear"],
          "load_particles")],
        ids=["coeff", "wigner", "prob", "yields"],
    )
    def test_missing_out_directory(self, argv, compute, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(f"oscoal.cli.{compute}", _must_not_compute)
        if argv[0] == "yields":  # inputs that exist, so that only --out is wrong
            (tmp_path / "parts.csv").write_text("species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\n")
            (tmp_path / "params.json").write_text('{"nu": 1, "delta": 0.5, "hbar": 1}')
            argv = argv + ["--particles", str(tmp_path / "parts.csv"),
                           "--params", str(tmp_path / "params.json")]
        out = tmp_path / "missing" / "out.dat"
        assert run(argv + ["--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(out) in err
        assert not out.parent.exists()


class TestRowCap:
    @pytest.mark.parametrize(
        "argv",
        [["prob", "--grid", "r:0:3:100000,p:0:3:100000"],
         ["prob", "--k", "0", "--l", "0", "--grid", "r:0:3:100000000000"],
         ["wigner", "--k", "0", "--l", "0", "--grid", "r:0:3:100000,q:0:3:100000"],
         ["figures", "1", "--resolution", "100000"]],
        ids=["prob", "prob-axis", "wigner", "figures-1"],
    )
    def test_oversize_before_compute(self, argv, tmp_path, monkeypatch, capsys):
        # numpy would need tens to hundreds of GiB for each of these
        for name in ("p_kl_batch", "export_grid", "_figure1"):
            monkeypatch.setattr(f"oscoal.cli.{name}", _must_not_compute)
        out = tmp_path / "out"
        dest = ["--outdir", str(out)] if argv[0] == "figures" else ["--out", str(out)]
        assert run([*argv, *dest]) == EXIT_USAGE
        assert "at most 10000000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, rows",
        [(["prob", "--grid", "r:0:1:2,p:0:1:3,theta:0,1"], 2 * 3 * 2 * 6),
         (["prob", "--k", "1", "--l", "0", "--grid", "r:0:1:2,p:0:1:3,theta:0,1"], 12),
         (["wigner", "--k", "0", "--l", "1", "--grid", "r:0:1:2,q:0:1:3,theta:0,1"], 12),
         (["figures", "1", "--resolution", "3"], 3 * 3 * 5),
         (["figures", "2", "--resolution", "3"], 3 * 3),
         (["figures", "3", "--resolution", "3"], 3)],
        ids=["prob-all-levels", "prob-one-level", "wigner", "figures-1", "figures-2", "figures-3"],
    )
    def test_cap_counts_rows_of_one_file(self, argv, rows, tmp_path, monkeypatch, capsys):
        dest = ["--outdir", str(tmp_path)] if argv[0] == "figures" else ["--out", str(tmp_path / "x")]
        monkeypatch.setattr("oscoal.cli.MAX_ROWS", rows - 1)
        assert run([*argv, *dest]) == EXIT_USAGE
        monkeypatch.setattr("oscoal.cli.MAX_ROWS", rows)
        assert run([*argv, *dest]) == EXIT_OK


class TestParamHandling:
    def test_conflicting_delta_zeta(self):
        assert run(["prob", "--delta", "0.3", "--zeta", "1.0", "--out", "/tmp/x.dat"]) == EXIT_USAGE

    def test_consistent_delta_zeta_ok(self, tmp_path):
        out = tmp_path / "p.dat"
        code = run(
            ["prob", "--delta", "0.5", "--zeta", "1.0", "--k", "0", "--l", "0",
             "--grid", "r:0:1:3,p:0:1:3,theta:0", "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_large_consistent_delta_zeta_ok(self, tmp_path):
        """2 delta nu is compared with zeta to a relative tolerance."""
        grid = ["--k", "0", "--l", "0", "--grid", "r:0:1:3,p:0:1:3,theta:0"]
        out = tmp_path / "p.dat"
        argv = ["prob", "--nu", "3", "--delta", "4096.3", "--zeta", "24577.8", *grid]
        assert run([*argv, "--out", str(out)]) == EXIT_OK
        argv = ["prob", "--nu", "3", "--delta", "4096.3", "--zeta", "24577.81", *grid]
        assert run([*argv, "--out", str(tmp_path / "q.dat")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["yields", "--particles", "p.csv", "--params", "p.json", "--zeta", "2.0"],
            ["yields", "--particles", "p.csv", "--params", "p.json", "--format", "csv"],
            ["selftest", "--seed", "3"],
            ["coeff", "--N", "1", "--nu", "2.0"],
            ["coeff", "--N", "1", "--seed", "3"],
            ["prob", "--format", "csv", "--out", "p.dat"],
            ["wigner", "--k", "0", "--l", "0", "--seed", "3", "--out", "w.dat"],
            ["figures", "1", "--out", "figs"],
            ["figures", "1", "--verify"],
        ],
        ids=["yields-physics", "yields-format", "selftest-any", "coeff-physics",
             "coeff-seed", "prob-format", "wigner-seed", "figures-out", "figures-verify"],
    )
    def test_unread_options_rejected(self, argv, monkeypatch):
        for name in ("p_kl", "p_kl_batch", "export_grid", "pair_yields", "_figure1",
                     "_coeff_rows", "load_particles"):
            monkeypatch.setattr(f"oscoal.cli.{name}", _must_not_compute)
        monkeypatch.setattr("oscoal.selftest.run_selftest", _must_not_compute)
        assert run(argv) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra", [["--zeta", "3"], ["--delta", "0.5"], ["--delta", "0.5", "--zeta", "1"]],
        ids=["zeta", "delta", "both"],
    )
    @pytest.mark.parametrize("command", [["wigner", "--k", "0", "--l", "1", "--out"],
                                         ["figures", "1", "--outdir"]], ids=["wigner", "figures-1"])
    def test_w_kl_commands_reject_zeta_and_delta(self, command, extra, tmp_path, monkeypatch,
                                                 capsys):
        # W_kl depends on nu and hbar only: the flags would change nothing but the header
        for name in ("export_grid", "_figure1"):
            monkeypatch.setattr(f"oscoal.cli.{name}", _must_not_compute)
        out = tmp_path / "out"
        assert run([*command, str(out), *extra]) == EXIT_USAGE
        assert "it reads no --zeta or --delta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [["--zeta", "nan"], ["--zeta", "inf"], ["--zeta", "0"], ["--nu", "nan"], ["--nu", "0"],
         ["--nu=-inf"], ["--hbar", "inf"], ["--delta", "nan"], ["--delta", "0.5", "--zeta", "nan"]],
        ids=["zeta-nan", "zeta-inf", "zeta-zero", "nu-nan", "nu-zero", "nu-minus-inf", "hbar-inf",
             "delta-nan", "delta-with-zeta-nan"],
    )
    @pytest.mark.parametrize("command", ["prob", "wigner"])
    def test_bad_params_before_compute(self, command, bad, tmp_path, monkeypatch, capsys):
        for name in ("parse_grid_spec", "p_kl_batch", "export_grid"):
            monkeypatch.setattr(f"oscoal.cli.{name}", _must_not_compute)
        out = tmp_path / "out.dat"
        levels = ["--k", "0", "--l", "1"]
        assert run([command, *levels, *bad, "--out", str(out)]) == EXIT_USAGE
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "levels, message",
        [(["--k", "0", "--l", "-1"], "--k and --l must be nonnegative, got 0 and -1"),
         (["--k", "-1", "--l", "2"], "--k and --l must be nonnegative, got -1 and 2"),
         (["--k", "0", "--l", "13"], "shells limited to 2k + l <= 12"),
         (["--k", "6", "--l", "1"], "shells limited to 2k + l <= 12")],
        ids=["negative-l", "negative-k", "shell-13-by-l", "shell-13-by-k"],
    )
    @pytest.mark.parametrize("command", ["coeff", "wigner", "prob"])
    def test_bad_levels_before_compute(self, command, levels, message, tmp_path, monkeypatch,
                                       capsys):
        # one check of k and l, with one message, for each command that reads them
        for name in ("Ame", "_coeff_rows", "parse_grid_spec", "export_grid", "p_kl_batch"):
            monkeypatch.setattr(f"oscoal.cli.{name}", _must_not_compute)
        out = tmp_path / "out.dat"
        assert run([command, *levels, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, scale",
        [(["prob", "--nu", "1e-200"], "nu^2"),
         (["wigner", "--k", "0", "--l", "1", "--nu", "1e200", "--grid", "r:0:4:3,q:0:4:3"], "nu^2"),
         (["figures", "3", "--zeta", "1e300"], "zeta^4"),
         (["wigner", "--k", "0", "--l", "1", "--hbar", "1e-300", "--grid", "r:0:4:3,q:0:4:3"],
          "(hbar nu)^2"),
         (["yields", '{"nu": 1e-200, "delta": 0.5}'], "nu^2")],
        ids=["prob-tiny-nu", "wigner-huge-nu", "figures-huge-zeta", "wigner-tiny-hbar",
             "yields-sidecar-tiny-nu"],
    )
    def test_extreme_scales_fail_early(self, argv, scale, tmp_path, capsys):
        # each of these used to write nan rows or end in an OverflowError
        out = tmp_path / "out"
        if argv[0] == "yields":
            sidecar = tmp_path / "p.json"
            sidecar.write_text(argv[1])
            parts = tmp_path / "parts.csv"
            parts.write_text("species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\ndbar,1,0,0,0,0,0\n")
            argv = ["yields", "--particles", str(parts), "--params", str(sidecar)]
        argv = argv + (["--outdir"] if argv[0] == "figures" else ["--out"]) + [str(out)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scale} = ") and "finite and nonzero" in err
        assert not out.exists()

    def test_far_points_write_without_warning(self, tmp_path):
        # r r overflows to inf in v_and_t; RuntimeWarnings are errors in this suite
        out = tmp_path / "far.csv"
        argv = ["prob", "--k", "0", "--l", "1", "--grid", "r:0:1e200:3,p:0:1:3,theta:0"]
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        _, rows = read_prob_table(out)
        far = [row for row in rows if row[2] == 1e200]
        assert len(rows) == 9 and len(far) == 3
        assert all(v == math.inf and t == 0.0 and prob == 0.0 for *_, v, t, prob in far)


class TestColdStart:
    def test_no_run_imports_scipy(self, tmp_path):
        """numpy is the only runtime dependency; smeared spectra use `specfun.erf`.

        A fresh interpreter is needed: this test session has imported scipy.
        """
        script = textwrap.dedent(
            """
            import sys
            from pathlib import Path

            import oscoal
            from oscoal import cli

            Path("parts.csv").write_text(
                "species,rx,ry,rz,px,py,pz\\nu,0.1,0,0,0,0.2,0\\ndbar,0,0.3,0,0.1,0,0\\n")
            Path("params.json").write_text('{"nu": 1.0, "delta": 0.5}')
            grid = "r:0:1:3,{}:0:1:3,theta:0,0.5"
            codes = [
                cli.main(["coeff", "--k", "0", "--l", "1", "--out", "coeff.json"]),
                cli.main(["prob", "--grid", grid.format("p"), "--out", "prob.dat"]),
                cli.main(["wigner", "--k", "1", "--l", "1", "--grid", grid.format("q"),
                          "--out", "wigner.dat"]),
                cli.main(["yields", "--particles", "parts.csv", "--params", "params.json",
                          "--pf-bins=-2:2:8", "--out", "yields.json"]),
                cli.main(["yields", "--particles", "parts.csv", "--params", "params.json",
                          "--pf-bins=-2:2:8", "--smear", "--out", "smeared.json"]),
                cli.main(["selftest"]),
            ]
            assert codes == [0, 0, 0, 0, 0, 0], codes
            assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name in ("yields.json", "smeared.json"):
            assert json.loads((tmp_path / name).read_text())["spectra"]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    """The benchmark drives the CLI by argv and wraps names in its modules."""

    def test_job_argv_parse(self):
        workloads = _load_perfbench("workloads")
        for job in workloads.JOBS.values():
            argv = workloads.job_spec(job, seed=1).argv
            assert build_parser().parse_args(argv).command == argv[0]

    def test_wrapped_names_resolve(self):
        spans = _load_perfbench("spans")
        for module, attr, *_ in spans.WRAPPED:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    def test_oracle_imports_resolve(self):
        # found by parsing, so that perfbench is never imported
        tree = ast.parse((PERFBENCH / "oracles.py").read_text())
        names = [(node.module, alias.name) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "oscoal"
                 for alias in node.names]
        assert names
        for module, attr in names:
            assert hasattr(importlib.import_module(module), attr), (module, attr)
