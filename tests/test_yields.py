import io
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oscoal import yields
from oscoal.coalescence import PhasePoint, p_kl_batch, p_kl_closed, v_and_t
from oscoal.specfun import erf
from oscoal.yields import (
    Channel,
    MCConfig,
    ParticleRecord,
    channel_table,
    load_particles,
    pair_yields,
    spectrum,
)


def random_ensembles(rng, n1=30, n2=30):
    us = [
        ParticleRecord("u", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)),
                       float(rng.uniform(0.5, 2)))
        for _ in range(n1)
    ]
    ds = [
        ParticleRecord("dbar", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)),
                       float(rng.uniform(0.5, 2)))
        for _ in range(n2)
    ]
    return us, ds


class TestLoadParticles:
    def test_empty_sources(self):
        assert load_particles(io.StringIO("")) == {}
        assert load_particles(io.StringIO("species,rx,ry,rz,px,py,pz\n")) == {}

    def test_two_rows(self):
        txt = "species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\ndbar,1,2,3,0.1,0.2,0.3\n"
        tables = load_particles(io.StringIO(txt))
        assert list(tables) == ["dbar", "u"] and [len(t) for t in tables.values()] == [1, 1]
        assert tables["u"][0].species == "u" and tables["dbar"][0].species == "dbar"
        assert tables["dbar"][0].r == (1.0, 2.0, 3.0)
        assert tables["u"][0].weight == 1.0

    def test_weight_column(self):
        txt = "species,rx,ry,rz,px,py,pz,weight\nu,0,0,0,0,0,0,2.5\n"
        assert load_particles(io.StringIO(txt))["u"][0].weight == 2.5

    def test_nan_rejected_with_line_number(self):
        txt = "species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\nu,0,nan,0,0,0,0\n"
        with pytest.raises(ValueError, match="line 3"):
            load_particles(io.StringIO(txt))

    def test_unknown_species_lists_known_tags(self):
        txt = "species,rx,ry,rz,px,py,pz\nxq,0,0,0,0,0,0\n"
        with pytest.raises(ValueError, match="known: u, dbar"):
            load_particles(io.StringIO(txt))

    def test_malformed_row(self):
        txt = "species,rx,ry,rz,px,py,pz\nu,0,0\n"
        with pytest.raises(ValueError, match="line 2"):
            load_particles(io.StringIO(txt))

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            load_particles(io.StringIO("a,b,c\n"))

    def test_file_path(self, tmp_path):
        path = tmp_path / "parts.csv"
        path.write_text("species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\n")
        assert list(load_particles(path)) == ["u"] and len(load_particles(path)["u"]) == 1

    @pytest.mark.parametrize(
        "header, row, message",
        [("species,rx,ry,rz,px,py,pz", "u,0,0,0,0,0,0,7", "expected 7 fields, got 8"),
         ("species,rx,ry,rz,px,py,pz,weight", "u,0,0,0,0,0,0", "expected 8 fields, got 7")],
        ids=["weight-without-header", "missing-weight"],
    )
    def test_rows_must_match_header_width(self, header, row, message):
        txt = f"{header}\nu,0,0,0,0,0,0{',1' * header.endswith('weight')}\n{row}\n"
        with pytest.raises(ValueError, match=f"line 3: {message}"):
            load_particles(io.StringIO(txt))

    def test_floats_match_python_float(self):
        good = [" 2 ", "1_0", "-0", "+.5", "1e-320", "4.9e-324", "1E-400", "１２", "\t3.25",
                "0.1", "1e308", "-1.7976931348623157e308", "123456789.123456789"]
        txt = "species,rx,ry,rz,px,py,pz\n" + "".join(
            f"u,{tok},0,0,0,0,{tok}\n" for tok in good)
        recs = load_particles(io.StringIO(txt))["u"]
        expected = np.array([float(tok) for tok in good])
        assert np.array_equal(recs.r[:, 0].view(np.int64), expected.view(np.int64))
        assert np.array_equal(recs.p[:, 2].view(np.int64), expected.view(np.int64))
        for tok in ("1__0", "_1", "0x10", "", "1,5", "nan(1)", "1 0", "e5"):
            with pytest.raises(ValueError):
                float(tok)
            txt = f'species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\nu,0,0,"{tok}",0,0,0\n'
            with pytest.raises(ValueError, match="line 3: could not convert"):
                load_particles(io.StringIO(txt))

    @pytest.mark.parametrize(
        "row, message",
        [("u,0,0,0", "expected 8 fields, got 4"),
         ("s,0,0,0,0,0,0,1", "unknown species 's'; known: u, dbar"),
         ("u,0,0,x,0,0,0,1", "could not convert string to float: 'x'"),
         ("u,0,0,0,0,inf,0,1", "non-finite component in particle record ParticleRecord"),
         ("u,0,0,0,0,0,0,nan", "non-finite component"),
         ("u,0,0,0,0,0,0,-0.5", "weight must be nonnegative, got -0.5")],
        ids=["field-count", "species", "float", "non-finite", "nan-weight", "negative-weight"],
    )
    def test_first_error_names_its_line_after_blank_lines(self, row, message):
        txt = ("species,rx,ry,rz,px,py,pz,weight\nu,0,0,0,0,0,0,1\n\n , ,\n"
               "dbar,1,1,1,1,1,1,1\n,,,,,,,\n" + row + "\n")
        for later in ("", "u,0,0,x\n"):  # alone, and ahead of another bad line
            with pytest.raises(ValueError, match="^line 7: " + re.escape(message)):
                load_particles(io.StringIO(txt + later))

    def test_quoted_fields_and_blank_lines(self):
        txt = ('species,rx,ry,rz,px,py,pz,weight\n\n"u","1.5",0,0,0,0," 2 ",3\n'
               '  ,  \n" dbar",0,0,0,0,0,0,"0"\n')
        tables = load_particles(io.StringIO(txt))
        assert [len(t) for t in tables.values()] == [1, 1]
        assert tables["u"][0] == ParticleRecord("u", (1.5, 0, 0), (0, 0, 2.0), 3.0)
        assert tables["dbar"][0] == ParticleRecord("dbar", (0, 0, 0), (0, 0, 0), 0.0)

    def test_columns_and_species_selection(self):
        txt = ("species,rx,ry,rz,px,py,pz\n"
               "dbar,1,0,0,0,0,0\nu,2,0,0,0,0,0\ndbar,3,0,0,0,0,0\nu,4,0,0,0,0,0\n")
        tables = load_particles(io.StringIO(txt))
        assert list(tables) == ["dbar", "u"]
        dbar, u = tables.values()
        assert (dbar.tag, u.tag) == ("dbar", "u")
        assert dbar.r.shape == dbar.p.shape == (2, 3) and dbar.weight.tolist() == [1.0] * 2
        assert dbar.r[:, 0].tolist() == [1.0, 3.0] and u.r[:, 0].tolist() == [2.0, 4.0]
        assert u[0] == ParticleRecord("u", (2, 0, 0), (0, 0, 0))
        assert dbar[-1] == dbar[1] == ParticleRecord("dbar", (3, 0, 0), (0, 0, 0))


_H7 = "species,rx,ry,rz,px,py,pz\n"
_H8 = "species,rx,ry,rz,px,py,pz,weight\n"


def _plain_rows(n, weight=False):
    """`n` well-formed rows with distinct values and both species."""
    return "".join(f"{('u', ' dbar')[i % 2]},{i}.5,-{i},1e-{300 + i},{i / 3!r},0,-0.0"
                   + ",2" * weight + "\n" for i in range(n))


def _load_particles_inputs():
    """The inputs of `TestLoadParticles`."""
    good = [" 2 ", "1_0", "-0", "+.5", "1e-320", "4.9e-324", "1E-400", "１２", "\t3.25",
            "0.1", "1e308", "-1.7976931348623157e308", "123456789.123456789"]
    bad = ("1__0", "_1", "0x10", "", "1,5", "nan(1)", "1 0", "e5")
    first_error_rows = ("u,0,0,0", "s,0,0,0,0,0,0,1", "u,0,0,x,0,0,0,1", "u,0,0,0,0,inf,0,1",
                        "u,0,0,0,0,0,0,nan", "u,0,0,0,0,0,0,-0.5")
    return [
        "", _H7,
        _H7 + "u,0,0,0,0,0,0\ndbar,1,2,3,0.1,0.2,0.3\n",
        _H8 + "u,0,0,0,0,0,0,2.5\n",
        _H7 + "u,0,0,0,0,0,0\nu,0,nan,0,0,0,0\n",
        _H7 + "xq,0,0,0,0,0,0\n",
        _H7 + "u,0,0\n",
        "a,b,c\n",
        _H7 + "u,0,0,0,0,0,0\nu,0,0,0,0,0,0,7\n",
        _H8 + "u,0,0,0,0,0,0,1\nu,0,0,0,0,0,0\n",
        _H7 + "".join(f"u,{tok},0,0,0,0,{tok}\n" for tok in good),
        *(_H7 + f'u,0,0,0,0,0,0\nu,0,0,"{tok}",0,0,0\n' for tok in bad),
        *(_H8 + "u,0,0,0,0,0,0,1\n\n , ,\ndbar,1,1,1,1,1,1,1\n,,,,,,,\n" + row + "\n" + later
          for row in first_error_rows for later in ("", "u,0,0,x\n")),
        _H8 + '\n"u","1.5",0,0,0,0," 2 ",3\n  ,  \n" dbar",0,0,0,0,0,0,"0"\n',
        _H7 + "dbar,1,0,0,0,0,0\nu,2,0,0,0,0,0\ndbar,3,0,0,0,0,0\nu,4,0,0,0,0,0\n",
    ]


def _block_inputs(block):
    """Named inputs whose quoting, blank rows, bad rows or line ends fall in chosen blocks."""
    b = block
    return {
        "plain": _H7 + _plain_rows(5 * b),
        "quote-opens-block-3": _H7 + _plain_rows(2 * b) + '"u",1,2,3,4,5,6\n' + _plain_rows(3),
        # csv numbers rows, not lines: the bad row, on line 4 + 3b, is row 3 + 3b
        "quoted-line-end": (_H7 + _plain_rows(2 * b) + '"dbar\n",1,2,3,4,5,6\n' + _plain_rows(b)
                            + "u,0,0,x,0,0,0\n"),
        "bad-row-in-block-2": _H7 + _plain_rows(b + 1) + "u,0,0,x,0,0,0\n" + _plain_rows(2),
        "bad-weight-late": _H8 + _plain_rows(3 * b, weight=True) + "u,0,0,0,0,0,0,-1\n",
        "blank-rows": _H7 + _plain_rows(b) + "u,1,2,3,4,5,6\n\n , ,\n,,,,,,\n" + _plain_rows(b),
        "no-final-newline": _H7 + _plain_rows(2 * b + 1).rstrip("\n"),
        "no-final-newline-weight": _H8 + _plain_rows(b + 1, weight=True).rstrip("\n"),
        # rows of the wrong lengths whose cells add up to whole rows
        "long-then-short": _H7 + "u,1,2,3,4,5,6,dbar,1,2\n3,4,5,6\n" + _plain_rows(b),
        "double-then-split": _H7 + "u,1,2,3,4,5,6,dbar,1,2,3,4,5,6\nu,1,2,3\n4,5,6\n",
        "one-crlf-row": _H7 + _plain_rows(b) + "u,1,2,3,4,5,6\r\n" + _plain_rows(b),
        # fields longer than csv's field size limit, quoted or not, and in the header
        "long-number-in-block-2": (_H7 + _plain_rows(b + 1) + f"u,{_LONG_NUMBER},0,0,0,0,0\n"
                                   + _plain_rows(2)),
        "long-quoted-after-bad-row": (_H7 + _plain_rows(b) + "xq,0,0,0,0,0,0\n"
                                      + f'u,"{_LONG_NUMBER}",0,0,0,0,0\n'),
        "long-header": f'species,rx,ry,rz,px,py,"{_LONG_NUMBER}"\n' + _plain_rows(b),
    }


# A number of 140 000 characters, longer than csv's default field size limit
_LONG_NUMBER = "0." + "0" * 139_997 + "1"


def _outcome(source):
    """The loaded tables, floats by bit pattern, or the error message."""
    try:
        tables = load_particles(source)
    except ValueError as exc:
        return str(exc)
    return [(tag, table.tag, *(getattr(table, f).view(np.int64).tolist()
                               for f in ("r", "p", "weight")))
            for tag, table in tables.items()]


def _rows(outcome):
    """The number of rows, all species together, of a loaded `_outcome`."""
    return sum(len(weight) for *_, weight in outcome)


class TestLoaderBlocks:
    """numpy's C reader converts plain blocks; `csv` takes over from the first other block."""

    @pytest.mark.parametrize("block", [2, 3])
    def test_blocks_match_csv_only(self, block, tmp_path, monkeypatch):
        crlf = tmp_path / "crlf.csv"
        crlf_bad = tmp_path / "crlf_bad.csv"
        crlf.write_bytes((_H7 + _plain_rows(3 * block) + "\n").replace("\n", "\r\n").encode())
        crlf_bad.write_bytes((_H7 + _plain_rows(2 * block) + "xq,0,0,0,0,0,0\n")
                             .replace("\n", "\r\n").encode())
        sources = {text: lambda t=text: io.StringIO(t) for text in _load_particles_inputs()}
        sources.update({name: lambda t=text: io.StringIO(t)
                        for name, text in _block_inputs(block).items()})
        sources.update({"crlf": lambda: crlf, "crlf-bad": lambda: crlf_bad})
        starts = []
        csv_blocks = yields._csv_blocks
        monkeypatch.setattr(yields, "_csv_blocks",
                            lambda *args: starts.append(args[-1]) or csv_blocks(*args))
        outcome, csv_start = {}, {}
        for name, source in sources.items():
            with monkeypatch.context() as csv_only:
                csv_only.setattr(yields, "_split_block", lambda lines, width: None)
                outcome[name] = _outcome(source())
            starts.clear()
            with monkeypatch.context() as blocked:
                blocked.setattr(yields, "_BLOCK", block)
                assert _outcome(source()) == outcome[name], name
            csv_start[name] = starts[:1]
        assert csv_start["plain"] == [] and _rows(outcome["plain"]) == 5 * block
        assert csv_start["crlf"] == [2 + 3 * block]
        assert csv_start["quote-opens-block-3"] == [2 + 2 * block]
        assert _rows(outcome["quote-opens-block-3"]) == 2 * block + 4
        bad_float = "could not convert string to float: 'x'"
        assert outcome["quoted-line-end"] == f"line {3 + 3 * block}: {bad_float}"
        assert outcome["bad-row-in-block-2"] == f"line {3 + block}: {bad_float}"
        assert outcome["crlf-bad"].startswith(f"line {2 + 2 * block}: unknown species 'xq'")
        assert outcome["long-then-short"] == "line 2: expected 7 fields, got 10"
        assert outcome["double-then-split"] == "line 2: expected 7 fields, got 14"
        too_long = "field larger than field limit (131072)"
        assert outcome["long-number-in-block-2"] == f"line {3 + block}: {too_long}"
        assert outcome["long-quoted-after-bad-row"].startswith(f"line {2 + block}: unknown species")
        assert outcome["long-header"] == f"line 1: {too_long}"

    def test_csv_rows_convert_block_by_block(self, monkeypatch):
        # a quoted tag sends every row to `csv`, which still holds at most `_BLOCK` rows
        monkeypatch.setattr(yields, "_BLOCK", 3)
        rows = '"u",1,2,3,4,5,6\n' + _plain_rows(7) + "\n , ,\n" + _plain_rows(3)
        read = []
        blocks = yields._csv_blocks((read.append(line) or line
                                     for line in rows.splitlines(keepends=True)), 7, 2)
        codes, nums = next(blocks)
        assert len(codes) == len(nums) == 3 and len(read) == 3
        assert [len(codes) for codes, _ in blocks] == [3, 3, 2]
        tables = load_particles(io.StringIO(_H7 + rows))
        # rows keep file order within each species: rx is i + 0.5 on the i-th plain row
        assert tables["u"].r[:, 0].tolist() == [1, 0.5, 2.5, 4.5, 6.5, 0.5, 2.5]
        assert tables["dbar"].r[:, 0].tolist() == [1.5, 3.5, 5.5, 1.5]

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_around_a_number_goes_to_csv(self, sep, monkeypatch):
        # numpy strips these from a number as whitespace; `float` rejects them
        text = _H7 + _plain_rows(3) + f"u,0,{sep}1,0,0,0,2{sep}\n" + _plain_rows(2)
        monkeypatch.setattr(yields, "_BLOCK", 2)
        assert _outcome(io.StringIO(text)) == (
            f"line 5: could not convert string to float: {sep + '1'!r}")

    def test_load_holds_each_number_about_once(self, tmp_path, monkeypatch):
        # The peak is every species' rows and one species' table, 1.5x the
        # numbers of two even species, plus one block.  A block's text is a
        # fixed cost (about 5 MB at 16384 lines), so 1024-line blocks keep it
        # small next to 40000 rows; a table of the whole file next to copies
        # of its species read 2.6x here.
        gen = np.random.default_rng(12)
        n = 40_000
        tags = np.where(gen.random(n) < 0.5, "u", "dbar").tolist()
        path = tmp_path / "parts.csv"
        path.write_text(_H7 + "".join(f"{tag},{','.join(map(repr, row))}\n"
                                      for tag, row in zip(tags, gen.normal(size=(n, 6)).tolist())))
        monkeypatch.setattr(yields, "_BLOCK", 1024)
        tracemalloc.start()
        try:
            tables = load_particles(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {tag: len(table) for tag, table in tables.items()} == {
            "dbar": tags.count("dbar"), "u": tags.count("u")}
        returned = sum(t.r.nbytes + t.p.nbytes + t.weight.nbytes for t in tables.values())
        assert peak <= 1.75 * returned, f"peak {peak / 1e6:.2f} MB for {returned / 1e6:.2f} MB"
        # the tag is stored once per table, and every column holds numbers
        for tag, table in tables.items():
            assert table.tag == tag
            assert [v.dtype for v in vars(table).values() if not isinstance(v, str)] == [
                np.float64] * 3

    def test_crlf_file_loads_as_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_text(_H8 + _plain_rows(7, weight=True))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert _outcome(crlf) == _outcome(lf)


class TestChannelTable:
    def test_eight_channels(self):
        table = channel_table()
        assert len(table) == 8
        assert len({c.name for c in table}) == 8

    def test_weights(self):
        w = {c.name: c.stat_weight for c in channel_table()}
        assert w["pi+"] == Fraction(1, 36)
        assert w["rho+"] == Fraction(1, 12)
        assert w["b1+"] == Fraction(1, 36)
        assert w["a0+"] == Fraction(1, 108)
        assert w["a1+"] == Fraction(1, 36)
        assert w["a2+"] == Fraction(5, 108)
        assert w["pi(1300)+"] == Fraction(1, 36)
        assert w["rho(1450)+"] == Fraction(1, 12)

    def test_triplet_p_wave_sum(self):
        w = {c.name: c.stat_weight for c in channel_table()}
        assert w["a0+"] + w["a1+"] + w["a2+"] == Fraction(1, 12)

    def test_levels(self):
        lv = {c.name: (c.k, c.l) for c in channel_table()}
        assert lv["pi+"] == (0, 0) and lv["b1+"] == (0, 1) and lv["pi(1300)+"] == (1, 0)


class TestPairYields:
    def test_single_pair_at_origin(self, params):
        u = [ParticleRecord("u", (0, 0, 0), (0, 0, 0))]
        d = [ParticleRecord("dbar", (0, 0, 0), (0, 0, 0))]
        rep = pair_yields(u, d, channel_table(), params, MCConfig(seed=0))
        assert rep.channels["pi+"].value == pytest.approx(1 / 36, abs=1e-16)
        assert rep.channels["rho+"].value == pytest.approx(1 / 12, abs=1e-16)
        for name in ("b1+", "a0+", "a1+", "a2+", "pi(1300)+", "rho(1450)+"):
            assert abs(rep.channels[name].value) <= 1e-15

    def test_single_pair_total_bounded_by_one(self, params, rng):
        u = [ParticleRecord("u", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)))]
        d = [ParticleRecord("dbar", tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(-1, 1, 3)))]
        rel = PhasePoint(
            tuple(a - b for a, b in zip(u[0].r, d[0].r)),
            tuple(0.5 * (a - b) for a, b in zip(u[0].p, d[0].p)),
        )
        v, t = v_and_t(rel.r_vec, rel.p_vec, params)
        total = sum(
            p_kl_closed(k, l, v, t)
            for k, l in ((0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1))
        )
        assert total <= 1.0 + 1e-12

    def test_channel_ratios_exact(self, params, rng):
        us, ds = random_ensembles(rng)
        rep = pair_yields(us, ds, channel_table(), params, MCConfig(seed=3))
        assert rep.channels["rho+"].value == 3 * rep.channels["pi+"].value
        assert rep.channels["rho(1450)+"].value == 3 * rep.channels["pi(1300)+"].value
        assert rep.channels["a1+"].value == 3 * rep.channels["a0+"].value
        # spectra of one level are exact multiples too, sharp and smeared
        for smear in (False, True):
            cfg = MCConfig(seed=3, pf_bins=tuple(np.linspace(-3, 3, 25)), smear=smear)
            sp = {name: np.array(s["values"])
                  for name, s in pair_yields(us, ds, channel_table(), params, cfg).spectra.items()}
            assert np.any(sp["pi+"] > 0)
            assert np.array_equal(sp["rho+"], 3 * sp["pi+"])
            assert np.array_equal(sp["rho(1450)+"], 3 * sp["pi(1300)+"])
            assert np.array_equal(sp["b1+"], sp["a1+"])

    def test_determinism_bit_identical(self, params, rng):
        us, ds = random_ensembles(rng)
        cfg = MCConfig(seed=913, pf_bins=tuple(np.linspace(-4, 4, 17)))
        a = pair_yields(us, ds, channel_table(), params, cfg)
        b = pair_yields(us, ds, channel_table(), params, cfg)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_sampled_mode_determinism_and_scaling(self, params, rng):
        us, ds = random_ensembles(rng, 120, 120)
        cfg = MCConfig(seed=5, max_pairs=2000)
        a = pair_yields(us, ds, channel_table(), params, cfg)
        b = pair_yields(us, ds, channel_table(), params, cfg)
        assert a.mc == {"seed": 5, "pairs": 2000, "mode": "sampled"}
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        assert a.channels["pi+"].stderr > 0
        # the sampled estimate should be within a few sigma of the exact one
        exact = pair_yields(us, ds, channel_table(), params, MCConfig(seed=5))
        dev = abs(a.channels["pi+"].value - exact.channels["pi+"].value)
        assert dev < 6 * a.channels["pi+"].stderr

    def test_linearity_in_weights(self, params, rng):
        us, ds = random_ensembles(rng)
        us2 = [ParticleRecord(r.species, r.r, r.p, 2 * r.weight) for r in us]
        a = pair_yields(us, ds, channel_table(), params, MCConfig(seed=1))
        b = pair_yields(us2, ds, channel_table(), params, MCConfig(seed=1))
        for name in a.channels:
            assert b.channels[name].value == 2 * a.channels[name].value

    def test_table_and_records_agree(self, params, rng):
        us, ds = random_ensembles(rng, 12, 9)
        txt = "species,rx,ry,rz,px,py,pz,weight\n" + "".join(
            ",".join([rec.species, *map(repr, rec.r + rec.p + (rec.weight,))]) + "\n"
            for pair in zip(ds, us) for rec in pair) + "".join(
            ",".join(["u", *map(repr, rec.r + rec.p + (rec.weight,))]) + "\n" for rec in us[9:])
        tables = load_particles(io.StringIO(txt))
        for cfg in (MCConfig(seed=2, pf_bins=tuple(np.linspace(-3, 3, 9)), smear=True),
                    MCConfig(seed=2, max_pairs=50, pf_bins=tuple(np.linspace(-3, 3, 9)))):
            a = pair_yields(us, ds, channel_table(), params, cfg)
            b = pair_yields(tables["u"], tables["dbar"], channel_table(), params, cfg)
            assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_zero_budget_rejected(self, params):
        with pytest.raises(ValueError):
            MCConfig(seed=0, max_pairs=0)

    def test_overlapping_species_rejected(self, params):
        u = [ParticleRecord("u", (0, 0, 0), (0, 0, 0))]
        with pytest.raises(ValueError, match="overlap"):
            pair_yields(u, u, channel_table(), params, MCConfig(seed=0))

    def test_empty_list_rejected(self, params):
        u = [ParticleRecord("u", (0, 0, 0), (0, 0, 0))]
        with pytest.raises(ValueError, match="nonempty"):
            pair_yields(u, [], channel_table(), params, MCConfig(seed=0))


class TestStreaming:
    """Pairs go through `pair_yields` in leaves of at most `yields._CHUNK`; no sum sees them."""

    CONFIGS = {
        "exact": MCConfig(seed=4),
        "exact-sharp": MCConfig(seed=4, pf_bins=tuple(np.linspace(-2, 2, 11)), pf_axis=0),
        "exact-smeared": MCConfig(seed=4, pf_bins=tuple(np.linspace(-2, 2, 11)), smear=True),
        "sampled-sharp": MCConfig(seed=4, max_pairs=300, pf_bins=tuple(np.linspace(-2, 2, 11))),
        "sampled-smeared": MCConfig(seed=4, max_pairs=300, pf_bins=tuple(np.linspace(-2, 2, 7)),
                                    smear=True),
        # one bin: numpy would sum a single column pairwise, not in pair order
        "one-bin-smeared": MCConfig(seed=4, pf_bins=(-1.0, 1.5), smear=True),
        "two-bin-smeared": MCConfig(seed=4, pf_bins=(-1.0, 0.0, 1.5), smear=True),
        # 600 bins: a smeared deposit takes a leaf in blocks of 2**17 // 601 = 218 rows
        "many-bin-smeared": MCConfig(seed=4, pf_bins=tuple(np.linspace(-2, 2, 601)), smear=True),
    }

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("weights", ["random", "negative-zero"])
    def test_chunk_size_invariance(self, params, rng, monkeypatch, config, weights):
        cfg = self.CONFIGS[config]
        # 500 pairs, and 5600, whose tree of leaves of 128 pairs is six levels deep
        for n1, n2 in ((20, 25), (70, 80)):
            us, ds = random_ensembles(rng, n1, n2)
            if weights == "negative-zero":
                # every mass is -0.0: the sums must keep the sign of one pass over all pairs
                us = [ParticleRecord(r.species, r.r, r.p, -0.0) for r in us]
            reports = {}
            for chunk in (1, 3, 7, 1000, 10_000):
                monkeypatch.setattr(yields, "_CHUNK", chunk)
                rep = pair_yields(us, ds, channel_table(), params, cfg)
                reports[chunk] = json.dumps(rep.to_json_dict())
            assert len(set(reports.values())) == 1
            assert rep.mc["pairs"] == min(n1 * n2, cfg.max_pairs)

    @pytest.mark.parametrize("edges", [np.linspace(-2, 2, 9), np.array([-1.0, 1.5])],
                             ids=["eight-bins", "one-bin"])
    def test_one_pass_sums(self, params, rng, monkeypatch, edges):
        # the sums of one unchunked pass: numpy pairwise sums for the yields,
        # and for the smeared spectrum an axis-0 sum, which numpy does row by
        # row for several bins, and an in-order sum from +0.0 for one bin
        us, ds = random_ensembles(rng, 20, 25)
        monkeypatch.setattr(yields, "_CHUNK", 7)
        rep = pair_yields(us, ds, channel_table(), params,
                          MCConfig(pf_bins=tuple(edges), smear=True, pf_axis=1))
        pairs = [(a, b) for a in us for b in ds]
        rel_r = np.array([[x - y for x, y in zip(a.r, b.r)] for a, b in pairs])
        rel_p = np.array([[0.5 * (x - y) for x, y in zip(a.p, b.p)] for a, b in pairs])
        contrib = (np.array([a.weight * b.weight for a, b in pairs])
                   * p_kl_batch([(0, 1)], rel_r, rel_p, params)[(0, 1)])
        # the (0, 1) channels are multiples of a unit with the common denominator 108
        assert rep.channels["b1+"].value == 3 * (float(np.sum(contrib)) / 108)
        centers = np.array([a.p[1] + b.p[1] for a, b in pairs])
        cdf = 0.5 * (1.0 + erf((edges[None, :] - centers[:, None]) * (params.delta / params.hbar)))
        masses = contrib / 108
        rows = masses[:, None] * np.diff(cdf, axis=1)
        sums = rows.sum(axis=0)
        if len(edges) == 2:
            sums = np.zeros(1)
            for row in rows:
                sums = sums + row
        dens = sums / np.diff(edges)
        assert rep.spectra["a0+"]["values"] == dens.tolist()
        assert rep.spectra["a2+"]["values"] == (5 * dens).tolist()

    def test_smeared_deposit_memory_bounded(self, params):
        # 90000 pairs x 160 bins: one (pairs x bins) float64 array alone is 115 MB
        gen = np.random.default_rng(7)
        tables = [yields.ParticleTable(tag, gen.normal(0, 1.5, (300, 3)),
                                       gen.normal(0, 1, (300, 3)), np.ones(300))
                  for tag in ("u", "dbar")]
        cfg = MCConfig(pf_bins=tuple(np.linspace(-10, 10, 161)), smear=True)
        tracemalloc.start()
        try:
            rep = pair_yields(*tables, channel_table(), params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mc["pairs"] == 90_000
        # 3.3 MB measured: a workspace of two arrays of about 2**17 cells
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"

    def test_many_bin_smeared_memory_bounded(self, params):
        # 1600 pairs x 2000 bins: one (pairs x bins) float64 array alone is 26 MB
        gen = np.random.default_rng(9)
        tables = [yields.ParticleTable(tag, gen.normal(0, 1.5, (40, 3)),
                                       gen.normal(0, 1, (40, 3)), np.ones(40))
                  for tag in ("u", "dbar")]
        cfg = MCConfig(pf_bins=tuple(np.linspace(-10, 10, 2001)), smear=True)
        tracemalloc.start()
        try:
            rep = pair_yields(*tables, channel_table(), params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mc["pairs"] == 1600
        # 3.8 MB measured: a block of 65 rows x 2001 edges, whatever the bin count
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"

    def test_exact_yields_memory_bounded(self, params):
        # 1e6 exact pairs: one float per pair and level alone would be 24 MB
        gen = np.random.default_rng(8)
        tables = [yields.ParticleTable(tag, gen.normal(0, 1.5, (1000, 3)),
                                       gen.normal(0, 1, (1000, 3)), np.ones(1000))
                  for tag in ("u", "dbar")]
        cfg = MCConfig(pf_bins=tuple(np.linspace(-10, 10, 161)))
        tracemalloc.start()
        try:
            rep = pair_yields(*tables, channel_table(), params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mc == {"seed": 0, "pairs": 1_000_000, "mode": "exact"}
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_sampled_yields_memory_bounded(self, params):
        # 2e5 pairs drawn from 1e6: the drawn indices and one float per draw
        # and level alone would be 6.4 MB
        gen = np.random.default_rng(8)
        tables = [yields.ParticleTable(tag, gen.normal(0, 1.5, (1000, 3)),
                                       gen.normal(0, 1, (1000, 3)), np.ones(1000))
                  for tag in ("u", "dbar")]
        cfg = MCConfig(max_pairs=200_000, pf_bins=tuple(np.linspace(-10, 10, 161)))
        tracemalloc.start()
        try:
            rep = pair_yields(*tables, channel_table(), params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mc == {"seed": 0, "pairs": 200_000, "mode": "sampled"}
        assert rep.channels["pi+"].stderr > 0
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("budget", [1, 2, 333, 499])
    def test_sampled_one_draw(self, params, rng, monkeypatch, budget):
        # the yields and standard errors of one draw of every pair number and
        # whole per-pair arrays, summed by np.sum and np.std(ddof=1)
        us, ds = random_ensembles(rng, 20, 25)
        monkeypatch.setattr(yields, "_CHUNK", 7)
        rep = pair_yields(us, ds, channel_table(), params, MCConfig(seed=11, max_pairs=budget))
        assert rep.mc == {"seed": 11, "pairs": budget, "mode": "sampled"}
        i, j = np.divmod(np.random.default_rng(11).integers(0, 500, size=budget), 25)
        (r1, p1, w1), (r2, p2, w2) = (
            (np.array([x.r for x in xs]), np.array([x.p for x in xs]),
             np.array([x.weight for x in xs])) for xs in (us, ds))
        probs = p_kl_batch([(0, 0), (0, 1)], r1[i] - r2[j], 0.5 * (p1[i] - p2[j]), params)
        scale = 500 / budget
        # pi+ is 1 of the (0, 0) unit 1/36, b1+ 3 of the (0, 1) unit 1/108
        for name, level, num, common in (("pi+", (0, 0), 1, 36), ("b1+", (0, 1), 3, 108)):
            contrib = w1[i] * w2[j] * probs[level]
            sd = float(np.std(contrib, ddof=1)) if budget > 1 else 0.0
            assert rep.channels[name].value == num * (scale * float(np.sum(contrib)) / common)
            assert rep.channels[name].stderr == num * (scale * sd * math.sqrt(budget) / common)


class TestPairwiseWalk:
    """`yields._pairwise` adds leaf sums as numpy's pairwise `np.sum` adds the elements.

    This pins what the walk assumes of numpy: a range of more than 128
    elements splits at half its length rounded down to a multiple of 8, and
    the reduction starts at +0.0.
    """

    LENGTHS = sorted({*range(1, 301), *range(4090, 4111),
                      *(2**k + d for k in range(1, 21) for d in (-1, 1))})

    def data(self, limit):
        """Three rows of max(LENGTHS) values: normal, +-10^(+-300) and -0.0."""
        gen = np.random.default_rng(limit)
        n_max = max(self.LENGTHS)
        signs = gen.choice([-1.0, 1.0], size=n_max)
        return np.stack([
            gen.normal(size=n_max),
            signs * 10.0 ** gen.uniform(-300, 300, n_max),
            np.full(n_max, -0.0),
        ])

    @pytest.mark.parametrize("limit", [1, 7, 128, 4096])
    def test_equals_np_sum_bitwise(self, limit):
        data = self.data(limit)
        for n in self.LENGTHS:
            arrays = data[:, :n]
            calls = []

            def leaf(lo, hi):
                calls.append((lo, hi))
                return np.array([np.sum(a[lo:hi]) for a in arrays])

            got = yields._pairwise(leaf, n, limit)
            want = np.array([np.sum(a) for a in arrays])
            assert got.tobytes() == want.tobytes(), n
            # the leaves tile [0, n) in order, each within the limit
            assert [lo for lo, _ in calls] == [0] + [hi for _, hi in calls[:-1]]
            assert calls[-1][1] == n
            assert max(hi - lo for lo, hi in calls) <= max(limit, 128)

    @pytest.mark.parametrize("limit", [1, 7, 128, 4096])
    def test_second_walk_equals_np_std_bitwise(self, limit):
        # `_pairwise_std` repeats np.std(ddof=1): the mean from the walk's
        # totals, then a second walk over the squared deviations
        data = self.data(limit)
        for n in self.LENGTHS:
            if n < 2:
                continue
            arrays = data[:, :n]
            totals = yields._pairwise(lambda lo, hi: np.array([np.sum(a[lo:hi]) for a in arrays]),
                                      n, limit)
            # the squares of the +-10^300 row overflow to inf in both
            with np.errstate(over="ignore"):
                got = yields._pairwise_std(lambda lo, hi: arrays[:, lo:hi], totals, n, limit)
                want = np.array([np.std(a, ddof=1) for a in arrays])
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("limit", [1, 7, 4096])
    @pytest.mark.parametrize("total", [10**6 + 7, 2**32 - 1, 2**32 + 1, 3 * 10**9 + 1, 10**10,
                                       2**40 + 3])
    def test_leaf_draws_equal_one_draw(self, limit, total):
        # a sampled leaf draws its own pair numbers in walk order: the stream
        # is that of one draw of them all, odd leaf lengths included
        for n in (1, 129, 1001, 4097, 20_001):
            gen = np.random.default_rng(n)
            draws = []

            def leaf(lo, hi):
                draws.append(gen.integers(0, total, size=hi - lo))
                return np.zeros(0)

            yields._pairwise(leaf, n, limit)
            want = np.random.default_rng(n).integers(0, total, size=n)
            assert np.concatenate(draws).tobytes() == want.tobytes(), n


class TestSpectrum:
    def test_single_pair_gaussian_profile(self, params):
        pair = (
            ParticleRecord("u", (0.2, 0, 0), (0.1, 0.2, 0.7)),
            ParticleRecord("dbar", (0, 0.1, 0), (0, -0.1, 0.9)),
        )
        p_i = 0.7 + 0.9
        sigma = params.hbar / (math.sqrt(2) * params.delta)
        edges = np.linspace(p_i - 6 * sigma, p_i + 6 * sigma, 641)
        pi_chan = channel_table()[0]
        e, dens = spectrum(edges, [pair], pi_chan, params, smear=True, axis=2)
        centers = 0.5 * (e[1:] + e[:-1])
        profile = dens / dens.max()
        # marginal of J: Gaussian with rms width hbar/(sqrt(2) delta)
        expected = np.exp(-params.delta**2 * (centers - p_i) ** 2 / params.hbar**2)
        assert np.max(np.abs(profile - expected / expected.max())) < 2e-5
        half = np.exp(-0.5)
        width = centers[np.abs(profile - half).argmin()] - p_i
        assert abs(width) == pytest.approx(sigma, rel=0.02)

    def test_integrates_to_channel_yield(self, params, rng):
        us, ds = random_ensembles(rng, 6, 6)
        pairs = [(a, b) for a in us for b in ds]
        sigma = params.hbar / (math.sqrt(2) * params.delta)
        edges = np.linspace(-2 - 6 * sigma, 2 + 6 * sigma, 301)
        chan = channel_table()[0]
        _, dens = spectrum(edges, pairs, chan, params, smear=True)
        total = float(np.sum(dens * np.diff(edges)))
        rep = pair_yields(us, ds, [chan], params, MCConfig(seed=0))
        assert total == pytest.approx(rep.channels["pi+"].value, rel=1e-3)

    def test_delta_limit_all_mass_in_one_bin(self, params):
        pair = (
            ParticleRecord("u", (0.5, 0, 0), (0, 0, 0.3)),
            ParticleRecord("dbar", (0, 0, 0), (0, 0, 0.4)),
        )
        edges = np.array([0.0, 0.5, 1.0])
        chan = channel_table()[0]
        _, dens = spectrum(edges, [pair], chan, params, smear=False)
        assert dens[0] == 0.0
        assert dens[1] > 0.0  # P_i = 0.7 falls in [0.5, 1.0)

    def test_two_identical_pairs_double(self, params):
        pair = (
            ParticleRecord("u", (0.5, 0, 0), (0, 0, 0.3)),
            ParticleRecord("dbar", (0, 0, 0), (0, 0, 0.4)),
        )
        edges = np.linspace(-3, 3, 25)
        chan = channel_table()[2]
        _, one = spectrum(edges, [pair], chan, params)
        _, two = spectrum(edges, [pair, pair], chan, params)
        np.testing.assert_array_equal(two, 2 * one)

    @pytest.mark.parametrize("smear", [False, True], ids=["sharp", "smeared"])
    def test_matches_pairwise_formula_bitwise(self, params, rng, smear):
        us, ds = random_ensembles(rng, 7, 9)
        pairs = [(a, b) for a in us for b in ds]
        chan = channel_table()[2]
        level = (chan.k, chan.l)
        edges = np.linspace(-1.5, 1.5, 13)
        # the spectrum built pair by pair and component by component
        rel_r = np.array([[a - b for a, b in zip(p1.r, p2.r)] for p1, p2 in pairs])
        rel_p = np.array([[0.5 * (a - b) for a, b in zip(p1.p, p2.p)] for p1, p2 in pairs])
        w = np.array([p1.weight * p2.weight for p1, p2 in pairs])
        masses = w * float(chan.stat_weight) * p_kl_batch([level], rel_r, rel_p, params)[level]
        centers = np.array([p1.p[1] + p2.p[1] for p1, p2 in pairs])
        widths = np.diff(edges)
        if smear:
            z = (edges[None, :] - centers[:, None]) * (params.delta / params.hbar)
            cdf = 0.5 * (1.0 + erf(z))
            expected = (masses[:, None] * np.diff(cdf, axis=1)).sum(axis=0) / widths
        else:
            idx = np.searchsorted(edges, centers, side="right") - 1
            ok = (idx >= 0) & (idx < len(widths))
            assert not ok.all()
            counts = np.zeros(len(widths))
            np.add.at(counts, idx[ok], masses[ok])
            expected = counts / widths
        _, dens = spectrum(edges, pairs, chan, params, smear=smear, axis=1)
        assert np.array_equal(dens, expected)

    def test_smeared_against_libm_erf(self, params, rng):
        # An independent erf: libm's `math.erf`, element by element.  Both it and
        # `specfun.erf` are within 1 ulp <= 2^-52 of the exact value (libm's is
        # documented, ours is pinned in test_specfun), so each CDF (1 + erf) / 2
        # is within 2^-52 and each share within 2.25 * 2^-52 of the exact
        # Gaussian share, on either side.  The products with the masses, the
        # in-order sum over n pairs and the division by the width add at most
        # (n + 1) 2^-53 of the summed masses per side: the per-bin bound below.
        us, ds = random_ensembles(rng, 6, 7)
        pairs = [(a, b) for a in us for b in ds]
        chan = channel_table()[2]
        level = (chan.k, chan.l)
        # z = (edge - center) delta / hbar runs over every range of `specfun.erf` and past 6
        edges = np.linspace(-14.0, 14.0, 57)
        rel_r = np.array([[a - b for a, b in zip(p1.r, p2.r)] for p1, p2 in pairs])
        rel_p = np.array([[0.5 * (a - b) for a, b in zip(p1.p, p2.p)] for p1, p2 in pairs])
        w = np.array([p1.weight * p2.weight for p1, p2 in pairs])
        masses = w * float(chan.stat_weight) * p_kl_batch([level], rel_r, rel_p, params)[level]
        centers = np.array([p1.p[0] + p2.p[0] for p1, p2 in pairs])
        scale = params.delta / params.hbar
        cdf = np.array([[0.5 * (1.0 + math.erf((e - c) * scale)) for e in edges] for c in centers])
        widths = np.diff(edges)
        expected = (masses[:, None] * np.diff(cdf, axis=1)).sum(axis=0) / widths
        _, dens = spectrum(edges, pairs, chan, params, axis=0)
        n = len(pairs)
        bound = (2 * 2.25 + (n + 1)) * 2.0**-52 * masses.sum() / widths
        assert np.all(np.abs(dens - expected) <= bound)
        assert not np.array_equal(dens, expected)  # the two erfs differ somewhere

    def test_row_blocks_match_one_pass_bitwise(self, params, rng):
        # 1000 bins: the deposit takes the 2000 pairs in blocks of 2**17 // 1001 = 130 rows
        us, ds = random_ensembles(rng, 40, 50)
        pairs = [(a, b) for a in us for b in ds]
        chan = channel_table()[2]
        level = (chan.k, chan.l)
        edges = np.linspace(-3, 3, 1001)
        rel_r = np.array([[a - b for a, b in zip(p1.r, p2.r)] for p1, p2 in pairs])
        rel_p = np.array([[0.5 * (a - b) for a, b in zip(p1.p, p2.p)] for p1, p2 in pairs])
        w = np.array([p1.weight * p2.weight for p1, p2 in pairs])
        masses = w * float(chan.stat_weight) * p_kl_batch([level], rel_r, rel_p, params)[level]
        centers = np.array([p1.p[2] + p2.p[2] for p1, p2 in pairs])
        cdf = 0.5 * (1.0 + erf((edges[None, :] - centers[:, None]) * (params.delta / params.hbar)))
        expected = (masses[:, None] * np.diff(cdf, axis=1)).sum(axis=0) / np.diff(edges)
        _, dens = spectrum(edges, pairs, chan, params, smear=True)
        assert np.array_equal(dens, expected)

    def test_smeared_memory_bounded(self, params):
        # 2970 pairs x 1000 bins: one (pairs x bins) float64 array alone is 24 MB
        gen = np.random.default_rng(10)
        us = [ParticleRecord("u", gen.normal(0, 1.5, 3), gen.normal(0, 1, 3)) for _ in range(54)]
        ds = [ParticleRecord("dbar", gen.normal(0, 1.5, 3), gen.normal(0, 1, 3)) for _ in range(55)]
        pairs = [(a, b) for a in us for b in ds]
        tracemalloc.start()
        try:
            _, dens = spectrum(np.linspace(-10, 10, 1001), pairs, channel_table()[0], params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dens.shape == (1000,)
        # 3.1 MB measured: the per-pair arrays of 2970 pairs and a 2**17-cell workspace
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"

    def test_misordered_edges_rejected(self, params):
        with pytest.raises(ValueError):
            spectrum(np.array([0.0, -1.0, 1.0]), [], channel_table()[0], params)

    @pytest.mark.parametrize(
        "edges, axis",
        [([0.0, math.inf], 2), ([math.nan, 1.0, 2.0], 2), ([-math.inf, 0.0, 5.0], 2),
         ([[0.0, 1.0], [2.0, 3.0]], 2), ([0.0, 1.0], -1), ([0.0, 1.0], 3)],
        ids=["inf-edge", "nan-edge", "minus-inf-edge", "2d-edges", "axis-minus-1", "axis-3"],
    )
    def test_rejects_what_mcconfig_rejects(self, params, edges, axis):
        pair = (ParticleRecord("u", (0.5, 0, 0), (0, 0, 0.3)),
                ParticleRecord("dbar", (0, 0, 0), (0, 0, 0.4)))
        for make in (lambda: MCConfig(pf_bins=edges, pf_axis=axis),
                     lambda: spectrum(edges, [pair], channel_table()[0], params, axis=axis)):
            with pytest.raises(ValueError):
                make()

    def test_empty_pairs(self, params):
        edges, dens = spectrum(np.array([0.0, 1.0]), [], channel_table()[0], params)
        assert np.all(dens == 0)


class TestValidation:
    def test_particle_record_checks(self):
        with pytest.raises(ValueError):
            ParticleRecord("u", (0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            ParticleRecord("u", (0, 0, 0), (0, 0, 0), weight=-1)
        with pytest.raises(ValueError):
            ParticleRecord("u", (0, 0, math.inf), (0, 0, 0))

    def test_channel_checks(self):
        with pytest.raises(ValueError):
            Channel("x", 0, 0, Fraction(0))
        with pytest.raises(ValueError):
            MCConfig(pf_bins=(1.0, 0.5))
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            MCConfig(seed=-1)
        for seed in (1.5, True, "3", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                MCConfig(seed=seed)
        for budget in (100.5, 100.0, True, False, "100"):
            with pytest.raises(ValueError, match="max_pairs must be an integer"):
                MCConfig(max_pairs=budget)
        cfg = MCConfig(seed=np.int64(3), max_pairs=np.int32(7))
        assert (cfg.seed, cfg.max_pairs) == (3, 7)
        assert type(cfg.seed) is type(cfg.max_pairs) is int
