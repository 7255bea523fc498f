"""The block writer's float text against `format(x, ".17g")`, value by value."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from oscoal import gridio
from oscoal.cli import EXIT_OK, main


def _written(values):
    """The bytes `gridio` writes for a column of `values`, one per line."""
    values = np.asarray(values)
    return b"".join(gridio._block([], (), [values[lo : lo + 4096]])
                    for lo in range(0, len(values), 4096))


def _expected(values):
    values = np.asarray(values, np.float64).tolist()
    return "".join(format(v, ".17g") + "\n" for v in values).encode()


def _assert_exact(values):
    got, want = _written(values), _expected(values)
    if got != want:
        got, want = got.decode().split("\n"), want.decode().split("\n")
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(map(len, (got, want))))
        raise AssertionError(f"{np.asarray(values).ravel()[bad]!r}: wrote {got[bad:bad + 1]}, "
                             f"want {want[bad:bad + 1]}")


def _bits(rng, n, exponents=None):
    """n doubles of random sign and significand, with the given biased exponents."""
    bits = rng.integers(0, 2**63, size=n, dtype=np.uint64) & np.uint64(2**52 - 1)
    bits |= rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    if exponents is not None:
        bits |= np.asarray(exponents, np.uint64) << np.uint64(52)
    return bits.view(np.float64)


class TestFloatText:
    def test_random_bit_patterns(self, rng):
        # about 1e6 finite doubles spread over all binary exponents, and some nan
        _assert_exact(rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64))

    def test_every_binary_exponent(self, rng):
        exponents = np.repeat(np.arange(2048), 16)
        _assert_exact(_bits(rng, len(exponents), exponents))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
        steps = [powers]
        for direction in (math.inf, -math.inf):
            near = powers
            for _ in range(2):
                near = np.nextafter(near, direction)
                steps.append(near)
        values = np.concatenate(steps)
        values = values[np.isfinite(values)]
        _assert_exact(np.concatenate([values, -values]))

    def test_subnormals_zeros_and_nonfinite(self, rng):
        smallest = np.nextafter(0.0, 1.0)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, smallest, -smallest,
                    2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
        _assert_exact(np.concatenate([specials, _bits(rng, 2 * 10**4, np.zeros(2 * 10**4))]))

    def test_float32_and_integers(self, rng):
        f32 = rng.integers(0, 2**32, size=2 * 10**4, dtype=np.uint32).view(np.float32)
        f32 = f32[np.isfinite(f32)]
        got = _written(f32).decode().split("\n")[:-1]
        assert got == [format(float(v), ".17g") for v in f32.tolist()]
        ints = [*rng.integers(0, 2**53, size=2 * 10**4), *(2**k for k in range(54)),
                *(2**k - 1 for k in range(1, 54)), *(10**k for k in range(16))]
        _assert_exact(np.array(ints, dtype=np.float64))

    def test_rounded_decimals(self, rng):
        x = rng.uniform(-1e3, 1e3, size=2000) * 10.0 ** rng.integers(-6, 6, size=2000)
        values = [round(v, places) for places in range(17) for v in x.tolist()]
        _assert_exact(np.array(values + [-v for v in values]))

    def test_fallback_alone_gives_the_same_bytes(self, rng, monkeypatch):
        # a zero table of powers of ten leaves no nonzero value on the fast path
        values = np.concatenate([rng.normal(size=5000), _bits(rng, 5000, rng.integers(0, 2047, 5000)),
                                 [0.0, -0.0, math.inf, math.nan, 1e16, 1e17, 1e-5]])
        fast = _written(values)
        calls = []
        monkeypatch.setattr(gridio, "format", lambda v, spec: calls.append(v) or format(v, spec),
                            raising=False)
        sig, *rest = gridio._tables()
        monkeypatch.setattr(gridio, "_tables", lambda: (np.zeros_like(sig), *rest))
        assert _written(values) == fast
        assert len(calls) == np.count_nonzero(values)  # zeros never reach `format`

    def test_signed_zeros_take_no_format_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gridio, "format", lambda v, spec: calls.append(v) or format(v, spec),
                            raising=False)
        _assert_exact(np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.5e-300, 0.0]))
        assert calls == []

    def test_fast_path_takes_most_values(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(gridio, "format", lambda v, spec: calls.append(v) or format(v, spec),
                            raising=False)
        values = rng.normal(size=10**4)
        _assert_exact(values)
        assert len(calls) < 0.05 * len(values)


def _reference_table(path, payload, names, axes, rows):
    """`gridio.write_table` spelled out value by value, `rows` called once on all rows."""
    axes = [np.asarray(a).reshape(len(a), -1).tolist() for a in axes]
    shape = [len(a) for a in axes]
    index = np.unravel_index(np.arange(math.prod(shape)), shape)
    columns = [np.asarray(c).tolist() for c in rows(*index)]
    prefixes = itertools.product(*axes)
    lines = [json.dumps(payload, sort_keys=True, separators=(",", ":")), ",".join(names)]
    for prefix, row in zip(prefixes, zip(*columns), strict=True):
        values = [*itertools.chain.from_iterable(prefix), *row]
        lines.append(",".join(str(v) if isinstance(v, int) else format(v, ".17g") for v in values))
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "argv",
    [["wigner", "--k", "1", "--l", "2", "--grid", "r:0:3:6,q:0:2:5,theta:0,0.7", "--out", "w.dat"],
     ["prob", "--zeta", "2.0", "--grid", "r:0:3:7,p:0:3:7", "--out", "p.dat"],
     ["figures", "2", "--resolution", "9", "--outdir", "."],
     ["figures", "3", "--outdir", "."]],
    ids=["wigner", "prob", "figures-2", "figures-3"],
)
def test_cli_files_hold_canonical_text(argv, tmp_path, monkeypatch, capsys):
    # every field reads back to the same text, and each file is byte for byte
    # the one a value-by-value writer makes, header lines included
    block_writer, written = gridio.write_table, {}
    for writer in (block_writer, _reference_table):
        monkeypatch.setattr(gridio, "write_table", writer)
        monkeypatch.setattr("oscoal.cli.write_table", writer)
        run_dir = tmp_path / writer.__name__
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        written[writer] = {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.dat"))}
    files = written[block_writer]
    assert files and files == written[_reference_table]
    for text in files.values():
        lines = text.decode().split("\n")
        assert lines.pop() == "" and json.loads(lines[0])
        for row in lines[2:]:
            assert all(format(float(f), ".17g") == f for f in row.split(","))


def test_level_boundaries_inside_a_block(tmp_path, monkeypatch):
    # 4 x 5 x 2 = 40 points per level: blocks of 7 rows straddle the
    # boundaries between the six default levels, and the last block is short
    argv = ["prob", "--zeta", "0.7", "--grid", "r:0:3:4,p:0:3:5,theta:0,0.5"]
    written = []
    for chunk, writer in ((gridio._CHUNK, gridio.write_table), (7, gridio.write_table),
                          (7, _reference_table)):
        monkeypatch.setattr(gridio, "_CHUNK", chunk)
        monkeypatch.setattr(gridio, "write_table", writer)
        path = tmp_path / f"{len(written)}.dat"
        assert main([*argv, "--out", str(path)]) == EXIT_OK
        written.append(path.read_bytes())
    assert len(written[0].split(b"\n")) == 2 + 6 * 40 + 1
    assert written[1] == written[0] and written[2] == written[0]
