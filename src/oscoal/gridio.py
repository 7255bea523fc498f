"""Deterministic file formats for grids and tables.

Every emitted file is a single JSON header line, a line naming the columns,
and one CSV row per point; floats are printed with 17 significant digits so
parsing recovers the exact bit pattern, and headers use sorted keys so
identical jobs emit identical bytes.  `write_table` is the one writer of
this format and `_read_table` the one reader.

Callers hand `write_table` the rows in factored form: the grid axes, whose
product in C order gives the rows, and a row function that returns the
per-row columns of one block of rows, given the block's index into each
axis.  So no column is ever held whole.  The writer works on blocks of
`_CHUNK` rows held as rows of byte cells, where a NUL cell stands for no
character.  Each axis value's text is formatted once and gathered per row
(`np.unravel_index`); the columns' texts are formatted a block at a time by
`_float_cells`; a block's bytes are its cells with the NULs deleted.  The
bytes are those of `format(x, ".17g")` value by value (`str` for
integers).

`_float_cells` finds the 17 digits of a float64 x = M 2**(e - 64), M its
53-bit significand shifted to 64 bits, in uint64 arithmetic.  With d =
floor(log10 |x|) estimated by `np.log10`, it takes the high word H of the
128-bit product of M and a 64-bit truncated significand of 10**(16 - d),
built from 32-bit limbs.  H lies below the true product by less than 2
units, and is rounded to the 17-digit integer N.  A value is printed from N
only when N lies in [10**16, 10**17) and the rounding decision lies outside
that 2-unit window.  A zero is printed from N = 0 with the mask of d = 0,
its sign cell kept.  All others (inf, nan, near-ties, a wrong estimate of
d) are formatted by `format(x, ".17g")` in the same call.  On the 800 000
values of `wigner --k 1 --l 3` that fallback takes 0.88%, all of them
near-ties.  The digits come from a table of 4-digit groups and sit in a
fixed row of cells (sign, a "0.000" lead, a digit and a point cell per
digit, the exponent); a mask row, keyed by the decimal exponent's class and
the position of the last nonzero digit, zeroes the cells a value does not
show.
"""

import functools
import json
import math

import numpy as np

__all__ = ["fmt17", "write_table", "write_wigner_grid", "read_wigner_grid",
           "write_prob_table", "read_prob_table"]

_WIGNER_COLUMNS = ("r", "q", "theta", "W")
_PROB_COLUMNS = ("k", "l", "r", "p", "theta", "v", "t", "P")

# Rows formatted per block: bounds the memory their cells take.
_CHUNK = 4096

# A block row is a run of 8-byte words.  One float's text takes six: the
# sign, the "0.000" lead of a small fixed-notation value, 17 digit cells
# each followed by a point cell, then "e", the exponent's sign and three
# exponent digits, two spare cells and the separator.  A mask row keeps the
# cells a value shows.
_WORDS = 6
_EXPONENT = 40  # the cell of "e"
# Decimal exponent classes: d = -4..16 (fixed notation), then scientific
# notation with two exponent digits and with three.
_CLASSES = 23
# Decimal exponents d of nonzero finite doubles, with a margin of one.
_DMIN, _DMAX = -325, 309
_U = np.uint64


def fmt17(x):
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _params_dict(params):
    return {"nu": params.nu, "delta": params.delta, "hbar": params.hbar,
            "zeta": params.zeta}


def write_table(path, payload, names, axes, rows):
    """Write one result file: header `payload`, column line, then the rows.

    The rows run over the product of `axes` in C order (the last axis
    fastest); each axis is a 1-D sequence, or 2-D with one column per field
    of an entry.  An axis of shape (n, 0) prints nothing, so an axis too
    long to format whole can be a column.  `rows(*index)` gets the per-axis
    index arrays of one block of `_CHUNK` rows and returns that block's
    columns, one array per remaining name.  Integer arrays print as
    integers, all others as 17-digit floats.
    """
    axes = [np.asarray(a) for a in axes]
    axes = [a[:, None] if a.ndim == 1 else a for a in axes]
    printed = [a.shape[1] > 0 for a in axes]
    texts = [_axis_text(a) for a, shown in zip(axes, printed) if shown]
    shape = [len(a) for a in axes]
    fields = sum(a.shape[1] for a in axes)
    n = math.prod(shape)
    head = (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            + ",".join(names) + "\n")
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for lo in range(0, n, _CHUNK):
            index = np.unravel_index(np.arange(lo, min(n, lo + _CHUNK)), shape)
            columns = [np.asarray(c) for c in rows(*index)]
            if fields + len(columns) != len(names) or any(
                    c.shape != index[0].shape for c in columns):
                raise ValueError(f"need one axis field or one block column per name in {names}")
            fh.write(_block(texts, [i for i, shown in zip(index, printed) if shown], columns))


def _block(texts, index, columns):
    """The bytes of one block of rows: the axis `texts` gathered by the
    `index` arrays, then the `columns`, each value followed by a comma and
    the last by a newline.  There is at least one column."""
    # the words of each axis text and of each column with its separator
    edges = np.cumsum([0] + [t.itemsize // 8 for t in texts] + [_words(c) for c in columns])
    # a bytearray, so that deleting the NULs copies it only once
    data = bytearray(8 * len(columns[0]) * int(edges[-1]))
    block = np.frombuffer(data, np.uint64).reshape(len(columns[0]), edges[-1])
    for text, i, a, b in zip(texts, index, edges, edges[1:]):
        block[:, a:b].view(text.dtype)[:, 0] = np.take(text, i)
    for c, a, b in zip(columns, edges[len(texts) :], edges[len(texts) + 1 :]):
        _cells(c, block[:, a:b])
    cells = block.view(np.uint8)
    cells[:, 8 * edges[len(texts) + 1 :] - 1] = ord(",")
    cells[:, -1] = ord("\n")
    return data.translate(None, b"\0")


def _words(values):
    """The words one value of the array `values` takes, separator included."""
    return 3 if np.issubdtype(values.dtype, np.integer) else _WORDS


def _cells(values, out):
    """Write the texts of the 1-D `values` into the NUL-padded word rows of
    `out`, leaving each row's last cell for the separator."""
    if np.issubdtype(values.dtype, np.integer):
        out[:] = values.astype("S24").view(np.uint64).reshape(len(values), 3)
    else:
        _float_cells(values.astype(np.float64, copy=False), out)


def _axis_text(axis):
    """The text of each entry of a 2-D `axis` (its fields, each followed by a
    comma), NUL-padded to whole words, as an array of void items."""
    rows = b"".join(_block([], (), list(axis[lo : lo + _CHUNK].T))
                    for lo in range(0, len(axis), _CHUNK))
    texts = np.array(rows.replace(b"\n", b",\n").split(b"\n")[:-1], dtype=bytes)
    size = -(-texts.itemsize // 8) * 8
    return texts.astype(f"S{size}").view(f"V{size}")


def _float_cells(x, out):
    """Write the `format(v, ".17g")` text of each float64 v of `x` into the
    NUL-padded word rows of the (len(x), _WORDS) uint64 array `out`."""
    sig, exp, expwords, classes, groups, zeros, leads, masks = _tables()
    a = np.abs(x)
    fast = np.isfinite(a) & (a != 0)
    a[~fast] = 1.0
    frac, e2 = np.frexp(a)
    # k indexes the tables by the estimated decimal exponent d = floor(log10 |x|)
    k = (np.floor(np.log10(a, out=a), out=a) - _DMIN).astype(np.intp)
    del a
    m = np.ldexp(frac, 53, out=frac).astype(np.uint64) << _U(11)
    del frac
    # x 10**(16 - d) = (h + delta) / 2**shift with 0 <= delta < 2
    shift = -(e2 + exp[k])
    del e2
    fast &= (shift >= 1) & (shift <= 63)
    shift = np.clip(shift, 1, 63).astype(np.uint64)
    h = _mulhi(m, sig[k])
    del m
    half = _U(1) << (shift - _U(1))
    n17 = h >> shift
    h &= (half << _U(1)) - _U(1)  # the remainder below the shift
    up = h > half
    fast &= up | (h + _U(1) < half)  # the remainder is not half - 1 or half
    del h, half, shift
    fast &= n17 >= _U(10**16)  # so |x| 10**(16 - d) >= 10**16: d is not too large
    n17 += up
    del up
    fast &= n17 < _U(10**17)  # nor too small
    n17[~fast] = _U(10**16)
    zero = x == 0  # N = 0 under the mask of d = 0 (k is that of a = 1): "0" or "-0"
    n17[zero] = _U(0)
    fast |= zero
    # N = lead 10**16 + g1 10**12 + g2 10**8 + g3 10**4 + g4, as table indices
    hi, lo = np.divmod(n17.view(np.int64), 10**8)
    del n17
    lead, hi = np.divmod(hi, 10**8)
    g1, g2 = np.divmod(hi, 10**4)
    g3, g4 = np.divmod(lo, 10**4)
    del hi, lo
    lead[np.signbit(x)] += 10
    out[:, 0] = leads[lead]
    for col, g in enumerate((g1, g2, g3, g4), 1):
        out[:, col] = groups[g]
    out[:, 5] = expwords[k]
    # the position of the last nonzero digit, from the groups' trailing zeros
    last = 16 - (zeros[g4] + (g4 == 0) * (zeros[g3] + (g3 == 0) * (
        zeros[g2] + (g2 == 0) * zeros[g1])))
    del lead, g1, g2, g3, g4
    out &= masks[classes[k] + last]
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = np.array([format(v, ".17g") for v in x[slow].tolist()], dtype=f"S{8 * _WORDS}")
        out[slow] = texts.view(np.uint64).reshape(len(slow), _WORDS)


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of the uint64 arrays a and b."""
    low, w = _U(0xFFFFFFFF), _U(32)
    a1, a0, b1, b0 = a >> w, a & low, b >> w, b & low
    cross1, cross0 = a1 * b0, a0 * b1
    mid = ((a0 * b0) >> w) + (cross1 & low) + (cross0 & low)
    return a1 * b1 + (cross1 >> w) + (cross0 >> w) + (mid >> w)


@functools.cache
def _tables():
    """The lookup tables of `_float_cells`, built on first use.

    Per decimal exponent d from _DMIN to _DMAX: the 64-bit truncated
    significand p and the exponent s with p 2**s <= 10**(16 - d) < (p + 1) 2**s,
    the exponent word "e+dd" and the first mask row of d's class.  Per
    integer below 10**4: its four digits, each followed by a point, and its
    trailing zeros (four for 0).  Per sign and leading digit: the first word.
    The mask rows, keyed by class and the position of the last nonzero digit.
    """
    sig, exp, expwords, classes = [], [], [], []
    for d in range(_DMIN, _DMAX + 1):
        k = 16 - d
        if k >= 0:
            s = (10**k).bit_length() - 64
            p = 10**k >> s if s >= 0 else 10**k << -s
        else:
            s = -63 - (10**-k).bit_length()
            p = (1 << -s) // 10**-k
        sig.append(p)
        exp.append(s)
        expwords.append(b"e%+04d\0\0\0" % d)
        classes.append(17 * (d + 4 if -4 <= d <= 16 else 21 + (abs(d) >= 100)))
    groups = np.full((10**4, 8), ord("."), np.uint8)
    places = np.array([1000, 100, 10, 1], np.uint16)
    groups[:, ::2] = np.arange(10**4, dtype=np.uint16)[:, None] // places % 10 + ord("0")
    zeros = np.zeros(10**4, np.intp)
    for place in (10, 100, 1000, 10**4):
        zeros[::place] += 1
    leads = [sign + b"0.000%d." % i for sign in (b"\0", b"-") for i in range(10)]
    masks = np.zeros((_CLASSES, 17, 8 * _WORDS), np.uint8)
    masks[..., 0] = 0xFF
    digit = range(6, 40, 2)
    for cls in range(_CLASSES):
        for last in range(17):
            shown = list(digit[: last + 1])
            d = cls - 4
            if cls >= 21:  # d.ddde+XX
                shown += [_EXPONENT, _EXPONENT + 1, _EXPONENT + 3, _EXPONENT + 4]
                shown += [_EXPONENT + 2] * (cls == 22) + [digit[0] + 1] * (last > 0)
            elif d < 0:  # 0.00ddd
                shown += range(1, 2 - d)
            else:  # ddd.ddd
                shown += list(digit[: d + 1]) + [digit[d] + 1] * (last > d)
            masks[cls, last, shown] = 0xFF
    words = lambda rows: np.frombuffer(b"".join(rows), np.uint64)
    return (np.array(sig, dtype=np.uint64), np.array(exp, dtype=np.int64), words(expwords),
            np.array(classes, dtype=np.intp), groups.view(np.uint64).ravel(), zeros,
            words(leads), masks.view(np.uint64).reshape(-1, _WORDS))


def _read_table(path, names, parse_row):
    """Header dict and the list of `parse_row(fields)` over the file's rows."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        found = fh.readline().strip()
        if found != ",".join(names):
            raise ValueError(f"{path}: expected columns {','.join(names)}, found {found!r}")
        rows = [parse_row(line.split(",")) for line in fh if line.strip()]
    return header, rows


def write_wigner_grid(grid, path):
    """Emit a WignerGrid: JSON header, then CSV rows r,q,theta,W."""
    axes = (grid.r_axis, grid.q_axis, grid.theta_axis)
    payload = {
        "type": "wigner_grid",
        "state": {"k": grid.k, "l": grid.l},
        "params": _params_dict(grid.params),
        "axes": {name: [fmt17(v) for v in ax] for name, ax in zip(("r", "q", "theta"), axes)},
        "nodes": [[[fmt17(x), fmt17(y)] for x, y in pts] for pts in grid.nodes],
    }
    write_table(path, payload, _WIGNER_COLUMNS, axes, lambda *i: [grid.values[i]])


def read_wigner_grid(path):
    """Parse a grid file back; returns (header dict, values ndarray).

    The values array is reshaped to (len(r), len(q), len(theta)) and is
    bitwise identical to what was written.
    """
    header, vals = _read_table(path, _WIGNER_COLUMNS, lambda fields: float(fields[-1]))
    shape = tuple(len(header["axes"][name]) for name in ("r", "q", "theta"))
    values = np.array(vals).reshape(shape)
    header["axes"] = {k: [float(v) for v in ax] for k, ax in header["axes"].items()}
    header["nodes"] = [[(float(x), float(y)) for x, y in pts] for pts in header["nodes"]]
    return header, values


def write_prob_table(levels, axes, rows, params, path):
    """Emit a probability table: JSON header, then CSV k,l,r,p,theta,v,t,P.

    The rows run over the (k, l) `levels` and, within each level, over the
    product of the (r, p, theta) `axes`; `rows(level, i, j, s)` returns the
    v, t and P columns of one block of rows, given the index arrays into
    `levels` and the three axes.  The header repeats zeta at the top level.
    """
    payload = {"type": "prob_table", "params": _params_dict(params), "zeta": params.zeta}
    write_table(path, payload, _PROB_COLUMNS, (np.asarray(levels), *axes), rows)


def read_prob_table(path):
    """Parse a probability table back; returns (header dict, row list)."""
    return _read_table(path, _PROB_COLUMNS,
                       lambda f: (int(f[0]), int(f[1]), *map(float, f[2:])))
