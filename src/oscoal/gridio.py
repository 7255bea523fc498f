"""Deterministic file formats for grids and tables.

Every emitted file is a single JSON header line, a line naming the columns,
and one CSV row per point; floats are printed with 17 significant digits so
parsing recovers the exact bit pattern, and headers use sorted keys so
identical jobs emit identical bytes.  `write_table` is the one writer of
this format and `_read_table` the one reader.

Callers hand `write_table` the rows in factored form: the grid axes, whose
product in C order gives the rows, then the per-row columns.  Each axis
value is formatted once, and each block of rows is written with a single
`%` formatting of a row template (`%.17g` is the conversion of
`format(x, ".17g")`), so the bytes are those of formatting value by value.
"""

import itertools
import json
import math

import numpy as np

__all__ = ["fmt17", "write_table", "write_wigner_grid", "read_wigner_grid",
           "write_prob_table", "read_prob_table"]

_WIGNER_COLUMNS = ("r", "q", "theta", "W")
_PROB_COLUMNS = ("k", "l", "r", "p", "theta", "v", "t", "P")

# Rows formatted per write (at least one group of rows): bounds the memory
# their text takes, and the number of axis combinations in a row template.
# `prob --zeta 2.0` (28830 rows) at 65536/16384/8192: tracemalloc peak
# 16.9/6.6/3.8 MB, peak RSS 47.1/39.6/34.9 MB; the 62 MB `wigner` grid
# peaks at 61.4/60.2/60.2 MB and writes as fast at 8192.
_CHUNK = 8192


def fmt17(x):
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _params_dict(params):
    return {"nu": params.nu, "delta": params.delta, "hbar": params.hbar,
            "zeta": params.zeta}


def write_table(path, payload, names, axes, columns):
    """Write one result file: header `payload`, column line, then the rows.

    The rows run over the product of `axes` in C order (the last axis
    fastest); each axis is a 1-D sequence, or 2-D with one column per field
    of an entry.  `columns` holds the per-row values, one sequence per
    remaining name, each as long as the product of the axis lengths (or, with
    no axes, all of one length).  Integer arrays print as integers, all
    others as 17-digit floats.
    """
    axes = [np.asarray(a) for a in axes]
    axes = [a[:, None] if a.ndim == 1 else a for a in axes]
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    n = math.prod(len(a) for a in axes) if axes else next(iter(lengths), 0)
    if lengths != {n} or sum(a.shape[1] for a in axes) + len(columns) != len(names):
        raise ValueError(f"need one axis field or one {n}-row column per name in {names}")
    # Each axis value is formatted once.  The trailing axes, up to _CHUNK
    # combinations, are spelled out in the template of a group of rows, where
    # "\0" stands for the text of the leading axes, which changes from group
    # to group; the texts of numbers hold no "\0" and no "%".
    texts = [_axis_text(a) for a in axes]
    split = len(texts)
    while split and math.prod(map(len, texts[split - 1 :])) <= _CHUNK:
        split -= 1
    specs = ",".join(map(_spec, columns)) + "\n"
    inner = list(map("".join, itertools.product(*texts[split:])))
    size, group = len(inner), "\0" + (specs + "\0").join(inner) + specs
    # groups of `size` rows, whole groups per block; an empty inner axis leaves no rows
    groups, step = (n // size, max(1, _CHUNK // size)) if size else (0, 1)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, groups, step):
            hi = min(groups, lo + step)
            template = "".join(group.replace("\0", _lead(texts[:split], g)) for g in range(lo, hi))
            values = zip(*(c[lo * size : hi * size].tolist() for c in columns))
            fh.write(template % tuple(itertools.chain.from_iterable(values)))


def _spec(values):
    """The printf conversion of an array's values: whole numbers or 17-digit floats."""
    return "%d" if np.issubdtype(values.dtype, np.integer) else "%.17g"


def _axis_text(axis):
    """The text of each entry of a 2-D `axis`: its fields, each followed by a comma."""
    entry = (_spec(axis) + ",") * axis.shape[1]
    return [entry % tuple(fields) for fields in axis.tolist()]


def _lead(texts, g):
    """The text of the leading axes, with value texts `texts`, in group `g`."""
    parts = []
    for t in reversed(texts):
        g, i = divmod(g, len(t))
        parts.append(t[i])
    return "".join(reversed(parts))


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
    write_table(path, payload, _WIGNER_COLUMNS, axes, [np.ravel(grid.values)])


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


def write_prob_table(levels, points, prob, params, path):
    """Emit a probability table: JSON header, then CSV k,l,r,p,theta,v,t,P.

    The rows run over the (k, l) `levels` and, within each level, over the
    rows (r, p, theta, v, t) of the (n, 5) `points`; `prob` holds P, one
    value per row.  The header repeats zeta at the top level.
    """
    payload = {"type": "prob_table", "params": _params_dict(params), "zeta": params.zeta}
    write_table(path, payload, _PROB_COLUMNS, (np.asarray(levels), points), [prob])


def read_prob_table(path):
    """Parse a probability table back; returns (header dict, row list)."""
    return _read_table(path, _PROB_COLUMNS,
                       lambda f: (int(f[0]), int(f[1]), *map(float, f[2:])))
