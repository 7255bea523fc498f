"""Deterministic file formats for grids and tables.

Every emitted file is a single JSON header line, a line naming the columns,
and one CSV row per point; floats are printed with 17 significant digits so
parsing recovers the exact bit pattern, and headers use sorted keys so
identical jobs emit identical bytes.  `write_table` is the one writer of
this format and `_read_table` the one reader.
"""

import json

import numpy as np

__all__ = ["fmt17", "write_table", "write_wigner_grid", "read_wigner_grid",
           "write_prob_table", "read_prob_table"]

_WIGNER_COLUMNS = ("r", "q", "theta", "W")
_PROB_COLUMNS = ("k", "l", "r", "p", "theta", "v", "t", "P")

# Rows formatted per write: bounds the memory their text takes.
_CHUNK = 65536


def fmt17(x):
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _params_dict(params):
    return {"nu": params.nu, "delta": params.delta, "hbar": params.hbar,
            "zeta": params.zeta}


def write_table(path, payload, names, columns):
    """Write one result file: header `payload`, column line, then the rows.

    `columns` holds one equal-length 1-D sequence per name; row i of the
    file carries element i of each.  Integer columns print as integers,
    all others as 17-digit floats.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(names) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"need one equal-length column per name in {names}")
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), _CHUNK):
            texts = [_column_text(c[lo : lo + _CHUNK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _column_text(values):
    """The printed text of each value, formatting each distinct value once.

    Floats are told apart by their bit pattern, so -0.0 and 0.0 (and NaNs)
    keep their own text.
    """
    if np.issubdtype(values.dtype, np.integer):
        keys, spec = values, "d"
    else:
        values = np.ascontiguousarray(values, dtype=float)
        keys, spec = values.view(np.int64), ".17g"
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    text = np.array([format(v, spec) for v in values[first].tolist()], dtype=object)
    return text[inverse].tolist()


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
    points = [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]
    write_table(path, payload, _WIGNER_COLUMNS, points + [np.ravel(grid.values)])


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


def write_prob_table(columns, params, path):
    """Emit a probability table: JSON header, then CSV k,l,r,p,theta,v,t,P.

    `columns` holds the eight equal-length columns in that order; the header
    repeats zeta at the top level.
    """
    payload = {"type": "prob_table", "params": _params_dict(params), "zeta": params.zeta}
    write_table(path, payload, _PROB_COLUMNS, columns)


def read_prob_table(path):
    """Parse a probability table back; returns (header dict, row list)."""
    return _read_table(path, _PROB_COLUMNS,
                       lambda f: (int(f[0]), int(f[1]), *map(float, f[2:])))
