"""Ensemble coalescence yields from classical two-species particle lists.

In the semi-classical picture, a transport code hands over lists of particle
positions and momenta; each cross-species pair is treated as two Gaussian
wave packets whose centroids are those classical coordinates, and the pair
contributes its coalescence probability P_kl, weighted by the spin-color
statistical factor of the channel, to the channel yield.  The final-momentum
spectrum uses the centroid total momentum P_i = p1 + p2, either sharply
(delta limit, the default) or smeared by the Gaussian overlap factor J.

Input format: CSV with header ``species,rx,ry,rz,px,py,pz[,weight]`` in the
natural units declared alongside (nu, delta, hbar); see `load_particles`.
The loader reads the file in blocks of `_BLOCK` lines with numpy's C reader,
CRLF line ends included.  From the first block that numpy cannot read as
`float` would, or with a long line or a row that fails a check, `csv.reader`
reads the rest, so quoted fields and blank rows keep the csv module's meaning
and errors name the same line as when the whole file goes through `csv`.

The pair loop enumerates the full cross product while it fits the budget and
falls back to uniform random pair sampling beyond that; fixed seeds give
bit-identical reports (numpy pairwise summation keeps the reduction order
deterministic).  Channel yields and spectra within one (k, l) level are
integer multiples of a shared scaled base sum and base spectrum, so ratios
fixed by the statistical weights (pi+ : rho+ = 1 : 3) hold exactly.

Pairs stream through `pair_yields` along the tree of numpy's pairwise
summation (`_pairwise`): the pair range splits where `np.sum` would split an
array of one value per pair, down to leaves of at most `_CHUNK` pairs.  Each
leaf builds its relative coordinates, evaluates `p_kl_batch`, deposits its
spectra and returns the sums of its w1 w2 P_kl per level, and the walk adds
those up the tree, so every yield is bit for bit the `np.sum` over all pairs.
A sampled run draws its pairs leaf by leaf, and its standard error is a
second walk that redraws them (`_pairwise_std`); no mode holds anything per
pair.  A smeared deposit takes its rows in blocks of at most `_DEPOSIT_CELLS`
cells through one workspace per call.  Spectrum bins add their pairs in pair
order, leaf after leaf, so the report is the same bytes for every `_CHUNK`.
"""

import csv
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coalescence import p_kl_batch

__all__ = [
    "ParticleRecord",
    "ParticleTable",
    "Channel",
    "MCConfig",
    "ChannelYield",
    "YieldReport",
    "KNOWN_SPECIES",
    "load_particles",
    "channel_table",
    "pair_yields",
    "spectrum",
]

KNOWN_SPECIES = ("u", "dbar")


@dataclass(frozen=True)
class ParticleRecord:
    """One classical particle: species tag, position, momentum, weight."""

    species: str
    r: tuple
    p: tuple
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        vals = self.r + self.p + (self.weight,)
        if len(self.r) != 3 or len(self.p) != 3:
            raise ValueError("r and p must have three components")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite component in particle record {self}")
        if self.weight < 0:
            raise ValueError(f"weight must be nonnegative, got {self.weight}")


@dataclass(frozen=True, eq=False)
class ParticleTable:
    """Particles column by column, in file order.

    `species` holds the (n,) tags, `r` and `p` are (n, 3) and `weight` is
    (n,).  Indexing returns one row as a `ParticleRecord`.
    """

    species: np.ndarray
    r: np.ndarray
    p: np.ndarray
    weight: np.ndarray

    def __len__(self):
        return len(self.weight)

    def __getitem__(self, i):
        return ParticleRecord(str(self.species[i]), self.r[i].tolist(), self.p[i].tolist(),
                              float(self.weight[i]))

    def select(self, tag):
        """The rows of species `tag`, in file order."""
        keep = self.species == tag
        return ParticleTable(self.species[keep], self.r[keep], self.p[keep], self.weight[keep])


@dataclass(frozen=True)
class Channel:
    """A meson channel: final level (k, l) and exact statistical weight."""

    name: str
    k: int
    l: int
    stat_weight: Fraction

    def __post_init__(self):
        if not (0 < self.stat_weight <= 1):
            raise ValueError(f"stat_weight must be in (0, 1], got {self.stat_weight}")


@dataclass(frozen=True)
class MCConfig:
    """Pair-loop configuration: seed, pair budget, spectrum options."""

    seed: int = 0
    max_pairs: int = 1_000_000
    pf_bins: tuple = None
    pf_axis: int = 2
    smear: bool = False

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("max_pairs", self.max_pairs)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers are not JSON
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.max_pairs <= 0:
            raise ValueError(f"pair budget must be positive, got {self.max_pairs}")
        if self.pf_axis not in (0, 1, 2):
            raise ValueError(f"pf_axis must be 0, 1 or 2, got {self.pf_axis}")
        if self.pf_bins is not None:
            edges = np.asarray(self.pf_bins, dtype=float)
            if (edges.ndim != 1 or len(edges) < 2 or not np.isfinite(edges).all()
                    or np.any(np.diff(edges) <= 0)):
                raise ValueError("pf_bins must be at least two finite, strictly increasing edges")
            object.__setattr__(self, "pf_bins", tuple(edges.tolist()))


@dataclass(frozen=True)
class ChannelYield:
    value: float
    stderr: float


@dataclass
class YieldReport:
    """Per-channel yields with standard errors, optional spectra, MC metadata."""

    channels: dict
    spectra: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "channels": [
                {"name": name, "yield": cy.value, "stderr": cy.stderr}
                for name, cy in self.channels.items()
            ],
            "spectra": {
                name: {"edges": list(sp["edges"]), "values": list(sp["values"])}
                for name, sp in self.spectra.items()
            }
            or None,
            "mc": self.mc,
        }


def load_particles(source):
    """Parse a particle CSV into a `ParticleTable`, validating every row.

    `source` is a path or an open text stream.  Header must be
    species,rx,ry,rz,px,py,pz with an optional trailing weight column, and
    every nonblank row must have the header's number of fields.  Malformed
    or non-finite rows raise ValueError naming the line; species outside
    `KNOWN_SPECIES` raise listing the known tags.
    """
    if hasattr(source, "read"):
        return _parse_particles(source)
    with open(source, newline="") as fh:
        return _parse_particles(fh)


_HEADER = ["species", "rx", "ry", "rz", "px", "py", "pz"]

# Lines converted at a time: bounds the text held in memory.
_BLOCK = 16384

# Most pairs per leaf of `pair_yields`: bounds its per-leaf arrays.  Measured
# against 8192 and 16384: those were no faster on the smeared path and
# raised its peak.
_CHUNK = 4096

# Most cells (rows x edges) of one block of a smeared deposit: bounds each
# array of its workspace near 8 MB.  A leaf of `_CHUNK` pairs at up to 255
# bins is one block.
_DEPOSIT_CELLS = 1 << 20

# numpy adds a contiguous float64 array by pairwise summation: a range of more
# than this many elements splits at half its length, rounded down to a
# multiple of 8, and a range of at most this many is summed as one block.
_PAIRWISE_BLOCK = 128


def _parse_particles(fh):
    try:
        header = [h.strip() for h in next(csv.reader(fh), _HEADER)]
    except csv.Error as exc:
        raise ValueError(f"line 1: {exc}") from None
    if header[:7] != _HEADER or len(header) > 8 or (len(header) == 8 and header[7] != "weight"):
        raise ValueError(
            f"unexpected header {header}; expected species,rx,ry,rz,px,py,pz[,weight]"
        )
    width = len(header)
    parts = []
    lineno = 2
    while lines := list(itertools.islice(fh, _BLOCK)):
        table = _split_block(lines, width)
        if table is None:
            parts += _csv_blocks(itertools.chain(lines, fh), width, lineno)
            break
        parts.append(table)
        lineno += len(lines)
    if not parts:
        parts.append(_table([], np.empty((0, width - 1)), width))
    return ParticleTable(*(np.concatenate([getattr(t, f) for t in parts])
                           for f in ("species", "r", "p", "weight")))


def _split_block(lines, width):
    """The table of a block of plain lines, or None unless every line is a good row.

    numpy's C reader converts the numbers.  It fails where `float` does, and on
    a quote, NUL, lone CR, `1_0` or non-ASCII digit; it strips U+001C-U+001F as
    whitespace, which `float` rejects, so those go to `csv` with long lines.
    """
    text = "".join(lines)
    # a short line fails numpy and a blank one the tag check: the total pins every line
    if (max(map(len, lines)) > csv.field_size_limit()
            or text.count(",") != len(lines) * (width - 1)
            or any(map(text.__contains__, "\x1c\x1d\x1e\x1f"))):
        return None
    tags = [line.partition(",")[0].strip() for line in lines]
    if not set(tags) <= set(KNOWN_SPECIES):
        return None
    try:
        nums = np.loadtxt(lines, delimiter=",", usecols=range(1, width), comments=None, ndmin=2)
    except ValueError:
        return None
    return _table(tags, nums, width)


def _csv_blocks(lines, width, lineno):
    """The tables of the `csv` rows of `lines`, block by block; row 1 is line `lineno`.

    A row that `csv` cannot read raises ValueError naming its line; a row
    before it in the same block that fails a check is reported first.
    """
    reader = csv.reader(lines)
    while True:
        rows = []
        try:
            for row in itertools.islice(reader, _BLOCK):
                rows.append(row)
        except csv.Error as exc:
            raise _first_error(rows, width, lineno) or ValueError(
                f"line {lineno + len(rows)}: {exc}") from None
        if not rows:
            return
        table = _columns([row for row in rows if "".join(row).strip()], width)
        if table is None:
            raise _first_error(rows, width, lineno)
        yield table
        lineno += len(rows)


def _columns(rows, width):
    """The table of nonblank `rows`, or None if any row fails a check."""
    if any(len(row) != width for row in rows):
        return None
    tags = [row[0].strip() for row in rows]
    if not set(tags) <= set(KNOWN_SPECIES):
        return None
    try:
        nums = np.array([f for row in rows for f in row[1:]], dtype=float)
    except ValueError:
        return None
    return _table(tags, nums.reshape(len(rows), width - 1), width)


def _table(tags, nums, width):
    """The table of known `tags` and their (rows, width - 1) numbers, or None if a check fails."""
    weight = nums[:, 6] if width == 8 else np.ones(len(nums))
    if not np.isfinite(nums).all() or np.any(weight < 0):
        return None
    return ParticleTable(np.array(tags, dtype=str), nums[:, 0:3], nums[:, 3:6], weight)


def _first_error(rows, width, start):
    """The ValueError, naming its line, of the first row that fails a check.

    Row 1 of `rows` is line `start` of the file.
    """
    for lineno, row in enumerate(rows, start=start):
        if not "".join(row).strip():
            continue
        if len(row) != width:
            return ValueError(f"line {lineno}: expected {width} fields, got {len(row)}")
        species = row[0].strip()
        if species not in KNOWN_SPECIES:
            return ValueError(
                f"line {lineno}: unknown species {species!r}; known: {', '.join(KNOWN_SPECIES)}"
            )
        try:
            nums = [float(c) for c in row[1:]]
            ParticleRecord(species, nums[0:3], nums[3:6], nums[6] if width == 8 else 1.0)
        except ValueError as exc:
            return ValueError(f"line {lineno}: {exc}")


def channel_table():
    """The eight u-dbar meson channels with their statistical weights.

    Spin-color factors for a statistical quark ensemble: 1/(4*9) per meson
    spin state times the (2j+1) degeneracy, on top of the level probability
    P_kl of the channel's (k, l).
    """
    f = Fraction
    return [
        Channel("pi+", 0, 0, f(1, 36)),
        Channel("rho+", 0, 0, f(3, 36)),
        Channel("b1+", 0, 1, f(1, 36)),
        Channel("a0+", 0, 1, f(3, 324)),
        Channel("a1+", 0, 1, f(9, 324)),
        Channel("a2+", 0, 1, f(15, 324)),
        Channel("pi(1300)+", 1, 0, f(1, 36)),
        Channel("rho(1450)+", 1, 0, f(3, 36)),
    ]


def _species_arrays(particles):
    """Tags, r, p and weights of a `ParticleTable` or a list of `ParticleRecord`s."""
    if isinstance(particles, ParticleTable):
        return set(particles.species.tolist()), particles.r, particles.p, particles.weight
    r = np.array([rec.r for rec in particles], dtype=float)
    p = np.array([rec.p for rec in particles], dtype=float)
    w = np.array([rec.weight for rec in particles], dtype=float)
    return {rec.species for rec in particles}, r, p, w


def pair_yields(species1, species2, channels, params, mc_config):
    """Channel yields from all (or sampled) cross-species pairs.

    Each species is a `ParticleTable` or a list of `ParticleRecord`s.
    yield_c = scale * sum_pairs w1 w2 * stat_weight_c * P_{kl(c)}(rel pair),
    where scale corrects for pair sampling (1 for full enumeration).  The
    report also carries per-channel standard errors (zero when enumerating)
    and, when mc_config.pf_bins is set, final-momentum spectra.

    Pairs are built, evaluated and deposited a leaf of at most `_CHUNK` at a
    time, along the tree of numpy's pairwise summation (`_pairwise`).  Leaf
    [lo, hi) takes pairs lo to hi - 1 when exact and draws hi - lo pairs from
    `np.random.default_rng(seed)` when sampled, in walk order: one draw's
    stream.  The standard error walks again and evaluates every drawn pair a
    second time.  Nothing is kept per pair, and every sum adds the pairs as
    one `np.sum` or one pass does, so the report does not depend on `_CHUNK`.
    """
    if not species1 or not species2:
        raise ValueError("both species lists must be nonempty")
    tags1, r1, p1, w1 = _species_arrays(species1)
    tags2, r2, p2, w2 = _species_arrays(species2)
    if tags1 & tags2:
        raise ValueError(f"species lists overlap in tags {sorted(tags1 & tags2)}")
    channels = list(channels)
    n2 = len(w2)
    total_pairs = len(w1) * n2

    npairs = min(total_pairs, mc_config.max_pairs)
    scale = total_pairs / npairs
    mode = "exact" if npairs == total_pairs else "sampled"
    # exact runs never create a generator, nor import numpy.random
    rng = None if mode == "exact" else np.random.default_rng(mc_config.seed)

    # Channels of one level share a base sum and a base spectrum scaled by a
    # common denominator, so their yields and spectra are exact small-integer
    # multiples of each other.
    by_level = {}
    for c in channels:
        by_level.setdefault((c.k, c.l), []).append(c)
    levels = sorted(by_level)
    common = {lv: math.lcm(*(c.stat_weight.denominator for c in chans))
              for lv, chans in by_level.items()}
    edges = None if mc_config.pf_bins is None else np.asarray(mc_config.pf_bins)
    axis = mc_config.pf_axis
    sums = {}
    # One leaf's arrays, allocated once per call: w1 w2 P_kl per level and
    # its scaled masses, the pair indices, the relative coordinates and the
    # smeared deposit's workspace.
    width = max(_CHUNK, _PAIRWISE_BLOCK)
    smeared = edges is not None and mc_config.smear
    work = _smear_workspace(width, len(edges) - 1) if smeared else None
    mass_buf, scaled_buf = np.empty((2, len(levels), width))
    index = np.empty((2, width), dtype=np.intp)
    coords = np.empty((3, width, 3))

    def leaf_masses(lo, hi, deposit):
        """The w1 w2 P_kl per level of the pairs of leaf [lo, hi), deposited if `deposit`."""
        n = hi - lo
        pairs = np.arange(lo, hi) if rng is None else rng.integers(0, total_pairs, size=n)
        i_idx, j_idx = np.divmod(pairs, n2, out=tuple(index[:, :n]))
        # the indices are in range: with mode "clip", `take` writes straight to `out`
        rel_r, rel_p, other = coords[:, :n]
        np.subtract(r1.take(i_idx, 0, rel_r, "clip"), r2.take(j_idx, 0, other, "clip"), out=rel_r)
        np.subtract(p1.take(i_idx, 0, rel_p, "clip"), p2.take(j_idx, 0, other, "clip"), out=rel_p)
        rel_p *= 0.5
        probs = p_kl_batch(levels, rel_r, rel_p, params)
        pair_w = w1[i_idx] * w2[j_idx]
        masses = [np.multiply(pair_w, probs[lv], out=buf[:n]) for lv, buf in zip(levels, mass_buf)]
        if deposit and edges is not None:
            scaled = {lv: np.divide(np.multiply(scale, m, out=buf[:n]), common[lv], out=buf[:n])
                      for lv, m, buf in zip(levels, masses, scaled_buf)}
            _deposit(sums, scaled, p1[i_idx, axis] + p2[j_idx, axis], edges, params, work)
        return masses

    totals = _pairwise(lambda lo, hi: np.array([np.sum(m) for m in leaf_masses(lo, hi, True)]),
                       npairs, _CHUNK)
    sds = np.zeros(len(levels))
    if mode == "sampled" and npairs > 1:
        # a fresh generator: the second walk's leaves draw the first walk's pairs
        rng = np.random.default_rng(mc_config.seed)
        sds = _pairwise_std(lambda lo, hi: leaf_masses(lo, hi, False), totals, npairs, _CHUNK)
    totals, sds = dict(zip(levels, totals)), dict(zip(levels, sds))

    report = {}
    spectra = {}
    for level, chans in by_level.items():
        unit = scale * float(totals[level]) / common[level]
        unit_err = scale * float(sds[level]) * math.sqrt(npairs) / common[level]
        if edges is not None:
            unit_dens = sums[level] / np.diff(edges)
        for c in chans:
            num = int(c.stat_weight * common[level])
            report[c.name] = ChannelYield(num * unit, num * unit_err)
            if edges is not None:
                spectra[c.name] = {"edges": edges.tolist(), "values": (num * unit_dens).tolist()}
    return YieldReport(channels={c.name: report[c.name] for c in channels}, spectra=spectra,
                       mc={"seed": mc_config.seed, "pairs": npairs, "mode": mode})


def _pairwise(leaf, n, limit):
    """The sums of `leaf` over [0, n), added as `np.sum` adds the elements.

    `leaf(lo, hi)` returns an array of sums (by `np.sum`) over the range
    [lo, hi) of some per-element arrays.  The walk splits [0, n) where
    numpy's pairwise summation splits it until a range holds at most
    max(`limit`, 128) elements, calls `leaf` on those ranges in order and
    adds the two halves of every split, so each sum is bit for bit the
    `np.sum` of the whole per-element array.  That holds for the sign of a
    zero too: numpy starts a sum at +0.0, so no leaf sum and no total is
    -0.0.
    """
    limit = max(limit, _PAIRWISE_BLOCK)

    def walk(lo, hi):
        if hi - lo <= limit:
            return leaf(lo, hi)
        half = (hi - lo) // 2
        half -= half % 8
        return walk(lo, lo + half) + walk(lo + half, hi)

    return walk(0, n)


def _pairwise_std(leaf, totals, n, limit):
    """The `np.std(ddof=1)` of n >= 2 per-element arrays whose `_pairwise` sums are `totals`.

    `leaf(lo, hi)` returns the elements [lo, hi) of each array.  A second walk
    repeats `np.std` operation for operation: the mean total / n, the pairwise
    sum of the squared deviations, the division by n - 1 and the square root.
    """
    means = totals / n

    def squares(lo, hi):
        return np.array([np.sum(np.square(a - mu)) for a, mu in zip(leaf(lo, hi), means)])

    return np.sqrt(_pairwise(squares, n, limit) / (n - 1))


def _smear_workspace(rows, nbins):
    """The arrays of a smeared deposit of up to `rows` pairs into `nbins` bins.

    Sized for one block of at most `_DEPOSIT_CELLS` // (nbins + 1) rows.  A
    block's (rows x edges) CDF values and then its [sums; rows] share the
    scratch.  The shares have at least two columns; a single bin's second
    stays zero, so that numpy adds its rows in order as it does for more bins.
    """
    rows = min(rows, max(1, _DEPOSIT_CELLS // (nbins + 1)))
    return np.empty((rows + 1) * (nbins + 1)), np.zeros((rows, max(nbins, 2)))


def _deposit(sums, masses, centers, edges, params, work):
    """Add one chunk of per-pair masses, spread over the bins, to the bin sums.

    `masses` maps each key to the masses of the chunk's pairs, whose
    centroid momenta are `centers`; `sums` maps the key to its bin sums over
    the earlier chunks and gets the new sums (a key it lacks starts here).
    `work` is None for a sharp deposit, and a smeared one's
    `_smear_workspace`, whose rows the chunk goes through block by block.
    Each bin adds its pairs in order, as one pass over all pairs does: a
    sharp deposit by `np.add.at`, a smeared one by summing [sums; rows]
    down axis 0, which numpy does row by row for two or more columns (a
    single bin has a zero second column for that).
    """
    nbins = len(edges) - 1
    if work is None:
        idx = np.searchsorted(edges, centers, side="right") - 1
        ok = (idx >= 0) & (idx < nbins)
        for key, m in masses.items():
            np.add.at(sums.setdefault(key, np.zeros(nbins)), idx[ok], m[ok])
        return
    # imported here, so that runs without smearing never load scipy
    from scipy.special import erf

    scratch, share = work
    for lo in range(0, len(centers), len(share)):
        hi = min(lo + len(share), len(centers))
        n = hi - lo
        # per-axis marginal of J integrates to erf differences across edges
        z = np.subtract(edges[None, :], centers[lo:hi, None],
                        out=scratch[: n * (nbins + 1)].reshape(n, nbins + 1))
        z *= params.delta / params.hbar
        erf(z, out=z)
        z += 1.0
        z *= 0.5
        np.subtract(z[:, 1:], z[:, :-1], out=share[:n, :nbins])
        buf = scratch[: (n + 1) * share.shape[1]].reshape(n + 1, -1)
        for key, m in masses.items():
            rows = np.multiply(m[lo:hi, None], share[:n], out=buf[1 : n + 1])
            if key in sums:
                buf[0, :nbins] = sums[key]
                rows = buf[: n + 1]
            sums[key] = rows.sum(axis=0)[:nbins]


def spectrum(pf_bin_edges, pairs, channel, params, smear=True, axis=2):
    """Final-momentum spectrum dN/dP_f of one channel along one axis.

    `pairs` is an iterable of (ParticleRecord, ParticleRecord).  Each pair
    deposits its channel yield either sharply into the bin containing the
    centroid total momentum component (delta limit, smear=False) or spread
    with the Gaussian marginal of the overlap factor J, whose density profile
    is exp(-delta^2 (P - P_i)^2 / hbar^2).  Summed over wide enough bins the
    spectrum integrates back to the channel yield.  Edges and axis must pass
    the checks of `MCConfig`.  P_kl is evaluated for all pairs at once; a
    smeared deposit takes them in row blocks through one workspace of at
    most `_DEPOSIT_CELLS` cells per array, with the sums of one pass.
    """
    edges = np.array(MCConfig(pf_bins=pf_bin_edges, pf_axis=axis).pf_bins)
    pairs = list(pairs)
    if not pairs:
        return edges, np.zeros(len(edges) - 1)
    _, r1, p1, w1 = _species_arrays([a for a, _ in pairs])
    _, r2, p2, w2 = _species_arrays([b for _, b in pairs])
    level = (channel.k, channel.l)
    probs = p_kl_batch([level], r1 - r2, 0.5 * (p1 - p2), params)[level]
    sums = {}
    work = _smear_workspace(len(pairs), len(edges) - 1) if smear else None
    _deposit(sums, {level: w1 * w2 * float(channel.stat_weight) * probs},
             p1[:, axis] + p2[:, axis], edges, params, work)
    return edges, sums[level] / np.diff(edges)
