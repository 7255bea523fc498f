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

The pair loop enumerates the full cross product while it fits the budget and
falls back to uniform random pair sampling beyond that; fixed seeds give
bit-identical reports (numpy pairwise summation keeps the reduction order
deterministic).  Channel yields and spectra within one (k, l) level are
integer multiples of a shared scaled base sum and base spectrum, so ratios
fixed by the statistical weights (pi+ : rho+ = 1 : 3) hold exactly.
"""

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import erf

from .coalescence import p_kl_batch

__all__ = [
    "ParticleRecord",
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
        if self.max_pairs <= 0:
            raise ValueError(f"pair budget must be positive, got {self.max_pairs}")
        if self.pf_axis not in (0, 1, 2):
            raise ValueError(f"pf_axis must be 0, 1 or 2, got {self.pf_axis}")
        if self.pf_bins is not None:
            edges = tuple(float(e) for e in self.pf_bins)
            if (len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:]))
                    or not all(map(math.isfinite, edges))):
                raise ValueError("pf_bins must be at least two finite, strictly increasing edges")
            object.__setattr__(self, "pf_bins", edges)


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


def load_particles(source, known_species=KNOWN_SPECIES):
    """Parse a particle CSV into records, validating every row.

    `source` is a path or an open text stream.  Header must be
    species,rx,ry,rz,px,py,pz with an optional trailing weight column.
    Malformed or non-finite rows raise ValueError naming the line; species
    outside `known_species` raise listing the known tags.
    """
    if hasattr(source, "read"):
        return _parse_particles(source, known_species)
    with open(source, newline="") as fh:
        return _parse_particles(fh, known_species)


_HEADER = ["species", "rx", "ry", "rz", "px", "py", "pz"]


def _parse_particles(fh, known_species):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        return []
    header = [h.strip() for h in header]
    if header[:7] != _HEADER or len(header) > 8 or (len(header) == 8 and header[7] != "weight"):
        raise ValueError(
            f"unexpected header {header}; expected species,rx,ry,rz,px,py,pz[,weight]"
        )
    out = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) not in (7, 8):
            raise ValueError(f"line {lineno}: expected 7 or 8 fields, got {len(row)}")
        species = row[0].strip()
        if species not in known_species:
            raise ValueError(
                f"line {lineno}: unknown species {species!r}; known: {', '.join(known_species)}"
            )
        try:
            nums = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        weight = nums[6] if len(nums) == 7 else 1.0
        try:
            out.append(ParticleRecord(species, tuple(nums[0:3]), tuple(nums[3:6]), weight))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


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


def _species_arrays(records):
    r = np.array([rec.r for rec in records], dtype=float)
    p = np.array([rec.p for rec in records], dtype=float)
    w = np.array([rec.weight for rec in records], dtype=float)
    return r, p, w


def pair_yields(species1, species2, channels, params, mc_config):
    """Channel yields from all (or sampled) cross-species pairs.

    yield_c = scale * sum_pairs w1 w2 * stat_weight_c * P_{kl(c)}(rel pair),
    where scale corrects for pair sampling (1 for full enumeration).  The
    report also carries per-channel standard errors (zero when enumerating)
    and, when mc_config.pf_bins is set, final-momentum spectra.
    """
    if not species1 or not species2:
        raise ValueError("both species lists must be nonempty")
    tags1 = {rec.species for rec in species1}
    tags2 = {rec.species for rec in species2}
    if tags1 & tags2:
        raise ValueError(f"species lists overlap in tags {sorted(tags1 & tags2)}")
    channels = list(channels)
    r1, p1, w1 = _species_arrays(species1)
    r2, p2, w2 = _species_arrays(species2)
    n1, n2 = len(species1), len(species2)
    total_pairs = n1 * n2

    if total_pairs <= mc_config.max_pairs:
        i_idx, j_idx = np.divmod(np.arange(total_pairs), n2)
        scale = 1.0
        mode = "exact"
    else:
        rng = np.random.default_rng(mc_config.seed)
        flat = rng.integers(0, total_pairs, size=mc_config.max_pairs)
        i_idx, j_idx = np.divmod(flat, n2)
        scale = total_pairs / mc_config.max_pairs
        mode = "sampled"

    rel_r = r1[i_idx] - r2[j_idx]
    rel_p = 0.5 * (p1[i_idx] - p2[j_idx])
    pair_w = w1[i_idx] * w2[j_idx]
    npairs = len(i_idx)

    levels = sorted({(c.k, c.l) for c in channels})
    probs = p_kl_batch(levels, rel_r, rel_p, params)

    # Channels of one level share a base sum and a base spectrum scaled by a
    # common denominator, so their yields and spectra are exact small-integer
    # multiples of each other.
    report = {}
    spectra = {}
    edges = mc_config.pf_bins
    if edges is not None:
        p_i = p1[i_idx, mc_config.pf_axis] + p2[j_idx, mc_config.pf_axis]
    by_level = {}
    for c in channels:
        by_level.setdefault((c.k, c.l), []).append(c)
    for level, chans in by_level.items():
        common = math.lcm(*(c.stat_weight.denominator for c in chans))
        contrib = pair_w * probs[level]
        base = scale * float(np.sum(contrib))
        unit = base / common
        if mode == "sampled":
            sd = float(np.std(contrib, ddof=1)) if npairs > 1 else 0.0
            unit_err = scale * sd * math.sqrt(npairs) / common
        else:
            unit_err = 0.0
        if edges is not None:
            unit_dens = _deposit(np.asarray(edges), p_i, scale * contrib / common,
                                 params, mc_config.smear)
        for c in chans:
            num = int(c.stat_weight * common)
            report[c.name] = ChannelYield(num * unit, num * unit_err)
            if edges is not None:
                spectra[c.name] = {"edges": list(edges), "values": (num * unit_dens).tolist()}
    ordered = {c.name: report[c.name] for c in channels}
    return YieldReport(
        channels=ordered,
        spectra=spectra,
        mc={"seed": mc_config.seed, "pairs": npairs, "mode": mode},
    )


def _deposit(edges, centers, masses, params, smear):
    """Distribute pair masses over momentum bins; returns densities dN/dP."""
    widths = np.diff(edges)
    if smear:
        d, hbar = params.delta, params.hbar
        # per-axis marginal of J integrates to erf differences across edges
        z = (edges[None, :] - centers[:, None]) * (d / hbar)
        cdf = 0.5 * (1.0 + erf(z))
        mass_in_bin = masses[:, None] * np.diff(cdf, axis=1)
        return mass_in_bin.sum(axis=0) / widths
    counts = np.zeros(len(widths))
    idx = np.searchsorted(edges, centers, side="right") - 1
    ok = (idx >= 0) & (idx < len(widths))
    np.add.at(counts, idx[ok], masses[ok])
    return counts / widths


def spectrum(pf_bin_edges, pairs, channel, params, smear=True, axis=2):
    """Final-momentum spectrum dN/dP_f of one channel along one axis.

    `pairs` is an iterable of (ParticleRecord, ParticleRecord).  Each pair
    deposits its channel yield either sharply into the bin containing the
    centroid total momentum component (delta limit, smear=False) or spread
    with the Gaussian marginal of the overlap factor J, whose density profile
    is exp(-delta^2 (P - P_i)^2 / hbar^2).  Summed over wide enough bins the
    spectrum integrates back to the channel yield.
    """
    edges = np.asarray(pf_bin_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be a strictly increasing 1-D sequence")
    pairs = list(pairs)
    if not pairs:
        return edges, np.zeros(len(edges) - 1)
    rel_r = np.array([[a - b for a, b in zip(p1.r, p2.r)] for p1, p2 in pairs])
    rel_p = np.array([[0.5 * (a - b) for a, b in zip(p1.p, p2.p)] for p1, p2 in pairs])
    w = np.array([p1.weight * p2.weight for p1, p2 in pairs])
    probs = p_kl_batch([(channel.k, channel.l)], rel_r, rel_p, params)[(channel.k, channel.l)]
    masses = w * float(channel.stat_weight) * probs
    centers = np.array([p1.p[axis] + p2.p[axis] for p1, p2 in pairs])
    return edges, _deposit(edges, centers, masses, params, smear)
