import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from oscoal.coalescence import PhasePoint, p_kl_closed, v_and_t
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
        assert load_particles(io.StringIO("")) == []
        assert load_particles(io.StringIO("species,rx,ry,rz,px,py,pz\n")) == []

    def test_two_rows(self):
        txt = "species,rx,ry,rz,px,py,pz\nu,0,0,0,0,0,0\ndbar,1,2,3,0.1,0.2,0.3\n"
        recs = load_particles(io.StringIO(txt))
        assert len(recs) == 2
        assert recs[0].species == "u" and recs[1].species == "dbar"
        assert recs[1].r == (1.0, 2.0, 3.0)
        assert recs[0].weight == 1.0

    def test_weight_column(self):
        txt = "species,rx,ry,rz,px,py,pz,weight\nu,0,0,0,0,0,0,2.5\n"
        assert load_particles(io.StringIO(txt))[0].weight == 2.5

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
        assert len(load_particles(path)) == 1


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

    def test_misordered_edges_rejected(self, params):
        with pytest.raises(ValueError):
            spectrum(np.array([0.0, -1.0, 1.0]), [], channel_table()[0], params)

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
