import math

import numpy as np
import pytest
from scipy.stats import chisquare

from hexagon_points import point_in_hexagon, rhombus_xy
from lattice_oracle import cochannel_with_tiers, min_rings_for_cochannel, ring_lattice
from mimocap import config
from mimocap import geometry as geometry_module
from mimocap.geometry import (
    PATH_LOSS_EXPONENT_MAX,
    CirclePatch,
    NetworkGeometry,
    circle_approximation,
    cochannel_cells,
    equal_area_radius,
    tier_specs,
)
from mimocap.simulate import sample_circle_position, sample_hexagon_position


def cell_distances(layout, resource=1):
    return sorted(
        math.hypot(*c.center) for c in layout if c.resource == resource and c.axial != (0, 0)
    )


class TestLayout:
    # checks the brute-force ring lattice that cochannel_cells is compared with
    def test_reuse1_two_rings(self, geometry):
        layout = ring_lattice(geometry, 2)
        assert len(layout) == 19
        assert all(c.resource == 1 for c in layout)

    def test_cell_count_formula(self, geometry):
        for rings in (1, 2, 3, 4):
            layout = ring_lattice(geometry, rings)
            assert len(layout) == 1 + 3 * rings * (rings + 1)

    def test_center_cell_uses_resource_one(self, geometry):
        for w in (1, 3, 7):
            layout = ring_lattice(geometry.with_reuse(w), 3)
            assert layout[0].axial == (0, 0)
            assert layout[0].resource == 1

    def test_reuse3_ring1_has_no_cochannel(self, geometry):
        # nearest reuse-3 co-channel cells sit in ring 2
        layout = ring_lattice(geometry.with_reuse(3), 1)
        assert len(layout) == 7
        assert cell_distances(layout) == []

    def test_reuse7_six_cochannel_in_ring3(self, geometry):
        layout = ring_lattice(geometry.with_reuse(7), 3)
        dists = cell_distances(layout)
        assert len(dists) == 6
        assert np.allclose(dists, 1600.0 * math.sqrt(21.0))
        # a two-ring lattice contains none of them
        small = ring_lattice(geometry.with_reuse(7), 2)
        assert len(small) == 19 and cell_distances(small) == []

    def test_color_count_equals_reuse_factor(self, geometry):
        for w in (1, 3, 7):
            layout = ring_lattice(geometry.with_reuse(w), 4)
            assert len({c.resource for c in layout}) == w

    def test_cochannel_distance_multiplicity(self, geometry):
        # co-channel distances come in multiples of 6 per tier
        for w in (1, 3):
            layout = ring_lattice(geometry.with_reuse(w), 3)
            dists = np.array(cell_distances(layout))
            for d in np.unique(np.round(dists, 6)):
                assert np.sum(np.isclose(dists, d)) % 6 == 0

    def test_unsupported_reuse_factor_rejected(self):
        with pytest.raises(ValueError, match="reuse factor"):
            NetworkGeometry(reuse_factor=4)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkGeometry(hole_radius_m=2000.0)
        with pytest.raises(ValueError):
            NetworkGeometry(path_loss_exponent=2.0)

    def test_path_loss_exponent_bounded(self):
        assert NetworkGeometry(path_loss_exponent=PATH_LOSS_EXPONENT_MAX)
        for gamma in (PATH_LOSS_EXPONENT_MAX * (1 + 1e-15), 1000.0, 1e308, math.nan):
            with pytest.raises(ValueError, match="path loss exponent"):
                NetworkGeometry(path_loss_exponent=gamma)

    def test_hole_stays_within_the_inradius(self):
        # the largest hole leaves 1 - pi / (2 sqrt 3) of the hexagon outside it
        inradius = math.sqrt(3.0) / 2.0 * 1600.0
        for hole in (0.0, 50.0, 900.0, inradius):
            assert NetworkGeometry(cell_radius_m=1600.0, hole_radius_m=hole)
        for hole in (inradius * (1 + 1e-15), 1599.9999, 2000.0, -1.0):
            with pytest.raises(ValueError, match="hole radius"):
                NetworkGeometry(cell_radius_m=1600.0, hole_radius_m=hole)

    @pytest.mark.parametrize("radius", [1e7 * (1 + 1e-15), 0.0, -1600.0, math.nan])
    def test_cell_radius_outside_its_range_rejected(self, radius):
        with pytest.raises(ValueError, match="cell radius"):
            NetworkGeometry(cell_radius_m=radius, hole_radius_m=0.0)


class TestTiers:
    def test_tier1_matches_bruteforce_lattice(self, geometry):
        # the analytic tier-1 separation must equal the minimum co-channel
        # distance found in an explicitly built lattice
        for w in (1, 3, 7):
            geo = geometry.with_reuse(w)
            spec = tier_specs(geo, 1)[0]
            brute = cell_distances(ring_lattice(geo, 4))[0]
            assert spec.separation_m == pytest.approx(brute, rel=1e-12)
            assert spec.cell_count == 6

    def test_tier1_values(self, geometry):
        assert tier_specs(geometry, 1)[0].separation_m == pytest.approx(2771.28, abs=0.01)
        geo3 = geometry.with_reuse(3)
        assert tier_specs(geo3, 1)[0].separation_m == pytest.approx(4800.0)

    def test_tier2_is_next_sublattice_shell(self, geometry):
        t1, t2 = tier_specs(geometry, 2)
        assert t2.separation_m == pytest.approx(t1.separation_m * math.sqrt(3.0))
        assert t2.cell_count == 6

    def test_separations_strictly_increase(self, geometry):
        specs = tier_specs(geometry, 5)
        seps = [t.separation_m for t in specs]
        assert seps == sorted(seps)
        assert len(set(seps)) == len(seps)

    def test_min_rings(self, geometry):
        # the tier-1 ring first appears in ring 1, 2 and 3 of the lattice
        for w, rings in ((1, 1), (3, 2), (7, 3)):
            layout = ring_lattice(geometry.with_reuse(w), 4)
            first = min(c.ring for c in layout if c.resource == 1 and c.axial != (0, 0))
            assert first == rings == min_rings_for_cochannel(w)

    def test_cochannel_cells_match_bruteforce(self, geometry):
        # the colored ring lattice holds whole tiers: its co-channel cells
        # are those of the first t tiers, same cells, same order, same tiers
        for w in (1, 3, 7):
            geo = geometry.with_reuse(w)
            for rings in range(1, 6):
                want = [(c.center, tier) for c, tier in cochannel_with_tiers(geo, rings)]
                t = max(tier for _, tier in want)
                assert [(c.center, c.tier) for c in cochannel_cells(geo, t)] == want

    def test_cochannel_cells_fill_whole_tiers(self, geometry):
        # every tier count a config can reach
        for w in (1, 3, 7):
            geo = geometry.with_reuse(w)
            for t in range(1, config._MAX_TIERS + 1):
                specs = tier_specs(geo, t)
                cells = cochannel_cells(geo, t)
                assert len(cells) == sum(s.cell_count for s in specs)
                for c in cells:
                    sep = specs[c.tier - 1].separation_m
                    assert math.hypot(*c.center) == pytest.approx(sep, rel=1e-12)

    def test_cochannel_cells_memoised_and_immutable(self, geometry):
        # every sampler call asks again: an equal geometry gets the same
        # cells back, as a tuple no caller can change under another
        cells = cochannel_cells(geometry.with_reuse(3), 2)
        assert isinstance(cells, tuple)
        assert cochannel_cells(geometry.with_reuse(3), 2) is cells
        assert cochannel_cells(geometry, 0) == ()

    def test_cochannel_cells_call_tier_specs(self, geometry, monkeypatch):
        # a cache miss labels its tiers through geometry.tier_specs, looked
        # up in the module at call time, the call a traced run counts
        real, calls = geometry_module.tier_specs, []
        monkeypatch.setattr(geometry_module, "tier_specs", lambda *a: calls.append(a) or real(*a))
        cochannel_cells.cache_clear()
        cells = cochannel_cells(geometry, 3)
        assert calls == [(geometry, 3)]
        assert cochannel_cells(geometry, 3) is cells and len(calls) == 1


class TestCircleApproximation:
    def test_equal_area_radius(self, geometry):
        tier = tier_specs(geometry, 1)[0]
        patch = circle_approximation(geometry, tier)
        assert patch.circle_radius_m == pytest.approx(1455.0, abs=0.1)
        # hexagon area == circle area
        hex_area = 3.0 * math.sqrt(3.0) / 2.0 * 1600.0**2
        assert math.pi * patch.circle_radius_m**2 == pytest.approx(hex_area)

    def test_match_radius_mode(self, geometry):
        tier = tier_specs(geometry, 1)[0]
        patch = circle_approximation(geometry, tier, "match_radius")
        assert patch.circle_radius_m == 1600.0

    def test_radius_below_separation_for_all_reuse(self, geometry):
        for w in (1, 3, 7):
            geo = geometry.with_reuse(w)
            for mode in ("equal_area", "match_radius"):
                patch = circle_approximation(geo, tier_specs(geo, 1)[0], mode)
                assert patch.circle_radius_m < patch.separation_m

    def test_patch_validation(self):
        with pytest.raises(ValueError):
            CirclePatch(circle_radius_m=2000.0, separation_m=1500.0)

    def test_unknown_mode(self, geometry):
        with pytest.raises(ValueError, match="mode"):
            circle_approximation(geometry, tier_specs(geometry, 1)[0], "bogus")


def _one_stream_hexagon(geometry, rng, size):
    """The hexagon sampler on one stream, one redraw round at a time: (2,
    size) uniforms, then (2, p) for the p draws that fell in the hole."""
    a = geometry.cell_radius_m
    r3 = math.sqrt(3.0)
    vx = np.array([0.0, r3 * a / 2.0, -r3 * a / 2.0, 0.0])
    vy = np.array([a, -a / 2.0, -a / 2.0, a])
    xs = np.empty(size)
    ys = np.empty(size)
    pending = np.arange(size)
    while pending.size:
        s, t = rng.random((2, pending.size))
        s *= 3.0
        first = s.astype(np.intp)
        s -= first
        x = s * vx[first] + t * vx[first + 1]
        y = s * vy[first] + t * vy[first + 1]
        xs[pending] = x
        ys[pending] = y
        pending = pending[x * x + y * y < geometry.hole_radius_m**2]
    return xs, ys


def _one_stream_circle(radius_m, rng, size):
    """The disc sampler on one stream: size uniforms for the radius, then
    size uniform angles."""
    return radius_m * np.sqrt(rng.random(size)), rng.uniform(0.0, 2.0 * math.pi, size)


class TestSampling:
    def test_circle_mean_radius(self, rng):
        # E[r] = integral of r * 2r/b^2 = 2b/3; Var[r] = b^2/18
        b = equal_area_radius(1600.0)
        n = 1_000_000
        [r], _ = sample_circle_position(b, [rng], n)
        se = b / math.sqrt(18.0 * n)
        assert abs(r.mean() - 2.0 * b / 3.0) <= 3.0 * se

    def test_circle_uniformity_chisquare(self, rng):
        # uniform over the disc means (r/b)^2 and theta/2pi are independent
        # uniforms; bin both and chi-square the joint histogram
        b = 1455.0
        n = 1_000_000
        [r], [theta] = sample_circle_position(b, [rng], n)
        u = (r / b) ** 2
        v = theta / (2.0 * math.pi)
        bins = 8
        hist, _, _ = np.histogram2d(u, v, bins=bins, range=[[0, 1], [0, 1]])
        _stat, p = chisquare(hist.ravel())
        assert p > 0.01

    def test_hexagon_sampler_contract(self, geometry, rng):
        n = 200_000
        [x], [y] = rhombus_xy(geometry.cell_radius_m, sample_hexagon_position(geometry, [rng], n))
        assert np.all(point_in_hexagon(x, y, geometry.cell_radius_m))
        assert np.all(x * x + y * y >= geometry.hole_radius_m**2)

    def test_rhombus_form_matches_cartesian_on_the_same_uniforms(self):
        # The sampler takes rho = a^2 (s^2 - s t + t^2) in place of x^2 + y^2
        # and decides the hole on it.  On the same uniforms, with a hole that
        # takes 38% of the first round, both forms agree to 4 ulps (10^8
        # draws reached 3.8) and take every first-round hole decision alike.
        geo = NetworkGeometry(hole_radius_m=900.0)
        a, hole2, n = geo.cell_radius_m, geo.hole_radius_m**2, 200_000
        [j], [s], [t], [rho] = sample_hexagon_position(geo, [np.random.default_rng(16)], n)
        s0, t0 = np.random.default_rng(16).random((2, n))  # the first round's uniforms
        s0 *= 3.0
        j0 = s0.astype(np.intp)
        s0 -= j0
        x0, y0 = rhombus_xy(a, (j0, s0, t0))
        redrawn = (j != j0) | (s != s0) | (t != t0)
        assert np.array_equal(redrawn, x0 * x0 + y0 * y0 < hole2)
        x, y = rhombus_xy(a, (j, s, t))
        np.testing.assert_allclose(rho, x * x + y * y, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_hexagon_uniformity_chisquare(self, geometry, rng):
        # Equal-area bins: the 12 sectors of 30 degrees are mirror images
        # under the hexagon's symmetries, and the hexagon gauge rho (the
        # scale of the smallest concentric hexagon holding the point) has
        # rho^2 uniform for a uniform point.  The hole disc lies inside the
        # first rho^2 bin, which loses its area.
        a, hole = geometry.cell_radius_m, geometry.hole_radius_m
        r3 = math.sqrt(3.0)
        n, sectors, shells = 400_000, 12, 8
        [x], [y] = rhombus_xy(geometry.cell_radius_m, sample_hexagon_position(geometry, [rng], n))
        rho2 = np.maximum(np.abs(x) / (r3 * a / 2.0), (np.abs(x) + r3 * np.abs(y)) / (r3 * a)) ** 2
        angle = np.arctan2(y, x) % (2.0 * math.pi)
        hist, _, _ = np.histogram2d(
            angle, rho2, bins=(sectors, shells), range=[[0.0, 2.0 * math.pi], [0.0, 1.0]]
        )
        hex_area = 3.0 * r3 / 2.0 * a * a
        assert hole / (r3 * a / 2.0) < math.sqrt(1.0 / shells)  # hole within the first bin
        shell_area = np.full(shells, hex_area / shells)
        shell_area[0] -= math.pi * hole * hole
        expected = np.tile(shell_area / shell_area.sum() / sectors * n, (sectors, 1))
        _stat, p = chisquare(hist.ravel(), expected.ravel())
        assert p > 0.01

    def test_each_row_is_drawn_from_its_own_stream(self):
        # row i of a call over streams [a, b, c] is the one-stream draw of a
        # fresh copy of stream i, which ends where that draw ends; the wide
        # hole makes several hexagon redraw rounds of unequal sizes
        geo = NetworkGeometry(hole_radius_m=900.0)
        samplers = (
            (
                lambda rngs: rhombus_xy(geo.cell_radius_m, sample_hexagon_position(geo, rngs, 500)),
                lambda rng: _one_stream_hexagon(geo, rng, 500),
            ),
            (
                lambda rngs: sample_circle_position(1455.0, rngs, 500),
                lambda rng: _one_stream_circle(1455.0, rng, 500),
            ),
        )
        seeds = (1, 2, 3)
        for sample, reference in samplers:
            streams = [np.random.default_rng(s) for s in seeds]
            xs, ys = sample(streams)
            assert xs.shape == ys.shape == (3, 500)
            for i, s in enumerate(seeds):
                fresh = np.random.default_rng(s)
                x, y = reference(fresh)
                assert np.array_equal(xs[i], x) and np.array_equal(ys[i], y)
                assert fresh.random() == streams[i].random()
                [x], [y] = sample([np.random.default_rng(s)])
                assert np.array_equal(xs[i], x) and np.array_equal(ys[i], y)

    def test_hexagon_without_hole(self, rng):
        geo = NetworkGeometry(hole_radius_m=0.0)
        [x], [y] = rhombus_xy(geo.cell_radius_m, sample_hexagon_position(geo, [rng], 10_000))
        assert np.min(x * x + y * y) < 100.0**2  # points reach the center

    def test_hexagon_area_vs_rejection_rate(self, geometry, rng):
        # sanity: sampled density is uniform, so the mean squared radius
        # matches the hexagon's (minus the hole) to Monte Carlo accuracy
        a = geometry.cell_radius_m
        hole = geometry.hole_radius_m
        n = 400_000
        [x], [y] = rhombus_xy(geometry.cell_radius_m, sample_hexagon_position(geometry, [rng], n))
        r2 = x * x + y * y
        # E[r^2] over hexagon = 5 a^2 / 12; hole correction is O((a_h/a)^4)
        hex_area = 3.0 * math.sqrt(3.0) / 2.0 * a * a
        hole_area = math.pi * hole * hole
        expect = (5.0 / 12.0 * a * a * hex_area - math.pi / 2.0 * hole**4) / (
            hex_area - hole_area
        )
        se = np.std(r2) / math.sqrt(n)
        assert abs(r2.mean() - expect) <= 4.0 * se
