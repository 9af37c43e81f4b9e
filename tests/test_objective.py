import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import evtraj.objective as objective
from evtraj.assoc import build_consecutive_delta_field, build_displacement_volume, event_lookup
from evtraj.events import EventSlice
from evtraj.objective import (
    FIXED_REFERENCES,
    ObjectiveConfig,
    build_iwe,
    contrast_g,
    contrast_pass,
    regularizer_r,
    voting_stencil,
    warp_events,
    write_iwe_pgm,
    zero_warp_contrast,
)
from evtraj.optimize import loss_gradient
from evtraj.trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField

from oracles import (
    bilinear_pass_unpadded,
    contrast_scalar,
    iwe_full_stencil,
    iwe_gaussian_scalar,
    iwe_scalar,
    pullback_full_stencil,
    regularizer_scalar,
    warp_scalar,
)
from scenes import constant_scene, event_entries, gt_field, own_sites, shared_site_slice


def random_slice(rng, n=1000, width=32, height=32):
    return EventSlice.from_arrays(
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.uniform(0.0, 1.0, n),
        rng.choice([-1, 1], n),
        width,
        height,
        t_start=0.0,
        t_end=1.0,
    )


def random_table(rng, width=32, height=32, stride=4, n_bins=5, scale=1.5):
    """A random (n_bins, rows, cols, 2) displacement table."""
    return rng.normal(0.0, scale, (n_bins, -(-height // stride), -(-width // stride), 2))


def random_delta(rng, sl, stride=4, n_bins=5, scale=1.5):
    """Per-event displacements read from a random table, as the estimator
    reads its volume."""
    return event_entries(sl, random_table(rng, sl.width, sl.height, stride, n_bins, scale), stride)


class TestWarp:
    def test_identity_with_zero_volume(self):
        rng = np.random.default_rng(0)
        sl = random_slice(rng)
        warped = warp_events(sl, 0, own_sites(sl))
        np.testing.assert_array_equal(warped.positions[:, 0], sl.x)
        np.testing.assert_array_equal(warped.positions[:, 1], sl.y)
        assert warped.positions.dtype == np.float64
        assert warped.n_masked == 0
        np.testing.assert_array_equal(warped.weights, 1.0)

    def test_constant_offscreen_volume_masks_everything(self):
        rng = np.random.default_rng(1)
        sl = random_slice(rng, n=500)
        warped = warp_events(sl, np.full((len(sl), 2), [-1000.0, 0.0]), own_sites(sl))
        assert warped.n_masked == len(sl)

    def test_matches_scalar_lookup(self):
        rng = np.random.default_rng(2)
        sl = random_slice(rng, n=1000)
        table = random_table(rng)
        delta = event_entries(sl, table, 4)
        np.testing.assert_array_equal(warp_events(sl, delta, own_sites(sl)).positions, warp_scalar(sl, table, 4))

    def test_geometry_mismatch_rejected(self):
        # a table that does not tile the slice, and a displacement per event
        # of another slice
        rng = np.random.default_rng(3)
        sl = random_slice(rng, width=32, height=32)
        with pytest.raises(ValueError, match="tile a 32x32 slice"):
            event_lookup(sl, 15, 4).read(np.zeros((15, 4, 4, 2)))
        with pytest.raises(ValueError):
            warp_events(sl, np.zeros((len(sl) - 1, 2)), own_sites(sl))

    def test_time_weights_mean_one(self):
        rng = np.random.default_rng(4)
        sl = random_slice(rng)
        warped = warp_events(sl, random_delta(rng, sl, scale=0.5), own_sites(sl), t_ref=0.3)
        kept = warped.weights[warped.mask]
        assert kept.mean() == pytest.approx(1.0)
        dt = np.abs(0.3 - sl.normalized_times())
        ratio = warped.weights / dt
        np.testing.assert_allclose(ratio, ratio[0])


class TestIwe:
    def test_single_event_integer_pixel(self):
        sl = EventSlice.from_arrays([3], [4], [0.5], [1], 8, 8, t_start=0, t_end=1)
        warped = warp_events(sl, 0, own_sites(sl))
        iwe = build_iwe(warped)
        assert iwe.shape == (2, 8, 8)
        assert iwe[0, 4, 3] == 1.0
        assert iwe[0].sum() == 1.0
        assert iwe[1].sum() == 0.0

    def test_halfway_bilinear_split(self):
        sl = EventSlice.from_arrays([3], [4], [0.5], [1], 8, 8, t_start=0, t_end=1)
        warped = warp_events(sl, [[0.5, 0.0]], own_sites(sl))
        iwe = build_iwe(warped)
        assert iwe[0, 4, 3] == pytest.approx(0.5)
        assert iwe[0, 4, 4] == pytest.approx(0.5)

    def test_matches_scalar_accumulation(self):
        rng = np.random.default_rng(7)
        sl = random_slice(rng, n=1000)
        warped = warp_events(sl, random_delta(rng, sl), own_sites(sl), t_ref=0.5)
        iwe = build_iwe(warped)
        for plane, events in ((0, sl.p > 0), (1, sl.p < 0)):
            ref = iwe_scalar(warped.positions, warped.weights, warped.mask & events, 32, 32)
            np.testing.assert_allclose(iwe[plane], ref, atol=1e-6)

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 1.5])
    def test_gaussian_matches_scalar_accumulation(self, sigma):
        rng = np.random.default_rng(19)
        sl = random_slice(rng, n=600)
        warped = warp_events(sl, random_delta(rng, sl), own_sites(sl), t_ref=0.5)
        kept = warped.positions[warped.mask]
        reach = 3.0 * sigma
        # some events are masked, and kept ones sit within 3 sigma of every border
        assert 0 < warped.n_masked < len(sl) // 2
        for axis, size in ((0, 32), (1, 32)):
            assert (kept[:, axis] < reach).any() and (kept[:, axis] > size - 1 - reach).any()
        iwe = build_iwe(warped, sigma=sigma)
        for plane, events in ((0, sl.p > 0), (1, sl.p < 0)):
            ref = iwe_gaussian_scalar(warped.positions, warped.weights, warped.mask & events, 32, 32, sigma)
            np.testing.assert_allclose(iwe[plane], ref, rtol=1e-12, atol=1e-14)

    def test_polarity_split_routes_by_sign(self):
        rng = np.random.default_rng(8)
        sl = random_slice(rng, n=400)
        warped = warp_events(sl, 0, own_sites(sl))
        iwe = build_iwe(warped)
        assert iwe[0].sum() == pytest.approx(float((sl.p > 0).sum()))
        assert iwe[1].sum() == pytest.approx(float((sl.p < 0).sum()))

    @pytest.mark.parametrize("sigma", [0.0, 0.8, 1.5])
    def test_mass_conservation(self, sigma):
        rng = np.random.default_rng(9)
        sl = random_slice(rng, n=800)
        warped = warp_events(sl, random_delta(rng, sl, scale=3.0), own_sites(sl), t_ref=0.5)
        iwe = build_iwe(warped, sigma=sigma)
        total_weight = warped.weights[warped.mask].sum()
        assert iwe.sum() == pytest.approx(total_weight, rel=1e-6)

    def test_identity_invariance_bit_exact(self):
        # zero coefficients: IWE equals raw accumulation image, R = 0
        rng = np.random.default_rng(10)
        sl = random_slice(rng, n=2000)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 10))
        vol = build_displacement_volume(field, 0.77, 8, n_bins=15)
        warped = warp_events(sl, event_entries(sl, vol.disp, field.stride), own_sites(sl))
        iwe = build_iwe(warped)
        raw = np.zeros((32, 32))
        np.add.at(raw, (sl.y, sl.x), 1.0)
        assert np.array_equal(iwe.sum(axis=0), raw)
        assert regularizer_r(build_consecutive_delta_field(field, vol)[0])[0] == 0.0

    def test_pgm_render(self, tmp_path):
        rng = np.random.default_rng(11)
        sl = random_slice(rng, n=300)
        iwe = build_iwe(warp_events(sl, 0, own_sites(sl)))
        path = tmp_path / "iwe.pgm"
        write_iwe_pgm(iwe, path, bits=8)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n#")
        assert raw.count(b"\n", 0, 60) >= 3

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("which", ["sum", "pos", "neg"])
    def test_pgm_dequantises_to_polarity_histograms(self, tmp_path, bits, which):
        rng = np.random.default_rng(25)
        sl = random_slice(rng, n=2000, width=24, height=16)
        events = {"sum": sl.p != 0, "pos": sl.p > 0, "neg": sl.p < 0}[which]
        hist = np.zeros((16, 24))
        np.add.at(hist, (sl.y[events], sl.x[events]), 1.0)
        # every event its own site, and the stride-1 lookups that render
        # builds, whose sites at 1 and 15 bins hold several events each
        lookups = [own_sites(sl), event_lookup(sl, 1, 1), event_lookup(sl, 15, 1)]
        assert all(len(lookup.first) < len(sl) for lookup in lookups[1:])
        for lookup in lookups:
            path = tmp_path / "iwe.pgm"
            write_iwe_pgm(build_iwe(warp_events(sl, 0, lookup)), path, bits=bits, which=which)
            magic, comment, size, maxval, body = path.read_bytes().split(b"\n", 4)
            assert (magic, size, int(maxval)) == (b"P5", b"24 16", (1 << bits) - 1)
            peak = float(comment.rsplit(b" ", 1)[1])
            pixels = np.frombuffer(body, dtype=">u2" if bits == 16 else "u1").reshape(16, 24)
            assert peak == hist.max()
            assert pixels.max() == (1 << bits) - 1
            # a quantization step of peak / maxval < 1 recovers the integer counts
            np.testing.assert_array_equal(np.round(pixels * peak / int(maxval)), hist)


def lookup_and_contrast_pass(sl, table, stride, sigma):
    """One reference time's contrast path, table to table cotangent."""
    lookup = event_lookup(sl, len(table), stride)
    return lookup.pullback(contrast_pass(sl, lookup.read(table), sigma, 0.5, lookup)[1])


class TestVotingBlocks:
    @pytest.mark.parametrize("sigma", [0.0, 0.7, 1.0, 3.0])
    def test_block_size_does_not_change_bits(self, monkeypatch, sigma):
        rng = np.random.default_rng(23)
        sl = random_slice(rng, n=400)
        delta = random_delta(rng, sl)
        warped = warp_events(sl, delta, own_sites(sl), t_ref=0.5)
        assert 0 < warped.n_masked
        kernels = voting_stencil(warped.positions, 32, 32, sigma)
        axes = (*[(c, k, objective._axis_slope(k, f, sigma)) for c, k, f in kernels], warped.mask * warped.weights)
        taps = axes[0][1].shape[0] ** 2
        plane = (sl.p < 0).astype(np.int64)
        # the unblocked definition: one np.bincount over every event's taps
        ref = iwe_full_stencil(axes, plane, 32, 32)
        ref_g, dgdi = contrast_g(ref)
        ref_grad = np.stack(pullback_full_stencil(axes, plane, 32, 32, dgdi), axis=1)
        for events_per_block in (1, 37, len(sl)):
            monkeypatch.setattr(objective, "_BLOCK_TAPS", events_per_block * taps)
            assert np.array_equal(build_iwe(warped, sigma=sigma), ref)
            g, grad, n_masked = contrast_pass(sl, delta, sigma, 0.5, own_sites(sl))
            assert g == ref_g
            assert np.array_equal(grad, ref_grad)
            assert n_masked == warped.n_masked

    def test_bilinear_matches_unpadded_formulation_bit_for_bit(self):
        # displacements on a quarter-pixel lattice put events exactly on the
        # right and bottom edges, where the unpadded stencil clipped a tap
        rng = np.random.default_rng(26)
        sl = random_slice(rng, n=3000, width=24, height=16)
        delta = np.round(random_delta(rng, sl) * 4.0) / 4.0
        warped = warp_events(sl, delta, own_sites(sl), t_ref=0.5)
        x, y = warped.positions[warped.mask].T
        assert np.any(x == 23.0) and np.any(y == 15.0) and 0 < warped.n_masked
        ref, ref_pullback = bilinear_pass_unpadded(
            warped.positions, warped.mask, warped.weights, warped.polarity, 24, 16
        )
        assert build_iwe(warped).tobytes() == ref.tobytes()
        ref_g, dgdi = contrast_g(ref)
        g, grad, _ = contrast_pass(sl, delta, 0.0, 0.5, own_sites(sl))
        assert g == ref_g
        assert grad.tobytes() == np.stack(ref_pullback(dgdi), axis=1).tobytes()

    def test_contrast_pass_memory_is_bounded(self):
        # sigma = 3 votes over 400 taps per event: one (N, 400) float64 array
        # of 20,000 events alone would take 61 MB
        rng = np.random.default_rng(24)
        sl = random_slice(rng, n=20_000, width=128, height=96)
        table = random_table(rng, width=128, height=96, stride=8)
        tracemalloc.start()
        try:
            lookup_and_contrast_pass(sl, table, 8, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_sigma1_pass_memory_at_benchmark_size(self):
        # 200,000 events at sigma = 1 vote over 64 taps each: (N, l) kernel
        # arrays or (N, 64) taps would take 13 or 102 MB apiece
        rng = np.random.default_rng(27)
        sl = random_slice(rng, n=200_000, width=128, height=96)
        table = random_table(rng, width=128, height=96, stride=8)
        tracemalloc.start()
        try:
            lookup_and_contrast_pass(sl, table, 8, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


def stencil_axes(positions, weight, sigma):
    """The oracles' ((cx, kx, dkx), (cy, ky, dky), weight) for rows at
    ``positions`` of the given weights."""
    kernels = voting_stencil(positions, 32, 32, sigma)
    return (*[(c, k, objective._axis_slope(k, f, sigma)) for c, k, f in kernels], weight)


class TestSharedSites:
    """Events that share a (time bin, pixel, polarity) vote once, as one
    site at their summed weight, and get one pullback contraction."""

    def test_sites_group_the_events_that_share_an_entry(self):
        rng = np.random.default_rng(28)
        sl = shared_site_slice(rng)
        lookup = event_lookup(sl, 5, 4)
        assert len(lookup.first) == 150
        np.testing.assert_array_equal(lookup.site[lookup.first], np.arange(150))
        # a site's events match its first in bin, pixel and polarity
        for a in (np.minimum(np.floor(sl.t * 5), 4), sl.x, sl.y, sl.p):
            np.testing.assert_array_equal(a, a[lookup.first][lookup.site])
        table = random_table(rng)
        warped = warp_events(sl, lookup.read(table), lookup, t_ref=0.5)
        per_event = warp_events(sl, lookup.read(table)[lookup.site], own_sites(sl), t_ref=0.5)
        # what warp_events returns still counts events, one mask entry each
        assert len(warped.mask) == len(sl)
        assert 0 < warped.n_masked == per_event.n_masked
        np.testing.assert_array_equal(warped.positions[lookup.site], per_event.positions)
        np.testing.assert_array_equal(warped.weights, per_event.weights)
        for sigma in (0.0, 1.0):
            assert zero_warp_contrast(sl, sigma, lookup) == zero_warp_contrast(sl, sigma, own_sites(sl))

    @staticmethod
    def stencils(sigma):
        """The shared-site slice warped per event and per site, each
        event's mask * weight, and the collapsed-site stencil: one row per
        site at its events' weights, summed in event order, with its IWE,
        contrast and per-site gradient."""
        rng = np.random.default_rng(29)
        sl = shared_site_slice(rng)
        table = random_table(rng)
        lookup = event_lookup(sl, len(table), 4)
        per_event = warp_events(sl, lookup.read(table)[lookup.site], own_sites(sl), t_ref=0.5)
        warped = warp_events(sl, lookup.read(table), lookup, t_ref=0.5)
        event_weight = per_event.mask * per_event.weights
        axes = stencil_axes(warped.positions, np.bincount(lookup.site, weights=event_weight), sigma)
        plane = (warped.polarity < 0).astype(np.int64)
        ref = iwe_full_stencil(axes, plane, 32, 32)
        ref_g, dgdi = contrast_g(ref)
        ref_grad = np.stack(pullback_full_stencil(axes, plane, 32, 32, dgdi), axis=1)
        return sl, table, lookup, per_event, warped, event_weight, axes, (ref, ref_g, dgdi, ref_grad)

    @pytest.mark.parametrize("sigma", [0.0, 0.7, 1.0, 3.0])
    def test_shared_sites_match_the_per_event_stencil_bit_for_bit(self, sigma):
        sl, _, lookup, per_event, _, event_weight, axes, (ref, ref_g, dgdi, ref_grad) = self.stencils(sigma)
        event_axes = stencil_axes(per_event.positions, event_weight, sigma)
        # every event's stencil row, kernel and slope, is its site's bit for bit
        for (ce, ke, dke), (cs, ks, dks) in zip(event_axes[:2], axes[:2]):
            np.testing.assert_array_equal(ce, cs[lookup.site])
            assert ke.tobytes() == np.ascontiguousarray(ks[:, lookup.site]).tobytes()
            assert np.ascontiguousarray(dke).tobytes() == np.ascontiguousarray(dks[:, lookup.site]).tobytes()
        # every event voting on its own gives the same sums to the last digits
        event_plane = (sl.p < 0).astype(np.int64)
        event_iwe = iwe_full_stencil(event_axes, event_plane, 32, 32)
        np.testing.assert_allclose(event_iwe, ref, rtol=1e-12)
        assert contrast_g(event_iwe)[0] == pytest.approx(ref_g, rel=1e-12)
        event_grad = pullback_full_stencil(event_axes, event_plane, 32, 32, dgdi)
        summed = np.stack([np.bincount(lookup.site, weights=g) for g in event_grad], axis=1)
        np.testing.assert_allclose(summed, ref_grad, rtol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 0.7, 1.0, 3.0])
    def test_shared_sites_match_the_collapsed_site_stencil_bit_for_bit(self, monkeypatch, sigma):
        sl, table, lookup, per_event, warped, _, axes, (ref, ref_g, _, ref_grad) = self.stencils(sigma)
        # whole sites are masked: some warped off-image, others kept
        masked = np.unique(lookup.site[~per_event.mask])
        assert 0 < len(masked) < len(lookup.first)
        assert np.bincount(lookup.site)[masked].min() >= 2
        taps = axes[0][1].shape[0] ** 2
        for sites_per_block in (1, 37, len(lookup.first)):
            monkeypatch.setattr(objective, "_BLOCK_TAPS", sites_per_block * taps)
            assert build_iwe(warped, sigma=sigma).tobytes() == ref.tobytes()
            g, grad, n_masked = contrast_pass(sl, lookup.read(table), sigma, 0.5, lookup)
            assert g == ref_g
            assert grad.tobytes() == ref_grad.tobytes()
            assert n_masked == per_event.n_masked

    def test_sigma1_pass_memory_with_shared_sites_at_benchmark_size(self):
        # about 195,000 events over 23,000 sites, 8.5 per site, as
        # splat-dense-128 holds 200,000 over 22,704
        rng = np.random.default_rng(30)
        sl = shared_site_slice(rng, n_sites=23_000, width=128, height=96, repeats=(2, 15))
        table = random_table(rng, width=128, height=96, stride=8)
        tracemalloc.start()
        try:
            lookup_and_contrast_pass(sl, table, 8, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestContrast:
    def test_zero_image(self):
        assert contrast_g(np.zeros((2, 8, 8)))[0] == 0.0

    def test_single_spike_frozen_value(self):
        # forward-diff stencil: |gx|=1 left of spike, |gy|=1 above, sqrt(2) at it
        img = np.zeros((9, 9))
        img[4, 4] = 1.0
        iwe = np.stack([img, np.zeros_like(img)])
        assert contrast_g(iwe)[0] == pytest.approx(2.0 + np.sqrt(2.0))
        assert contrast_g(iwe)[0] == pytest.approx(contrast_scalar(img))

    def test_matches_scalar_stencil(self):
        rng = np.random.default_rng(12)
        img_p = rng.random((13, 17))
        img_n = rng.random((13, 17))
        iwe = np.stack([img_p, img_n])
        assert contrast_g(iwe)[0] == pytest.approx(
            contrast_scalar(img_p) + contrast_scalar(img_n), rel=1e-12
        )

    def test_true_warp_sharper_than_identity(self):
        # Gaussian voting: point-sampled raw accumulations are already
        # pixel-sharp, so the sharpening signal lives at sigma > 0
        sl, _, spec = constant_scene(width=48, height=48, n_points=80, n_events=6000, seed=3)
        field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        vol_true = build_displacement_volume(field, 1.0, 8, n_bins=15)
        delta = event_entries(sl, vol_true.disp, field.stride)
        g_true = contrast_g(build_iwe(warp_events(sl, delta, own_sites(sl)), sigma=1.0))[0]
        g_zero = contrast_g(build_iwe(warp_events(sl, 0, own_sites(sl)), sigma=1.0))[0]
        assert g_true > g_zero

    def test_translation_equivariance_of_g(self):
        # interior events, small displacements: nothing masked on either canvas
        rng = np.random.default_rng(13)
        sl = EventSlice.from_arrays(
            rng.integers(6, 18, 800),
            rng.integers(6, 18, 800),
            rng.uniform(0, 1, 800),
            rng.choice([-1, 1], 800),
            24,
            24,
            t_start=0.0,
            t_end=1.0,
        )
        table = random_table(rng, width=24, height=24, scale=0.4)
        warped = warp_events(sl, event_entries(sl, table, 4), own_sites(sl))
        assert warped.n_masked == 0
        g_small = contrast_g(build_iwe(warped))[0]
        shifted = EventSlice.from_arrays(
            sl.x + 8, sl.y + 4, sl.t, sl.p, 40, 36, t_start=0.0, t_end=1.0
        )
        table_big = np.zeros((5, 9, 10, 2))
        table_big[:, 1:7, 2:8, :] = table  # same table under the shifted cells
        warped_big = warp_events(shifted, event_entries(shifted, table_big, 4), own_sites(shifted))
        assert warped_big.n_masked == 0
        g_big = contrast_g(build_iwe(warped_big))[0]
        assert abs(g_big - g_small) < 1e-9


class TestRegularizer:
    def test_spatially_constant_field(self):
        field = np.broadcast_to([1.0, 2.0], (4, 6, 6, 2)).copy()
        assert regularizer_r(field)[0] == 0.0

    def test_empty_field(self):
        assert regularizer_r(np.zeros((0, 4, 4, 2)))[0] == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(14)
        field = rng.normal(0, 2, (5, 7, 9, 2))
        assert regularizer_r(field)[0] == pytest.approx(regularizer_scalar(field), abs=1e-10)


class TestTotalLoss:
    def test_zero_coefficients_total_is_inverse_contrast(self):
        rng = np.random.default_rng(15)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(POLYNOMIAL, 1))
        cfg = ObjectiveConfig(time_weighting=False, k=8)
        out = loss_gradient(sl, field, ((0.5, 1.0),), cfg, event_lookup(sl, cfg.n_bins, field.stride))[0]
        g0 = contrast_g(build_iwe(warp_events(sl, 0, own_sites(sl))))[0]
        assert out.total == pytest.approx(1.0 / g0)
        assert out.r == 0.0
        assert not out.degenerate

    def test_lambda_zero_total_is_pure_contrast(self):
        rng = np.random.default_rng(16)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 3))
        field.coeffs[...] = rng.normal(0, 1, field.coeffs.shape)
        cfg = ObjectiveConfig(lam=0.0, k=8)
        out = loss_gradient(sl, field, ((0.25, 1.0),), cfg, event_lookup(sl, cfg.n_bins, field.stride))[0]
        assert out.total == pytest.approx(1.0 / out.g)

    def test_breakdown_recomposes(self):
        rng = np.random.default_rng(17)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 3))
        field.coeffs[...] = rng.normal(0, 1, field.coeffs.shape)
        cfg = ObjectiveConfig(k=8)
        out = loss_gradient(sl, field, ((0.25, 1.0),), cfg, event_lookup(sl, cfg.n_bins, field.stride))[0]
        lam = cfg.lam / (sl.width * sl.height)
        assert out.r > 0.0
        assert out.total == pytest.approx(1.0 / max(out.g, 1e-8) + lam * out.r, abs=1e-12)

    def test_ground_truth_beats_zero_on_constant_flow(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=80, n_events=6000, seed=4)
        cfg = ObjectiveConfig(sigma=1.0, k=8)
        zero = TrajectoryField.zeros(48, 48, 4, Basis(POLYNOMIAL, 1))
        true = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        lookup = event_lookup(sl, cfg.n_bins, zero.stride)
        for t_ref in (0.0, 0.5, 1.0):
            true_loss = loss_gradient(sl, true, ((t_ref, 1.0),), cfg, lookup)[0]
            assert true_loss.total < loss_gradient(sl, zero, ((t_ref, 1.0),), cfg, lookup)[0].total

    def test_degenerate_flag_when_all_masked(self):
        sl = EventSlice.from_arrays([1, 2], [1, 2], [0.1, 0.9], [1, -1], 8, 8,
                                    t_start=0.0, t_end=1.0)
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[..., 0] = 1e6
        cfg = ObjectiveConfig(k=1)
        out = loss_gradient(sl, field, ((1.0, 1.0),), cfg, event_lookup(sl, cfg.n_bins, field.stride))[0]
        assert out.degenerate
        assert out.n_masked == 2
        assert np.isfinite(out.total)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(18)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 5))
        field.coeffs[...] = rng.normal(0, 2, field.coeffs.shape)
        cfg = ObjectiveConfig(k=8)
        lookup = event_lookup(sl, cfg.n_bins, field.stride)
        a = loss_gradient(sl, field, ((0.625, 1.0),), cfg, lookup)[0]
        b = loss_gradient(sl, field, ((0.625, 1.0),), cfg, lookup)[0]
        assert (a.g, a.r, a.total) == (b.g, b.r, b.total)

    @pytest.mark.parametrize("sigma", [5.5, 1e308])
    @pytest.mark.parametrize(
        "run",
        [
            lambda sl, field, sigma: loss_gradient(
                sl, field, ((0.5, 1.0),), ObjectiveConfig(sigma=sigma, k=8), event_lookup(sl, 15, field.stride)
            ),
            lambda sl, field, sigma: contrast_pass(sl, 0, sigma, 0.5, own_sites(sl)),
            lambda sl, field, sigma: zero_warp_contrast(sl, sigma, own_sites(sl)),
            lambda sl, field, sigma: build_iwe(warp_events(sl, 0, own_sites(sl)), sigma),
        ],
        ids=["loss_gradient", "contrast_pass", "zero_warp_contrast", "build_iwe"],
    )
    def test_sigma_beyond_the_sensor_is_refused_by_every_pass(self, run, sigma):
        # 3 sigma exceeds the 16x16 sensor's larger side; at 1e308 the voting
        # kernel's ceil(3 sigma) overflows
        sl = random_slice(np.random.default_rng(19), n=200, width=16, height=16)
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        with pytest.raises(ValueError, match="3 sigma exceeds the 16x16 sensor"):
            run(sl, field, sigma)


def fixed_reference_f(sl, field, cfg):
    """F of the baseline: the loss over FIXED_REFERENCES with G_0, lambda = 0
    and no time weighting, every pass through the one lookup minimize builds."""
    base = replace(cfg, lam=0.0, time_weighting=False)
    lookup = event_lookup(sl, cfg.n_bins, field.stride)
    return loss_gradient(sl, field, FIXED_REFERENCES, base, lookup, zero_warp_contrast(sl, cfg.sigma, lookup))[0].g


class TestFixedReferenceLoss:
    def test_zero_coefficients_normalization_identity(self):
        rng = np.random.default_rng(19)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(POLYNOMIAL, 1))
        cfg = ObjectiveConfig(k=8)
        assert fixed_reference_f(sl, field, cfg) == 1.0

    def test_alignment_exceeds_one(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=80, n_events=6000, seed=5)
        field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        cfg = ObjectiveConfig(sigma=1.0, k=8)
        assert fixed_reference_f(sl, field, cfg) > 1.0
