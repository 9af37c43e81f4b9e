import numpy as np
import pytest

from evtraj.assoc import DisplacementVolume, KnnConfig, build_consecutive_delta_field, build_displacement_volume
from evtraj.events import EventSlice
from evtraj.objective import (
    Iwe,
    ObjectiveConfig,
    build_iwe,
    contrast_g,
    fixed_reference_loss,
    regularizer_r,
    sample_reference_time,
    total_loss,
    warp_events,
    write_iwe_pgm,
)
from evtraj.trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField

from oracles import contrast_scalar, iwe_scalar, regularizer_scalar, warp_scalar
from scenes import constant_scene, gt_field


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


def random_volume(rng, width=32, height=32, stride=4, n_bins=5, scale=1.5, t_ref=0.5):
    vol = DisplacementVolume.zeros(width, height, stride, n_bins)
    vol.disp[...] = rng.normal(0.0, scale, vol.disp.shape)
    return DisplacementVolume(
        t_ref=t_ref,
        stride=stride,
        width=width,
        height=height,
        bin_centers=vol.bin_centers,
        disp=vol.disp,
        knn_indices=vol.knn_indices,
    )


class TestWarp:
    def test_identity_with_zero_volume(self):
        rng = np.random.default_rng(0)
        sl = random_slice(rng)
        warped = warp_events(sl, DisplacementVolume.zeros(32, 32))
        np.testing.assert_array_equal(warped.positions[:, 0], sl.x)
        np.testing.assert_array_equal(warped.positions[:, 1], sl.y)
        assert warped.n_masked == 0
        np.testing.assert_array_equal(warped.weights, 1.0)

    def test_constant_offscreen_volume_masks_everything(self):
        rng = np.random.default_rng(1)
        sl = random_slice(rng, n=500)
        vol = DisplacementVolume.zeros(32, 32)
        vol.disp[..., 0] = -1000.0
        warped = warp_events(sl, vol)
        assert warped.n_masked == len(sl)

    def test_matches_scalar_lookup(self):
        rng = np.random.default_rng(2)
        sl = random_slice(rng, n=1000)
        vol = random_volume(rng)
        warped = warp_events(sl, vol)
        np.testing.assert_array_equal(warped.positions, warp_scalar(sl, vol))

    def test_geometry_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        sl = random_slice(rng, width=32, height=32)
        with pytest.raises(ValueError):
            warp_events(sl, DisplacementVolume.zeros(16, 16))

    def test_time_weights_mean_one(self):
        rng = np.random.default_rng(4)
        sl = random_slice(rng)
        vol = random_volume(rng, scale=0.5, t_ref=0.3)
        warped = warp_events(sl, vol, time_weighting=True)
        kept = warped.weights[warped.mask]
        assert kept.mean() == pytest.approx(1.0)
        dt = np.abs(0.3 - sl.normalized_times())
        ratio = warped.weights / dt
        np.testing.assert_allclose(ratio, ratio[0])


class TestIwe:
    def test_single_event_integer_pixel(self):
        sl = EventSlice.from_arrays([3], [4], [0.5], [1], 8, 8, t_start=0, t_end=1)
        warped = warp_events(sl, DisplacementVolume.zeros(8, 8))
        iwe = build_iwe(warped)
        assert iwe.pos[4, 3] == 1.0
        assert iwe.pos.sum() == 1.0
        assert iwe.neg.sum() == 0.0

    def test_halfway_bilinear_split(self):
        sl = EventSlice.from_arrays([3], [4], [0.5], [1], 8, 8, t_start=0, t_end=1)
        vol = DisplacementVolume.zeros(8, 8)
        vol.disp[..., 0] = 0.5
        warped = warp_events(sl, vol)
        iwe = build_iwe(warped)
        assert iwe.pos[4, 3] == pytest.approx(0.5)
        assert iwe.pos[4, 4] == pytest.approx(0.5)

    def test_matches_scalar_accumulation(self):
        rng = np.random.default_rng(7)
        sl = random_slice(rng, n=1000)
        vol = random_volume(rng)
        warped = warp_events(sl, vol, time_weighting=True)
        iwe = build_iwe(warped, polarity_split=False)
        ref = iwe_scalar(warped.positions, warped.weights, warped.mask, 32, 32)
        np.testing.assert_allclose(iwe.pos, ref, atol=1e-6)

    def test_polarity_split_routes_by_sign(self):
        rng = np.random.default_rng(8)
        sl = random_slice(rng, n=400)
        warped = warp_events(sl, DisplacementVolume.zeros(32, 32))
        iwe = build_iwe(warped)
        assert iwe.pos.sum() == pytest.approx(float((sl.p > 0).sum()))
        assert iwe.neg.sum() == pytest.approx(float((sl.p < 0).sum()))

    @pytest.mark.parametrize("sigma", [0.0, 0.8, 1.5])
    def test_mass_conservation(self, sigma):
        rng = np.random.default_rng(9)
        sl = random_slice(rng, n=800)
        vol = random_volume(rng, scale=3.0)
        warped = warp_events(sl, vol, time_weighting=True)
        iwe = build_iwe(warped, sigma=sigma)
        total_weight = warped.weights[warped.mask].sum()
        assert iwe.total().sum() == pytest.approx(total_weight, rel=1e-6)

    def test_identity_invariance_bit_exact(self):
        # zero coefficients: IWE equals raw accumulation image, R = 0
        rng = np.random.default_rng(10)
        sl = random_slice(rng, n=2000)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 10))
        vol = build_displacement_volume(field, 0.77, KnnConfig(k=8), n_bins=15)
        warped = warp_events(sl, vol)
        iwe = build_iwe(warped, polarity_split=False)
        raw = np.zeros((32, 32))
        np.add.at(raw, (sl.y, sl.x), 1.0)
        assert np.array_equal(iwe.pos, raw)
        assert regularizer_r(build_consecutive_delta_field(vol)) == 0.0

    def test_pgm_render(self, tmp_path):
        rng = np.random.default_rng(11)
        sl = random_slice(rng, n=300)
        iwe = build_iwe(warp_events(sl, DisplacementVolume.zeros(32, 32)))
        path = tmp_path / "iwe.pgm"
        write_iwe_pgm(iwe, path, bits=8)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n#")
        assert raw.count(b"\n", 0, 60) >= 3


class TestContrast:
    def test_zero_image(self):
        iwe = Iwe(np.zeros((8, 8)), np.zeros((8, 8)))
        assert contrast_g(iwe) == 0.0

    def test_single_spike_frozen_value(self):
        # forward-diff stencil: |gx|=1 left of spike, |gy|=1 above, sqrt(2) at it
        img = np.zeros((9, 9))
        img[4, 4] = 1.0
        iwe = Iwe(img, np.zeros_like(img))
        assert contrast_g(iwe) == pytest.approx(2.0 + np.sqrt(2.0))
        assert contrast_g(iwe) == pytest.approx(contrast_scalar(img))

    def test_matches_scalar_stencil(self):
        rng = np.random.default_rng(12)
        img_p = rng.random((13, 17))
        img_n = rng.random((13, 17))
        iwe = Iwe(img_p, img_n)
        assert contrast_g(iwe) == pytest.approx(
            contrast_scalar(img_p) + contrast_scalar(img_n), rel=1e-12
        )

    def test_true_warp_sharper_than_identity(self):
        # Gaussian voting: point-sampled raw accumulations are already
        # pixel-sharp, so the sharpening signal lives at sigma > 0
        sl, _, spec = constant_scene(width=48, height=48, n_points=80, n_events=6000, seed=3)
        field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        cfg = KnnConfig(k=8)
        vol_true = build_displacement_volume(field, 1.0, cfg, n_bins=15)
        g_true = contrast_g(build_iwe(warp_events(sl, vol_true), sigma=1.0))
        g_zero = contrast_g(
            build_iwe(warp_events(sl, DisplacementVolume.zeros(48, 48)), sigma=1.0)
        )
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
        vol = random_volume(rng, width=24, height=24, scale=0.4)
        warped = warp_events(sl, vol)
        assert warped.n_masked == 0
        g_small = contrast_g(build_iwe(warped))
        shifted = EventSlice.from_arrays(
            sl.x + 8, sl.y + 4, sl.t, sl.p, 40, 36, t_start=0.0, t_end=1.0
        )
        vol_big = DisplacementVolume.zeros(40, 36, 4, 5)
        vol_big.disp[:, 1:7, 2:8, :] = vol.disp  # same table under the shifted cells
        warped_big = warp_events(shifted, vol_big)
        assert warped_big.n_masked == 0
        g_big = contrast_g(build_iwe(warped_big))
        assert abs(g_big - g_small) < 1e-9


class TestRegularizer:
    def test_spatially_constant_field(self):
        field = np.broadcast_to([1.0, 2.0], (4, 6, 6, 2)).copy()
        assert regularizer_r(field) == 0.0

    def test_empty_field(self):
        assert regularizer_r(np.zeros((0, 4, 4, 2))) == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(14)
        field = rng.normal(0, 2, (5, 7, 9, 2))
        assert regularizer_r(field) == pytest.approx(regularizer_scalar(field), abs=1e-10)


class TestTotalLoss:
    def test_zero_coefficients_total_is_inverse_contrast(self):
        rng = np.random.default_rng(15)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(POLYNOMIAL, 1))
        cfg = ObjectiveConfig(time_weighting=False, knn=KnnConfig(k=8))
        out = total_loss(sl, field, 0.5, cfg)
        g0 = contrast_g(build_iwe(warp_events(sl, DisplacementVolume.zeros(32, 32))))
        assert out.total == pytest.approx(1.0 / g0)
        assert out.r == 0.0
        assert not out.degenerate

    def test_lambda_zero_total_is_pure_contrast(self):
        rng = np.random.default_rng(16)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 3))
        field.coeffs[...] = rng.normal(0, 1, field.coeffs.shape)
        cfg = ObjectiveConfig(lam=0.0, knn=KnnConfig(k=8))
        out = total_loss(sl, field, 0.25, cfg)
        assert out.total == pytest.approx(1.0 / out.g)

    def test_breakdown_recomposes(self):
        rng = np.random.default_rng(17)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 3))
        field.coeffs[...] = rng.normal(0, 1, field.coeffs.shape)
        cfg = ObjectiveConfig(knn=KnnConfig(k=8))
        out = total_loss(sl, field, 0.25, cfg)
        assert out.total == pytest.approx(1.0 / max(out.g, 1e-8) + out.lam * out.r, abs=1e-12)

    def test_ground_truth_beats_zero_on_constant_flow(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=80, n_events=6000, seed=4)
        cfg = ObjectiveConfig(sigma=1.0, knn=KnnConfig(k=8))
        zero = TrajectoryField.zeros(48, 48, 4, Basis(POLYNOMIAL, 1))
        true = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        for t_ref in (0.0, 0.5, 1.0):
            assert total_loss(sl, true, t_ref, cfg).total < total_loss(sl, zero, t_ref, cfg).total

    def test_degenerate_flag_when_all_masked(self):
        sl = EventSlice.from_arrays([1, 2], [1, 2], [0.1, 0.9], [1, -1], 8, 8,
                                    t_start=0.0, t_end=1.0)
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[..., 0] = 1e6
        out = total_loss(sl, field, 1.0, ObjectiveConfig(knn=KnnConfig(k=1)))
        assert out.degenerate
        assert out.n_masked == 2
        assert np.isfinite(out.total)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(18)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 5))
        field.coeffs[...] = rng.normal(0, 2, field.coeffs.shape)
        cfg = ObjectiveConfig(knn=KnnConfig(k=8))
        a = total_loss(sl, field, 0.625, cfg)
        b = total_loss(sl, field, 0.625, cfg)
        assert (a.g, a.r, a.total) == (b.g, b.r, b.total)


class TestReferenceTime:
    def test_seed_determinism(self):
        a = [sample_reference_time(np.random.default_rng(42)) for _ in range(5)]
        rng = np.random.default_rng(42)
        b = [sample_reference_time(rng) for _ in range(1)] * 5
        assert a[0] == b[0]
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        seq1 = [sample_reference_time(rng1) for _ in range(100)]
        seq2 = [sample_reference_time(rng2) for _ in range(100)]
        assert seq1 == seq2

    def test_mean_and_bounds(self):
        rng = np.random.default_rng(123)
        draws = np.array([sample_reference_time(rng) for _ in range(100000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert draws.min() >= 0.0 and draws.max() <= 1.0


class TestFixedReferenceLoss:
    def test_zero_coefficients_normalization_identity(self):
        rng = np.random.default_rng(19)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(POLYNOMIAL, 1))
        cfg = ObjectiveConfig(knn=KnnConfig(k=8))
        assert fixed_reference_loss(sl, field, cfg) == 1.0

    def test_alignment_exceeds_one(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=80, n_events=6000, seed=5)
        field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        cfg = ObjectiveConfig(sigma=1.0, knn=KnnConfig(k=8))
        assert fixed_reference_loss(sl, field, cfg) > 1.0

    def test_lambda_is_ignored(self):
        rng = np.random.default_rng(20)
        sl = random_slice(rng)
        field = TrajectoryField.zeros(32, 32, 4, Basis(BEZIER, 4))
        field.coeffs[...] = rng.normal(0, 1, field.coeffs.shape)
        a = fixed_reference_loss(sl, field, ObjectiveConfig(lam=0.0, knn=KnnConfig(k=8)))
        b = fixed_reference_loss(sl, field, ObjectiveConfig(lam=5.0, knn=KnnConfig(k=8)))
        assert a == b
