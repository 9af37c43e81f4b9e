import numpy as np
import pytest

from evtraj.assoc import DisplacementVolume, KnnConfig, build_displacement_volume
from evtraj.metrics import epe_ae, fwl, pct_out, tepe_tae
from evtraj.trajectory import Basis, POLYNOMIAL

from oracles import epe_ae_scalar
from scenes import constant_scene, gt_field


def random_pair(rng, h=12, w=15):
    pred = rng.normal(0, 3, (h, w, 2))
    gt = rng.normal(0, 3, (h, w, 2))
    mask = rng.random((h, w)) > 0.3
    mask[0, 0] = True
    return pred, gt, mask


class TestEpeAe:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(0, 2, (8, 8, 2))
        epe, ae = epe_ae(gt, gt, np.ones((8, 8), bool))
        assert epe == 0.0
        assert ae == pytest.approx(0.0, abs=1e-6)

    def test_three_four_five(self):
        gt = np.zeros((4, 4, 2))
        pred = gt + np.array([3.0, 4.0])
        epe, _ = epe_ae(pred, gt, np.ones((4, 4), bool))
        assert epe == pytest.approx(5.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        pred, gt, mask = random_pair(rng)
        epe, ae = epe_ae(pred, gt, mask)
        ref_epe, ref_ae = epe_ae_scalar(pred, gt, mask)
        assert epe == pytest.approx(ref_epe, abs=1e-9)
        assert ae == pytest.approx(ref_ae, abs=1e-9)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            epe_ae(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2), bool))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        pred, gt, mask = random_pair(rng)
        assert epe_ae(pred, gt, mask)[0] == pytest.approx(epe_ae(gt, pred, mask)[0])

    def test_triangle_inequality_on_sampled_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(0, 2, (6, 6, 2))
            b = rng.normal(0, 2, (6, 6, 2))
            c = rng.normal(0, 2, (6, 6, 2))
            mask = np.ones((6, 6), bool)
            ab = epe_ae(a, b, mask)[0]
            bc = epe_ae(b, c, mask)[0]
            ac = epe_ae(a, c, mask)[0]
            assert ac <= ab + bc + 1e-12

    def test_mask_order_invariance(self):
        rng = np.random.default_rng(4)
        pred, gt, mask = random_pair(rng)
        # identical mask content, different memory layout
        epe1, ae1 = epe_ae(pred, gt, mask)
        epe2, ae2 = epe_ae(pred, gt, np.asfortranarray(mask))
        assert (epe1, ae1) == (epe2, ae2)


class TestPctOut:
    def test_all_zero_errors(self):
        gt = np.zeros((4, 4, 2))
        assert pct_out(gt, gt, np.ones((4, 4), bool)) == 0.0

    def test_half_outliers(self):
        gt = np.zeros((2, 4, 2))
        pred = gt.copy()
        pred[0, :, 0] = 10.0
        assert pct_out(pred, gt, np.ones((2, 4), bool)) == 0.5

    def test_boundary_is_strict(self):
        gt = np.zeros((1, 2, 2))
        pred = gt.copy()
        pred[0, 0, 0] = 3.0  # exactly at the threshold: not an outlier
        pred[0, 1, 0] = 3.0 + 1e-9
        assert pct_out(pred, gt, np.ones((1, 2), bool)) == 0.5


class TestTrajectoryMetrics:
    def test_constant_per_time_epe(self):
        gt = np.zeros((3, 4, 4, 2))
        pred = gt + np.array([0.6, 0.8])  # EPE 1 at every time
        masks = np.ones((3, 4, 4), bool)
        out = tepe_tae(pred, gt, masks)
        assert out["tepe"] == pytest.approx(1.0)

    def test_single_time_reduces_to_epe_ae(self):
        rng = np.random.default_rng(5)
        pred, gt, mask = random_pair(rng)
        out = tepe_tae(pred[None], gt[None], mask[None])
        epe, ae = epe_ae(pred, gt, mask)
        assert out["tepe"] == pytest.approx(epe)
        assert out["tae"] == pytest.approx(ae)

    def test_matches_scalar_oracle_over_times(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(0, 2, (6, 5, 7, 2))
        gt = rng.normal(0, 2, (6, 5, 7, 2))
        masks = rng.random((6, 5, 7)) > 0.2
        masks[:, 0, 0] = True
        out = tepe_tae(pred, gt, masks)
        per_time = [epe_ae_scalar(pred[i], gt[i], masks[i]) for i in range(6)]
        assert out["tepe"] == pytest.approx(np.mean([e for e, _ in per_time]), abs=1e-9)
        assert out["tae"] == pytest.approx(np.mean([a for _, a in per_time]), abs=1e-9)

    def test_outliers_computed_on_mean_trajectory_error(self):
        gt = np.zeros((2, 1, 2, 2))
        pred = gt.copy()
        # pixel 0: errors 2 and 8 -> mean 5 (outlier); pixel 1: 2 and 2 -> 2
        pred[0, 0, 0, 0] = 2.0
        pred[1, 0, 0, 0] = 8.0
        pred[:, 0, 1, 0] = 2.0
        out = tepe_tae(pred, gt, np.ones((2, 1, 2), bool))
        assert out["pct_out"] == 0.5

    def test_time_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tepe_tae(np.zeros((2, 2, 2, 2)), np.zeros((3, 2, 2, 2)), np.ones((3, 2, 2), bool))


class TestFwl:
    def test_identity_volume_is_exactly_one(self):
        sl, _, _ = constant_scene(width=32, height=32, n_points=40, n_events=2000, seed=30)
        volume = DisplacementVolume.zeros(32, 32)
        assert fwl(sl, volume) == 1.0

    def test_true_warp_sharpens(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=100, n_events=8000, seed=31)
        field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        volume = build_displacement_volume(field, 1.0, KnnConfig(k=8), n_bins=15)
        assert fwl(sl, volume) > 1.0

    def test_misaligned_warp_below_true_warp(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=100, n_events=8000, seed=31)
        true_field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        bad_field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        bad_field.coeffs[..., 0] *= -1.0  # wrong direction in x
        v_true = build_displacement_volume(true_field, 1.0, KnnConfig(k=8), n_bins=15)
        v_bad = build_displacement_volume(bad_field, 1.0, KnnConfig(k=8), n_bins=15)
        assert fwl(sl, v_bad) < fwl(sl, v_true)

    def test_degenerate_slice_rejected(self):
        from evtraj.events import EventSlice

        # uniform one event per pixel: zero-warp image has zero variance
        w = h = 4
        xs, ys = np.meshgrid(np.arange(w), np.arange(h))
        sl = EventSlice.from_arrays(
            xs.ravel(), ys.ravel(), np.linspace(0, 1, w * h), np.ones(w * h), w, h
        )
        with pytest.raises(ValueError, match="degenerate"):
            fwl(sl, DisplacementVolume.zeros(w, h))
