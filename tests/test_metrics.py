import numpy as np
import pytest

from evtraj.assoc import bin_centers, build_displacement_volume
from evtraj.events import EventSlice
from evtraj.metrics import evaluate_trajectories, fwl, score_time
from evtraj.trajectory import Basis, POLYNOMIAL

from oracles import epe_ae_scalar
from scenes import constant_scene, event_entries, gt_field, own_sites


def random_pair(rng, h=12, w=15):
    pred = rng.normal(0, 3, (h, w, 2))
    gt = rng.normal(0, 3, (h, w, 2))
    mask = rng.random((h, w)) > 0.3
    mask[0, 0] = True
    return pred, gt, mask


def events_on(height, width, seed=0, n=60):
    """Random events on a ``width`` x ``height`` sensor, for the FWL that
    every evaluation also scores."""
    rng = np.random.default_rng(seed)
    return EventSlice.from_arrays(rng.integers(0, width, n), rng.integers(0, height, n), np.sort(rng.random(n)),
                                  rng.choice([-1, 1], n), width, height, t_start=0.0, t_end=1.0)


def evaluate(pred, gt, masks):
    """evaluate_trajectories over evenly spaced query times and random events."""
    sl = events_on(*pred.shape[1:3])
    return evaluate_trajectories(pred, gt, masks, sl, list(np.linspace(0.0, 1.0, len(pred) + 1)[1:]))


class TestEpeAe:
    """The EPE and AE of :func:`score_time`."""

    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(0, 2, (8, 8, 2))
        epe, ae, out = score_time(gt, gt, np.ones((8, 8), bool))
        assert (epe, out) == (0.0, 0.0)
        assert ae == pytest.approx(0.0, abs=1e-6)

    def test_three_four_five(self):
        gt = np.zeros((4, 4, 2))
        pred = gt + np.array([3.0, 4.0])
        epe, _, out = score_time(pred, gt, np.ones((4, 4), bool))
        assert epe == pytest.approx(5.0)
        assert out == 1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        pred, gt, mask = random_pair(rng)
        epe, ae, _ = score_time(pred, gt, mask)
        ref_epe, ref_ae = epe_ae_scalar(pred, gt, mask)
        assert epe == pytest.approx(ref_epe, abs=1e-9)
        assert ae == pytest.approx(ref_ae, abs=1e-9)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty evaluation mask"):
            score_time(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2), bool))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        pred, gt, mask = random_pair(rng)
        assert score_time(pred, gt, mask)[0] == pytest.approx(score_time(gt, pred, mask)[0])

    def test_triangle_inequality_on_sampled_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(0, 2, (6, 6, 2))
            b = rng.normal(0, 2, (6, 6, 2))
            c = rng.normal(0, 2, (6, 6, 2))
            mask = np.ones((6, 6), bool)
            ab = score_time(a, b, mask)[0]
            bc = score_time(b, c, mask)[0]
            ac = score_time(a, c, mask)[0]
            assert ac <= ab + bc + 1e-12

    def test_mask_order_invariance(self):
        rng = np.random.default_rng(4)
        pred, gt, mask = random_pair(rng)
        # identical mask content, different memory layout
        assert score_time(pred, gt, mask) == score_time(pred, gt, np.asfortranarray(mask))


class TestPctOut:
    """The %Out of :func:`score_time`."""

    def test_all_zero_errors(self):
        gt = np.zeros((4, 4, 2))
        assert score_time(gt, gt, np.ones((4, 4), bool))[2] == 0.0

    def test_half_outliers(self):
        gt = np.zeros((2, 4, 2))
        pred = gt.copy()
        pred[0, :, 0] = 10.0
        assert score_time(pred, gt, np.ones((2, 4), bool))[2] == 0.5

    def test_boundary_is_strict(self):
        gt = np.zeros((1, 2, 2))
        pred = gt.copy()
        pred[0, 0, 0] = 3.0  # exactly at the threshold: not an outlier
        pred[0, 1, 0] = 3.0 + 1e-9
        assert score_time(pred, gt, np.ones((1, 2), bool))[2] == 0.5


class TestTrajectoryMetrics:
    def test_constant_per_time_epe(self):
        gt = np.zeros((3, 4, 4, 2))
        pred = gt + np.array([0.6, 0.8])  # EPE 1 at every time
        masks = np.ones((3, 4, 4), bool)
        assert evaluate(pred, gt, masks).tepe == pytest.approx(1.0)

    def test_single_time_reduces_to_epe_ae(self):
        rng = np.random.default_rng(5)
        pred, gt, mask = random_pair(rng)
        ev = evaluate(pred[None], gt[None], mask[None])
        epe, ae, out = score_time(pred, gt, mask)
        assert (ev.epe, ev.ae, ev.pct_out) == (epe, ae, out)
        assert ev.tepe == pytest.approx(epe)
        assert ev.tae == pytest.approx(ae)

    def test_matches_scalar_oracle_over_times(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(0, 2, (6, 5, 7, 2))
        gt = rng.normal(0, 2, (6, 5, 7, 2))
        masks = rng.random((6, 5, 7)) > 0.2
        masks[:, 0, 0] = True
        ev = evaluate(pred, gt, masks)
        per_time = [epe_ae_scalar(pred[i], gt[i], masks[i]) for i in range(6)]
        assert ev.tepe == pytest.approx(np.mean([e for e, _ in per_time]), abs=1e-9)
        assert ev.tae == pytest.approx(np.mean([a for _, a in per_time]), abs=1e-9)
        assert (ev.epe, ev.ae) == pytest.approx(per_time[-1], abs=1e-9)
        assert ev.n_valid == masks[-1].sum()

    def test_outliers_taken_at_last_query_time(self):
        sl, _, _ = constant_scene(width=32, height=32, n_points=40, n_events=2000, seed=30)
        gt = np.zeros((2, 32, 32, 2))
        pred = gt.copy()
        pred[0] = 10.0  # every pixel an outlier at the first time only
        pred[1, :8, :, 0] = 4.0  # a quarter of them at the last
        ev = evaluate_trajectories(pred, gt, np.ones((2, 32, 32), bool), sl, [0.5, 1.0])
        assert ev.pct_out == 0.25

    def test_time_count_mismatch_rejected(self):
        # zip would drop the extra time without a word
        with pytest.raises(ValueError, match="shapes differ"):
            evaluate(np.zeros((2, 2, 2, 2)), np.zeros((3, 2, 2, 2)), np.ones((3, 2, 2), bool))
        with pytest.raises(ValueError, match="mask count"):
            evaluate(np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 2)), np.ones((3, 2, 2), bool))


def field_fwl(sl, field):
    """FWL of every event warped on its own by its entry of ``field``'s
    volume toward t = 1, the table the CLI's render reads."""
    volume = build_displacement_volume(field, 1.0, 8, n_bins=15)
    return fwl(sl, event_entries(sl, volume.disp, field.stride), own_sites(sl))


class TestFwl:
    def test_identity_volume_is_exactly_one(self):
        sl, _, _ = constant_scene(width=32, height=32, n_points=40, n_events=2000, seed=30)
        assert fwl(sl, 0, own_sites(sl)) == 1.0
        assert fwl(sl, np.zeros((len(sl), 2)), own_sites(sl)) == 1.0

    def test_true_warp_sharpens(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=100, n_events=8000, seed=31)
        field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        assert field_fwl(sl, field) > 1.0

    def test_misaligned_warp_below_true_warp(self):
        sl, _, spec = constant_scene(width=48, height=48, n_points=100, n_events=8000, seed=31)
        true_field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        bad_field = gt_field(spec.motion, 48, 48, 4, Basis(POLYNOMIAL, 1))
        bad_field.coeffs[..., 0] *= -1.0  # wrong direction in x
        assert field_fwl(sl, bad_field) < field_fwl(sl, true_field)

    def test_evaluation_warps_by_the_maps_toward_t1(self):
        # the ground-truth maps of a constant flow v as the prediction: the
        # 15-bin table moves each event by v (1 - t_b), t_b its bin's center
        sl, gt, _ = constant_scene(width=48, height=48, n_points=100, n_events=8000, seed=31)
        ev = evaluate_trajectories(gt.disp[1:], gt.disp[1:], gt.valid[1:], sl, list(gt.times[1:]))
        bins = np.minimum(np.floor(sl.normalized_times() * 15), 14).astype(np.int64)
        want = fwl(sl, np.outer(1.0 - bin_centers(15)[bins], [5.0, -3.0]), own_sites(sl))
        assert ev.fwl > 1.0
        assert ev.fwl == pytest.approx(want, rel=1e-9)

    def test_degenerate_slice_rejected(self):
        from evtraj.events import EventSlice

        # uniform one event per pixel: zero-warp image has zero variance
        w = h = 4
        xs, ys = np.meshgrid(np.arange(w), np.arange(h))
        sl = EventSlice.from_arrays(
            xs.ravel(), ys.ravel(), np.linspace(0, 1, w * h), np.ones(w * h), w, h
        )
        with pytest.raises(ValueError, match="degenerate"):
            fwl(sl, 0, own_sites(sl))
