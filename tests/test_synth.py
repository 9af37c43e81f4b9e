import hashlib

import numpy as np
import pytest

from evtraj import assoc, synth
from evtraj.cli import main
from evtraj.synth import (
    BezierMotion,
    CircularMotion,
    SceneSpec,
    generate_events,
    load_scene_config,
    scatter_points,
    scene_from_config,
)

from scenes import arc_scene, constant_scene

# the SHA-256 of events.evt1 and then gt_*.flo1 in name order, as written by
# `evtraj synth --seed s`, recorded while synth placed and moved its texture
# one point at a time. The scenes reject 5, 11, 10 and 12 placement draws;
# bezier takes the matmul path and the coverage search, and sparse has
# points that draw no event
UNCHANGED_SCENE = {
    "constant": (
        "width=48 height=32 motion=constant vx=3 vy=-2 points=30 n_events=3000 noise=0.1", 1,
        "73e68a6b5996b9dfb751f22980fcb1d9cb97672e5aee49371549b17fca02336d",
    ),
    "circular": (
        "width=48 height=40 motion=circular cx=23.5 cy=19.5 angle=0.8 points=40 n_events=4000 noise=0.05", 2,
        "9ee1311c1fbb0e66196e6f139f168e1932002a06e7fc7e17e8d47097dfb3654a",
    ),
    "bezier": (
        "width=40 height=30 motion=bezier offsets=4:-2,9:1,6:3 points=25 n_events=2500 coverage_radius=2.5 "
        "query_times=0,0.25,1", 3,
        "227ba6711ae0a9723245144646ce0f15a1ffb196614ef5661813562c2fadf259",
    ),
    "sparse": (
        "width=16 height=12 motion=constant vx=1 vy=1 points=50 n_events=30 noise=0.2", 4,
        "86fa36270734fb9b6bfd1936dc5dc0f8b9ed539e5beaeece4f9ad51a184943f3",
    ),
}


class TestGenerateEvents:
    def test_pure_noise_scene(self):
        spec = SceneSpec(
            width=32, height=32, motion=BezierMotion(((0.0, 0.0),)),
            points=np.zeros((0, 2)),
            n_events=100, noise_fraction=1.0,
        )
        sl, gt = generate_events(spec, seed=0)
        assert len(sl) == 100

    def test_degenerate_scene_rejected(self):
        spec = SceneSpec(
            width=32, height=32, motion=BezierMotion(((0.0, 0.0),)),
            points=np.zeros((0, 2)),
            n_events=100, noise_fraction=0.0,
        )
        with pytest.raises(ValueError, match="degenerate"):
            generate_events(spec, seed=0)

    def test_constant_flow_events_on_line(self):
        point = np.array([[10.0, 20.0]])
        spec = SceneSpec(
            width=64, height=64, motion=BezierMotion(((5.0, -3.0),)),
            points=point, n_events=500,
        )
        sl, _ = generate_events(spec, seed=1)
        expect = point[0] + sl.normalized_times()[:, None] * np.array([5.0, -3.0])
        err = np.abs(np.stack([sl.x, sl.y], axis=1) - expect)
        assert err.max() < 0.5 + 1e-9

    def test_quantization_bound_all_motion_models(self):
        rng = np.random.default_rng(5)
        motions = [
            BezierMotion(((4.0, 2.0),)),
            CircularMotion((32.0, 32.0), np.pi / 3),
            BezierMotion(((8.0, 0.0), (0.0, 6.0), (-4.0, 2.0))),
        ]
        for motion in motions:
            points = scatter_points(64, 64, 40, rng, motion)
            spec = SceneSpec(
                width=64, height=64, motion=motion, points=points,
                n_events=4000,
            )
            sl, _ = generate_events(spec, seed=2)
            assert len(sl) == 4000  # in-bounds paths: nothing dropped
            # brute-force: every event within 0.5 px of SOME point's curve
            t = sl.normalized_times()
            curves = points[None, :, :] + motion.displacement(points, t[:, None])  # (N, P, 2)
            d = np.linalg.norm(
                curves - np.stack([sl.x, sl.y], 1)[:, None, :], axis=2
            ).min(axis=1)
            assert d.max() < 0.5 * np.sqrt(2) + 1e-9

    def test_degree_one_bezier_is_constant_velocity(self):
        # bit for bit, the sign of t = 0's zero included: constant scene
        # files must write the same ground truth as a t * v motion model
        t = np.concatenate([[0.0, 1.0], np.random.default_rng(12).uniform(0.0, 1.0, 1000)])
        points = np.zeros((3, 2))
        for v in ((5.0, -3.0), (0.1, 1e-7), (-17.25, 0.0), (1.0 / 3.0, 2.0 / 7.0)):
            expect = np.broadcast_to(t[:, None, None] * np.array(v), (len(t), 3, 2))
            assert BezierMotion((v,)).displacement(points, t[:, None]).tobytes() == expect.tobytes()

    def test_ground_truth_zero_at_t0(self):
        _, gt, _ = constant_scene(width=32, height=32, n_points=30, n_events=500, seed=7)
        assert gt.times[0] == 0.0
        np.testing.assert_array_equal(gt.disp[0], 0.0)

    def test_circular_gt_matches_closed_form(self):
        _, gt, spec = arc_scene(width=48, height=48, radius=10, n_points=30,
                                n_events=500, seed=8)
        th = spec.motion.angle  # displacement at t=1
        c = np.asarray(spec.motion.center)
        gx, gy = np.meshgrid(np.arange(48.0), np.arange(48.0))
        rel = np.stack([gx - c[0], gy - c[1]], axis=2)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        expected = rel @ rot.T - rel
        np.testing.assert_allclose(gt.disp[-1], expected, atol=1e-9)

    def test_polarity_alternates_per_point(self):
        point = np.array([[16.0, 16.0]])
        spec = SceneSpec(
            width=32, height=32, motion=BezierMotion(((0.0, 0.0),)),
            points=point, n_events=50,
        )
        sl, _ = generate_events(spec, seed=3)
        assert list(sl.p[:6]) == [1, -1, 1, -1, 1, -1]

    def test_noise_fraction_split(self):
        rng = np.random.default_rng(6)
        motion = BezierMotion(((0.0, 0.0),))
        points = scatter_points(32, 32, 10, rng, motion)
        spec = SceneSpec(
            width=32, height=32, motion=motion,
            points=points, n_events=1000, noise_fraction=0.25,
        )
        sl, _ = generate_events(spec, seed=4)
        assert len(sl) == 1000

    def test_coverage_mask(self):
        sl, gt, spec = constant_scene(
            width=32, height=32, n_points=5, n_events=400, seed=9, coverage_radius=4.0
        )
        assert gt.valid.any() and not gt.valid.all()

    def test_coverage_mask_empty_when_every_signal_event_leaves(self):
        # no texture event observed: no pixel is covered, and no search runs
        spec = SceneSpec(
            width=16, height=16, motion=BezierMotion(((1e6, 0.0),)),
            points=[[15.0, 1.0]], n_events=10, coverage_radius=1.0,
        )
        sl, gt = generate_events(spec, seed=0)
        assert len(sl) == 0 and not gt.valid.any()

    @pytest.mark.parametrize("radius", [0.0, np.sqrt(2.0), np.sqrt(5.0), 3.0], ids=["0", "sqrt2", "sqrt5", "3"])
    def test_coverage_mask_equals_bruteforce_nearest_distance(self, radius):
        # texture on a ring, none inside it: the nearest observed pixel of a
        # centre pixel lies beyond its 3x3 block, so the first pass answers
        # the pixels near the texture and leaves the centre to wider blocks.
        # Each radius is an exact distance between pixels, so pixels on the
        # shell pin the <= of the mask
        angles = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        points = np.stack([32 + 20 * np.cos(angles), 24 + 18 * np.sin(angles)], axis=1)
        spec = SceneSpec(
            width=64, height=48, motion=BezierMotion(((2.0, 1.0),)),
            points=points, n_events=3000, coverage_radius=radius,
        )
        sl, gt = generate_events(spec, seed=5)
        obs = np.unique(np.stack([sl.x, sl.y], axis=1), axis=0).astype(np.float64)
        gx, gy = np.meshgrid(np.arange(64.0), np.arange(48.0))
        pixels = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d2 = np.square(pixels[:, None, 0] - obs[None, :, 0]) + np.square(pixels[:, None, 1] - obs[None, :, 1])
        nearest = np.sqrt(d2.min(axis=1))
        covered = (nearest <= radius).reshape(48, 64)
        assert covered.any() and not covered.all() and (nearest == radius).any()
        for valid in gt.valid:
            np.testing.assert_array_equal(valid, covered)
        idx = np.empty((len(pixels), 1), dtype=np.int64)
        grid, _ = assoc._ring_grid(pixels, obs[None], 1)
        rest = assoc._ring_pass(grid, np.arange(len(pixels)), 1, idx)
        assert 0 < len(rest) < len(pixels)

    def test_determinism(self):
        a, _, _ = constant_scene(width=32, height=32, n_points=20, n_events=500, seed=11)
        b, _, _ = constant_scene(width=32, height=32, n_points=20, n_events=500, seed=11)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.x, b.x)


class TestScatterPoints:
    def test_accepted_draws_do_not_count_against_the_limit(self):
        # with zero motion every draw is accepted, whatever the count
        n = synth._MAX_TRIES + 1
        points = scatter_points(16, 16, n, np.random.default_rng(0), BezierMotion(((0.0, 0.0),)))
        assert points.shape == (n, 2)

    def test_motion_leaving_the_image_rejected(self):
        with pytest.raises(ValueError, match="could not place"):
            scatter_points(16, 16, 1, np.random.default_rng(0), BezierMotion(((20.0, 0.0),)))

    def test_rejection_cap_at_its_boundary(self, monkeypatch):
        # this rotation rejects 6 draws before its 12th acceptance; the points
        # were recorded while each candidate was drawn and checked on its own
        def place():
            return scatter_points(32, 32, 12, np.random.default_rng(0), CircularMotion((15.5, 15.5), 1.0))

        monkeypatch.setattr(synth, "_MAX_TRIES", 6)
        points = place()
        assert points.shape == (12, 2)
        assert hashlib.sha256(points.tobytes()).hexdigest() == (
            "80e2f50bbb863798aed7469182d2b7163f7887c55ef9c1449715b97af4f4abd0"
        )
        monkeypatch.setattr(synth, "_MAX_TRIES", 5)
        with pytest.raises(ValueError, match="could not place"):
            place()

    def test_no_points(self):
        points = scatter_points(16, 16, 0, np.random.default_rng(0), BezierMotion(((1.0, 0.0),)))
        assert points.shape == (0, 2)


class TestSceneConfig:
    @pytest.mark.parametrize("name", list(UNCHANGED_SCENE))
    def test_synth_bytes_unchanged(self, tmp_path, name):
        text, seed, digest = UNCHANGED_SCENE[name]
        path = tmp_path / "scene.cfg"
        path.write_text("\n".join(text.split()) + "\n")
        out = tmp_path / "scene"
        assert main(["synth", str(path), "--out", str(out), "--seed", str(seed)]) == 0
        h = hashlib.sha256()
        for written in [out / "events.evt1", *sorted(out.glob("gt_*.flo1"))]:
            h.update(written.read_bytes())
        assert h.hexdigest() == digest

    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "# test scene\nwidth=32\nheight=32\nmotion=constant\nvx=2\nvy=-1\n"
            "points=20\nn_events=500\nnoise=0.1\n"
        )
        cfg = load_scene_config(path)
        spec = scene_from_config(cfg, np.random.default_rng(0))
        assert spec.width == 32 and len(spec.points) == 20
        assert spec.motion == BezierMotion(((2.0, -1.0),))
        sl, _ = generate_events(spec, seed=0)
        assert len(sl) == 500

    def test_invalid_noise_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("width=32\nheight=32\nmotion=constant\nvx=1\nvy=0\nnoise=1.5\n")
        cfg = load_scene_config(path)
        with pytest.raises(ValueError):
            scene_from_config(cfg, np.random.default_rng(0))

    def test_bezier_motion_config(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "width=48\nheight=48\nmotion=bezier\noffsets=6:0,0:6,-3:3\n"
            "points=10\nn_events=200\n"
        )
        spec = scene_from_config(load_scene_config(path), np.random.default_rng(1))
        assert isinstance(spec.motion, BezierMotion)
        sl, gt = generate_events(spec, seed=1)
        np.testing.assert_allclose(gt.disp[-1, 0, 0], [-3.0, 3.0], atol=1e-12)
