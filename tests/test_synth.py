import numpy as np
import pytest

from evtraj.synth import (
    BezierMotion,
    CircularMotion,
    ConstantMotion,
    SceneSpec,
    generate_events,
    load_scene_config,
    scatter_points,
    scene_from_config,
)

from scenes import arc_scene, constant_scene


class TestGenerateEvents:
    def test_pure_noise_scene(self):
        spec = SceneSpec(
            width=32, height=32, motion=ConstantMotion((0.0, 0.0)),
            points=np.zeros((0, 2)), rates=np.zeros(0),
            n_events=100, noise_fraction=1.0,
        )
        sl, gt = generate_events(spec, seed=0)
        assert len(sl) == 100

    def test_degenerate_scene_rejected(self):
        spec = SceneSpec(
            width=32, height=32, motion=ConstantMotion((0.0, 0.0)),
            points=np.zeros((0, 2)), rates=np.zeros(0),
            n_events=100, noise_fraction=0.0,
        )
        with pytest.raises(ValueError, match="degenerate"):
            generate_events(spec, seed=0)

    def test_constant_flow_events_on_line(self):
        point = np.array([[10.0, 20.0]])
        spec = SceneSpec(
            width=64, height=64, motion=ConstantMotion((5.0, -3.0)),
            points=point, rates=np.ones(1), n_events=500,
        )
        sl, _ = generate_events(spec, seed=1)
        expect = point[0] + sl.normalized_times()[:, None] * np.array([5.0, -3.0])
        err = np.abs(np.stack([sl.x, sl.y], axis=1) - expect)
        assert err.max() < 0.5 + 1e-9

    def test_quantization_bound_all_motion_models(self):
        rng = np.random.default_rng(5)
        motions = [
            ConstantMotion((4.0, 2.0)),
            CircularMotion((32.0, 32.0), np.pi / 3),
            BezierMotion(((8.0, 0.0), (0.0, 6.0), (-4.0, 2.0))),
        ]
        for motion in motions:
            points = scatter_points(64, 64, 40, rng, motion)
            spec = SceneSpec(
                width=64, height=64, motion=motion, points=points,
                rates=np.ones(40), n_events=4000,
            )
            sl, _ = generate_events(spec, seed=2)
            assert len(sl) == 4000  # in-bounds paths: nothing dropped
            # brute-force: every event within 0.5 px of SOME point's curve
            t = sl.normalized_times()
            curves = points[None, :, :] + motion.displacement(points, t)  # (N, P, 2)
            d = np.linalg.norm(
                curves - np.stack([sl.x, sl.y], 1)[:, None, :], axis=2
            ).min(axis=1)
            assert d.max() < 0.5 * np.sqrt(2) + 1e-9

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
            width=32, height=32, motion=ConstantMotion((0.0, 0.0)),
            points=point, rates=np.ones(1), n_events=50,
        )
        sl, _ = generate_events(spec, seed=3)
        assert list(sl.p[:6]) == [1, -1, 1, -1, 1, -1]

    def test_noise_fraction_split(self):
        rng = np.random.default_rng(6)
        points = scatter_points(32, 32, 10, rng)
        spec = SceneSpec(
            width=32, height=32, motion=ConstantMotion((0.0, 0.0)),
            points=points, rates=np.ones(10), n_events=1000, noise_fraction=0.25,
        )
        sl, _ = generate_events(spec, seed=4)
        assert len(sl) == 1000

    def test_coverage_mask(self):
        sl, gt, spec = constant_scene(
            width=32, height=32, n_points=5, n_events=400, seed=9, coverage_radius=4.0
        )
        assert gt.valid.any() and not gt.valid.all()

    def test_determinism(self):
        a, _, _ = constant_scene(width=32, height=32, n_points=20, n_events=500, seed=11)
        b, _, _ = constant_scene(width=32, height=32, n_points=20, n_events=500, seed=11)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.x, b.x)


class TestSceneConfig:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "# test scene\nwidth=32\nheight=32\nmotion=constant\nvx=2\nvy=-1\n"
            "points=20\nn_events=500\nnoise=0.1\n"
        )
        cfg = load_scene_config(path)
        spec = scene_from_config(cfg, np.random.default_rng(0))
        assert spec.width == 32 and len(spec.points) == 20
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
