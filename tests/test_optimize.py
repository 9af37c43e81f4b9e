import numpy as np
import pytest

import evtraj.assoc as assoc
import evtraj.objective as objective
import evtraj.optimize as optimize
from evtraj.assoc import KnnConfig, build_displacement_volume, interpolate_flow
from evtraj.events import EventSlice
from evtraj.metrics import epe_ae
from evtraj.objective import (
    FIXED_REFERENCES,
    ObjectiveConfig,
    fixed_reference_forward,
    fixed_reference_loss,
    total_loss,
    warp_events,
)
from evtraj.optimize import (
    DivergenceError,
    OptimConfig,
    _fixed_reference_value_and_grad,
    loss_gradient,
    minimize,
    save_trace_csv,
)
from evtraj.trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField

from scenes import constant_scene


def small_instance(seed=0, n_events=200, width=16, height=16, basis=Basis(POLYNOMIAL, 2),
                   coeff_scale=1.0):
    rng = np.random.default_rng(seed)
    sl = EventSlice.from_arrays(
        rng.integers(0, width, n_events),
        rng.integers(0, height, n_events),
        rng.uniform(0.0, 1.0, n_events),
        rng.choice([-1, 1], n_events),
        width,
        height,
        t_start=0.0,
        t_end=1.0,
    )
    field = TrajectoryField.zeros(width, height, 4, basis)
    field.coeffs[...] = rng.normal(0.0, coeff_scale, field.coeffs.shape)
    return sl, field


def fd_check_coordinates(sl, field, cfg, t_ref, h, rng, n_coords):
    """Reference check: central differences of total_loss (with t_ref None,
    of the fixed-reference objective 1/F that minimize descends), skipping
    coordinates that move an affected event within 4h of the breakpoint
    lattice. Returns max relative error over the checked coordinates."""
    if t_ref is None:
        grad = _fixed_reference_value_and_grad(sl, field, cfg)[2]
        t_refs = [t for t, _ in FIXED_REFERENCES]
    else:
        _, grad = loss_gradient(sl, field, t_ref, cfg)
        t_refs = [t_ref]
    risky = [np.zeros(field.n_anchors, dtype=bool), np.zeros(field.n_anchors, dtype=bool)]
    for t in t_refs:
        volume = build_displacement_volume(field, t, cfg.knn, cfg.n_bins)
        warped = warp_events(sl, volume, time_weighting=cfg.time_weighting)
        frac = warped.positions - np.floor(warped.positions)
        near = np.minimum(frac, 1.0 - frac) < 4.0 * h  # conservative skip, per axis
        knn_flat = volume.knn_indices.reshape(-1, volume.knn_indices.shape[-1])
        for k in np.flatnonzero(near.any(axis=1)):
            touched = np.unique(knn_flat[warped.vox_idx[k]])
            for axis in (0, 1):
                if near[k, axis]:
                    risky[axis][touched] = True

    def loss_of(coeffs):
        f = field.copy()
        f.coeffs = coeffs
        if t_ref is None:
            return 1.0 / fixed_reference_loss(sl, f, cfg)
        return total_loss(sl, f, t_ref, cfg).total

    shape = field.coeffs.shape
    cols = shape[1]
    max_rel = 0.0
    checked = 0
    for flat in rng.permutation(field.coeffs.size):
        if checked >= n_coords:
            break
        coord = np.unravel_index(flat, shape)
        if risky[coord[3]][coord[0] * cols + coord[1]]:
            continue
        pert = field.coeffs.copy()
        pert[coord] += h
        lp = loss_of(pert)
        pert[coord] -= 2 * h
        lm = loss_of(pert)
        gn = (lp - lm) / (2 * h)
        rel = abs(grad[coord] - gn) / max(abs(grad[coord]), abs(gn), 1e-12)
        max_rel = max(max_rel, rel)
        checked += 1
    assert checked >= n_coords // 2, "too many skipped coordinates"
    return max_rel


class TestLossGradient:
    def test_zero_events_zero_coefficients(self):
        sl = EventSlice.from_arrays([], [], [], [], 16, 16)
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 2))
        out, grad = loss_gradient(sl, field, 0.5, ObjectiveConfig(knn=KnnConfig(k=4), n_bins=5))
        np.testing.assert_array_equal(grad, 0.0)
        assert out.r == 0.0

    @pytest.mark.parametrize(
        "seed, basis, t_ref, n_coords",
        [(1, Basis(POLYNOMIAL, 2), 0.43, 40), (7, Basis(POLYNOMIAL, 1), 0.37, 32)],
        ids=["seed1", "seed7-degree1"],
    )
    def test_matches_finite_differences_bilinear(self, seed, basis, t_ref, n_coords):
        sl, field = small_instance(seed=seed, basis=basis)
        cfg = ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5, time_weighting=True)
        rng = np.random.default_rng(10)
        max_rel = fd_check_coordinates(sl, field, cfg, t_ref=t_ref, h=1e-4, rng=rng, n_coords=n_coords)
        assert max_rel < 1e-4

    @pytest.mark.parametrize("seed, t_ref, n_coords", [(2, 0.43, 40), (8, 0.37, 32)], ids=["seed2", "seed8"])
    def test_matches_finite_differences_gaussian(self, seed, t_ref, n_coords):
        sl, field = small_instance(seed=seed)
        cfg = ObjectiveConfig(sigma=1.0, knn=KnnConfig(k=8), n_bins=5, time_weighting=True)
        rng = np.random.default_rng(11)
        max_rel = fd_check_coordinates(sl, field, cfg, t_ref=t_ref, h=1e-4, rng=rng, n_coords=n_coords)
        assert max_rel < 1e-5

    def test_matches_finite_differences_bezier_basis(self):
        sl, field = small_instance(seed=3, basis=Basis(BEZIER, 4))
        cfg = ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5)
        rng = np.random.default_rng(12)
        max_rel = fd_check_coordinates(sl, field, cfg, t_ref=0.68, h=1e-4, rng=rng, n_coords=40)
        assert max_rel < 1e-4

    def test_lambda_isolation(self):
        # lambda = 0 exercises only the contrast path, a huge lambda makes
        # the smoothness path dominate; both must agree with differences
        sl, field = small_instance(seed=4)
        rng = np.random.default_rng(13)
        for lam in (0.0, 50.0):
            cfg = ObjectiveConfig(lam=lam, knn=KnnConfig(k=8), n_bins=5)
            max_rel = fd_check_coordinates(sl, field, cfg, t_ref=0.31, h=1e-4, rng=rng, n_coords=30)
            assert max_rel < 1e-4, f"lambda={lam}"

    def test_directional_derivative_and_sign_flip(self):
        sl, field = small_instance(seed=5)
        cfg = ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5)
        rng = np.random.default_rng(14)
        direction = rng.normal(0, 1, field.coeffs.shape)
        h = 1e-5
        for flip in (1.0, -1.0):
            base = field.copy()
            base.coeffs = flip * field.coeffs
            _, grad = loss_gradient(sl, base, 0.55, cfg)
            plus, minus = base.copy(), base.copy()
            plus.coeffs = base.coeffs + h * direction
            minus.coeffs = base.coeffs - h * direction
            fd = (
                total_loss(sl, plus, 0.55, cfg).total - total_loss(sl, minus, 0.55, cfg).total
            ) / (2 * h)
            analytic = float((grad * direction).sum())
            assert abs(analytic - fd) / max(abs(analytic), abs(fd)) < 1e-4

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_fixed_reference_matches_finite_differences(self, sigma):
        # an even bin count keeps t_ref = 0.5 off the bin centers, whose
        # events would sit still on the breakpoint lattice
        sl, field = small_instance(seed=15)
        cfg = ObjectiveConfig(sigma=sigma, knn=KnnConfig(k=8), n_bins=4)
        rng = np.random.default_rng(15)
        max_rel = fd_check_coordinates(sl, field, cfg, t_ref=None, h=1e-4, rng=rng, n_coords=40)
        assert max_rel < 1e-5

    def test_fixed_reference_searches_once(self, monkeypatch):
        sl, field = small_instance(seed=16)
        cfg = ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5)
        calls = []
        search = assoc.knn_per_bin

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(assoc, "knn_per_bin", counted)
        _fixed_reference_value_and_grad(sl, field, cfg)
        assert len(calls) == cfg.n_bins

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_fixed_reference_shared_search_matches_three_builds(self, monkeypatch, sigma):
        sl, field = small_instance(seed=17)
        cfg = ObjectiveConfig(sigma=sigma, knn=KnnConfig(k=8), n_bins=5)
        shared = fixed_reference_forward(sl, field, cfg)
        shared_step = _fixed_reference_value_and_grad(sl, field, cfg)
        built = []

        def fresh_build(field, volume, t_ref):
            built.append(t_ref)
            return build_displacement_volume(field, t_ref, cfg.knn, cfg.n_bins)

        monkeypatch.setattr(objective, "regather_volume", fresh_build)
        f, g0, passes = fixed_reference_forward(sl, field, cfg)
        step = _fixed_reference_value_and_grad(sl, field, cfg)
        assert built == [0.5, 1.0, 0.5, 1.0]
        assert shared[:2] == (f, g0)
        for a, b in zip(shared[2], passes):
            np.testing.assert_array_equal(a.volume.disp, b.volume.disp)
            np.testing.assert_array_equal(a.volume.knn_indices, b.volume.knn_indices)
        assert shared_step[:2] == step[:2]
        np.testing.assert_array_equal(shared_step[2], step[2])

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_value_and_gradient_paths_agree_exactly(self, seed, sigma):
        sl, field = small_instance(seed=seed)
        cfg = ObjectiveConfig(sigma=sigma, knn=KnnConfig(k=8), n_bins=5, time_weighting=True)
        assert total_loss(sl, field, 0.43, cfg) == loss_gradient(sl, field, 0.43, cfg)[0]

    def test_degenerate_guard_gradient(self):
        # every event masked: contrast path dead, smoothness path alive
        sl, field = small_instance(seed=6)
        field.coeffs[..., 0] += 1e5
        cfg = ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5)
        out, grad = loss_gradient(sl, field, 0.45, cfg)
        assert out.degenerate
        assert np.all(np.isfinite(grad))


class TestMinimize:
    def test_zero_iterations_returns_init(self):
        sl, field = small_instance(seed=10)
        ocfg = OptimConfig(iterations=0, objective=ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5))
        trace = minimize(sl, field, ocfg)
        assert len(trace) == 0
        np.testing.assert_array_equal(trace.field.coeffs, field.coeffs)

    def test_seed_determinism_bit_identical(self):
        sl, field = small_instance(seed=11)
        ocfg = OptimConfig(
            iterations=8, lr=0.05, seed=3,
            objective=ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5),
        )
        a = minimize(sl, field, ocfg)
        b = minimize(sl, field, ocfg)
        np.testing.assert_array_equal(a.total, b.total)
        np.testing.assert_array_equal(a.t_ref, b.t_ref)
        np.testing.assert_array_equal(a.field.coeffs, b.field.coeffs)

    def test_nonfinite_aborts_with_iteration(self):
        sl, field = small_instance(seed=12)
        field.coeffs[0, 0, 0, 0] = np.nan
        ocfg = OptimConfig(iterations=3, objective=ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5))
        with pytest.raises(DivergenceError, match="iteration 0"):
            minimize(sl, field, ocfg)

    def test_loss_decreases_on_constant_flow(self):
        sl, gt, spec = constant_scene(width=48, height=48, n_points=120, n_events=8000, seed=21)
        field = TrajectoryField.zeros(48, 48, 4, Basis(POLYNOMIAL, 1))
        ocfg = OptimConfig(
            iterations=120, lr=0.08, seed=0,
            objective=ObjectiveConfig(sigma=1.0, knn=KnnConfig(k=16), n_bins=15),
        )
        trace = minimize(sl, field, ocfg)
        head = np.median(trace.total[:12])
        tail = np.median(trace.total[-12:])
        assert tail < head
        # flow accuracy at t=1 improves drastically over the zero field
        # the dense flow the estimator emits: each pixel's mean over its K anchors
        flow = interpolate_flow(trace.field, [1.0], k=16)[0]
        v = np.array(spec.motion.v)
        mean_err = np.linalg.norm(flow - v, axis=-1).mean()
        assert mean_err < 1.0

    def test_trace_csv(self, tmp_path):
        sl, field = small_instance(seed=13)
        ocfg = OptimConfig(iterations=4, objective=ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5))
        trace = minimize(sl, field, ocfg)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,t_ref,G,R,total"
        assert len(lines) == 5

    def test_fixed_reference_objective_mode(self, monkeypatch):
        sl, field = small_instance(seed=15)
        ocfg = OptimConfig(
            iterations=3, fixed_reference=True,
            objective=ObjectiveConfig(knn=KnnConfig(k=8), n_bins=5),
        )
        calls = []
        contrast_zero = objective.zero_warp_contrast

        def counted(*args):
            calls.append(1)
            return contrast_zero(*args)

        for module in (objective, optimize):
            monkeypatch.setattr(module, "zero_warp_contrast", counted)
        trace = minimize(sl, field, ocfg)
        assert len(trace) == 3
        assert np.all(np.isfinite(trace.total))
        # G_0 does not depend on the field: once per run, not per iteration
        assert len(calls) == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.0)
        with pytest.raises(ValueError, match="iterations"):
            OptimConfig(iterations=-1)
