from dataclasses import replace

import numpy as np
import pytest

import evtraj.assoc as assoc
import evtraj.objective as objective
import evtraj.optimize as optimize
from evtraj.assoc import (
    build_consecutive_delta_field,
    build_displacement_volume,
    event_lookup,
    interpolate_flow,
)
from evtraj.events import EventSlice
from evtraj.objective import (
    FIXED_REFERENCES,
    ObjectiveConfig,
    contrast_pass,
    regularizer_r,
    warp_events,
    zero_warp_contrast,
)
from evtraj.optimize import (
    DivergenceError,
    OptimConfig,
    loss_gradient,
    minimize,
    save_trace_csv,
)
from evtraj.trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField

from oracles import event_voxels_scalar
from scenes import constant_scene, event_entries, own_sites, shared_site_slice

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


def one(t_ref):
    """The reference set of a single drawn reference time."""
    return ((t_ref, 1.0),)


def baseline(sl, field, cfg):
    """(refs, cfg, lookup, g0) of the fixed-reference baseline, as minimize
    sets them."""
    lookup = event_lookup(sl, cfg.n_bins, field.stride)
    g0 = zero_warp_contrast(sl, cfg.sigma, lookup)
    return FIXED_REFERENCES, replace(cfg, lam=0.0, time_weighting=False), lookup, g0


def count_lookups(monkeypatch):
    """The (n_bins, stride) of every event_lookup that optimize makes."""
    calls = []
    lookup = optimize.event_lookup

    def counted(*args):
        calls.append(args[1:])
        return lookup(*args)

    monkeypatch.setattr(optimize, "event_lookup", counted)
    return calls


def fd_check_coordinates(sl, field, cfg, refs, h, rng, n_coords, g0=1.0):
    """Reference check: central differences of the loss total, skipping
    coordinates that move an affected event within 4h of the breakpoint
    lattice at any reference time. Returns max relative error over the
    checked coordinates."""
    lookup = event_lookup(sl, cfg.n_bins, field.stride)
    _, grad = loss_gradient(sl, field, refs, cfg, lookup, g0)
    risky = [np.zeros(field.n_anchors, dtype=bool), np.zeros(field.n_anchors, dtype=bool)]
    voxels = event_voxels_scalar(sl, cfg.n_bins, field.stride)
    for t, _ in refs:
        volume = build_displacement_volume(field, t, cfg.k, cfg.n_bins)
        positions = warp_events(sl, event_entries(sl, volume.disp, field.stride), own_sites(sl)).positions
        frac = positions - np.floor(positions)
        near = np.minimum(frac, 1.0 - frac) < 4.0 * h  # conservative skip, per axis
        for k in np.flatnonzero(near.any(axis=1)):
            touched = np.unique(volume.knn_indices[voxels[k]])
            for axis in (0, 1):
                if near[k, axis]:
                    risky[axis][touched] = True

    def loss_of(coeffs):
        f = field.copy()
        f.coeffs = coeffs
        return loss_gradient(sl, f, refs, cfg, lookup, g0)[0].total

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
        cfg = ObjectiveConfig(k=4, n_bins=5)
        out, grad = loss_gradient(sl, field, one(0.5), cfg, event_lookup(sl, cfg.n_bins, field.stride))
        np.testing.assert_array_equal(grad, 0.0)
        assert out.r == 0.0

    @pytest.mark.parametrize(
        "seed, basis, t_ref, n_coords",
        [(1, Basis(POLYNOMIAL, 2), 0.43, 40), (7, Basis(POLYNOMIAL, 1), 0.37, 32)],
        ids=["seed1", "seed7-degree1"],
    )
    def test_matches_finite_differences_bilinear(self, seed, basis, t_ref, n_coords):
        sl, field = small_instance(seed=seed, basis=basis)
        cfg = ObjectiveConfig(k=8, n_bins=5, time_weighting=True)
        rng = np.random.default_rng(10)
        max_rel = fd_check_coordinates(sl, field, cfg, one(t_ref), h=1e-4, rng=rng, n_coords=n_coords)
        assert max_rel < 1e-4

    @pytest.mark.parametrize(
        "seed, t_ref, n_coords, sigma",
        [(2, 0.43, 40, 1.0), (8, 0.37, 32, 1.0), (9, 0.43, 40, 0.7), (2, 0.43, 40, 3.0)],
        ids=["seed2", "seed8", "seed9-sigma0.7", "seed2-sigma3"],
    )
    def test_matches_finite_differences_gaussian(self, seed, t_ref, n_coords, sigma):
        sl, field = small_instance(seed=seed)
        cfg = ObjectiveConfig(sigma=sigma, k=8, n_bins=5, time_weighting=True)
        rng = np.random.default_rng(11)
        max_rel = fd_check_coordinates(sl, field, cfg, one(t_ref), h=1e-4, rng=rng, n_coords=n_coords)
        assert max_rel < 1e-5

    def test_matches_finite_differences_bezier_basis(self):
        sl, field = small_instance(seed=3, basis=Basis(BEZIER, 4))
        cfg = ObjectiveConfig(k=8, n_bins=5)
        rng = np.random.default_rng(12)
        max_rel = fd_check_coordinates(sl, field, cfg, one(0.68), h=1e-4, rng=rng, n_coords=40)
        assert max_rel < 1e-4

    def test_lambda_isolation(self):
        # lambda = 0 exercises only the contrast path, a huge lambda makes
        # the smoothness path dominate; both must agree with differences
        sl, field = small_instance(seed=4)
        rng = np.random.default_rng(13)
        for lam in (0.0, 50.0):
            cfg = ObjectiveConfig(lam=lam, k=8, n_bins=5)
            max_rel = fd_check_coordinates(sl, field, cfg, one(0.31), h=1e-4, rng=rng, n_coords=30)
            assert max_rel < 1e-4, f"lambda={lam}"

    def test_directional_derivative_and_sign_flip(self):
        sl, field = small_instance(seed=5)
        cfg = ObjectiveConfig(k=8, n_bins=5)
        rng = np.random.default_rng(14)
        direction = rng.normal(0, 1, field.coeffs.shape)
        lookup = event_lookup(sl, cfg.n_bins, field.stride)
        h = 1e-5
        for flip in (1.0, -1.0):
            base = field.copy()
            base.coeffs = flip * field.coeffs
            _, grad = loss_gradient(sl, base, one(0.55), cfg, lookup)
            plus, minus = base.copy(), base.copy()
            plus.coeffs = base.coeffs + h * direction
            minus.coeffs = base.coeffs - h * direction
            fd = (
                loss_gradient(sl, plus, one(0.55), cfg, lookup)[0].total
                - loss_gradient(sl, minus, one(0.55), cfg, lookup)[0].total
            ) / (2 * h)
            analytic = float((grad * direction).sum())
            assert abs(analytic - fd) / max(abs(analytic), abs(fd)) < 1e-4

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_fixed_reference_matches_finite_differences(self, sigma):
        # an even bin count keeps t_ref = 0.5 off the bin centers, whose
        # events would sit still on the breakpoint lattice
        sl, field = small_instance(seed=15)
        refs, cfg, _, g0 = baseline(sl, field, ObjectiveConfig(sigma=sigma, k=8, n_bins=4))
        rng = np.random.default_rng(15)
        max_rel = fd_check_coordinates(sl, field, cfg, refs, h=1e-4, rng=rng, n_coords=40, g0=g0)
        assert max_rel < 1e-5

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_fixed_reference_is_inverse_of_hand_built_f(self, sigma):
        # F from three separate volume builds and contrast passes, as in
        # Shiba et al.: (G(0) + 2 G(0.5) + G(1)) / (4 G_0)
        sl, field = small_instance(seed=18)
        cfg = ObjectiveConfig(sigma=sigma, k=8, n_bins=5)
        volumes = [build_displacement_volume(field, t, cfg.k, cfg.n_bins) for t in (0.0, 0.5, 1.0)]
        deltas = [event_entries(sl, v.disp, field.stride) for v in volumes]
        g = [contrast_pass(sl, delta, sigma, None, own_sites(sl))[0] for delta in deltas]
        refs, base, lookup, g0 = baseline(sl, field, cfg)
        f = (g[0] + 2.0 * g[1] + g[2]) / (4.0 * g0)
        out, _ = loss_gradient(sl, field, refs, base, lookup, g0)
        assert out.total == 1.0 / f
        assert (out.g, out.r, out.t_ref) == (f, 0.0, 0.5)

    def test_fixed_reference_searches_once(self, monkeypatch):
        sl, field = small_instance(seed=16)
        cfg = ObjectiveConfig(k=8, n_bins=5)
        calls = []
        search = assoc.knn_per_bin

        def counted(query, positions, k):
            calls.append(np.shape(positions))
            return search(query, positions, k)

        monkeypatch.setattr(assoc, "knn_per_bin", counted)
        loss_gradient(sl, field, *baseline(sl, field, cfg))
        # one stacked search per build, holding every bin's anchor set
        assert calls == [(cfg.n_bins, field.n_anchors, 2)]

    def test_fixed_reference_finds_event_slots_once(self, monkeypatch):
        sl, field = small_instance(seed=16)
        calls = count_lookups(monkeypatch)
        ocfg = OptimConfig(iterations=3, objective=ObjectiveConfig(k=8, n_bins=5), fixed_reference=True)
        minimize(sl, field, ocfg)
        # every pass of every iteration reads its tables through one lookup
        assert calls == [(5, field.stride)]

    def test_drawn_reference_finds_event_slots_once(self, monkeypatch):
        sl, field = small_instance(seed=16)
        calls = count_lookups(monkeypatch)
        minimize(sl, field, OptimConfig(iterations=3, objective=ObjectiveConfig(k=8, n_bins=5)))
        assert calls == [(5, field.stride)]

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("fixed", [False, True], ids=["drawn", "fixed"])
    def test_shared_sites_match_finite_differences(self, sigma, fixed):
        # each (bin, pixel, polarity) holds 2-12 events: the pullback
        # contracts once per site and must reach every one of them
        rng = np.random.default_rng(31)
        sl = shared_site_slice(rng, n_sites=40, width=16, height=16, n_bins=4)
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 2))
        field.coeffs[...] = rng.normal(0.0, 1.0, field.coeffs.shape)
        cfg = ObjectiveConfig(sigma=sigma, k=8, n_bins=4)
        refs, g0 = one(0.43), 1.0
        if fixed:
            refs, cfg, _, g0 = baseline(sl, field, cfg)
        max_rel = fd_check_coordinates(sl, field, cfg, refs, h=1e-4, rng=rng, n_coords=40, g0=g0)
        assert max_rel < (1e-4 if sigma == 0.0 and not fixed else 1e-5)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_fixed_reference_shared_search_matches_three_builds(self, monkeypatch, sigma):
        sl, field = small_instance(seed=17)
        cfg = ObjectiveConfig(sigma=sigma, k=8, n_bins=5)
        inputs = baseline(sl, field, cfg)
        shared = loss_gradient(sl, field, *inputs)
        built = []

        def fresh_build(field, volume, t_ref):
            built.append(t_ref)
            return build_displacement_volume(field, t_ref, cfg.k, cfg.n_bins)

        monkeypatch.setattr(optimize, "regather_volume", fresh_build)
        step = loss_gradient(sl, field, *inputs)
        assert built == [0.5, 1.0]
        assert shared[0] == step[0]
        np.testing.assert_array_equal(shared[1], step[1])

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_value_and_gradient_paths_agree_exactly(self, seed, sigma):
        # the breakdown equals the loss composed from the terms by hand
        sl, field = small_instance(seed=seed)
        cfg = ObjectiveConfig(sigma=sigma, k=8, n_bins=5, time_weighting=True)
        volume = build_displacement_volume(field, 0.43, cfg.k, cfg.n_bins)
        lookup = event_lookup(sl, cfg.n_bins, field.stride)
        g, _, n_masked = contrast_pass(sl, lookup.read(volume.disp), sigma, 0.43, lookup)
        r = regularizer_r(build_consecutive_delta_field(field, volume)[0])[0]
        lam = cfg.lam / (sl.width * sl.height)
        out = loss_gradient(sl, field, one(0.43), cfg, lookup)[0]
        assert (out.g, out.r, out.n_masked) == (g, r, n_masked)
        assert out.total == 1.0 / g + lam * r

    def test_degenerate_guard_gradient(self):
        # every event masked: contrast path dead, smoothness path alive
        sl, field = small_instance(seed=6)
        field.coeffs[..., 0] += 1e5
        cfg = ObjectiveConfig(k=8, n_bins=5)
        out, grad = loss_gradient(sl, field, one(0.45), cfg, event_lookup(sl, cfg.n_bins, field.stride))
        assert out.degenerate
        assert np.all(np.isfinite(grad))


class TestMinimize:
    def test_zero_iterations_returns_init(self):
        sl, field = small_instance(seed=10)
        ocfg = OptimConfig(iterations=0, objective=ObjectiveConfig(k=8, n_bins=5))
        trace = minimize(sl, field, ocfg)
        assert len(trace) == 0
        np.testing.assert_array_equal(trace.field.coeffs, field.coeffs)

    def test_seed_determinism_bit_identical(self):
        sl, field = small_instance(seed=11)
        ocfg = OptimConfig(
            iterations=8, lr=0.05, seed=3,
            objective=ObjectiveConfig(k=8, n_bins=5),
        )
        a = minimize(sl, field, ocfg)
        b = minimize(sl, field, ocfg)
        assert a.steps == b.steps
        np.testing.assert_array_equal(a.field.coeffs, b.field.coeffs)
        assert all(0.0 <= s.t_ref < 1.0 for s in a.steps)

    def test_nonfinite_aborts_with_iteration(self):
        sl, field = small_instance(seed=12)
        field.coeffs[0, 0, 0, 0] = np.nan
        ocfg = OptimConfig(iterations=3, objective=ObjectiveConfig(k=8, n_bins=5))
        with pytest.raises(DivergenceError, match="iteration 0"):
            minimize(sl, field, ocfg)

    def test_every_event_off_image_aborts_with_iteration(self):
        # displacements of a million pixels warp all events off the 16x16
        # image (no bin center falls on a fixed reference time); the run
        # used to go on with G = 0 and a flat loss of 1/eps
        sl, field = small_instance(seed=13)
        field.coeffs[...] = 1e6
        ocfg = OptimConfig(iterations=3, objective=ObjectiveConfig(k=8, n_bins=4))
        with pytest.raises(DivergenceError, match="off the image at iteration 0"):
            minimize(sl, field, ocfg)
        with pytest.raises(DivergenceError, match="off the image at iteration 0"):
            minimize(sl, field, replace(ocfg, fixed_reference=True))

    @pytest.mark.parametrize("fixed_reference", [False, True])
    @pytest.mark.parametrize("sigma", [5.5, 1e308])
    def test_sigma_beyond_the_sensor_is_refused_before_any_pass(self, monkeypatch, sigma, fixed_reference):
        # 3 sigma exceeds the 16x16 sensor's larger side; at 1e308 the voting
        # kernel's ceil(3 sigma) used to overflow
        sl, field = small_instance(seed=15)

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(optimize, "zero_warp_contrast", no_pass)
        monkeypatch.setattr(optimize, "loss_gradient", no_pass)
        cfg = ObjectiveConfig(sigma=sigma, k=8, n_bins=5)
        with pytest.raises(ValueError, match="3 sigma exceeds the 16x16 sensor"):
            minimize(sl, field, OptimConfig(iterations=1, objective=cfg, fixed_reference=fixed_reference))

    def test_sigma_at_the_bound_runs(self):
        sl, field = small_instance(seed=15)
        cfg = ObjectiveConfig(sigma=16.0 / 3.0, k=8, n_bins=5)
        assert len(minimize(sl, field, OptimConfig(iterations=1, objective=cfg))) == 1

    def test_empty_slice_still_runs(self):
        _, field = small_instance(seed=14)
        sl = EventSlice.from_arrays([], [], [], [], 16, 16, t_start=0.0, t_end=1.0)
        ocfg = OptimConfig(iterations=2, objective=ObjectiveConfig(k=8, n_bins=5))
        assert len(minimize(sl, field, ocfg)) == 2

    def test_loss_decreases_on_constant_flow(self):
        sl, gt, spec = constant_scene(width=48, height=48, n_points=120, n_events=8000, seed=21)
        field = TrajectoryField.zeros(48, 48, 4, Basis(POLYNOMIAL, 1))
        ocfg = OptimConfig(
            iterations=120, lr=0.08, seed=0,
            objective=ObjectiveConfig(sigma=1.0, k=16, n_bins=15),
        )
        trace = minimize(sl, field, ocfg)
        head = np.median(trace.total[:12])
        tail = np.median(trace.total[-12:])
        assert tail < head
        # flow accuracy at t=1 improves drastically over the zero field
        # the dense flow the estimator emits: each pixel's mean over its K anchors
        flow = interpolate_flow(trace.field, [1.0], k=16)[0]
        v = np.array(spec.motion.offsets[0])
        mean_err = np.linalg.norm(flow - v, axis=-1).mean()
        assert mean_err < 1.0

    def test_trace_csv(self, tmp_path):
        sl, field = small_instance(seed=13)
        ocfg = OptimConfig(iterations=4, objective=ObjectiveConfig(k=8, n_bins=5))
        trace = minimize(sl, field, ocfg)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,t_ref,G,R,total"
        assert len(lines) == 5

    @pytest.mark.parametrize("fixed_reference", [False, True])
    def test_trace_rows_are_the_breakdowns(self, tmp_path, monkeypatch, fixed_reference):
        sl, field = small_instance(seed=13)
        ocfg = OptimConfig(iterations=4, objective=ObjectiveConfig(k=8, n_bins=5), fixed_reference=fixed_reference)
        seen = []
        step = optimize.loss_gradient

        def kept(*args):
            out = step(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(optimize, "loss_gradient", kept)
        trace = minimize(sl, field, ocfg)
        assert trace.steps == seen and len(trace) == 4
        np.testing.assert_array_equal(trace.total, [b.total for b in seen])
        save_trace_csv(trace, tmp_path / "trace.csv")
        rows = [[float(v) for v in line.split(",")] for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
        assert rows == [[i, b.t_ref, b.g, b.r, b.total] for i, b in enumerate(seen)]
        if fixed_reference:
            assert {(b.t_ref, b.r) for b in seen} == {(0.5, 0.0)}

    def test_trace_r_reads_zero_without_smoothness(self):
        sl, field = small_instance(seed=13)
        ocfg = OptimConfig(iterations=3, objective=ObjectiveConfig(lam=0.0, k=8, n_bins=5))
        trace = minimize(sl, field, ocfg)
        assert [b.r for b in trace.steps] == [0.0] * 3
        np.testing.assert_array_equal(trace.total, [1.0 / b.g for b in trace.steps])

    def test_fixed_reference_objective_mode(self, monkeypatch):
        sl, field = small_instance(seed=15)
        ocfg = OptimConfig(
            iterations=3, fixed_reference=True,
            objective=ObjectiveConfig(k=8, n_bins=5),
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

    @pytest.mark.parametrize("fixed_reference", [False, True])
    def test_one_gradient_and_one_volume_build_per_iteration(self, monkeypatch, fixed_reference):
        sl, field = small_instance(seed=14)
        ocfg = OptimConfig(
            iterations=3, fixed_reference=fixed_reference,
            objective=ObjectiveConfig(k=8, n_bins=5),
        )
        calls = []

        def counted(name, inner):
            def wrapper(*args):
                calls.append(name)
                return inner(*args)
            return wrapper

        monkeypatch.setattr(optimize, "loss_gradient", counted("grad", optimize.loss_gradient))
        monkeypatch.setattr(optimize, "build_displacement_volume",
                            counted("build", optimize.build_displacement_volume))
        minimize(sl, field, ocfg)
        # one build, inside the gradient, per iteration
        assert calls == ["grad", "build"] * 3

    def test_fixed_reference_ignores_lambda_and_time_weighting(self):
        sl, field = small_instance(seed=20)
        fields = [
            minimize(sl, field, OptimConfig(
                iterations=3, fixed_reference=True,
                objective=ObjectiveConfig(lam=lam, time_weighting=tw, k=8, n_bins=5),
            )).field.coeffs
            for lam, tw in ((0.0, False), (5.0, False), (0.0, True), (5.0, True))
        ]
        for coeffs in fields[1:]:
            np.testing.assert_array_equal(coeffs, fields[0])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.0)
        with pytest.raises(ValueError, match="iterations"):
            OptimConfig(iterations=-1)
        with pytest.raises(ValueError, match="seed"):
            OptimConfig(seed=-1)
