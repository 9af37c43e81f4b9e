import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evtraj.assoc as assoc
from evtraj.assoc import (
    KnnConfig,
    build_consecutive_delta_field,
    build_displacement_volume,
    interpolate_flow,
    knn_per_bin,
    regather_volume,
)
from evtraj.trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField, anchor_grid, eval_trajectory_batch

from oracles import delta_field_scalar, displacement_volume_scalar, knn_scalar


def random_field(rng, width=32, height=32, stride=4, basis=Basis(BEZIER, 5), scale=2.0):
    field = TrajectoryField.zeros(width, height, stride, basis)
    field.coeffs[...] = rng.normal(0.0, scale, field.coeffs.shape)
    return field


class TestKnn:
    def test_single_anchor(self):
        query = np.array([[0.0, 0.0], [5.0, 7.0]])
        idx, dist = knn_per_bin(query, np.array([[1.0, 1.0]]), k=1)
        np.testing.assert_array_equal(idx, [[0], [0]])
        np.testing.assert_allclose(dist[:, 0], [np.sqrt(2.0), np.hypot(4, 6)])

    def test_tie_goes_to_lower_index(self):
        # both anchors at distance exactly 2 from the query
        anchors = np.array([[2.0, 0.0], [-2.0, 0.0]])
        idx, _ = knn_per_bin(np.array([[0.0, 0.0]]), anchors, k=1)
        assert idx[0, 0] == 0
        # swap order: still the lower index wins
        idx, _ = knn_per_bin(np.array([[0.0, 0.0]]), anchors[::-1], k=1)
        assert idx[0, 0] == 0

    def test_matches_bruteforce_scan_with_ties(self):
        rng = np.random.default_rng(21)
        # integer coordinates make squared distances exact, so ties are real
        anchors = rng.integers(0, 12, (500, 2)).astype(float)
        query = rng.integers(0, 12, (100, 2)).astype(float)
        idx, dist = knn_per_bin(query, anchors, k=32)
        ref_idx, ref_dist = knn_scalar(query, anchors, k=32)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_allclose(dist, ref_dist, atol=1e-12)

    def test_tiled_equals_bruteforce_any_tile_size(self):
        rng = np.random.default_rng(33)
        anchors = rng.integers(0, 40, (300, 2)).astype(float)
        query = rng.integers(0, 40, (97, 2)).astype(float)
        full_idx, full_dist = knn_per_bin(query, anchors, k=8, tile_size=10**9)
        for tile in (1, 2, 3, 17, 96, 97, 128):
            idx, dist = knn_per_bin(query, anchors, k=8, tile_size=tile)
            np.testing.assert_array_equal(idx, full_idx)
            np.testing.assert_array_equal(dist, full_dist)

    def test_k_exceeding_anchor_count_rejected(self):
        with pytest.raises(ValueError):
            knn_per_bin(np.zeros((2, 2)), np.zeros((3, 2)), k=4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            knn_per_bin(np.array([[np.nan, 0.0]]), np.zeros((3, 2)), k=1)

    def test_distance_tile_memory_bounded(self):
        # instrumented allocation hook: every distance tile must stay below
        # tile_size x anchor_count float64 entries
        rng = np.random.default_rng(40)
        anchors = rng.normal(0, 10, (700, 2))
        query = rng.normal(0, 10, (900, 2))
        tile = 64
        seen = []
        assoc._dist_alloc_hook = seen.append
        try:
            knn_per_bin(query, anchors, k=5, tile_size=tile)
        finally:
            assoc._dist_alloc_hook = None
        assert seen, "hook not exercised"
        assert max(seen) <= tile * len(anchors) * 8


def assert_knn_matches_scan(query, points, k):
    """Indices equal to the scalar scan; distances equal to it and across tilings."""
    idx, dist = knn_per_bin(query, points, k)
    ref_idx, ref_dist = knn_scalar(query, points, k)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(dist, ref_dist)
    for tile in (1, 7):
        tiled_idx, tiled_dist = knn_per_bin(query, points, k, tile_size=tile)
        np.testing.assert_array_equal(tiled_idx, idx)
        np.testing.assert_array_equal(tiled_dist, dist)


class TestKnnLatticeTies:
    """Ties straddling the k-th distance, where the selection must take the
    lowest-index tied entries."""

    @pytest.mark.parametrize("k", [1, 4, 9, 32])
    def test_zero_field_anchor_grid_at_cell_centres(self, k):
        # at the zero field every trajectory sits on its cell centre, so
        # nearly every query has a tie at its k-th distance
        field = TrajectoryField.zeros(64, 48, 4, Basis(BEZIER, 3))
        _, _, centers = anchor_grid(64, 48, 4)
        assert_knn_matches_scan(centers, eval_trajectory_batch(field, [0.5])[0], k)
        vol = build_displacement_volume(field, 0.5, KnnConfig(k=k), n_bins=2)
        ref_idx, _ = knn_scalar(centers, field.anchor_positions(), k)
        for b in range(2):
            np.testing.assert_array_equal(vol.knn_indices[b].reshape(-1, k), ref_idx)

    @pytest.mark.parametrize("k", [1, 4, 5, 8, 9, 12, 13, 32])
    def test_integer_lattice_distance_shells(self, k):
        # around a lattice point the shells close at 1, 5, 9, 13, 21, ...
        # neighbours, around a half-integer point at 4, 12, 16, ...; the
        # shuffle keeps index order apart from position
        g = np.arange(11.0)
        points = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        points = points[np.random.default_rng(5).permutation(len(points))]
        halves = np.stack(np.meshgrid(g[:-1] + 0.5, g[:-1] + 0.5), axis=-1).reshape(-1, 2)
        assert_knn_matches_scan(np.concatenate([points, halves]), points, k)

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=2, max_size=40),
        queries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_small_integer_point_sets(self, points, queries, data):
        k = data.draw(st.integers(1, len(points)), label="k")
        assert_knn_matches_scan(np.array(queries, dtype=float), np.array(points, dtype=float), k)


class TestDisplacementVolume:
    def test_zero_coefficients_zero_volume(self):
        field = TrajectoryField.zeros(32, 32, 4, Basis(POLYNOMIAL, 2))
        vol = build_displacement_volume(field, 0.7, KnnConfig(k=8), n_bins=5)
        np.testing.assert_array_equal(vol.disp, 0.0)

    def test_single_anchor_linear_midpoint(self):
        # one anchor (stride covers the whole image), alpha = (4, 0), t_ref = 1
        field = TrajectoryField.zeros(4, 4, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[0, 0, 0] = [4.0, 0.0]
        vol = build_displacement_volume(field, 1.0, KnnConfig(k=1), n_bins=1)
        # bin center 0.5: q(1) - q(0.5) = (2, 0)
        np.testing.assert_allclose(vol.disp[0, 0, 0], [2.0, 0.0])

    def test_bin_centers(self):
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        vol = build_displacement_volume(field, 0.0, KnnConfig(k=1), n_bins=4)
        np.testing.assert_allclose(vol.bin_centers, [0.125, 0.375, 0.625, 0.875])

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(77)
        field = random_field(rng, width=16, height=16, stride=4, basis=Basis(BEZIER, 4))
        vol = build_displacement_volume(field, 0.3, KnnConfig(k=3), n_bins=4)
        ref = displacement_volume_scalar(field, vol)
        assert np.abs(vol.disp - ref).max() < 1e-6

    def test_regather_equals_fresh_build(self):
        rng = np.random.default_rng(78)
        field = random_field(rng)
        vol = build_displacement_volume(field, 0.2, KnnConfig(k=6), n_bins=5)
        fresh = build_displacement_volume(field, 0.9, KnnConfig(k=6), n_bins=5)
        moved = regather_volume(field, vol, 0.9)
        assert moved.t_ref == 0.9
        np.testing.assert_array_equal(moved.disp, fresh.disp)
        np.testing.assert_array_equal(moved.knn_indices, fresh.knn_indices)
        np.testing.assert_array_equal(moved.pos_bins, fresh.pos_bins)

    def test_invalid_arguments(self):
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        with pytest.raises(ValueError):
            build_displacement_volume(field, 1.5, KnnConfig(k=1), n_bins=3)
        with pytest.raises(ValueError):
            build_displacement_volume(field, 0.5, KnnConfig(k=1), n_bins=0)
        with pytest.raises(ValueError):
            build_displacement_volume(field, 0.5, KnnConfig(k=99), n_bins=3)


class TestConsecutiveDeltaField:
    def test_zero_coefficients(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(BEZIER, 3))
        vol = build_displacement_volume(field, 0.5, KnnConfig(k=4), n_bins=5)
        delta = build_consecutive_delta_field(vol)
        assert delta.shape == (4, 4, 4, 2)
        np.testing.assert_array_equal(delta, 0.0)

    def test_constant_flow_two_bins(self):
        v = np.array([3.0, -1.0])
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[..., :] = v
        vol = build_displacement_volume(field, 0.0, KnnConfig(k=4), n_bins=2)
        delta = build_consecutive_delta_field(vol)
        np.testing.assert_allclose(delta, np.broadcast_to(v / 2.0, delta.shape), atol=1e-12)

    def test_single_bin_gives_empty_field(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        vol = build_displacement_volume(field, 0.5, KnnConfig(k=4), n_bins=1)
        assert build_consecutive_delta_field(vol).size == 0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        field = random_field(rng, width=16, height=16, basis=Basis(POLYNOMIAL, 3))
        vol = build_displacement_volume(field, 0.6, KnnConfig(k=5), n_bins=4)
        delta = build_consecutive_delta_field(vol)
        ref = delta_field_scalar(field, vol)
        np.testing.assert_allclose(delta, ref, atol=1e-10)


class TestInterpolateFlow:
    def test_constant_field_reproduced_exactly(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[..., :] = [2.0, 1.0]
        flow = interpolate_flow(field, [0.5, 1.0], k=4)
        np.testing.assert_allclose(flow[0], np.broadcast_to([1.0, 0.5], (16, 16, 2)))
        np.testing.assert_allclose(flow[1], np.broadcast_to([2.0, 1.0], (16, 16, 2)))

    def test_grid_layout(self):
        rows, cols, pos = anchor_grid(10, 6, 4)
        assert (rows, cols) == (2, 3)
        assert pos.shape == (6, 2)
