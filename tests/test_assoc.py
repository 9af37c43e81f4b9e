import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evtraj.assoc as assoc
from evtraj.assoc import (
    bin_centers,
    build_consecutive_delta_field,
    build_displacement_volume,
    event_lookup,
    interpolate_flow,
    knn_per_bin,
    regather_volume,
)
from evtraj.events import EventSlice
from evtraj.trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField, anchor_grid, eval_trajectory_batch

from oracles import delta_field_scalar, displacement_volume_scalar, flow_scalar, knn_scalar, warp_scalar


def random_field(rng, width=32, height=32, stride=4, basis=Basis(BEZIER, 5), scale=2.0):
    field = TrajectoryField.zeros(width, height, stride, basis)
    field.coeffs[...] = rng.normal(0.0, scale, field.coeffs.shape)
    return field


class TestKnn:
    def test_single_anchor(self):
        query = np.array([[0.0, 0.0], [5.0, 7.0]])
        idx = knn_per_bin(query, np.array([[[1.0, 1.0]]]), k=1)
        np.testing.assert_array_equal(idx, [[[0], [0]]])

    def test_tie_goes_to_lower_index(self):
        # both anchors at distance exactly 2 from the query
        anchors = np.array([[2.0, 0.0], [-2.0, 0.0]])
        idx = knn_per_bin(np.array([[0.0, 0.0]]), anchors[None], k=1)
        assert idx[0, 0, 0] == 0
        # swap order: still the lower index wins
        idx = knn_per_bin(np.array([[0.0, 0.0]]), anchors[None, ::-1], k=1)
        assert idx[0, 0, 0] == 0

    def test_matches_bruteforce_scan_with_ties(self):
        rng = np.random.default_rng(21)
        # integer coordinates make squared distances exact, so ties are real
        anchors = rng.integers(0, 12, (500, 2)).astype(float)
        query = rng.integers(0, 12, (100, 2)).astype(float)
        idx = knn_per_bin(query, anchors[None], k=32)[0]
        np.testing.assert_array_equal(idx, knn_scalar(query, anchors, k=32))

    def test_tiled_equals_bruteforce_any_tile_size(self, monkeypatch):
        rng = np.random.default_rng(33)
        anchors = rng.integers(0, 40, (300, 2)).astype(float)
        query = rng.integers(0, 40, (97, 2)).astype(float)
        ref_idx = knn_scalar(query, anchors, k=8)
        for tile in (1, 2, 3, 7, 17, 96, 97, 128):
            monkeypatch.setattr(assoc, "_KNN_TILE", tile)
            idx = knn_per_bin(query, anchors[None], k=8)[0]
            np.testing.assert_array_equal(idx, ref_idx)

    def test_k_exceeding_anchor_count_rejected(self):
        # and k below 1, which numpy would report as an empty reduction or
        # a negative dimension
        for k in (4, 0, -1):
            with pytest.raises(ValueError, match=f"k={k} "):
                knn_per_bin(np.zeros((2, 2)), np.zeros((1, 3, 2)), k=k)
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        with pytest.raises(ValueError, match=r"k=0 must lie in \[1, 4\]"):
            interpolate_flow(field, [1.0], 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            knn_per_bin(np.array([[np.nan, 0.0]]), np.zeros((1, 3, 2)), k=1)

    def test_distance_tile_memory_bounded(self, monkeypatch):
        # the search holds a few (tile, anchors) arrays at once, never the
        # (900, 700) distance matrix (4.8 MB; untiled the peak is 9.8 MB)
        rng = np.random.default_rng(40)
        anchors = rng.normal(0, 10, (700, 2))
        query = rng.normal(0, 10, (900, 2))
        tile = 64
        monkeypatch.setattr(assoc, "_KNN_TILE", tile)
        tracemalloc.start()
        try:
            knn_per_bin(query, anchors[None], k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * tile * len(anchors) * 8


def assert_knn_matches_scan(query, points, k):
    """Indices equal to the scalar scan, and across tilings."""
    idx = knn_per_bin(query, points[None], k)[0]
    np.testing.assert_array_equal(idx, knn_scalar(query, points, k))
    for tile in (1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assoc, "_KNN_TILE", tile)
            tiled_idx = knn_per_bin(query, points[None], k)[0]
        np.testing.assert_array_equal(tiled_idx, idx)


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
        vol = build_displacement_volume(field, 0.5, k, n_bins=2)
        ref_idx = knn_scalar(centers, field.anchor_positions(), k)
        for b in range(2):
            np.testing.assert_array_equal(vol.knn_indices[b].reshape(-1, k), ref_idx)

    @pytest.mark.parametrize("k", [1, 4, 5, 8, 9, 12, 13, 32, 69, 120, 121])
    def test_integer_lattice_distance_shells(self, k):
        # around a lattice point the shells close at 1, 5, 9, 13, 21, ...
        # neighbours, around a half-integer point at 4, 12, 16, ...; the
        # shuffle keeps index order apart from position. k runs past half
        # of the 121 points up to all of them
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


def assert_blocks_match_scan(query, points, k):
    """The block search, run at every input size, equals the scalar scan
    for tiles of 1, 7 and the default number of query cells."""
    ref_idx = knn_scalar(query, points, k)
    for tile in (1, 7, assoc._KNN_TILE):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assoc, "_KNN_TILE", tile)
            idx = knn_per_bin(query, np.asarray(points)[None], k)[0]
        np.testing.assert_array_equal(idx, ref_idx)


def ring_grid(query, sets, k):
    """The search set-up of a stack of anchor sets sharing ``query``."""
    return assoc._ring_grid(np.asarray(query, float), np.asarray(sets, float), k)[0]


def block_rejects(query, points, k):
    """Rows the 3x3 blocks of the first ring cannot certify, which the
    next ring answers."""
    idx = np.empty((len(query), k), dtype=np.int64)
    return assoc._ring_pass(ring_grid(query, np.asarray(points)[None], k), np.arange(len(query)), 1, idx)


def stacked_sets(n_sets=6):
    """One query lattice of 12 x 10 cell centres and a stack of anchor
    sets of equal size sharing it: random, the zero field's anchors on the
    cell centres (ties at nearly every k-th distance), an integer lattice
    of distance shells, every anchor far outside one corner, and duplicates
    of a few positions; then more random sets up to ``n_sets``."""
    rng = np.random.default_rng(60)
    _, _, centers = anchor_grid(48, 40, 4)
    n = len(centers)
    g = np.arange(12.0)
    lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)[:n] * 4.0
    layouts = [
        rng.uniform(0, 48, (n, 2)),
        centers.copy(),
        lattice[rng.permutation(n)],
        rng.uniform(0, 5, (n, 2)) + 1e3,
        rng.uniform(0, 48, (7, 2))[rng.integers(0, 7, n)],
    ]
    layouts += [rng.uniform(-4, 52, (n, 2)) for _ in range(n_sets - len(layouts))]
    return centers, np.stack(layouts)


class TestStackedKnn:
    """Stacks of anchor sets that share one query grid, searched in one pass
    per ring."""

    @pytest.mark.parametrize("roll", [0, 1])
    @pytest.mark.parametrize("k", [1, 7, 32])
    def test_stack_equals_per_set_searches(self, k, roll):
        # rolled by one, every set sits in another slot beside other sets:
        # nothing of one set's rows, bounds or buckets may reach another's.
        # Tiles of 1, 7 and the default number of rows mix sets, and cells
        # of different block sizes
        query, sets = stacked_sets()
        sets = np.roll(sets, roll, axis=0)
        for tile in (1, 7, assoc._KNN_TILE):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(assoc, "_KNN_TILE", tile)
                idx = knn_per_bin(query, sets, k)
                assert idx.shape == (len(sets), len(query), k)
                for b, pts in enumerate(sets):
                    assert idx[b].tobytes() == knn_per_bin(query, pts[None], k)[0].tobytes()
            np.testing.assert_array_equal(idx[1], knn_scalar(query, sets[1], k))

    def test_stack_builds_one_query_grid(self, monkeypatch):
        calls = []
        bucket_grid = assoc._bucket_grid

        def counting(query, n_pts, k):
            calls.append(len(query))
            return bucket_grid(query, n_pts, k)

        monkeypatch.setattr(assoc, "_bucket_grid", counting)
        query, sets = stacked_sets(n_sets=15)
        knn_per_bin(query, sets, 5)
        assert calls == [len(query)]

    def test_stack_validates_every_set(self):
        query, sets = stacked_sets(n_sets=5)
        sets[3, 7, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            knn_per_bin(query, sets, 4)
        with pytest.raises(ValueError, match="anchor count"):
            knn_per_bin(query, sets[:, :3], 4)


class TestKnnBlocks:
    """The bucketed search on the layouts where the blocks decide the result."""

    # queries span (0, 0)-(100, 100); with 40 anchors and k = 3 the cell
    # side is 15.45, and the query (60, 45) in cell (3, 2) scores the block
    # of columns 2-4 and rows 1-3, whose right edge is x = 77.25
    QUERY = np.array([[0.0, 0.0], [100.0, 100.0], [60.0, 45.0]])
    # anchor 0 lies just outside the block, 18 px right of the query;
    # anchor 3 is the block's third nearest, 18 px to its left; the other
    # 36 sit on the row y = 100, far below and left of the block
    ANCHORS = np.array(
        [[78.0, 45.0], [60.0, 40.0], [60.0, 50.0], [42.0, 45.0]] + [[float(i), 100.0] for i in range(36)]
    )

    def test_block_geometry(self):
        origin, side, shape = assoc._bucket_grid(self.QUERY, len(self.ANCHORS), 3)
        np.testing.assert_array_equal(shape, [7, 7])
        cells = assoc._cell_of(self.ANCHORS, origin, side, shape)
        assert cells[:4].tolist() == [[5, 2], [3, 2], [3, 3], [2, 2]]
        assert (cells[4:, 1] == 6).all()
        assert assoc._cell_of(self.QUERY[2], origin, side, shape).tolist() == [3, 2]

    @pytest.mark.parametrize("dy", [0.0, 1e-7], ids=["exact", "rounded"])
    def test_tie_with_lower_index_outside_block(self, dy):
        # the query's third d2 among the block's anchors is 18^2 = 324, and
        # anchor 0 outside the block ties with it, exactly or only once its
        # d2 324 + dy^2 is rounded to float64: the scan takes anchor 0, the
        # lower index, so the row must not be certified from the block
        anchors = self.ANCHORS.copy()
        anchors[0, 1] += dy
        d2 = np.square(anchors[[0, 3], 0] - 60.0) + np.square(anchors[[0, 3], 1] - 45.0)
        assert d2[0] == d2[1] == 324.0
        assert_blocks_match_scan(self.QUERY, anchors, 3)
        assert knn_per_bin(self.QUERY, anchors[None], 3)[0, 2].tolist() == [1, 2, 0]
        assert 2 in block_rejects(self.QUERY, anchors, 3)
        # one ulp further out, the row is certified from the block
        anchors[0, 0] = np.nextafter(78.0, np.inf)
        assert 2 not in block_rejects(self.QUERY, anchors, 3)
        assert_blocks_match_scan(self.QUERY, anchors, 3)

    def test_rejected_at_reach_1_certified_at_reach_2(self):
        # the exact tie above, as set 1 of a stack (row 3 + 2): the 5x5
        # block at reach 2 (columns 1-5, rows 0-4) holds anchor 0, and the
        # nearest anchor past it, (15, 100) in column 0, is 45 px away on x,
        # so the row is certified there. Set 0 moves anchor 0 one ulp
        # further out, so its row 2 is certified at reach 1 by its own bounds
        near = self.ANCHORS.copy()
        near[0, 0] = np.nextafter(78.0, np.inf)
        grid = ring_grid(self.QUERY, [near, self.ANCHORS], 3)
        idx = np.full((6, 3), -1)
        assert assoc._ring_pass(grid, np.array([2, 5]), 1, idx).tolist() == [5]
        assert idx[2].tolist() == knn_scalar(self.QUERY, near, 3)[2].tolist() == [1, 2, 3]
        assert (idx[5] == -1).all()
        assert assoc._ring_pass(grid, np.array([5]), 2, idx).size == 0
        assert idx[5].tolist() == knn_scalar(self.QUERY, self.ANCHORS, 3)[2].tolist() == [1, 2, 0]
        assert_blocks_match_scan(self.QUERY, self.ANCHORS, 3)

    @pytest.mark.parametrize("k", [1, 7, 60])
    @pytest.mark.parametrize("layout", ["one_point", "small"])
    def test_inputs_the_scan_answered(self, layout, k):
        # every query at one point (a one-cell grid, answered by one pass),
        # and a spread input under 2^16 (query, anchor) pairs
        rng = np.random.default_rng(8)
        anchors = rng.uniform(0, 40, (60, 2))
        query = np.full((25, 2), 13.25) if layout == "one_point" else rng.uniform(0, 40, (50, 2))
        if layout == "one_point":
            assert assoc._bucket_grid(query, len(anchors), k)[2].tolist() == [1, 1]
        assert_blocks_match_scan(query, anchors, k)

    @pytest.mark.parametrize("k", [1, 5])
    def test_pass_count_bound(self, monkeypatch, k):
        # anchors beyond one corner of a 40 x 40 lattice of queries sit in
        # the corner cell, so a row is certified only once its block holds
        # that cell, and the rows farthest from it wait for the ring that
        # spans the grid. In a stack of 15 sets, beyond the four corners in
        # turn, the whole stack takes one sequence of rings
        g = np.arange(40.0)
        query = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        corners = np.array([[1e3, 1e3], [-1e3, 1e3], [1e3, -1e3], [-1e3, -1e3]])
        ring_pass = assoc._ring_pass
        for n_sets in (1, 15):
            anchors = np.random.default_rng(9).uniform(0, 5, (n_sets, 30, 2)) + corners[np.arange(n_sets) % 4, None]
            reaches = []

            def counting_pass(grid, rows, reach, idx):
                reaches.append(reach)
                return ring_pass(grid, rows, reach, idx)

            monkeypatch.setattr(assoc, "_ring_pass", counting_pass)
            idx = knn_per_bin(query, anchors, k)
            longest = assoc._bucket_grid(query, anchors.shape[1], k)[2].max()
            assert reaches == [2**i for i in range(len(reaches))]
            assert reaches[-2] + 1 < longest <= reaches[-1] + 1
            assert len(reaches) <= math.ceil(math.log2(longest)) + 1
            for b, pts in enumerate(anchors):
                np.testing.assert_array_equal(idx[b], knn_scalar(query, pts, k))

    @settings(max_examples=200, deadline=None)
    @given(
        layout=st.sampled_from(["spread", "one_cell", "far_outside", "duplicates", "outside_hull"]),
        queries=st.lists(st.tuples(st.floats(0, 64), st.floats(0, 48)), min_size=2, max_size=24),
        points=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=48),
        data=st.data(),
    )
    def test_float_layouts(self, layout, queries, points, data):
        query = np.array(queries)
        unit = np.array(points)
        k = data.draw(st.one_of(st.just(len(unit)), st.integers(1, len(unit))), label="k")
        grid = assoc._bucket_grid(query, len(unit), k)
        if layout == "one_cell" and grid is not None:
            # every anchor inside one cell of the grid
            origin, side, shape = grid
            cell = np.array([data.draw(st.integers(0, m - 1), label="cell") for m in shape])
            pts = origin + side * (cell + 0.1 + 0.8 * unit)
            assert (assoc._cell_of(pts, origin, side, shape) == cell).all()
        elif layout == "far_outside":
            # all anchors beyond one corner of the queries' box, so in its
            # corner cell: the 3x3 blocks that hold that cell hold every
            # anchor and certify their rows, every other row is rejected
            pts = unit * 64 + 1e4
            origin, side, shape = grid
            far = (assoc._cell_of(query, origin, side, shape) < shape - 2).any(axis=1)
            assert sorted(block_rejects(query, pts, k)) == np.flatnonzero(far).tolist()
        elif layout == "duplicates":
            pool = unit * [64, 48]
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=48), label="picks")
            pts = pool[picks]
            k = min(k, len(pts))
        elif layout == "outside_hull":
            # anchors in a 6 x 5 px patch, most queries far outside their hull
            pts = unit * [6, 5] + [20, 20]
        else:
            pts = unit * [64, 48]
        assert_blocks_match_scan(query, pts, k)


def count_tie_rows(monkeypatch):
    """A list that grows by the row count of each call to the selection's
    exact fallback, which still runs."""
    rows = []
    tie_order = assoc._tie_order

    def counting(d2, anchor, k):
        rows.append(len(d2))
        return tie_order(d2, anchor, k)

    monkeypatch.setattr(assoc, "_tie_order", counting)
    return rows


class TestPackedSelection:
    """The int64 keys that rank each row, and the rows they cannot rank."""

    # 3 index bits, so the keys cut 4 low bits of d2: 100 has none set, and
    # the next 15 floats above it share its high part with the flag set
    UP1 = np.nextafter(100.0, np.inf)
    UP2 = np.nextafter(UP1, np.inf)

    @staticmethod
    def select(d2, anchor, k):
        return assoc._select(np.array(d2), np.array(anchor), k, 3)

    @staticmethod
    def scan_order(d2, anchor, k):
        return [a for _, a in sorted(zip(d2, anchor))[:k]]

    def test_cut_bits_that_order_unlike_the_index_fall_back(self, monkeypatch):
        # 100 + 2 ulp at anchor 2 and 100 + 1 ulp at anchor 5 differ only in
        # cut bits, both flagged, so their keys order by index, against d2
        tied = count_tie_rows(monkeypatch)
        d2 = [[200.0, self.UP2, 50.0, np.inf, self.UP1, 100.0 + 2**-20]]
        anchor = [[7, 2, 6, 0, 5, 1]]
        for k in (2, 3, 5, 6):
            assert self.select(d2, anchor, k).tolist() == [self.scan_order(d2[0], anchor[0], k)]
        assert tied == [1, 1, 1, 1]

    def test_exact_d2_precedes_cut_bits_of_its_high_part(self, monkeypatch):
        # 100 exactly at anchor 4 and 100 + 1 ulp at anchor 1 share a high
        # part; the flag ranks the exact one first with no fallback, as it
        # does 100 - 1 ulp, whose high part is one lower, before 100
        tied = count_tie_rows(monkeypatch)
        d2 = [[self.UP1, 100.0, 3.0], [100.0, np.nextafter(100.0, 0.0), 3.0]]
        anchor = [[1, 4, 6], [0, 5, 6]]
        assert self.select(d2, anchor, 3).tolist() == [[6, 4, 1], [6, 5, 0]]
        assert tied == []

    def test_flagged_pair_past_the_kth_key_does_not_fall_back(self, monkeypatch):
        # only the first k + 1 keys decide the first k
        tied = count_tie_rows(monkeypatch)
        d2 = [[self.UP2, self.UP1, 3.0, 4.0]]
        assert self.select(d2, [[0, 1, 2, 3]], 1).tolist() == [[2]]
        assert self.select(d2, [[0, 1, 2, 3]], 2).tolist() == [[2, 3]]
        assert tied == []
        assert self.select(d2, [[0, 1, 2, 3]], 3).tolist() == [[2, 3, 1]]
        assert tied == [1]

    @pytest.mark.parametrize("k", [1, 4, 9, 32])
    def test_lattice_rows_never_fall_back(self, monkeypatch, k):
        # the zero field's anchors on the cell centres, and interpolate_flow's
        # pixels against the anchors at t = 0: every d2 is a small multiple
        # of 1/4, with no bit to cut
        tied = count_tie_rows(monkeypatch)
        field = TrajectoryField.zeros(64, 48, 4, Basis(BEZIER, 3))
        _, _, centers = anchor_grid(64, 48, 4)
        idx = knn_per_bin(centers, eval_trajectory_batch(field, bin_centers(3)), k)
        np.testing.assert_array_equal(idx[1], knn_scalar(centers, field.anchor_positions(), k))
        interpolate_flow(random_field(np.random.default_rng(16), width=64, height=48), [0.5], k)
        assert tied == []

    def test_duplicates_one_ulp_apart_match_the_scan(self, monkeypatch):
        # copies of a few positions, each nudged 0-3 ulps on either axis,
        # so that many d2 differ only in their last bits
        tied = count_tie_rows(monkeypatch)
        rng = np.random.default_rng(17)
        for n, k in ((40, 5), (90, 12), (200, 32)):
            pts = rng.uniform(0, 20, (8, 2))[rng.integers(0, 8, n)]
            for _ in range(3):
                pts = np.nextafter(pts, pts + rng.integers(-1, 2, pts.shape))
            query = np.concatenate([rng.uniform(0, 20, (30, 2)), pts[:10]])
            assert_blocks_match_scan(query, pts, k)
        assert sum(tied) > 0

    def test_overflowing_d2_ties_to_the_lower_index(self):
        # every anchor but two lies 1e200 or more from the first query, so
        # its d2 there is +inf; the grid's size overflows too, and none of it
        # may warn (the suite makes a warning an error)
        query = np.array([[0.0, 0.0], [1e200, -1e200], [3.0, 4.0]])
        anchors = np.array([[1e200, 0.0], [5.0, 5.0], [-1e200, 0.0], [0.0, 3e200], [1.0, 1.0], [2e200, -1e200]])
        assert knn_per_bin(query, anchors[None], 6)[0, 0].tolist() == [4, 1, 0, 2, 3, 5]
        for k in (1, 3, 6):
            assert_blocks_match_scan(query, anchors, k)


def assert_same_at_each_tile(expected, build):
    """``build()`` returns ``expected`` bit for bit when the neighbour means
    sum over tiles of 1, 7 and the default number of cells."""
    for tile in (1, 7, assoc._KNN_TILE):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assoc, "_KNN_TILE", tile)
            np.testing.assert_array_equal(build(), expected)


class TestDisplacementVolume:
    def test_zero_coefficients_zero_volume(self):
        field = TrajectoryField.zeros(32, 32, 4, Basis(POLYNOMIAL, 2))
        vol = build_displacement_volume(field, 0.7, 8, n_bins=5)
        np.testing.assert_array_equal(vol.disp, 0.0)

    def test_single_anchor_linear_midpoint(self):
        # one anchor (stride covers the whole image), alpha = (4, 0), t_ref = 1
        field = TrajectoryField.zeros(4, 4, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[0, 0, 0] = [4.0, 0.0]
        vol = build_displacement_volume(field, 1.0, 1, n_bins=1)
        # bin center 0.5: q(1) - q(0.5) = (2, 0)
        np.testing.assert_allclose(vol.disp[0, 0, 0], [2.0, 0.0])

    def test_bin_centers(self):
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        vol = build_displacement_volume(field, 0.0, 1, n_bins=4)
        np.testing.assert_allclose(vol.bin_centers, [0.125, 0.375, 0.625, 0.875])

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(77)
        field = random_field(rng, width=16, height=16, stride=4, basis=Basis(BEZIER, 4))
        vol = build_displacement_volume(field, 0.3, 3, n_bins=4)
        assert_same_at_each_tile(vol.disp, lambda: build_displacement_volume(field, 0.3, 3, n_bins=4).disp)
        ref = displacement_volume_scalar(field, vol)
        assert np.abs(vol.disp - ref).max() < 1e-12

    def test_regather_equals_fresh_build(self):
        rng = np.random.default_rng(78)
        field = random_field(rng)
        vol = build_displacement_volume(field, 0.2, 6, n_bins=5)
        fresh = build_displacement_volume(field, 0.9, 6, n_bins=5)
        moved = regather_volume(field, vol, 0.9)
        assert moved.t_ref == 0.9
        np.testing.assert_array_equal(moved.disp, fresh.disp)
        np.testing.assert_array_equal(moved.knn_indices, fresh.knn_indices)

    def test_invalid_arguments(self):
        field = TrajectoryField.zeros(8, 8, 4, Basis(POLYNOMIAL, 1))
        with pytest.raises(ValueError):
            build_displacement_volume(field, 1.5, 1, n_bins=3)
        with pytest.raises(ValueError, match="n_bins"):
            build_displacement_volume(field, 0.5, 1, n_bins=0)
        with pytest.raises(ValueError):
            build_displacement_volume(field, 0.5, 99, n_bins=3)
        with pytest.raises(ValueError, match="n_bins"):
            bin_centers(0)


def border_slice(rng, n=600, width=13, height=10):
    """Events on a sensor that stride 4 does not divide, with every border
    pixel, and times at t_start, t_end and on bin boundaries."""
    ys, xs = np.mgrid[:height, :width]
    edge = (xs == 0) | (ys == 0) | (xs == width - 1) | (ys == height - 1)
    x = np.concatenate([xs[edge], rng.integers(0, width, n)])
    y = np.concatenate([ys[edge], rng.integers(0, height, n)])
    t = rng.uniform(0.0, 1.0, len(x))
    t[:12] = [0.0, 1.0, 1.0, 0.2, 0.4, 0.6, 0.8, 1.0, 0.0, 0.5, 1.0, 1.0]
    return EventSlice.from_arrays(x, y, t, rng.choice([-1, 1], len(x)), width, height, t_start=0.0, t_end=1.0)


class TestEventDisplacement:
    """The one read of a (bin, cell) table per event, and its pullback."""

    @pytest.mark.parametrize("n_bins, stride", [(5, 4), (15, 1), (1, 3)])
    def test_matches_scalar_oracle(self, n_bins, stride):
        rng = np.random.default_rng(61)
        sl = border_slice(rng)
        rows, cols, _ = anchor_grid(sl.width, sl.height, stride)
        table = rng.normal(0.0, 2.0, (n_bins, rows, cols, 2))
        lookup = event_lookup(sl, n_bins, stride)
        delta = lookup.read(table)[lookup.site]
        assert delta.shape == (len(sl), 2)
        np.testing.assert_array_equal(np.stack([sl.x, sl.y], axis=1) + delta, warp_scalar(sl, table, stride))

    @pytest.mark.parametrize("n_bins, stride", [(5, 4), (15, 1)])
    def test_pullback_is_the_transpose(self, n_bins, stride):
        # <read(D), G> == <D, pullback(G)> for per-site cotangents G, with
        # events at t_end and in the border cells
        rng = np.random.default_rng(62)
        sl = border_slice(rng)
        rows, cols, _ = anchor_grid(sl.width, sl.height, stride)
        table = rng.normal(0.0, 1.0, (n_bins, rows, cols, 2))
        lookup = event_lookup(sl, n_bins, stride)
        delta = lookup.read(table)
        assert delta.shape == (len(lookup.first), 2)
        cot = rng.normal(0.0, 1.0, delta.shape)
        back = lookup.pullback(cot)
        assert back.shape == table.shape
        assert float((delta * cot).sum()) == pytest.approx(float((table * back).sum()), rel=1e-12)

    def test_table_not_tiling_the_slice_rejected(self):
        sl = border_slice(np.random.default_rng(63))
        event_lookup(sl, 5, 4).read(np.zeros((5, 3, 4, 2)))
        for shape, stride in (((5, 3, 4, 2), 3), ((5, 2, 4, 2), 4), ((5, 3, 3, 2), 4), ((5, 3, 4, 2), 5),
                              ((4, 3, 4, 2), 4)):
            with pytest.raises(ValueError, match=f"that tile a 13x10 slice at stride {stride}"):
                event_lookup(sl, 5, stride).read(np.zeros(shape))


class TestConsecutiveDeltaField:
    def test_zero_coefficients(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(BEZIER, 3))
        vol = build_displacement_volume(field, 0.5, 4, n_bins=5)
        delta = build_consecutive_delta_field(field, vol)[0]
        assert delta.shape == (4, 4, 4, 2)
        np.testing.assert_array_equal(delta, 0.0)

    def test_constant_flow_two_bins(self):
        v = np.array([3.0, -1.0])
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[..., :] = v
        vol = build_displacement_volume(field, 0.0, 4, n_bins=2)
        delta = build_consecutive_delta_field(field, vol)[0]
        np.testing.assert_allclose(delta, np.broadcast_to(v / 2.0, delta.shape), atol=1e-12)

    def test_single_bin_gives_empty_field(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        vol = build_displacement_volume(field, 0.5, 4, n_bins=1)
        assert build_consecutive_delta_field(field, vol)[0].size == 0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        field = random_field(rng, width=16, height=16, basis=Basis(POLYNOMIAL, 3))
        vol = build_displacement_volume(field, 0.6, 5, n_bins=4)
        delta = build_consecutive_delta_field(field, vol)[0]
        assert_same_at_each_tile(delta, lambda: build_consecutive_delta_field(field, vol)[0])
        ref = delta_field_scalar(field, vol)
        np.testing.assert_allclose(delta, ref, atol=1e-10)


class TestAdjoints:
    """With the neighbor sets fixed, the volume and the delta field are
    linear in the coefficients alpha, so each table's pullback P must
    satisfy <P(u), alpha> == <u, map(alpha)>, with the map taken from the
    oracles. The pullbacks hold no coefficients: each comes from a table of
    another field, or of the same field before its coefficients change in
    place."""

    @pytest.mark.parametrize("basis", [Basis(BEZIER, 4), Basis(POLYNOMIAL, 2)])
    @pytest.mark.parametrize(
        "pullback_of, oracle, n_pairs",
        [
            (lambda field, vol: vol.pullback, displacement_volume_scalar, 0),
            (lambda field, vol: build_consecutive_delta_field(field, vol)[1], delta_field_scalar, 1),
        ],
        ids=["volume", "delta"],
    )
    def test_inner_products_agree(self, basis, pullback_of, oracle, n_pairs):
        rng = np.random.default_rng(91)
        field = random_field(rng, 16, 12, basis=basis)
        vol = build_displacement_volume(field, 0.35, 3, n_bins=4)
        pullback = pullback_of(field, vol)
        alpha = random_field(rng, 16, 12, basis=basis)
        # the field moves in place after its pullback is made, as minimize's
        # steps move it
        field.coeffs[...] = rng.normal(0.0, 2.0, field.coeffs.shape)
        u = rng.normal(0.0, 1.0, (vol.n_bins - n_pairs, *vol.disp.shape[1:3], 2))
        lhs = float((pullback(u) * alpha.coeffs).sum())
        rhs = float((u * oracle(alpha, vol)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_single_bin_delta_adjoint_is_zero(self):
        field = random_field(np.random.default_rng(92), 16, 16, basis=Basis(POLYNOMIAL, 2))
        vol = build_displacement_volume(field, 0.5, 4, n_bins=1)
        delta, pullback = build_consecutive_delta_field(field, vol)
        np.testing.assert_array_equal(pullback(delta), 0.0)


class TestInterpolateFlow:
    def test_constant_field_reproduced_exactly(self):
        field = TrajectoryField.zeros(16, 16, 4, Basis(POLYNOMIAL, 1))
        field.coeffs[..., :] = [2.0, 1.0]
        flow = interpolate_flow(field, [0.5, 1.0], k=4)
        np.testing.assert_allclose(flow[0], np.broadcast_to([1.0, 0.5], (16, 16, 2)))
        np.testing.assert_allclose(flow[1], np.broadcast_to([2.0, 1.0], (16, 16, 2)))

    @pytest.mark.parametrize("basis", [Basis(BEZIER, 4), Basis(POLYNOMIAL, 2)])
    def test_matches_scalar_oracle(self, basis):
        # 13x10 pixels on stride 4: pixels outside the last full cell, and
        # ties between anchors equidistant from a pixel
        field = random_field(np.random.default_rng(14), width=13, height=10, basis=basis)
        times = [0.0, 0.3, 1.0]
        flow = interpolate_flow(field, times, k=3)
        assert_same_at_each_tile(flow, lambda: interpolate_flow(field, times, k=3))
        np.testing.assert_allclose(flow, flow_scalar(field, times, k=3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("basis", [Basis(BEZIER, 4), Basis(POLYNOMIAL, 1)])
    def test_negative_zero_field_writes_no_negative_zero(self, basis):
        field = TrajectoryField.zeros(13, 10, 4, basis)
        field.coeffs[...] = -0.0
        flow = interpolate_flow(field, [0.0, 0.3, 1.0], k=3)
        np.testing.assert_array_equal(flow, 0.0)
        assert not np.signbit(flow).any()

    def test_memory_is_bounded(self):
        # one pixel set serves every time: no (T, H*W, K, 2) gather (44 MB here)
        field = random_field(np.random.default_rng(15), width=128, height=96, basis=Basis(BEZIER, 10))
        tracemalloc.start()
        try:
            interpolate_flow(field, np.linspace(0.0, 1.0, 7), k=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_grid_layout(self):
        rows, cols, pos = anchor_grid(10, 6, 4)
        assert (rows, cols) == (2, 3)
        assert pos.shape == (6, 2)
