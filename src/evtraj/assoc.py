"""KNN association between grid cells and trajectories, and the coarse
spatio-temporal displacement volume used as a per-event warp lookup table.

The volume has shape [n_bins, H/stride, W/stride, 2]. For each temporal
bin, trajectory positions are evaluated at the bin center and an exact
K-nearest-neighbor search associates every cell center with the K
trajectories passing closest to it *at that time* (the moving frame).
The neighbor sets depend only on the field, never on t_ref. Each event
reads its entry of the table through :func:`event_lookup`.

With the sets fixed, every read of them is one linear map of the
coefficients alpha, :func:`_neighbor_mean`: the mean over a set of
(g(t_to) - g(t_from)) . alpha_n, from the time t_from it was searched at
to t_to, returned with its pullback, the map's transpose. A volume, fresh
or from :func:`regather_volume`, reads bin b's sets from t_b to t_ref; the
consecutive delta field reads them from t_b to t_{b+1}, and the dense flow
its one t=0 pixel set from 0 to each query time.

The KNN search is exact: it returns the indices a scan over every anchor
returns, byte for byte, ordered by squared Euclidean distance d2 with ties
broken by lower anchor index, which makes the whole pipeline deterministic,
and no distance, since the certificate below reads only the k-th d2. It
buckets the anchors on a square grid over the queries' bounding box, with
cell side the expected k-th-neighbour radius sqrt(k A / (pi n)), and runs
one block pass in growing rings. The anchors are sorted by bucket once per
search, so each bucket row of a block is one range of that order, and a
block costs its own size to gather. At reach r the queries of one cell
score only the anchors within r cells of it, the 3x3 block at r = 1. A row
is kept when a certificate proves that no anchor outside the block can
enter it: its k-th d2 must lie strictly below the d2 to the block's
nearest edge, taken at the nearest outside anchor on each side. Strictly,
because an outside anchor at exactly the k-th d2 with a lower index would
belong to the scan's answer. Every other row goes on to the next ring, at
twice the reach. Once a block spans the grid, no anchor lies outside it:
that ring is the scan itself, so it certifies every row still open, even
one whose d2 overflows to +inf, and the search ends, within
ceil(log2(longest grid side)) + 1 passes. Every ring computes d2 with the
scan's float64 operations and selects as the scan is defined, by d2 and
then by the lower anchor index. Each row sorts one int64 key per column,
which packs the high bits of d2, a flag set when the cut low bits were
nonzero, and the anchor index. The keys order as (d2, index) except
between two flagged keys of one high part; a row with such a pair among
its first k + 1 keys takes the exact (d2, index) order instead. A row with
no cut bits, as on a lattice, never does.
IEEE rounding is monotone, so the certificate's bound never exceeds the
rounded d2 of an outside anchor, and no rounding can sneak one past it.
The result therefore equals the scan's bit for bit. Rows stream in
fixed-size tiles, so no distance array is larger than (tile, anchors).

A build searches all of its bins in one call: :func:`knn_per_bin` takes a
stack of B anchor sets that share the queries, and every caller, the
dense flow and synth's coverage mask included, passes a stack, one set
being a stack of one. The query side of the bucket grid (its origin, cell
side and shape, each query's cell, and the queries in cell order) depends
only on the queries, the anchor count and k, so the stack builds it once.
The whole stack is then one search on the calling thread: its rows are
(set, cell) pairs, set b's anchors fill the buckets b G to b G + G - 1 of
one bucket order (G cells per grid), each set keeps its own edge bounds,
and each ring is one pass over every open row of every set, so a call
makes the passes of one search whatever B is. Before a pass is cut into
tiles, its rows are ordered by their block's anchor count, so a tile's
table is about as wide as its rows' own blocks rather than its widest. A
row's keys carry each anchor's index within its own set, so the
selection, and the bytes, are those of a search of that set alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .events import EventSlice
from .trajectory import TrajectoryField, anchor_grid, contract_basis, displacement_basis, eval_trajectory_batch

# (set, cell) rows per distance tile of the KNN search, and cells per tile
# of a neighbor mean's gather
_KNN_TILE = 512


def KnnConfig(k: int = 32) -> int:
    """The neighbour count itself, which searches and builds take as an int;
    kept only for evbench's test, which still writes ``KnnConfig(k=...)``."""
    return k


def knn_per_bin(query_cells, anchor_sets, k: int) -> np.ndarray:
    """Exact KNN of each query cell in each of a stack of anchor sets.

    ``anchor_sets`` is (B, n_anchors, 2), sets that share the queries.
    Returns the int64 indices (B, n_cells, k) of the k anchors of each set
    nearest each cell center, nearest first, ties broken by lower anchor
    index: the full scan's, bit for bit.

    The stack is one search of (set, cell) rows, row b n_cells + i being
    cell i of set b: each ring is one :func:`_ring_pass` over the open
    rows of every set, ordered by block size and cut into tiles of
    ``_KNN_TILE`` rows, so a call makes at most ceil(log2(longest grid
    side)) + 1 passes whatever B is. A grid size or d2 that overflows is
    +inf, which the search orders as the scan does, so it does not warn.
    """
    query = np.asarray(query_cells, dtype=np.float64)
    sets = np.asarray(anchor_sets, dtype=np.float64)
    n_cells, n_pts = len(query), sets.shape[1]
    if not 1 <= k <= n_pts:
        raise ValueError(f"k={k} must lie in [1, {n_pts}], the anchor count")
    if not (np.all(np.isfinite(query)) and np.all(np.isfinite(sets))):
        raise ValueError("positions must be finite")
    idx = np.empty((len(sets), n_cells, k), dtype=np.int64)
    if idx.size:
        with np.errstate(over="ignore"):
            (grid, order), reach = _ring_grid(query, sets, k), 1
            # every set's rows in cell order, so each bucket's rows are adjacent
            rows = (np.arange(len(sets))[:, None] * n_cells + order).ravel()
            while len(rows):
                rows = _ring_pass(grid, rows, reach, idx.reshape(-1, k))
                reach *= 2
    return idx


def _bucket_grid(query, n_pts: int, k: int):
    """Bucket grid over the queries' bounding box: (origin, side, shape).

    The cell side is the expected k-th-neighbour radius sqrt(k A / (pi n))
    of n points spread over the box's area A, and at least 1/n of its
    longer edge, so the grid has O(n) cells. ``shape`` is (columns, rows).
    One cell when every query sits at one point, or the box's size
    overflows.
    """
    origin = query.min(axis=0)
    span = query.max(axis=0) - origin
    side = max(np.sqrt(k * span[0] * span[1] / (np.pi * n_pts)), span.max() / n_pts)
    if not (np.isfinite(side) and side > 0.0):
        return origin, 1.0, np.ones(2, dtype=np.int64)
    return origin, side, (span // side).astype(np.int64) + 1


def _cell_of(p, origin, side, shape):
    """(column, row) of each point; points off the grid go to its border
    cells. Non-decreasing in each coordinate."""
    cell = np.floor((np.clip(p, origin, origin + side * shape) - origin) / side)
    np.clip(cell, 0, shape - 1, out=cell)
    return cell.astype(np.int64)


def _ring_grid(query, sets, k: int):
    """Set-up that every ring of a stack's search shares, made once per
    call from its queries and (B, N, 2) ``sets``: (grid, order), the
    queries in cell order.

    The grid is (query, k, shape, qcell, qflat, beyond, before, px, py,
    by_cell, first, count): the :func:`_bucket_grid` shape for N anchors,
    which every set of the stack shares, and the (column, row) cells of
    the queries on it and their flat cells; per axis, one row per set of
    its nearest anchor coordinate at or past each grid line and its
    farthest before it; the coordinates of anchor i of set b at b (N + 1)
    + i, then the set's +inf pad anchor, index N within the set; the
    anchors sorted by bucket, bucket b G + f being flat cell f of set b on
    a grid of G cells, index order within a bucket, as indices within
    their set, and the offset of each bucket's first anchor in that order,
    so the buckets ``f`` to ``g - 1`` hold ``by_cell[first[f]:first[g]]``;
    and each set's running anchor counts over grid rows and columns, (B,
    rows + 1, columns + 1).
    """
    n_sets, n_pts = sets.shape[:2]
    origin, side, shape = _bucket_grid(query, n_pts, k)
    qcell = _cell_of(query, origin, side, shape)
    qflat = qcell[:, 1] * shape[0] + qcell[:, 0]
    acell = _cell_of(sets, origin, side, shape)
    in_set = np.arange(n_sets)[:, None]
    # cells are non-decreasing in each coordinate, so the anchors of a set
    # in cells >= j along axis a lie beyond every query in a cell < j, at
    # >= beyond[a][set, j], and those in cells < j before every query in a
    # cell >= j, at <= before[a][set, j]; column m holds +inf and column 0
    # -inf
    beyond, before = [], []
    for a, m in enumerate(shape):
        lo, hi = np.full((n_sets, m + 1), np.inf), np.full((n_sets, m + 1), -np.inf)
        line, x = (in_set * (m + 1) + acell[..., a]).ravel(), sets[..., a].ravel()
        np.minimum.at(lo.ravel(), line, x)
        np.maximum.at(hi.ravel(), line + 1, x)
        beyond.append(np.minimum.accumulate(lo[:, ::-1], axis=1)[:, ::-1])
        before.append(np.maximum.accumulate(hi, axis=1))
    n_buckets = n_sets * shape[0] * shape[1]
    bucket = (in_set * (shape[0] * shape[1]) + acell[..., 1] * shape[0] + acell[..., 0]).ravel()
    per_bucket = np.bincount(bucket, minlength=n_buckets)
    first = np.zeros(n_buckets + 1, dtype=np.int64)
    np.cumsum(per_bucket, out=first[1:])
    count = np.zeros((n_sets, shape[1] + 1, shape[0] + 1), dtype=np.int64)
    count[:, 1:, 1:] = per_bucket.reshape(n_sets, shape[1], shape[0]).cumsum(axis=1).cumsum(axis=2)
    pad = [np.pad(sets[..., a], ((0, 0), (0, 1)), constant_values=np.inf).ravel() for a in (0, 1)]
    by_cell = np.argsort(bucket, kind="stable") % n_pts
    grid = (query, k, shape, qcell, qflat, beyond, before, *pad, by_cell, first, count)
    return grid, np.argsort(qflat, kind="stable")


def _ring_pass(grid, rows, reach: int, idx):
    """Answer the KNN ``rows``, (set, cell) rows of ``idx``, that the
    anchors of their set within ``reach`` cells of their query's cell
    certify; return the other rows.

    The rows are first ordered stably by their block's anchor count, so a
    tile's table is about as wide as its rows' own blocks; the rows of a
    bucket, adjacent in ``rows`` as :func:`knn_per_bin` passes them, stay
    adjacent, here and in the rows returned. Each run of rows of one
    bucket scores the anchors of its (2 reach + 1)^2 block of cells
    (:func:`_block_table`), padded with the +inf anchor to at least k
    columns, with the scan's d2, and each row takes its k columns in the
    scan's order, by d2 and then by the lower anchor index
    (:func:`_select`). A block with fewer than k anchors certifies none of
    its rows and is not scored. A row is written to ``idx`` when its k-th
    d2 lies strictly below the d2 to the block's edge, taken at the
    nearest anchor of its set outside the block on each side, or when the
    block spans the grid.
    """
    query, k, shape, qcell, qflat, beyond, before, px, py, by_cell, first, count = grid
    n_pts, n_cells, n_grid = len(px) // len(count) - 1, len(query), shape[0] * shape[1]
    n_block = _block_sizes(reach, shape, count)[rows // n_cells * n_grid + qflat[rows % n_cells]]
    order = np.argsort(n_block, kind="stable")
    # rows whose block holds fewer than k anchors come first
    scored = np.searchsorted(n_block[order], k)
    del n_block
    rest = [rows[order[:scored]]]
    rows = rows[order[scored:]]
    del order
    in_set, cell = np.divmod(rows, n_cells)
    bucket = in_set * n_grid + qflat[cell]
    # the d2 term of the nearest anchor past each row's block on either
    # side; rounding is monotone, so every anchor outside the block has a
    # d2 at least one of those terms
    edge = np.full(len(rows), np.inf)
    for a, m in enumerate(shape):
        c, x = qcell[cell, a], query[cell, a]
        np.minimum(edge, np.square(beyond[a][in_set, np.minimum(c + reach + 1, m)] - x), out=edge)
        np.minimum(edge, np.square(x - before[a][in_set, np.maximum(c - reach, 0)]), out=edge)
    spans = reach + 1 >= shape.max()
    index_bits = n_pts.bit_length()
    for start in range(0, len(rows), _KNN_TILE):
        tile = slice(start, start + _KNN_TILE)
        tile_rows, tile_base, tile_cell = rows[tile], in_set[tile] * (n_pts + 1), cell[tile]
        # one table row per run of rows in one bucket
        run = np.empty(len(tile_rows), dtype=bool)
        run[0] = True
        np.not_equal(bucket[tile][1:], bucket[tile][:-1], out=run[1:])
        table = _block_table(bucket[tile][run], reach, shape, by_cell, first, n_pts, k)
        inv = np.cumsum(run) - 1
        # the scan's (x - px)^2 + (y - py)^2, each difference formed and
        # squared in place in its gathered coordinates: two (tile, width)
        # float arrays, beside the per-bucket table and one per-bucket
        # gather; then each column's anchor index, for the keys
        at = table + tile_base[run][:, None]
        x, y = query[tile_cell, 0:1], query[tile_cell, 1:2]
        d2 = np.take(px[at], inv, axis=0)
        np.subtract(x, d2, out=d2)
        np.square(d2, out=d2)
        dy = np.take(py[at], inv, axis=0)
        np.subtract(y, dy, out=dy)
        d2 += np.square(dy, out=dy)
        del dy, at
        anchor = np.take(table, inv, axis=0)
        del table
        near = _select(d2, anchor, k, index_bits)
        del d2, anchor
        # the k-th d2 once more, by the same operations on the same values
        kth = near[:, -1] + tile_base
        kth_d2 = np.square(x[:, 0] - px[kth]) + np.square(y[:, 0] - py[kth])
        ok = (kth_d2 < edge[tile]) | spans
        idx[tile_rows[ok]] = near[ok]
        rest.append(tile_rows[~ok])
    return np.concatenate(rest)


def _block_sizes(reach: int, shape, count):
    """The anchor count of the block within ``reach`` cells of every
    bucket, (B G,), each from four of the set's running ``count``s."""
    col, row = np.arange(shape[0]), np.arange(shape[1])[:, None]
    c0, c1 = np.maximum(col - reach, 0), np.minimum(col + reach + 1, shape[0])
    r0, r1 = np.maximum(row - reach, 0), np.minimum(row + reach + 1, shape[1])
    return (count[:, r1, c1] - count[:, r0, c1] - count[:, r1, c0] + count[:, r0, c0]).ravel()


def _block_table(buckets, reach: int, shape, by_cell, first, pad: int, k: int):
    """The anchors within ``reach`` cells of each bucket in ``buckets``, one
    row per bucket, as indices within its set, padded with the +inf
    anchor's index ``pad`` to at least k columns.

    Each of a block's rows of bucket cells is one range of ``by_cell``, so
    the table is gathered in O(its size), bucket row by bucket row."""
    n_grid = shape[0] * shape[1]
    in_set, flat = np.divmod(buckets, n_grid)
    col, row = flat % shape[0], flat // shape[0]
    left, right = np.maximum(col - reach, 0), np.minimum(col + reach, shape[0] - 1) + 1
    lines = np.maximum(row - reach, 0)[:, None] + np.arange(min(2 * reach + 1, shape[1]))
    real = lines <= np.minimum(row + reach, shape[1] - 1)[:, None]
    lines = (in_set * n_grid)[:, None] + np.minimum(lines, shape[1] - 1) * shape[0]
    lo = first[lines + left[:, None]]
    n_line = np.where(real, first[lines + right[:, None]] - lo, 0)
    table = np.full((len(buckets), max(n_line.sum(axis=1).max(), k)), pad)
    # entry j of segment s (one bucket row of one block) sits at by_cell
    # position lo[s] + j and at table column (segments before s in its
    # block) + j
    offset = np.cumsum(n_line, axis=1) - n_line + np.arange(len(buckets))[:, None] * table.shape[1]
    n_line = n_line.ravel()
    seg = np.repeat(np.arange(n_line.size), n_line)
    j = np.arange(seg.size) - (np.cumsum(n_line) - n_line)[seg]
    table.ravel()[offset.ravel()[seg] + j] = by_cell[lo.ravel()[seg] + j]
    return table


def _select(d2, anchor, k: int, index_bits: int):
    """Each row's k columns nearest first, ties to the lower anchor index,
    as anchor indices (rows, k): the scan's order of the (d2, anchor) pairs.

    ``anchor`` holds each column's index, below 2**index_bits. One int64
    sort ranks packed keys: the bits of d2, whose pattern orders as its
    value since d2 >= +0.0 (+inf included), with the low index_bits + 1
    cut off; one flag set when those cut bits were nonzero; the anchor
    index. They fit in 63 bits, the float's sign bit being 0. Keys with
    different high parts order as their d2. Within one high part, a key
    without the flag holds the exact d2 high part * 2**(index_bits + 1), so
    those tie on d2 and order by index, and each lies below every flagged
    one. Only two flagged keys of one high part can order unlike their d2.
    A row where two of its first k + 1 keys are such a pair goes to
    :func:`_tie_order`, and a row with no cut bits, as on a lattice of
    quarter pixels, never does.
    """
    bits = d2.view(np.int64)
    key = bits & -(1 << (index_bits + 1))
    flagged = bits != key
    key |= anchor
    np.bitwise_or(key, 1 << index_bits, out=key, where=flagged)
    key.sort(axis=1)
    near = key[:, :k] & ((1 << index_bits) - 1)
    # high part and flag of the first k + 1 keys; in sorted order, a key's
    # successor with the flag set equals it only when both are flagged
    high = key[:, : k + 1] >> index_bits
    tied = (high[:, 1:] | 1) == high[:, :-1]
    if tied.any():
        tied = tied.any(axis=1)
        near[tied] = _tie_order(d2[tied], anchor[tied], k)
    return near


def _tie_order(d2, anchor, k: int):
    """Each row's k anchors in the exact (d2, anchor index) order."""
    return np.take_along_axis(anchor, np.lexsort((anchor, d2))[:, :k], axis=1)


def bin_centers(n_bins: int) -> np.ndarray:
    """Center times (b + 0.5) / n_bins of a table's time bins; bin b holds
    the normalized times [b / n_bins, (b + 1) / n_bins), and the last one 1."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    return (np.arange(n_bins) + 0.5) / n_bins


@dataclass(frozen=True)
class EventLookup:
    """Each event's entry of (n_bins, rows, cols, 2) tables, grouped by
    site. A site is a (time bin, pixel, polarity): its events read one
    entry and share one warped position and one voting kernel. ``site`` is
    each event's site (N,) and ``first`` each site's first event (S,), the
    sites in (bin, pixel, polarity) order. ``read(disp)`` is each site's
    entry (S, 2) of a table ``disp``, so ``read(disp)[site]`` is each
    event's; ``pullback(gdelta)`` takes a cotangent (S, 2) per site and is
    the transpose of ``read``, each entry's site cotangents summed in site
    order, one np.bincount per axis.
    """

    read: Callable[[np.ndarray], np.ndarray]
    pullback: Callable[[np.ndarray], np.ndarray]
    site: np.ndarray
    first: np.ndarray


def event_lookup(sl: EventSlice, n_bins: int, stride: int) -> EventLookup:
    """The :class:`EventLookup` of tables whose cells tile the slice at
    ``stride``. Event k reads the bin floor(t_k n_bins), clipped, of its
    normalized time, at the cell (y // stride, x // stride) holding it.

    The sites are found here, a time bin at a time, with one table of each
    (pixel, polarity)'s first event in the bin: no sort, and nothing the
    size of the whole (bin, pixel, polarity) grid. A caller that reads many
    tables of one geometry, as ``optimize.minimize`` does every iteration,
    builds the lookup once.
    """
    rows, cols, _ = anchor_grid(sl.width, sl.height, stride)
    shape = (n_bins, rows, cols, 2)
    b = np.clip(np.floor(sl.normalized_times() * n_bins).astype(np.int64), 0, n_bins - 1)
    # the events are time-sorted, so each bin is one run of them; a table
    # of each (pixel, polarity)'s first event in the run numbers its sites
    pixel_pol = (sl.y * sl.width + sl.x) * 2 + (sl.p < 0)
    first_of = np.empty(2 * sl.width * sl.height, dtype=np.intp)
    site = np.empty(len(sl), dtype=np.intp)
    firsts, n_sites, lo = [], 0, 0
    for hi in np.searchsorted(b, np.arange(1, n_bins + 1)):
        first_of.fill(hi)
        np.minimum.at(first_of, pixel_pol[lo:hi], np.arange(lo, hi))
        seen = first_of < hi
        site[lo:hi] = (np.cumsum(seen) + (n_sites - 1))[pixel_pol[lo:hi]]
        firsts.append(first_of[seen])
        n_sites, lo = n_sites + len(firsts[-1]), hi
    first = np.concatenate(firsts)
    site_slot = (b[first] * rows + sl.y[first] // stride) * cols + sl.x[first] // stride

    def read(disp):
        if disp.shape != shape:
            raise ValueError(f"a {disp.shape} table is not {n_bins} bins of the {rows}x{cols} cells "
                             f"that tile a {sl.width}x{sl.height} slice at stride {stride}")
        return disp.reshape(-1, 2)[site_slot]

    def pullback(gdelta):
        gdisp = [np.bincount(site_slot, weights=gdelta[:, c], minlength=n_bins * rows * cols) for c in (0, 1)]
        return np.stack(gdisp, axis=1).reshape(shape)

    return EventLookup(read, pullback, site, first)


@dataclass
class DisplacementVolume:
    """Per (bin, cell) mean displacement toward t_ref, plus the KNN indices.

    ``disp`` is (n_bins, rows, cols, 2) in (dx, dy) pixels, the neighbor
    mean of q_n(t_ref) - q_n(t_b); ``knn_indices`` is (n_bins, rows, cols, k)
    of flat anchor indices, the sets that mean runs over; ``pullback`` maps
    a cotangent on ``disp`` to the coefficients. No code mutates it after
    the build.
    """

    t_ref: float
    disp: np.ndarray
    pullback: Callable[[np.ndarray], np.ndarray]
    knn_indices: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.disp.shape[0]

    @property
    def bin_centers(self) -> np.ndarray:
        return bin_centers(self.n_bins)


def _neighbor_mean(field: TrajectoryField, knn_indices: np.ndarray, t_from, t_to):
    """(means, pullback) over the sets ``knn_indices`` (B, rows, cols, k) of
    (g(t_to) - g(t_from)) . alpha_n, from ``t_from`` (one time per set) to
    ``t_to`` (one time, or one per set; one set serves every time): the
    means (S, rows, cols, 2), one per step, and the coefficient cotangent
    of a cotangent on them.

    Summation order: each anchor's step displacement sums its basis terms
    from +0.0 in basis order (:func:`contract_basis`); each mean sums its k
    displacements first to last in tiles of ``_KNN_TILE`` cells, then
    divides by k. The pullback holds no coefficients, so in-place updates
    of the field do not reach it; its one bincount per axis over the flat
    (step, anchor) slot keeps each slot's summation order, and each
    coefficient then sums its steps' terms from +0.0 in step order."""
    a = displacement_basis(field.basis, t_to) - displacement_basis(field.basis, t_from)  # (S, D)
    n_steps, (_, rows, cols, k) = len(a), knn_indices.shape
    sets = np.broadcast_to(knn_indices.reshape(-1, rows * cols, k), (n_steps, rows * cols, k))
    disp = contract_basis(a, field.basis_rows()).reshape(n_steps, field.n_anchors, 2)
    out = np.empty((n_steps, rows * cols, 2))
    for d, idx, acc in zip(disp, sets, out):
        for start in range(0, rows * cols, _KNN_TILE):
            # neighbor axis first: (k, tile, 2), summed over k in order
            acc[start : start + _KNN_TILE] = np.take(d, idx[start : start + _KNN_TILE].T, axis=0).sum(axis=0)
    out /= k
    n_anchors, degree, shape = field.n_anchors, field.basis.degree, field.coeffs.shape

    def pullback(gcells):
        slot = (np.arange(n_steps)[:, None] * n_anchors + sets.reshape(n_steps, rows * cols * k)).ravel()
        w = np.repeat(np.moveaxis(gcells.reshape(n_steps, rows * cols, 2), 2, 0) / k, k, axis=2)
        ganchor = [np.bincount(slot, weights=w[c].ravel(), minlength=n_steps * n_anchors) for c in (0, 1)]
        gcoeffs = contract_basis(a.T, np.stack(ganchor, axis=1).reshape(n_steps, 2 * n_anchors))
        return gcoeffs.reshape(degree, n_anchors, 2).transpose(1, 0, 2).reshape(shape)

    return out.reshape(n_steps, rows, cols, 2), pullback


def build_displacement_volume(field: TrajectoryField, t_ref: float, k: int, n_bins: int) -> DisplacementVolume:
    """Build the warp lookup table for one reference time.

    The search runs among the trajectory positions at the
    :func:`bin_centers`, and each bin's sets are read from its center to
    ``t_ref``; :func:`regather_volume` repeats that read at another
    reference time, so one search per field serves every reference time.
    The result is independent of evaluation order.
    """
    if not 0.0 <= t_ref <= 1.0:
        raise ValueError("t_ref must lie in [0, 1]")
    rows, cols, centers = anchor_grid(field.width, field.height, field.stride)
    t_bins = bin_centers(n_bins)
    sets = knn_per_bin(centers, eval_trajectory_batch(field, t_bins), k).reshape(n_bins, rows, cols, k)
    return DisplacementVolume(float(t_ref), *_neighbor_mean(field, sets, t_bins, t_ref), sets)


def regather_volume(field: TrajectoryField, volume: DisplacementVolume, t_ref: float) -> DisplacementVolume:
    """``volume`` re-targeted to another reference time with no search:
    its sets, searched on this ``field``, read from their bin centers to
    ``t_ref``. Equals a fresh build at ``t_ref`` bit for bit (outside
    [0, 1] the basis evaluation raises ValueError)."""
    sets = volume.knn_indices
    return DisplacementVolume(float(t_ref), *_neighbor_mean(field, sets, volume.bin_centers, t_ref), sets)


def build_consecutive_delta_field(field: TrajectoryField, volume: DisplacementVolume):
    """(delta, pullback) of the spatial-smoothness regularizer: bin b's sets
    read from its center to bin b+1's, (n_bins-1, rows, cols, 2) and empty
    for a single bin, and the coefficient pullback."""
    t = volume.bin_centers
    return _neighbor_mean(field, volume.knn_indices[:-1], t[:-1], t[1:])


def interpolate_flow(field: TrajectoryField, times, k: int) -> np.ndarray:
    """Dense per-pixel displacement maps from t=0 to each query time,
    (T, H, W, 2): each pixel's K anchors nearest in the t=0 frame, where
    every trajectory sits at its anchor, read from 0 to every time."""
    h, w, pixels = anchor_grid(field.width, field.height, 1)
    sets = knn_per_bin(pixels, field.anchor_positions()[None], k).reshape(1, h, w, k)
    return _neighbor_mean(field, sets, 0.0, times)[0]
