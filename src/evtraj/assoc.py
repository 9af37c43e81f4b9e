"""KNN association between grid cells and trajectories, and the coarse
spatio-temporal displacement volume used as a per-event warp lookup table.

The volume has shape [n_bins, H/stride, W/stride, 2]. For each temporal
bin, trajectory positions are evaluated at the bin center and an exact
K-nearest-neighbor search associates every cell center with the K
trajectories passing closest to it *at that time* (the moving frame).
The cell's displacement toward the reference time is the mean over those
neighbors of q_n(t_ref) - q_n(t_bin).

The neighbor sets depend only on the field (its positions at the bin
centers), never on t_ref. One search per field therefore serves every
reference time: :func:`regather_volume` re-targets a built volume to
another t_ref by a gather over the same sets, with no search.

The KNN search streams over fixed-size tiles of query cells so the full
cells x anchors distance matrix is never materialized; results are
byte-identical to the brute-force scan for every tile size. Ordering is
by squared Euclidean distance with ties broken by lower anchor index,
which makes the whole pipeline deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import TrajectoryField, anchor_grid, displacement_basis, eval_trajectory_batch

# Test instrumentation: when set, called with the byte size of every
# distance tile allocated by the streaming KNN.
_dist_alloc_hook = None


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor count for the search."""

    k: int = 32

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def knn_per_bin(query_cells, traj_positions, k: int, tile_size: int = 1024):
    """Exact KNN of each query cell among trajectory positions.

    Returns (indices, distances), both (n_cells, k); the k anchors with
    smallest Euclidean distance to each cell center, ties broken by lower
    anchor index. Streams over tiles of at most ``tile_size`` cells.
    """
    query = np.asarray(query_cells, dtype=np.float64)
    pts = np.asarray(traj_positions, dtype=np.float64)
    n_cells, n_pts = len(query), len(pts)
    if k > n_pts:
        raise ValueError(f"k={k} exceeds anchor count {n_pts}")
    if not (np.all(np.isfinite(query)) and np.all(np.isfinite(pts))):
        raise ValueError("positions must be finite")
    idx = np.empty((n_cells, k), dtype=np.int64)
    dist = np.empty((n_cells, k), dtype=np.float64)
    for start in range(0, n_cells, tile_size):
        tile = query[start : start + tile_size]
        # squared in place and freed before the next tile, so at most two
        # (tile, n_pts) float arrays are live at once
        d2 = tile[:, None, 0] - pts[None, :, 0]
        dy = tile[:, None, 1] - pts[None, :, 1]
        np.square(d2, out=d2)
        d2 += np.square(dy, out=dy)
        del dy
        if _dist_alloc_hook is not None:
            _dist_alloc_hook(d2.nbytes)
        order = _topk_stable(d2, k)
        idx[start : start + tile.shape[0]] = order
        dist[start : start + tile.shape[0]] = np.sqrt(
            np.take_along_axis(d2, order, axis=1)
        )
        del d2
    return idx, dist


def _topk_stable(d2, k):
    """Row-wise indices of the k smallest values, ties by lower index.

    Selects candidates with argpartition and orders them by (value,
    index). In rows where a tie straddles the selection boundary (the
    k-th smallest value), argpartition's choice among the tied entries is
    arbitrary; there the tied candidates are replaced by the lowest-index
    tied entries, with no full-row sort, so the result always equals the
    brute-force scan.
    """
    n = d2.shape[1]
    if k >= n or k > n - k:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    # index order first, so the stable sort below breaks ties by index
    cand = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    cd = np.take_along_axis(d2, cand, axis=1)
    boundary = cd.max(axis=1, keepdims=True)
    at_boundary = d2 == boundary
    # argpartition keeps every entry below the boundary, so ``inside`` of
    # a row's ``everywhere`` tied entries are candidates
    inside = (cd == boundary).sum(axis=1)
    everywhere = at_boundary.sum(axis=1)
    risky = np.flatnonzero(everywhere > inside)
    if risky.size:
        # the lowest-index tied entries replace the tied candidates (their
        # values in ``cd`` stay); both run in row-major order
        rows, cols = np.nonzero(at_boundary[risky])
        counts = everywhere[risky]
        # 0-based rank of each tied entry among its row's tied entries
        rank = np.arange(len(cols)) - np.repeat(np.cumsum(counts) - counts, counts)
        sub = cand[risky]
        sub[cd[risky] == boundary[risky]] = cols[rank < inside[risky][rows]]
        cand[risky] = sub
    return np.take_along_axis(cand, np.argsort(cd, axis=1, kind="stable"), axis=1)


@dataclass
class DisplacementVolume:
    """Per (bin, cell) mean displacement toward t_ref, plus the KNN indices.

    ``disp`` is (n_bins, rows, cols, 2) in (dx, dy) pixels; ``knn_indices``
    is (n_bins, rows, cols, k) of flat anchor indices. ``pos_bins`` is
    (n_bins, n_anchors, 2), the trajectory positions at the bin centers
    that the neighbor sets were searched among; None for volumes not built
    from a field. Immutable once built.
    """

    t_ref: float
    stride: int
    width: int
    height: int
    bin_centers: np.ndarray
    disp: np.ndarray
    knn_indices: np.ndarray
    pos_bins: np.ndarray | None = None

    @property
    def n_bins(self) -> int:
        return self.disp.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.disp.shape[1], self.disp.shape[2]

    @classmethod
    def zeros(cls, width: int, height: int, stride: int = 4, n_bins: int = 15):
        """Identity-warp volume (zero displacement everywhere)."""
        rows, cols, _ = anchor_grid(width, height, stride)
        return cls(
            t_ref=0.0,
            stride=stride,
            width=width,
            height=height,
            bin_centers=(np.arange(n_bins) + 0.5) / n_bins,
            disp=np.zeros((n_bins, rows, cols, 2)),
            knn_indices=np.zeros((n_bins, rows, cols, 1), dtype=np.int64),
        )


def build_displacement_volume(
    field: TrajectoryField, t_ref: float, cfg: KnnConfig, n_bins: int
) -> DisplacementVolume:
    """Build the warp lookup table for one reference time.

    Bin centers sit at (b + 0.5) / n_bins. The neighbor sets depend only
    on the field, so one build per field serves every reference time
    (:func:`regather_volume`). Construction is pure per-voxel computation,
    so the result is independent of evaluation order.
    """
    if not 0.0 <= t_ref <= 1.0:
        raise ValueError("t_ref must lie in [0, 1]")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    rows, cols, centers = anchor_grid(field.width, field.height, field.stride)
    bin_centers = (np.arange(n_bins) + 0.5) / n_bins
    pos_bins = eval_trajectory_batch(field, bin_centers)  # (B, N, 2)
    knn_idx = np.empty((n_bins, rows * cols, cfg.k), dtype=np.int64)
    for b in range(n_bins):
        knn_idx[b] = knn_per_bin(centers, pos_bins[b], cfg.k)[0]
    return _gather(
        field, t_ref, bin_centers, pos_bins, knn_idx.reshape(n_bins, rows, cols, cfg.k)
    )


def regather_volume(field: TrajectoryField, volume: DisplacementVolume, t_ref: float) -> DisplacementVolume:
    """``volume`` re-targeted to another reference time, with no search.

    ``volume`` must come from :func:`build_displacement_volume` on this
    ``field``; the result shares its neighbor sets and bin positions and
    equals, bit for bit, a fresh build at ``t_ref`` (outside [0, 1] the
    trajectory evaluation raises ValueError).
    """
    return _gather(field, t_ref, volume.bin_centers, volume.pos_bins, volume.knn_indices)


def _gather(field, t_ref, bin_centers, pos_bins, knn_indices) -> DisplacementVolume:
    """Mean neighbor displacement from each bin center toward t_ref."""
    n_bins, rows, cols, k = knn_indices.shape
    idx_bins = knn_indices.reshape(n_bins, rows * cols, k)
    pos_ref = eval_trajectory_batch(field, [t_ref])[0]  # (N, 2)
    disp = np.empty((n_bins, rows * cols, 2), dtype=np.float64)
    for b, idx in enumerate(idx_bins):
        delta = pos_ref[idx] - pos_bins[b][idx]  # (cells, k, 2)
        disp[b] = delta.mean(axis=1)
    return DisplacementVolume(
        t_ref=float(t_ref),
        stride=field.stride,
        width=field.width,
        height=field.height,
        bin_centers=bin_centers,
        disp=disp.reshape(n_bins, rows, cols, 2),
        knn_indices=knn_indices,
        pos_bins=pos_bins,
    )


def build_consecutive_delta_field(volume: DisplacementVolume) -> np.ndarray:
    """Mean trajectory displacement between consecutive bin centers.

    Uses the same neighbor sets and bin positions as the volume (bin b's
    indices for the pair b -> b+1). Shape (n_bins-1, rows, cols, 2); empty
    when the volume has a single bin. Feeds the spatial-smoothness
    regularizer.
    """
    rows, cols = volume.grid_shape
    if volume.n_bins < 2:
        return np.zeros((0, rows, cols, 2))
    pos_bins = volume.pos_bins
    idx = volume.knn_indices.reshape(volume.n_bins, rows * cols, -1)
    out = np.empty((volume.n_bins - 1, rows * cols, 2))
    for b in range(volume.n_bins - 1):
        step = pos_bins[b + 1][idx[b]] - pos_bins[b][idx[b]]
        out[b] = step.mean(axis=1)
    return out.reshape(volume.n_bins - 1, rows, cols, 2)


def interpolate_flow(field: TrajectoryField, times, k: int, tile_size: int = 4096) -> np.ndarray:
    """Dense per-pixel displacement maps from t=0 to each query time.

    Pixels are associated with the K anchors nearest in the t=0 frame
    (where every trajectory sits at its anchor), and each pixel's motion
    is the mean of its neighbors' displacements. Shape (T, H, W, 2).
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    h, w = field.height, field.width
    px, py = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    pixels = np.stack([px.ravel(), py.ravel()], axis=1)
    idx, _ = knn_per_bin(pixels, field.anchor_positions(), k, tile_size)
    g = displacement_basis(field.basis, times)  # (T, D)
    disp_anchor = np.einsum("td,ndc->tnc", g, field.flat_coeffs())  # (T, N, 2)
    out = disp_anchor[:, idx, :].mean(axis=2)  # (T, HW, 2)
    return out.reshape(len(times), h, w, 2)
