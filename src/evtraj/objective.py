"""Event warping, images of warped events (IWE), and the contrast objective.

One loss serves both objectives, scored over a weighted set ``refs`` of
(t_ref, w) pairs. Per reference time: build the displacement volume,
transport every event to that time by a table lookup, accumulate the
warped events into polarity-split images and take their contrast G(t),
the L1 norm of the IWE gradient magnitude (sharper image = larger G). Then

    total = 1 / max(C, eps) + (lambda / |Omega|) * R,
    C = sum_i w_i G(t_i) / (G_0 * sum_i w_i)

with |Omega| = W * H pixels and R the spatial roughness of the motion
between consecutive time bins. For one reference time this is
(1 / Gbar + lambda * R) / |Omega| with Gbar = G / |Omega|, so lambda weighs
R against the per-pixel contrast at any resolution. The paper's objective
draws one reference time per optimization step, refs = ((t, 1),) with
G_0 = 1 (C = G), so the solution must be sharp at *any* time. The
fixed-reference baseline is refs = ``FIXED_REFERENCES`` with G_0 the
zero-warp contrast, lambda = 0 and no time weighting:
C = F = (G(0) + 2 G(0.5) + G(1)) / (4 G_0).

:func:`loss_forward` runs the forward pass; ``optimize`` adds only the
backward pass on top of what it returns.

Accumulation uses one separable stencil: an event deposits its weight
through the outer product of a y and an x kernel, 2-tap linear (sigma = 0,
bilinear voting) or a Gaussian truncated at floor(x') +- ceil(3 sigma) and
normalized over its in-image taps. Events warped off-image contribute
nothing. All scatter operations reduce with np.bincount in a fixed order,
so results are bit-identical across runs and thread settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .assoc import (
    DisplacementVolume,
    KnnConfig,
    build_consecutive_delta_field,
    build_displacement_volume,
    regather_volume,
)
from .events import EventSlice
from .trajectory import TrajectoryField

EPS_CONTRAST = 1e-8

# (t_ref, weight) of the three-reference baseline; the weights sum to 4
FIXED_REFERENCES = ((0.0, 1.0), (0.5, 2.0), (1.0, 1.0))


@dataclass(frozen=True)
class ObjectiveConfig:
    """Contrast-loss settings. Defaults follow the estimator's standard run
    (k=32 neighbors, 15 time bins, lambda=0.003, bilinear voting, time
    weighting on).

    ``lam`` weighs the smoothness term R against the per-pixel contrast
    G / |Omega|; the total applies it as ``lam / |Omega|`` against G
    (see :func:`loss_forward`).
    """

    lam: float = 0.003
    sigma: float = 0.0
    time_weighting: bool = True
    knn: KnnConfig = dc_field(default_factory=KnnConfig)
    n_bins: int = 15

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not self.sigma >= 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")


@dataclass
class WarpedEvents:
    """Warped positions plus the lookup bookkeeping needed for gradients.

    ``vox_idx`` gives each event's flat voxel index into the volume.
    ``weights`` are the per-event IWE contributions (time weighting
    already applied, mean 1 over unmasked).
    """

    positions: np.ndarray  # (N, 2) warped (x, y)
    weights: np.ndarray  # (N,)
    mask: np.ndarray  # (N,) True = kept
    polarity: np.ndarray  # (N,) +1/-1
    vox_idx: np.ndarray  # (N,) flat indices into (n_bins * rows * cols)
    width: int
    height: int

    @property
    def n_masked(self) -> int:
        return int(len(self.mask) - self.mask.sum())


@dataclass
class Iwe:
    """Polarity-split accumulation of warped events."""

    pos: np.ndarray
    neg: np.ndarray

    def total(self) -> np.ndarray:
        return self.pos + self.neg


@dataclass
class LossBreakdown:
    """Parts of one loss evaluation: ``total == 1 / max(g, eps) + lam * r``.

    ``g`` is the weighted contrast C (G for one reference time, F for the
    baseline), ``lam`` the weight actually applied to ``r``,
    lambda / |Omega|, ``t_ref`` the weighted mean reference time and
    ``n_masked`` summed over the passes.
    """

    g: float
    r: float
    total: float
    lam: float
    n_masked: int
    degenerate: bool
    t_ref: float


@dataclass
class ContrastPass:
    """One contrast evaluation, kept for the backward pass.

    ``taps`` (N, L) index each event's footprint in the stacked (pos, neg)
    images; ``pullback`` maps a cotangent on those taps to the per-event
    derivatives (d/dx', d/dy') of the deposited mass.
    """

    volume: DisplacementVolume
    warped: WarpedEvents
    iwe: Iwe
    taps: np.ndarray
    pullback: Callable
    g: float


def warp_events(sl: EventSlice, volume: DisplacementVolume, time_weighting: bool = False) -> WarpedEvents:
    """Transport every event to the volume's reference time.

    Displacement is looked up at the event's cell and nearest time bin.
    Events landing outside [0, W-1] x [0, H-1] are masked out. With
    ``time_weighting`` each kept event carries weight |t_ref - t_k|,
    normalized to mean 1.
    """
    if volume.width != sl.width or volume.height != sl.height:
        raise ValueError(
            f"volume geometry {volume.width}x{volume.height} does not match "
            f"slice {sl.width}x{sl.height}"
        )
    n_bins = volume.n_bins
    rows, cols = volume.grid_shape
    tn = sl.normalized_times()
    b = np.clip(np.floor(tn * n_bins).astype(np.int64), 0, n_bins - 1)
    vox_idx = (b * rows + sl.y // volume.stride) * cols + sl.x // volume.stride
    delta = volume.disp.reshape(-1, 2)[vox_idx]
    positions = np.stack([sl.x + delta[:, 0], sl.y + delta[:, 1]], axis=1)
    mask = (
        (positions[:, 0] >= 0.0)
        & (positions[:, 0] <= sl.width - 1.0)
        & (positions[:, 1] >= 0.0)
        & (positions[:, 1] <= sl.height - 1.0)
    )
    weights = np.ones(len(sl), dtype=np.float64)
    if time_weighting:
        dt = np.abs(volume.t_ref - tn)
        mean_dt = dt[mask].mean() if mask.any() else 0.0
        weights = dt / mean_dt if mean_dt > 0.0 else weights
    return WarpedEvents(
        positions=positions,
        weights=weights,
        mask=mask,
        polarity=np.asarray(sl.p),
        vox_idx=vox_idx,
        width=sl.width,
        height=sl.height,
    )


def _axis_kernel(coord, size: int, sigma: float):
    """One axis of the voting kernel: (taps, k, dk), each (N, l), with the
    tap cells clipped into [0, size), the kernel (zero off-image) and
    dk/dcoord. sigma = 0: 2-tap linear; sigma > 0: a Gaussian over
    floor(c) - r ... floor(c) + r + 1 (r = ceil(3 sigma); breakpoints on the
    integer lattice, as at sigma = 0) normalized over its in-image taps."""
    c0 = np.clip(np.floor(coord).astype(np.int64), 0, size - 1)
    if sigma == 0.0:
        cells = np.stack([c0, c0 + 1], axis=1)
        f = coord - c0
        k = np.stack([1 - f, f], axis=1)
        dk = np.array([-1.0, 1.0])
    else:
        r = math.ceil(3.0 * sigma)
        cells = c0[:, None] + np.arange(-r, r + 2)
        d = cells - coord[:, None]
        k = np.exp(-np.square(d) * (0.5 / (sigma * sigma)))
    inside = (cells >= 0) & (cells < size)
    k *= inside
    if sigma > 0.0:
        norm = k.sum(axis=1, keepdims=True)
        k /= np.where(norm > 0.0, norm, 1.0)
        rel = d / (sigma * sigma)
        dk = k * (rel - (k * rel).sum(axis=1, keepdims=True))
    return np.clip(cells, 0, size - 1), k, dk * inside


def voting_stencil(positions, mask, weights, width: int, height: int, sigma: float):
    """Per-event footprint (pix (N, L), contrib (N, L), pullback) of the
    separable kernel: an event deposits mask * weight * (k_y (x) k_x), the
    per-axis factors of :func:`_axis_kernel`, over L = l * l taps, y outer
    and x inner, so unmasked rows of ``contrib`` sum to the weight.
    ``pullback(cot)`` contracts a tap cotangent (N, L) with (k_y (x) dk_x)
    and (dk_y (x) k_x) into (d/dx', d/dy'), each (N,).
    """
    cx, kx, dkx = _axis_kernel(positions[:, 0], width, sigma)
    cy, ky, dky = _axis_kernel(positions[:, 1], height, sigma)
    n, l = kx.shape
    mw = mask * weights
    contrib = np.einsum("ni,nj->nij", ky, kx)
    contrib *= mw[:, None, None]
    pix = cy[:, :, None] * width + cx[:, None, :]

    def pullback(cot):
        cot = cot.reshape(n, l, l)  # one axis at a time: faster than a single einsum
        return (mw * np.einsum("ni,ni->n", np.einsum("nij,nj->ni", cot, dkx), ky),
                mw * np.einsum("nj,nj->n", np.einsum("nij,ni->nj", cot, dky), kx))

    return pix.reshape(n, l * l), contrib.reshape(n, l * l), pullback


def _accumulate(warped: WarpedEvents, sigma: float, polarity_split: bool):
    """(Iwe, taps into the stacked (pos, neg) images, stencil pullback)."""
    taps, contrib, pullback = voting_stencil(
        warped.positions, warped.mask, warped.weights, warped.width, warped.height, sigma
    )
    npix = warped.width * warped.height
    if polarity_split:
        # single pass: negative-polarity taps land in the second half
        taps += ((warped.polarity < 0).astype(np.int64) * npix)[:, None]
    counts = np.bincount(taps.ravel(), weights=contrib.ravel(), minlength=2 * npix)
    shape = (warped.height, warped.width)
    iwe = Iwe(counts[:npix].reshape(shape), counts[npix:].reshape(shape))
    return iwe, taps, pullback


def build_iwe(warped: WarpedEvents, sigma: float = 0.0, polarity_split: bool = True) -> Iwe:
    """Accumulate warped events into (pos, neg) images.

    Each unmasked event deposits its weight through the voting stencil;
    with ``polarity_split`` off everything lands in ``pos``.
    """
    return _accumulate(warped, sigma, polarity_split)[0]


def _forward_differences(img: np.ndarray):
    """Forward-difference gradient images (zero on the far edges)."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, :-1] = img[:, 1:] - img[:, :-1]
    gy[:-1, :] = img[1:, :] - img[:-1, :]
    return gx, gy


def contrast_g(iwe: Iwe) -> float:
    """L1 norm of the IWE gradient magnitude, summed over both polarities."""
    total = 0.0
    for img in (iwe.pos, iwe.neg):
        gx, gy = _forward_differences(img)
        total += float(np.sqrt(gx * gx + gy * gy).sum())
    return total


def contrast_pass(sl: EventSlice, volume: DisplacementVolume, sigma: float, time_weighting: bool) -> ContrastPass:
    """Warp, accumulate the polarity-split IWE and score its contrast G."""
    warped = warp_events(sl, volume, time_weighting=time_weighting)
    iwe, taps, pullback = _accumulate(warped, sigma, polarity_split=True)
    return ContrastPass(volume, warped, iwe, taps, pullback, contrast_g(iwe))


def regularizer_r(delta_field: np.ndarray) -> float:
    """Mean L1 spatial roughness of the consecutive-bin displacement field.

    Sums |forward row/column differences| of each 2-vector entry over all
    bin pairs and divides by the cell count. Zero for spatially constant
    motion and for an empty field.
    """
    if delta_field.size == 0:
        return 0.0
    dx = delta_field[:, :, 1:, :] - delta_field[:, :, :-1, :]
    dy = delta_field[:, 1:, :, :] - delta_field[:, :-1, :, :]
    n_cells = delta_field.shape[1] * delta_field.shape[2]
    return float((np.abs(dx).sum() + np.abs(dy).sum()) / n_cells)


def sample_reference_time(rng: np.random.Generator) -> float:
    """Uniform reference time in [0, 1); reproducible from the generator state."""
    return float(rng.random())


def zero_warp_contrast(sl: EventSlice, stride: int, cfg: ObjectiveConfig) -> float:
    """G_0 of the fixed-reference baseline: the eps-guarded contrast of the
    unwarped events. It does not depend on the field, so one value serves a
    whole run."""
    zero_vol = DisplacementVolume.zeros(sl.width, sl.height, stride, cfg.n_bins)
    return max(contrast_pass(sl, zero_vol, cfg.sigma, False).g, EPS_CONTRAST)


def loss_forward(sl: EventSlice, field: TrajectoryField, refs, cfg: ObjectiveConfig, g0: float = 1.0):
    """Evaluate 1/C + (lambda/|Omega|)*R over the (t_ref, weight) pairs
    ``refs``, C = sum w G(t) / (g0 * sum w).

    The neighbor sets depend only on the field, so one volume build at
    ``refs[0]`` serves every reference time; the others are gathered from
    it. R is skipped (reads 0) when lambda = 0. Flags ``degenerate`` (and
    guards 1/C with eps) when C falls under eps, as when every event is
    warped off-image or the IWEs are flat.

    Returns (LossBreakdown, passes, delta): the contrast passes in the
    order of ``refs`` and the consecutive-bin delta field behind R (None
    when lambda = 0).
    """
    volume = build_displacement_volume(field, refs[0][0], cfg.knn, cfg.n_bins)
    passes = []
    for t_ref, _ in refs:
        if t_ref != volume.t_ref:
            volume = regather_volume(field, volume, t_ref)
        passes.append(contrast_pass(sl, volume, cfg.sigma, cfg.time_weighting))
    w_sum = sum(w for _, w in refs)
    c = sum(w * cp.g for (_, w), cp in zip(refs, passes)) / (w_sum * g0)
    lam = cfg.lam / (sl.width * sl.height)
    delta = build_consecutive_delta_field(passes[0].volume) if lam > 0.0 else None
    r = regularizer_r(delta) if lam > 0.0 else 0.0
    breakdown = LossBreakdown(
        g=c, r=r, total=1.0 / max(c, EPS_CONTRAST) + lam * r, lam=lam,
        n_masked=sum(cp.warped.n_masked for cp in passes), degenerate=c < EPS_CONTRAST,
        t_ref=sum(w * t for t, w in refs) / w_sum,
    )
    return breakdown, passes, delta


def write_iwe_pgm(iwe: Iwe, path, bits: int = 8, which: str = "sum") -> None:
    """Render an IWE as a max-normalized binary PGM.

    ``which`` selects "sum", "pos", or "neg". The comment line records the
    accumulation value mapped to white, so pixel values can be inverted
    back to event counts.
    """
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    img = {"sum": iwe.total, "pos": lambda: iwe.pos, "neg": lambda: iwe.neg}[which]()
    peak = float(img.max())
    maxval = (1 << bits) - 1
    scale = maxval / peak if peak > 0 else 0.0
    quant = np.round(img * scale).astype(">u2" if bits == 16 else "u1")
    header = (
        f"P5\n# scale: white={maxval} corresponds to accumulation {peak!r}\n"
        f"{img.shape[1]} {img.shape[0]}\n{maxval}\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(quant.tobytes())
