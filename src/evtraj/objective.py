"""Event warping, images of warped events (IWE), and the contrast objective.

Pipeline per evaluation: build the displacement volume for a reference
time, transport every event to that time by a table lookup, accumulate
the warped events into polarity-split images, and score

    total = 1 / max(G, eps) + (lambda / |Omega|) * R
          = (1 / Gbar + lambda * R) / |Omega|     (for G >= eps)

where G is the L1 norm of the IWE gradient magnitude (sharper image =
larger G), Gbar = G / |Omega| its per-pixel mean over the |Omega| = W * H
pixels, and R penalizes spatial roughness of the interpolated motion
between consecutive time bins. lambda thus weighs R against the per-pixel
contrast, as in the contrast-maximization literature, and means the same
at any resolution. The reference time is drawn uniformly per optimization
step, so the solution must be sharp at *any* time.

Every evaluation runs the forward passes here (:func:`loss_forward`,
:func:`fixed_reference_forward`); the gradient code in ``optimize`` adds
only its backward pass on top of what they return.

Accumulation uses bilinear voting by default (sigma = 0) or a truncated
Gaussian footprint (window anchored at floor(x'), radius ceil(3 sigma))
normalized per event so total deposited mass equals the event's weight.
Events transported outside the image contribute nothing. All scatter
operations reduce with np.bincount in a fixed order, so results are
bit-identical across runs and thread settings.
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
    (see :func:`applied_lambda`).
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
    t_ref: float
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

    ``g`` is the L1 contrast (not divided by the pixel count) and ``lam``
    the weight actually applied to ``r``, lambda / |Omega|.
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
        t_ref=volume.t_ref,
        width=sl.width,
        height=sl.height,
    )


def voting_stencil(positions, mask, weights, width: int, height: int, sigma: float):
    """Per-event accumulation footprint: flat pixel indices and deposits.

    Returns (pix (N, L), contrib (N, L), pullback). Each unmasked row of
    ``contrib`` sums to the event's weight; masked rows are zero.
    ``pullback(cot)`` contracts a per-tap cotangent (N, L) with the
    derivatives of ``contrib`` and returns (d/dx', d/dy'), each (N,).
    sigma = 0 gives the 4-point bilinear kernel; sigma > 0 a truncated
    Gaussian (window anchored at floor(x'), radius ceil(3 sigma), so its
    breakpoints share the bilinear kernel's integer lattice) normalized
    per event over the in-image taps.
    """
    if sigma == 0.0:
        return _bilinear_stencil(positions, mask, weights, width, height)
    return _gaussian_stencil(positions, mask, weights, width, height, sigma)


def _bilinear_stencil(positions, mask, weights, width, height):
    xw = positions[:, 0]
    yw = positions[:, 1]
    x0 = np.clip(np.floor(xw).astype(np.int64), 0, width - 1)
    y0 = np.clip(np.floor(yw).astype(np.int64), 0, height - 1)
    fx = xw - x0
    fy = yw - y0
    cx = np.stack([x0, x0 + 1, x0, x0 + 1], axis=1)
    cy = np.stack([y0, y0, y0 + 1, y0 + 1], axis=1)
    w = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy], axis=1)
    keep = mask[:, None] & (cx >= 0) & (cx < width) & (cy >= 0) & (cy < height)
    w = np.where(keep, w, 0.0)
    pix = np.clip(cy, 0, height - 1) * width + np.clip(cx, 0, width - 1)

    def pullback(cot):
        dwx = np.where(keep, np.stack([-(1 - fy), (1 - fy), -fy, fy], axis=1), 0.0)
        dwy = np.where(keep, np.stack([-(1 - fx), -fx, (1 - fx), fx], axis=1), 0.0)
        return weights * np.einsum("nl,nl->n", cot, dwx), weights * np.einsum("nl,nl->n", cot, dwy)

    return pix, w * weights[:, None], pullback


def _gaussian_stencil(positions, mask, weights, width, height, sigma):
    # fully separable: the deposits, their normalization and both
    # derivative stencils are outer products of per-axis (N, L) arrays,
    # L = 2*ceil(3 sigma) + 2; the event weight is folded into the x factor
    xw = positions[:, 0]
    yw = positions[:, 1]
    x0 = np.clip(np.floor(xw).astype(np.int64), 0, width - 1)
    y0 = np.clip(np.floor(yw).astype(np.int64), 0, height - 1)
    r = math.ceil(3.0 * sigma)
    offs = np.arange(-r, r + 2)
    cx = x0[:, None] + offs[None, :]
    cy = y0[:, None] + offs[None, :]
    dx = cx - xw[:, None]
    dy = cy - yw[:, None]
    inv2s = 1.0 / (2.0 * sigma * sigma)
    ex = np.exp(-np.square(dx) * inv2s)
    ex *= (cx >= 0) & (cx < width)
    ey = np.exp(-np.square(dy) * inv2s)
    ey *= (cy >= 0) & (cy < height)
    sum_ex = ex.sum(axis=1)
    sum_ey = ey.sum(axis=1)
    total = sum_ex * sum_ey
    total[total == 0.0] = 1.0
    n = len(xw)
    lw = offs.size
    exa = ex * (mask * weights / total)[:, None]  # masked rows zeroed here
    contrib = exa[:, :, None] * ey[:, None, :]  # axis 1 = x taps, axis 2 = y taps
    pix = np.clip(cy, 0, height - 1)[:, None, :] * width + np.clip(cx, 0, width - 1)[:, :, None]

    def pullback(cot):
        # d/dx' of the deposits is ax (x) ey with ax = exa * (rx - <rx>),
        # <rx> the ex-mean of the x tap offsets; d/dy' is exa (x) by.
        # Contracting against the factors never materializes (N, L, L).
        rx = dx / (sigma * sigma)
        ry = dy / (sigma * sigma)
        mean_rx = np.divide((ex * rx).sum(axis=1), sum_ex, out=np.zeros(n), where=sum_ex > 0)
        mean_ry = np.divide((ey * ry).sum(axis=1), sum_ey, out=np.zeros(n), where=sum_ey > 0)
        ax = exa * (rx - mean_rx[:, None])
        by = ey * (ry - mean_ry[:, None])
        cot3 = cot.reshape(n, lw, lw)
        return np.einsum("nij,ni,nj->n", cot3, ax, ey), np.einsum("nij,ni,nj->n", cot3, exa, by)

    return pix.reshape(n, lw * lw), contrib.reshape(n, lw * lw), pullback


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


def applied_lambda(cfg: ObjectiveConfig, sl: EventSlice) -> float:
    """Weight applied to R against the L1 contrast G: lambda / (W * H)."""
    return cfg.lam / (sl.width * sl.height)


def loss_forward(sl: EventSlice, field: TrajectoryField, t_ref: float, cfg: ObjectiveConfig):
    """Forward pass of :func:`total_loss`.

    Returns (LossBreakdown, ContrastPass, delta) with ``delta`` the
    consecutive-bin delta field behind R.
    """
    volume = build_displacement_volume(field, t_ref, cfg.knn, cfg.n_bins)
    cp = contrast_pass(sl, volume, cfg.sigma, cfg.time_weighting)
    delta = build_consecutive_delta_field(volume)
    r = regularizer_r(delta)
    n_masked = cp.warped.n_masked
    degenerate = (n_masked == len(sl) and len(sl) > 0) or cp.g < EPS_CONTRAST
    lam = applied_lambda(cfg, sl)
    total = 1.0 / max(cp.g, EPS_CONTRAST) + lam * r
    breakdown = LossBreakdown(
        g=cp.g, r=r, total=total, lam=lam, n_masked=n_masked,
        degenerate=degenerate, t_ref=float(t_ref),
    )
    return breakdown, cp, delta


def total_loss(sl: EventSlice, field: TrajectoryField, t_ref: float, cfg: ObjectiveConfig) -> LossBreakdown:
    """Evaluate 1/G + (lambda/|Omega|)*R for one reference time.

    This is (1/Gbar + lambda*R)/|Omega| with Gbar = G/|Omega| the
    per-pixel contrast, so it has the same minimizer as the per-pixel
    loss; ``LossBreakdown.lam`` carries the applied weight lambda/|Omega|.

    Flags ``degenerate`` (and guards 1/G with eps) when every event is
    warped off-image or the IWE is flat.
    """
    return loss_forward(sl, field, t_ref, cfg)[0]


def zero_warp_contrast(sl: EventSlice, stride: int, cfg: ObjectiveConfig) -> float:
    """G_0 of the fixed-reference baseline: the eps-guarded contrast of the
    unwarped events. It does not depend on the field, so one value serves a
    whole run."""
    zero_vol = DisplacementVolume.zeros(sl.width, sl.height, stride, cfg.n_bins)
    return max(contrast_pass(sl, zero_vol, cfg.sigma, False).g, EPS_CONTRAST)


def fixed_reference_forward(sl: EventSlice, field: TrajectoryField, cfg: ObjectiveConfig, g0=None):
    """Forward pass of :func:`fixed_reference_loss`.

    Returns (F, G_0, passes): G_0 is the eps-guarded zero-warp contrast
    (``g0`` when given, else :func:`zero_warp_contrast`) and ``passes``
    the contrast passes at the times of ``FIXED_REFERENCES``. The neighbor
    sets depend only on the field, so one volume build serves all three
    reference times; the others are gathered from it.
    """
    if g0 is None:
        g0 = zero_warp_contrast(sl, field.stride, cfg)
    volume = build_displacement_volume(field, FIXED_REFERENCES[0][0], cfg.knn, cfg.n_bins)
    passes = []
    f = 0.0
    for t_ref, weight in FIXED_REFERENCES:
        if t_ref != volume.t_ref:
            volume = regather_volume(field, volume, t_ref)
        passes.append(contrast_pass(sl, volume, cfg.sigma, False))
        f += weight * passes[-1].g
    return f / (4.0 * g0), g0, passes


def fixed_reference_loss(sl: EventSlice, field: TrajectoryField, cfg: ObjectiveConfig) -> float:
    """Three-reference contrast baseline for ablations.

    (G(0) + 2 G(0.5) + G(1)) / (4 G_0) with G_0 the zero-warp contrast.
    Contrast-only: lambda and time weighting are ignored, so identical
    IWEs (zero coefficients) give exactly 1. Values above 1 mean the warp
    sharpens the accumulation at all three fixed times.
    """
    return fixed_reference_forward(sl, field, cfg)[0]


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
