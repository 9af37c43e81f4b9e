"""Gradient-based minimization of the contrast loss over trajectory
coefficients, with analytic gradients.

Both objectives are the one loss of :func:`~evtraj.objective.loss_forward`
over a weighted reference set: a reference time drawn uniformly per
iteration, or the fixed three-reference baseline. The gradient adds only
the backward pass over what that forward pass returns. It treats the KNN
neighbor sets, per-event voxel assignments, and the off-image mask as
constants within one evaluation (they are recomputed every iteration).
Under that piecewise-constant treatment the loss is differentiable away
from the integer breakpoints of the voting kernel, and the chain rule runs

    coefficients -> per-voxel mean displacement -> event lookup
                 -> voting stencil -> G(t) -> C    (contrast path)
    coefficients -> consecutive-bin delta field -> R   (smoothness path)

Updates use Adam-style moment estimates directly on the coefficient
tensor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .events import EventSlice
from .objective import (
    EPS_CONTRAST,
    FIXED_REFERENCES,
    ContrastPass,
    ObjectiveConfig,
    _forward_differences,
    loss_forward,
    sample_reference_time,
    zero_warp_contrast,
)
from .trajectory import TrajectoryField, displacement_basis


# Adam moment decays and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Raised when the loss or gradient turns non-finite during a run."""


@dataclass
class OptimConfig:
    """Optimizer settings; ``objective`` carries the loss configuration.

    ``fixed_reference`` scores the same loss over ``FIXED_REFERENCES``
    with G_0 the zero-warp contrast, lambda = 0 and time weighting off:
    the baseline 1/F with F = (G(0)+2G(0.5)+G(1))/(4 G_0).
    """

    iterations: int = 500
    lr: float = 1e-2
    seed: int = 0
    objective: ObjectiveConfig = dc_field(default_factory=ObjectiveConfig)
    fixed_reference: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not self.lr > 0:
            raise ValueError(f"step size must be > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptimTrace:
    """Per-iteration objective values plus the final field."""

    t_ref: np.ndarray
    g: np.ndarray
    r: np.ndarray
    total: np.ndarray
    wall_time: float
    field: TrajectoryField

    def __len__(self) -> int:
        return len(self.total)


def save_trace_csv(trace: OptimTrace, path) -> None:
    """One row per iteration: ``t_ref`` the weighted mean reference time
    (0.5 for the fixed-reference baseline), ``G`` the weighted contrast C,
    ``R`` the smoothness term (0 when lambda = 0) and ``total`` the loss."""
    with open(path, "w") as f:
        f.write("iter,t_ref,G,R,total\n")
        for i in range(len(trace)):
            f.write(
                f"{i},{trace.t_ref[i]:.17g},{trace.g[i]:.17g},"
                f"{trace.r[i]:.17g},{trace.total[i]:.17g}\n"
            )


def _contrast_image_backward(img: np.ndarray) -> np.ndarray:
    """dG/dI for G = sum ||forward-diff gradient||_2 of one image."""
    gx, gy = _forward_differences(img)
    mag = np.sqrt(gx * gx + gy * gy)
    inv = np.zeros_like(mag)
    np.divide(1.0, mag, out=inv, where=mag > 0)
    ux = gx * inv
    uy = gy * inv
    dgdi = -(ux + uy)
    dgdi[:, 1:] += ux[:, :-1]
    dgdi[1:, :] += uy[:-1, :]
    return dgdi


def _scatter_cells_to_anchors(gcells, knn_idx, n_anchors):
    """Sum per-cell cotangents onto their K neighbor anchors (mean of K).

    gcells: (B, cells, 2); knn_idx: (B, cells, K) flat anchor indices.
    Returns (B, n_anchors, 2). One bincount per axis over the flat (bin,
    anchor) slot keeps each slot's summation order (cells, then K).
    """
    n_bins, _, k = knn_idx.shape
    slot = (np.arange(n_bins)[:, None] * n_anchors + knn_idx.reshape(n_bins, -1)).ravel()
    w = np.repeat(np.moveaxis(gcells, 2, 0) / k, k, axis=2)  # (2, B, cells*K)
    size = n_bins * n_anchors
    out = np.stack([np.bincount(slot, weights=w[a].ravel(), minlength=size) for a in (0, 1)], axis=1)
    return out.reshape(n_bins, n_anchors, 2)


def _contrast_backward(field: TrajectoryField, cp: ContrastPass) -> np.ndarray:
    """dG/d(coefficients) for one contrast pass."""
    volume = cp.volume
    rows, cols = volume.grid_shape
    n_bins = volume.n_bins
    dgdi = np.concatenate(
        [_contrast_image_backward(cp.iwe.pos).ravel(), _contrast_image_backward(cp.iwe.neg).ravel()]
    )
    # per-tap cotangent from the event's own polarity image
    dG_dx, dG_dy = cp.pullback(dgdi[cp.taps])

    # backward through the volume lookup into per-voxel displacement
    nvox = n_bins * rows * cols
    vidx = cp.warped.vox_idx
    gdisp_x = np.bincount(vidx, weights=dG_dx, minlength=nvox)
    gdisp_y = np.bincount(vidx, weights=dG_dy, minlength=nvox)
    gdisp = np.stack([gdisp_x, gdisp_y], axis=1).reshape(n_bins, rows * cols, 2)

    knn_idx = volume.knn_indices.reshape(n_bins, rows * cols, -1)
    ganchor = _scatter_cells_to_anchors(gdisp, knn_idx, field.n_anchors)
    # disp[b,c] = mean_n sum_j (g_j(t_ref) - g_j(t_b)) alpha[n,j]
    a = displacement_basis(field.basis, [volume.t_ref])[0][None, :] - displacement_basis(
        field.basis, volume.bin_centers
    )  # (B, D)
    grad = np.einsum("bnc,bd->ndc", ganchor, a)
    return grad.reshape(field.coeffs.shape)


def _regularizer_backward(field: TrajectoryField, volume, delta: np.ndarray) -> np.ndarray:
    """dR/d(coefficients) through the consecutive delta field."""
    if delta.size == 0:
        return np.zeros_like(field.coeffs)
    n_pairs, rows, cols, _ = delta.shape
    n_cells = rows * cols
    gfield = np.zeros_like(delta)
    sx = np.sign(delta[:, :, 1:, :] - delta[:, :, :-1, :])
    gfield[:, :, 1:, :] += sx
    gfield[:, :, :-1, :] -= sx
    sy = np.sign(delta[:, 1:, :, :] - delta[:, :-1, :, :])
    gfield[:, 1:, :, :] += sy
    gfield[:, :-1, :, :] -= sy
    gfield /= n_cells
    knn_idx = volume.knn_indices.reshape(volume.n_bins, n_cells, -1)[:n_pairs]
    ganchor = _scatter_cells_to_anchors(gfield.reshape(n_pairs, n_cells, 2), knn_idx, field.n_anchors)
    g_bins = displacement_basis(field.basis, volume.bin_centers)  # (B, D)
    a = g_bins[1:] - g_bins[:-1]  # (B-1, D)
    grad = np.einsum("bnc,bd->ndc", ganchor, a)
    return grad.reshape(field.coeffs.shape)


def loss_gradient(sl: EventSlice, field: TrajectoryField, refs, cfg: ObjectiveConfig, g0: float = 1.0):
    """Loss of :func:`~evtraj.objective.loss_forward` and its analytic
    gradient w.r.t. every coefficient (shaped like ``field.coeffs``).

    The contrast backward passes are summed with the weights of ``refs``.
    When C falls under the eps guard the contrast path contributes zero
    (gradient of the guarded expression).
    """
    breakdown, passes, delta = loss_forward(sl, field, refs, cfg, g0)
    c = breakdown.g
    dtotal_dc = -1.0 / (c * c) if c > EPS_CONTRAST else 0.0
    grad_c = sum(w * _contrast_backward(field, cp) for (_, w), cp in zip(refs, passes))
    grad_c /= sum(w for _, w in refs) * g0
    grad = dtotal_dc * grad_c
    if delta is not None:
        grad += breakdown.lam * _regularizer_backward(field, passes[0].volume, delta)
    return breakdown, grad


def minimize(sl: EventSlice, init_field: TrajectoryField, ocfg: OptimConfig) -> OptimTrace:
    """Adam descent on the trajectory coefficients.

    Per iteration: draw a reference time (or take ``FIXED_REFERENCES``),
    evaluate the loss gradient there, update the moments and coefficients.
    The run is deterministic given the seed. Raises :class:`DivergenceError`
    naming the iteration if the loss or gradient turns non-finite.
    """
    t0 = time.perf_counter()
    field = init_field.copy()
    rng = np.random.default_rng(ocfg.seed)
    m = np.zeros_like(field.coeffs)
    v = np.zeros_like(field.coeffs)
    hist_t, hist_g, hist_r, hist_total = [], [], [], []
    refs, cfg, g0 = None, ocfg.objective, 1.0
    if ocfg.fixed_reference:
        refs, g0 = FIXED_REFERENCES, zero_warp_contrast(sl, field.stride, cfg)
        cfg = replace(cfg, lam=0.0, time_weighting=False)
    for it in range(ocfg.iterations):
        if not np.all(np.isfinite(field.coeffs)):
            raise DivergenceError(f"non-finite coefficients at iteration {it}")
        breakdown, grad = loss_gradient(sl, field, refs or ((sample_reference_time(rng), 1.0),), cfg, g0)
        if not (np.isfinite(breakdown.total) and np.all(np.isfinite(grad))):
            raise DivergenceError(f"non-finite loss or gradient at iteration {it}")
        hist_t.append(breakdown.t_ref)
        hist_g.append(breakdown.g)
        hist_r.append(breakdown.r)
        hist_total.append(breakdown.total)

        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** (it + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (it + 1))
        field.coeffs -= ocfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return OptimTrace(
        t_ref=np.array(hist_t),
        g=np.array(hist_g),
        r=np.array(hist_r),
        total=np.array(hist_total),
        wall_time=time.perf_counter() - t0,
        field=field,
    )
