"""Gradient-based minimization of the contrast loss over trajectory
coefficients, with analytic gradients.

Every loss evaluation runs the forward pass of ``objective``
(:func:`~evtraj.objective.loss_forward` or
:func:`~evtraj.objective.fixed_reference_forward`); the gradients here add
only the backward pass over what it returns. The analytic gradient treats
the KNN neighbor sets, per-event voxel assignments, and the off-image mask
as constants within one evaluation (they are recomputed every iteration).
Under that piecewise-constant treatment the loss is differentiable away
from the integer breakpoints of the voting kernel, and the chain rule runs

    coefficients -> per-voxel mean displacement -> event lookup
                 -> voting stencil -> G        (contrast path)
    coefficients -> consecutive-bin delta field -> R   (smoothness path)

Updates use Adam-style moment estimates directly on the coefficient
tensor. One reference time is drawn uniformly per iteration, so the
iterate must sharpen the accumulation at every time, not just one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .events import EventSlice
from .objective import (
    EPS_CONTRAST,
    FIXED_REFERENCES,
    ContrastPass,
    LossBreakdown,
    ObjectiveConfig,
    _forward_differences,
    fixed_reference_forward,
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

    ``fixed_reference`` switches to the three-reference baseline objective
    1/F with F = (G(0)+2G(0.5)+G(1))/(4 G_0).
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


def loss_gradient(sl: EventSlice, field: TrajectoryField, t_ref: float, cfg: ObjectiveConfig):
    """Total loss and its analytic gradient w.r.t. every coefficient.

    The loss is that of :func:`~evtraj.objective.loss_forward`,
    1/G + (lambda/|Omega|)*R with G the L1 contrast, i.e. lambda weighs R
    against the per-pixel contrast G/|Omega|.
    Returns (LossBreakdown, gradient) with the gradient shaped like
    ``field.coeffs``. When the contrast value falls under the eps guard
    the contrast path contributes zero (gradient of the guarded
    expression) and the breakdown is flagged degenerate.
    """
    breakdown, cp, delta = loss_forward(sl, field, t_ref, cfg)
    g_eff = max(breakdown.g, EPS_CONTRAST)
    dtotal_dg = -1.0 / (g_eff * g_eff) if breakdown.g > EPS_CONTRAST else 0.0
    grad_g = _contrast_backward(field, cp)
    grad_r = _regularizer_backward(field, cp.volume, delta)
    return breakdown, dtotal_dg * grad_g + breakdown.lam * grad_r


def _fixed_reference_value_and_grad(sl: EventSlice, field: TrajectoryField, cfg: ObjectiveConfig, g0=None):
    """(F, 1/F, d(1/F)/d(coefficients)) for the three-reference baseline.

    ``g0`` is the run's zero-warp contrast; computed here when not given.
    """
    f_val, g0, passes = fixed_reference_forward(sl, field, cfg, g0)
    f_grad = np.zeros_like(field.coeffs)
    for (_, weight), cp in zip(FIXED_REFERENCES, passes):
        f_grad += weight * _contrast_backward(field, cp)
    f_grad /= 4.0 * g0
    f_eff = max(f_val, EPS_CONTRAST)
    d = -1.0 / (f_eff * f_eff) if f_val > EPS_CONTRAST else 0.0
    return f_val, 1.0 / f_eff, d * f_grad


def minimize(sl: EventSlice, init_field: TrajectoryField, ocfg: OptimConfig) -> OptimTrace:
    """Adam descent on the trajectory coefficients.

    Per iteration: draw a reference time, evaluate the loss gradient
    there, update the moments and coefficients. In fixed-reference mode the
    field-independent G_0 is computed once per run. The run is
    deterministic given the seed. Raises :class:`DivergenceError` naming
    the iteration if the loss or gradient turns non-finite.
    """
    t0 = time.perf_counter()
    field = init_field.copy()
    rng = np.random.default_rng(ocfg.seed)
    m = np.zeros_like(field.coeffs)
    v = np.zeros_like(field.coeffs)
    hist_t, hist_g, hist_r, hist_total = [], [], [], []
    g0 = zero_warp_contrast(sl, field.stride, ocfg.objective) if ocfg.fixed_reference else None
    for it in range(ocfg.iterations):
        if not np.all(np.isfinite(field.coeffs)):
            raise DivergenceError(f"non-finite coefficients at iteration {it}")
        if ocfg.fixed_reference:
            f_val, loss_val, grad = _fixed_reference_value_and_grad(sl, field, ocfg.objective, g0)
            breakdown = LossBreakdown(
                g=f_val, r=0.0, total=loss_val, lam=ocfg.objective.lam,
                n_masked=0, degenerate=f_val < EPS_CONTRAST, t_ref=0.5,
            )
        else:
            breakdown, grad = loss_gradient(sl, field, sample_reference_time(rng), ocfg.objective)
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
