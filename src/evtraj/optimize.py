"""Gradient-based minimization of the contrast loss over trajectory
coefficients, with analytic gradients.

Both objectives are the one loss of :func:`loss_gradient` over a weighted
reference set: a reference time drawn uniformly per iteration, or the
fixed three-reference baseline. Each term returns its own derivative
(``objective`` for the contrast pass and R, ``assoc`` for the volume, the
event lookup and the delta field), and :func:`loss_gradient` composes them
in one forward pass. It treats the KNN neighbor sets, each event's (bin,
cell) entry, and the off-image mask as constants within one evaluation
(the sets and the mask are recomputed every iteration, the entries once
per run). Under that piecewise-constant treatment the loss is
differentiable away from the integer breakpoints of the voting kernel,
and the chain rule runs

    coefficients -> per-voxel mean displacement -> per-site lookup
                 -> warp, voting stencil -> G(t) -> C    (contrast path)
    coefficients -> consecutive-bin delta field -> R   (smoothness path)

and back through ``contrast_pass``, the lookup's pullback and ``volume.pullback``.

Updates use Adam-style moment estimates directly on the coefficient
tensor. :func:`minimize` keeps each iteration's :class:`LossBreakdown` as
:func:`loss_gradient` returned it, and ``trace.csv`` is written from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .assoc import (
    EventLookup,
    build_consecutive_delta_field,
    build_displacement_volume,
    event_lookup,
    regather_volume,
)
from .events import EventSlice
from .objective import (
    EPS_CONTRAST,
    FIXED_REFERENCES,
    ObjectiveConfig,
    check_sigma,
    contrast_pass,
    regularizer_r,
    zero_warp_contrast,
)
from .trajectory import TrajectoryField


# Adam moment decays and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Raised when the loss or gradient turns non-finite during a run, or
    when a step has warped every event off the image."""


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
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"step size must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LossBreakdown:
    """Parts of one loss evaluation: ``total == 1 / max(g, eps) +
    (lambda / |Omega|) * r``, with lambda the config's ``lam`` and |Omega|
    the pixel count.

    ``g`` is the weighted contrast C (G for one reference time, F for the
    baseline), ``t_ref`` the weighted mean reference time and ``n_masked``
    summed over the passes.
    """

    g: float
    r: float
    total: float
    n_masked: int
    degenerate: bool
    t_ref: float


@dataclass
class OptimTrace:
    """The :class:`LossBreakdown` of every iteration, in order, plus the
    final field. ``total`` is their totals as an array."""

    steps: list[LossBreakdown]
    wall_time: float
    field: TrajectoryField

    @property
    def total(self) -> np.ndarray:
        return np.array([b.total for b in self.steps])

    def __len__(self) -> int:
        return len(self.steps)


def save_trace_csv(trace: OptimTrace, path) -> None:
    """One row per iteration: ``t_ref`` the weighted mean reference time
    (0.5 for the fixed-reference baseline), ``G`` the weighted contrast C,
    ``R`` the smoothness term (0 when lambda = 0) and ``total`` the loss."""
    with open(path, "w") as f:
        f.write("iter,t_ref,G,R,total\n")
        for i, b in enumerate(trace.steps):
            f.write(f"{i},{b.t_ref:.17g},{b.g:.17g},{b.r:.17g},{b.total:.17g}\n")


def loss_gradient(sl: EventSlice, field: TrajectoryField, refs, cfg: ObjectiveConfig, lookup: EventLookup,
                  g0: float = 1.0):
    """Evaluate 1/C + (lambda/|Omega|)*R over the (t_ref, weight) pairs
    ``refs``, C = sum w G(t) / (g0 * sum w), and its analytic gradient
    w.r.t. every coefficient (shaped like ``field.coeffs``).

    Returns (LossBreakdown, grad). The neighbor sets depend only on the
    field, so one volume build at ``refs[0]`` serves every reference time;
    the others are gathered from it, and every volume is read through one
    ``lookup``, the slice's ``event_lookup`` at ``cfg.n_bins`` and the
    field's stride, which :func:`minimize` builds once per run. Each pass
    reads one displacement per site, a (time bin, pixel, polarity), votes
    it once with its events' summed weight and returns one derivative per
    site, which the lookup's pullback sums into the table. R is skipped (reads 0) when lambda = 0. Flags
    ``degenerate`` (and guards 1/C with eps) when C falls under eps, as
    when every event is warped off-image or the IWEs are flat; the contrast
    path then contributes zero (the gradient of the guarded expression).
    """
    volume = build_displacement_volume(field, refs[0][0], cfg.k, cfg.n_bins)
    c, grad_c, n_masked = 0.0, 0.0, 0
    for t_ref, w in refs:
        if t_ref != volume.t_ref:
            volume = regather_volume(field, volume, t_ref)
        # no (S, 2) array outlives its use: the displacements go to the pass
        # unnamed, and it drops them once the sites are warped
        g, gdelta, masked = contrast_pass(
            sl, lookup.read(volume.disp), cfg.sigma, t_ref if cfg.time_weighting else None, lookup
        )
        gdisp = lookup.pullback(gdelta)
        del gdelta  # (S, 2), freed before the volume pullback runs
        c += w * g
        grad_c += w * volume.pullback(gdisp)
        n_masked += masked
    w_sum = sum(w for _, w in refs)
    c /= w_sum * g0
    grad_c /= w_sum * g0
    grad = (-1.0 / (c * c) if c > EPS_CONTRAST else 0.0) * grad_c
    lam = cfg.lam / (sl.width * sl.height)
    r = 0.0
    if lam > 0.0:
        # every regathered volume shares the first build's neighbor sets
        delta, pull_delta = build_consecutive_delta_field(field, volume)
        r, gdelta = regularizer_r(delta)
        grad += lam * pull_delta(gdelta)
    breakdown = LossBreakdown(
        g=c, r=r, total=1.0 / max(c, EPS_CONTRAST) + lam * r, n_masked=n_masked,
        degenerate=c < EPS_CONTRAST, t_ref=sum(w * t for t, w in refs) / w_sum,
    )
    return breakdown, grad


def minimize(sl: EventSlice, init_field: TrajectoryField, ocfg: OptimConfig) -> OptimTrace:
    """Adam descent on the trajectory coefficients.

    Per iteration: draw a reference time (or take ``FIXED_REFERENCES``),
    evaluate the loss gradient there, update the moments and coefficients.
    The run is deterministic given the seed. Raises :class:`DivergenceError`
    naming the iteration if the loss or gradient turns non-finite, or if
    every event of a nonempty slice is warped off the image in every pass;
    ValueError, before any pass, if 3 sigma exceeds the sensor's larger side.
    """
    t0 = time.perf_counter()
    field = init_field.copy()
    rng = np.random.default_rng(ocfg.seed)
    m = np.zeros_like(field.coeffs)
    v = np.zeros_like(field.coeffs)
    steps = []
    refs, cfg, g0 = None, ocfg.objective, 1.0
    check_sigma(cfg.sigma, sl.width, sl.height)
    lookup = event_lookup(sl, cfg.n_bins, field.stride)
    if ocfg.fixed_reference:
        refs, g0 = FIXED_REFERENCES, zero_warp_contrast(sl, cfg.sigma, lookup)
        cfg = replace(cfg, lam=0.0, time_weighting=False)
    for it in range(ocfg.iterations):
        if not np.all(np.isfinite(field.coeffs)):
            raise DivergenceError(f"non-finite coefficients at iteration {it}")
        it_refs = refs or ((float(rng.random()), 1.0),)
        breakdown, grad = loss_gradient(sl, field, it_refs, cfg, lookup, g0)
        if not (np.isfinite(breakdown.total) and np.all(np.isfinite(grad))):
            raise DivergenceError(f"non-finite loss or gradient at iteration {it}")
        if breakdown.n_masked == len(it_refs) * len(sl) > 0:
            raise DivergenceError(f"every event is warped off the image at iteration {it}")
        steps.append(breakdown)

        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1 ** (it + 1))
        v_hat = v / (1.0 - ADAM_BETA2 ** (it + 1))
        field.coeffs -= ocfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return OptimTrace(steps, time.perf_counter() - t0, field)
