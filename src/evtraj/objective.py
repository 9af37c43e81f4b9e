"""Event warping, images of warped events (IWE), and the terms of the
contrast loss, each returned together with its derivative.

One loss serves both objectives, scored over a weighted set ``refs`` of
(t_ref, w) pairs. Per reference time: move every event by its own
displacement to that time, accumulate the warped events into the IWE, one
(2, H, W) array stacked as (positive, negative) polarity planes, and take
its contrast G(t), the L1 norm of the gradient magnitude of each plane
(sharper image = larger G). Then

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

Each term owns its adjoint: :func:`contrast_g` returns G and dG/dI,
:func:`contrast_pass` G and dG/d(per-site displacement), and
:func:`regularizer_r` R and dR/d(delta field). ``optimize.loss_gradient``
composes them with the lookup and association adjoints of ``assoc``.

Accumulation uses one separable stencil: an event deposits its weight
through the outer product of a y and an x kernel, 2-tap linear (sigma = 0,
bilinear voting) or a Gaussian over floor(x') - r ... floor(x') + r + 1,
r = ceil(3 sigma), normalized over its in-image taps. Events warped
off-image contribute nothing. The votes land on a canvas padded by r cells
before and r + 1 after each axis (r = 0 at sigma = 0), so no tap is ever
clipped: every site's taps are its base cell plus one fixed pattern of
l * l offsets (l = 2r + 2), off-image taps carry weight 0 into the margin,
and the IWE is the canvas interior.

Events that share a site, a (time bin, pixel, polarity), read one entry of
a displacement table, so they land on one warped position with one kernel
(``assoc.EventLookup`` finds the sites once per run, and every warp, IWE
and loss pass takes one). The IWE is the sum over events of weight *
kernel, so a site votes once with its events' summed weight: the weights
are summed in event order, then the kernels are formed per site, in
blocks of a fixed tap budget, as (l, sites) arrays per axis, and
np.add.at adds the deposits in (site, y tap, x tap) order, as one
np.bincount over all taps would add them. The pullback forms the kernels'
slopes, contracts the tap cotangents once per site and scales them by the
site's weight; it returns one derivative per site, and
``assoc.EventLookup.pullback`` sums those into the table. No array is
(sites, l * l), and nothing after the warp is per event but the weights.
Sums over a site's taps are explicit adds in tap order. So results are
bit-identical across runs, block sizes and thread settings, and with a
lookup that makes every event its own site (site = first = arange(N)) at
sigma = 0 they equal, bit for bit, the earlier unpadded stencil that
clipped its taps into the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import EventSlice

EPS_CONTRAST = 1e-8

# (t_ref, weight) of the three-reference baseline; the weights sum to 4
FIXED_REFERENCES = ((0.0, 1.0), (0.5, 2.0), (1.0, 1.0))

# taps per voting block: 4,096 events at sigma = 1 (L = 64 taps each)
_BLOCK_TAPS = 1 << 18


@dataclass(frozen=True)
class ObjectiveConfig:
    """Contrast-loss settings. Defaults follow the estimator's standard run
    (k=32 neighbors, 15 time bins, lambda=0.003, bilinear voting, time
    weighting on).

    ``lam`` weighs the smoothness term R against the per-pixel contrast
    G / |Omega|; the total applies it as ``lam / |Omega|`` against G
    (see ``optimize.loss_gradient``). ``lam`` and ``sigma`` must be finite.
    """

    lam: float = 0.003
    sigma: float = 0.0
    time_weighting: bool = True
    k: int = 32
    n_bins: int = 15

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")


@dataclass
class WarpedEvents:
    """Warped sites and what the IWE needs of each event.

    A row of ``positions`` and ``polarity`` is a site, the events that
    share a (time bin, pixel, polarity) and so one displacement; ``site``
    is each event's row. ``weights`` are the per-event IWE contributions
    (time weighting already applied, mean 1 over unmasked) and ``mask``
    keeps an event when its site lands on the image; both stay per event,
    so ``n_masked`` counts events.
    """

    positions: np.ndarray  # (S, 2) warped (x, y)
    weights: np.ndarray  # (N,)
    mask: np.ndarray  # (N,) True = kept
    polarity: np.ndarray  # (S,) +1/-1
    width: int
    height: int
    site: np.ndarray  # (N,) row of each event

    @property
    def n_masked(self) -> int:
        return int(len(self.mask) - self.mask.sum())


def warp_events(sl: EventSlice, delta, sites, t_ref: float | None = None) -> WarpedEvents:
    """Move every site of ``sites``, an ``assoc.EventLookup``, by its
    displacement ``delta``, (S, 2) in (dx, dy) pixels, or 0 for no warp:
    each site is warped once, from its first event's pixel.

    Events landing outside [0, W-1] x [0, H-1] are masked out. Given
    ``t_ref``, each kept event carries weight |t_ref - t_k|, normalized to
    mean 1; otherwise every event weighs 1.
    """
    positions = np.stack([sl.x[sites.first], sl.y[sites.first]], axis=1, dtype=np.float64)
    positions += delta
    mask = (
        (positions[:, 0] >= 0.0)
        & (positions[:, 0] <= sl.width - 1.0)
        & (positions[:, 1] >= 0.0)
        & (positions[:, 1] <= sl.height - 1.0)
    )[sites.site]
    weights = np.ones(len(sl), dtype=np.float64)
    if t_ref is not None:
        dt = np.abs(t_ref - sl.normalized_times())
        mean_dt = dt[mask].mean() if mask.any() else 0.0
        weights = dt / mean_dt if mean_dt > 0.0 else weights
    return WarpedEvents(
        positions=positions,
        weights=weights,
        mask=mask,
        polarity=np.asarray(sl.p)[sites.first],
        width=sl.width,
        height=sl.height,
        site=sites.site,
    )


def _row_sum(rows):
    """Sum of ``rows`` (l, ...) over its first axis, added first to last.
    numpy's reductions pick their order by the array's shape; this one is
    the same for every block size."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def _axis_kernel(coord, size: int, sigma: float):
    """One axis of the voting kernel for a block of events: (c0, k, f).
    c0 (n,) is floor(coord) clipped into [0, size) and f = coord - c0; k is
    (l, n), over the cells c0 - r ... c0 + r + 1. sigma = 0: 2-tap linear
    (r = 0); sigma > 0: a Gaussian with r = ceil(3 sigma), breakpoints on
    the integer lattice as at sigma = 0, zero off-image and normalized over
    its in-image taps. :func:`_axis_slope` forms dk/dcoord from k and f."""
    c0 = np.clip(np.floor(coord), 0, size - 1)
    f = coord - c0
    if sigma == 0.0:
        return c0.astype(np.int64), np.stack([1 - f, f]), f
    r = math.ceil(3.0 * sigma)
    k = np.square(_tap_offsets(f, r))
    k *= -0.5 / (sigma * sigma)
    np.exp(k, out=k)
    # row t is cell c0 - r + t: off-image below row r for small c0, above it for large
    for t in range(r):
        k[t] *= c0 >= r - t
    for t in range(r + 1, 2 * r + 2):
        k[t] *= c0 <= size - 1 + r - t
    norm = _row_sum(k)
    k /= np.where(norm > 0.0, norm, 1.0)
    return c0.astype(np.int64), k, f


def _tap_offsets(f, r: int):
    """(l, n) cell minus coord of every tap of :func:`_axis_kernel`."""
    return np.arange(-r, r + 2.0)[:, None] - f


def _axis_slope(k, f, sigma: float):
    """dk/dcoord (l, n) of the :func:`_axis_kernel` (k, f): -1 and +1 at
    sigma = 0, else d / sigma^2 less its k-weighted mean, times k, for the
    tap offsets d. Only the pullback needs it."""
    if sigma == 0.0:
        return np.broadcast_to(np.array([[-1.0], [1.0]]), k.shape)
    dk = _tap_offsets(f, math.ceil(3.0 * sigma))
    dk /= sigma * sigma
    dk -= _row_sum(k * dk)
    dk *= k
    return dk


def voting_stencil(positions, width: int, height: int, sigma: float):
    """Factors of the separable kernel for one block of sites: ((cx, kx,
    fx), (cy, ky, fy)), the per-axis (c0, k, f) of :func:`_axis_kernel`. A
    site of weight W deposits W * (k_y (x) k_x) over L = l * l taps, y outer
    and x inner, onto the cells (cy - r + i, cx - r + j), so an unmasked
    site's deposits sum to its weight. :func:`_accumulate` calls it once per
    block of sites and pass; its pullback forms the slopes with
    :func:`_axis_slope`.
    """
    return _axis_kernel(positions[:, 0], width, sigma), _axis_kernel(positions[:, 1], height, sigma)


def check_sigma(sigma: float, width: int, height: int) -> None:
    """ValueError when 3 sigma, the voting kernel's reach, exceeds the
    larger side of a ``width`` x ``height`` sensor."""
    if 3.0 * sigma > max(width, height):
        raise ValueError(f"sigma {sigma}: 3 sigma exceeds the {width}x{height} sensor's larger side")


def _accumulate(warped: WarpedEvents, sigma: float):
    """(iwe, pullback). ``iwe`` is (2, H, W): positive sites vote into
    plane 0, negative ones into plane 1. ``pullback(dgdi)`` takes dG/dI of
    the same shape and returns (S, 2), each site's (d/dx', d/dy'): the tap
    cotangent contracted with (k_y (x) dk_x) and (dk_y (x) k_x), one axis
    at a time, times the site's weight.

    A site's weight W_s is the sum of its events' mask * weight, added in
    event order by one np.bincount. The votes land on a (2, H + 2r + 1,
    W + 2r + 1) canvas, padded by r cells before and r + 1 after each axis,
    so no tap is clipped: site s's taps are base[s] + pattern, one fixed
    (l * l) pattern, and the IWE is the canvas interior. The kernels are
    formed a block of ``_BLOCK_TAPS // L`` sites at a time and kept, (l, S)
    per axis, for the pullback, which forms their slopes; each site
    deposits once, through np.add.at in (site, y tap, x tap) order. Nothing
    is (S, L) or (N, L).
    """
    width, height = warped.width, warped.height
    check_sigma(sigma, width, height)
    r = math.ceil(3.0 * sigma)
    l = 2 * r + 2
    pw, ph = width + 2 * r + 1, height + 2 * r + 1
    pattern = (np.arange(l)[:, None] * pw + np.arange(l)).ravel()
    # negative-polarity votes land in the second plane
    plane = (warped.polarity < 0).astype(np.int64) * (ph * pw)
    n_sites = len(warped.positions)
    weight = np.bincount(warped.site, weights=warped.mask * warped.weights, minlength=n_sites)
    step = max(1, _BLOCK_TAPS // (l * l))
    # each block's sites, base cells and (k, f) per axis, kept for the pullback
    stencils = []
    canvas = np.zeros(2 * ph * pw)
    for a in range(0, n_sites, step):
        s = slice(a, a + step)
        (cx, kx, fx), (cy, ky, fy) = voting_stencil(warped.positions[s], width, height, sigma)
        base = plane[s] + cy * pw + cx
        stencils.append((s, base, kx, fx, ky, fy))
        # (site, y tap, x tap) rows, contiguous so that ravel() is a view;
        # einsum sums nothing here, so each entry is (k_y * k_x) * W rounded
        deposits = np.einsum("in,jn,n->nij", ky, kx, weight[s], order="C")
        np.add.at(canvas, (base[:, None] + pattern).ravel(), deposits.ravel())
    interior = (slice(None), slice(r, r + height), slice(r, r + width))

    def pullback(dgdi):
        padded = np.zeros((2, ph, pw))
        padded[interior] = dgdi
        flat = padded.ravel()
        # column-major, so that each axis is one contiguous array of weights
        grad = np.empty((n_sites, 2), order="F")
        for s, base, kx, fx, ky, fy in stencils:
            cot = np.take(flat, pattern[:, None] + base).reshape(l, l, -1)  # (y tap, x tap, site)
            grad[s, 0] = _row_sum(_row_sum((cot * _axis_slope(kx, fx, sigma)).transpose(1, 0, 2)) * ky)
            cot *= _axis_slope(ky, fy, sigma)[:, None, :]
            grad[s, 1] = _row_sum(_row_sum(cot) * kx)
        grad *= weight[:, None]
        return grad

    return np.ascontiguousarray(canvas.reshape(2, ph, pw)[interior]), pullback


def build_iwe(warped: WarpedEvents, sigma: float = 0.0) -> np.ndarray:
    """Accumulate warped events into the (2, H, W) IWE, stacked as
    (positive, negative) polarity planes.

    Each site deposits its unmasked events' summed weight through the
    voting stencil.
    """
    return _accumulate(warped, sigma)[0]


def contrast_g(iwe: np.ndarray):
    """(G, dG/dI) of a (2, H, W) IWE: the L1 norm of each plane's
    gradient magnitude, summed over the planes, and its derivative, also
    (2, H, W).

    The gradient images are forward differences, zero on the far edges;
    pixels of zero gradient magnitude contribute no derivative.
    """
    gx = np.zeros_like(iwe)
    gy = np.zeros_like(iwe)
    gx[:, :, :-1] = iwe[:, :, 1:] - iwe[:, :, :-1]
    gy[:, :-1, :] = iwe[:, 1:, :] - iwe[:, :-1, :]
    mag = np.sqrt(gx * gx + gy * gy)
    # one sum per plane, not one over the stack: G keeps its last bits
    total = float(mag[0].sum()) + float(mag[1].sum())
    inv = np.zeros_like(mag)
    np.divide(1.0, mag, out=inv, where=mag > 0)
    ux = gx * inv
    uy = gy * inv
    dgdi = -(ux + uy)
    dgdi[:, :, 1:] += ux[:, :, :-1]
    dgdi[:, 1:, :] += uy[:, :-1, :]
    return total, dgdi


def contrast_pass(sl: EventSlice, delta, sigma: float, t_ref: float | None, sites):
    """Warp the sites of ``sites`` by ``delta`` as :func:`warp_events`
    does, accumulate the (2, H, W) IWE and score its contrast G.

    Returns (G, dG/d delta, n_masked), the derivative (S, 2) per site, for
    ``EventLookup.pullback`` to sum into the table. It treats the off-image
    mask and the time weights as constants: dG/dI is pulled back through
    the voting stencil to each site's (d/dx', d/dy'), times its summed
    weight.
    """
    warped = warp_events(sl, delta, sites, t_ref)
    del delta  # the IWE passes run without it when the caller keeps no reference
    iwe, pullback = _accumulate(warped, sigma)
    g, dgdi = contrast_g(iwe)
    return g, pullback(dgdi), warped.n_masked


def regularizer_r(delta_field: np.ndarray):
    """(R, dR/d delta_field): the mean L1 spatial roughness of the
    consecutive-bin displacement field and its derivative.

    Sums |forward row/column differences| of each 2-vector entry over all
    bin pairs and divides by the cell count. Zero for spatially constant
    motion and for an empty field.
    """
    grad = np.zeros_like(delta_field)
    dx = delta_field[:, :, 1:, :] - delta_field[:, :, :-1, :]
    dy = delta_field[:, 1:, :, :] - delta_field[:, :-1, :, :]
    n_cells = delta_field.shape[1] * delta_field.shape[2]
    sx, sy = np.sign(dx), np.sign(dy)
    grad[:, :, 1:, :] += sx
    grad[:, :, :-1, :] -= sx
    grad[:, 1:, :, :] += sy
    grad[:, :-1, :, :] -= sy
    grad /= n_cells
    return float((np.abs(dx).sum() + np.abs(dy).sum()) / n_cells), grad


def zero_warp_contrast(sl: EventSlice, sigma: float, sites) -> float:
    """G_0 of the fixed-reference baseline: the eps-guarded contrast of the
    unwarped events, voted once per site of ``sites``. It does not depend
    on the field, so one value serves a whole run."""
    return max(contrast_g(build_iwe(warp_events(sl, 0, sites), sigma))[0], EPS_CONTRAST)


def write_iwe_pgm(iwe: np.ndarray, path, bits: int = 8, which: str = "sum") -> None:
    """Render a (2, H, W) IWE as a max-normalized binary PGM.

    ``which`` selects "sum" (both planes), "pos" (plane 0) or "neg"
    (plane 1). The comment line records the accumulation value mapped to
    white, so pixel values can be inverted back to event counts.
    """
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    img = iwe[0] + iwe[1] if which == "sum" else iwe[{"pos": 0, "neg": 1}[which]]
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
