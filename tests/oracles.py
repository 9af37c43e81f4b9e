"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (scalar
loops, recursive definitions, explicit matrix algebra) and shares no code
with the library paths it checks.
"""

import numpy as np


def de_casteljau(control_points, t):
    """Bezier curve point by repeated linear interpolation."""
    pts = [np.asarray(p, dtype=np.float64) for p in control_points]
    while len(pts) > 1:
        pts = [(1.0 - t) * a + t * b for a, b in zip(pts[:-1], pts[1:])]
    return pts[0]


def bernstein_direct(degree, j, t):
    """One Bernstein polynomial via the factorial definition."""
    from math import comb

    return comb(degree, j) * (1.0 - t) ** (degree - j) * t**j


def knn_scalar(query, points, k):
    """O(cells * anchors) KNN scan: the (cells, k) indices of the nearest
    points, ties broken by lower point index.

    Squares are products, which IEEE arithmetic rounds correctly; ``** 2``
    calls the C library's pow, which can land one ulp off on float inputs.
    """
    idx_out = np.empty((len(query), k), dtype=np.int64)
    for i, q in enumerate(query):
        d2 = []
        for j, p in enumerate(points):
            dx, dy = float(q[0]) - float(p[0]), float(q[1]) - float(p[1])
            d2.append((dx * dx + dy * dy, j))
        d2.sort()  # tuple sort: distance first, then index
        idx_out[i] = [j for _, j in d2[:k]]
    return idx_out


def traj_position_scalar(field, anchor, t):
    """One trajectory position from the stored coefficients, by summation."""
    from math import comb

    base = field.anchor_positions()[anchor]
    coeffs = field.flat_coeffs()[anchor]
    pos = base.copy()
    for j in range(field.basis.degree):
        if field.basis.kind == "polynomial":
            g = t ** (j + 1)
        else:
            d = field.basis.degree
            g = comb(d, j + 1) * (1.0 - t) ** (d - j - 1) * t ** (j + 1)
        pos = pos + g * coeffs[j]
    return pos


def displacement_volume_scalar(field, volume):
    """Recompute every voxel as the mean over its stored neighbor set."""
    n_bins, rows, cols, _ = volume.disp.shape
    out = np.zeros_like(volume.disp)
    for b in range(n_bins):
        tb = volume.bin_centers[b]
        for r in range(rows):
            for c in range(cols):
                acc = np.zeros(2)
                for n in volume.knn_indices[b, r, c]:
                    acc += traj_position_scalar(field, n, volume.t_ref) - traj_position_scalar(
                        field, n, tb
                    )
                out[b, r, c] = acc / len(volume.knn_indices[b, r, c])
    return out


def delta_field_scalar(field, volume):
    """Consecutive-bin displacement means using bin b's neighbor sets."""
    n_bins, rows, cols, _ = volume.disp.shape
    out = np.zeros((n_bins - 1, rows, cols, 2))
    for b in range(n_bins - 1):
        ta, tb = volume.bin_centers[b], volume.bin_centers[b + 1]
        for r in range(rows):
            for c in range(cols):
                acc = np.zeros(2)
                for n in volume.knn_indices[b, r, c]:
                    acc += traj_position_scalar(field, n, tb) - traj_position_scalar(field, n, ta)
                out[b, r, c] = acc / len(volume.knn_indices[b, r, c])
    return out


def flow_scalar(field, times, k):
    """Per pixel, the mean of q(t) - anchor over its k nearest anchors at t=0."""
    anchors = field.anchor_positions()
    out = np.zeros((len(times), field.height, field.width, 2))
    for y in range(field.height):
        for x in range(field.width):
            idx = knn_scalar([(x, y)], anchors, k)
            for i, t in enumerate(times):
                acc = np.zeros(2)
                for n in idx[0]:
                    acc += traj_position_scalar(field, n, t) - anchors[n]
                out[i, y, x] = acc / k
    return out


def event_voxels_scalar(sl, n_bins, stride):
    """Each event's (bin, cell row, cell column) in a table of ``n_bins``
    time bins over stride cells: the bin its time falls in, the last bin
    taking t = 1, and the cell that contains it."""
    tn = sl.normalized_times()
    return [
        (min(int(np.floor(tn[i] * n_bins)), n_bins - 1), int(sl.y[i]) // stride, int(sl.x[i]) // stride)
        for i in range(len(sl))
    ]


def warp_scalar(sl, disp, stride):
    """Each event moved by its voxel's entry of the table ``disp``
    (n_bins, rows, cols, 2)."""
    out = np.zeros((len(sl), 2))
    for i, voxel in enumerate(event_voxels_scalar(sl, len(disp), stride)):
        d = disp[voxel]
        out[i, 0] = sl.x[i] + d[0]
        out[i, 1] = sl.y[i] + d[1]
    return out


def iwe_scalar(positions, weights, mask, width, height):
    """Bilinear accumulation, one event at a time."""
    img = np.zeros((height, width))
    for (x, y), w, keep in zip(positions, weights, mask):
        if not keep:
            continue
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        fx, fy = x - x0, y - y0
        for yy, wy in ((y0, 1 - fy), (y0 + 1, fy)):
            for xx, wx in ((x0, 1 - fx), (x0 + 1, fx)):
                if 0 <= xx < width and 0 <= yy < height:
                    img[yy, xx] += w * wy * wx
    return img


def iwe_gaussian_scalar(positions, weights, mask, width, height, sigma):
    """Truncated-Gaussian accumulation, one event at a time: the window
    floor(x) - r ... floor(x) + r + 1 per axis (r = ceil(3 sigma)),
    normalized over the taps that fall inside the image."""
    r = int(np.ceil(3.0 * sigma))
    img = np.zeros((height, width))
    for (x, y), w, keep in zip(positions, weights, mask):
        if not keep:
            continue
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        taps = [
            (yy, xx, np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / (2.0 * sigma**2)))
            for yy in range(y0 - r, y0 + r + 2)
            for xx in range(x0 - r, x0 + r + 2)
            if 0 <= xx < width and 0 <= yy < height
        ]
        total = sum(v for _, _, v in taps)
        for yy, xx, v in taps:
            img[yy, xx] += w * v / total
    return img


def _in_order(terms):
    """Sum of ``terms``, added first to last."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _padded_taps(axes, plane, width, height):
    """Every event's (N, l, l) flat cells on the stacked canvas padded by
    r = (l - 2) / 2 cells before and r + 1 after each axis, and its shape."""
    (cx, kx, _), (cy, _, _), _ = axes
    l = kx.shape[0]
    r = (l - 2) // 2
    shape = (2, height + 2 * r + 1, width + 2 * r + 1)
    rows = cy[:, None, None] + np.arange(l)[None, :, None]
    cols = cx[:, None, None] + np.arange(l)[None, None, :]
    return (plane[:, None, None] * shape[1] + rows) * shape[2] + cols, shape, r


def iwe_full_stencil(axes, plane, width, height):
    """Stacked (2, H, W) IWE from the voting stencil's per-axis factors
    ``axes`` = ((cx, kx, dkx), (cy, ky, dky), mw), k (l, N): every event's
    (N, l, l) taps and deposits formed at once, reduced in (event, y tap,
    x tap) order by one np.bincount over the padded canvas, whose interior
    is the IWE. ``plane`` is each event's polarity plane, 0 or 1."""
    (_, kx, _), (_, ky, _), mw = axes
    taps, shape, r = _padded_taps(axes, plane, width, height)
    deposits = ky.T[:, :, None] * kx.T[:, None, :] * mw[:, None, None]
    canvas = np.bincount(taps.ravel(), weights=deposits.ravel(), minlength=np.prod(shape)).reshape(shape)
    return canvas[:, r:r + height, r:r + width]


def pullback_full_stencil(axes, plane, width, height, dgdi):
    """Per-event (d/dx', d/dy') of the same stencil: dG/dI gathered at every
    event's (N, l, l) taps at once (zero off-image), contracted one axis at
    a time with the sums over taps added in tap order."""
    (_, kx, dkx), (_, ky, dky), mw = axes
    taps, shape, r = _padded_taps(axes, plane, width, height)
    padded = np.zeros(shape)
    padded[:, r:r + height, r:r + width] = dgdi
    cot = padded.ravel()[taps]
    l = kx.shape[0]
    gx = _in_order([_in_order([cot[:, i, j] * dkx[j] for j in range(l)]) * ky[i] for i in range(l)])
    gy = _in_order([_in_order([cot[:, i, j] * dky[i] for i in range(l)]) * kx[j] for j in range(l)])
    return mw * gx, mw * gy


def bilinear_pass_unpadded(positions, mask, weights, polarity, width, height):
    """(iwe, pullback) of bilinear voting in the earlier (N, 2, 2)
    formulation, which sigma = 0 must still match bit for bit: tap cells
    clipped into the image with the off-image weights and slopes zeroed,
    every event's taps and deposits formed at once and summed into the
    unpadded planes in (event, y tap, x tap) order, and the pullback
    contracted by einsum."""

    def axis(coord, size):
        c0 = np.clip(np.floor(coord).astype(np.int64), 0, size - 1)
        cells = np.stack([c0, c0 + 1], axis=1)
        f = coord - c0
        inside = (cells >= 0) & (cells < size)
        k = np.stack([1 - f, f], axis=1) * inside
        return np.clip(cells, 0, size - 1), k, np.array([-1.0, 1.0]) * inside

    cx, kx, dkx = axis(positions[:, 0], width)
    cy, ky, dky = axis(positions[:, 1], height)
    mw = mask * weights
    npix = width * height
    taps = cy[:, :, None] * width + cx[:, None, :] + ((polarity < 0) * npix)[:, None, None]
    deposits = np.einsum("ni,nj->nij", ky, kx) * mw[:, None, None]
    counts = np.zeros(2 * npix)
    np.add.at(counts, taps.ravel(), deposits.ravel())

    def pullback(dgdi):
        cot = dgdi.ravel()[taps]
        return (mw * np.einsum("ni,ni->n", np.einsum("nij,nj->ni", cot, dkx), ky),
                mw * np.einsum("nj,nj->n", np.einsum("nij,ni->nj", cot, dky), kx))

    return counts.reshape(2, height, width), pullback


def contrast_scalar(img):
    """Sum of forward-difference gradient magnitudes, zero on far edges."""
    height, width = img.shape
    total = 0.0
    for i in range(height):
        for j in range(width):
            gx = img[i, j + 1] - img[i, j] if j < width - 1 else 0.0
            gy = img[i + 1, j] - img[i, j] if i < height - 1 else 0.0
            total += np.sqrt(gx * gx + gy * gy)
    return total


def regularizer_scalar(delta_field):
    """Mean L1 norm of forward spatial differences, double loop."""
    if delta_field.size == 0:
        return 0.0
    n_pairs, rows, cols, _ = delta_field.shape
    total = 0.0
    for b in range(n_pairs):
        for r in range(rows):
            for c in range(cols):
                for comp in range(2):
                    if c < cols - 1:
                        total += abs(delta_field[b, r, c + 1, comp] - delta_field[b, r, c, comp])
                    if r < rows - 1:
                        total += abs(delta_field[b, r + 1, c, comp] - delta_field[b, r, c, comp])
    return total / (rows * cols)


def epe_ae_scalar(pred, gt, mask):
    """Per-pixel double loop for endpoint and space-time angular error."""
    errs, angs = [], []
    height, width = mask.shape
    for i in range(height):
        for j in range(width):
            if not mask[i, j]:
                continue
            du = pred[i, j, 0] - gt[i, j, 0]
            dv = pred[i, j, 1] - gt[i, j, 1]
            errs.append(np.sqrt(du * du + dv * dv))
            a = np.array([pred[i, j, 0], pred[i, j, 1], 1.0])
            b = np.array([gt[i, j, 0], gt[i, j, 1], 1.0])
            cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            angs.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.mean(errs)), float(np.mean(angs))
