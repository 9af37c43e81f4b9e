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
    """O(cells * anchors) KNN scan; ties broken by lower point index."""
    idx_out = np.empty((len(query), k), dtype=np.int64)
    dist_out = np.empty((len(query), k))
    for i, q in enumerate(query):
        d2 = [
            ((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2, j) for j, p in enumerate(points)
        ]
        d2.sort()  # tuple sort: distance first, then index
        idx_out[i] = [j for _, j in d2[:k]]
        dist_out[i] = [np.sqrt(d) for d, _ in d2[:k]]
    return idx_out, dist_out


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
    n_bins = volume.n_bins
    rows, cols = volume.grid_shape
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
    n_bins = volume.n_bins
    rows, cols = volume.grid_shape
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


def warp_scalar(sl, volume):
    """Per-event displacement lookup: nearest bin in time, containing cell."""
    n_bins = volume.n_bins
    out = np.zeros((len(sl), 2))
    tn = sl.normalized_times()
    for i in range(len(sl)):
        b = min(int(np.floor(tn[i] * n_bins)), n_bins - 1)
        cy = sl.y[i] // volume.stride
        cx = sl.x[i] // volume.stride
        d = volume.disp[b, cy, cx]
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


def fd_gradient(fun, coeffs, coords, h):
    """Central finite differences of a scalar function at given coordinates."""
    out = {}
    for coord in coords:
        pert = coeffs.copy()
        pert[coord] = coeffs[coord] + h
        fp = fun(pert)
        pert[coord] = coeffs[coord] - h
        fm = fun(pert)
        out[coord] = (fp - fm) / (2.0 * h)
    return out


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
