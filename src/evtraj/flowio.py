"""Flow-map interchange format "FLO1".

Little-endian layout: magic b"FLO1", width u32, height u32, normalized
time f64, then row-major float32 (dx, dy) pairs. Invalid pixels are
encoded as NaN pairs.
"""

from __future__ import annotations

import numpy as np

from evtraj import binfile

FLO1_MAGIC = b"FLO1"
_HEADER = np.dtype([("magic", "S4"), ("width", "<u4"), ("height", "<u4"), ("t", "<f8")])


def save_flow(path, flow: np.ndarray, t: float, valid: np.ndarray | None = None) -> None:
    """Write one (H, W, 2) displacement map; invalid pixels become NaN.

    A non-finite ``t``, which :func:`load_flow` rejects, or a valid pixel
    that is not finite in float32, which it would read as invalid, raises
    ValueError and writes nothing.
    """
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError("flow must have shape (H, W, 2)")
    if not np.isfinite(t):
        raise ValueError(f"FLO1 time must be finite, got {t}")
    with np.errstate(over="ignore"):
        data = flow.astype("<f4")
    bad = ~np.isfinite(data)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        bad &= valid[..., None]
        data[~valid] = np.nan
    if bad.any():
        y, x, _ = np.argwhere(bad)[0]
        raise ValueError(f"{path}: valid FLO1 pixel (x={x}, y={y}) {flow[y, x].tolist()} is not finite in float32")
    head = binfile.header(path, _HEADER, magic=FLO1_MAGIC, width=flow.shape[1], height=flow.shape[0], t=t)
    binfile.write(path, head, data)


def load_flow(path):
    """Read a FLO1 map; returns (flow (H, W, 2) float64, t, valid (H, W)).

    Malformed input, a non-finite time included, raises ValueError naming
    the path and byte offset.
    """
    f = binfile.Reader(path, FLO1_MAGIC, _HEADER)
    t = float(f.header["t"])
    f.check(not np.isfinite(t), "t", f"time {t}", " is not finite")
    width, height = int(f.header["width"]), int(f.header["height"])
    data = f.body("<f4", width * height * 2)
    with np.errstate(invalid="ignore"):  # a signalling NaN, cast, flags "invalid"
        flow = data.astype(np.float64).reshape(height, width, 2)
    return flow, t, np.isfinite(flow).all(axis=2)
