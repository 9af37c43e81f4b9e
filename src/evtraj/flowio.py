"""Flow-map interchange format "FLO1".

Little-endian layout: magic b"FLO1", width u32, height u32, normalized
time f64, then row-major float32 (dx, dy) pairs. Invalid pixels are
encoded as NaN pairs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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
    header = np.zeros(1, dtype=_HEADER)
    header["magic"] = FLO1_MAGIC
    header["width"] = flow.shape[1]
    header["height"] = flow.shape[0]
    header["t"] = t
    with open(path, "wb") as f:
        f.write(header.tobytes())
        f.write(data.tobytes())


def load_flow(path):
    """Read a FLO1 map; returns (flow (H, W, 2) float64, t, valid (H, W)).

    Malformed input, a non-finite time included, raises ValueError naming
    the path and byte offset.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.itemsize:
        raise ValueError(f"{path}: truncated FLO1 header, file ends at byte {len(raw)}")
    if raw[:4] != FLO1_MAGIC:
        raise ValueError(f"{path}: not a FLO1 file, bad magic at byte 0")
    h = np.frombuffer(raw, dtype=_HEADER, count=1)[0]
    if not np.isfinite(h["t"]):
        raise ValueError(f"{path}: non-finite FLO1 time {h['t']} at byte 12")
    width, height = int(h["width"]), int(h["height"])
    n = width * height * 2
    expected = _HEADER.itemsize + 4 * n
    if len(raw) != expected:
        raise ValueError(
            f"{path}: FLO1 body of {n} float32 values should end at byte {expected}, "
            f"file ends at byte {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=n, offset=_HEADER.itemsize)
    with np.errstate(invalid="ignore"):  # a signalling NaN, cast, flags "invalid"
        flow = data.astype(np.float64).reshape(height, width, 2)
    valid = np.isfinite(flow).all(axis=2)
    return flow, float(h["t"]), valid
