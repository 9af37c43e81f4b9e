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
    """Write one (H, W, 2) displacement map; invalid pixels become NaN."""
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError("flow must have shape (H, W, 2)")
    data = flow.astype("<f4")
    if valid is not None:
        data = data.copy()
        data[~np.asarray(valid, dtype=bool)] = np.nan
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

    Malformed input raises ValueError naming the path and byte offset.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.itemsize:
        raise ValueError(f"{path}: truncated FLO1 header, file ends at byte {len(raw)}")
    if raw[:4] != FLO1_MAGIC:
        raise ValueError(f"{path}: not a FLO1 file, bad magic at byte 0")
    h = np.frombuffer(raw, dtype=_HEADER, count=1)[0]
    width, height = int(h["width"]), int(h["height"])
    n = width * height * 2
    expected = _HEADER.itemsize + 4 * n
    if len(raw) != expected:
        raise ValueError(
            f"{path}: FLO1 body of {n} float32 values should end at byte {expected}, "
            f"file ends at byte {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=n, offset=_HEADER.itemsize)
    flow = data.astype(np.float64).reshape(height, width, 2)
    valid = np.isfinite(flow).all(axis=2)
    return flow, float(h["t"]), valid
