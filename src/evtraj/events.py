"""Event stream containers, validation, and EVT1 file I/O.

An event camera reports asynchronous per-pixel brightness changes. Each
record is (x, y, t, p): pixel column/row, timestamp in seconds, and
polarity +1/-1. Streams are kept in struct-of-arrays form (one numpy
array per field) because everything downstream is vectorized.

Binary interchange format "EVT1" (little-endian):

    magic  b"EVT1"   4 bytes
    width  u32, height u32
    count  u64
    t_start f64, t_end f64
    count records of {t f64, x u16, y u16, p i8, pad u8}   (14 bytes each)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

EVT1_MAGIC = b"EVT1"
_HEADER_DTYPE = np.dtype(
    [
        ("magic", "S4"),
        ("width", "<u4"),
        ("height", "<u4"),
        ("count", "<u8"),
        ("t_start", "<f8"),
        ("t_end", "<f8"),
    ]
)
_RECORD_DTYPE = np.dtype(
    [("t", "<f8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1"), ("pad", "<u1")]
)


class EventFormatError(ValueError):
    """Malformed event file; message names the path and the offending byte offset."""


@dataclass(frozen=True)
class EventSlice:
    """Time-sorted events in [t_start, t_end] for a W x H sensor.

    Arrays share one length N. Polarity is +1/-1. Construction validates
    the invariants; use :meth:`from_arrays` to repair unsorted input.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray
    t_start: float
    t_end: float
    width: int
    height: int

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise ValueError("event field arrays must share one length")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("sensor geometry must be positive")
        if self.t_end < self.t_start:
            raise ValueError("t_end must be >= t_start")
        if n == 0:
            return
        if not np.all(np.isfinite(self.t)):
            raise ValueError("non-finite timestamp in slice")
        if np.any(np.diff(self.t) < 0):
            raise ValueError("events not sorted by timestamp")
        if self.t[0] < self.t_start or self.t[-1] > self.t_end:
            raise ValueError("event timestamps outside [t_start, t_end]")
        if np.any((self.x < 0) | (self.x >= self.width)):
            raise ValueError("x coordinate outside [0, width)")
        if np.any((self.y < 0) | (self.y >= self.height)):
            raise ValueError("y coordinate outside [0, height)")
        if not np.all(np.abs(self.p) == 1):
            raise ValueError("polarity must be +1 or -1")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def normalized_times(self) -> np.ndarray:
        """Timestamps mapped to [0, 1] over [t_start, t_end].

        A degenerate interval maps every event to 0. All trajectory math
        operates on this normalized axis.
        """
        if self.duration <= 0.0:
            return np.zeros(len(self), dtype=np.float64)
        return (self.t - self.t_start) / self.duration

    @classmethod
    def from_arrays(
        cls,
        x,
        y,
        t,
        p,
        width: int,
        height: int,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> "EventSlice":
        """Build a slice from raw arrays, stable-sorting by timestamp.

        t_start/t_end default to the data extremes (0 for empty input).
        Equal timestamps keep their input order.
        """
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        t = np.asarray(t, dtype=np.float64)
        p = np.asarray(p, dtype=np.int64)
        order = np.argsort(t, kind="stable")
        x, y, t, p = x[order], y[order], t[order], p[order]
        if t_start is None:
            t_start = float(t[0]) if len(t) else 0.0
        if t_end is None:
            t_end = float(t[-1]) if len(t) else 0.0
        return cls(x, y, t, p, float(t_start), float(t_end), int(width), int(height))


def load_events(path) -> EventSlice:
    """Read an EVT1 file and return a validated, time-sorted slice.

    Unsorted records are repaired with a stable sort. Malformed files raise
    :class:`EventFormatError` naming the path and the byte offset.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_DTYPE.itemsize:
        raise EventFormatError(f"{path}: truncated header at byte {len(raw)}")
    header = np.frombuffer(raw, dtype=_HEADER_DTYPE, count=1)[0]
    if bytes(header["magic"]) != EVT1_MAGIC:
        raise EventFormatError(f"{path}: bad magic at byte 0")
    width, height = int(header["width"]), int(header["height"])
    count = int(header["count"])
    body_start = _HEADER_DTYPE.itemsize
    expected = body_start + count * _RECORD_DTYPE.itemsize
    if len(raw) != expected:
        raise EventFormatError(
            f"{path}: {count} records should end at byte {expected}, file ends at byte {len(raw)}"
        )
    rec = np.frombuffer(raw, dtype=_RECORD_DTYPE, count=count, offset=body_start)
    t = rec["t"].astype(np.float64)
    x = rec["x"].astype(np.int64)
    y = rec["y"].astype(np.int64)
    p = rec["p"].astype(np.int64)

    def _offset(i: int) -> int:
        return body_start + i * _RECORD_DTYPE.itemsize

    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise EventFormatError(f"{path}: non-finite timestamp at byte {_offset(bad[0])}")
    bad = np.flatnonzero((x >= width) | (y >= height))
    if bad.size:
        raise EventFormatError(f"{path}: out-of-bounds coordinate at byte {_offset(bad[0])}")
    bad = np.flatnonzero(np.abs(p) != 1)
    if bad.size:
        raise EventFormatError(f"{path}: invalid polarity at byte {_offset(bad[0])}")
    bad = np.flatnonzero((t < header["t_start"]) | (t > header["t_end"]))
    if bad.size:
        raise EventFormatError(f"{path}: timestamp outside header interval at byte {_offset(bad[0])}")
    return EventSlice.from_arrays(
        x, y, t, p, width, height, float(header["t_start"]), float(header["t_end"])
    )


def save_events(sl: EventSlice, path) -> None:
    """Write a slice as EVT1; it round-trips bit-exactly."""
    if sl.width > 65536 or sl.height > 65536:
        raise ValueError(
            f"{path}: EVT1 stores coordinates as u16, so width and height must be "
            f"<= 65536, got {sl.width}x{sl.height}"
        )
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["magic"] = EVT1_MAGIC
    header["width"] = sl.width
    header["height"] = sl.height
    header["count"] = len(sl)
    header["t_start"] = sl.t_start
    header["t_end"] = sl.t_end
    rec = np.zeros(len(sl), dtype=_RECORD_DTYPE)
    rec["t"] = sl.t
    rec["x"] = sl.x
    rec["y"] = sl.y
    rec["p"] = sl.p
    with open(path, "wb") as f:
        f.write(header.tobytes())
        f.write(rec.tobytes())
