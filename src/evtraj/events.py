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

import numpy as np

from evtraj import binfile

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

# EVT1 stores coordinates as u16, so a sensor is at most this many pixels wide or high
MAX_SIDE = 65536

_SPAN_RULE = "width, height >= 1 and finite t_start <= t_end"


def _span_faults(width, height, t_start, t_end):
    """(field, whether it breaks ``_SPAN_RULE``) for each field, in the order checked."""
    return (("width", width < 1), ("height", height < 1), ("t_start", not np.isfinite(t_start)),
            ("t_end", not (np.isfinite(t_end) and t_end >= t_start)))


def _record_faults(t, x, y, p, width, height, t_start, t_end):
    """(fault, mask of the events that show it) for each record rule, in the order checked."""
    return (("non-finite timestamp", ~np.isfinite(t)),
            ("out-of-bounds coordinate", (x < 0) | (x >= width) | (y < 0) | (y >= height)),
            ("polarity other than +1 or -1", np.abs(p) != 1),
            ("timestamp outside [t_start, t_end]", (t < t_start) | (t > t_end)))


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
        if not (len(self.x) == len(self.y) == len(self.p) == len(self.t)):
            raise ValueError("event field arrays must share one length")
        for name, bad in _span_faults(self.width, self.height, self.t_start, self.t_end):
            if bad:
                raise ValueError(f"{name} {getattr(self, name)} breaks {_SPAN_RULE}")
        faults = _record_faults(self.t, self.x, self.y, self.p, self.width, self.height, self.t_start, self.t_end)
        for what, bad in faults:
            if bad.any():
                raise ValueError(f"{what} at event {np.argmax(bad)}")
        if np.any(np.diff(self.t) < 0):
            raise ValueError("events not sorted by timestamp")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def normalized_times(self) -> np.ndarray:
        """Timestamps mapped to [0, 1] over [t_start, t_end].

        A degenerate interval maps every event to 0. All trajectory math
        works on this normalized axis.
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
    ValueError naming the path and the byte offset.
    """
    f = binfile.Reader(path, EVT1_MAGIC, _HEADER_DTYPE)
    width, height = int(f.header["width"]), int(f.header["height"])
    t_start, t_end = float(f.header["t_start"]), float(f.header["t_end"])
    for name, bad in _span_faults(width, height, t_start, t_end):
        f.check(bad, name, f"header {name} {f.header[name]}", f" breaks {_SPAN_RULE}")
    rec = f.body(_RECORD_DTYPE, int(f.header["count"]))
    t = rec["t"].astype(np.float64)  # an aligned copy: the masks and the sort read it faster
    try:
        return EventSlice.from_arrays(rec["x"], rec["y"], t, rec["p"], width, height, t_start, t_end)
    except ValueError as exc:
        fault = exc
    # name the broken rule's first record in file order, not sorted order
    for what, bad in _record_faults(t, rec["x"], rec["y"], rec["p"], width, height, t_start, t_end):
        f.first_bad(bad, what)
    raise fault


def save_events(sl: EventSlice, path) -> None:
    """Write a slice as EVT1; it round-trips bit-exactly."""
    if sl.width > MAX_SIDE or sl.height > MAX_SIDE:
        raise ValueError(
            f"{path}: EVT1 stores coordinates as u16, so width and height must be "
            f"<= {MAX_SIDE}, got {sl.width}x{sl.height}"
        )
    rec = binfile.pack(_RECORD_DTYPE, len(sl), t=sl.t, x=sl.x, y=sl.y, p=sl.p)
    head = binfile.header(path, _HEADER_DTYPE, magic=EVT1_MAGIC, width=sl.width, height=sl.height,
                          count=len(sl), t_start=sl.t_start, t_end=sl.t_end)
    binfile.write(path, head, rec)
