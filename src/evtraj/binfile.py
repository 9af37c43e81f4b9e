"""The binary container shared by the EVT1, TRJ1 and FLO1 formats.

A file is a packed little-endian header that opens with a 4-byte magic,
then a body of exactly ``count`` fixed-size records that ends the file.
Each format module supplies its header and record layouts and its own
field checks. Every fault raises ValueError worded ``<path>: <FMT> ...``,
ending ``at byte N`` when it lies in a file being read.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class Reader:
    """The bytes of one container file, its checked magic and its header."""

    def __init__(self, path, magic: bytes, header: np.dtype):
        self.path, self.fmt = path, magic.decode()
        self.raw = Path(path).read_bytes()
        if len(self.raw) < header.itemsize:
            raise self.fault(f"header needs {header.itemsize} bytes, file ends", len(self.raw))
        if self.raw[:4] != magic:
            raise self.fault(f"magic {magic!r} expected, found {self.raw[:4]!r}", 0)
        self.header = np.frombuffer(self.raw, dtype=header, count=1)[0]

    def fault(self, what: str, at: int, why: str = "") -> ValueError:
        return ValueError(f"{self.path}: {self.fmt} {what} at byte {at}{why}")

    def check(self, bad: bool, field: str, what: str, why: str) -> None:
        """Raise at header field ``field`` if ``bad``."""
        if bad:
            raise self.fault(what, self.header.dtype.fields[field][1], why)

    def body(self, record, count: int) -> np.ndarray:
        """The ``count`` records of dtype ``record``, which must end the file."""
        self.record = np.dtype(record)
        start = self.header.dtype.itemsize
        end = start + count * self.record.itemsize
        if len(self.raw) != end:
            raise self.fault(
                f"body of {count} records of {self.record.itemsize} bytes should end at byte {end}, "
                "file ends", len(self.raw))
        return np.frombuffer(self.raw, dtype=self.record, count=count, offset=start)

    def first_bad(self, mask: np.ndarray, what: str) -> None:
        """Raise at the first body record that ``mask`` flags."""
        bad = np.flatnonzero(mask)
        if bad.size:
            raise self.fault(what, self.header.dtype.itemsize + int(bad[0]) * self.record.itemsize)


def pack(dtype: np.dtype, n: int = 1, /, **fields) -> np.ndarray:
    """``n`` zeroed records of ``dtype`` with ``fields`` filled in."""
    out = np.zeros(n, dtype=dtype)
    for name, value in fields.items():
        out[name] = value
    return out


def header(path, dtype: np.dtype, **fields) -> np.ndarray:
    """The header of ``dtype`` holding ``fields``, the magic among them, to
    be written to ``path``. An integer that its field cannot hold raises
    ValueError naming the path, the format and the field."""
    for name, value in fields.items():
        if dtype[name].kind in "iu":
            info = np.iinfo(dtype[name])
            if not info.min <= value <= info.max:
                raise ValueError(f"{path}: {fields['magic'].decode()} header {name} {value} does not fit "
                                 f"its {info.dtype} field, which holds {info.min} to {info.max}")
    return pack(dtype, **fields)


def write(path, head: np.ndarray, body: np.ndarray) -> None:
    """Write a :func:`header`, then ``body``."""
    Path(path).write_bytes(b"".join((head, body)))
