"""Parametric continuous-time trajectory bases and the anchor grid.

One trajectory is owned by each anchor (one anchor per stride x stride
pixel cell). A trajectory is stored in displacement form

    q(t) = anchor + sum_j g_j(t) * alpha_j,        t in [0, 1],

where the basis is chosen so the displacement vanishes at t = 0:

* polynomial: g_j(t) = t^j for j = 1..degree
* bezier:     Bernstein polynomials of the given degree with the first
              control offset pinned to zero, i.e. the stored coefficients
              are the control offsets j = 1..degree

Coefficients are (x, y) pixel offsets. A degree-1 polynomial is exactly
constant optical flow: q(t) = anchor + t * v.

Trajectory file format "TRJ1" (little-endian): magic b"TRJ1", basis kind
u8 (0 polynomial, 1 bezier), degree u16, stride u16, grid rows u32, grid
cols u32, image width u32, image height u32, then float32 coefficients in
row-major anchor order, x then y per basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POLYNOMIAL = "polynomial"
BEZIER = "bezier"

TRJ1_MAGIC = b"TRJ1"
_KIND_CODE = {POLYNOMIAL: 0, BEZIER: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}
_TRJ1_HEADER = np.dtype(
    [
        ("magic", "S4"),
        ("kind", "<u1"),
        ("degree", "<u2"),
        ("stride", "<u2"),
        ("rows", "<u4"),
        ("cols", "<u4"),
        ("width", "<u4"),
        ("height", "<u4"),
    ]
)


@dataclass(frozen=True)
class Basis:
    """Temporal basis family: ``kind`` in {polynomial, bezier}, degree >= 1."""

    kind: str
    degree: int

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, BEZIER):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


def _bernstein_all(degree: int, t: np.ndarray) -> np.ndarray:
    """All Bernstein polynomials B_[j,degree](t), shape (T, degree+1)."""
    t = np.asarray(t, dtype=np.float64)
    j = np.arange(degree + 1)
    binom = np.array([math.comb(degree, int(i)) for i in j], dtype=np.float64)
    tt = t[:, None]
    # 0**0 = 1 handled by np.power on float64
    return binom * np.power(tt, j) * np.power(1.0 - tt, degree - j)


def displacement_basis(basis: Basis, times) -> np.ndarray:
    """Matrix of basis values multiplying the stored coefficients.

    Shape (T, degree). For the bezier family the pinned j = 0 Bernstein
    term is dropped (its control offset is structurally zero), so that
    displacement(0) = 0 holds for every coefficient setting.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    if not np.all((times >= 0.0) & (times <= 1.0)):
        raise ValueError("times must lie in [0, 1]")
    if basis.kind == POLYNOMIAL:
        return np.power(times[:, None], np.arange(1, basis.degree + 1))
    return _bernstein_all(basis.degree, times)[:, 1:]


def _grid_shape(width: int, height: int, stride: int) -> tuple[int, int]:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return -(-height // stride), -(-width // stride)


def anchor_grid(width: int, height: int, stride: int):
    """Anchor layout for an image: (rows, cols, positions).

    Cell (i, j) covers pixels [j*stride, (j+1)*stride) x [i*stride, ...).
    Positions are the cell centers in pixel coordinates, shape (rows*cols, 2)
    as (x, y) in row-major cell order.
    """
    rows, cols = _grid_shape(width, height, stride)
    cx = (np.arange(cols) + 0.5) * stride - 0.5
    cy = (np.arange(rows) + 0.5) * stride - 0.5
    gx, gy = np.meshgrid(cx, cy)
    return rows, cols, np.stack([gx.ravel(), gy.ravel()], axis=1)


@dataclass
class TrajectoryField:
    """Per-anchor trajectory coefficients on a stride-spaced grid.

    ``coeffs`` has shape (rows, cols, degree, 2) holding (x, y) offsets in
    pixels. Evaluation is read-only and thread-safe; updates replace or
    mutate ``coeffs`` under a single writer.
    """

    basis: Basis
    stride: int
    width: int
    height: int
    coeffs: np.ndarray

    def __post_init__(self):
        rows, cols, _ = anchor_grid(self.width, self.height, self.stride)
        expect = (rows, cols, self.basis.degree, 2)
        if self.coeffs.shape != expect:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expect}")

    @classmethod
    def zeros(cls, width: int, height: int, stride: int = 4, basis: Basis = Basis(BEZIER, 10)):
        rows, cols, _ = anchor_grid(width, height, stride)
        coeffs = np.zeros((rows, cols, basis.degree, 2), dtype=np.float64)
        return cls(basis, stride, width, height, coeffs)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.coeffs.shape[0], self.coeffs.shape[1]

    @property
    def n_anchors(self) -> int:
        return self.coeffs.shape[0] * self.coeffs.shape[1]

    def anchor_positions(self) -> np.ndarray:
        """(n_anchors, 2) cell-center positions, row-major, (x, y)."""
        return anchor_grid(self.width, self.height, self.stride)[2]

    def flat_coeffs(self) -> np.ndarray:
        """View of coeffs as (n_anchors, degree, 2)."""
        return self.coeffs.reshape(self.n_anchors, self.basis.degree, 2)

    def copy(self) -> "TrajectoryField":
        return TrajectoryField(
            self.basis, self.stride, self.width, self.height, self.coeffs.copy()
        )


def eval_trajectory_batch(field: TrajectoryField, times) -> np.ndarray:
    """Positions of every anchor at every time, shape (T, n_anchors, 2).

    This layout feeds the displacement-volume builder directly.
    """
    g = displacement_basis(field.basis, times)  # (T, D)
    disp = np.einsum("td,ndc->tnc", g, field.flat_coeffs())
    return field.anchor_positions()[None, :, :] + disp


def save_field(field: TrajectoryField, path) -> None:
    rows, cols = field.grid_shape
    header = np.zeros(1, dtype=_TRJ1_HEADER)
    header["magic"] = TRJ1_MAGIC
    header["kind"] = _KIND_CODE[field.basis.kind]
    header["degree"] = field.basis.degree
    header["stride"] = field.stride
    header["rows"], header["cols"] = rows, cols
    header["width"], header["height"] = field.width, field.height
    with open(path, "wb") as f:
        f.write(header.tobytes())
        f.write(field.coeffs.astype("<f4").tobytes())


def load_field(path) -> TrajectoryField:
    """Read a TRJ1 file; malformed input raises ValueError naming the byte offset."""
    raw = Path(path).read_bytes()
    if len(raw) < _TRJ1_HEADER.itemsize:
        raise ValueError(f"{path}: truncated TRJ1 header, file ends at byte {len(raw)}")
    h = np.frombuffer(raw, dtype=_TRJ1_HEADER, count=1)[0]
    if bytes(h["magic"]) != TRJ1_MAGIC:
        raise ValueError(f"{path}: bad TRJ1 magic at byte 0")
    at = {name: _TRJ1_HEADER.fields[name][1] for name in _TRJ1_HEADER.names}
    code, degree, stride = int(h["kind"]), int(h["degree"]), int(h["stride"])
    if code not in _CODE_KIND:
        raise ValueError(f"{path}: unknown TRJ1 basis code {code} at byte {at['kind']}")
    if degree < 1:
        raise ValueError(f"{path}: TRJ1 degree {degree} at byte {at['degree']} must be >= 1")
    if stride < 1:
        raise ValueError(f"{path}: TRJ1 stride {stride} at byte {at['stride']} must be >= 1")
    rows, cols = int(h["rows"]), int(h["cols"])
    width, height = int(h["width"]), int(h["height"])
    grid = _grid_shape(width, height, stride)
    if (rows, cols) != grid:
        raise ValueError(
            f"{path}: TRJ1 grid {rows}x{cols} at byte {at['rows']} does not match the "
            f"{grid[0]}x{grid[1]} anchor grid of a {width}x{height} image at stride {stride}"
        )
    basis = Basis(_CODE_KIND[code], degree)
    n = rows * cols * degree * 2
    expected = _TRJ1_HEADER.itemsize + 4 * n
    if len(raw) != expected:
        raise ValueError(
            f"{path}: TRJ1 body of {n} float32 values should end at byte {expected}, "
            f"file ends at byte {len(raw)}"
        )
    coeffs = np.frombuffer(raw, dtype="<f4", count=n, offset=_TRJ1_HEADER.itemsize)
    coeffs = coeffs.astype(np.float64).reshape(rows, cols, degree, 2)
    return TrajectoryField(basis, stride, width, height, coeffs)
