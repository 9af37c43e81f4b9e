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
u8 (0 polynomial, 1 bezier), degree u16 (for bezier at most
``MAX_BEZIER_DEGREE``), stride u16, grid rows u32, grid cols u32, image
width u32, image height u32, then float32 coefficients in row-major
anchor order, x then y per basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from evtraj import binfile

POLYNOMIAL = "polynomial"
BEZIER = "bezier"

# the highest Bezier degree whose binomial coefficients are finite in float64
MAX_BEZIER_DEGREE = 1029
_BEZIER_LIMIT = f"exceeds {MAX_BEZIER_DEGREE}, the highest whose binomial coefficients float64 holds"

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
    """Temporal basis family: ``kind`` in {polynomial, bezier}, degree >= 1,
    and for bezier at most ``MAX_BEZIER_DEGREE``."""

    kind: str
    degree: int

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, BEZIER):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.kind == BEZIER and self.degree > MAX_BEZIER_DEGREE:
            raise ValueError(f"bezier degree {self.degree} {_BEZIER_LIMIT}")


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
    def zeros(cls, width: int, height: int, stride: int, basis: Basis):
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

    def basis_rows(self) -> np.ndarray:
        """Copy of coeffs as (degree, 2 n_anchors): one contiguous row per
        basis index, (x, y) per anchor in row-major order, as
        :func:`contract_basis` reads them."""
        return self.flat_coeffs().transpose(1, 0, 2).reshape(self.basis.degree, 2 * self.n_anchors)

    def copy(self) -> "TrajectoryField":
        return TrajectoryField(
            self.basis, self.stride, self.width, self.height, self.coeffs.copy()
        )


def contract_basis(w, rows) -> np.ndarray:
    """(I, M) sums out[i] = +0.0 + w[i, 0] rows[0] + w[i, 1] rows[1] + ...
    of a (I, J) weight matrix and J rows of length M.

    Each term is added in order of j, over whole contiguous rows, starting
    at +0.0, so a sum of -0.0 terms is +0.0 and J = 0 gives zeros. These
    are the sums np.einsum forms for a basis contraction such as
    "td,ndc->tnc" or "bnc,bd->ndc", bit for bit, without its inner loops
    over the length-2 (x, y) axis.
    """
    out = np.zeros((len(w), rows.shape[1]))
    term = np.empty_like(out)
    for wj, row in zip(w.T, rows):
        out += np.multiply(wj[:, None], row, out=term)
    return out


def eval_trajectory_batch(field: TrajectoryField, times) -> np.ndarray:
    """Positions of every anchor at every time, shape (T, n_anchors, 2).

    This layout feeds the displacement-volume builder directly.
    """
    g = displacement_basis(field.basis, times)  # (T, D)
    disp = contract_basis(g, field.basis_rows()).reshape(len(g), field.n_anchors, 2)
    return field.anchor_positions()[None, :, :] + disp


def trj1_header(field: TrajectoryField, path) -> np.ndarray:
    """The TRJ1 header of ``field``. A degree or stride above 65535, which
    TRJ1 stores as u16, raises ValueError naming ``path`` and the field."""
    rows, cols = field.grid_shape
    return binfile.header(path, _TRJ1_HEADER, magic=TRJ1_MAGIC, kind=_KIND_CODE[field.basis.kind],
                          degree=field.basis.degree, stride=field.stride, rows=rows, cols=cols,
                          width=field.width, height=field.height)


def save_field(field: TrajectoryField, path) -> None:
    """Write a TRJ1 file. A header value that does not fit its field
    (:func:`trj1_header`), or a coefficient that is not finite in float32,
    which :func:`load_field` rejects, raises ValueError and writes nothing."""
    head = trj1_header(field, path)
    with np.errstate(over="ignore"):
        body = field.coeffs.astype("<f4")
    bad = np.flatnonzero(~np.isfinite(body))
    if bad.size:
        raise ValueError(f"{path}: TRJ1 coefficient {field.coeffs.flat[bad[0]]} is not finite in float32")
    binfile.write(path, head, body)


def load_field(path) -> TrajectoryField:
    """Read a TRJ1 file; malformed input raises ValueError naming the byte offset."""
    f = binfile.Reader(path, TRJ1_MAGIC, _TRJ1_HEADER)
    code, degree, stride = int(f.header["kind"]), int(f.header["degree"]), int(f.header["stride"])
    f.check(code not in _CODE_KIND, "kind", f"basis code {code}", " is unknown")
    f.check(degree < 1, "degree", f"degree {degree}", " must be >= 1")
    f.check(_CODE_KIND[code] == BEZIER and degree > MAX_BEZIER_DEGREE, "degree", f"bezier degree {degree}",
            f" {_BEZIER_LIMIT}")
    f.check(stride < 1, "stride", f"stride {stride}", " must be >= 1")
    rows, cols = int(f.header["rows"]), int(f.header["cols"])
    width, height = int(f.header["width"]), int(f.header["height"])
    grid = _grid_shape(width, height, stride)
    f.check((rows, cols) != grid, "rows", f"grid {rows}x{cols}", f" does not match the {grid[0]}x{grid[1]} "
            f"anchor grid of a {width}x{height} image at stride {stride}")
    coeffs = f.body("<f4", rows * cols * degree * 2)
    f.first_bad(~np.isfinite(coeffs), "non-finite coefficient")
    coeffs = coeffs.astype(np.float64).reshape(rows, cols, degree, 2)
    return TrajectoryField(Basis(_CODE_KIND[code], degree), stride, width, height, coeffs)
