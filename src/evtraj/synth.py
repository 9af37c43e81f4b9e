"""Synthetic event streams with analytic ground truth.

Scenes are point-sampled: a set of texture seed points traces a known
motion curve, and each point emits events at Poisson times along its
curve with alternating polarity. This skips photometric simulation
entirely (contrast objectives care about event geometry, not intensity)
and yields exact dense ground-truth displacement maps from the motion
model, which makes verification assertions sharp.

A motion's ``displacement(points, times)`` broadcasts points (..., 2)
against times (...), so one call moves every pixel at every query time,
every placement candidate along its path, or every event. One draw of all
points' event times, or of a round of candidates, gives the same doubles
in the same order as one draw per point or per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .assoc import knn_per_bin
from .events import MAX_SIDE, EventSlice
from .trajectory import BEZIER, MAX_BEZIER_DEGREE, Basis, anchor_grid, displacement_basis

_PATH_SAMPLES = 32
_MAX_TRIES = 10000


@dataclass(frozen=True)
class CircularMotion:
    """Rotation of the whole plane about ``center`` by ``angle``*t radians."""

    center: tuple[float, float]
    angle: float

    def displacement(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Displacement of ``points`` (..., 2) at ``times`` (...), broadcast together."""
        rel = np.asarray(points, dtype=np.float64) - np.asarray(self.center)
        th = self.angle * np.asarray(times, dtype=np.float64)
        cos, sin = np.cos(th), np.sin(th)
        rx = cos * rel[..., 0] - sin * rel[..., 1]
        ry = sin * rel[..., 0] + cos * rel[..., 1]
        return np.stack([rx - rel[..., 0], ry - rel[..., 1]], axis=-1)


@dataclass(frozen=True)
class BezierMotion:
    """Uniform translation along a Bezier arc given by control offsets.

    ``offsets`` has shape (degree, 2); the t=0 control point is pinned to
    zero so motion starts at rest, matching the trajectory prior. Degree 1,
    ``((vx, vy),)``, is constant velocity: displacement t * v.
    """

    offsets: tuple

    def displacement(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Displacement of ``points`` (..., 2) at ``times`` (...), broadcast together."""
        times = np.asarray(times, dtype=np.float64)
        offs = np.asarray(self.offsets, dtype=np.float64)
        if len(offs) == 1:
            # t * v directly: a matmul would turn t = 0's -0.0 into +0.0
            out = times[..., None] * offs[0]
        else:
            out = (displacement_basis(Basis(BEZIER, len(offs)), times.ravel()) @ offs).reshape(times.shape + (2,))
        return np.broadcast_to(out, np.broadcast_shapes(np.shape(points)[:-1], times.shape) + (2,)).copy()


@dataclass
class SceneSpec:
    """Recipe for one synthetic scene.

    ``points``: texture seed positions.
    ``n_events`` is the total event budget; a ``noise_fraction`` share of
    it becomes uniform space-time noise and the rest is split across the
    texture points with equal probability.
    ``coverage_radius``, when set, must be >= 0 and restricts the
    ground-truth validity mask to pixels within that distance of an
    observed texture event.
    """

    width: int
    height: int
    motion: object
    points: np.ndarray
    n_events: int
    noise_fraction: float = 0.0
    query_times: np.ndarray = dc_field(default_factory=lambda: np.linspace(0.0, 1.0, 7))
    coverage_radius: float | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if self.points.size == 0:
            self.points = self.points.reshape(0, 2)
        self.query_times = np.asarray(self.query_times, dtype=np.float64)
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError(f"scene key noise={self.noise_fraction!r} must lie in [0, 1]")
        if len(self.points) and (
            np.any(self.points[:, 0] < 0)
            or np.any(self.points[:, 0] > self.width - 1)
            or np.any(self.points[:, 1] < 0)
            or np.any(self.points[:, 1] > self.height - 1)
        ):
            raise ValueError("seed points must lie inside the image")
        if self.n_events < 0:
            raise ValueError("n_events must be >= 0")
        if not np.all((self.query_times >= 0.0) & (self.query_times <= 1.0)):
            raise ValueError(f"query_times must lie in [0, 1], got {self.query_times.tolist()}")
        if self.coverage_radius is not None and not self.coverage_radius >= 0.0:
            raise ValueError(f"scene key coverage_radius={self.coverage_radius!r} must be >= 0")


@dataclass
class GroundTruth:
    """Dense displacement maps at the query times, plus validity masks."""

    times: np.ndarray  # (T,)
    disp: np.ndarray  # (T, H, W, 2)
    valid: np.ndarray  # (T, H, W) bool


def scatter_points(width: int, height: int, n: int, rng: np.random.Generator, motion) -> np.ndarray:
    """Sample (n, 2) texture points whose full motion path stays inside the image.

    Rejection sampling against the path sampled at ``_PATH_SAMPLES``
    times, giving up after ``_MAX_TRIES`` rejected draws. Each round draws
    the n - accepted candidates still needed in one call, the same doubles
    in the same order as one draw per candidate, and checks their paths in
    one motion call: ``_PATH_SAMPLES`` x 2 doubles per candidate, 205 KB
    at 400 points.
    """
    ts = np.linspace(0.0, 1.0, _PATH_SAMPLES)
    out = np.empty((0, 2))
    rejected = 0
    while len(out) < n:
        cand = rng.uniform([0.0, 0.0], [width - 1.0, height - 1.0], size=(n - len(out), 2))
        path = cand + motion.displacement(cand, ts[:, None])  # (_PATH_SAMPLES, m, 2)
        outside = np.any((path < 0.0) | (path > [width - 1.0, height - 1.0]), axis=(0, 2))
        rejected += np.count_nonzero(outside)
        if rejected > _MAX_TRIES:
            raise ValueError("could not place texture points inside the image")
        out = np.concatenate([out, cand[~outside]])
    return out


def generate_events(spec: SceneSpec, seed: int) -> tuple[EventSlice, GroundTruth]:
    """Emit the scene's events and its analytic ground truth.

    Signal events: the budget is split over the texture points by one
    equal-probability multinomial draw; each point's events take uniform
    i.i.d. times on [0, 1] (Poisson arrivals conditioned on the count)
    and polarity alternating along the point's own timeline. One draw of
    every point's times gives the same doubles as one draw per point;
    each point's slice is sorted in place, and one motion call moves every
    signal event, each a (point, time) pair.
    Events whose rounded position leaves the sensor are dropped. Noise
    events are uniform in space, time, and polarity.
    """
    rng = np.random.default_rng(seed)
    n_noise = int(round(spec.noise_fraction * spec.n_events))
    n_signal = spec.n_events - n_noise
    n_points = len(spec.points)
    if n_signal > 0 and n_points == 0:
        raise ValueError("degenerate scene: no texture points to carry signal events")

    counts = rng.multinomial(n_signal, np.ones(n_points) / n_points) if n_points else np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    times = rng.random(n_signal)
    for start, count in zip(starts, counts):
        times[start : start + count].sort()
    owner = np.repeat(spec.points, counts, axis=0)
    pix = np.round(owner + spec.motion.displacement(owner, times)).astype(np.int64)
    keep = np.all((pix >= 0) & (pix < [spec.width, spec.height]), axis=1)
    rank = np.arange(n_signal) - np.repeat(starts, counts)
    x = np.concatenate([pix[keep, 0], rng.integers(0, spec.width, n_noise)])
    y = np.concatenate([pix[keep, 1], rng.integers(0, spec.height, n_noise)])
    t = np.concatenate([times[keep], rng.random(n_noise)])
    p = np.concatenate([np.where(rank[keep] % 2 == 0, 1, -1), rng.choice([-1, 1], n_noise)])
    sl = EventSlice.from_arrays(x, y, t, p, spec.width, spec.height, t_start=0.0, t_end=1.0)

    _, _, pixels = anchor_grid(spec.width, spec.height, 1)
    disp = spec.motion.displacement(pixels, spec.query_times[:, None])
    disp = disp.reshape(len(spec.query_times), spec.height, spec.width, 2)
    valid = np.ones((len(spec.query_times), spec.height, spec.width), dtype=bool)
    if spec.coverage_radius is not None:
        covered = np.zeros(spec.height * spec.width, dtype=bool)
        obs = np.unique(pix[keep], axis=0).astype(np.float64)
        if len(obs):
            d = pixels - obs[knn_per_bin(pixels, obs[None], k=1)[0, :, 0]]
            # the nearest distance, with the search's own float64 operations
            covered = np.sqrt(np.square(d[:, 0]) + np.square(d[:, 1])) <= spec.coverage_radius
        valid &= covered.reshape(1, spec.height, spec.width)
    return sl, GroundTruth(times=spec.query_times.copy(), disp=disp, valid=valid)


def load_scene_config(path) -> dict:
    """Parse a key=value scene file into a dict of strings; ValueError names a bad or repeated line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    cfg, line_of = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in cfg:
            raise ValueError(f"{path}: scene key {key} is repeated (lines {line_of[key]} and {lineno})")
        cfg[key], line_of[key] = value, lineno
    return cfg


def _required(cfg: dict, key: str) -> str:
    """The value of scene key ``key``; ValueError naming the key when it is missing."""
    if key not in cfg:
        raise ValueError(f"scene key {key} is missing")
    return cfg[key]


def _finite(key: str, text: str) -> float:
    """``text``, the value of scene key ``key`` or one of its entries, as a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValueError(f"scene key {key}={text!r} is not a finite number")
    return value


def _count(key: str, text: str, low: int, high: int | None = None) -> int:
    """``text``, the value of scene key ``key``, as an integer >= ``low``
    and, given ``high``, <= ``high``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"scene key {key}={text!r} is not an integer") from None
    if value < low:
        raise ValueError(f"scene key {key}={text!r} must be >= {low}")
    if high is not None and value > high:
        raise ValueError(f"scene key {key}={text!r} must be <= {high}")
    return value


def scene_from_config(cfg: dict, rng: np.random.Generator) -> SceneSpec:
    """Instantiate a SceneSpec from a parsed config, placing texture points.

    Recognized keys: width, height (1 to ``events.MAX_SIDE``), n_events,
    points (count, >= 0), noise, motion=constant|circular|bezier with their
    parameters (vx/vy; cx/cy/angle; offsets=x:y,x:y,...), and optional
    coverage_radius, query_times (comma list). Unknown keys are ignored. A missing key, or
    a value that is not a finite number or an integer in range, raises
    ValueError naming its key.
    """
    width = _count("width", _required(cfg, "width"), 1, MAX_SIDE)
    height = _count("height", _required(cfg, "height"), 1, MAX_SIDE)
    kind = cfg.get("motion", "constant")
    if kind == "constant":
        motion = BezierMotion(((_finite("vx", _required(cfg, "vx")), _finite("vy", _required(cfg, "vy"))),))
    elif kind == "circular":
        center = (_finite("cx", _required(cfg, "cx")), _finite("cy", _required(cfg, "cy")))
        motion = CircularMotion(center, _finite("angle", _required(cfg, "angle")))
    elif kind == "bezier":
        text = _required(cfg, "offsets")
        pairs = [pair.split(":") for pair in text.split(",")]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"scene key offsets={text!r} must list x:y pairs")
        if len(pairs) > MAX_BEZIER_DEGREE:
            raise ValueError(f"scene key offsets lists {len(pairs)} x:y pairs, more than {MAX_BEZIER_DEGREE}")
        motion = BezierMotion(tuple(tuple(_finite("offsets", v) for v in pair) for pair in pairs))
    else:
        raise ValueError(f"scene key motion={kind!r} must be constant, circular or bezier")
    n_points = _count("points", cfg.get("points", "200"), 0)
    points = scatter_points(width, height, n_points, rng, motion)
    kw = {}
    if "query_times" in cfg:
        kw["query_times"] = np.array([_finite("query_times", v) for v in cfg["query_times"].split(",")])
    if "coverage_radius" in cfg:
        kw["coverage_radius"] = _finite("coverage_radius", cfg["coverage_radius"])
    return SceneSpec(
        width=width,
        height=height,
        motion=motion,
        points=points,
        n_events=_count("n_events", cfg.get("n_events", "20000"), 0),
        noise_fraction=_finite("noise", cfg.get("noise", "0")),
        **kw,
    )
