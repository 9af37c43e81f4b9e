"""Synthetic event streams with analytic ground truth.

Scenes are point-sampled: a set of texture seed points traces a known
motion curve, and each point emits events at Poisson times along its
curve with alternating polarity. This skips photometric simulation
entirely (contrast objectives care about event geometry, not intensity)
and yields exact dense ground-truth displacement maps from the motion
model, which makes verification assertions sharp.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .assoc import knn_per_bin
from .events import EventSlice
from .trajectory import BEZIER, Basis, displacement_basis


@dataclass(frozen=True)
class ConstantMotion:
    """Uniform translation: displacement t * v everywhere."""

    v: tuple[float, float]

    def displacement(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        v = np.asarray(self.v, dtype=np.float64)
        out = times[:, None, None] * v[None, None, :]
        return np.broadcast_to(out, (len(times), len(points), 2)).copy()


@dataclass(frozen=True)
class CircularMotion:
    """Rotation of the whole plane about ``center`` by ``angle``*t radians."""

    center: tuple[float, float]
    angle: float

    def displacement(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        rel = np.asarray(points, dtype=np.float64) - np.asarray(self.center)
        th = self.angle * times
        cos, sin = np.cos(th), np.sin(th)
        rx = cos[:, None] * rel[None, :, 0] - sin[:, None] * rel[None, :, 1]
        ry = sin[:, None] * rel[None, :, 0] + cos[:, None] * rel[None, :, 1]
        return np.stack([rx - rel[None, :, 0], ry - rel[None, :, 1]], axis=2)


@dataclass(frozen=True)
class BezierMotion:
    """Uniform translation along a Bezier arc given by control offsets.

    ``offsets`` has shape (degree, 2); the t=0 control point is pinned to
    zero so motion starts at rest, matching the trajectory prior.
    """

    offsets: tuple

    def displacement(self, points: np.ndarray, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        offs = np.asarray(self.offsets, dtype=np.float64)
        g = displacement_basis(Basis(BEZIER, len(offs)), times)  # (T, D)
        out = g @ offs  # (T, 2)
        return np.broadcast_to(out[:, None, :], (len(times), len(points), 2)).copy()


@dataclass
class SceneSpec:
    """Recipe for one synthetic scene.

    ``points``/``rates``: texture seed positions and relative event rates.
    ``n_events`` is the total event budget; a ``noise_fraction`` share of
    it becomes uniform space-time noise and the rest is split across the
    texture points proportionally to their rates.
    ``coverage_radius``, when set, restricts the ground-truth validity
    mask to pixels within that distance of an observed texture event.
    """

    width: int
    height: int
    motion: object
    points: np.ndarray
    rates: np.ndarray
    n_events: int
    noise_fraction: float = 0.0
    query_times: np.ndarray = dc_field(default_factory=lambda: np.linspace(0.0, 1.0, 7))
    coverage_radius: float | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if self.points.size == 0:
            self.points = self.points.reshape(0, 2)
        self.rates = np.atleast_1d(np.asarray(self.rates, dtype=np.float64))
        self.query_times = np.asarray(self.query_times, dtype=np.float64)
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise fraction must lie in [0, 1]")
        if np.any(self.rates < 0):
            raise ValueError("rates must be >= 0")
        if len(self.points) != len(self.rates):
            raise ValueError("points and rates must have equal length")
        if len(self.points) and (
            np.any(self.points[:, 0] < 0)
            or np.any(self.points[:, 0] > self.width - 1)
            or np.any(self.points[:, 1] < 0)
            or np.any(self.points[:, 1] > self.height - 1)
        ):
            raise ValueError("seed points must lie inside the image")
        if self.n_events < 0:
            raise ValueError("n_events must be >= 0")


@dataclass
class GroundTruth:
    """Dense displacement maps at the query times, plus validity masks."""

    times: np.ndarray  # (T,)
    disp: np.ndarray  # (T, H, W, 2)
    valid: np.ndarray  # (T, H, W) bool


def scatter_points(
    width: int,
    height: int,
    n: int,
    rng: np.random.Generator,
    motion=None,
    n_path_samples: int = 32,
    max_tries: int = 10000,
) -> np.ndarray:
    """Sample texture points whose full motion path stays inside the image.

    Rejection sampling against the path sampled at ``n_path_samples``
    times; with no motion given, any in-image point is accepted.
    """
    ts = np.linspace(0.0, 1.0, n_path_samples)
    out = []
    tries = 0
    while len(out) < n:
        tries += 1
        if tries > max_tries:
            raise ValueError("could not place texture points inside the image")
        p = rng.uniform([0.0, 0.0], [width - 1.0, height - 1.0])
        if motion is not None:
            path = p[None, :] + motion.displacement(p[None, :], ts)[:, 0, :]
            if (
                path[:, 0].min() < 0.0
                or path[:, 0].max() > width - 1.0
                or path[:, 1].min() < 0.0
                or path[:, 1].max() > height - 1.0
            ):
                continue
        out.append(p)
    return np.array(out)


def generate_events(spec: SceneSpec, seed: int) -> tuple[EventSlice, GroundTruth]:
    """Emit the scene's events and its analytic ground truth.

    Signal events: each texture point draws its share of the budget, with
    uniform i.i.d. times on [0, 1] (Poisson arrivals conditioned on the
    count) and polarity alternating along the point's own timeline.
    Events whose rounded position leaves the sensor are dropped. Noise
    events are uniform in space, time, and polarity.
    """
    rng = np.random.default_rng(seed)
    n_noise = int(round(spec.noise_fraction * spec.n_events))
    n_signal = spec.n_events - n_noise
    total_rate = float(spec.rates.sum())
    if n_signal > 0 and total_rate <= 0.0:
        raise ValueError("degenerate scene: no texture rate to carry signal events")

    xs, ys, ts, ps = [], [], [], []
    signal_pixels = []
    if n_signal > 0:
        counts = rng.multinomial(n_signal, spec.rates / total_rate)
        for point, count in zip(spec.points, counts):
            if count == 0:
                continue
            t = np.sort(rng.random(count))
            pos = point[None, :] + spec.motion.displacement(point[None, :], t)[:, 0, :]
            px = np.round(pos[:, 0]).astype(np.int64)
            py = np.round(pos[:, 1]).astype(np.int64)
            keep = (px >= 0) & (px < spec.width) & (py >= 0) & (py < spec.height)
            pol = np.where(np.arange(count) % 2 == 0, 1, -1)
            xs.append(px[keep])
            ys.append(py[keep])
            ts.append(t[keep])
            ps.append(pol[keep])
            signal_pixels.append(np.stack([px[keep], py[keep]], axis=1))
    if n_noise > 0:
        xs.append(rng.integers(0, spec.width, n_noise))
        ys.append(rng.integers(0, spec.height, n_noise))
        ts.append(rng.random(n_noise))
        ps.append(rng.choice([-1, 1], n_noise))

    if xs:
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        t = np.concatenate(ts)
        p = np.concatenate(ps)
    else:
        x = y = t = p = np.array([], dtype=np.int64)
    sl = EventSlice.from_arrays(x, y, t, p, spec.width, spec.height, t_start=0.0, t_end=1.0)

    gx, gy = np.meshgrid(np.arange(spec.width, dtype=np.float64),
                         np.arange(spec.height, dtype=np.float64))
    pixels = np.stack([gx.ravel(), gy.ravel()], axis=1)
    disp = spec.motion.displacement(pixels, spec.query_times)
    disp = disp.reshape(len(spec.query_times), spec.height, spec.width, 2)
    valid = np.ones((len(spec.query_times), spec.height, spec.width), dtype=bool)
    if spec.coverage_radius is not None:
        covered = np.zeros(spec.height * spec.width, dtype=bool)
        if signal_pixels:
            obs = np.unique(np.concatenate(signal_pixels, axis=0), axis=0)
            _, dist = knn_per_bin(pixels, obs.astype(np.float64), k=1)
            covered = dist[:, 0] <= spec.coverage_radius
        valid &= covered.reshape(1, spec.height, spec.width)
    return sl, GroundTruth(times=spec.query_times.copy(), disp=disp, valid=valid)


def load_scene_config(path) -> dict:
    """Parse a key=value scene file into a plain dict (strings untyped)."""
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def scene_from_config(cfg: dict, rng: np.random.Generator) -> SceneSpec:
    """Instantiate a SceneSpec from a parsed config, placing texture points.

    Recognized keys: width, height, n_events, points (count), noise,
    motion=constant|circular|bezier with their parameters (vx/vy;
    cx/cy/angle; offsets=x:y,x:y,...), and optional coverage_radius,
    query_times (comma list). Unknown keys are ignored.
    """
    width = int(cfg["width"])
    height = int(cfg["height"])
    kind = cfg.get("motion", "constant")
    if kind == "constant":
        motion = ConstantMotion((float(cfg["vx"]), float(cfg["vy"])))
    elif kind == "circular":
        motion = CircularMotion((float(cfg["cx"]), float(cfg["cy"])), float(cfg["angle"]))
    elif kind == "bezier":
        offsets = tuple(
            tuple(float(v) for v in pair.split(":")) for pair in cfg["offsets"].split(",")
        )
        motion = BezierMotion(offsets)
    else:
        raise ValueError(f"unknown motion kind {kind!r}")
    n_points = int(cfg.get("points", 200))
    points = scatter_points(width, height, n_points, rng, motion)
    kw = {}
    if "query_times" in cfg:
        kw["query_times"] = np.array([float(v) for v in cfg["query_times"].split(",")])
    if "coverage_radius" in cfg:
        kw["coverage_radius"] = float(cfg["coverage_radius"])
    return SceneSpec(
        width=width,
        height=height,
        motion=motion,
        points=points,
        rates=np.ones(n_points),
        n_events=int(cfg.get("n_events", 20000)),
        noise_fraction=float(cfg.get("noise", 0.0)),
        **kw,
    )
