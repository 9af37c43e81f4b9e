"""Shared synthetic scenes and ground-truth trajectory fields for tests."""

import numpy as np

from evtraj.assoc import EventLookup, event_lookup
from evtraj.events import EventSlice
from evtraj.synth import BezierMotion, CircularMotion, SceneSpec, generate_events, scatter_points
from evtraj.trajectory import Basis, TrajectoryField, displacement_basis


def constant_scene(
    width=64,
    height=64,
    v=(5.0, -3.0),
    n_points=200,
    n_events=20000,
    noise=0.0,
    seed=0,
    coverage_radius=None,
):
    motion = BezierMotion((tuple(v),))
    rng = np.random.default_rng(seed)
    points = scatter_points(width, height, n_points, rng, motion)
    spec = SceneSpec(
        width=width,
        height=height,
        motion=motion,
        points=points,
        n_events=n_events,
        noise_fraction=noise,
        query_times=np.linspace(0.0, 1.0, 7),
        coverage_radius=coverage_radius,
    )
    sl, gt = generate_events(spec, seed + 1)
    return sl, gt, spec


def arc_scene(
    width=64,
    height=64,
    radius=15.0,
    angle=np.pi / 2,
    n_points=250,
    n_events=25000,
    noise=0.0,
    seed=0,
    coverage_radius=None,
):
    """Quarter-turn rotation about the image center; texture on an annulus
    around the given radius so every trajectory is a true arc."""
    center = ((width - 1) / 2.0, (height - 1) / 2.0)
    motion = CircularMotion(center, angle)
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n_points:
        r = rng.uniform(0.6 * radius, 1.4 * radius)
        th = rng.uniform(0.0, 2 * np.pi)
        p = np.array([center[0] + r * np.cos(th), center[1] + r * np.sin(th)])
        path = p + motion.displacement(p, np.linspace(0, 1, 32))
        if (
            path[:, 0].min() >= 0
            and path[:, 0].max() <= width - 1
            and path[:, 1].min() >= 0
            and path[:, 1].max() <= height - 1
        ):
            points.append(p)
    spec = SceneSpec(
        width=width,
        height=height,
        motion=motion,
        points=np.array(points),
        n_events=n_events,
        noise_fraction=noise,
        query_times=np.linspace(0.0, 1.0, 7),
        coverage_radius=coverage_radius,
    )
    sl, gt = generate_events(spec, seed + 1)
    return sl, gt, spec


def shared_site_slice(rng, n_sites=150, width=32, height=32, n_bins=5, repeats=(2, 12)):
    """Events that share their site, a (time bin of ``n_bins`` over [0, 1],
    pixel, polarity): ``n_sites`` distinct sites, each repeated between
    ``repeats`` times inclusive, at distinct timestamps inside its bin."""
    keys = rng.choice(n_bins * height * width * 2, n_sites, replace=False)
    counts = rng.integers(repeats[0], repeats[1] + 1, n_sites)
    b, y, x, negative = np.unravel_index(np.repeat(keys, counts), (n_bins, height, width, 2))
    t = (b + rng.uniform(0.02, 0.98, len(b))) / n_bins
    assert len(np.unique(t)) == len(t)
    return EventSlice.from_arrays(x, y, t, 1 - 2 * negative, width, height, t_start=0.0, t_end=1.0)


def own_sites(sl) -> EventLookup:
    """A lookup in which every event is its own site, site = first =
    arange(N), for checks whose oracle works per event. It warps and votes
    per event, bit for bit as one event at a time would; it reads no
    table, so it has no ``read`` or ``pullback``."""
    each = np.arange(len(sl))
    return EventLookup(read=None, pullback=None, site=each, first=each)


def event_entries(sl, table, stride):
    """Each event's entry of the (n_bins, rows, cols, 2) ``table`` of
    ``stride`` cells: its site's, read once per site."""
    lookup = event_lookup(sl, len(table), stride)
    return lookup.read(table)[lookup.site]


def gt_field(motion, width, height, stride, basis: Basis) -> TrajectoryField:
    """Least-squares fit of the motion model onto the trajectory basis,
    anchor by anchor. Exact for motions inside the basis span."""
    field = TrajectoryField.zeros(width, height, stride, basis)
    ts = np.linspace(0.0, 1.0, 4 * basis.degree + 8)
    g = displacement_basis(basis, ts)  # (T, D)
    anchors = field.anchor_positions()
    target = motion.displacement(anchors, ts[:, None])  # (T, N, 2)
    sol, *_ = np.linalg.lstsq(g, target.reshape(len(ts), -1), rcond=None)
    field.coeffs[...] = sol.reshape(basis.degree, field.grid_shape[0], field.grid_shape[1], 2).transpose(
        1, 2, 0, 3
    )
    return field
