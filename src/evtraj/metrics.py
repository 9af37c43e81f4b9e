"""Flow and trajectory evaluation: EPE, AE, %Out, TEPE, TAE, FWL.

Angular error follows the space-time convention: each flow vector (u, v)
is lifted to (u, v, 1) and the angle between prediction and ground truth
is measured in degrees. Outliers are pixels whose endpoint error exceeds
3 px (strict). :func:`score_time` scores one query time, all three from
one set of masked differences. EPE, AE and %Out are taken at the last
query time; TEPE and TAE average the per-time EPE and AE over all query
times. FWL is the variance ratio of the warped accumulation image to the
zero-warp one; above 1 means the warp sharpened it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .assoc import bin_centers, event_lookup
from .events import EventSlice
from .objective import build_iwe, warp_events

# time bins of evaluation's FWL table, the estimator's default; fixed, so
# that a report depends on the maps and events, not on the flags they came from
_FWL_BINS = 15


@dataclass
class MotionEval:
    """Aggregated evaluation results."""

    epe: float
    ae: float
    pct_out: float
    tepe: float
    tae: float
    fwl: float
    n_valid: int


def score_time(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray):
    """(EPE, AE, %Out) of one query time's maps (H, W, 2) within ``mask``:
    the mean endpoint error, the mean space-time angular error (degrees)
    and the fraction of endpoint errors strictly above 3 px."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty evaluation mask")
    dp, dg = pred[mask], gt[mask]
    err = np.linalg.norm(dp - dg, axis=-1)
    num = dp[:, 0] * dg[:, 0] + dp[:, 1] * dg[:, 1] + 1.0
    den = np.sqrt(dp[:, 0] ** 2 + dp[:, 1] ** 2 + 1.0) * np.sqrt(dg[:, 0] ** 2 + dg[:, 1] ** 2 + 1.0)
    ang = np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0)))
    return float(err.mean()), float(ang.mean()), float((err > 3.0).mean())


def fwl(sl: EventSlice, delta, sites) -> float:
    """Variance ratio of the IWE warped by the displacements ``delta``,
    (S, 2) per site of ``sites``, an ``assoc.EventLookup``, to plain
    accumulation.

    Both images are built through the identical path (bilinear voting,
    no time weighting, polarities summed), so a zero displacement gives
    exactly 1.
    """

    def variance(d):
        return float(np.var(build_iwe(warp_events(sl, d, sites)).sum(axis=0)))

    base = variance(0)
    if base == 0.0:
        raise ValueError("degenerate slice: zero-warp accumulation has no variance")
    return variance(delta) / base


def _flow_map_table(flows, times, valids) -> np.ndarray:
    """Stride-1 (_FWL_BINS, H, W, 2) displacement table toward t = 1 from
    dense flow maps in time order: piecewise-linear in time through (0,
    zero) and the maps, past the last one constant; invalid pixels give 0."""
    times = [0.0, *times]
    stack = [np.zeros_like(flows[0])] + [np.where(v[..., None], f, 0.0) for f, v in zip(flows, valids)]

    def interp(t):
        for a in range(len(times) - 1):
            if times[a] <= t <= times[a + 1]:
                w = (t - times[a]) / (times[a + 1] - times[a])
                return (1 - w) * stack[a] + w * stack[a + 1]
        return stack[-1]

    final = interp(1.0)
    return np.stack([final - interp(t) for t in bin_centers(_FWL_BINS)])


def evaluate_trajectories(
    pred_traj: np.ndarray,
    gt_traj: np.ndarray,
    masks: np.ndarray,
    sl: EventSlice,
    times,
) -> MotionEval:
    """EPE, AE and %Out at the last query time, TEPE and TAE over all, and
    FWL by the predicted maps within ``masks``, at ascending ``times``.
    ``pred_traj`` and ``gt_traj`` are (T, H, W, 2) and ``masks`` (T, H, W)."""
    if pred_traj.shape != gt_traj.shape:
        raise ValueError("prediction and ground truth shapes differ")
    if len(pred_traj) != len(masks):
        raise ValueError("mask count does not match query-time count")
    epes, aes, outs = zip(*(score_time(p, g, m) for p, g, m in zip(pred_traj, gt_traj, masks)))
    lookup = event_lookup(sl, _FWL_BINS, 1)
    return MotionEval(
        epe=epes[-1],
        ae=aes[-1],
        pct_out=outs[-1],
        tepe=float(np.mean(epes)),
        tae=float(np.mean(aes)),
        fwl=fwl(sl, lookup.read(_flow_map_table(pred_traj, times, masks)), lookup),
        n_valid=int(np.asarray(masks[-1], dtype=bool).sum()),
    )


def format_report(ev: MotionEval) -> str:
    lines = [
        f"EPE   {ev.epe:10.4f} px",
        f"AE    {ev.ae:10.4f} deg",
        f"%Out  {100.0 * ev.pct_out:10.4f} %",
        f"TEPE  {ev.tepe:10.4f} px",
        f"TAE   {ev.tae:10.4f} deg",
        f"FWL   {ev.fwl:10.4f}",
        f"valid pixels: {ev.n_valid}",
    ]
    return "\n".join(lines)


def report_csv(ev: MotionEval) -> str:
    """A header of :class:`MotionEval`'s field names and a row of their values."""
    values = asdict(ev)
    row = ",".join(str(v) if isinstance(v, int) else f"{v:.17g}" for v in values.values())
    return ",".join(values) + "\n" + row + "\n"
