"""Flow and trajectory evaluation: EPE, AE, %Out, TEPE, TAE, FWL.

Angular error follows the space-time convention: each flow vector (u, v)
is lifted to (u, v, 1) and the angle between prediction and ground truth
is measured in degrees. Outliers are pixels whose endpoint error exceeds
3 px (strict). EPE, AE and %Out are taken at the last query time; TEPE and
TAE average the per-time EPE and AE over all query times. FWL is the
variance ratio of the warped accumulation image to the zero-warp one;
above 1 means the warp sharpened it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .assoc import DisplacementVolume
from .events import EventSlice
from .objective import build_iwe, warp_events


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


def epe_ae(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray):
    """Mean endpoint error and mean space-time angular error (degrees)."""
    if pred.shape != gt.shape:
        raise ValueError("pred and gt shapes differ")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty evaluation mask")
    dp = pred[mask]
    dg = gt[mask]
    epe = float(np.linalg.norm(dp - dg, axis=-1).mean())
    num = dp[:, 0] * dg[:, 0] + dp[:, 1] * dg[:, 1] + 1.0
    den = np.sqrt(dp[:, 0] ** 2 + dp[:, 1] ** 2 + 1.0) * np.sqrt(
        dg[:, 0] ** 2 + dg[:, 1] ** 2 + 1.0
    )
    ang = np.degrees(np.arccos(np.clip(num / den, -1.0, 1.0)))
    return epe, float(ang.mean())


def pct_out(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of masked pixels with endpoint error strictly above 3 px."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty evaluation mask")
    err = np.linalg.norm(pred[mask] - gt[mask], axis=-1)
    return float((err > 3.0).mean())


def tepe_tae(pred_traj: np.ndarray, gt_traj: np.ndarray, masks: np.ndarray):
    """Trajectory metrics over displacement maps at matched query times.

    ``pred_traj``/``gt_traj`` are (T, H, W, 2); ``masks`` is (T, H, W).
    Returns a dict with tepe, tae (means of the per-time values) and the
    per-time (epe, ae) list.
    """
    if pred_traj.shape != gt_traj.shape:
        raise ValueError("prediction and ground truth shapes differ")
    if len(pred_traj) != len(masks):
        raise ValueError("mask count does not match query-time count")
    per_time = [epe_ae(pred_traj[i], gt_traj[i], masks[i]) for i in range(len(pred_traj))]
    tepe = float(np.mean([e for e, _ in per_time]))
    tae = float(np.mean([a for _, a in per_time]))
    return {"tepe": tepe, "tae": tae, "per_time": per_time}


def fwl(sl: EventSlice, volume_est: DisplacementVolume) -> float:
    """Variance ratio of the warped IWE to plain accumulation.

    Both images are built through the identical path (bilinear voting,
    no time weighting, polarities summed), so a zero-displacement
    estimate gives exactly 1.
    """

    def variance(volume):
        warped = warp_events(sl, volume)
        return float(np.var(build_iwe(warped).sum(axis=0)))

    base = variance(DisplacementVolume.zeros(sl.width, sl.height))
    if base == 0.0:
        raise ValueError("degenerate slice: zero-warp accumulation has no variance")
    return variance(volume_est) / base


def evaluate_trajectories(
    pred_traj: np.ndarray,
    gt_traj: np.ndarray,
    masks: np.ndarray,
    sl: EventSlice,
    volume_est: DisplacementVolume,
) -> MotionEval:
    """EPE, AE and %Out at the last query time, TEPE and TAE over all, FWL."""
    traj = tepe_tae(pred_traj, gt_traj, masks)
    epe, ae = traj["per_time"][-1]
    return MotionEval(
        epe=epe,
        ae=ae,
        pct_out=pct_out(pred_traj[-1], gt_traj[-1], masks[-1]),
        tepe=traj["tepe"],
        tae=traj["tae"],
        fwl=fwl(sl, volume_est),
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
