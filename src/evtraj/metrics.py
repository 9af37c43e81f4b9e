"""Flow and trajectory evaluation: EPE, AE, %Out, TEPE, TAE, FWL.

Angular error follows the space-time convention: each flow vector (u, v)
is lifted to (u, v, 1) and the angle between prediction and ground truth
is measured in degrees. Outliers are pixels whose endpoint error exceeds
3 px (strict). Trajectory metrics average the per-time values over the
query times; trajectory outliers are computed on the per-pixel mean
endpoint error. FWL is the variance ratio of the warped accumulation
image to the zero-warp one; above 1 means the warp sharpened it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assoc import DisplacementVolume
from .events import EventSlice
from .objective import build_iwe, warp_events


@dataclass
class MotionEval:
    """Aggregated evaluation results; per_time holds (epe, ae) per query time."""

    epe: float
    ae: float
    pct_out: float
    tepe: float
    tae: float
    fwl: float
    per_time: list
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


def pct_out(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray, threshold: float = 3.0) -> float:
    """Fraction of masked pixels with endpoint error strictly above threshold."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty evaluation mask")
    err = np.linalg.norm(pred[mask] - gt[mask], axis=-1)
    return float((err > threshold).mean())


def tepe_tae(pred_traj: np.ndarray, gt_traj: np.ndarray, masks: np.ndarray, threshold: float = 3.0):
    """Trajectory metrics over displacement maps at matched query times.

    ``pred_traj``/``gt_traj`` are (T, H, W, 2); ``masks`` is (T, H, W).
    Returns a dict with tepe, tae (means of the per-time values), pct_out
    computed on the per-pixel mean endpoint error over pixels valid at
    every time, and the per-time (epe, ae) list.
    """
    if pred_traj.shape != gt_traj.shape:
        raise ValueError("prediction and ground truth shapes differ")
    if len(pred_traj) != len(masks):
        raise ValueError("mask count does not match query-time count")
    per_time = [epe_ae(pred_traj[i], gt_traj[i], masks[i]) for i in range(len(pred_traj))]
    tepe = float(np.mean([e for e, _ in per_time]))
    tae = float(np.mean([a for _, a in per_time]))
    common = np.asarray(masks, dtype=bool).all(axis=0)
    if common.any():
        err = np.linalg.norm(pred_traj - gt_traj, axis=-1)  # (T, H, W)
        pixel_tepe = err.mean(axis=0)[common]
        out = float((pixel_tepe > threshold).mean())
    else:
        out = float("nan")
    return {"tepe": tepe, "tae": tae, "pct_out": out, "per_time": per_time}


def fwl(sl: EventSlice, volume_est: DisplacementVolume) -> float:
    """Variance ratio of the warped IWE to plain accumulation.

    Both images are built through the identical path (bilinear voting,
    no time weighting, polarities summed), so a zero-displacement
    estimate gives exactly 1.
    """

    def variance(volume):
        warped = warp_events(sl, volume)
        return float(np.var(build_iwe(warped, polarity_split=False).total()))

    base = variance(DisplacementVolume.zeros(sl.width, sl.height, volume_est.stride, volume_est.n_bins))
    if base == 0.0:
        raise ValueError("degenerate slice: zero-warp accumulation has no variance")
    return variance(volume_est) / base


def evaluate_trajectories(
    pred_traj: np.ndarray,
    gt_traj: np.ndarray,
    masks: np.ndarray,
    sl: EventSlice | None = None,
    volume_est: DisplacementVolume | None = None,
    final_index: int = -1,
) -> MotionEval:
    """One-call evaluation bundle; FWL requires the events and a volume."""
    traj = tepe_tae(pred_traj, gt_traj, masks)
    epe, ae = epe_ae(pred_traj[final_index], gt_traj[final_index], masks[final_index])
    out = pct_out(pred_traj[final_index], gt_traj[final_index], masks[final_index])
    fwl_val = fwl(sl, volume_est) if sl is not None and volume_est is not None else float("nan")
    return MotionEval(
        epe=epe,
        ae=ae,
        pct_out=out,
        tepe=traj["tepe"],
        tae=traj["tae"],
        fwl=fwl_val,
        per_time=traj["per_time"],
        n_valid=int(np.asarray(masks, dtype=bool)[final_index].sum()),
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
    head = "epe,ae,pct_out,tepe,tae,fwl,n_valid"
    row = f"{ev.epe:.17g},{ev.ae:.17g},{ev.pct_out:.17g},{ev.tepe:.17g},{ev.tae:.17g},{ev.fwl:.17g},{ev.n_valid}"
    return head + "\n" + row + "\n"
