"""Command-line orchestration: synth, estimate, eval, render, rerun.

Every command writes a ``manifest.json`` snapshot of its resolved
arguments next to its outputs; ``evtraj rerun MANIFEST`` re-executes the
command from that snapshot and reproduces the data files byte-exactly
(the manifest itself records fresh timings). Exit codes: 0 success,
2 usage/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .assoc import DisplacementVolume, KnnConfig, build_displacement_volume, interpolate_flow
from .events import EventFormatError, load_events, save_events
from .flowio import load_flow, save_flow
from .metrics import evaluate_trajectories, format_report, report_csv
from .objective import ObjectiveConfig, build_iwe, warp_events, write_iwe_pgm
from .optimize import DivergenceError, OptimConfig, minimize, save_trace_csv
from .synth import generate_events, load_scene_config, scene_from_config
from .trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField, load_field, save_field
from .metrics import fwl as fwl_metric


def _write_manifest(out_dir: Path, command: str, args: dict, outputs: list, wall_s: float) -> None:
    manifest = {
        "tool": "evtraj",
        "version": __version__,
        "command": command,
        "args": args,
        "outputs": sorted(str(o) for o in outputs),
        "timings": {"wall_s": wall_s},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_synth(args: dict) -> int:
    t0 = time.perf_counter()
    out_dir = Path(args["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = load_scene_config(args["spec"])
    root = np.random.SeedSequence(args["seed"])
    place_seed, event_seed = root.spawn(2)
    spec = scene_from_config(cfg, np.random.default_rng(place_seed))
    sl, gt = generate_events(spec, event_seed)
    outputs = []
    events_path = out_dir / "events.evt1"
    save_events(sl, events_path)
    outputs.append(events_path)
    for i, t in enumerate(gt.times):
        path = out_dir / f"gt_{i:02d}.flo1"
        save_flow(path, gt.disp[i], float(t), valid=gt.valid[i])
        outputs.append(path)
    _write_manifest(out_dir, "synth", args, outputs, time.perf_counter() - t0)
    print(f"wrote {len(sl)} events and {len(gt.times)} GT maps to {out_dir}")
    return 0


def _flow_times(text: str) -> list:
    times = [float(v) for v in text.split(",")]
    if not all(0.0 <= t <= 1.0 for t in times):
        raise ValueError(f"--flow-times must lie in [0, 1], got {text!r}")
    return times


def cmd_estimate(args: dict) -> int:
    t0 = time.perf_counter()
    # the flow times and configs are checked before the events are read,
    # the fit runs or anything is written
    times = _flow_times(args["flow_times"])
    basis = Basis(POLYNOMIAL if args["basis"] == "poly" else BEZIER, args["degree"])
    ocfg = OptimConfig(
        iterations=args["iters"],
        lr=args["lr"],
        seed=args["seed"],
        objective=ObjectiveConfig(
            lam=args["lambda"],
            sigma=args["sigma"],
            knn=KnnConfig(k=args["k"]),
            n_bins=args["nbins"],
            time_weighting=not args["no_time_weighting"],
        ),
        fixed_reference=args["fixed_ref"],
    )
    sl = load_events(args["events"])
    field0 = TrajectoryField.zeros(sl.width, sl.height, args["stride"], basis)
    out_dir = Path(args["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = minimize(sl, field0, ocfg)
    outputs = []
    field_path = out_dir / "field.trj1"
    save_field(trace.field, field_path)
    outputs.append(field_path)
    trace_path = out_dir / "trace.csv"
    save_trace_csv(trace, trace_path)
    outputs.append(trace_path)
    flows = interpolate_flow(trace.field, times, args["k"])
    for i, t in enumerate(times):
        path = out_dir / f"flow_{i:02d}.flo1"
        save_flow(path, flows[i], t)
        outputs.append(path)
    _write_manifest(out_dir, "estimate", args, outputs, time.perf_counter() - t0)
    final = f"final total {trace.total[-1]:.6g}" if len(trace) else "no iterations run"
    print(f"estimate done: {len(trace)} iterations, {final}, field -> {field_path}")
    return 0


def _volume_from_flow_maps(flows, times, valids, width, height, n_bins=15):
    """Stride-1 displacement volume toward t_ref=1 from dense flow maps.

    Piecewise-linear interpolation in time through (0, zero) and the
    provided maps; invalid pixels fall back to zero displacement.
    """
    order = np.argsort(times)
    times = [0.0] + [times[i] for i in order]
    stack = [np.zeros_like(flows[0])] + [
        np.where(valids[i][..., None], flows[i], 0.0) for i in order
    ]
    bin_centers = (np.arange(n_bins) + 0.5) / n_bins

    def interp(t):
        if t <= times[0]:
            return stack[0]
        for a in range(len(times) - 1):
            if times[a] <= t <= times[a + 1]:
                w = (t - times[a]) / (times[a + 1] - times[a])
                return (1 - w) * stack[a] + w * stack[a + 1]
        return stack[-1]

    final = interp(1.0)
    disp = np.stack([final - interp(t) for t in bin_centers])
    return DisplacementVolume(
        t_ref=1.0,
        stride=1,
        width=width,
        height=height,
        bin_centers=bin_centers,
        disp=disp,
        knn_indices=np.zeros((n_bins, height, width, 1), dtype=np.int64),
    )


def cmd_eval(args: dict) -> int:
    t0 = time.perf_counter()
    pred_paths = sorted(args["pred"])
    gt_paths = sorted(args["gt"])
    if len(pred_paths) != len(gt_paths) or not pred_paths:
        raise ValueError("pred and gt must list the same nonzero number of maps")
    preds, gts, masks, times = [], [], [], []
    for pp, gp in zip(pred_paths, gt_paths):
        pf, pt, pv = load_flow(pp)
        gf, gtt, gv = load_flow(gp)
        if pf.shape != gf.shape:
            raise ValueError(f"shape mismatch between {pp} and {gp}")
        if abs(pt - gtt) > 1e-9:
            raise ValueError(f"time mismatch between {pp} ({pt}) and {gp} ({gtt})")
        preds.append(pf)
        gts.append(gf)
        masks.append(pv & gv)
        times.append(pt)
    sl = load_events(args["events"])
    volume = _volume_from_flow_maps(preds, times, masks, sl.width, sl.height)
    ev = evaluate_trajectories(
        np.stack(preds), np.stack(gts), np.stack(masks), sl=sl, volume_est=volume
    )
    report = format_report(ev)
    print(report)
    outputs = []
    if args.get("out"):
        out_dir = Path(args["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(report + "\n")
        (out_dir / "report.csv").write_text(report_csv(ev))
        outputs = [out_dir / "report.txt", out_dir / "report.csv"]
        _write_manifest(out_dir, "eval", args, outputs, time.perf_counter() - t0)
    return 0


def cmd_render(args: dict) -> int:
    t0 = time.perf_counter()
    sl = load_events(args["events"])
    t_ref = args["tref"]
    if not 0.0 <= t_ref <= 1.0:
        raise ValueError(f"t_ref must lie in [0, 1], got {t_ref}")
    if args.get("field"):
        field = load_field(args["field"])
        volume = build_displacement_volume(field, t_ref, KnnConfig(k=args["k"]), args["nbins"])
        print(f"FWL = {fwl_metric(sl, volume):.4f}")
    else:
        volume = DisplacementVolume.zeros(sl.width, sl.height, n_bins=args["nbins"])
    warped = warp_events(sl, volume)
    iwe = build_iwe(warped, polarity_split=True)
    out = Path(args["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_iwe_pgm(iwe, out, bits=args["bits"], which=args["which"])
    if args.get("manifest"):
        _write_manifest(out.parent, "render", args, [out], time.perf_counter() - t0)
    print(f"wrote {out}")
    return 0


_DISPATCH = {"synth": cmd_synth, "estimate": cmd_estimate, "eval": cmd_eval, "render": cmd_render}


def cmd_rerun(args: dict) -> int:
    manifest = json.loads(Path(args["manifest"]).read_text())
    command = manifest["command"]
    if command not in _DISPATCH:
        raise ValueError(f"manifest names unknown command {command!r}")
    return _DISPATCH[command](manifest["args"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtraj",
        description="Continuous-time dense motion estimation from event streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene (events + GT flow)")
    p.add_argument("spec", help="key=value scene config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("estimate", help="estimate trajectories from events")
    p.add_argument("events", help="EVT1 event file")
    p.add_argument("--out", required=True)
    p.add_argument("--basis", choices=["poly", "bezier"], default="bezier")
    p.add_argument("--degree", type=int, default=10)
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--nbins", type=int, default=15)
    p.add_argument("--lambda", dest="lambda", type=float, default=0.003,
                   help="smoothness weight, applied against the per-pixel contrast "
                        "(the mean IWE gradient magnitude), so it means the same "
                        "at any resolution")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-ref", dest="fixed_ref", action="store_true",
                   help="use the three-fixed-reference baseline objective")
    p.add_argument("--no-time-weighting", dest="no_time_weighting", action="store_true")
    p.add_argument("--flow-times", dest="flow_times", default="1.0",
                   help="comma list of normalized times for the emitted flow maps")

    p = sub.add_parser("eval", help="compare predicted flow maps against ground truth")
    p.add_argument("--pred", nargs="+", required=True, help="predicted FLO1 maps")
    p.add_argument("--gt", nargs="+", required=True, help="ground-truth FLO1 maps")
    p.add_argument("--events", required=True, help="event file for FWL")
    p.add_argument("--out", default=None, help="optional report directory")

    p = sub.add_parser("render", help="render an IWE to PGM")
    p.add_argument("events")
    p.add_argument("--field", default=None, help="optional TRJ1 trajectory field")
    p.add_argument("--tref", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--bits", type=int, choices=[8, 16], default=8)
    p.add_argument("--which", choices=["sum", "pos", "neg"], default="sum")
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--nbins", type=int, default=15)
    p.add_argument("--manifest", action="store_true", help="also write a manifest")

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    args = vars(ns)
    command = args.pop("command")
    try:
        if command == "rerun":
            return cmd_rerun(args)
        return _DISPATCH[command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EventFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
