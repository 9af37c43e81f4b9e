"""Command-line orchestration: synth, estimate, eval, render, rerun.

synth and estimate write a ``manifest.json`` of their resolved arguments
next to their outputs, eval does with ``--out``, render never. ``evtraj
rerun MANIFEST`` checks the snapshot against the command's own options,
re-executes the command from it and reproduces the data files
byte-exactly (the manifest itself records fresh timings).
Exit codes: 0 success, 2 usage/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .assoc import build_displacement_volume, event_lookup, interpolate_flow
from .events import load_events, save_events
from .flowio import load_flow, save_flow
from .metrics import evaluate_trajectories, format_report, fwl, report_csv
from .objective import ObjectiveConfig, build_iwe, warp_events, write_iwe_pgm
from .optimize import DivergenceError, OptimConfig, minimize, save_trace_csv
from .synth import generate_events, load_scene_config, scene_from_config
from .trajectory import BEZIER, POLYNOMIAL, Basis, TrajectoryField, load_field, save_field, trj1_header


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
    cfg = load_scene_config(args["spec"])
    root = np.random.SeedSequence(args["seed"])
    place_seed, event_seed = root.spawn(2)
    # generate_events refuses a scene that parses but cannot carry its events
    try:
        spec = scene_from_config(cfg, np.random.default_rng(place_seed))
        sl, gt = generate_events(spec, event_seed)
    except ValueError as exc:
        raise ValueError(f"{args['spec']}: {exc}") from None
    out_dir = Path(args["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
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
    try:
        times = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--flow-times must be a comma list of numbers, got {text!r}") from None
    if not all(0.0 <= t <= 1.0 for t in times):
        raise ValueError(f"--flow-times must lie in [0, 1], got {text!r}")
    return times


def cmd_estimate(args: dict) -> int:
    t0 = time.perf_counter()
    # the flow times and configs are checked before the events are read,
    # k and the field's TRJ1 header once they are, sigma against the sensor
    # by minimize before its first pass; nothing is written until the fit
    # has run, so a refused or diverged fit leaves no output directory
    times = _flow_times(args["flow_times"])
    basis = Basis(POLYNOMIAL if args["basis"] == "poly" else BEZIER, args["degree"])
    ocfg = OptimConfig(
        iterations=args["iters"],
        lr=args["lr"],
        seed=args["seed"],
        objective=ObjectiveConfig(
            lam=args["lambda"],
            sigma=args["sigma"],
            k=args["k"],
            n_bins=args["nbins"],
            time_weighting=not args["no_time_weighting"],
        ),
        fixed_reference=args["fixed_ref"],
    )
    sl = load_events(args["events"])
    field0 = TrajectoryField.zeros(sl.width, sl.height, args["stride"], basis)
    if args["k"] > field0.n_anchors:
        raise ValueError(f"--k {args['k']} exceeds the anchor count {field0.n_anchors}")
    out_dir = Path(args["out"])
    field_path = out_dir / "field.trj1"
    trj1_header(field0, field_path)
    trace = minimize(sl, field0, ocfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
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


def _maps_by_time(paths) -> list:
    """(path, flow, t, valid) of each FLO1 map, in time order, ties in name order."""
    return sorted(((path, *load_flow(path)) for path in sorted(paths)), key=lambda m: m[2])


def cmd_eval(args: dict) -> int:
    t0 = time.perf_counter()
    n_pred, n_gt = len(args["pred"]), len(args["gt"])
    if n_pred != n_gt or not n_pred:
        raise ValueError(f"--pred and --gt must pair up one or more maps, got {n_pred} and {n_gt}")
    sl = load_events(args["events"])
    preds, gts, masks, times = [], [], [], []
    # pairs in time order, so the last pair is the latest time, where the
    # EPE, AE and %Out are taken
    for (pp, pf, pt, pv), (gp, gf, gtt, gv) in zip(_maps_by_time(args["pred"]), _maps_by_time(args["gt"])):
        if not 0.0 <= pt <= 1.0:
            raise ValueError(f"{pp}: flow time {pt} lies outside [0, 1]")
        for path, f in ((pp, pf), (gp, gf)):
            if f.shape[:2] != (sl.height, sl.width):
                raise ValueError(f"{path} is {f.shape[1]}x{f.shape[0]} but the sensor is {sl.width}x{sl.height}")
        if abs(pt - gtt) > 1e-9:
            raise ValueError(f"time mismatch between {pp} ({pt}) and {gp} ({gtt})")
        if not (pv & gv).any():
            raise ValueError(f"{pp} and {gp} share no valid pixel")
        preds.append(pf)
        gts.append(gf)
        masks.append(pv & gv)
        times.append(pt)
    ev = evaluate_trajectories(np.stack(preds), np.stack(gts), np.stack(masks), sl, times)
    report = format_report(ev)
    # the files first, so that a closed stdout leaves them whole
    if args.get("out"):
        out_dir = Path(args["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(report + "\n")
        (out_dir / "report.csv").write_text(report_csv(ev))
        outputs = [out_dir / "report.txt", out_dir / "report.csv"]
        _write_manifest(out_dir, "eval", args, outputs, time.perf_counter() - t0)
    print(report)
    return 0


def cmd_render(args: dict) -> int:
    sl = load_events(args["events"])
    t_ref = args["tref"]
    if not 0.0 <= t_ref <= 1.0:
        raise ValueError(f"t_ref must lie in [0, 1], got {t_ref}")
    cfg = ObjectiveConfig(k=args["k"], n_bins=args["nbins"])
    if args.get("field"):
        path = args["field"]
        field = load_field(path)
        if (field.width, field.height) != (sl.width, sl.height):
            raise ValueError(f"{path} is {field.width}x{field.height} but the sensor is {sl.width}x{sl.height}")
        if cfg.k > field.n_anchors:
            raise ValueError(f"{path}: --k {cfg.k} exceeds the field's anchor count {field.n_anchors}")
        volume = build_displacement_volume(field, t_ref, cfg.k, cfg.n_bins)
        lookup = event_lookup(sl, cfg.n_bins, field.stride)
        delta = lookup.read(volume.disp)
        print(f"FWL = {fwl(sl, delta, lookup):.4f}")
    else:
        delta, lookup = 0, event_lookup(sl, cfg.n_bins, 1)
    iwe = build_iwe(warp_events(sl, delta, lookup))
    out = Path(args["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_iwe_pgm(iwe, out, bits=args["bits"], which=args["which"])
    print(f"wrote {out}")
    return 0


_DISPATCH = {"synth": cmd_synth, "estimate": cmd_estimate, "eval": cmd_eval, "render": cmd_render}


def cmd_rerun(args: dict) -> int:
    path = args["manifest"]
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("args"), dict):
        raise ValueError(f"{path}: a manifest must be a JSON object with an object 'args'")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _DISPATCH:
        raise ValueError(f"{path}: manifest names unknown command {command!r}")
    _check_manifest_args(path, command, manifest["args"])
    return _DISPATCH[command](manifest["args"])


def _check_manifest_args(path, command: str, args: dict) -> None:
    """Refuse ``args`` unless they set each option of ``evtraj <command>``,
    and only those, to a value the option parses back to itself from the
    command line: a flag's bool, a list for ``nargs="+"``, None only where
    that is an optional default."""
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}

    def parses_back(action, value):
        if value is None:
            return action.default is None and not action.required
        try:
            parsed = (action.type or str)(str(value))
        except ValueError:
            return False
        return parsed == value and (action.choices is None or parsed in action.choices)

    for key in sorted(set(args) | set(actions)):
        action, value = actions.get(key), args.get(key)
        if action is None or key not in args:
            fault = "missing" if action else f"not an option of `evtraj {command}`"
            raise ValueError(f"{path}: manifest key {key!r} is {fault}")
        if action.nargs == 0:
            ok = isinstance(value, bool)
        elif action.nargs == "+":
            ok = isinstance(value, list) and len(value) > 0 and all(parses_back(action, v) for v in value)
        else:
            ok = parses_back(action, value)
        if not ok:
            raise ValueError(
                f"{path}: manifest key {key!r} holds {json.dumps(value)}, not an `evtraj {command}` value"
            )


def build_parser() -> argparse.ArgumentParser:
    # the estimator's defaults live in its config dataclasses
    optim = OptimConfig()
    objective = optim.objective
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
    p.add_argument("--k", type=int, default=objective.k)
    p.add_argument("--nbins", type=int, default=objective.n_bins)
    p.add_argument("--lambda", dest="lambda", type=float, default=objective.lam,
                   help="smoothness weight, applied against the per-pixel contrast "
                        "(the mean IWE gradient magnitude), so it means the same "
                        "at any resolution")
    p.add_argument("--sigma", type=float, default=objective.sigma)
    p.add_argument("--iters", type=int, default=optim.iterations)
    p.add_argument("--lr", type=float, default=optim.lr)
    p.add_argument("--seed", type=int, default=optim.seed)
    p.add_argument("--fixed-ref", dest="fixed_ref", action="store_true",
                   help="score the loss over the fixed references t = 0, 0.5, 1 "
                        "(weights 1, 2, 1), normalized by the zero-warp contrast, "
                        "with lambda = 0 and no time weighting")
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
    p.add_argument("--k", type=int, default=objective.k)
    p.add_argument("--nbins", type=int, default=objective.n_bins)

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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
