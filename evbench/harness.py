"""Run one evbench workload through the evtraj CLI and report its metrics.

A run repeats `evtraj estimate` and `evtraj eval` in-process through
``evtraj.cli.main`` until ``--seconds`` have passed, checking the outputs
of every repetition. Before each repetition it sets up the workload's
seeded scene ``SETUPS_PER_REP`` times (`evtraj synth` plus event loading),
so the set-up samples are spread over the whole run. With ``--trace 1``
every second repetition runs with spans around the public functions of
the evtraj modules, and the metrics are the per-layer ones. The last line
on stdout is one JSON object with the keys correct, attempted, failed and
metrics; everything the CLI prints goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from layers import SUMMARY_ONLY, LayerProbe
from tracing import Tracer
from workloads import QUERY_TIMES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".evbench-results"
SETUPS_PER_REP = 2
MIN_REPS = 3  # the warm-up and two timed repetitions


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def import_evtraj():
    """Import evtraj from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import evtraj.cli
    except ImportError as exc:
        raise SystemExit(f"evbench: cannot import evtraj from {SRC}: {exc}")
    if Path(evtraj.cli.__file__).resolve().parent != (SRC / "evtraj").resolve():
        raise SystemExit(f"evbench: evtraj was imported from {evtraj.cli.__file__}, not {SRC}")
    return evtraj


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def environment(evtraj) -> dict:
    """What two result files must share before they are compared."""
    src = hashlib.sha256()
    for path in sorted((SRC / "evtraj").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "evtraj": evtraj.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def quiet_cli(evtraj, argv) -> int:
    """``evtraj.cli.main(argv)`` with its stdout sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return evtraj.cli.main(argv)


def maybe_span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class Rep:
    """One estimate + eval repetition and what its checks found."""

    traced: bool
    warmup: bool = False  # checked and counted, but left out of every timing
    error: str | None = None
    estimate_s: float = float("nan")
    minimize_s: float = float("nan")
    iterations: int = 0
    digest: str = ""
    epe: float = float("nan")
    tepe: float = float("nan")
    fwl: float = float("nan")


def setup_scene(evtraj, w, seed: int, spec: Path, scene: Path, tracer=None):
    """Synthesize the scene and load its events; (seconds, digest of the scene files)."""
    shutil.rmtree(scene, ignore_errors=True)
    t0 = time.perf_counter()
    with maybe_span(tracer, "cli.synth"):
        rc = quiet_cli(evtraj, w.synth_argv(spec, scene, seed))
    expect(rc == 0, f"evtraj synth exited with {rc}")
    events = evtraj.events.load_events(scene / "events.evt1")
    elapsed = time.perf_counter() - t0
    expect(len(events) > 0, "synth wrote no events")
    return elapsed, sha256_files(sorted(scene.glob("*.evt1")) + sorted(scene.glob("*.flo1")))


def check_estimate(evtraj, w, out: Path, traces) -> list:
    """Check the estimate outputs; returns the field and flow-map paths."""
    expect(len(traces) == 1, f"expected one minimize call, saw {len(traces)}")
    expect(len(traces[0]) == w.iterations,
           f"ran {len(traces[0])} iterations, expected {w.iterations}")
    expect(np.all(np.isfinite(traces[0].total)), "non-finite loss in the optimizer trace")
    width, height = int(w.scene["width"]), int(w.scene["height"])
    stride, degree = w.flag("--stride", 4), w.flag("--degree", 10)
    field = evtraj.trajectory.load_field(out / "field.trj1")
    shape = (-(-height // stride), -(-width // stride), degree, 2)
    expect(field.coeffs.shape == shape, f"field coeffs {field.coeffs.shape}, expected {shape}")
    expect(np.all(np.isfinite(field.coeffs)), "non-finite field coefficients")
    paths = [out / "field.trj1"]
    for i, t in enumerate(QUERY_TIMES):
        path = out / f"flow_{i:02d}.flo1"
        flow, ft, _ = evtraj.flowio.load_flow(path)
        expect(flow.shape == (height, width, 2), f"{path.name} has shape {flow.shape}")
        expect(np.all(np.isfinite(flow)), f"{path.name} has non-finite values")
        expect(ft == t, f"{path.name} is at t={ft}, expected {t}")
        paths.append(path)
    return paths


def run_rep(evtraj, w, scene: Path, out: Path, tracer=None) -> Rep:
    """One `evtraj estimate` (timed) and `evtraj eval`, with output checks."""
    rep = Rep(traced=tracer is not None)
    shutil.rmtree(out, ignore_errors=True)
    cli = evtraj.cli
    traces = []
    inner = cli.minimize

    def keep_trace(*args, **kwargs):  # the OptimTrace carries minimize's own wall time
        trace = inner(*args, **kwargs)
        traces.append(trace)
        return trace

    cli.minimize = keep_trace
    try:
        with maybe_span(tracer, "cli.estimate"):
            t0 = time.perf_counter()
            rc = quiet_cli(evtraj, w.estimate_argv(scene / "events.evt1", out / "estimate"))
            rep.estimate_s = time.perf_counter() - t0
    finally:
        cli.minimize = inner
    expect(rc == 0, f"evtraj estimate exited with {rc}")
    paths = check_estimate(evtraj, w, out / "estimate", traces)
    rep.digest = sha256_files(paths)
    rep.minimize_s = traces[0].wall_time
    rep.iterations = len(traces[0])

    gts = sorted(str(p) for p in scene.glob("gt_*.flo1"))
    expect(len(gts) == len(QUERY_TIMES), f"scene has {len(gts)} ground-truth maps")
    argv = ["eval", "--pred", *map(str, paths[1:]), "--gt", *gts,
            "--events", str(scene / "events.evt1"), "--out", str(out / "eval")]
    with maybe_span(tracer, "cli.eval"):
        rc = quiet_cli(evtraj, argv)
    expect(rc == 0, f"evtraj eval exited with {rc}")
    head, row = (out / "eval" / "report.csv").read_text().splitlines()
    report = {k: float(v) for k, v in zip(head.split(","), row.split(","))}
    rep.epe, rep.tepe, rep.fwl = report["epe"], report["tepe"], report["fwl"]
    expect(all(np.isfinite([rep.epe, rep.tepe, rep.fwl])), f"non-finite eval report {report}")
    return rep


def attempt(fn, traced: bool) -> Rep:
    """Run ``fn``; a check or any error marks the repetition failed, never drops it."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        traceback.print_exc(file=sys.stderr)
        return Rep(traced=traced, error=f"{type(exc).__name__}: {exc}")


def knn_matches_bruteforce(evtraj, field, volume, seed: int) -> bool:
    """One seeded bin of ``volume`` against a stable brute-force argsort."""
    b = int(np.random.default_rng(seed).integers(volume.n_bins))
    _, _, centers = evtraj.trajectory.anchor_grid(field.width, field.height, field.stride)
    pos = evtraj.trajectory.eval_trajectory_batch(field, volume.bin_centers)[b]
    d2 = np.square(centers[:, None, 0] - pos[None, :, 0])
    d2 += np.square(centers[:, None, 1] - pos[None, :, 1])
    k = volume.knn_indices.shape[-1]
    want = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.array_equal(volume.knn_indices[b].reshape(-1, k), want)


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(evtraj, w, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    spec = work / "scene.cfg"
    spec.write_text(w.scene_text())
    scene, out = work / "scene", work / "out"
    tracer = Tracer() if trace else None
    probe = LayerProbe(tracer, evtraj.optimize.EPS_CONTRAST) if trace else None

    setups, setup_digests = [], set()

    def set_up():
        if probe:
            probe.install(evtraj)
        try:
            elapsed, digest = setup_scene(evtraj, w, seed, spec, scene, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        setups.append(elapsed)
        setup_digests.add(digest)
        expect(len(setup_digests) == 1, "synth output differs between set-ups with one seed")

    reps, durations = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or (
        time.perf_counter() - start + statistics.median(durations[1:]) <= seconds
    ):
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_REP):
            set_up()
        traced = trace and len(reps) % 2 == 1
        if traced:
            probe.install(evtraj)
        try:
            rep = attempt(lambda: run_rep(evtraj, w, scene, out, tracer if traced else None), traced)
        finally:
            if traced:
                tracer.uninstall()
        durations.append(time.perf_counter() - t0)
        rep.warmup = not reps
        reps.append(rep)

    ok = [r for r in reps if r.error is None]
    for r in ok[1:]:
        if r.digest != ok[0].digest:
            r.error = "field/flow digest differs from the run's first repetition"
    if trace and probe.last_build is not None:
        last = [r for r in reps if r.traced][-1]
        if last.error is None and not knn_matches_bruteforce(evtraj, *probe.last_build, seed):
            last.error = "knn_indices differ from the brute-force scan"
    ok = [r for r in reps if r.error is None]
    expect(any(not (r.warmup or r.traced) for r in ok), "no timed repetition succeeded")
    expect(not trace or any(r.traced for r in ok), "no traced repetition succeeded")
    return {"setups": setups, "reps": reps, "probe": probe, "tracer": tracer,
            "setup_digest": setup_digests.pop()}


def end_to_end(setups, ok) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "estimate_s": statistics.median(r.estimate_s for r in ok),
        "iters_per_s": statistics.median(r.iterations / r.minimize_s for r in ok),
        "epe_px": statistics.median(r.epe for r in ok),
        "tepe_px": statistics.median(r.tepe for r in ok),
        "fwl": statistics.median(r.fwl for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="evbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    evtraj = import_evtraj()
    declared = declared_metrics()
    env = environment(evtraj)

    work = Path(tempfile.mkdtemp(prefix=".evbench-", dir=ROOT))
    try:
        run = run_workload(evtraj, w, args.seed, args.seconds, bool(args.trace), work)
    except CheckFailed as exc:
        raise SystemExit(f"evbench: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = run["reps"]
    ok = [r for r in reps if r.error is None]
    plain = [r for r in ok if not (r.traced or r.warmup)]
    if args.trace:
        traced = [r for r in ok if r.traced]
        overhead = (statistics.median(r.estimate_s for r in traced)
                    / statistics.median(r.estimate_s for r in plain) - 1.0)
        values = run["probe"].metrics(overhead)
        summary = {n: values.pop(n) for n in SUMMARY_ONLY}
        kind = "per_layer"
    else:
        values = end_to_end(run["setups"], plain)
        summary = {}
        kind = "end_to_end"
    units = declared[kind]
    if set(values) != set(units):
        raise SystemExit(f"evbench: computed {sorted(set(values) ^ set(units))} "
                         f"not matching BENCHMARK.json {kind}")

    failed = len(reps) - len(ok)
    print(f"evbench {w.name} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} setups={len(run['setups'])}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"scene sha256 {run['setup_digest']}")
    for digest in sorted({r.digest for r in ok}):
        print(f"field+flow sha256 {digest}")
    for r in reps:
        if r.error:
            print(f"FAILED repetition: {r.error}")
    if not args.trace:
        for name, series in (("setup_s", run["setups"]), ("estimate_s", [r.estimate_s for r in plain])):
            q1, q3 = quartiles(series)
            print(f"  {name} samples={len(series)} p25={q1:.6g} p75={q3:.6g} max={max(series):.6g}")
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    for name, value in summary.items():
        print(f"{name:48s} {value:14.6g} (summary only)")
    print(f"{'failed_frac':48s} {failed / len(reps):14.6g} ratio ({failed} of {len(reps)})")

    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=w.name, seed=args.seed, env=env, summary=summary,
                  setups=run["setups"], reps=[asdict(r) for r in reps])
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [[s.name, s.start, s.end, s.parent] for s in run["tracer"].spans]
        Path(f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0
